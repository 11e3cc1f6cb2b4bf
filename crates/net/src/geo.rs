//! Geography: a planar model of the continental United States.
//!
//! The paper places 10 000 simulated players (PeerSim) and 750
//! PlanetLab hosts across the US and reasons about "physically close"
//! supernodes found via IP geolocation. We reproduce that with a flat
//! map: WGS-84 city coordinates are projected onto a kilometre grid
//! with an equirectangular projection centred on the population
//! centroid of the US — at continental scale the projection error is
//! a few percent, far below the latency jitter it feeds into.
//!
//! [`ANCHOR_CITIES`] lists 48 metro/university anchors (every
//! PlanetLab-era site region is represented); populations scatter
//! around anchors with a Gaussian "metro radius".

use std::sync::OnceLock;

use cloudfog_sim::rng::Rng;

/// Projection origin: near the U.S. population centroid (Missouri).
const ORIGIN_LAT_DEG: f64 = 38.0;
const ORIGIN_LON_DEG: f64 = -92.0;
/// Kilometres per degree of latitude.
const KM_PER_DEG_LAT: f64 = 110.574;
/// Kilometres per degree of longitude at the origin latitude.
const KM_PER_DEG_LON: f64 = 111.320 * 0.788; // cos(38°) ≈ 0.788

/// A position on the planar map, in kilometres from the origin
/// (x grows east, y grows north).
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct Coord {
    /// East–west offset (km).
    pub x: f64,
    /// North–south offset (km).
    pub y: f64,
}

impl Coord {
    /// Project WGS-84 degrees onto the planar map.
    pub fn from_lat_lon(lat: f64, lon: f64) -> Coord {
        Coord {
            x: (lon - ORIGIN_LON_DEG) * KM_PER_DEG_LON,
            y: (lat - ORIGIN_LAT_DEG) * KM_PER_DEG_LAT,
        }
    }

    /// Euclidean distance to `other` in km.
    pub fn distance_km(&self, other: &Coord) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }
}

/// Coarse U.S. region, used for IP allocation and reporting.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Region {
    /// New England + Mid-Atlantic.
    Northeast,
    /// The South Atlantic seaboard.
    Southeast,
    /// East North Central + West North Central.
    Midwest,
    /// Texas and the south-central states.
    South,
    /// Mountain states.
    Mountain,
    /// Pacific coast.
    West,
}

impl Region {
    /// All regions, in a stable order.
    pub const ALL: [Region; 6] = [
        Region::Northeast,
        Region::Southeast,
        Region::Midwest,
        Region::South,
        Region::Mountain,
        Region::West,
    ];

    /// A stable small integer id (index into [`Region::ALL`]).
    pub fn index(self) -> usize {
        Region::ALL.iter().position(|&r| r == self).expect("region in ALL")
    }
}

/// A metro anchor: a place where simulated hosts cluster.
#[derive(Clone, Copy, Debug)]
pub struct City {
    /// Display name.
    pub name: &'static str,
    /// WGS-84 latitude (degrees).
    pub lat: f64,
    /// WGS-84 longitude (degrees).
    pub lon: f64,
    /// Coarse region.
    pub region: Region,
    /// Relative population weight (larger ⇒ more hosts nearby).
    pub weight: f64,
}

impl City {
    /// Planar position of the city centre.
    pub fn coord(&self) -> Coord {
        Coord::from_lat_lon(self.lat, self.lon)
    }
}

/// 48 metro/university anchors covering the continental US.
///
/// Weights are rough metro-population proportions; exact values only
/// shape the spatial density of players, which the paper does not pin
/// down beyond "nationwide".
pub const ANCHOR_CITIES: [City; 48] = [
    City { name: "New York, NY", lat: 40.71, lon: -74.01, region: Region::Northeast, weight: 19.0 },
    City { name: "Newark, NJ", lat: 40.74, lon: -74.17, region: Region::Northeast, weight: 2.0 },
    City { name: "Boston, MA", lat: 42.36, lon: -71.06, region: Region::Northeast, weight: 4.9 },
    City {
        name: "Philadelphia, PA",
        lat: 39.95,
        lon: -75.17,
        region: Region::Northeast,
        weight: 6.2,
    },
    City {
        name: "Pittsburgh, PA",
        lat: 40.44,
        lon: -79.99,
        region: Region::Northeast,
        weight: 2.3,
    },
    City { name: "Princeton, NJ", lat: 40.34, lon: -74.66, region: Region::Northeast, weight: 0.5 },
    City { name: "Ithaca, NY", lat: 42.44, lon: -76.50, region: Region::Northeast, weight: 0.3 },
    City { name: "Buffalo, NY", lat: 42.89, lon: -78.88, region: Region::Northeast, weight: 1.1 },
    City { name: "Hartford, CT", lat: 41.76, lon: -72.67, region: Region::Northeast, weight: 1.2 },
    City {
        name: "Washington, DC",
        lat: 38.91,
        lon: -77.04,
        region: Region::Southeast,
        weight: 6.3,
    },
    City { name: "Baltimore, MD", lat: 39.29, lon: -76.61, region: Region::Southeast, weight: 2.8 },
    City { name: "Richmond, VA", lat: 37.54, lon: -77.44, region: Region::Southeast, weight: 1.3 },
    City {
        name: "Raleigh-Durham, NC",
        lat: 35.79,
        lon: -78.64,
        region: Region::Southeast,
        weight: 2.0,
    },
    City { name: "Charlotte, NC", lat: 35.23, lon: -80.84, region: Region::Southeast, weight: 2.6 },
    City { name: "Atlanta, GA", lat: 33.75, lon: -84.39, region: Region::Southeast, weight: 6.0 },
    City { name: "Clemson, SC", lat: 34.68, lon: -82.84, region: Region::Southeast, weight: 0.3 },
    City { name: "Miami, FL", lat: 25.76, lon: -80.19, region: Region::Southeast, weight: 6.1 },
    City { name: "Orlando, FL", lat: 28.54, lon: -81.38, region: Region::Southeast, weight: 2.6 },
    City { name: "Tampa, FL", lat: 27.95, lon: -82.46, region: Region::Southeast, weight: 3.2 },
    City { name: "Nashville, TN", lat: 36.16, lon: -86.78, region: Region::Southeast, weight: 2.0 },
    City { name: "Chicago, IL", lat: 41.88, lon: -87.63, region: Region::Midwest, weight: 9.5 },
    City {
        name: "Urbana-Champaign, IL",
        lat: 40.11,
        lon: -88.21,
        region: Region::Midwest,
        weight: 0.3,
    },
    City { name: "Detroit, MI", lat: 42.33, lon: -83.05, region: Region::Midwest, weight: 4.3 },
    City { name: "Ann Arbor, MI", lat: 42.28, lon: -83.74, region: Region::Midwest, weight: 0.4 },
    City { name: "Cleveland, OH", lat: 41.50, lon: -81.69, region: Region::Midwest, weight: 2.1 },
    City { name: "Columbus, OH", lat: 39.96, lon: -83.00, region: Region::Midwest, weight: 2.1 },
    City { name: "Cincinnati, OH", lat: 39.10, lon: -84.51, region: Region::Midwest, weight: 2.2 },
    City {
        name: "Indianapolis, IN",
        lat: 39.77,
        lon: -86.16,
        region: Region::Midwest,
        weight: 2.1,
    },
    City { name: "Minneapolis, MN", lat: 44.98, lon: -93.27, region: Region::Midwest, weight: 3.7 },
    City { name: "Madison, WI", lat: 43.07, lon: -89.40, region: Region::Midwest, weight: 0.7 },
    City { name: "St. Louis, MO", lat: 38.63, lon: -90.20, region: Region::Midwest, weight: 2.8 },
    City { name: "Kansas City, MO", lat: 39.10, lon: -94.58, region: Region::Midwest, weight: 2.2 },
    City { name: "Dallas, TX", lat: 32.78, lon: -96.80, region: Region::South, weight: 7.6 },
    City { name: "Houston, TX", lat: 29.76, lon: -95.37, region: Region::South, weight: 7.1 },
    City { name: "Austin, TX", lat: 30.27, lon: -97.74, region: Region::South, weight: 2.3 },
    City { name: "San Antonio, TX", lat: 29.42, lon: -98.49, region: Region::South, weight: 2.6 },
    City { name: "Oklahoma City, OK", lat: 35.47, lon: -97.52, region: Region::South, weight: 1.4 },
    City { name: "New Orleans, LA", lat: 29.95, lon: -90.07, region: Region::South, weight: 1.3 },
    City { name: "Denver, CO", lat: 39.74, lon: -104.99, region: Region::Mountain, weight: 3.0 },
    City {
        name: "Salt Lake City, UT",
        lat: 40.76,
        lon: -111.89,
        region: Region::Mountain,
        weight: 1.3,
    },
    City { name: "Phoenix, AZ", lat: 33.45, lon: -112.07, region: Region::Mountain, weight: 5.0 },
    City { name: "Las Vegas, NV", lat: 36.17, lon: -115.14, region: Region::Mountain, weight: 2.3 },
    City {
        name: "Albuquerque, NM",
        lat: 35.08,
        lon: -106.65,
        region: Region::Mountain,
        weight: 0.9,
    },
    City { name: "Seattle, WA", lat: 47.61, lon: -122.33, region: Region::West, weight: 4.0 },
    City { name: "Portland, OR", lat: 45.52, lon: -122.68, region: Region::West, weight: 2.5 },
    City { name: "San Francisco, CA", lat: 37.77, lon: -122.42, region: Region::West, weight: 4.7 },
    City { name: "Los Angeles, CA", lat: 34.05, lon: -118.24, region: Region::West, weight: 13.2 },
    City { name: "San Diego, CA", lat: 32.72, lon: -117.16, region: Region::West, weight: 3.3 },
];

/// Standard deviation of host scatter around an anchor (km): hosts in
/// a metro are tens of km from its centre.
pub const METRO_SCATTER_KM: f64 = 30.0;

/// Draw a weighted anchor city index.
pub fn sample_city(rng: &mut Rng) -> usize {
    let total: f64 = ANCHOR_CITIES.iter().map(|c| c.weight).sum();
    let mut u = rng.f64() * total;
    for (i, c) in ANCHOR_CITIES.iter().enumerate() {
        u -= c.weight;
        if u <= 0.0 {
            return i;
        }
    }
    ANCHOR_CITIES.len() - 1
}

/// Scatter a host position around city `city_idx`.
pub fn scatter_around(city_idx: usize, rng: &mut Rng) -> Coord {
    let c = ANCHOR_CITIES[city_idx].coord();
    Coord { x: c.x + rng.normal(0.0, METRO_SCATTER_KM), y: c.y + rng.normal(0.0, METRO_SCATTER_KM) }
}

/// One anchor city at its centre-to-centre distance from another.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CityDistance {
    /// Index into [`ANCHOR_CITIES`].
    pub city: usize,
    /// Distance between the two city centres (km), exactly
    /// `ANCHOR_CITIES[from].coord().distance_km(&ANCHOR_CITIES[city].coord())`.
    pub km: f64,
}

/// Every anchor city ordered by centre distance from city `from`,
/// nearest first (`from` itself leads at 0 km), equal distances by
/// city index. Geolocation is city-accurate, so this is the order in
/// which the cloud sees every host of every city from a host of
/// `from`. Built once per process for all 48 × 48 pairs.
pub fn cities_by_distance(from: usize) -> &'static [CityDistance] {
    static RANKING: OnceLock<Vec<[CityDistance; ANCHOR_CITIES.len()]>> = OnceLock::new();
    let ranking = RANKING.get_or_init(|| {
        (0..ANCHOR_CITIES.len())
            .map(|from| {
                let centre = ANCHOR_CITIES[from].coord();
                let mut row = [CityDistance { city: 0, km: 0.0 }; ANCHOR_CITIES.len()];
                for (city, slot) in row.iter_mut().enumerate() {
                    *slot =
                        CityDistance { city, km: centre.distance_km(&ANCHOR_CITIES[city].coord()) };
                }
                row.sort_by(|a, b| a.km.total_cmp(&b.km).then(a.city.cmp(&b.city)));
                row
            })
            .collect()
    });
    &ranking[from]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projection_distances_are_plausible() {
        // NYC ↔ LA great-circle distance ≈ 3 940 km; the planar
        // projection should land within ~8 %.
        let nyc = Coord::from_lat_lon(40.71, -74.01);
        let la = Coord::from_lat_lon(34.05, -118.24);
        let d = nyc.distance_km(&la);
        assert!((3_600.0..4_300.0).contains(&d), "NYC-LA {d} km");

        // Princeton ↔ UCLA are the paper's two PlanetLab datacenters.
        let princeton = Coord::from_lat_lon(40.34, -74.66);
        let ucla = Coord::from_lat_lon(34.07, -118.44);
        let d2 = princeton.distance_km(&ucla);
        assert!((3_600.0..4_300.0).contains(&d2), "Princeton-UCLA {d2} km");

        // Short hop: Boston ↔ NYC ≈ 300 km.
        let boston = Coord::from_lat_lon(42.36, -71.06);
        let d3 = nyc.distance_km(&boston);
        assert!((250.0..400.0).contains(&d3), "NYC-Boston {d3} km");
    }

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let a = Coord::from_lat_lon(40.0, -100.0);
        let b = Coord::from_lat_lon(35.0, -90.0);
        assert_eq!(a.distance_km(&b), b.distance_km(&a));
        assert_eq!(a.distance_km(&a), 0.0);
    }

    #[test]
    fn city_table_covers_all_regions() {
        for region in Region::ALL {
            assert!(ANCHOR_CITIES.iter().any(|c| c.region == region), "no anchor in {region:?}");
        }
    }

    #[test]
    fn weighted_sampling_prefers_big_metros() {
        let mut rng = Rng::new(1);
        let mut counts = [0u32; ANCHOR_CITIES.len()];
        for _ in 0..50_000 {
            counts[sample_city(&mut rng)] += 1;
        }
        let nyc = ANCHOR_CITIES.iter().position(|c| c.name.starts_with("New York")).unwrap();
        let clemson = ANCHOR_CITIES.iter().position(|c| c.name.starts_with("Clemson")).unwrap();
        assert!(counts[nyc] > counts[clemson] * 10);
        // Every city is reachable.
        assert!(counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn scatter_stays_near_anchor() {
        let mut rng = Rng::new(2);
        let idx = 0;
        for _ in 0..1000 {
            let p = scatter_around(idx, &mut rng);
            let d = p.distance_km(&ANCHOR_CITIES[idx].coord());
            assert!(d < METRO_SCATTER_KM * 8.0, "scatter {d} km");
        }
    }

    #[test]
    fn city_ranking_is_every_city_by_centre_distance() {
        for (from, centre) in ANCHOR_CITIES.iter().enumerate() {
            let row = cities_by_distance(from);
            assert_eq!(row[0], CityDistance { city: from, km: 0.0 });
            let mut seen = [false; ANCHOR_CITIES.len()];
            for entry in row {
                seen[entry.city] = true;
                let want = centre.coord().distance_km(&ANCHOR_CITIES[entry.city].coord());
                assert_eq!(entry.km.to_bits(), want.to_bits());
            }
            assert!(seen.iter().all(|&s| s), "city {from}'s ranking is not a permutation");
            // Strictly increasing: no two anchor cities tie from any
            // city, so ties only ever come from supernodes sharing a city.
            assert!(row.windows(2).all(|w| w[0].km < w[1].km), "tie in city {from}'s ranking");
        }
    }

    #[test]
    fn region_index_is_stable() {
        for (i, r) in Region::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
        }
    }
}
