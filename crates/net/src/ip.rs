//! Synthetic IPv4 allocation and geolocation.
//!
//! The paper locates players and supernodes by IP address ("node
//! locations and coordinates can be determined by IP addresses
//! \[20\], \[21\]") and has the cloud compute distances from those
//! coordinates. We reproduce the mechanism with a synthetic address
//! plan: each anchor city owns one or more /16 prefixes, hosts get
//! addresses inside their city's prefix, and [`GeoIpTable`] maps an
//! address back to the city centre — i.e. geolocation is *city
//! accurate, not host accurate*, exactly like commercial IP-geo
//! databases. The residual error (host scatter within the metro) is
//! what the player-side latency probing in supernode assignment has
//! to absorb, which keeps the protocol honest.

use std::fmt;

use crate::geo::{Coord, ANCHOR_CITIES};

/// A synthetic IPv4 address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ipv4(pub u32);

impl Ipv4 {
    /// Dotted-quad octets.
    pub fn octets(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }
}

impl fmt::Debug for Ipv4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.octets();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

impl fmt::Display for Ipv4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Base of the synthetic address space: 10.0.0.0/8 style private
/// space, one /16 per city starting here.
const BASE_PREFIX: u32 = 0x0A00_0000; // 10.0.0.0

/// Allocates addresses per city and geolocates them back.
#[derive(Clone, Debug, Default)]
pub struct GeoIpTable {
    /// Next host number within each city's /16.
    next_host: Vec<u16>,
}

impl GeoIpTable {
    /// An empty allocator covering all anchor cities.
    pub fn new() -> Self {
        GeoIpTable { next_host: vec![0; ANCHOR_CITIES.len()] }
    }

    /// Allocate the next address in `city_idx`'s prefix.
    ///
    /// Panics if a city's /16 is exhausted (65 536 hosts — far beyond
    /// any experiment in the paper).
    pub fn allocate(&mut self, city_idx: usize) -> Ipv4 {
        let host = self.next_host[city_idx];
        self.next_host[city_idx] = host.checked_add(1).expect("city /16 exhausted");
        Ipv4(BASE_PREFIX | ((city_idx as u32) << 16) | host as u32)
    }

    /// City index an address belongs to, if it is in our plan.
    pub fn city_of(&self, ip: Ipv4) -> Option<usize> {
        if ip.0 & 0xFF00_0000 != BASE_PREFIX {
            return None;
        }
        let city = ((ip.0 >> 16) & 0xFF) as usize;
        (city < ANCHOR_CITIES.len()).then_some(city)
    }

    /// Geolocate: the city-centre coordinate for the address (the
    /// database answer, not the host's true position).
    pub fn locate(&self, ip: Ipv4) -> Option<Coord> {
        self.city_of(ip).map(|c| ANCHOR_CITIES[c].coord())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_is_sequential_within_city() {
        let mut table = GeoIpTable::new();
        let a = table.allocate(3);
        let b = table.allocate(3);
        assert_eq!(a.0 >> 16, b.0 >> 16, "same /16 prefix");
        assert_eq!(b.0, a.0 + 1);
    }

    #[test]
    fn different_cities_get_different_prefixes() {
        let mut table = GeoIpTable::new();
        let a = table.allocate(0);
        let b = table.allocate(1);
        assert_ne!(a.0 >> 16, b.0 >> 16, "different /16 prefixes");
    }

    #[test]
    fn locate_roundtrips_to_city_centre() {
        let mut table = GeoIpTable::new();
        for (city, anchor) in ANCHOR_CITIES.iter().enumerate() {
            let ip = table.allocate(city);
            assert_eq!(table.city_of(ip), Some(city));
            let loc = table.locate(ip).unwrap();
            assert_eq!(loc.distance_km(&anchor.coord()), 0.0);
        }
    }

    #[test]
    fn foreign_addresses_do_not_geolocate() {
        let table = GeoIpTable::new();
        assert_eq!(table.city_of(Ipv4(0xC0A8_0001)), None); // 192.168.0.1
        assert_eq!(table.locate(Ipv4(0x0A_FF0000)), None); // city 255
    }

    #[test]
    fn display_is_dotted_quad() {
        assert_eq!(format!("{}", Ipv4(0x0A01_0002)), "10.1.0.2");
    }
}
