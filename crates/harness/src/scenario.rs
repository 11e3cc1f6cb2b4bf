//! Scenario vocabulary: what one cell of the test matrix runs.
//!
//! A [`Scenario`] is a fully concrete run description — system, seed,
//! scale, horizon, chaos template, adaptation policy — that
//! deterministically expands to a [`StreamingSimConfig`]. The
//! [`ScenarioMatrix`] builder takes the cross product
//! (prefetch × shard × policy × churn × template × players × seed ×
//! system) and numbers the cells, so a scenario id means the same run on every machine and
//! under every worker schedule.

use cloudfog_core::adapt::AdaptPolicyKind;
use cloudfog_core::fault::{FaultScript, WatchdogParams};
use cloudfog_core::systems::{
    ChurnConfig, JoinPattern, LiveConfig, PrefetchConfig, ShardedSimConfig, StreamingSimConfig,
    SystemKind,
};
use cloudfog_sim::telemetry::TelemetryConfig;
use cloudfog_sim::time::SimDuration;

/// Region-sharded execution recipe: run the cell as
/// `ceil(players / capacity)` sub-worlds exchanging events at tick
/// boundaries instead of one monolithic world (see
/// [`cloudfog_core::systems::sharded`]).
///
/// Like [`FaultTemplate`] and [`ChurnProfile`], a recipe: pure data,
/// `PartialEq`, cheap to clone — so sharding can be a matrix axis and
/// the shard-identity battery can sweep lane counts over otherwise
/// identical cells.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardProfile {
    /// Max residents per sub-world.
    pub capacity: usize,
    /// Tick-boundary exchange interval.
    pub tick: SimDuration,
    /// Execution lanes (bit-identical output for any value).
    pub lanes: usize,
}

impl ShardProfile {
    /// A profile with the given capacity, a 5 s boundary tick and one
    /// lane.
    pub fn with_capacity(capacity: usize) -> Self {
        ShardProfile { capacity, tick: SimDuration::from_secs(5), lanes: 1 }
    }

    /// Same profile on a different number of execution lanes.
    pub fn lanes(mut self, lanes: usize) -> Self {
        self.lanes = lanes;
        self
    }

    /// Short label for scenario names and report keys. Deliberately
    /// lane-free: two cells differing only in lanes must produce the
    /// same results, so they share a name.
    pub fn label(&self) -> String {
        format!("shard{}", self.capacity)
    }
}

/// Live-service churn recipe: a flash-crowd join pattern plus
/// supernode fleet dynamics, expanded per cell into a
/// [`JoinPattern::FlashCrowd`] and a [`ChurnConfig`].
///
/// Like [`FaultTemplate`], this is a *recipe*: pure data, `PartialEq`,
/// cheap to clone — so churn can be a matrix axis and shrink
/// candidates can drop it wholesale.
#[derive(Clone, Debug, PartialEq)]
pub struct ChurnProfile {
    /// Steady-state Poisson join rate (sessions/sec).
    pub base_rate: f64,
    /// When the flash crowd hits.
    pub spike_at: SimDuration,
    /// Join rate during the spike (sessions/sec).
    pub spike_rate: f64,
    /// How long the spike lasts.
    pub spike_duration: SimDuration,
    /// Poisson rate of mid-run supernode arrivals (events/sec, 0 off).
    pub supernode_arrival_rate: f64,
    /// Poisson rate of graceful supernode retirements (events/sec,
    /// 0 off).
    pub supernode_retire_rate: f64,
    /// Cooperative rebalance sweep period (`None` = no sweeps).
    pub rebalance_interval: Option<SimDuration>,
}

impl ChurnProfile {
    /// The default churn axis: a 10× flash crowd a third of the way
    /// into the run, with mild fleet churn and periodic rebalancing.
    pub fn flash_crowd(horizon: SimDuration) -> Self {
        let third = SimDuration::from_micros(horizon.as_micros() / 3);
        ChurnProfile {
            base_rate: 2.0,
            spike_at: third,
            spike_rate: 20.0,
            spike_duration: SimDuration::from_micros(horizon.as_micros() / 6),
            supernode_arrival_rate: 0.1,
            supernode_retire_rate: 0.05,
            rebalance_interval: Some(SimDuration::from_secs(5)),
        }
    }

    /// Short label for scenario names and report keys.
    pub fn label(&self) -> String {
        format!("churn{}x", self.spike_rate.round() as u64)
    }

    /// The join pattern this profile drives.
    pub fn join_pattern(&self) -> JoinPattern {
        JoinPattern::FlashCrowd {
            base_rate: self.base_rate,
            spike_at: self.spike_at,
            spike_rate: self.spike_rate,
            spike_duration: self.spike_duration,
        }
    }

    /// The lifecycle/control-plane configuration this profile enables
    /// (admission, deadlines and backoff stay at their defaults).
    pub fn churn_config(&self) -> ChurnConfig {
        ChurnConfig {
            supernode_arrival_rate: self.supernode_arrival_rate,
            supernode_retire_rate: self.supernode_retire_rate,
            rebalance_interval: self.rebalance_interval,
            ..ChurnConfig::default()
        }
    }
}

/// How a scenario derives its chaos script.
///
/// Templates are *recipes*, not scripts: a `Generated` template
/// produces a different concrete [`FaultScript`] per scenario seed, so
/// a seed sweep explores many fault timelines while staying fully
/// reproducible from `(seed, salt, count)`.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultTemplate {
    /// No chaos: clean-network run.
    None,
    /// `FaultScript::generate(seed ^ salt, horizon, count)` — a fresh
    /// fault mix per scenario seed.
    Generated {
        /// XORed into the scenario seed so the fault timeline is
        /// decorrelated from the universe.
        salt: u64,
        /// Faults per script.
        count: usize,
    },
    /// `FaultScript::generate_outages(seed ^ salt, horizon, count)` —
    /// regional outages only, the churn axis's chaos mix: outages are
    /// what make the control plane retry and expire.
    GeneratedOutages {
        /// XORed into the scenario seed, as for `Generated`.
        salt: u64,
        /// Outages per script.
        count: usize,
    },
    /// The same hand-written script replayed in every cell.
    Fixed(FaultScript),
}

impl FaultTemplate {
    /// The concrete script for a scenario with this seed and horizon
    /// (`None` for clean runs).
    pub fn script(&self, seed: u64, horizon: SimDuration) -> Option<FaultScript> {
        match self {
            FaultTemplate::None => None,
            FaultTemplate::Generated { salt, count } => {
                Some(FaultScript::generate(seed ^ salt, horizon, *count))
            }
            FaultTemplate::GeneratedOutages { salt, count } => {
                Some(FaultScript::generate_outages(seed ^ salt, horizon, *count))
            }
            FaultTemplate::Fixed(script) => Some(script.clone()),
        }
    }

    /// Short label for scenario names and report keys.
    pub fn label(&self) -> String {
        match self {
            FaultTemplate::None => "clean".to_string(),
            FaultTemplate::Generated { count, .. } => format!("chaos{count}"),
            FaultTemplate::GeneratedOutages { count, .. } => format!("outages{count}"),
            FaultTemplate::Fixed(script) => format!("fixed{}", script.len()),
        }
    }
}

/// One fully concrete cell of the matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Cell index in matrix expansion order (stable across runs).
    pub id: usize,
    /// Human-readable cell name, e.g. `CloudFog/A/p300/s7/chaos3`.
    pub name: String,
    /// System under test.
    pub kind: SystemKind,
    /// Player count (drives the derived profile scale).
    pub players: usize,
    /// RNG seed.
    pub seed: u64,
    /// Join-ramp window.
    pub ramp: SimDuration,
    /// Simulated horizon.
    pub horizon: SimDuration,
    /// Chaos recipe.
    pub template: FaultTemplate,
    /// Live-service churn recipe (`None` = fixed cohort, churn off —
    /// bit-identical to the pre-churn harness).
    pub churn: Option<ChurnProfile>,
    /// Adaptation policy this cell's streams run
    /// (default [`AdaptPolicyKind::BufferOccupancy`]).
    pub policy: AdaptPolicyKind,
    /// Telemetry recording (histograms + quantiles) for this cell.
    pub telemetry: Option<TelemetryConfig>,
    /// Region-sharded execution recipe (`None` = one monolithic world,
    /// bit-identical to the pre-shard harness).
    pub shard: Option<ShardProfile>,
    /// Live ops plane for this cell (`None` = off — the plain run
    /// entry points, untouched). Sampling is read-only, so turning
    /// this on cannot change the cell's summary.
    pub live: Option<LiveConfig>,
    /// Predictive prefetch plane for this cell (`None` = off,
    /// bit-identical to the pre-prefetch harness).
    pub prefetch: Option<PrefetchConfig>,
}

impl Scenario {
    /// Expand to the concrete run configuration. Pure: the same
    /// scenario always yields the same config, hence the same run.
    pub fn config(&self) -> StreamingSimConfig {
        let mut b = StreamingSimConfig::builder(self.kind)
            .players(self.players)
            .seed(self.seed)
            .ramp(self.ramp)
            .horizon(self.horizon)
            .policy(self.policy);
        if let Some(script) = self.template.script(self.seed, self.horizon) {
            b = b.fault_script(script).watchdog(WatchdogParams::default());
        }
        if let Some(churn) = &self.churn {
            b = b.join_pattern(churn.join_pattern()).churn(churn.churn_config());
        }
        if let Some(t) = &self.telemetry {
            b = b.telemetry(t.clone());
        }
        if let Some(p) = self.prefetch {
            b = b.prefetch(p);
        }
        b.build()
    }

    /// The concrete chaos script this cell replays (if any).
    pub fn script(&self) -> Option<FaultScript> {
        self.template.script(self.seed, self.horizon)
    }

    /// Expand to the sharded run configuration, when this cell carries
    /// a [`ShardProfile`]. The chaos and churn recipes map onto the
    /// sharded driver's per-shard generated scripts and default churn:
    /// sharded cells compare against each other, not bit-for-bit
    /// against their monolithic siblings (a different partition is a
    /// different world — the bit-identity contract is across *lane
    /// counts*, which the profile's label deliberately omits).
    pub fn sharded_config(&self) -> Option<ShardedSimConfig> {
        let shard = self.shard.as_ref()?;
        let mut b = ShardedSimConfig::builder(self.kind)
            .total_players(self.players)
            .seed(self.seed)
            .ramp(self.ramp)
            .horizon(self.horizon)
            .policy(self.policy)
            .shard_capacity(shard.capacity)
            .tick(shard.tick)
            .lanes(shard.lanes)
            .chaos(!matches!(self.template, FaultTemplate::None))
            .churn(self.churn.is_some());
        if let Some(t) = &self.telemetry {
            b = b.telemetry(t.clone());
        }
        if let Some(p) = self.prefetch {
            b = b.prefetch(p);
        }
        Some(b.build())
    }
}

/// Builder for the scenario cross product
/// (prefetch × shard × policy × churn × template × players × seed ×
/// system).
///
/// ```
/// use cloudfog_harness::prelude::*;
/// use cloudfog_core::systems::SystemKind;
///
/// let matrix = ScenarioMatrix::new()
///     .systems(&SystemKind::ALL)
///     .seeds(0..4)
///     .players(&[150])
///     .template(FaultTemplate::Generated { salt: 0xC4A0, count: 2 })
///     .build();
/// assert_eq!(matrix.len(), SystemKind::ALL.len() * 4);
/// ```
#[derive(Clone, Debug)]
pub struct ScenarioMatrix {
    systems: Vec<SystemKind>,
    seeds: Vec<u64>,
    players: Vec<usize>,
    ramp: SimDuration,
    horizon: SimDuration,
    templates: Vec<FaultTemplate>,
    /// Values on the outer axes, in the order they were added.
    outer: Vec<Outer>,
    telemetry: Option<TelemetryConfig>,
    live: Option<LiveConfig>,
}

/// A value on one of the matrix's optional outer axes.
#[derive(Clone, Debug)]
enum Outer {
    Churn(Option<ChurnProfile>),
    Policy(AdaptPolicyKind),
    Shard(Option<ShardProfile>),
    Prefetch(Option<PrefetchConfig>),
}

impl Outer {
    /// The axis list, innermost first: churn, policy, shard, prefetch.
    const AXES: usize = 4;

    fn axis(&self) -> usize {
        match self {
            Outer::Churn(_) => 0,
            Outer::Policy(_) => 1,
            Outer::Shard(_) => 2,
            Outer::Prefetch(_) => 3,
        }
    }

    /// `cell` with this value set and its name suffix appended.
    fn applied(&self, cell: &Scenario) -> Scenario {
        let mut cell = cell.clone();
        let suffix = match self {
            Outer::Churn(churn) => {
                cell.churn = churn.clone();
                churn.as_ref().map(ChurnProfile::label)
            }
            Outer::Policy(policy) => {
                cell.policy = *policy;
                Some(policy.label().to_string())
            }
            Outer::Shard(shard) => {
                cell.shard = shard.clone();
                shard.as_ref().map(ShardProfile::label)
            }
            Outer::Prefetch(prefetch) => {
                cell.prefetch = *prefetch;
                prefetch.map(|_| "prefetch".to_string())
            }
        };
        if let Some(suffix) = suffix {
            cell.name.push('/');
            cell.name.push_str(&suffix);
        }
        cell
    }
}

impl Default for ScenarioMatrix {
    fn default() -> Self {
        Self::new()
    }
}

impl ScenarioMatrix {
    /// An empty matrix: all systems, seed 0, 150 players, no chaos.
    pub fn new() -> Self {
        ScenarioMatrix {
            systems: SystemKind::ALL.to_vec(),
            seeds: vec![0],
            players: vec![150],
            ramp: SimDuration::from_secs(5),
            horizon: SimDuration::from_secs(25),
            templates: Vec::new(),
            outer: Vec::new(),
            telemetry: None,
            live: None,
        }
    }

    /// Systems under test (replaces the default full set).
    pub fn systems(mut self, systems: &[SystemKind]) -> Self {
        self.systems = systems.to_vec();
        self
    }

    /// Seed sweep (replaces the default single seed 0).
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Scale sweep: one matrix axis per player count.
    pub fn players(mut self, players: &[usize]) -> Self {
        self.players = players.to_vec();
        self
    }

    /// Join-ramp window for every cell.
    pub fn ramp(mut self, ramp: SimDuration) -> Self {
        self.ramp = ramp;
        self
    }

    /// Simulated horizon for every cell.
    pub fn horizon(mut self, horizon: SimDuration) -> Self {
        self.horizon = horizon;
        self
    }

    /// Append a chaos template axis (no template ⇒ one clean axis).
    pub fn template(mut self, template: FaultTemplate) -> Self {
        self.templates.push(template);
        self
    }

    /// Add a value to the churn axis (`None` = fixed cohort; see
    /// [`ScenarioMatrix::build`] for unset axes and naming).
    pub fn churn(mut self, churn: Option<ChurnProfile>) -> Self {
        self.outer.push(Outer::Churn(churn));
        self
    }

    /// Add a value to the adaptation-policy axis (see
    /// [`ScenarioMatrix::build`]). Every explicit policy, the default
    /// included, labels its cells.
    pub fn policy(mut self, policy: AdaptPolicyKind) -> Self {
        self.outer.push(Outer::Policy(policy));
        self
    }

    /// Record per-cell telemetry (histograms, quantiles, CDFs) so the
    /// quantile invariants have something to check.
    pub fn telemetry(mut self, cfg: TelemetryConfig) -> Self {
        self.telemetry = Some(cfg);
        self
    }

    /// Add a value to the sharding axis (`None` = one monolithic
    /// world; see [`ScenarioMatrix::build`]).
    pub fn shard(mut self, shard: Option<ShardProfile>) -> Self {
        self.outer.push(Outer::Shard(shard));
        self
    }

    /// Add a value to the prefetch axis (`None` = off; see
    /// [`ScenarioMatrix::build`]).
    pub fn prefetch(mut self, prefetch: Option<PrefetchConfig>) -> Self {
        self.outer.push(Outer::Prefetch(prefetch));
        self
    }

    /// Turn on the live ops plane for every cell: tick-synchronous
    /// metrics sampling plus SLO burn-rate alerting, with fired
    /// alerts recorded on each [`CellResult`](crate::exec::CellResult)
    /// as harness facts.
    pub fn live(mut self, live: LiveConfig) -> Self {
        self.live = Some(live);
        self
    }

    /// Expand the cross product into numbered scenarios. Expansion
    /// order is `prefetch × shard × policy × churn × template ×
    /// players × seed × system` (system varies fastest, matching the
    /// paper's side-by-side comparisons). The four outer axes are
    /// optional: an unset one runs once at its default (no churn, the
    /// buffer-occupancy policy, one world, prefetch off) with no name
    /// suffix, so matrices that never set it keep their historic cell
    /// ids and names. Set values add suffixes in churn, policy, shard,
    /// prefetch order; an explicit `None` adds none.
    pub fn build(&self) -> Vec<Scenario> {
        let templates: &[FaultTemplate] =
            if self.templates.is_empty() { &[FaultTemplate::None] } else { &self.templates };
        let mut cells = Vec::new();
        for template in templates {
            for &players in &self.players {
                for &seed in &self.seeds {
                    for &kind in &self.systems {
                        cells.push(Scenario {
                            id: 0,
                            name: format!(
                                "{}/p{players}/s{seed}/{}",
                                kind.label(),
                                template.label()
                            ),
                            kind,
                            players,
                            seed,
                            ramp: self.ramp,
                            horizon: self.horizon,
                            template: template.clone(),
                            churn: None,
                            policy: AdaptPolicyKind::BufferOccupancy,
                            telemetry: self.telemetry.clone(),
                            shard: None,
                            live: self.live.clone(),
                            prefetch: None,
                        });
                    }
                }
            }
        }
        // Each set outer axis, innermost first, repeats every cell so
        // far once per value and becomes the outermost axis.
        for axis in 0..Outer::AXES {
            let values: Vec<&Outer> = self.outer.iter().filter(|v| v.axis() == axis).collect();
            if !values.is_empty() {
                cells = values.iter().flat_map(|v| cells.iter().map(|c| v.applied(c))).collect();
            }
        }
        for (id, cell) in cells.iter_mut().enumerate() {
            cell.id = id;
        }
        cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_is_deterministic_and_numbered() {
        let m = ScenarioMatrix::new()
            .systems(&[SystemKind::Cloud, SystemKind::CloudFogA])
            .seeds(0..3)
            .players(&[100, 200])
            .template(FaultTemplate::None)
            .template(FaultTemplate::Generated { salt: 7, count: 2 });
        let a = m.build();
        let b = m.build();
        assert_eq!(a, b);
        assert_eq!(a.len(), 2 * 2 * 3 * 2);
        for (i, s) in a.iter().enumerate() {
            assert_eq!(s.id, i);
        }
        // System varies fastest.
        assert_eq!(a[0].kind, SystemKind::Cloud);
        assert_eq!(a[1].kind, SystemKind::CloudFogA);
        assert_eq!(a[0].seed, a[1].seed);
    }

    #[test]
    fn generated_template_varies_with_seed_but_not_call() {
        let t = FaultTemplate::Generated { salt: 99, count: 3 };
        let h = SimDuration::from_secs(60);
        assert_eq!(t.script(1, h), t.script(1, h));
        assert_ne!(t.script(1, h), t.script(2, h));
        assert_eq!(t.script(1, h).unwrap().len(), 3);
        assert_eq!(FaultTemplate::None.script(1, h), None);
    }

    #[test]
    fn scenario_config_matches_fields() {
        let s = ScenarioMatrix::new()
            .systems(&[SystemKind::CloudFogA])
            .seeds([42])
            .players(&[120])
            .template(FaultTemplate::Generated { salt: 1, count: 2 })
            .build()
            .remove(0);
        let cfg = s.config();
        assert_eq!(cfg.kind, SystemKind::CloudFogA);
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.fault_script.as_ref().map(|f| f.len()), Some(2));
        assert!(cfg.watchdog.is_some(), "chaos cells get the QoE watchdog");
    }

    #[test]
    fn churn_axis_defaults_to_fixed_cohort_with_historic_names() {
        let cells = ScenarioMatrix::new()
            .systems(&[SystemKind::CloudFogA])
            .seeds([7])
            .players(&[100])
            .template(FaultTemplate::None)
            .build();
        assert_eq!(cells.len(), 1);
        assert!(cells[0].churn.is_none());
        assert_eq!(cells[0].name, "CloudFog/A/p100/s7/clean");
        let cfg = cells[0].config();
        assert!(cfg.churn.is_none(), "no churn axis ⇒ churn-off config");
    }

    #[test]
    fn churn_axis_is_outermost_and_labels_cells() {
        let horizon = SimDuration::from_secs(30);
        let profile = ChurnProfile::flash_crowd(horizon);
        let cells = ScenarioMatrix::new()
            .systems(&[SystemKind::Cloud, SystemKind::CloudFogA])
            .seeds([1])
            .players(&[100])
            .horizon(horizon)
            .template(FaultTemplate::None)
            .churn(None)
            .churn(Some(profile.clone()))
            .build();
        assert_eq!(cells.len(), 4);
        // Outermost axis: the first block is churn-off, the second on.
        assert!(cells[0].churn.is_none() && cells[1].churn.is_none());
        assert_eq!(cells[2].churn.as_ref(), Some(&profile));
        assert_eq!(cells[3].churn.as_ref(), Some(&profile));
        assert_eq!(cells[0].name, "Cloud/p100/s1/clean");
        assert_eq!(cells[2].name, format!("Cloud/p100/s1/clean/{}", profile.label()));
        // The churn cell's config carries the flash-crowd arrivals and
        // the churn block; the fixed cell's does not.
        let on = cells[3].config();
        assert!(on.churn.is_some());
        assert!(matches!(on.join_pattern, JoinPattern::FlashCrowd { .. }));
        let off = cells[1].config();
        assert!(off.churn.is_none());
        assert!(matches!(off.join_pattern, JoinPattern::Ramp));
    }

    #[test]
    fn policy_axis_defaults_to_buffer_with_historic_names() {
        let cells = ScenarioMatrix::new()
            .systems(&[SystemKind::CloudFogA])
            .seeds([7])
            .players(&[100])
            .template(FaultTemplate::None)
            .build();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].policy, AdaptPolicyKind::BufferOccupancy);
        // Historic name: no policy suffix unless the axis is explicit.
        assert_eq!(cells[0].name, "CloudFog/A/p100/s7/clean");
        assert_eq!(cells[0].config().policy, AdaptPolicyKind::BufferOccupancy);
    }

    #[test]
    fn policy_axis_is_outermost_and_labels_cells() {
        let cells = ScenarioMatrix::new()
            .systems(&[SystemKind::Cloud, SystemKind::CloudFogA])
            .seeds([1])
            .players(&[100])
            .template(FaultTemplate::None)
            .policy(AdaptPolicyKind::BufferOccupancy)
            .policy(AdaptPolicyKind::Foveated)
            .build();
        assert_eq!(cells.len(), 4);
        // Outermost axis: the first block is buffer, the second
        // foveated; system still varies fastest within a block.
        assert_eq!(cells[0].policy, AdaptPolicyKind::BufferOccupancy);
        assert_eq!(cells[1].policy, AdaptPolicyKind::BufferOccupancy);
        assert_eq!(cells[2].policy, AdaptPolicyKind::Foveated);
        assert_eq!(cells[3].policy, AdaptPolicyKind::Foveated);
        assert_eq!(cells[0].name, "Cloud/p100/s1/clean/buffer");
        assert_eq!(cells[3].name, "CloudFog/A/p100/s1/clean/foveated");
        assert_eq!(cells[2].config().policy, AdaptPolicyKind::Foveated);
    }

    #[test]
    fn shard_axis_defaults_to_monolithic_with_historic_names() {
        let cells = ScenarioMatrix::new()
            .systems(&[SystemKind::CloudFogA])
            .seeds([7])
            .players(&[100])
            .template(FaultTemplate::None)
            .build();
        assert_eq!(cells.len(), 1);
        assert!(cells[0].shard.is_none());
        assert_eq!(cells[0].name, "CloudFog/A/p100/s7/clean");
        assert!(cells[0].sharded_config().is_none(), "no shard axis ⇒ monolithic run");
    }

    #[test]
    fn shard_axis_is_outermost_and_expands_to_sharded_config() {
        let profile = ShardProfile::with_capacity(50).lanes(2);
        let cells = ScenarioMatrix::new()
            .systems(&[SystemKind::Cloud, SystemKind::CloudFogA])
            .seeds([1])
            .players(&[100])
            .template(FaultTemplate::None)
            .shard(None)
            .shard(Some(profile.clone()))
            .build();
        assert_eq!(cells.len(), 4);
        // Outermost axis: first block monolithic, second sharded.
        assert!(cells[0].shard.is_none() && cells[1].shard.is_none());
        assert_eq!(cells[2].shard.as_ref(), Some(&profile));
        assert_eq!(cells[0].name, "Cloud/p100/s1/clean");
        assert_eq!(cells[2].name, "Cloud/p100/s1/clean/shard50");
        // The label omits lanes: lane count must not change results.
        assert_eq!(ShardProfile::with_capacity(50).lanes(7).label(), profile.label());
        let cfg = cells[3].sharded_config().expect("sharded cell expands");
        assert_eq!(cfg.total_players, 100);
        assert_eq!(cfg.shard_capacity, 50);
        assert_eq!(cfg.lanes, 2);
        assert_eq!(cfg.shard_count(), 2);
        assert!(!cfg.chaos, "clean template ⇒ chaos off");
        assert!(!cfg.churn, "no churn profile ⇒ churn off");
    }

    #[test]
    fn prefetch_axis_defaults_off_with_historic_names() {
        let cells = ScenarioMatrix::new()
            .systems(&[SystemKind::CloudFogA])
            .seeds([7])
            .players(&[100])
            .template(FaultTemplate::None)
            .build();
        assert_eq!(cells.len(), 1);
        assert!(cells[0].prefetch.is_none());
        assert_eq!(cells[0].name, "CloudFog/A/p100/s7/clean");
        assert!(cells[0].config().prefetch.is_none(), "no prefetch axis ⇒ prefetch-off config");
    }

    #[test]
    fn prefetch_axis_is_outermost_and_labels_cells() {
        let cells = ScenarioMatrix::new()
            .systems(&[SystemKind::Cloud, SystemKind::CloudFogA])
            .seeds([1])
            .players(&[100])
            .template(FaultTemplate::None)
            .prefetch(None)
            .prefetch(Some(PrefetchConfig::default()))
            .build();
        assert_eq!(cells.len(), 4);
        // Outermost axis: first block off, second on.
        assert!(cells[0].prefetch.is_none() && cells[1].prefetch.is_none());
        assert!(cells[2].prefetch.is_some() && cells[3].prefetch.is_some());
        assert_eq!(cells[0].name, "Cloud/p100/s1/clean");
        assert_eq!(cells[2].name, "Cloud/p100/s1/clean/prefetch");
        assert!(cells[3].config().prefetch.is_some());
        // The sharded expansion carries the plane through too.
        let sharded = ScenarioMatrix::new()
            .systems(&[SystemKind::CloudFogA])
            .seeds([1])
            .players(&[100])
            .template(FaultTemplate::None)
            .shard(Some(ShardProfile::with_capacity(50)))
            .prefetch(Some(PrefetchConfig::default()))
            .build();
        let cfg = sharded[0].sharded_config().expect("sharded cell expands");
        assert!(cfg.prefetch.is_some());
    }

    #[test]
    fn outer_axes_nest_prefetch_shard_policy_churn_and_suffix_inside_out() {
        let churn = ChurnProfile::flash_crowd(SimDuration::from_secs(30));
        let cells = ScenarioMatrix::new()
            .systems(&[SystemKind::CloudFogA])
            .seeds([1])
            .players(&[100])
            .template(FaultTemplate::None)
            .prefetch(Some(PrefetchConfig::default()))
            .churn(None)
            .shard(Some(ShardProfile::with_capacity(50)))
            .policy(AdaptPolicyKind::Foveated)
            .churn(Some(churn.clone()))
            .prefetch(None)
            .build();
        let names: Vec<&str> = cells.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "CloudFog/A/p100/s1/clean/foveated/shard50/prefetch",
                "CloudFog/A/p100/s1/clean/churn20x/foveated/shard50/prefetch",
                "CloudFog/A/p100/s1/clean/foveated/shard50",
                "CloudFog/A/p100/s1/clean/churn20x/foveated/shard50",
            ]
        );
        assert!(cells.iter().enumerate().all(|(i, c)| c.id == i));
        assert_eq!(cells[1].churn.as_ref(), Some(&churn));
        assert!(cells[2].prefetch.is_none() && cells[3].churn.is_some());
    }

    #[test]
    fn generated_outages_template_is_regional_and_deterministic() {
        let t = FaultTemplate::GeneratedOutages { salt: 3, count: 2 };
        let h = SimDuration::from_secs(60);
        let s = t.script(5, h).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(t.script(5, h), t.script(5, h));
        assert_ne!(t.script(5, h), t.script(6, h));
        for e in s.events() {
            assert!(
                matches!(e.kind, cloudfog_core::fault::FaultKind::RegionalOutage { .. }),
                "outage template must only emit regional outages: {e:?}"
            );
        }
        assert_eq!(t.label(), "outages2");
    }
}
