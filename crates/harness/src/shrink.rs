//! Failure shrinking: turn a violating scenario into a minimal,
//! replayable reproducer.
//!
//! When an invariant fires, the offending scenario is usually big — a
//! paper-scale universe with a multi-fault chaos script. Debugging
//! wants the opposite: the *smallest* run that still violates. The
//! shrinker greedily tries reductions (halve players, halve the
//! horizon, drop fault events front and back), re-running the
//! simulation and the invariant after each candidate, and keeps every
//! reduction that still violates. Because the simulation is a pure
//! function of its config, the final [`Reproducer`] replays the exact
//! failure anywhere: its [`Reproducer::replay`] line is compilable
//! builder code with the seed and the truncated script inline.

use cloudfog_core::adapt::AdaptPolicyKind;
use cloudfog_core::config::MIN_WORLD_PLAYERS;
use cloudfog_core::fault::{FaultEvent, FaultKind, FaultScript};
use cloudfog_core::systems::{StreamingSim, SystemKind};
use cloudfog_sim::time::SimDuration;

use crate::invariant::Invariant;
use crate::scenario::{ChurnProfile, FaultTemplate, Scenario};

/// How much work the shrinker may spend per violation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShrinkBudget {
    /// Maximum simulation re-runs (each candidate costs one run).
    pub max_runs: usize,
    /// Smallest population worth trying (never below
    /// [`MIN_WORLD_PLAYERS`], the smallest world a run builds).
    pub min_players: usize,
}

impl Default for ShrinkBudget {
    fn default() -> Self {
        ShrinkBudget { max_runs: 48, min_players: MIN_WORLD_PLAYERS }
    }
}

/// A minimal replayable failure: everything needed to re-run the
/// violating simulation, plus where it came from.
#[derive(Clone, Debug, PartialEq)]
pub struct Reproducer {
    /// Invariant that fired.
    pub invariant: &'static str,
    /// Violation detail at the *shrunk* configuration.
    pub detail: String,
    /// Name of the original (unshrunk) scenario.
    pub origin: String,
    /// System under test.
    pub kind: SystemKind,
    /// Shrunk player count.
    pub players: usize,
    /// The seed (never shrunk — it defines the universe).
    pub seed: u64,
    /// Shrunk join ramp.
    pub ramp: SimDuration,
    /// Shrunk horizon.
    pub horizon: SimDuration,
    /// Truncated chaos script (`None` when chaos was shrunk away or
    /// never present).
    pub script: Option<FaultScript>,
    /// Churn profile (`None` when churn was shrunk away or the
    /// original scenario ran a fixed cohort).
    pub churn: Option<ChurnProfile>,
    /// Adaptation policy (never shrunk — changing the policy would
    /// change what failure is being reproduced).
    pub policy: AdaptPolicyKind,
    /// Simulation re-runs the shrinker spent.
    pub runs_used: usize,
}

impl Reproducer {
    /// One line of compilable builder code that replays this failure.
    pub fn replay(&self) -> String {
        let mut out = format!(
            "StreamingSimConfig::builder(SystemKind::{:?}).players({}).seed({}).ramp(SimDuration::from_micros({})).horizon(SimDuration::from_micros({}))",
            self.kind,
            self.players,
            self.seed,
            self.ramp.as_micros(),
            self.horizon.as_micros()
        );
        if let Some(script) = &self.script {
            out.push_str(".fault_script(FaultScript::new()");
            for e in script.events() {
                out.push_str(&render_event(e));
            }
            out.push_str(").watchdog()");
        }
        if let Some(churn) = &self.churn {
            out.push_str(&render_churn(churn));
        }
        if self.policy != AdaptPolicyKind::BufferOccupancy {
            out.push_str(&format!(".policy(AdaptPolicyKind::{:?})", self.policy));
        }
        out.push_str(".build()");
        out
    }
}

fn render_churn(c: &ChurnProfile) -> String {
    let rebalance = match c.rebalance_interval {
        Some(d) => format!("Some(SimDuration::from_micros({}))", d.as_micros()),
        None => "None".to_string(),
    };
    format!(
        ".join_pattern(JoinPattern::FlashCrowd {{ base_rate: {:?}, spike_at: SimDuration::from_micros({}), spike_rate: {:?}, spike_duration: SimDuration::from_micros({}) }}).churn(ChurnConfig {{ supernode_arrival_rate: {:?}, supernode_retire_rate: {:?}, rebalance_interval: {rebalance}, ..ChurnConfig::default() }})",
        c.base_rate,
        c.spike_at.as_micros(),
        c.spike_rate,
        c.spike_duration.as_micros(),
        c.supernode_arrival_rate,
        c.supernode_retire_rate,
    )
}

fn render_event(e: &FaultEvent) -> String {
    format!(
        ".with(SimTime::from_micros({}), SimDuration::from_micros({}), {})",
        e.at.as_micros(),
        e.duration.as_micros(),
        render_kind(&e.kind)
    )
}

fn render_kind(kind: &FaultKind) -> String {
    match kind {
        FaultKind::RegionalOutage { region } => {
            format!("FaultKind::RegionalOutage {{ region: Region::{region:?} }}")
        }
        FaultKind::LatencyStorm { region, multiplier } => format!(
            "FaultKind::LatencyStorm {{ region: Region::{region:?}, multiplier: {multiplier:?} }}"
        ),
        FaultKind::PacketLossBurst { region, mean_loss, mean_burst_packets } => format!(
            "FaultKind::PacketLossBurst {{ region: Region::{region:?}, mean_loss: {mean_loss:?}, mean_burst_packets: {mean_burst_packets:?} }}"
        ),
        FaultKind::BandwidthCollapse { region, factor } => format!(
            "FaultKind::BandwidthCollapse {{ region: Region::{region:?}, factor: {factor:?} }}"
        ),
        FaultKind::GrayFailure { degradation } => {
            format!("FaultKind::GrayFailure {{ degradation: {degradation:?} }}")
        }
    }
}

/// Run `scenario` and return the invariant's verdict (`Some(detail)`
/// when it still violates).
fn violates(scenario: &Scenario, invariant: &dyn Invariant) -> Option<String> {
    let output = StreamingSim::run_instrumented(scenario.config());
    invariant.check_run(scenario, &output).err()
}

/// Candidate reductions of `current`, most aggressive first. Each is a
/// full scenario (the chaos script is frozen into a `Fixed` template
/// so truncation survives re-expansion).
fn candidates(current: &Scenario, budget: &ShrinkBudget) -> Vec<Scenario> {
    let mut out = Vec::new();
    // Drop churn entirely first: a violation that survives on a fixed
    // cohort is the simplest possible reproducer.
    if current.churn.is_some() {
        let mut next = current.clone();
        next.churn = None;
        next.name = format!(
            "{}/p{}/s{}/{} (shrunk)",
            next.kind.label(),
            next.players,
            next.seed,
            next.template.label()
        );
        out.push(next);
    }
    let mut push = |players: usize, horizon: SimDuration, script: Option<FaultScript>| {
        let mut next = current.clone();
        next.players = players;
        next.horizon = horizon;
        // Keep the ramp a minor prefix of the run so the measurement
        // window (which opens at 1.5 × ramp) stays non-empty.
        let ramp_cap = SimDuration::from_micros(horizon.as_micros() / 4);
        next.ramp = next.ramp.min(ramp_cap);
        next.template = match script {
            Some(s) if !s.is_empty() => FaultTemplate::Fixed(s),
            _ => FaultTemplate::None,
        };
        let churn_suffix = match &next.churn {
            Some(c) => format!("/{}", c.label()),
            None => String::new(),
        };
        next.name = format!(
            "{}/p{}/s{}/{}{churn_suffix} (shrunk)",
            next.kind.label(),
            next.players,
            next.seed,
            next.template.label()
        );
        out.push(next);
    };
    let script = current.script();
    // Halve, then three-quarter, the population.
    let floor = budget.min_players.max(MIN_WORLD_PLAYERS);
    for (num, den) in [(1, 2), (3, 4)] {
        let players = (current.players * num / den).max(floor);
        if players < current.players {
            push(players, current.horizon, script.clone());
        }
    }
    // Halve the horizon (floor: 6 simulated seconds), dropping fault
    // events that no longer fit.
    let half = SimDuration::from_micros(current.horizon.as_micros() / 2);
    if half >= SimDuration::from_secs(6) && half < current.horizon {
        let trimmed = script.clone().map(|s| {
            let mut t = FaultScript::new();
            for e in s.events().iter().filter(|e| e.at.as_micros() < half.as_micros()) {
                t.push(*e);
            }
            t
        });
        push(current.players, half, trimmed);
    }
    // Truncate the chaos script: drop the last event, then the first.
    if let Some(s) = &script {
        if !s.is_empty() {
            let mut tail = FaultScript::new();
            for e in &s.events()[..s.len() - 1] {
                tail.push(*e);
            }
            push(current.players, current.horizon, Some(tail));
            let mut head = FaultScript::new();
            for e in &s.events()[1..] {
                head.push(*e);
            }
            push(current.players, current.horizon, Some(head));
        }
    }
    out
}

/// Shrink a violating scenario toward a minimal reproducer.
///
/// Precondition: `scenario` violates `invariant` (if it does not, the
/// original scenario is returned unshrunk with the detail it *would*
/// have needed — callers should pass a confirmed violation).
pub fn shrink(scenario: &Scenario, invariant: &dyn Invariant, budget: ShrinkBudget) -> Reproducer {
    let mut runs = 0usize;
    let mut current = scenario.clone();
    // Freeze the template so later horizon shrinks don't regenerate a
    // different script.
    if let Some(s) = current.script() {
        current.template = FaultTemplate::Fixed(s);
    }
    let mut detail = {
        runs += 1;
        violates(&current, invariant).unwrap_or_else(|| "violation not reproduced".to_string())
    };
    'outer: loop {
        for candidate in candidates(&current, &budget) {
            if runs >= budget.max_runs {
                break 'outer;
            }
            runs += 1;
            if let Some(d) = violates(&candidate, invariant) {
                current = candidate;
                detail = d;
                continue 'outer; // restart reductions from the new minimum
            }
        }
        break; // no candidate still violates: local minimum reached
    }
    Reproducer {
        invariant: invariant.name(),
        detail,
        origin: scenario.name.clone(),
        kind: current.kind,
        players: current.players,
        seed: current.seed,
        ramp: current.ramp,
        horizon: current.horizon,
        script: current.script().filter(|s| !s.is_empty()),
        churn: current.churn.clone(),
        policy: current.policy,
        runs_used: runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudfog_net::geo::Region;
    use cloudfog_sim::time::SimTime;

    #[test]
    fn replay_line_is_single_line_builder_code() {
        let script = FaultScript::new().with(
            SimTime::from_secs(8),
            SimDuration::from_secs(4),
            FaultKind::LatencyStorm { region: Region::West, multiplier: 3.5 },
        );
        let r = Reproducer {
            invariant: "qoe.bounds",
            detail: "x".into(),
            origin: "CloudFog/A/p300/s7/chaos2".into(),
            kind: SystemKind::CloudFogA,
            players: 75,
            seed: 7,
            ramp: SimDuration::from_secs(3),
            horizon: SimDuration::from_secs(12),
            script: Some(script),
            churn: None,
            policy: AdaptPolicyKind::BufferOccupancy,
            runs_used: 9,
        };
        let line = r.replay();
        assert!(!line.contains('\n'));
        // The default policy stays implicit in the replay line.
        assert!(!line.contains(".policy("));
        let mut arena = r.clone();
        arena.policy = AdaptPolicyKind::ServerAware;
        assert!(arena.replay().contains(".policy(AdaptPolicyKind::ServerAware)"));
        for needle in [
            "StreamingSimConfig::builder(SystemKind::CloudFogA)",
            ".players(75)",
            ".seed(7)",
            "FaultKind::LatencyStorm { region: Region::West, multiplier: 3.5 }",
            ".watchdog()",
            ".build()",
        ] {
            assert!(line.contains(needle), "missing {needle} in {line}");
        }
    }
}
