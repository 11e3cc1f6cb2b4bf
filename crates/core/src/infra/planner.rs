//! Supernode deployment planning — §III-A.2 operationalized.
//!
//! "For the game service provider, it should consider the pay and gain
//! before deploying a supernode. ... If `G_s(j) > 0`, the cost of
//! deploying supernode `sn_j` is surpassed by the benefit of bandwidth
//! saved from the ν new players supported by `sn_j`."
//!
//! [`plan_deployment`] turns Eq. 6 into a greedy algorithm over a real
//! candidate pool: it repeatedly deploys the candidate with the
//! largest marginal gain — where ν is the number of *not yet fogged*
//! players the candidate could newly serve within its capacity and
//! their delay thresholds — and stops when no candidate's gain is
//! positive. The result is the economically optimal fog footprint for
//! a given reward rate, which the coverage experiments can then
//! evaluate.

use cloudfog_net::topology::Topology;
use cloudfog_sim::time::SimDuration;
use cloudfog_workload::player::PlayerId;
use cloudfog_workload::population::Population;

use crate::economics::deployment_gain;
use crate::economics::SupernodeOffer;

/// Economic inputs of the planning run.
#[derive(Clone, Copy, Debug)]
pub struct PlanParams {
    /// Value of one saved egress Mbps to the provider (`c_c`).
    pub egress_value_per_mbps: f64,
    /// Reward rate paid to contributors (`c_s`).
    pub reward_per_mbps: f64,
    /// Reference streaming rate `R` (Mbps per player).
    pub stream_rate: f64,
    /// Cloud→supernode update feed `Λ` (Mbps).
    pub update_rate: f64,
    /// A candidate can serve a player whose one-way delay to it is at
    /// most this (the player-side `L_max` in the static plan).
    pub max_delay: SimDuration,
    /// Assumed utilization of a deployed supernode's uplink.
    pub utilization: f64,
}

impl Default for PlanParams {
    fn default() -> Self {
        PlanParams {
            egress_value_per_mbps: 1.0,
            reward_per_mbps: 0.3,
            stream_rate: 1.2,
            update_rate: 0.1,
            max_delay: SimDuration::from_millis(25),
            utilization: 0.8,
        }
    }
}

/// One deployed candidate in the resulting plan.
#[derive(Clone, Debug)]
pub struct PlannedSupernode {
    /// The candidate (player) chosen.
    pub candidate: PlayerId,
    /// Players newly covered by this deployment (ν of Eq. 6).
    pub newly_covered: Vec<PlayerId>,
    /// The Eq. 6 gain at the time of deployment.
    pub gain: f64,
}

/// The outcome of a planning run.
#[derive(Clone, Debug, Default)]
pub struct DeploymentPlan {
    /// Deployments in the order the greedy rule chose them.
    pub supernodes: Vec<PlannedSupernode>,
    /// Total players covered by the plan.
    pub covered_players: usize,
    /// Sum of Eq. 6 gains.
    pub total_gain: f64,
}

impl DeploymentPlan {
    /// Number of supernodes deployed.
    pub fn len(&self) -> usize {
        self.supernodes.len()
    }

    /// True iff nothing was worth deploying.
    pub fn is_empty(&self) -> bool {
        self.supernodes.is_empty()
    }
}

/// Greedy Eq. 6 deployment over the supernode-capable candidates of
/// `population`.
///
/// Each round computes, for every remaining candidate, the set of
/// still-uncovered players within `max_delay` (capped by the
/// candidate's capacity and its uplink at `stream_rate`), evaluates
/// `G_s(j)`, deploys the best candidate if its gain is positive, and
/// repeats. `max_supernodes` bounds the plan (e.g. a contribution
/// budget); pass `usize::MAX` for unbounded.
pub fn plan_deployment(
    population: &Population,
    params: &PlanParams,
    max_supernodes: usize,
) -> DeploymentPlan {
    let topo: &Topology = &population.topology;
    let mut candidates: Vec<PlayerId> = population.supernode_capable().collect();
    let mut covered = vec![false; population.len()];
    let mut plan = DeploymentPlan::default();

    // Precompute per-candidate reachable players (static delays).
    let reach: Vec<(PlayerId, Vec<PlayerId>)> = candidates
        .iter()
        .map(|&c| {
            let c_host = population.host_of(c);
            let reachable: Vec<PlayerId> = population
                .players
                .iter()
                .filter(|p| p.id != c)
                .filter(|p| topo.one_way_ms(c_host, p.host) <= params.max_delay.as_millis_f64())
                .map(|p| p.id)
                .collect();
            (c, reachable)
        })
        .collect();
    let reach_of = |c: PlayerId, reach: &[(PlayerId, Vec<PlayerId>)]| -> Vec<PlayerId> {
        reach.iter().find(|(id, _)| *id == c).map(|(_, r)| r.clone()).unwrap_or_default()
    };

    while plan.supernodes.len() < max_supernodes && !candidates.is_empty() {
        // Best candidate this round.
        let mut best: Option<(usize, Vec<PlayerId>, f64)> = None;
        for (i, &c) in candidates.iter().enumerate() {
            let player = population.player(c);
            let uplink = topo.host(player.host).upload.0;
            let serveable = (uplink * params.utilization / params.stream_rate).floor() as usize;
            let cap = (player.capacity as usize).min(serveable);
            let nu: Vec<PlayerId> =
                reach_of(c, &reach).into_iter().filter(|p| !covered[p.index()]).take(cap).collect();
            let offer = SupernodeOffer {
                upload_capacity: uplink,
                utilization: params.utilization,
                running_cost: 0.0,
                profit_threshold: 0.0,
            };
            let gain = deployment_gain(
                params.egress_value_per_mbps,
                nu.len(),
                params.stream_rate,
                params.update_rate,
                params.reward_per_mbps,
                &offer,
            );
            match &best {
                Some((_, _, g)) if *g >= gain => {}
                _ => best = Some((i, nu, gain)),
            }
        }
        let Some((idx, nu, gain)) = best else { break };
        if gain <= 0.0 {
            break; // Eq. 6 says: stop deploying.
        }
        let candidate = candidates.swap_remove(idx);
        for &p in &nu {
            covered[p.index()] = true;
        }
        plan.covered_players += nu.len();
        plan.total_gain += gain;
        plan.supernodes.push(PlannedSupernode { candidate, newly_covered: nu, gain });
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudfog_net::latency::LatencyModel;
    use cloudfog_workload::population::PopulationConfig;

    fn population(n: usize, seed: u64) -> Population {
        let config =
            PopulationConfig { players: n, supernode_capable_fraction: 0.15, ..Default::default() };
        Population::generate(&config, LatencyModel::peersim(seed), seed)
    }

    #[test]
    fn plan_deploys_profitable_candidates_only() {
        let pop = population(400, 1);
        let plan = plan_deployment(&pop, &PlanParams::default(), usize::MAX);
        assert!(!plan.is_empty(), "a 400-player universe has profitable spots");
        for sn in &plan.supernodes {
            assert!(sn.gain > 0.0, "Eq. 6 forbids non-positive deployments");
            assert!(!sn.newly_covered.is_empty(), "zero-ν deployments cannot be profitable");
        }
        assert_eq!(
            plan.covered_players,
            plan.supernodes.iter().map(|s| s.newly_covered.len()).sum::<usize>()
        );
    }

    #[test]
    fn greedy_order_is_by_marginal_gain() {
        let pop = population(400, 2);
        let plan = plan_deployment(&pop, &PlanParams::default(), usize::MAX);
        // Gains weakly decrease: each round takes the best remaining.
        for w in plan.supernodes.windows(2) {
            assert!(
                w[0].gain >= w[1].gain - 1e-9,
                "greedy gains must be non-increasing: {} then {}",
                w[0].gain,
                w[1].gain
            );
        }
    }

    #[test]
    fn players_are_covered_at_most_once() {
        let pop = population(300, 3);
        let plan = plan_deployment(&pop, &PlanParams::default(), usize::MAX);
        let mut seen = std::collections::BTreeSet::new();
        for sn in &plan.supernodes {
            for p in &sn.newly_covered {
                assert!(seen.insert(*p), "player {p:?} covered twice");
            }
        }
    }

    #[test]
    fn budget_caps_the_plan() {
        let pop = population(400, 4);
        let capped = plan_deployment(&pop, &PlanParams::default(), 3);
        assert!(capped.len() <= 3);
        let free = plan_deployment(&pop, &PlanParams::default(), usize::MAX);
        assert!(free.len() >= capped.len());
    }

    #[test]
    fn expensive_rewards_shrink_the_plan() {
        let pop = population(400, 5);
        let cheap = plan_deployment(
            &pop,
            &PlanParams { reward_per_mbps: 0.05, ..Default::default() },
            usize::MAX,
        );
        let pricey = plan_deployment(
            &pop,
            &PlanParams { reward_per_mbps: 5.0, ..Default::default() },
            usize::MAX,
        );
        assert!(
            cheap.covered_players >= pricey.covered_players,
            "cheap {} vs pricey {}",
            cheap.covered_players,
            pricey.covered_players
        );
        assert!(pricey.is_empty() || pricey.total_gain > 0.0);
    }

    #[test]
    fn tighter_delay_budgets_reduce_reach() {
        let pop = population(400, 6);
        let wide = plan_deployment(
            &pop,
            &PlanParams { max_delay: SimDuration::from_millis(40), ..Default::default() },
            usize::MAX,
        );
        let tight = plan_deployment(
            &pop,
            &PlanParams { max_delay: SimDuration::from_millis(10), ..Default::default() },
            usize::MAX,
        );
        assert!(
            wide.covered_players >= tight.covered_players,
            "wide {} vs tight {}",
            wide.covered_players,
            tight.covered_players
        );
    }
}
