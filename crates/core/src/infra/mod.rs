//! The fog-assisted infrastructure of §III-A: datacenters, supernodes
//! and the join/assignment protocol.

pub mod assignment;
pub mod cloud;
pub mod planner;
pub mod supernode;

pub use assignment::{
    assign_player, assign_player_with, backups, failover, l_max, Assignment, Probe,
};
pub use cloud::{deploy_datacenters, deploy_planetlab_datacenters, select_sites, Datacenter};
pub use planner::{plan_deployment, DeploymentPlan, PlanParams, PlannedSupernode};
pub use supernode::{Supernode, SupernodeId, SupernodeTable};
