//! Synthetic workload generators for SUU experiments.
//!
//! The paper motivates SUU with two applications — grid computing (unreliable,
//! heterogeneous machines executing a task DAG) and project management
//! (workers of varying skill assigned to interdependent tasks). Since the
//! paper itself reports no benchmark data, the experiment harness measures its
//! algorithms on synthetic instances that span those motivating scenarios and
//! the structural classes the theorems cover:
//!
//! * [`probability`] — generators for the success-probability matrix `p_ij`
//!   (uniform, bimodal "reliable vs flaky", skill/affinity-structured, sparse).
//! * [`precedence`] — generators for the dependency DAG (independent jobs,
//!   disjoint chains, in-/out-trees, directed forests, layered DAGs).
//! * [`scenario`] — ready-made combinations reproducing the paper's two
//!   motivating applications (a heterogeneous compute grid and a staffed
//!   project plan), small adversarial instances used in unit tests, and the
//!   adaptive-session scenario family (machine failure, heterogeneous drain,
//!   diurnal drift, flash crowd) executed closed-loop against the
//!   `suu-service` session subsystem.
//!
//! All generators take explicit seeds and are deterministic.

pub mod precedence;
pub mod probability;
pub mod scenario;

pub use precedence::{
    random_chains, random_directed_forest, random_in_forest, random_layered_dag, random_out_forest,
};
pub use probability::{
    bimodal_matrix, skill_matrix, sparse_uniform_matrix, uniform_matrix, ProbabilityModel,
};
pub use scenario::{
    bottleneck_instance, bursty_multi_tenant_stream, diurnal_drift_scenario, drain_join_scenario,
    figure1_instance, flash_crowd_sessions, grid_computing_instance, machine_failure_scenario,
    project_management_instance, session_scenarios, tenant_drift_stream, BurstConfig, DriftConfig,
    DriftRequest, GridConfig, ProjectConfig, SessionScenario,
};
