//! Contention-aware scheduling runtime for heterogeneous SoCs.
//!
//! PCCS (MICRO'21) closes with the observation that a processor-centric
//! slowdown model is cheap enough to drive *online* decisions: a scheduler
//! that knows how much each kernel slows down under a given amount of
//! external memory traffic can place work to avoid ruinous co-run
//! combinations. This crate turns that observation into a runtime:
//!
//! * [`job`] — schedulable jobs: DNN inference requests (conv body + FC
//!   head phases from `pccs-workloads` layer graphs) and Rodinia kernels,
//!   with arrival times, deadlines, priorities, and PU eligibility;
//! * [`policy`] — placement policies from contention-oblivious baselines
//!   (round-robin, standalone-greedy) to the PCCS-model-guided policy and
//!   a simulation-probing oracle;
//! * [`engine`] — the evaluation harness: replays a job stream against the
//!   `pccs-soc` co-run simulator under a policy, producing per-job and
//!   per-decision records;
//! * [`mixes`] — named multi-programmed job mixes used by the CLI, the
//!   experiment suite, and the acceptance tests;
//! * [`report`] — schedule outcome types (makespan, achieved relative
//!   speed, deadline misses) that serialize through `pccs-telemetry`.
//!
//! ```
//! use pccs_sched::engine::{run_schedule, SchedConfig};
//! use pccs_sched::mixes;
//! use pccs_sched::policy::policy_by_name;
//! use pccs_soc::soc::SocConfig;
//!
//! let soc = SocConfig::xavier();
//! let mix = mixes::mix("inference-burst").unwrap();
//! let mut policy = policy_by_name(&soc, "pccs").unwrap();
//! let report = run_schedule(
//!     &soc,
//!     &mix.name,
//!     &mix.jobs,
//!     policy.as_mut(),
//!     &SchedConfig::quick(),
//! )
//! .expect("bundled mixes are schedulable on Xavier");
//! assert_eq!(report.jobs.len(), mix.jobs.len());
//! ```

/// The scheduling engine: replays a job stream against the co-run.
pub mod engine;
/// Typed failures of stream validation and replay.
pub mod error;
/// Jobs: units of schedulable work.
pub mod job;
/// Named multi-programmed job mixes.
pub mod mixes;
/// Placement policies.
pub mod policy;
/// The discrete-event replay core shared with `pccs-serve`.
pub mod replay;
/// Schedule evaluation artifacts: per-job outcomes, per-decision records,.
pub mod report;

pub use engine::{run_schedule, SchedConfig};
pub use error::SchedError;
pub use job::{Job, JobPhase, PhaseKernels};
pub use mixes::Mix;
pub use policy::{
    all_policies, policy_by_name, Assignment, DecisionInput, ObliviousGreedy, OraclePolicy,
    PccsPolicy, Policy, Probe, RoundRobin,
};
pub use report::{DecisionRecord, JobOutcome, ScheduleReport};
