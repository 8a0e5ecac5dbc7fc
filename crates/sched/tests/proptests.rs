//! Property-based tests of the scheduling engine's invariants: whatever
//! jobs arrive and whichever bundled policy decides, no PU ever runs two
//! jobs at once, every job completes, and nothing starts before it
//! arrives.

use pccs_sched::engine::{run_schedule, SchedConfig};
use pccs_sched::job::{Job, JobPhase};
use pccs_sched::policy::{ObliviousGreedy, OraclePolicy, Policy, RoundRobin};
use pccs_soc::corun::CoRunConfig;
use pccs_soc::kernel::KernelDesc;
use pccs_soc::soc::SocConfig;
use proptest::prelude::*;

fn arb_jobs() -> impl Strategy<Value = Vec<Job>> {
    let job_params = (
        0u64..40_000,         // arrival
        0.5f64..200.0,        // ops per byte of the first phase
        1_000.0f64..15_000.0, // work lines per phase
        0u32..3,              // priority
        1usize..3,            // phase count
    );
    prop::collection::vec(job_params, 2..5).prop_map(|params| {
        params
            .into_iter()
            .enumerate()
            .map(|(id, (arrival, opb, lines, priority, nphases))| {
                let phases = (0..nphases)
                    .map(|i| {
                        JobPhase::uniform(
                            format!("p{i}"),
                            lines,
                            KernelDesc::memory_streaming(
                                format!("j{id}p{i}"),
                                opb * (i as f64 + 1.0),
                            ),
                        )
                    })
                    .collect();
                Job::new(id, format!("job{id}"), arrival, phases).with_priority(priority)
            })
            .collect()
    })
}

/// A fast engine preset for property runs: tiny probe horizons.
fn prop_config() -> SchedConfig {
    SchedConfig {
        probe: CoRunConfig::probe().with_horizon(4_000),
    }
}

fn policies() -> Vec<Box<dyn Policy>> {
    // The PCCS policy shares `guided_decide` with the oracle, and its
    // calibration sweep is far too slow for a property loop — the oracle
    // stands in for the whole contention-aware family here.
    vec![
        Box::new(RoundRobin::default()),
        Box::new(ObliviousGreedy),
        Box::new(OraclePolicy),
    ]
}

proptest! {
    #[test]
    fn no_policy_overlaps_jobs_on_a_pu(jobs in arb_jobs()) {
        let soc = SocConfig::xavier();
        for mut policy in policies() {
            let report = run_schedule(&soc, "prop", &jobs, policy.as_mut(), &prop_config())
                .expect("generated jobs are schedulable");
            prop_assert_eq!(report.jobs.len(), jobs.len());
            for outcome in &report.jobs {
                let job = jobs.iter().find(|j| j.id == outcome.job_id).unwrap();
                prop_assert!(outcome.start >= job.arrival as f64);
                prop_assert!(outcome.finish > outcome.start);
            }
            for pu in 0..soc.pus.len() {
                let mut spans: Vec<(f64, f64)> = report
                    .jobs
                    .iter()
                    .filter(|j| j.pu_idx == pu)
                    .map(|j| (j.start, j.finish))
                    .collect();
                spans.sort_by(|a, b| a.0.total_cmp(&b.0));
                for pair in spans.windows(2) {
                    prop_assert!(
                        pair[0].1 <= pair[1].0 + 1e-6,
                        "policy {} overlapped jobs on PU {}: {:?}",
                        report.policy, pu, pair
                    );
                }
            }
        }
    }
}
