//! The scheduling engine: replays a job stream against the co-run
//! simulator under a placement policy.
//!
//! The replay itself is the shared discrete-event core in
//! [`crate::replay`]; this driver feeds it a fixed, sorted arrival list
//! and records decisions and per-job outcomes. All rate probes go through
//! a shared cache keyed by the placement set ([`SimProbe`]), which is what
//! makes the oracle policy affordable: its candidate probes and the
//! replay's own measurements share the same simulations.

use crate::error::SchedError;
use crate::job::Job;
use crate::policy::{Assignment, Policy};
pub use crate::replay::SimProbe;
use crate::replay::{forced_choice, Replay};
use crate::report::{DecisionRecord, JobOutcome, ScheduleReport};
use pccs_soc::corun::CoRunConfig;
use pccs_soc::soc::SocConfig;
use pccs_telemetry::audit::{self, AuditRecord};
use pccs_telemetry::{metrics, Profiler, TraceLog};

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// Measurement configuration of the rate probes (short horizons keep
    /// decisions cheap; the cache keeps them from repeating).
    pub probe: CoRunConfig,
}

impl Default for SchedConfig {
    fn default() -> Self {
        Self {
            probe: CoRunConfig::probe(),
        }
    }
}

impl SchedConfig {
    /// A faster preset for tests and smoke runs: shorter probe horizon.
    pub fn quick() -> Self {
        Self {
            probe: CoRunConfig::probe().with_horizon(8_000),
        }
    }
}

/// What a placement attaches to a running job: its standalone time on the
/// chosen PU, and the decision's predicted cost and provenance, so
/// completion can resolve the prediction into an audit-ledger pair.
#[derive(Debug)]
struct Placed {
    standalone_cycles: f64,
    predicted_cost: f64,
    placed_by: &'static str,
    region: String,
}

/// Replays `jobs` on `soc` under `policy` and reports the schedule.
///
/// The engine guarantees progress: when a policy declines to place anything
/// while the whole machine is idle, the longest-waiting job is placed on
/// its fastest standalone PU (recorded with policy `"forced"`).
///
/// # Errors
///
/// Returns [`SchedError::DuplicateJobId`] when two jobs share an id, and
/// [`SchedError::UnschedulableJob`] when a job cannot run on any PU of
/// `soc` (e.g. a DLA-only job on the Snapdragon preset).
///
/// # Panics
///
/// Panics if the replay exceeds [`MAX_EVENTS`](crate::replay::MAX_EVENTS)
/// events without finishing (defensive livelock bound; never reached by
/// bundled policies).
pub fn run_schedule(
    soc: &SocConfig,
    mix_name: &str,
    jobs: &[Job],
    policy: &mut dyn Policy,
    cfg: &SchedConfig,
) -> Result<ScheduleReport, SchedError> {
    let mut ids: Vec<usize> = jobs.iter().map(|j| j.id).collect();
    ids.sort_unstable();
    for w in ids.windows(2) {
        if w[0] == w[1] {
            return Err(SchedError::DuplicateJobId { id: w[0] });
        }
    }
    for job in jobs {
        if !soc.pus.iter().any(|pu| job.runs_on(pu.kind)) {
            return Err(SchedError::UnschedulableJob {
                job: job.name.clone(),
                soc: soc.name.clone(),
            });
        }
    }
    let _prof = Profiler::scope("sched.replay");
    let mut span = TraceLog::span("sched.run");
    span.counter("jobs", jobs.len() as f64);

    let mut replay: Replay<Placed> = Replay::new(soc, cfg.probe.clone());
    let mut arrivals: Vec<&Job> = jobs.iter().collect();
    arrivals.sort_by_key(|j| (j.arrival, j.id));
    let mut arrivals = arrivals.into_iter().peekable();
    let mut queue: Vec<&Job> = Vec::new();
    let mut outcomes: Vec<JobOutcome> = Vec::new();
    let mut decisions: Vec<DecisionRecord> = Vec::new();

    loop {
        // Admit arrivals due by now.
        while let Some(job) = arrivals.next_if(|j| (j.arrival as f64) <= replay.now()) {
            queue.push(job);
        }
        // Let the policy place onto free PUs.
        if !queue.is_empty() && replay.any_free() {
            let input = replay.decision_input(&queue);
            let assignments = policy.decide(&input, replay.probe());
            // Places assignment `a` made `by` the policy (or "forced") if it
            // is valid — its job queued, its PU free and eligible — and
            // records the decision. Invalid assignments are ignored.
            let mut try_place = |replay: &mut Replay<Placed>, a: &Assignment, by: &'static str| {
                let Some(pos) = queue.iter().position(|j| j.id == a.job_id) else {
                    return;
                };
                if !replay.can_place(queue[pos], a.pu_idx) {
                    return;
                }
                let job = queue.remove(pos).clone();
                decisions.push(DecisionRecord {
                    at_cycle: replay.now(),
                    policy: by.to_owned(),
                    job: job.name.clone(),
                    job_id: job.id,
                    pu: soc.pus[a.pu_idx].name.clone(),
                    pu_idx: a.pu_idx,
                    predicted_cost: a.predicted_cost,
                    queue_depth: queue.len(),
                });
                let opt = input
                    .queue
                    .iter()
                    .find(|j| j.job_id == job.id)
                    .and_then(|j| j.option_for(a.pu_idx))
                    .expect("a queued job has an option on every eligible PU");
                let payload = Placed {
                    standalone_cycles: opt.standalone_cycles,
                    predicted_cost: a.predicted_cost,
                    placed_by: by,
                    region: policy
                        .region_label(a.pu_idx, opt.phases[0].demand_gbps)
                        .to_owned(),
                };
                replay.place(job, a.pu_idx, payload);
            };
            for a in &assignments {
                try_place(&mut replay, a, policy.name());
            }
            // Progress guarantee: an idle machine with waiting work must
            // run something.
            if replay.is_idle() {
                try_place(&mut replay, &forced_choice(&input), "forced");
            }
        }
        let next_arrival = arrivals.peek().map(|j| j.arrival as f64);
        if replay.is_idle() && next_arrival.is_none() {
            break;
        }
        // Advance to the next event: a phase/job completion or an arrival.
        for r in replay.advance(next_arrival) {
            let standalone = r.payload.standalone_cycles;
            let now = replay.now();
            let residence = (now - r.start).max(1.0);
            if audit::is_enabled() {
                audit::record(
                    AuditRecord::new("sched", "cycles", r.payload.predicted_cost, residence)
                        .with_soc(&soc.slug())
                        .with_pu(&soc.pus[r.pu_idx].name)
                        .with_workload(&r.job.name)
                        .with_region(&r.payload.region)
                        .with_policy(r.payload.placed_by)
                        .with_engine(cfg.probe.engine.label()),
                );
            }
            outcomes.push(JobOutcome {
                job_id: r.job.id,
                name: r.job.name.clone(),
                pu: soc.pus[r.pu_idx].name.clone(),
                pu_idx: r.pu_idx,
                arrival: r.job.arrival,
                start: r.start,
                finish: now,
                standalone_cycles: standalone,
                achieved_rs_pct: 100.0 * standalone / residence,
                deadline: r.job.deadline,
                missed_deadline: r.job.deadline.is_some_and(|d| now > d as f64),
            });
        }
    }
    span.counter("events", replay.events() as f64);
    span.counter("decisions", decisions.len() as f64);
    let makespan = outcomes.iter().map(|o| o.finish).fold(0.0, f64::max);
    metrics::add("sched.jobs", jobs.len() as u64);
    metrics::add("sched.decisions", decisions.len() as u64);
    Ok(ScheduleReport {
        policy: policy.name().to_owned(),
        soc: soc.name.clone(),
        mix: mix_name.to_owned(),
        makespan,
        jobs: outcomes,
        decisions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobPhase;
    use crate::policy::{ObliviousGreedy, PccsPolicy, Probe, RoundRobin};
    use pccs_core::PccsModel;
    use pccs_soc::kernel::KernelDesc;
    use pccs_soc::pu::PuKind;

    fn small_job(id: usize, arrival: u64, opb: f64, lines: f64) -> Job {
        Job::new(
            id,
            format!("job{id}"),
            arrival,
            vec![JobPhase::uniform(
                "main",
                lines,
                KernelDesc::memory_streaming(format!("k{id}"), opb),
            )],
        )
    }

    #[test]
    fn single_job_runs_to_completion() {
        let soc = SocConfig::xavier();
        let jobs = vec![small_job(0, 0, 1.0, 4_000.0)];
        let mut policy = ObliviousGreedy;
        let r = run_schedule(&soc, "unit", &jobs, &mut policy, &SchedConfig::quick()).unwrap();
        assert_eq!(r.jobs.len(), 1);
        assert_eq!(r.decisions.len(), 1);
        assert!(r.makespan > 0.0);
        assert!(r.jobs[0].finish > r.jobs[0].start);
        // A sole resident suffers no contention.
        assert!(
            r.jobs[0].achieved_rs_pct > 90.0,
            "{}",
            r.jobs[0].achieved_rs_pct
        );
    }

    #[test]
    fn late_arrival_starts_no_earlier_than_it_arrives() {
        let soc = SocConfig::xavier();
        let jobs = vec![
            small_job(0, 0, 1.0, 3_000.0),
            small_job(1, 50_000, 1.0, 3_000.0),
        ];
        let mut policy = RoundRobin::default();
        let r = run_schedule(&soc, "unit", &jobs, &mut policy, &SchedConfig::quick()).unwrap();
        assert_eq!(r.jobs.len(), 2);
        let late = r.jobs.iter().find(|j| j.job_id == 1).unwrap();
        assert!(late.start >= 50_000.0);
    }

    #[test]
    fn one_job_per_pu_at_any_time() {
        let soc = SocConfig::xavier();
        let jobs: Vec<Job> = (0..5).map(|i| small_job(i, 0, 2.0, 2_000.0)).collect();
        let mut policy = RoundRobin::default();
        let r = run_schedule(&soc, "unit", &jobs, &mut policy, &SchedConfig::quick()).unwrap();
        assert_eq!(r.jobs.len(), 5);
        for pu in 0..soc.pus.len() {
            let mut spans: Vec<(f64, f64)> = r
                .jobs
                .iter()
                .filter(|j| j.pu_idx == pu)
                .map(|j| (j.start, j.finish))
                .collect();
            spans.sort_by(|a, b| a.0.total_cmp(&b.0));
            for w in spans.windows(2) {
                assert!(w[1].0 >= w[0].1 - 1e-6, "overlap on PU {pu}: {w:?}");
            }
        }
    }

    #[test]
    fn probe_caches_corun_measurements() {
        let soc = SocConfig::xavier();
        let mut probe = SimProbe::new(&soc, CoRunConfig::probe().with_horizon(6_000));
        let k = KernelDesc::memory_streaming("s", 1.0);
        let a = probe.corun_rates(&[(1, k.clone())]);
        let b = probe.corun_rates(&[(1, k.clone())]);
        assert_eq!(a, b);
        assert_eq!(probe.corun_cache.len(), 1);
        let (rate, bw) = probe.standalone(1, &k);
        assert!(rate > 0.0 && bw > 0.0);
    }

    #[test]
    fn completions_resolve_predictions_into_the_audit_ledger() {
        let soc = SocConfig::xavier();
        let jobs = vec![
            small_job(9301, 0, 1.0, 3_000.0),
            small_job(9302, 0, 0.2, 3_000.0),
        ];
        let mut policy = PccsPolicy::new(vec![
            Box::new(PccsModel::xavier_cpu_paper()),
            Box::new(PccsModel::xavier_gpu_paper()),
            Box::new(PccsModel::xavier_dla_paper()),
        ]);
        audit::set_enabled(true);
        let r = run_schedule(&soc, "audit", &jobs, &mut policy, &SchedConfig::quick()).unwrap();
        audit::set_enabled(false);
        // Filter by this test's unique job names: the ledger is
        // process-global and other tests may run concurrently.
        let recs: Vec<_> = audit::snapshot()
            .into_iter()
            .filter(|rec| rec.workload == "job9301" || rec.workload == "job9302")
            .collect();
        assert_eq!(r.jobs.len(), 2);
        assert_eq!(recs.len(), 2, "one audit pair per completed job");
        for rec in &recs {
            assert_eq!(
                (rec.source.as_str(), rec.unit.as_str()),
                ("sched", "cycles")
            );
            assert_eq!(rec.soc, "xavier");
            assert!(rec.predicted > 0.0 && rec.achieved > 0.0);
            assert!(rec.policy == "pccs" || rec.policy == "forced");
            if rec.policy == "pccs" {
                assert_ne!(rec.region, "-", "model-guided policy attributes a region");
            }
        }
    }

    #[test]
    fn impossible_job_is_a_typed_error() {
        let soc = SocConfig::snapdragon855();
        let job = small_job(0, 0, 1.0, 100.0).with_eligible(vec![PuKind::Dla]);
        let mut policy = ObliviousGreedy;
        let err =
            run_schedule(&soc, "unit", &[job], &mut policy, &SchedConfig::quick()).unwrap_err();
        assert_eq!(
            err,
            SchedError::UnschedulableJob {
                job: "job0".into(),
                soc: soc.name.clone(),
            }
        );
        assert!(err.to_string().contains("cannot run on any PU"));
    }

    #[test]
    fn duplicate_ids_are_a_typed_error() {
        let soc = SocConfig::xavier();
        let jobs = vec![small_job(3, 0, 1.0, 100.0), small_job(3, 10, 1.0, 100.0)];
        let mut policy = ObliviousGreedy;
        let err =
            run_schedule(&soc, "unit", &jobs, &mut policy, &SchedConfig::quick()).unwrap_err();
        assert_eq!(err, SchedError::DuplicateJobId { id: 3 });
    }
}
