//! Golden pin of the discrete-event replay (§3.6): the serialized reports
//! of `run_schedule` and `run_serve` on small contended Xavier fixtures
//! must not change by a single bit.
//!
//! The fixtures are chosen to walk every path of the replay: multi-phase
//! jobs cross phase boundaries, a policy that places nothing valid on an
//! idle machine makes the driver force progress, strict admission sheds,
//! batching forms multi-request bundles, stale paper models trip the drift
//! monitor, and runs outlast an SLO epoch. `fixtures_exercise_every_path`
//! checks that they still do, so the golden cannot pass vacuously.
//!
//! When a golden comparison fails, the test writes what it measured next
//! to the build artifacts and names the file. If a change of results is
//! intended, review that file and copy it over the golden.

use pccs_core::SlowdownModel;
use pccs_sched::engine::{run_schedule, SchedConfig};
use pccs_sched::policy::{ObliviousGreedy, OraclePolicy, PccsPolicy, RoundRobin};
use pccs_sched::report::ScheduleReport;
use pccs_sched::{mixes, Policy};
use pccs_serve::request::contended_classes;
use pccs_serve::{
    boxed_models, paper_models, run_serve, AdmissionPolicy, ArrivalProcess, ServeConfig,
    ServeReport,
};
use pccs_soc::soc::SocConfig;
use std::path::Path;

/// Lets the shared test policy name `crate::policy` in this test crate.
use pccs_sched::policy;

#[path = "support/misbehaving.rs"]
mod misbehaving;

use misbehaving::Misbehaving;

const GOLDEN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden");

/// Compares `actual` with the golden file `name`, dumping the measured
/// text next to the build artifacts on a mismatch.
fn assert_golden(name: &str, actual: &str) {
    let golden_path = Path::new(GOLDEN_DIR).join(name);
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_default();
    if actual != golden {
        let dump = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
        std::fs::write(&dump, actual).expect("writes the measured reports");
        panic!(
            "replay output differs from {}; measured output written to {}",
            golden_path.display(),
            dump.display()
        );
    }
}

fn pretty<T: serde::Serialize>(reports: &[T]) -> String {
    let mut out = String::new();
    for r in reports {
        out.push_str(&serde_json::to_string_pretty(r).expect("serializes"));
        out.push('\n');
    }
    out
}

/// The contended mix at a tenth of its work, replayed on Xavier with
/// quick probes under round-robin, greedy, the probing oracle, and the
/// misbehaving test policy.
fn sched_reports() -> Vec<ScheduleReport> {
    let soc = SocConfig::xavier();
    let mix = mixes::contended().scaled(0.1);
    let policies: Vec<Box<dyn Policy>> = vec![
        Box::new(RoundRobin::default()),
        Box::new(ObliviousGreedy),
        Box::new(OraclePolicy),
        Box::new(Misbehaving::default()),
    ];
    policies
        .into_iter()
        .map(|mut policy| {
            run_schedule(
                &soc,
                &mix.name,
                &mix.jobs,
                policy.as_mut(),
                &SchedConfig::quick(),
            )
            .expect("contended mix is schedulable on Xavier")
        })
        .collect()
}

/// Poisson serving of the contended classes on Xavier at a rate past
/// saturation, batching up to four requests per bundle.
fn serve_cfg(admission: AdmissionPolicy) -> ServeConfig {
    ServeConfig {
        arrivals: ArrivalProcess::Poisson {
            rate_per_mcycle: 40.0,
        },
        duration: 1_000_000,
        admission,
        ..ServeConfig::quick()
    }
}

/// A stale admission model: it predicts a 2.5x slowdown whatever the
/// pressure, so observed service drifts far below the prediction.
struct Stale;

impl SlowdownModel for Stale {
    fn name(&self) -> &'static str {
        "stale"
    }

    fn relative_speed_pct(&self, _demand_gbps: f64, _external_gbps: f64) -> f64 {
        40.0
    }
}

/// Greedy and PCCS placement (paper models) under open and strict
/// admission, then greedy placement under stale admission models and the
/// misbehaving test policy, both under open admission.
fn serve_reports() -> Vec<ServeReport> {
    let soc = SocConfig::xavier();
    let classes = contended_classes();
    let models = paper_models(&soc);
    let mut out = Vec::new();
    for admission in [AdmissionPolicy::Open, AdmissionPolicy::Strict] {
        let cfg = serve_cfg(admission);
        let policies: Vec<Box<dyn Policy>> = vec![
            Box::new(ObliviousGreedy),
            Box::new(PccsPolicy::new(boxed_models(&models))),
        ];
        for mut policy in policies {
            let report = run_serve(&soc, &classes, policy.as_mut(), boxed_models(&models), &cfg)
                .expect("contended classes serve on Xavier");
            out.push(report);
        }
    }
    let stale: Vec<Box<dyn SlowdownModel>> = soc.pus.iter().map(|_| Box::new(Stale) as _).collect();
    let report = run_serve(
        &soc,
        &classes,
        &mut ObliviousGreedy,
        stale,
        &serve_cfg(AdmissionPolicy::Open),
    )
    .expect("contended classes serve on Xavier");
    out.push(report);
    let report = run_serve(
        &soc,
        &classes,
        &mut Misbehaving::default(),
        boxed_models(&models),
        &serve_cfg(AdmissionPolicy::Open),
    )
    .expect("contended classes serve on Xavier");
    out.push(report);
    out
}

#[test]
fn schedule_replay_matches_golden() {
    assert_golden("sched_contended_xavier.json", &pretty(&sched_reports()));
}

#[test]
fn serve_replay_matches_golden() {
    assert_golden("serve_contended_xavier.json", &pretty(&serve_reports()));
}

#[test]
fn fixtures_exercise_every_path() {
    let mix = mixes::contended();
    assert!(
        mix.jobs.iter().any(|j| j.phases.len() > 1),
        "no multi-phase job in the mix"
    );
    let sched = sched_reports();
    for r in &sched {
        // Every job of the mix completes, so every multi-phase job crossed
        // a phase boundary.
        assert_eq!(r.jobs.len(), mix.jobs.len(), "{}: jobs missing", r.policy);
    }
    assert!(
        sched
            .iter()
            .flat_map(|r| &r.decisions)
            .any(|d| d.policy == "forced"),
        "no forced decision"
    );

    let classes = contended_classes();
    assert!(
        classes.iter().any(|c| c.template.phases.len() > 1),
        "no multi-phase request class"
    );
    let epoch = ServeConfig::quick().epoch as f64;
    let serve = serve_reports();
    for r in &serve {
        assert_eq!(r.admitted, r.completed, "{}: admitted work lost", r.policy);
        // The loop publishes every epoch boundary it crosses before the
        // last completion.
        assert!(
            r.makespan > epoch,
            "{}: run ends inside one epoch",
            r.policy
        );
    }
    assert!(serve.iter().any(|r| r.shed > 0), "no request shed");
    assert!(
        serve
            .iter()
            .flat_map(|r| &r.outcomes)
            .any(|o| o.batch_size > 1),
        "no bundle of more than one request"
    );
    assert!(
        serve.iter().any(|r| r.recalibrations > 0),
        "no recalibration"
    );
}

/// The serving half of the misbehaving-policy test (the scheduling half
/// lives with the replay core): invalid bundle assignments are ignored,
/// an idle machine is forced to progress, and no request is served twice.
#[test]
fn misbehaving_policy_cannot_break_the_serving_loop() {
    let soc = SocConfig::xavier();
    let classes = contended_classes();
    let mut policy = Misbehaving::default();
    let report = run_serve(
        &soc,
        &classes,
        &mut policy,
        boxed_models(&paper_models(&soc)),
        &serve_cfg(AdmissionPolicy::Open),
    )
    .expect("contended classes serve on Xavier");
    assert!(
        policy.valid_rounds > 0,
        "no round proposed a valid placement"
    );
    // Open admission: every request is admitted and completes exactly once
    // (a bundle placed twice would complete its members twice).
    assert!(report.offered > 0);
    assert_eq!(report.admitted, report.offered);
    assert_eq!(report.completed, report.admitted);
    let bundles: usize = report
        .outcomes
        .iter()
        .map(|o| {
            assert!(o.batch_size >= 1, "request {} never ran", o.id);
            1.0 / o.batch_size as f64
        })
        .sum::<f64>()
        .round() as usize;
    assert_eq!(bundles, report.decisions, "one decision per placed bundle");
    for o in &report.outcomes {
        let class = classes.iter().find(|c| c.name == o.class).unwrap();
        let pu = soc.pu_index(&o.pu).expect("served on a real PU");
        assert!(class.runs_on(soc.pus[pu].kind), "{} on {}", o.class, o.pu);
    }
}
