//! Every metric the benchmark reports. Name, unit and which direction is
//! better come from `BENCHMARK.json`; this file adds, for `--describe`, the
//! layer each metric measures, the workloads on which it is nonzero and the
//! end-to-end number it should move.

use crate::workloads::{Workload, NAMES};
use serde_json::Value;

/// One reported metric, as `BENCHMARK.json` lists it.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name in the result JSON.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `higher` or `lower`.
    pub better: String,
}

/// The metrics under `key` (`end_to_end` or `per_layer`) in `BENCHMARK.json`.
fn listed(key: &str) -> Vec<Metric> {
    let doc: Value = serde_json::from_str(include_str!("../../BENCHMARK.json"))
        .expect("BENCHMARK.json is valid JSON");
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .unwrap_or_else(|| panic!("a {key} metric has no {k}"))
                    .to_owned()
            };
            Metric {
                name: field("name"),
                unit: field("unit"),
                better: field("better"),
            }
        })
        .collect()
}

/// The end-to-end metrics, reported by untraced runs.
pub fn end_to_end() -> Vec<Metric> {
    listed("end_to_end")
}

/// The per-layer metrics, reported by traced runs.
pub fn per_layer() -> Vec<Metric> {
    listed("per_layer")
}

const BOTH: &[&str] = &["calib_contended", "repro_quick"];
const CALIB: &[&str] = &["calib_contended"];
const REPRO: &[&str] = &["repro_quick"];

/// (name, layer, workloads, what it should move). The `repro.<exp>_s`
/// step timings are described by [`about`].
#[rustfmt::skip]
const ABOUT: &[(&str, &str, &[&str], &str)] = &[
    ("wall_s", "e2e", BOTH, "host seconds per timed pass (median)"),
    ("setup_s", "e2e", BOTH, "host seconds per set-up before the first timed pass (median of batches)"),
    ("peak_rss_mb", "e2e", BOTH, "peak resident memory of the process (VmHWM)"),
    ("pred_mae_pct", "e2e", BOTH, "(sim) PCCS error: in-sample fit (calib), fig8-12 mean (repro)"),
    ("dram.cycles", "dram", BOTH, "wall_s on calib_contended and repro_quick"),
    ("dram.requests.served", "dram", BOTH, "wall_s on calib_contended and repro_quick"),
    ("dram.sched.issued", "dram", BOTH, "wall_s on calib_contended and repro_quick"),
    ("dram.sched.idle", "dram", BOTH, "where skip-ahead can pay"),
    ("dram.sched.bus_blocked", "dram", BOTH, "wall_s on calib_contended"),
    ("dram.sched.no_candidate", "dram", BOTH, "wall_s on calib_contended"),
    ("dram.queue.hwm", "dram", BOTH, "nothing (occupancy bound)"),
    ("dram.idle_frac", "dram", BOTH, "low: cycle-bound; high: skip-ahead pays"),
    ("dram.row_hit_frac", "dram", BOTH, "nothing (simulated behaviour)"),
    ("dram.mcycles_per_s", "dram", BOTH, "wall_s on calib_contended and repro_quick"),
    ("sim.runs", "soc", BOTH, "wall_s on every workload"),
    ("soc.execute.calls", "soc", BOTH, "wall_s on every workload"),
    ("soc.execute.s", "soc", BOTH, "wall_s in proportion to soc.execute.frac"),
    ("soc.execute.frac", "soc", BOTH, "share of the pass inside sim.execute (thread time)"),
    ("soc.execute.p50_ms", "soc", BOTH, "wall_s on every workload"),
    ("soc.execute.p99_ms", "soc", BOTH, "wall_s on every workload"),
    ("sim.ns_per_cycle", "soc", BOTH, "wall_s on every workload"),
    ("calib.sweep_s", "workloads", CALIB, "wall_s on calib_contended"),
    ("calib.cells", "workloads", CALIB, "wall_s on calib_contended"),
    ("core.build_ms", "core", CALIB, "nothing (sanity bound)"),
    ("core.predict_ns", "core", CALIB, "nothing (sanity bound)"),
    ("sched.decisions", "sched", REPRO, "wall_s on repro_quick (sched, serve studies)"),
    ("serve.offered", "serve", REPRO, "wall_s on repro_quick (serve study)"),
    ("serve.admitted", "serve", REPRO, "wall_s on repro_quick (serve study)"),
    ("serve.completed", "serve", REPRO, "wall_s on repro_quick (serve study)"),
    ("serve.shed", "serve", REPRO, "nothing (simulated outcome)"),
    ("serve.missed", "serve", REPRO, "nothing (simulated outcome)"),
    ("serve.recalibrations", "serve", REPRO, "nothing (simulated outcome)"),
    ("serve.sim_runs_per_request", "serve", REPRO, "wall_s on repro_quick (probe reuse)"),
    ("serve.loop_self_s", "serve", REPRO, "wall_s on repro_quick; nothing on calib_contended"),
    ("serve.probe_s", "serve", REPRO, "wall_s on repro_quick; nothing on calib_contended"),
    ("profile_cache.hits", "experiments", REPRO, "wall_s on repro_quick only"),
    ("profile_cache.misses", "experiments", REPRO, "wall_s on repro_quick only"),
    ("profile_cache.hit_frac", "experiments", REPRO, "wall_s on repro_quick only"),
    ("sweep.cells", "experiments", REPRO, "wall_s on repro_quick only"),
    ("sweep.steals", "experiments", REPRO, "nothing (thread timing)"),
    ("sweep.busy_frac", "experiments", REPRO, "wall_s on repro_quick only"),
    ("fig14_mae_pct", "experiments", REPRO, "(sim) nothing under a simulator-speed change"),
    ("layer.dram.self_s", "dram", BOTH, "no dram span exists yet: time sits in soc (sim.rep)"),
    ("layer.soc.self_s", "soc", BOTH, "wall_s on every workload"),
    ("layer.workloads.self_s", "workloads", CALIB, "wall_s on calib_contended"),
    ("layer.core.self_s", "core", CALIB, "nothing (sanity bound)"),
    ("layer.sched.self_s", "sched", REPRO, "wall_s on repro_quick"),
    ("layer.serve.self_s", "serve", REPRO, "wall_s on repro_quick"),
    ("layer.experiments.self_s", "experiments", REPRO, "wall_s on repro_quick only"),
    ("layer.other.self_s", "telemetry", BOTH, "spans no layer claims (0 today)"),
    ("trace.pass_s", "telemetry", BOTH, "the traced pass, host seconds"),
    ("trace.unattributed_s", "telemetry", BOTH, "pass time inside no layer span"),
    ("trace.overhead_pct", "telemetry", BOTH, "nothing: traced pass against untraced median"),
    ("trace.spans", "telemetry", BOTH, "nothing (trace size)"),
    ("trace.clamped_spans", "telemetry", BOTH, "nothing: spans cut by 1 us to nest (profiler rounding)"),
];

/// Layer, workloads and what `name` should move, if the catalogue knows it.
fn about(name: &str) -> Option<(&'static str, &'static [&'static str], &'static str)> {
    if name.starts_with("repro.") && name.ends_with("_s") {
        return Some(("experiments", REPRO, "wall_s on repro_quick only"));
    }
    ABOUT
        .iter()
        .find(|row| row.0 == name)
        .map(|&(_, layer, workloads, moves)| (layer, workloads, moves))
}

/// The `--describe` table: every metric by name, unit, kind, layer and
/// workloads, then the memory engine each workload runs.
pub fn describe() -> String {
    let mut out = format!(
        "{:<28} {:<9} {:<10} {:<6} {:<12} {:<32} moves\n",
        "metric", "unit", "kind", "better", "layer", "workloads"
    );
    for (kind, metrics) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
        for m in metrics {
            let (layer, workloads, moves) = about(&m.name).unwrap_or(("?", &[], "?"));
            out.push_str(&format!(
                "{:<28} {:<9} {:<10} {:<6} {:<12} {:<32} {}\n",
                m.name,
                m.unit,
                kind,
                m.better,
                layer,
                workloads.join(","),
                moves
            ));
        }
    }
    for name in NAMES {
        let workload = Workload::parse(name).expect("listed workload");
        out.push_str(&format!(
            "\nworkload {name}: memory engine {}",
            workload.engines()
        ));
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn names_are_well_formed_unique_and_described() {
        let mut all: Vec<String> = end_to_end().into_iter().map(|m| m.name).collect();
        all.extend(per_layer().into_iter().map(|m| m.name));
        for name in &all {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(about(name).is_some(), "{name} has no --describe row");
        }
        let mut dedup = all.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "duplicate metric names");
    }
}
