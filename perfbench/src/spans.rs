//! Attribution of one traced pass to the workspace's layers.
//!
//! The profiler records spans per thread ("lane") with their nesting depth.
//! [`SpanTree`] rebuilds the parent of every span from (lane, start, depth)
//! and derives self times; [`uncovered_us`] measures the part of the pass
//! during which no layer span was open on any lane.

use pccs_telemetry::ProfSpan;
use std::collections::BTreeMap;

/// The benchmark's root span around one traced pass.
pub const ROOT: &str = "bench.pass";

/// Name prefixes of the scopes inside which worker threads are started:
/// the benchmark's own spans (around `calibrate::sweep`'s `parallel_map`
/// and whole experiments) and the sweep runner's `sweep.*` / `cell.*`
/// scopes (its workers, and calibrations a cell triggers).
pub const SPAWNERS: &[&str] = &["bench.", "sweep.", "cell."];

/// Layer names, in report order. `other` collects spans whose name maps
/// to no layer.
pub const LAYERS: &[&str] = &[
    "dram",
    "soc",
    "workloads",
    "core",
    "sched",
    "serve",
    "experiments",
    "other",
];

/// The layer a span belongs to, by name. The benchmark's own spans are
/// `bench.<layer-ish>.<call>`; program spans carry their subsystem prefix
/// (`sim.execute`, `sweep.fig8`, `cell.fig8`, `serve.run`, …).
pub fn layer_of(name: &str) -> &'static str {
    let name = name.strip_prefix("bench.").unwrap_or(name);
    match name.split('.').next().unwrap_or("") {
        "dram" => "dram",
        "sim" | "soc" => "soc",
        "calib" | "calibrate" | "workloads" => "workloads",
        "core" => "core",
        "sched" => "sched",
        "serve" => "serve",
        "sweep" | "cell" | "repro" | "experiments" => "experiments",
        _ => "other",
    }
}

/// Parent links and self times of a set of spans.
#[derive(Debug)]
pub struct SpanTree {
    /// Index of each span's parent, if one was recorded.
    pub parent: Vec<Option<usize>>,
    /// Each span's duration minus the union of its children's intervals,
    /// microseconds.
    pub self_us: Vec<u64>,
}

impl SpanTree {
    /// Rebuilds the nesting of `spans`. A span's parent is the innermost
    /// span on the same lane that is shallower and still open at its
    /// start. The top-level spans of a worker thread's lane get the scope
    /// that started the thread: the latest-started span of another lane
    /// that is a [`SPAWNERS`] scope, encloses the worker lane's whole
    /// extent, and has no deeper span on its own lane during that extent
    /// (its thread is waiting). Self time is a span's duration minus the
    /// union of its children's intervals, so a thread waiting on its
    /// workers is not counted as working.
    pub fn build(spans: &[ProfSpan]) -> Self {
        let mut parent = same_lane_parents(spans);
        let mut extent: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
        for s in spans {
            let e = extent.entry(s.lane).or_insert((s.start_us, end(s)));
            *e = (e.0.min(s.start_us), e.1.max(end(s)));
        }
        for (i, s) in spans.iter().enumerate() {
            if parent[i].is_some() || s.name == ROOT {
                continue;
            }
            let (lo, hi) = extent[&s.lane];
            let waiting = |p: &ProfSpan| {
                !spans.iter().any(|c| {
                    c.lane == p.lane && c.depth > p.depth && c.start_us < hi && end(c) > lo
                })
            };
            parent[i] = spans
                .iter()
                .enumerate()
                .filter(|(_, p)| {
                    p.lane != s.lane
                        && SPAWNERS.iter().any(|pre| p.name.starts_with(pre))
                        && p.start_us <= lo
                        && hi <= end(p)
                        && waiting(p)
                })
                .max_by_key(|(_, p)| (p.start_us, p.depth))
                .map(|(j, _)| j);
        }
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for (i, p) in parent.iter().enumerate() {
            if let Some(p) = *p {
                children[p].push((spans[i].start_us, end(&spans[i])));
            }
        }
        let self_us = spans
            .iter()
            .zip(children)
            .map(|(s, kids)| s.dur_us - union_within(s, kids))
            .collect();
        Self { parent, self_us }
    }

    /// Sum of self times per layer (see [`LAYERS`]), microseconds, leaving
    /// out spans named [`ROOT`].
    pub fn layer_self_us(&self, spans: &[ProfSpan]) -> Vec<(&'static str, u64)> {
        LAYERS
            .iter()
            .map(|&layer| {
                let total = spans
                    .iter()
                    .zip(&self.self_us)
                    .filter(|(s, _)| s.name != ROOT && layer_of(&s.name) == layer)
                    .map(|(_, &us)| us)
                    .sum();
                (layer, total)
            })
            .collect()
    }
}

/// Microseconds of `root` during which no other span in `spans` was open
/// on any lane: the pass time no layer accounts for.
pub fn uncovered_us(root: &ProfSpan, spans: &[ProfSpan]) -> u64 {
    let others = spans
        .iter()
        .filter(|s| !std::ptr::eq(*s, root))
        .map(|s| (s.start_us, end(s)))
        .collect();
    root.dur_us - union_within(root, others)
}

/// The spans with every child that ends after its same-lane parent cut
/// back to the parent's end, and how many were cut.
///
/// The profiler truncates a span's start and its duration to whole
/// microseconds separately, so a child can appear to end up to 1 µs after
/// its parent, which `perfetto::check_trace` rejects. Larger overruns are
/// left alone so that a real nesting error still fails the check.
pub fn clamp_to_parents(spans: &[ProfSpan]) -> (Vec<ProfSpan>, u64) {
    let parent = same_lane_parents(spans);
    let mut out = spans.to_vec();
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| spans[i].depth);
    let mut clamped = 0;
    for i in order {
        let Some(p) = parent[i] else { continue };
        let limit = end(&out[p]);
        if end(&out[i]) > limit && end(&out[i]) <= limit + 1 {
            out[i].dur_us = limit.saturating_sub(out[i].start_us);
            clamped += 1;
        }
    }
    (out, clamped)
}

/// Same-lane parents from (lane, start, depth): the innermost shallower
/// span still open at a span's start.
fn same_lane_parents(spans: &[ProfSpan]) -> Vec<Option<usize>> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| (spans[i].lane, spans[i].start_us, spans[i].depth));
    let mut parent = vec![None; spans.len()];
    let mut stack: Vec<usize> = Vec::new();
    let mut lane = None;
    for i in order {
        let s = &spans[i];
        if lane != Some(s.lane) {
            stack.clear();
            lane = Some(s.lane);
        }
        while let Some(&top) = stack.last() {
            let t = &spans[top];
            if t.depth >= s.depth || end(t) < s.start_us {
                stack.pop();
            } else {
                break;
            }
        }
        parent[i] = stack.last().copied();
        stack.push(i);
    }
    parent
}

fn end(s: &ProfSpan) -> u64 {
    s.start_us + s.dur_us
}

/// Length of the union of `intervals` (half-open, µs) clipped to `span`.
fn union_within(span: &ProfSpan, mut intervals: Vec<(u64, u64)>) -> u64 {
    let (lo, hi) = (span.start_us, end(span));
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for (a, b) in intervals {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, lane: u32, depth: u32, start_us: u64, dur_us: u64) -> ProfSpan {
        ProfSpan {
            name: name.to_owned(),
            lane,
            depth,
            start_us,
            dur_us,
            self_us: 0,
        }
    }

    /// lane 0: pass [0,100) ⊃ sweep [10,60) (waiting) + build [70,80).
    /// lane 1: execute [10,30) and [35,45), a worker the sweep started.
    /// lane 2: execute [20,50) ⊃ rep [25,40), another worker.
    fn tree() -> Vec<ProfSpan> {
        vec![
            span("bench.pass", 0, 0, 0, 100),
            span("bench.calib.sweep", 0, 1, 10, 50),
            span("bench.core.build", 0, 1, 70, 10),
            span("sim.execute", 1, 0, 10, 20),
            span("sim.execute", 1, 0, 35, 10),
            span("sim.execute", 2, 0, 20, 30),
            span("sim.rep", 2, 1, 25, 15),
        ]
    }

    #[test]
    fn parents_and_self_times_on_a_synthetic_tree() {
        let spans = tree();
        let t = SpanTree::build(&spans);
        assert_eq!(
            t.parent,
            vec![None, Some(0), Some(0), Some(1), Some(1), Some(1), Some(5)]
        );
        // The sweep's workers cover [10,50) of its [10,60).
        assert_eq!(t.self_us, vec![40, 10, 10, 20, 10, 15, 15]);
    }

    #[test]
    fn equal_start_nests_by_depth_and_siblings_do_not_nest() {
        let spans = vec![
            span("serve.run", 0, 0, 5, 10),
            span("sim.execute", 0, 1, 5, 4),
            span("sim.execute", 0, 1, 9, 6),
        ];
        let t = SpanTree::build(&spans);
        assert_eq!(t.parent, vec![None, Some(0), Some(0)]);
        assert_eq!(t.self_us, vec![0, 4, 6]);
    }

    #[test]
    fn a_worker_spawned_by_a_worker_belongs_to_the_later_scope() {
        // A sweep worker (lane 1) runs a cell whose calibration starts its
        // own worker (lane 2).
        let spans = vec![
            span("bench.pass", 0, 0, 0, 100),
            span("sweep.table7", 0, 1, 0, 100),
            span("cell.table7", 1, 0, 10, 80),
            span("sim.execute", 2, 0, 20, 30),
        ];
        let t = SpanTree::build(&spans);
        assert_eq!(t.parent, vec![None, Some(0), Some(1), Some(2)]);
        assert_eq!(t.self_us, vec![0, 20, 50, 30]);
    }

    #[test]
    fn a_busy_sibling_worker_is_not_a_parent() {
        // Workers on lanes 1 and 2 both started by the sweep on lane 0.
        // Lane 1's long co-run encloses all of lane 2, but it is working
        // (a sim.rep runs inside it) and sim.* scopes start no threads.
        let spans = vec![
            span("bench.pass", 0, 0, 0, 100),
            span("sweep.fig8", 0, 1, 0, 100),
            span("cell.fig8", 1, 0, 1, 90),
            span("sim.execute", 1, 1, 2, 88),
            span("sim.rep", 1, 2, 2, 88),
            span("cell.fig8", 2, 0, 5, 20),
            span("sim.execute", 2, 1, 6, 18),
        ];
        let t = SpanTree::build(&spans);
        assert_eq!(t.parent[2], Some(1));
        assert_eq!(t.parent[5], Some(1));
        assert_eq!(t.self_us[1], 1 + 9, "the sweep only waits for its workers");
    }

    #[test]
    fn layer_self_times_skip_the_root() {
        let spans = tree();
        let t = SpanTree::build(&spans);
        let by: std::collections::BTreeMap<_, _> = t.layer_self_us(&spans).into_iter().collect();
        assert_eq!(by["soc"], 20 + 10 + 15 + 15);
        assert_eq!(by["workloads"], 10);
        assert_eq!(by["core"], 10);
        assert_eq!(by["experiments"], 0);
        assert_eq!(by["other"], 0);
    }

    #[test]
    fn uncovered_time_is_the_union_gap_across_lanes() {
        let spans = tree();
        // Covered: [10,60) ∪ [70,80) = 60 µs.
        assert_eq!(uncovered_us(&spans[0], &spans), 40);
        let alone = vec![span("bench.pass", 0, 0, 0, 7)];
        assert_eq!(uncovered_us(&alone[0], &alone), 7);
    }

    #[test]
    fn one_microsecond_overruns_are_clamped_and_larger_ones_kept() {
        let spans = vec![
            span("sim.execute", 0, 0, 10, 10),
            span("sim.rep", 0, 1, 11, 10),
            span("serve.run", 1, 0, 0, 5),
            span("sim.execute", 1, 1, 1, 7),
        ];
        let (out, clamped) = clamp_to_parents(&spans);
        assert_eq!(clamped, 1);
        assert_eq!(out[1].dur_us, 9, "cut back to the parent's end at 20");
        assert_eq!(
            out[3].dur_us, 7,
            "a 3 µs overrun is a real error, left alone"
        );
    }

    #[test]
    fn names_map_to_layers() {
        assert_eq!(layer_of("sim.rep"), "soc");
        assert_eq!(layer_of("sweep.table7"), "experiments");
        assert_eq!(layer_of("bench.repro.fig14"), "experiments");
        assert_eq!(layer_of("bench.calib.sweep"), "workloads");
        assert_eq!(layer_of("sched.replay"), "sched");
        assert_eq!(layer_of("dram.tick"), "dram");
        assert_eq!(layer_of("mystery"), "other");
    }
}
