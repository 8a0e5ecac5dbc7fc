//! Recorded profiler spans must nest in time exactly as their scopes did:
//! a child scope, rounded to whole microseconds, never starts before or
//! ends after its parent. Perfetto rejects a trace whose child slice
//! outlives its parent, so one µs of rounding drift breaks the export.
//!
//! This is the only test in this binary, so it owns the global profiler.

use pccs_telemetry::{ProfSpan, Profiler};
use std::collections::HashMap;

/// Opens scope `name`, then `fanout` children (each recursing to `depth`
/// levels), recording every (child, parent) name pair. A child closes
/// right before its parent's next step, so parent and child ends often
/// fall within the same microsecond — the case rounding gets wrong.
fn nest(name: String, depth: u32, fanout: u32, pairs: &mut Vec<(String, String)>) {
    let _scope = Profiler::scope(&name);
    if depth == 0 {
        return;
    }
    for i in 0..fanout {
        let child = format!("{name}.{i}");
        pairs.push((child.clone(), name.clone()));
        nest(child, depth - 1, fanout, pairs);
    }
}

#[test]
fn child_spans_never_outlive_their_parents() {
    Profiler::enable();
    let mut pairs = Vec::new();
    for root in 0..400 {
        nest(format!("r{root}"), 3, 3, &mut pairs);
    }
    Profiler::disable();
    let spans: HashMap<String, ProfSpan> = Profiler::drain()
        .into_iter()
        .map(|s| (s.name.clone(), s))
        .collect();
    assert!(pairs.len() > 10_000, "only {} pairs", pairs.len());
    for (child, parent) in &pairs {
        let c = &spans[child];
        let p = &spans[parent];
        assert_eq!(c.depth, p.depth + 1, "{child} under {parent}");
        assert!(
            c.start_us >= p.start_us,
            "{child} starts at {} before {parent} at {}",
            c.start_us,
            p.start_us
        );
        assert!(
            c.start_us + c.dur_us <= p.start_us + p.dur_us,
            "{child} ends at {} after {parent} at {}",
            c.start_us + c.dur_us,
            p.start_us + p.dur_us
        );
        assert!(p.self_us <= p.dur_us, "{parent} self time exceeds its span");
    }
}
