//! What the drive loops ask of traffic generators.
//!
//! Both drive loops (`DramSystem::run_with_warmup`, `MultiMcSystem::run`)
//! choose the next executed cycle from the engines' `next_event`, the
//! warmup point, the horizon, and the generators' `next_emit_at`. The cycle
//! engine always answers `now + 1`, which pins the choice, so the
//! generators must never be asked: each `next_emit_at` is pure overhead
//! there (`StreamTraffic` replays up to 512 credit-refill steps per call).
//! The event engine does skip, so it must ask, and its outcome must still
//! match the cycle engine bit for bit.

use pccs_dram::config::DramConfig;
use pccs_dram::controller::Completion;
use pccs_dram::engine::EngineKind;
use pccs_dram::multi::MultiMcSystem;
use pccs_dram::policy::PolicyKind;
use pccs_dram::request::{MemoryRequest, SourceId};
use pccs_dram::sim::{DramSystem, SimOutcome};
use pccs_dram::traffic::{StreamTraffic, TrafficSource};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Calls into the skip-ahead hooks, shared by every wrapped source.
#[derive(Debug, Default)]
struct HookCalls {
    next_emit_at: AtomicU64,
    fast_forward: AtomicU64,
}

impl HookCalls {
    fn next_emit_at(&self) -> u64 {
        self.next_emit_at.load(Ordering::Relaxed)
    }

    fn fast_forward(&self) -> u64 {
        self.fast_forward.load(Ordering::Relaxed)
    }
}

/// A `StreamTraffic` that counts the skip-ahead hook calls made on it.
#[derive(Debug)]
struct Counting {
    inner: StreamTraffic,
    calls: Arc<HookCalls>,
}

impl TrafficSource for Counting {
    fn source_id(&self) -> SourceId {
        self.inner.source_id()
    }

    fn bind(&mut self, config: &DramConfig) {
        self.inner.bind(config);
    }

    fn poll(&mut self, cycle: u64) -> Option<MemoryRequest> {
        self.inner.poll(cycle)
    }

    fn on_reject(&mut self, req: MemoryRequest) {
        self.inner.on_reject(req);
    }

    fn on_complete(&mut self, completion: &Completion) {
        self.inner.on_complete(completion);
    }

    fn completed(&self) -> u64 {
        self.inner.completed()
    }

    fn issued(&self) -> u64 {
        self.inner.issued()
    }

    fn progress(&self) -> u64 {
        self.inner.progress()
    }

    fn next_emit_at(&self, cycle: u64) -> Option<u64> {
        self.calls.next_emit_at.fetch_add(1, Ordering::Relaxed);
        self.inner.next_emit_at(cycle)
    }

    fn fast_forward(&mut self, from: u64, to: u64) {
        self.calls.fast_forward.fetch_add(1, Ordering::Relaxed);
        self.inner.fast_forward(from, to);
    }
}

/// Four light streams: stall-dominated, so the event engine has spans to
/// skip.
fn streams(calls: &Arc<HookCalls>) -> Vec<Counting> {
    (0..4)
        .map(|s| Counting {
            inner: StreamTraffic::builder(SourceId(s))
                .demand_gbps(0.8 + 0.4 * s as f64)
                .row_locality(0.9)
                .window(8)
                .seed(101 + s as u64)
                .build(),
            calls: Arc::clone(calls),
        })
        .collect()
}

fn run_single(engine: EngineKind) -> (SimOutcome, Arc<HookCalls>) {
    let calls = Arc::new(HookCalls::default());
    let mut sys = DramSystem::with_engine(DramConfig::xavier(), PolicyKind::Atlas, engine);
    for g in streams(&calls) {
        sys.add_generator(g);
    }
    (sys.run_with_warmup(3_000, 40_000), calls)
}

fn run_multi(engine: EngineKind) -> (SimOutcome, Arc<HookCalls>) {
    let calls = Arc::new(HookCalls::default());
    let mut sys = MultiMcSystem::new(DramConfig::xavier(), 2, PolicyKind::FrFcfs);
    sys.set_engine(engine);
    for g in streams(&calls) {
        sys.add_generator(g);
    }
    (sys.run(40_000), calls)
}

fn assert_same_outcome(cycle: &SimOutcome, event: &SimOutcome) {
    assert!(cycle.stats.total_bytes() > 0, "the streams were served");
    assert_eq!(cycle.stats, event.stats, "MemoryStats diverged");
    assert_eq!(cycle.completed, event.completed, "completions diverged");
    assert_eq!(cycle.progress, event.progress, "progress diverged");
    assert_eq!(cycle.measured.progress, event.measured.progress);
    assert_eq!(cycle.measured.bytes, event.measured.bytes);
}

#[test]
fn cycle_engine_never_asks_generators_to_skip() {
    let (_, calls) = run_single(EngineKind::Cycle);
    assert_eq!(calls.next_emit_at(), 0, "next_emit_at polled per cycle");
    assert_eq!(calls.fast_forward(), 0);
}

#[test]
fn event_engine_asks_generators_and_matches_the_cycle_engine() {
    let (cycle, _) = run_single(EngineKind::Cycle);
    let (event, calls) = run_single(EngineKind::Event);
    assert!(calls.next_emit_at() > 0, "the event engine never asked");
    assert!(calls.fast_forward() > 0, "the event engine never skipped");
    assert_same_outcome(&cycle, &event);
}

#[test]
fn multi_mc_cycle_engine_never_asks_generators_to_skip() {
    let (_, calls) = run_multi(EngineKind::Cycle);
    assert_eq!(calls.next_emit_at(), 0, "next_emit_at polled per cycle");
    assert_eq!(calls.fast_forward(), 0);
}

#[test]
fn multi_mc_event_engine_asks_generators_and_matches_the_cycle_engine() {
    let (cycle, _) = run_multi(EngineKind::Cycle);
    let (event, calls) = run_multi(EngineKind::Event);
    assert!(calls.next_emit_at() > 0, "the event engine never asked");
    assert!(calls.fast_forward() > 0, "the event engine never skipped");
    assert_same_outcome(&cycle, &event);
}
