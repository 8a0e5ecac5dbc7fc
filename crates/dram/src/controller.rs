//! The memory controller: per-channel request queues, bank state, and the
//! pluggable scheduling policy.
//!
//! Modelling notes (deviations from a full command-level simulator, all of
//! which preserve the contention behaviour the study measures):
//!
//! * The per-request command sequence (PRE/ACT/RD) is collapsed into one
//!   service window computed from the row-buffer outcome; tRAS is enforced
//!   on row conflicts, tWTR on reads after writes, and ACTIVATEs are paced
//!   per channel by tRRD_S/L and the four-activate window (tFAW).
//! * The channel data bus serializes transfers; a bank may overlap its next
//!   access with a queued transfer (bank-level pipelining), so sustained
//!   throughput is bus-limited exactly at the configured peak.
//! * All-bank refresh runs every tREFI with an honest PRE→REF sequence
//!   (a uniform tax on all sources, but it keeps bandwidth honest).
//!
//! The emitted command stream is JEDEC-auditable: enable the
//! [`crate::conformance`] sanitizer via
//! [`MemoryController::enable_conformance`] to replay it against reference
//! timing constraints.

use crate::bank::Bank;
use crate::config::DramConfig;
use crate::conformance::{CmdKind, CommandRecord, ConformanceChecker, ConformanceReport};
use crate::mapping::AddressMapping;
use crate::policy::{Candidate, ScheduleInput, SchedulingPolicy};
use crate::request::{DecodedAddr, MemoryRequest, ReqKind, SourceId};
use crate::stats::MemoryStats;
use crate::timing::{DramTiming, RowOutcome};
use pccs_telemetry::{Recorder, RowEvent, StallEvent, TelemetryReport};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// Maximum row-hit streak an open row may serve while shielded from
/// closure by pending hits (starvation control for conflicting requests).
const ROW_STREAK_CAP: u64 = 64;

/// A request completion event delivered by
/// [`MemoryController::tick_into`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The id of the completed request.
    pub request_id: u64,
    /// The source that issued it.
    pub source: SourceId,
    /// The cycle at which the last data beat transferred.
    pub finish: u64,
}

/// An in-flight request plus its decoded DRAM coordinates. Stored in the
/// controller-level slab; channel queues and per-bank slot lists hold slot
/// indices into it.
#[derive(Debug, Clone, Copy)]
struct QueuedRequest {
    req: MemoryRequest,
    decoded: DecodedAddr,
    /// Position in the channel queue: the `queue_idx` policies see.
    queue_pos: u32,
    /// Position in its bank's slot list.
    bank_pos: u32,
}

#[derive(Debug)]
struct ChannelState {
    /// Queued (unissued) requests, as slot indices into the controller's
    /// request slab. Position order is the arrival order modulo
    /// `swap_remove` holes — exactly what the policy's `queue_idx` sees.
    queue: Vec<u32>,
    /// The same slots grouped by target bank (order unspecified), so the
    /// scheduler only visits the requests of banks that can issue.
    bank_slots: Vec<Vec<u32>>,
    /// One bit per bank whose slot list is non-empty.
    occupied: u128,
    banks: Vec<Bank>,
    /// Next cycle at which the channel may issue (data-bus rate pacing).
    next_issue_at: u64,
    /// Next cycle at which an all-bank refresh is due (u64::MAX = never).
    next_refresh_at: u64,
    /// Recent ACTIVATE command timestamps with their bank group, pruned to
    /// the tFAW/tRRD horizon; paces activates per channel.
    acts: Vec<(u64, usize)>,
}

/// Whether an ACTIVATE at `act_at` in `group` respects tRRD_S/L and tFAW
/// against the channel's recent ACT history. The exact mirror of the
/// conformance checker's replay rule, so a filtered schedule is clean by
/// construction.
fn act_is_legal(acts: &[(u64, usize)], act_at: u64, group: usize, timing: &DramTiming) -> bool {
    for &(a, g) in acts {
        let need = if g == group {
            timing.t_rrd_l
        } else {
            timing.t_rrd_s
        };
        if need > 0 && act_at.abs_diff(a) < need {
            return false;
        }
    }
    if timing.t_faw > 0 && acts.len() >= 4 {
        // Some five consecutive ACTs (in time order, history plus the new
        // one) span less than tFAW exactly when some ACT at `x` has five
        // ACTs in `[x, x + tFAW)`, itself included. Counting per ACT needs
        // no sorted copy; the history holds only a handful of entries.
        let times = || acts.iter().map(|&(a, _)| a).chain(std::iter::once(act_at));
        for x in times() {
            if times().filter(|&y| y >= x && y - x < timing.t_faw).count() >= 5 {
                return false;
            }
        }
    }
    true
}

/// What one bank admits at a cycle. Whether a queued request is
/// schedulable depends only on its bank, its kind and whether it hits the
/// open row, so the scheduler and [`MemoryController::next_wake`] evaluate
/// readiness, the open-row shield and tRRD/tFAW legality once per bank
/// instead of once per request.
#[derive(Debug, Clone, Copy)]
struct BankGate {
    /// The bank's open row.
    open_row: Option<u64>,
    /// Reads may issue (tWTR has elapsed); writes need only the bank ready.
    read: bool,
    /// Requests that do not hit the open row may issue: the row is not
    /// shielded by pending hits and the implied ACTIVATE is legal.
    miss: bool,
}

impl BankGate {
    fn admits(&self, q: &QueuedRequest) -> bool {
        (self.read || q.req.kind == ReqKind::Write)
            && (self.miss || self.open_row == Some(q.decoded.row))
    }
}

/// Evaluates bank `bank_idx` of `channel` at `cycle`, or `None` when the
/// bank is busy and admits nothing. This is the single source of truth for
/// the candidate filter: the per-cycle scheduler and the event engine's
/// wake-up computation must agree exactly, or skip-ahead would stop being
/// cycle-exact.
fn bank_gate(
    channel: &ChannelState,
    slab: &[QueuedRequest],
    bank_idx: usize,
    shield_rows: bool,
    cycle: u64,
    config: &DramConfig,
) -> Option<BankGate> {
    let bank = &channel.banks[bank_idx];
    if !bank.is_ready(cycle) {
        return None;
    }
    let open_row = bank.open_row();
    let (mut has_hit, mut miss_row) = (false, None);
    for &slot in &channel.bank_slots[bank_idx] {
        let row = slab[slot as usize].decoded.row;
        if open_row == Some(row) {
            has_hit = true;
        } else {
            miss_row = Some(row);
        }
        if has_hit && miss_row.is_some() {
            break;
        }
    }
    // Open-page awareness: while a bank still has queued row hits for its
    // open row, realistic schedulers do not close that row for a
    // conflicting request — the pending hits cost tCCD each, the
    // precharge+activate costs an order of magnitude more. A per-row hit
    // budget bounds the shielding so conflicting requests cannot starve
    // (row-hit streak cap, as in real MCs).
    let shielded = shield_rows && has_hit && bank.hits_since_open() < ROW_STREAK_CAP;
    // ACT pacing: a request whose implied ACTIVATE would violate tRRD or
    // tFAW is not schedulable this cycle.
    let miss = !shielded
        && miss_row.is_some_and(|row| {
            bank.prospective_act_at(row, cycle, &config.timing)
                .is_none_or(|act_at| {
                    act_is_legal(
                        &channel.acts,
                        act_at,
                        config.bank_group(bank_idx),
                        &config.timing,
                    )
                })
        });
    Some(BankGate {
        open_row,
        read: bank.is_ready_for(ReqKind::Read, cycle),
        miss,
    })
}

/// Iterates the indices of the set bits of `mask`, lowest first.
fn bits(mut mask: u128) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let bit = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            bit
        })
    })
}

/// A multi-channel memory controller with a pluggable scheduling policy.
#[derive(Debug)]
pub struct MemoryController {
    config: DramConfig,
    mapping: AddressMapping,
    policy: Box<dyn SchedulingPolicy>,
    channels: Vec<ChannelState>,
    /// Slab of in-flight queued requests; channel queues index into it, so
    /// enqueue/issue never reallocate per request in steady state.
    slab: Vec<QueuedRequest>,
    /// Free slot indices in `slab`.
    free_slots: Vec<u32>,
    /// Reusable candidate buffer for `schedule_channel` (no per-cycle
    /// allocation on the hot path).
    cand_scratch: Vec<Candidate>,
    stats: MemoryStats,
    pending_per_source: BTreeMap<SourceId, usize>,
    completions: BinaryHeap<Reverse<(u64, u64, usize)>>,
    /// Optional telemetry sink; `None` costs one branch per hook site.
    recorder: Option<Box<dyn Recorder>>,
    /// Optional protocol conformance observer; `None` costs one branch per
    /// issued request.
    conformance: Option<ConformanceChecker>,
    /// First cycle not yet executed via the [`crate::engine::MemoryEngine`]
    /// impl (the legacy `tick_into` path keeps its own caller-side cursor).
    advanced_to: u64,
}

impl MemoryController {
    /// Creates a controller for the given memory geometry and policy.
    pub fn new(config: DramConfig, policy: Box<dyn SchedulingPolicy>) -> Self {
        Self::with_mapping(config, policy, AddressMapping::default())
    }

    /// Creates a controller with an explicit address mapping (for the
    /// mapping ablation).
    pub fn with_mapping(
        config: DramConfig,
        policy: Box<dyn SchedulingPolicy>,
        mapping: AddressMapping,
    ) -> Self {
        let channels = (0..config.channels)
            .map(|_| ChannelState {
                queue: Vec::with_capacity(config.queue_capacity),
                bank_slots: vec![Vec::new(); config.banks_per_channel],
                occupied: 0,
                banks: (0..config.banks_per_channel).map(|_| Bank::new()).collect(),
                next_issue_at: 0,
                next_refresh_at: if config.timing.t_refi == 0 {
                    u64::MAX
                } else {
                    config.timing.t_refi
                },
                acts: Vec::new(),
            })
            .collect();
        assert!(
            config.banks_per_channel <= 128,
            "unsupported geometry: more than 128 banks per channel"
        );
        let slab_capacity = config.queue_capacity * config.channels;
        Self {
            config,
            mapping,
            policy,
            channels,
            slab: Vec::with_capacity(slab_capacity),
            free_slots: Vec::new(),
            cand_scratch: Vec::new(),
            stats: MemoryStats::new(),
            pending_per_source: BTreeMap::new(),
            completions: BinaryHeap::new(),
            recorder: None,
            conformance: None,
            advanced_to: 0,
        }
    }

    /// First cycle not yet executed by the engine layer.
    pub(crate) fn advanced_to(&self) -> u64 {
        self.advanced_to
    }

    /// Records how far the engine layer has executed.
    pub(crate) fn set_advanced_to(&mut self, cycle: u64) {
        self.advanced_to = cycle;
    }

    /// Attaches the protocol conformance sanitizer, validating the emitted
    /// command stream against `reference` timing (usually the same values
    /// the controller schedules with; pass a known-good timing set to audit
    /// a deliberately broken configuration). Costs one small record per
    /// DRAM command, so it is opt-in.
    pub fn enable_conformance(&mut self, reference: DramTiming) {
        self.conformance = Some(ConformanceChecker::with_reference(&self.config, reference));
    }

    /// Replays the observed command stream and returns the conformance
    /// report, or `None` when the sanitizer was never enabled.
    pub fn conformance_report(&self) -> Option<ConformanceReport> {
        self.conformance.as_ref().map(ConformanceChecker::finish)
    }

    /// Attaches a telemetry recorder that will receive per-cycle queue
    /// depth, per-serve, and scheduler-stall events.
    pub fn set_recorder(&mut self, recorder: Box<dyn Recorder>) {
        self.recorder = Some(recorder);
    }

    /// Flushes the attached recorder at `cycle` and returns its report,
    /// if it produces one.
    pub fn take_report(&mut self, cycle: u64) -> Option<TelemetryReport> {
        let r = self.recorder.as_mut()?;
        r.finish(cycle);
        r.report()
    }

    /// The memory geometry this controller drives.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// The active scheduling policy's name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &MemoryStats {
        &self.stats
    }

    /// Takes the accumulated statistics, leaving empty ones behind. The
    /// engine layer uses this because trait objects cannot consume `self`.
    pub fn take_stats(&mut self) -> MemoryStats {
        std::mem::replace(&mut self.stats, MemoryStats::new())
    }

    /// Number of queued (unissued) requests across all channels.
    pub fn pending(&self) -> usize {
        self.channels.iter().map(|c| c.queue.len()).sum()
    }

    /// Number of queued requests for one source.
    pub fn pending_for(&self, source: SourceId) -> usize {
        self.pending_per_source.get(&source).copied().unwrap_or(0)
    }

    /// Attempts to enqueue a request; returns it back if the target
    /// channel's queue is full (back-pressure).
    ///
    /// # Errors
    ///
    /// Returns `Err(req)` when the channel queue has no room; the caller
    /// should retry on a later cycle.
    pub fn try_enqueue(&mut self, req: MemoryRequest) -> Result<(), MemoryRequest> {
        let decoded = self.mapping.decode(req.addr, &self.config);
        let channel = &mut self.channels[decoded.channel];
        if channel.queue.len() >= self.config.queue_capacity {
            self.stats.source_mut(req.source).rejected += 1;
            return Err(req);
        }
        self.stats.source_mut(req.source).enqueued += 1;
        *self.pending_per_source.entry(req.source).or_insert(0) += 1;
        self.policy.on_enqueue(req.source);
        let queued = QueuedRequest {
            req,
            decoded,
            queue_pos: channel.queue.len() as u32,
            bank_pos: channel.bank_slots[decoded.bank].len() as u32,
        };
        let slot = match self.free_slots.pop() {
            Some(slot) => {
                self.slab[slot as usize] = queued;
                slot
            }
            None => {
                self.slab.push(queued);
                (self.slab.len() - 1) as u32
            }
        };
        channel.queue.push(slot);
        channel.bank_slots[decoded.bank].push(slot);
        channel.occupied |= 1 << decoded.bank;
        let depth = channel.queue.len() as u64;
        if depth > self.stats.scheduler.queue_hwm {
            self.stats.scheduler.queue_hwm = depth;
        }
        Ok(())
    }

    /// Advances the controller by one cycle: lets the policy pick at most
    /// one request per channel, updates bank/bus state, and appends the
    /// completions whose data finished transferring at or before `cycle`
    /// to `out` (the buffer is not cleared, so callers can reuse one
    /// allocation across the whole run).
    pub fn tick_into(&mut self, cycle: u64, out: &mut Vec<Completion>) {
        self.step(cycle);
        self.drain_up_to(cycle, out);
    }

    /// One cycle of scheduling work without draining completions (the
    /// engine layer drains separately so both engines share one shape).
    pub(crate) fn step(&mut self, cycle: u64) {
        self.policy.on_cycle(cycle);
        self.stats.elapsed_cycles = self.stats.elapsed_cycles.max(cycle + 1);
        if self.recorder.is_some() {
            let depth = self.pending();
            if let Some(r) = self.recorder.as_mut() {
                r.on_tick(cycle, depth);
            }
        }

        for ch_idx in 0..self.channels.len() {
            self.schedule_channel(ch_idx, cycle);
        }
    }

    /// Appends all completions with `finish <= cycle` to `out`, in
    /// (finish, id, source) order.
    pub(crate) fn drain_up_to(&mut self, cycle: u64, out: &mut Vec<Completion>) {
        while let Some(&Reverse((finish, id, source))) = self.completions.peek() {
            if finish > cycle {
                break;
            }
            self.completions.pop();
            out.push(Completion {
                request_id: id,
                source: SourceId(source),
                finish,
            });
        }
    }

    /// The finish cycle of the earliest buffered completion, if any.
    pub(crate) fn next_completion_at(&self) -> Option<u64> {
        self.completions
            .peek()
            .map(|&Reverse((finish, _, _))| finish)
    }

    /// The earliest cycle `>= from` at which this controller might do
    /// anything other than accumulate uniform stall cycles: issue a
    /// request, run a refresh, unblock the data bus, hit a policy
    /// epoch/quantum boundary, or see a queued request newly become
    /// schedulable (bank timing expiry, tRRD/tFAW window expiry, tRAS
    /// release). The event engine executes every cycle this returns and
    /// skips the span in between; returning a cycle that is *too early*
    /// only costs speed, returning one that is too late would break
    /// cycle-exactness, so every bound below is conservative.
    pub(crate) fn next_wake(&self, from: u64) -> u64 {
        if self.recorder.is_some() {
            // Telemetry recorders sample queue depth per cycle; degrade to
            // cycle-exact stepping rather than distort epoch series.
            return from;
        }
        let timing = &self.config.timing;
        let mut wake = self.policy.next_wakeup().max(from);
        for channel in &self.channels {
            if channel.next_refresh_at != u64::MAX {
                wake = wake.min(channel.next_refresh_at.max(from));
            }
            if channel.queue.is_empty() {
                continue;
            }
            if from < channel.next_issue_at {
                // Bus-blocked until next_issue_at; nothing can issue
                // earlier, and the stall classification is uniform.
                wake = wake.min(channel.next_issue_at);
                continue;
            }
            // No candidate at `from` (checked per bank, returning early
            // otherwise): collect every cycle at which a queued request's
            // schedulability could flip from false to true. Bank/row/shield
            // state is frozen until the next issue or refresh (both of
            // which are themselves wake points), so the thresholds below
            // are a complete superset. They depend only on each bank and
            // on whether it queues reads and requests that miss its row.
            let shield_rows = self.policy.respects_open_rows();
            let mut best = u64::MAX;
            let consider = |c: u64, best: &mut u64| {
                if c > from && c < *best {
                    *best = c;
                }
            };
            let (mut any_miss, mut any_conflict) = (false, false);
            for b in bits(channel.occupied) {
                let slots = &channel.bank_slots[b];
                let queued = || slots.iter().map(|&slot| &self.slab[slot as usize]);
                if let Some(gate) =
                    bank_gate(channel, &self.slab, b, shield_rows, from, &self.config)
                {
                    if queued().any(|q| gate.admits(q)) {
                        return from;
                    }
                }
                let bank = &channel.banks[b];
                consider(bank.ready_at(), &mut best);
                if queued().any(|q| q.req.kind == ReqKind::Read) {
                    consider(bank.read_ready_at(), &mut best);
                }
                if queued().any(|q| bank.open_row() != Some(q.decoded.row)) {
                    if bank.open_row().is_none() {
                        any_miss = true;
                    } else {
                        // The implied PRE waits for tRAS: the ACT time
                        // starts tracking the issue cycle at its release.
                        any_conflict = true;
                        consider(bank.ras_done_at(), &mut best);
                    }
                }
            }
            for &(a, _) in &channel.acts {
                // A miss's implied ACT is at the issue cycle itself:
                // tRRD/tFAW legality flips when history entries age out.
                // A conflict's is at max(cycle, ras_done_at) + tRP: the
                // same thresholds shifted into issue-cycle space.
                for need in [timing.t_rrd_s, timing.t_rrd_l, timing.t_faw] {
                    if any_miss {
                        consider(a + need, &mut best);
                    }
                    if any_conflict {
                        consider((a + need).saturating_sub(timing.t_rp), &mut best);
                    }
                }
            }
            wake = wake.min(best);
        }
        wake
    }

    /// Account for a skipped stall span `[from, to)` exactly as per-cycle
    /// ticking would have: per channel, the whole span is idle (empty
    /// queue), bus-blocked (before `next_issue_at`), or no-candidate —
    /// [`MemoryController::next_wake`] guarantees the classification
    /// cannot change inside the span.
    pub(crate) fn skip_cycles(&mut self, from: u64, to: u64) {
        if to <= from {
            return;
        }
        debug_assert!(
            self.recorder.is_none(),
            "skip-ahead with a telemetry recorder attached"
        );
        let span = to - from;
        let sched = &mut self.stats.scheduler;
        for channel in &self.channels {
            debug_assert!(to <= channel.next_refresh_at, "skipped over a refresh");
            if channel.queue.is_empty() {
                sched.idle += span;
            } else if from < channel.next_issue_at {
                debug_assert!(to <= channel.next_issue_at, "skipped past bus unblock");
                sched.bus_blocked += span;
            } else {
                sched.no_candidate += span;
            }
        }
        self.stats.elapsed_cycles = self.stats.elapsed_cycles.max(to);
    }

    /// Replaces `out` with the schedulable requests of channel `ch_idx` at
    /// `cycle`: each occupied bank is evaluated once ([`bank_gate`]) and
    /// only the requests of banks that can issue are visited. Candidates
    /// come bank by bank, so their order is not queue order.
    fn collect_candidates(&self, ch_idx: usize, cycle: u64, out: &mut Vec<Candidate>) {
        out.clear();
        let channel = &self.channels[ch_idx];
        let shield_rows = self.policy.respects_open_rows();
        for b in bits(channel.occupied) {
            let Some(gate) = bank_gate(channel, &self.slab, b, shield_rows, cycle, &self.config)
            else {
                continue;
            };
            for &slot in &channel.bank_slots[b] {
                let q = &self.slab[slot as usize];
                if gate.admits(q) {
                    out.push(Candidate {
                        queue_idx: q.queue_pos as usize,
                        source: q.req.source,
                        row_hit: gate.open_row == Some(q.decoded.row),
                        arrival: q.req.arrival,
                        bank: b,
                        row: q.decoded.row,
                    });
                }
            }
        }
    }

    fn schedule_channel(&mut self, ch_idx: usize, cycle: u64) {
        // The data bus is modelled as a rate limiter: at most one line may
        // *begin* service per burst window, which caps sustained channel
        // throughput at exactly the bus rate while letting transfers from
        // different banks complete out of order (a row conflict delays only
        // its own bank, not the channel pipeline).
        let burst = self.config.burst_cycles();
        // All-bank refresh: blocks every bank of the channel for tRFC. A
        // uniform tax on all sources (it cannot change *relative* speeds),
        // but it keeps effective bandwidth honest. The sequence is
        // protocol-honest: wait for in-flight accesses and tRAS, precharge
        // any open rows, then REF after tRP.
        {
            let t_rfc = self.config.timing.t_rfc;
            let t_refi = self.config.timing.t_refi;
            let t_rp = self.config.timing.t_rp;
            let channel = &mut self.channels[ch_idx];
            if cycle >= channel.next_refresh_at {
                let pre_at = channel
                    .banks
                    .iter()
                    .map(|b| b.refresh_pre_at(cycle))
                    .max()
                    .unwrap_or(cycle);
                let any_open = channel.banks.iter().any(|b| b.open_row().is_some());
                let ref_at = if any_open { pre_at + t_rp } else { pre_at };
                if let Some(c) = self.conformance.as_mut() {
                    for (bank_idx, bank) in channel.banks.iter().enumerate() {
                        if bank.open_row().is_some() {
                            c.observe(CommandRecord {
                                cycle: pre_at,
                                channel: ch_idx,
                                bank: bank_idx,
                                kind: CmdKind::Pre,
                                row: None,
                            });
                        }
                    }
                    c.observe(CommandRecord {
                        cycle: ref_at,
                        channel: ch_idx,
                        bank: 0,
                        kind: CmdKind::RefAb,
                        row: None,
                    });
                }
                for bank in &mut channel.banks {
                    bank.refresh_until(ref_at + t_rfc);
                }
                channel.next_refresh_at = channel.next_refresh_at.saturating_add(t_refi);
            }
        }
        {
            let channel = &self.channels[ch_idx];
            if channel.queue.is_empty() {
                self.stats.scheduler.idle += 1;
                if let Some(r) = self.recorder.as_mut() {
                    r.on_stall(cycle, StallEvent::Idle);
                }
                return;
            }
            if cycle < channel.next_issue_at {
                self.stats.scheduler.bus_blocked += 1;
                if let Some(r) = self.recorder.as_mut() {
                    r.on_stall(cycle, StallEvent::BusBlocked);
                }
                return;
            }
        }

        let mut candidates = std::mem::take(&mut self.cand_scratch);
        self.collect_candidates(ch_idx, cycle, &mut candidates);
        if candidates.is_empty() {
            self.cand_scratch = candidates;
            self.stats.scheduler.no_candidate += 1;
            if let Some(r) = self.recorder.as_mut() {
                r.on_stall(cycle, StallEvent::NoCandidate);
            }
            return;
        }

        let chosen = {
            let input = ScheduleInput {
                cycle,
                candidates: &candidates,
                pending_per_source: &self.pending_per_source,
            };
            self.policy.choose(&input)
        };
        let queue_idx = chosen.map(|c| candidates[c].queue_idx);
        self.cand_scratch = candidates;
        let Some(queue_idx) = queue_idx else {
            return;
        };

        let channel = &mut self.channels[ch_idx];
        let slot = channel.queue.swap_remove(queue_idx);
        if let Some(&moved) = channel.queue.get(queue_idx) {
            self.slab[moved as usize].queue_pos = queue_idx as u32;
        }
        let q = self.slab[slot as usize];
        let bank_slots = &mut channel.bank_slots[q.decoded.bank];
        bank_slots.swap_remove(q.bank_pos as usize);
        if let Some(&moved) = bank_slots.get(q.bank_pos as usize) {
            self.slab[moved as usize].bank_pos = q.bank_pos;
        }
        if bank_slots.is_empty() {
            channel.occupied &= !(1 << q.decoded.bank);
        }
        self.free_slots.push(slot);
        let issue = channel.banks[q.decoded.bank].issue(
            q.decoded.row,
            q.req.kind,
            cycle,
            &self.config.timing,
            burst,
        );
        let finish = issue.data_ready + burst;
        channel.next_issue_at = cycle + burst;
        if let Some(act_at) = issue.act_at {
            let horizon = self.config.timing.t_faw.max(self.config.timing.t_rrd_l);
            channel.acts.retain(|&(a, _)| a + horizon > cycle);
            channel
                .acts
                .push((act_at, self.config.bank_group(q.decoded.bank)));
        }
        if let Some(c) = self.conformance.as_mut() {
            if let Some(pre_at) = issue.pre_at {
                c.observe(CommandRecord {
                    cycle: pre_at,
                    channel: ch_idx,
                    bank: q.decoded.bank,
                    kind: CmdKind::Pre,
                    row: None,
                });
            }
            if let Some(act_at) = issue.act_at {
                c.observe(CommandRecord {
                    cycle: act_at,
                    channel: ch_idx,
                    bank: q.decoded.bank,
                    kind: CmdKind::Act,
                    row: Some(q.decoded.row),
                });
            }
            c.observe(CommandRecord {
                cycle: issue.cas_at,
                channel: ch_idx,
                bank: q.decoded.bank,
                kind: if q.req.kind == ReqKind::Write {
                    CmdKind::Wr
                } else {
                    CmdKind::Rd
                },
                row: Some(q.decoded.row),
            });
        }

        if let Some(n) = self.pending_per_source.get_mut(&q.req.source) {
            *n = n.saturating_sub(1);
        }
        self.policy.on_served(q.req.source, u64::from(q.req.bytes));
        let latency = finish.saturating_sub(q.req.arrival);
        self.stats
            .record_served(q.req.source, u64::from(q.req.bytes), issue.outcome, latency);
        self.stats.scheduler.issued += 1;
        if let Some(r) = self.recorder.as_mut() {
            r.on_stall(cycle, StallEvent::Issued);
            let row = match issue.outcome {
                RowOutcome::Hit => RowEvent::Hit,
                RowOutcome::Miss => RowEvent::Miss,
                RowOutcome::Conflict => RowEvent::Conflict,
            };
            r.on_serve(cycle, q.req.source.0, u64::from(q.req.bytes), latency, row);
        }
        self.completions
            .push(Reverse((finish, q.req.id, q.req.source.0)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyKind;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Reference tRRD/tFAW rule: the tFAW check sorts every ACT time and
    /// tests each window of five consecutive ones.
    fn act_is_legal_sorted(
        acts: &[(u64, usize)],
        act_at: u64,
        group: usize,
        timing: &DramTiming,
    ) -> bool {
        for &(a, g) in acts {
            let need = if g == group {
                timing.t_rrd_l
            } else {
                timing.t_rrd_s
            };
            if need > 0 && act_at.abs_diff(a) < need {
                return false;
            }
        }
        if timing.t_faw > 0 && acts.len() >= 4 {
            let mut all: Vec<u64> = acts.iter().map(|&(a, _)| a).collect();
            all.push(act_at);
            all.sort_unstable();
            if all.windows(5).any(|w| w[4] - w[0] < timing.t_faw) {
                return false;
            }
        }
        true
    }

    /// Reference candidate filter: the per-request predicate the per-bank
    /// gates replaced. Returns `(queue_idx, row_hit)` of every schedulable
    /// request of channel `ch_idx` at `cycle`, in queue order.
    fn reference_candidates(
        mc: &MemoryController,
        ch_idx: usize,
        cycle: u64,
    ) -> Vec<(usize, bool)> {
        let channel = &mc.channels[ch_idx];
        let config = &mc.config;
        let shield_rows = mc.policy.respects_open_rows();
        let queued = || channel.queue.iter().map(|&slot| &mc.slab[slot as usize]);
        let hits_open =
            |q: &QueuedRequest| channel.banks[q.decoded.bank].open_row() == Some(q.decoded.row);
        // Banks that still have queued row hits for their open row.
        let pending_hits: u128 = queued()
            .filter(|q| hits_open(q))
            .fold(0, |mask, q| mask | 1 << q.decoded.bank);
        let is_schedulable = |q: &QueuedRequest| {
            let bank = &channel.banks[q.decoded.bank];
            if !bank.is_ready_for(q.req.kind, cycle) {
                return false;
            }
            let pending_hit = pending_hits >> q.decoded.bank & 1 != 0;
            if shield_rows
                && !hits_open(q)
                && pending_hit
                && bank.hits_since_open() < ROW_STREAK_CAP
            {
                return false;
            }
            match bank.prospective_act_at(q.decoded.row, cycle, &config.timing) {
                Some(act_at) => act_is_legal_sorted(
                    &channel.acts,
                    act_at,
                    config.bank_group(q.decoded.bank),
                    &config.timing,
                ),
                None => true,
            }
        };
        queued()
            .enumerate()
            .filter(|(_, q)| is_schedulable(q))
            .map(|(i, q)| (i, hits_open(q)))
            .collect()
    }

    /// The slot bookkeeping behind the per-bank scan: every queued slot
    /// knows its queue position and its place in its bank's list, and the
    /// occupancy mask names exactly the banks with queued requests.
    fn check_slot_index(mc: &MemoryController) -> Result<(), String> {
        for (c, channel) in mc.channels.iter().enumerate() {
            for (i, &slot) in channel.queue.iter().enumerate() {
                let q = &mc.slab[slot as usize];
                if q.queue_pos as usize != i {
                    return Err(format!(
                        "ch{c}: slot {slot} at queue {i} says {}",
                        q.queue_pos
                    ));
                }
                if channel.bank_slots[q.decoded.bank].get(q.bank_pos as usize) != Some(&slot) {
                    return Err(format!("ch{c}: slot {slot} missing from its bank list"));
                }
            }
            let listed: usize = channel.bank_slots.iter().map(Vec::len).sum();
            if listed != channel.queue.len() {
                return Err(format!(
                    "ch{c}: {listed} listed, {} queued",
                    channel.queue.len()
                ));
            }
            for (b, slots) in channel.bank_slots.iter().enumerate() {
                if (channel.occupied >> b & 1 != 0) == slots.is_empty() {
                    return Err(format!("ch{c}: occupancy bit of bank {b} is stale"));
                }
            }
        }
        Ok(())
    }

    proptest! {
        #[test]
        fn act_rule_matches_sorted_window_reference(
            acts in prop::collection::vec((0u64..200, 0usize..4), 0..9),
            act_at in 0u64..200,
            group in 0usize..4,
            faw_scale in 0u64..4,
        ) {
            let mut timing = DramTiming::ddr4_3200();
            timing.t_faw *= faw_scale;
            prop_assert_eq!(
                act_is_legal(&acts, act_at, group, &timing),
                act_is_legal_sorted(&acts, act_at, group, &timing)
            );
        }

        #[test]
        fn per_bank_candidates_match_per_request_reference(
            policy in 0usize..5,
            xavier in any::<bool>(),
            faw_scale in 1u64..4,
            hot_rows in 1usize..6,
            write_fraction in 0.0f64..0.6,
            load in 0.05f64..0.9,
            seed in 0u64..1_000_000,
        ) {
            let mut config = if xavier { DramConfig::xavier() } else { DramConfig::cmp_study() };
            config.timing.t_faw *= faw_scale;
            let mut mc = MemoryController::new(config, PolicyKind::all()[policy].instantiate());
            let mut rng = SmallRng::seed_from_u64(seed);
            // A few hot rows, each a run of consecutive lines, so requests
            // hit, miss and conflict and row-hit streaks reach the cap.
            let bases: Vec<u64> = (0..hot_rows).map(|_| rng.gen_range(0..1u64 << 28) & !0xfff).collect();
            let mut done = Vec::new();
            let mut id = 0;
            for cycle in 0..1_500u64 {
                while rng.gen_bool(load) {
                    let addr = bases[rng.gen_range(0..hot_rows)] + 64 * rng.gen_range(0..64u64);
                    let source = SourceId(rng.gen_range(0..4usize));
                    let mut req = MemoryRequest::read(id, source, addr, cycle);
                    if rng.gen_bool(write_fraction) {
                        req.kind = ReqKind::Write;
                    }
                    id += 1;
                    if mc.try_enqueue(req).is_err() {
                        break;
                    }
                }
                // Random ACT history: extra entries around the current
                // cycle make tRRD/tFAW bind far more often than traffic
                // alone does.
                if rng.gen_bool(0.05) {
                    let ch = rng.gen_range(0..mc.channels.len());
                    let at = cycle + rng.gen_range(0..120u64);
                    let group = rng.gen_range(0..4usize);
                    mc.channels[ch].acts.push((at.saturating_sub(60), group));
                }
                let mut cands = Vec::new();
                for ch in 0..mc.channels.len() {
                    mc.collect_candidates(ch, cycle, &mut cands);
                    let mut got: Vec<(usize, bool)> =
                        cands.iter().map(|c| (c.queue_idx, c.row_hit)).collect();
                    got.sort_unstable();
                    prop_assert_eq!(got, reference_candidates(&mc, ch, cycle), "cycle {}, ch {}", cycle, ch);
                }
                mc.tick_into(cycle, &mut done);
                if let Err(e) = check_slot_index(&mc) {
                    prop_assert!(false, "cycle {}: {}", cycle, e);
                }
            }
        }
    }

    fn controller(kind: PolicyKind) -> MemoryController {
        MemoryController::new(DramConfig::cmp_study(), kind.instantiate())
    }

    fn run_until_complete(mc: &mut MemoryController, n: usize, max_cycles: u64) -> Vec<Completion> {
        let mut done = Vec::new();
        for cycle in 0..max_cycles {
            mc.tick_into(cycle, &mut done);
            if done.len() >= n {
                break;
            }
        }
        done
    }

    #[test]
    fn single_request_completes_with_miss_latency() {
        let mut mc = controller(PolicyKind::FrFcfs);
        mc.try_enqueue(MemoryRequest::read(1, SourceId(0), 0, 0))
            .unwrap();
        let done = run_until_complete(&mut mc, 1, 1000);
        assert_eq!(done.len(), 1);
        let t = &mc.config().timing;
        // tRCD + tCL + burst.
        assert_eq!(
            done[0].finish,
            t.t_rcd + t.t_cl + mc.config().burst_cycles()
        );
        assert_eq!(mc.stats().total_served(), 1);
        assert_eq!(mc.pending(), 0);
    }

    #[test]
    fn sequential_stream_hits_rows() {
        let mut mc = controller(PolicyKind::FrFcfs);
        // Same channel (stride = channels * 64), same row.
        let stride = 64 * mc.config().channels as u64;
        for i in 0..16u64 {
            mc.try_enqueue(MemoryRequest::read(i, SourceId(0), i * stride, 0))
                .unwrap();
        }
        let done = run_until_complete(&mut mc, 16, 10_000);
        assert_eq!(done.len(), 16);
        let s = &mc.stats().per_source[&SourceId(0)];
        assert_eq!(s.row_misses, 1, "only the first access misses");
        assert_eq!(s.row_hits, 15);
    }

    #[test]
    fn queue_full_applies_backpressure() {
        let mut mc = controller(PolicyKind::Fcfs);
        let cap = mc.config().queue_capacity;
        let stride = 64 * mc.config().channels as u64; // all to channel 0
        let mut accepted = 0;
        for i in 0..(cap as u64 + 10) {
            if mc
                .try_enqueue(MemoryRequest::read(i, SourceId(0), i * stride, 0))
                .is_ok()
            {
                accepted += 1;
            }
        }
        assert_eq!(accepted, cap);
        assert_eq!(mc.stats().per_source[&SourceId(0)].rejected, 10);
    }

    #[test]
    fn channels_interleave_for_sequential_addresses() {
        let mut mc = controller(PolicyKind::FrFcfs);
        for i in 0..4u64 {
            mc.try_enqueue(MemoryRequest::read(i, SourceId(0), i * 64, 0))
                .unwrap();
        }
        // All four channels can issue in the same cycle.
        mc.tick_into(0, &mut Vec::new());
        assert_eq!(mc.pending(), 0);
    }

    #[test]
    fn bus_serializes_same_channel_transfers() {
        let mut mc = controller(PolicyKind::FrFcfs);
        let stride = 64 * mc.config().channels as u64;
        for i in 0..8u64 {
            mc.try_enqueue(MemoryRequest::read(i, SourceId(0), i * stride, 0))
                .unwrap();
        }
        let done = run_until_complete(&mut mc, 8, 10_000);
        let mut finishes: Vec<u64> = done.iter().map(|c| c.finish).collect();
        finishes.sort_unstable();
        let burst = mc.config().burst_cycles();
        for w in finishes.windows(2) {
            assert!(w[1] - w[0] >= burst, "transfers overlap on the bus");
        }
    }

    #[test]
    fn pending_per_source_tracks_queue() {
        let mut mc = controller(PolicyKind::Fcfs);
        mc.try_enqueue(MemoryRequest::read(0, SourceId(3), 0, 0))
            .unwrap();
        mc.try_enqueue(MemoryRequest::read(1, SourceId(3), 64, 0))
            .unwrap();
        assert_eq!(mc.pending_for(SourceId(3)), 2);
        run_until_complete(&mut mc, 2, 1000);
        assert_eq!(mc.pending_for(SourceId(3)), 0);
    }

    #[test]
    fn all_policies_drain_a_mixed_queue() {
        for kind in PolicyKind::all() {
            let mut mc = controller(kind);
            for i in 0..64u64 {
                let src = SourceId((i % 4) as usize);
                mc.try_enqueue(MemoryRequest::read(i, src, i * 64 * 7919, 0))
                    .unwrap();
            }
            let done = run_until_complete(&mut mc, 64, 100_000);
            assert_eq!(done.len(), 64, "{kind} failed to drain");
        }
    }

    #[test]
    fn recorder_reconciles_with_aggregate_stats() {
        use pccs_telemetry::EpochRecorder;
        let mut mc = controller(PolicyKind::FrFcfs);
        mc.set_recorder(Box::new(EpochRecorder::new(64)));
        for i in 0..32u64 {
            mc.try_enqueue(MemoryRequest::read(
                i,
                SourceId((i % 2) as usize),
                i * 64 * 131,
                0,
            ))
            .unwrap();
        }
        run_until_complete(&mut mc, 32, 10_000);
        let last = mc.stats().elapsed_cycles;
        let report = mc.take_report(last).expect("epoch recorder reports");
        assert_eq!(report.total_bytes(), mc.stats().total_bytes());
        let sched = &mc.stats().scheduler;
        let issued: u64 = report.epochs.iter().map(|e| e.issued).sum();
        let idle: u64 = report.epochs.iter().map(|e| e.idle).sum();
        assert_eq!(issued, sched.issued);
        assert_eq!(idle, sched.idle);
        let hits: u64 = report.epochs.iter().map(|e| e.row_hits).sum();
        let all_hits: u64 = mc.stats().per_source.values().map(|s| s.row_hits).sum();
        assert_eq!(hits, all_hits);
        assert_eq!(report.sources(), vec![0, 1]);
    }

    #[test]
    fn stats_latency_includes_queueing() {
        let mut mc = controller(PolicyKind::Fcfs);
        let stride = 64 * mc.config().channels as u64;
        for i in 0..4u64 {
            mc.try_enqueue(MemoryRequest::read(i, SourceId(0), i * stride, 0))
                .unwrap();
        }
        run_until_complete(&mut mc, 4, 10_000);
        let s = &mc.stats().per_source[&SourceId(0)];
        // The last request waited for three predecessors.
        assert!(s.max_latency > s.avg_latency() as u64 / 2);
        assert!(s.max_latency >= 3 * mc.config().burst_cycles());
    }
}
