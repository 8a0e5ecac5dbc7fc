//! The discrete-event replay core shared by [`crate::engine::run_schedule`]
//! and `pccs-serve`'s `run_serve`.
//!
//! Execution is quasi-static: placements are fixed between events
//! (arrivals, phase boundaries, completions, and whatever else a driver
//! schedules), so the core probes the co-run simulator once per event for
//! the sustained work rate of every resident PU and advances time
//! analytically to the next event. It owns the [`SimProbe`], the resident
//! list, and the clock; a driver owns its queue and decides what to place
//! when, and what a completion means.

use crate::job::Job;
use crate::policy::{
    Assignment, DecisionInput, PendingJob, PhaseEstimate, PlacementOption, Probe, PuSlot, Resident,
    MIN_RATE,
};
use pccs_soc::corun::{CoRunConfig, CoRunSim, Placement};
use pccs_soc::kernel::KernelDesc;
use pccs_soc::soc::SocConfig;
use std::collections::BTreeMap;

/// Work below this many lines counts as finished.
const WORK_EPSILON: f64 = 1e-6;

/// Upper bound on events a replay may advance through before it is
/// declared a livelock (defensive; never reached by the bundled policies).
pub const MAX_EVENTS: usize = 1_000_000;

/// A job resident on a PU, with the driver's payload `T`.
#[derive(Debug)]
pub struct InFlight<T> {
    /// The job.
    pub job: Job,
    /// The PU it occupies.
    pub pu_idx: usize,
    /// Index of its current phase.
    phase: usize,
    /// Work left in the current phase, lines.
    remaining_lines: f64,
    /// Placement time, cycles.
    pub start: f64,
    /// What the driver attached at placement.
    pub payload: T,
}

impl<T> InFlight<T> {
    fn kernel<'k>(&'k self, soc: &SocConfig) -> &'k KernelDesc {
        self.job.phases[self.phase]
            .kernel_for(soc.pus[self.pu_idx].kind)
            .expect("placement was validated against eligibility")
    }
}

/// The replay's probe: co-run rate measurements through [`CoRunSim`],
/// cached by placement set.
#[derive(Debug)]
pub struct SimProbe<'a> {
    soc: &'a SocConfig,
    config: CoRunConfig,
    pub(crate) corun_cache: BTreeMap<String, BTreeMap<usize, f64>>,
    standalone_cache: BTreeMap<String, (f64, f64)>,
}

impl<'a> SimProbe<'a> {
    /// A probe against `soc` at the given measurement fidelity.
    pub fn new(soc: &'a SocConfig, config: CoRunConfig) -> Self {
        Self {
            soc,
            config,
            corun_cache: BTreeMap::new(),
            standalone_cache: BTreeMap::new(),
        }
    }

    fn kernel_sig(kernel: &KernelDesc) -> String {
        format!(
            "{}|{:.5}|{:.4}|{:.4}|{:.4}",
            kernel.name,
            kernel.ops_per_byte,
            kernel.row_locality,
            kernel.write_fraction,
            kernel.parallel_efficiency
        )
    }

    /// Standalone (work rate in lines/cycle, bandwidth demand in GB/s) of
    /// `kernel` on PU `pu_idx`; cached.
    pub fn standalone(&mut self, pu_idx: usize, kernel: &KernelDesc) -> (f64, f64) {
        let key = format!("{pu_idx}@{}", Self::kernel_sig(kernel));
        if let Some(hit) = self.standalone_cache.get(&key) {
            return *hit;
        }
        let profile = CoRunSim::standalone_with(self.soc, pu_idx, kernel, &self.config);
        let result = (profile.lines_per_cycle, profile.bw_gbps);
        self.standalone_cache.insert(key, result);
        result
    }
}

impl Probe for SimProbe<'_> {
    fn corun_rates(&mut self, placements: &[(usize, KernelDesc)]) -> BTreeMap<usize, f64> {
        let mut parts: Vec<String> = placements
            .iter()
            .map(|(pu, k)| format!("{pu}@{}", Self::kernel_sig(k)))
            .collect();
        parts.sort_unstable();
        let key = parts.join(";");
        if let Some(hit) = self.corun_cache.get(&key) {
            return hit.clone();
        }
        let mut sim = CoRunSim::with_config(self.soc, self.config.clone());
        for (pu, kernel) in placements {
            sim.place(Placement::kernel(*pu, kernel.clone()));
        }
        let out = sim.execute();
        let rates: BTreeMap<usize, f64> = out
            .per_pu
            .iter()
            .map(|(pu, r)| (*pu, r.lines_per_cycle))
            .collect();
        self.corun_cache.insert(key, rates.clone());
        rates
    }
}

/// The progress guarantee for an idle machine whose policy placed nothing:
/// the head of `input`'s service order on its fastest standalone PU,
/// costed at its standalone cycles.
///
/// # Panics
///
/// Panics if `input` has an empty queue or a queued job has no placement
/// option (drivers validate eligibility up front).
pub fn forced_choice(input: &DecisionInput) -> Assignment {
    let job = &input.queue[input.service_order()[0]];
    let opt = job
        .options
        .iter()
        .min_by(|a, b| a.standalone_cycles.total_cmp(&b.standalone_cycles))
        .expect("eligibility was validated up front");
    Assignment {
        job_id: job.job_id,
        pu_idx: opt.pu_idx,
        predicted_cost: opt.standalone_cycles,
    }
}

/// The replay state: probe, residents, and clock.
#[derive(Debug)]
pub struct Replay<'a, T> {
    soc: &'a SocConfig,
    probe: SimProbe<'a>,
    running: Vec<InFlight<T>>,
    now: f64,
    events: usize,
}

impl<'a, T> Replay<'a, T> {
    /// An idle machine at cycle 0, probing `soc` at fidelity `probe`.
    pub fn new(soc: &'a SocConfig, probe: CoRunConfig) -> Self {
        Self {
            soc,
            probe: SimProbe::new(soc, probe),
            running: Vec::new(),
            now: 0.0,
            events: 0,
        }
    }

    /// The current time, cycles.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Events advanced through so far.
    pub fn events(&self) -> usize {
        self.events
    }

    /// The rate probe, for policies and driver-side estimates.
    pub fn probe(&mut self) -> &mut SimProbe<'a> {
        &mut self.probe
    }

    /// Whether nothing is running.
    pub fn is_idle(&self) -> bool {
        self.running.is_empty()
    }

    /// Whether PU `pu_idx` has no resident.
    fn pu_free(&self, pu_idx: usize) -> bool {
        self.running.iter().all(|r| r.pu_idx != pu_idx)
    }

    /// Whether any PU has no resident.
    pub fn any_free(&self) -> bool {
        (0..self.soc.pus.len()).any(|pu_idx| self.pu_free(pu_idx))
    }

    /// Whether `job` may be placed on PU `pu_idx` now: the PU exists, is
    /// free, and is one the job runs on. Policies may only place eligible
    /// jobs on free PUs; drivers ignore any other assignment.
    pub fn can_place(&self, job: &Job, pu_idx: usize) -> bool {
        pu_idx < self.soc.pus.len()
            && self.pu_free(pu_idx)
            && job.runs_on(self.soc.pus[pu_idx].kind)
    }

    /// Starts `job` on PU `pu_idx` now, carrying `payload`.
    ///
    /// # Panics
    ///
    /// Panics if [`Replay::can_place`] rejects the placement.
    pub fn place(&mut self, job: Job, pu_idx: usize, payload: T) {
        assert!(
            self.can_place(&job, pu_idx),
            "invalid placement on PU {pu_idx}"
        );
        let remaining_lines = job.phases[0].work_lines;
        self.running.push(InFlight {
            job,
            pu_idx,
            phase: 0,
            remaining_lines,
            start: self.now,
            payload,
        });
    }

    /// Remaining standalone cycles of the resident on PU `pu_idx` (0 when
    /// the PU is free): an optimistic, contention-oblivious drain time.
    pub fn standalone_left(&mut self, pu_idx: usize) -> f64 {
        let Some(r) = self.running.iter().find(|r| r.pu_idx == pu_idx) else {
            return 0.0;
        };
        let kind = self.soc.pus[pu_idx].kind;
        let mut left = 0.0;
        for (phase, ph) in r.job.phases.iter().enumerate().skip(r.phase) {
            let kernel = ph
                .kernel_for(kind)
                .expect("placement was validated against eligibility");
            let (rate, _) = self.probe.standalone(pu_idx, kernel);
            let lines = if phase == r.phase {
                r.remaining_lines
            } else {
                ph.work_lines
            };
            left += lines / rate.max(MIN_RATE);
        }
        left
    }

    /// The bandwidth pressure residents on *other* PUs put on `pu_idx`:
    /// the sum of their current kernels' standalone demands, GB/s.
    pub fn external_gbps(&mut self, pu_idx: usize) -> f64 {
        self.running
            .iter()
            .filter(|r| r.pu_idx != pu_idx)
            .map(|r| self.probe.standalone(r.pu_idx, r.kernel(self.soc)).1)
            .sum()
    }

    /// The snapshot a policy decides on, for the jobs in `queue` (in
    /// arrival order).
    pub fn decision_input(&mut self, queue: &[&Job]) -> DecisionInput {
        let soc = self.soc;
        let slots: Vec<PuSlot> = soc
            .pus
            .iter()
            .enumerate()
            .map(|(pu_idx, pu)| PuSlot {
                pu_idx,
                kind: pu.kind,
                name: pu.name.clone(),
                free: self.pu_free(pu_idx),
                est_free_in: self.standalone_left(pu_idx),
            })
            .collect();
        let probe = &mut self.probe;
        let queue: Vec<PendingJob> = queue
            .iter()
            .map(|job| {
                let options: Vec<PlacementOption> = soc
                    .pus
                    .iter()
                    .enumerate()
                    .filter(|(_, pu)| job.runs_on(pu.kind))
                    .map(|(pu_idx, pu)| {
                        let phases: Vec<PhaseEstimate> = job
                            .phases
                            .iter()
                            .map(|ph| {
                                let kernel =
                                    ph.kernel_for(pu.kind).expect("runs_on checked").clone();
                                let (rate, bw) = probe.standalone(pu_idx, &kernel);
                                PhaseEstimate {
                                    kernel,
                                    work_lines: ph.work_lines,
                                    standalone_rate: rate,
                                    demand_gbps: bw,
                                }
                            })
                            .collect();
                        let standalone_cycles = phases
                            .iter()
                            .map(|p| p.work_lines / p.standalone_rate.max(MIN_RATE))
                            .sum();
                        PlacementOption {
                            pu_idx,
                            standalone_cycles,
                            phases,
                        }
                    })
                    .collect();
                PendingJob {
                    job_id: job.id,
                    name: job.name.clone(),
                    arrival: job.arrival,
                    deadline: job.deadline,
                    priority: job.priority,
                    options,
                }
            })
            .collect();
        let residents: Vec<Resident> = self
            .running
            .iter()
            .map(|r| {
                let kernel = r.kernel(soc).clone();
                let (rate, bw) = probe.standalone(r.pu_idx, &kernel);
                Resident {
                    pu_idx: r.pu_idx,
                    job_id: r.job.id,
                    kernel,
                    demand_gbps: bw,
                    standalone_rate: rate,
                    remaining_lines: r.remaining_lines,
                }
            })
            .collect();
        DecisionInput {
            now: self.now,
            slots,
            queue,
            residents,
        }
    }

    /// Advances to the next event and returns the residents that finished
    /// there, in resident order.
    ///
    /// On an idle machine the clock jumps to `next_event`. Otherwise the
    /// core probes the co-run rates of the current placement, steps to the
    /// earliest of `next_event` and the first phase end, and moves every
    /// resident whose phase ended to its next phase or out of the machine.
    ///
    /// # Panics
    ///
    /// Panics past [`MAX_EVENTS`] events (defensive livelock bound; never
    /// reached by the bundled policies).
    pub fn advance(&mut self, next_event: Option<f64>) -> Vec<InFlight<T>> {
        self.events += 1;
        assert!(
            self.events <= MAX_EVENTS,
            "replay exceeded {MAX_EVENTS} events without finishing"
        );
        if self.running.is_empty() {
            if let Some(at) = next_event {
                self.now = self.now.max(at);
            }
            return Vec::new();
        }
        let placements: Vec<(usize, KernelDesc)> = self
            .running
            .iter()
            .map(|r| (r.pu_idx, r.kernel(self.soc).clone()))
            .collect();
        let rates = self.probe.corun_rates(&placements);
        let rate_of = |pu_idx: usize| rates.get(&pu_idx).copied().unwrap_or(0.0).max(MIN_RATE);
        let mut dt = f64::INFINITY;
        for r in &self.running {
            dt = dt.min(r.remaining_lines / rate_of(r.pu_idx));
        }
        if let Some(at) = next_event {
            let until = at - self.now;
            if until > 0.0 {
                dt = dt.min(until);
            }
        }
        self.now += dt;
        let mut finished = Vec::new();
        let mut idx = 0;
        while idx < self.running.len() {
            let r = &mut self.running[idx];
            r.remaining_lines -= rate_of(r.pu_idx) * dt;
            if r.remaining_lines > WORK_EPSILON {
                idx += 1;
            } else if r.phase + 1 < r.job.phases.len() {
                r.phase += 1;
                r.remaining_lines = r.job.phases[r.phase].work_lines;
                idx += 1;
            } else {
                finished.push(self.running.remove(idx));
            }
        }
        finished
    }
}

#[cfg(test)]
#[path = "../../../tests/support/misbehaving.rs"]
mod misbehaving;

#[cfg(test)]
mod tests {
    use super::misbehaving::Misbehaving;
    use super::*;
    use crate::engine::{run_schedule, SchedConfig};
    use crate::mixes;
    use pccs_soc::pu::PuKind;
    use std::collections::BTreeSet;

    #[test]
    fn assignments_must_name_a_free_eligible_pu() {
        let soc = SocConfig::xavier();
        let (cpu, gpu, dla) = (0, 1, 2);
        assert_eq!(
            soc.pus.iter().map(|p| p.kind).collect::<Vec<_>>(),
            [PuKind::Cpu, PuKind::Gpu, PuKind::Dla]
        );
        let mix = mixes::contended();
        let (srad, mnist) = (&mix.jobs[0], &mix.jobs[1]);
        let mut replay: Replay<()> = Replay::new(&soc, CoRunConfig::probe());
        assert!(replay.can_place(srad, cpu));
        assert!(!replay.can_place(srad, gpu), "srad is CPU-only");
        assert!(!replay.can_place(mnist, dla), "mnist may not use the DLA");
        assert!(!replay.can_place(mnist, soc.pus.len()), "no such PU");
        replay.place(srad.clone(), cpu, ());
        assert!(!replay.pu_free(cpu) && replay.any_free());
        assert!(!replay.can_place(mnist, cpu), "the CPU is busy");
        assert!(replay.can_place(mnist, gpu));
    }

    #[test]
    fn misbehaving_policy_cannot_break_the_schedule() {
        let soc = SocConfig::xavier();
        let mix = mixes::contended().scaled(0.05);
        let mut policy = Misbehaving::default();
        let r = run_schedule(
            &soc,
            &mix.name,
            &mix.jobs,
            &mut policy,
            &SchedConfig::quick(),
        )
        .expect("contended mix is schedulable on Xavier");
        assert!(
            policy.valid_rounds > 0,
            "no round proposed a valid placement"
        );
        // Every job ran exactly once, on a PU it may use.
        let placed: Vec<usize> = r.decisions.iter().map(|d| d.job_id).collect();
        let ran: BTreeSet<usize> = r.jobs.iter().map(|o| o.job_id).collect();
        assert_eq!(placed.len(), mix.jobs.len(), "{placed:?}");
        assert_eq!(ran.len(), mix.jobs.len());
        assert_eq!(placed.iter().collect::<BTreeSet<_>>().len(), placed.len());
        for o in &r.jobs {
            let job = mix.jobs.iter().find(|j| j.id == o.job_id).unwrap();
            assert!(
                job.runs_on(soc.pus[o.pu_idx].kind),
                "{} on {}",
                job.name,
                o.pu
            );
        }
        // Both decision sources placed something: the policy's valid
        // duplicate while work ran, the progress guarantee on idle.
        assert!(r.decisions.iter().any(|d| d.policy == "forced"));
        assert!(r.decisions.iter().any(|d| d.policy == "misbehaving"));
        // No PU ran two jobs at once.
        for pu in 0..soc.pus.len() {
            let mut spans: Vec<(f64, f64)> = r
                .jobs
                .iter()
                .filter(|o| o.pu_idx == pu)
                .map(|o| (o.start, o.finish))
                .collect();
            spans.sort_by(|a, b| a.0.total_cmp(&b.0));
            for w in spans.windows(2) {
                assert!(w[1].0 >= w[0].1, "overlap on PU {pu}: {w:?}");
            }
        }
    }
}
