//! The two production workloads: what one pass calls, how its outputs are
//! checked, and the engine-parity probe run outside the timed region.

use pccs_core::{ModelBuilder, PccsModel};
use pccs_dram::EngineKind;
use pccs_experiments::fig14::ModelChoice;
use pccs_experiments::validate::Figure;
use pccs_experiments::{
    fig13, fig14, fig2, fig3, fig5, fig6, oblivious, sched_study, serve_study, table10, table5,
    table7, table9, validate, Context, Quality,
};
use pccs_soc::corun::CoRunConfig;
use pccs_soc::{CoRunSim, Placement, SocConfig};
use pccs_telemetry::Profiler;
use pccs_workloads::calibrate::{self, CalibrationConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: &[&str] = &["calib_contended", "repro_quick"];

/// The `repro` experiments, in the order `repro all` runs them.
pub const EXPERIMENTS: [&str; 18] = [
    "fig2",
    "fig3",
    "fig5",
    "fig6",
    "table5",
    "table7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "table9",
    "table10",
    "oblivious",
    "sched",
    "serve",
];

/// Worker threads for every sweep (the benchmark host has two cores).
pub const JOBS: usize = 2;

/// The quick calibration grid: up to this many demand levels (saturated
/// ones are dropped) ...
const QUICK_DEMAND_LEVELS: usize = 10;
/// ... under exactly this many external pressure levels.
const QUICK_EXTERNAL_LEVELS: usize = 15;

/// Operations attempted and failed over a run.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose call errored or panicked, or whose check failed.
    pub failed: u64,
}

impl Tally {
    /// Runs one operation, counting an `Err` or a panic as a failure.
    pub fn op<T>(&mut self, what: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        let outcome =
            catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| Err("panicked".to_owned()));
        match outcome {
            Ok(value) => Some(value),
            Err(e) => {
                self.failed += 1;
                eprintln!("FAILED {what}: {e}");
                None
            }
        }
    }
}

/// What one pass produced.
#[derive(Debug, Default)]
pub struct PassOutput {
    /// The pass's results serialized to JSON, concatenated in call order;
    /// identical across passes of one run.
    pub results: String,
    /// (sim) Mean PCCS prediction error, percentage points.
    pub pred_mae_pct: f64,
    /// (sim) Mean Fig 14 PCCS error over the CPU, GPU and DLA mixes.
    pub fig14_mae_pct: f64,
    /// Host-timed steps of the pass (`calib.sweep_s`, `repro.fig6_s`, …)
    /// and deterministic step counts (`calib.cells`).
    pub steps: Vec<(String, f64)>,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The three Xavier PCCS models from quick calibration sweeps.
    CalibContended,
    /// All 18 `repro` experiments at quick fidelity on a fresh context.
    ReproQuick,
}

/// What a pass needs that is built once per run.
#[derive(Debug)]
pub struct State {
    soc: SocConfig,
    calib: CalibrationConfig,
    /// (target PU, pressure PU) in calibration order.
    targets: Vec<(usize, usize)>,
}

impl State {
    /// The set-up both workloads share: the Xavier preset, the quick
    /// calibration configuration on [`JOBS`] threads and the calibration
    /// targets. It takes a fraction of a microsecond; neither workload has
    /// more to set up.
    pub fn setup() -> Self {
        let soc = SocConfig::xavier();
        let pu = |name: &str| soc.pu_index(name).expect("Xavier has CPU, GPU and DLA");
        let (cpu, gpu, dla) = (pu("CPU"), pu("GPU"), pu("DLA"));
        Self {
            calib: CalibrationConfig {
                threads: JOBS,
                ..CalibrationConfig::quick()
            },
            // The paper's convention: the CPU under GPU pressure, every
            // other PU under CPU pressure.
            targets: vec![(cpu, gpu), (gpu, cpu), (dla, cpu)],
            soc,
        }
    }
}

impl Workload {
    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "calib_contended" => Some(Self::CalibContended),
            "repro_quick" => Some(Self::ReproQuick),
            _ => None,
        }
    }

    /// Name as in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Self::CalibContended => NAMES[0],
            Self::ReproQuick => NAMES[1],
        }
    }

    /// Which memory engine runs which part of a pass, read from the call
    /// sites: `calibrate::sweep` builds `CoRunSim::new`, whose default
    /// configuration is the cycle engine, whatever `Context::engine` says.
    pub fn engines(self) -> &'static str {
        match self {
            Self::CalibContended => "cycle (all calibration co-runs)",
            Self::ReproQuick => {
                "event (fig8-12 validation co-runs, Context standalone profiles); \
                 cycle (model calibration sweeps, fig2/3/14, table9, oblivious, \
                 sched/serve study probes)"
            }
        }
    }

    /// The co-run measurement configuration of this workload's
    /// calibration cells.
    fn cell_config(self, state: &State) -> CoRunConfig {
        match self {
            Self::CalibContended => CoRunConfig::default()
                .with_horizon(state.calib.horizon)
                .with_repeats(state.calib.repeats),
            Self::ReproQuick => Context::new(Quality::Quick).corun_config(),
        }
    }

    /// Runs one calibration cell on both memory engines and requires
    /// identical memory statistics, completions and per-PU rates.
    pub fn parity(
        self,
        state: &State,
        target: usize,
        pressure: usize,
        demand_gbps: f64,
        external_gbps: f64,
    ) -> Result<(), String> {
        let kernel = calibrate::calibrator_kernel(&state.soc, target, demand_gbps);
        let run = |engine: EngineKind| {
            let mut sim =
                CoRunSim::with_config(&state.soc, self.cell_config(state).with_engine(engine));
            sim.place(Placement::kernel(target, kernel.clone()));
            sim.external_pressure(pressure, external_gbps);
            sim.execute()
        };
        let (cycle, event) = (run(EngineKind::Cycle), run(EngineKind::Event));
        let cell = format!("PU{target} at {demand_gbps:.1} GB/s under {external_gbps:.1} GB/s");
        if cycle.memory.stats != event.memory.stats {
            return Err(format!("memory stats differ between engines on {cell}"));
        }
        if cycle.memory.completed != event.memory.completed || cycle.per_pu != event.per_pu {
            return Err(format!(
                "completions or rates differ between engines on {cell}"
            ));
        }
        Ok(())
    }

    /// A calibration cell drawn from `seed`: (target, pressure, demand,
    /// external) on the quick grid.
    pub fn seeded_cell(state: &State, seed: u64) -> (usize, usize, f64, f64) {
        let mut x = seed;
        let mut next = |n: u64| splitmix64(&mut x) % n;
        let (target, pressure) = state.targets[next(state.targets.len() as u64) as usize];
        let peak = state.soc.peak_bw_gbps();
        let demand = peak * 0.11 * (1 + next(10)) as f64;
        let external = peak / 15.0 * (1 + next(15)) as f64;
        (target, pressure, demand, external)
    }

    /// One timed pass.
    pub fn pass(self, state: &State, tally: &mut Tally) -> PassOutput {
        match self {
            Self::CalibContended => calib_pass(state, tally),
            Self::ReproQuick => repro_pass(tally),
        }
    }
}

/// splitmix64: a tiny, well-mixed generator for seeded choices.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn json<T: serde::Serialize>(value: &T) -> Result<String, String> {
    serde_json::to_string(value).map_err(|e| format!("serialize: {e}"))
}

fn finite_parameters(m: &PccsModel) -> bool {
    [
        m.normal_bw,
        m.intensive_bw,
        m.cbp,
        m.tbwdc,
        m.rate_n,
        m.peak_bw,
    ]
    .into_iter()
    .chain(m.mrmc)
    .all(f64::is_finite)
}

fn calib_pass(state: &State, tally: &mut Tally) -> PassOutput {
    let mut out = PassOutput::default();
    let (mut sweep_s, mut build_s, mut predict_s) = (0.0, 0.0, 0.0);
    let mut cells = 0usize;
    let mut errors = Vec::new();
    for &(target, pressure) in &state.targets {
        let pu = state.soc.pus[target].name.clone();
        tally.op(&format!("calibrate {pu}"), || {
            let t = Instant::now();
            let data = {
                let _span = Profiler::scope("bench.calib.sweep");
                calibrate::sweep(&state.soc, target, pressure, &state.calib)
            }
            .map_err(|e| format!("sweep: {e}"))?;
            sweep_s += t.elapsed().as_secs_f64();
            let peak = state.soc.peak_bw_gbps();
            if data.cols() != QUICK_EXTERNAL_LEVELS
                || data.rows() > QUICK_DEMAND_LEVELS
                || data.peak_bw != peak
            {
                return Err(format!(
                    "calibration data is {}x{} at peak {} GB/s, not within the quick grid \
                     ({QUICK_DEMAND_LEVELS}x{QUICK_EXTERNAL_LEVELS} at {peak} GB/s)",
                    data.rows(),
                    data.cols(),
                    data.peak_bw
                ));
            }
            cells += data.rows() * data.cols();

            let t = Instant::now();
            let model = {
                let _span = Profiler::scope("bench.core.build");
                ModelBuilder::new(data.clone()).build()
            }
            .map_err(|e| format!("build: {e}"))?;
            build_s += t.elapsed().as_secs_f64();
            if !finite_parameters(&model) {
                return Err(format!("non-finite model parameter: {model:?}"));
            }

            // In-sample fit: the model at every calibration cell.
            let t = Instant::now();
            let mut abs_err = 0.0;
            {
                let _span = Profiler::scope("bench.core.predict");
                for (row, &x) in data.rela.iter().zip(&data.std_bw) {
                    for (&measured, &y) in row.iter().zip(&data.ext_bw) {
                        abs_err += (std::hint::black_box(model.predict(x, y)) - measured).abs();
                    }
                }
            }
            predict_s += t.elapsed().as_secs_f64();
            errors.push(abs_err / (data.rows() * data.cols()) as f64);
            out.results.push_str(&json(&model)?);
            out.results.push_str(&json(&data)?);
            Ok(())
        });
    }
    out.pred_mae_pct = mean(&errors);
    out.steps = vec![
        ("calib.sweep_s".to_owned(), sweep_s),
        ("calib.cells".to_owned(), cells as f64),
        ("core.build_ms".to_owned(), build_s * 1e3),
        (
            "core.predict_ns".to_owned(),
            predict_s * 1e9 / cells.max(1) as f64,
        ),
    ];
    out
}

/// One experiment's serialized result plus the headline errors the
/// benchmark reports.
struct ExpOut {
    json: String,
    validation_err: Option<f64>,
    fig14_err: Option<f64>,
}

impl ExpOut {
    fn plain<T: serde::Serialize>(r: pccs_experiments::error::Result<T>) -> Result<Self, String> {
        let value = r.map_err(|e| e.to_string())?;
        Ok(Self {
            json: json(&value)?,
            validation_err: None,
            fig14_err: None,
        })
    }

    fn validation(ctx: &mut Context, figure: Figure) -> Result<Self, String> {
        let v = validate::run(ctx, figure).map_err(|e| e.to_string())?;
        Ok(Self {
            json: json(&v)?,
            validation_err: Some(v.avg_pccs_error()),
            fig14_err: None,
        })
    }
}

fn run_experiment(ctx: &mut Context, name: &str) -> Result<ExpOut, String> {
    match name {
        "fig2" => ExpOut::plain(fig2::run(ctx)),
        "fig3" => ExpOut::plain(fig3::run(ctx)),
        "fig5" => ExpOut::plain(fig5::run(ctx)),
        "fig6" => ExpOut::plain(fig6::run(ctx)),
        "table5" => ExpOut::plain(table5::run(ctx)),
        "table7" => ExpOut::plain(table7::run(ctx)),
        "fig8" => ExpOut::validation(ctx, Figure::XavierGpu),
        "fig9" => ExpOut::validation(ctx, Figure::XavierCpu),
        "fig10" => ExpOut::validation(ctx, Figure::SnapdragonGpu),
        "fig11" => ExpOut::validation(ctx, Figure::SnapdragonCpu),
        "fig12" => ExpOut::validation(ctx, Figure::XavierDla),
        "fig13" => ExpOut::plain(fig13::run(ctx)),
        "fig14" => {
            let f = fig14::run(ctx).map_err(|e| e.to_string())?;
            let errs: Vec<f64> = ["CPU", "GPU", "DLA"]
                .iter()
                .map(|pu| f.avg_error(pu, ModelChoice::Pccs))
                .collect();
            Ok(ExpOut {
                json: json(&f)?,
                validation_err: None,
                fig14_err: Some(mean(&errs)),
            })
        }
        "table9" => ExpOut::plain(table9::run(ctx)),
        "table10" => ExpOut::plain(table10::run(ctx)),
        "oblivious" => ExpOut::plain(oblivious::run(ctx)),
        "sched" => ExpOut::plain(sched_study::run(ctx)),
        "serve" => ExpOut::plain(serve_study::run(ctx)),
        other => Err(format!("unknown experiment {other}")),
    }
}

fn repro_pass(tally: &mut Tally) -> PassOutput {
    let mut out = PassOutput::default();
    let mut ctx = Context::new(Quality::Quick).with_jobs(JOBS);
    let mut validation = Vec::new();
    for name in EXPERIMENTS {
        let t = Instant::now();
        let result = tally.op(name, || {
            let _span = Profiler::scope(&format!("bench.repro.{name}"));
            run_experiment(&mut ctx, name)
        });
        out.steps
            .push((format!("repro.{name}_s"), t.elapsed().as_secs_f64()));
        if let Some(r) = result {
            out.results.push_str(&r.json);
            validation.extend(r.validation_err);
            if let Some(e) = r.fig14_err {
                out.fig14_mae_pct = e;
            }
        }
    }
    out.pred_mae_pct = mean(&validation);
    out
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_counts_errors_and_panics() {
        let mut t = Tally::default();
        assert_eq!(t.op("ok", || Ok(3)), Some(3));
        assert_eq!(t.op("err", || Err::<(), _>("no".to_owned())), None);
        assert_eq!(
            t.op("panic", || -> Result<(), String> { panic!("boom") }),
            None
        );
        assert_eq!((t.attempted, t.failed), (3, 2));
    }

    #[test]
    fn seeded_cells_repeat_and_stay_on_the_grid() {
        let state = State {
            soc: SocConfig::xavier(),
            calib: CalibrationConfig::quick(),
            targets: vec![(0, 1), (1, 0)],
        };
        let peak = state.soc.peak_bw_gbps();
        for seed in 0..20 {
            let a = Workload::seeded_cell(&state, seed);
            assert_eq!(a, Workload::seeded_cell(&state, seed));
            assert!(a.2 > 0.0 && a.2 <= 1.1 * peak + 1e-9);
            assert!(a.3 > 0.0 && a.3 <= peak + 1e-9);
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for name in NAMES {
            assert_eq!(Workload::parse(name).map(Workload::name), Some(*name));
        }
        assert_eq!(Workload::parse("serve_pccs"), None);
    }
}
