//! Production-path benchmark of the PCCS workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <calib_contended|repro_quick> --seed <n> --seconds <n> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --describe
//! ```
//!
//! A run times its set-up in batches (the median per set-up is
//! `setup_s`), then runs timed passes with tracing off until `--seconds`
//! have passed (at least one), checks every output, and prints the
//! metrics. With `--trace 1` it first runs one pass under the profiler,
//! then its untraced reference passes (none if one would end after
//! [`TRACE_DEADLINE_S`], which leaves the reference metrics unmeasured and
//! fails the run), attributes the traced pass to the workspace's layers,
//! exports a Perfetto trace to `perfbench/out/` and reports the per-layer
//! metrics instead of the end-to-end ones. The last line of standard
//! output is the JSON result; the lines before it are the same numbers for
//! people. See `perfbench/README.md`.

mod catalog;
mod spans;
mod stats;
mod workloads;

use pccs_telemetry::{metrics, perfetto, ProfSpan, Profiler};
use spans::SpanTree;
use stats::{median, percentile, quartiles, ratio};
use std::collections::BTreeMap;
use std::time::Instant;
use workloads::{PassOutput, State, Tally, Workload, JOBS};

/// A run sets up repeatedly for this long (at least [`SETUP_MIN_BATCHES`]
/// batches): the host has fast and slow phases tens of milliseconds long,
/// and a window this wide spans several of them.
const SETUP_WINDOW_S: f64 = 0.5;

/// Fewest timed set-up batches in a run, however long one takes.
const SETUP_MIN_BATCHES: usize = 3;

/// Shortest batch that is timed: one set-up takes a fraction of a
/// microsecond, so the batch size doubles until a batch lasts this long.
const SETUP_BATCH_S: f64 = 1e-3;

/// Where traced runs write their Perfetto trace, relative to the checkout.
const OUT_DIR: &str = "perfbench/out";

/// Registry counters that depend on thread timing and may differ between
/// passes of the same code.
const TIMING_DEPENDENT: &[&str] = &["sweep.steals"];

/// A traced run skips an untraced reference pass that would end later than
/// this many seconds after set-up (the whole run must stay under 180 s).
const TRACE_DEADLINE_S: f64 = 150.0;

/// Per-layer metrics that passes report as host-timed steps or step counts.
const STEP_PREFIXES: &[&str] = &["calib.", "core.", "repro."];

const USAGE: &str = "usage: perfbench --workload <calib_contended|repro_quick> --seed <n> \
                     --seconds <n> --trace <0|1>\n       perfbench --describe";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// `Ok(None)` asks for the metric table.
fn parse_args(mut raw: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = raw.next() {
        if flag == "--describe" {
            return Ok(None);
        }
        let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} expects {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("a workload name"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("a non-negative number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    }))
}

/// One pass: its host time, outputs and registry delta.
struct Pass {
    wall_s: f64,
    output: PassOutput,
    counters: BTreeMap<String, u64>,
}

fn run_pass(workload: Workload, state: &State, tally: &mut Tally) -> Pass {
    let before = metrics::snapshot();
    let t = Instant::now();
    let output = workload.pass(state, tally);
    let wall_s = t.elapsed().as_secs_f64();
    Pass {
        wall_s,
        output,
        counters: stats::registry_delta(&before, &metrics::snapshot()),
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", catalog::describe());
            return;
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let workload = args.workload;
    let mut tally = Tally::default();

    let (state, setup_s) = time_setup();

    // A traced run starts with its traced pass, so it knows how long a pass
    // takes before it decides whether an untraced reference pass still fits.
    let started = Instant::now();
    let traced = args.trace.then(|| {
        Profiler::drain();
        Profiler::enable();
        let pass = {
            let _root = Profiler::scope(spans::ROOT);
            run_pass(workload, &state, &mut tally)
        };
        Profiler::disable();
        (pass, Profiler::drain())
    });
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        if let Some((traced_pass, _)) = &traced {
            let last = passes.last().unwrap_or(traced_pass).wall_s;
            if started.elapsed().as_secs_f64() + last > TRACE_DEADLINE_S {
                break;
            }
        }
        passes.push(run_pass(workload, &state, &mut tally));
        if started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }

    // Checks outside the timed region.
    let (target, pressure, demand, external) = Workload::seeded_cell(&state, args.seed);
    tally.op("engine parity (seeded cell)", || {
        workload.parity(&state, target, pressure, demand, external)
    });
    let all: Vec<&Pass> = passes.iter().chain(traced.iter().map(|(p, _)| p)).collect();
    if passes.is_empty() {
        println!(
            "# no untraced reference pass fitted in {TRACE_DEADLINE_S} s: \
             trace.overhead_pct and dram.mcycles_per_s are unmeasured"
        );
    }
    if all.len() == 1 {
        println!(
            "# one pass: nothing to compare within the run; runs of the same code \
             must repeat the fingerprints below"
        );
    }
    for other in &all[1..] {
        tally.op("results identical across passes", || {
            if other.output.results == all[0].output.results {
                Ok(())
            } else {
                Err("a pass produced different results".to_owned())
            }
        });
        tally.op("registry counters identical across passes", || {
            let differing: Vec<&String> = other
                .counters
                .iter()
                .filter(|(name, &v)| {
                    !TIMING_DEPENDENT.contains(&name.as_str())
                        && all[0].counters.get(*name) != Some(&v)
                })
                .map(|(name, _)| name)
                .collect();
            if differing.is_empty() {
                Ok(())
            } else {
                Err(format!("counters differ: {differing:?}"))
            }
        });
    }

    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let results = &all[0].output.results;
    let counters: String = all[0]
        .counters
        .iter()
        .filter(|(name, _)| !TIMING_DEPENDENT.contains(&name.as_str()))
        .map(|(name, value)| format!("{name}={value}\n"))
        .collect();
    println!(
        "# workload {}  seed {}  untraced passes {}  traced {}",
        workload.name(),
        args.seed,
        walls.len(),
        args.trace
    );
    println!("# memory engine: {}", workload.engines());
    println!(
        "# results: {} bytes, fnv1a64 {:016x}",
        results.len(),
        fnv1a64(results.as_bytes())
    );
    println!(
        "# registry counters: fnv1a64 {:016x}",
        fnv1a64(counters.as_bytes())
    );
    if !walls.is_empty() {
        let (q1, q3) = quartiles(&walls);
        println!(
            "# wall_s median {:.4} p25 {q1:.4} p75 {q3:.4} over {} passes",
            median(&walls),
            walls.len()
        );
        let pass_list: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
        println!("# pass walls: {}", pass_list.join(" "));
    }
    println!(
        "# fig14_mae_pct {} (repro_quick only)",
        all[0].output.fig14_mae_pct
    );

    let (catalogue, measured) = match &traced {
        Some((pass, spans)) => (
            catalog::per_layer(),
            per_layer(&mut tally, workload, args.seed, &passes, pass, spans),
        ),
        None => (
            catalog::end_to_end(),
            BTreeMap::from([
                ("wall_s".to_owned(), median(&walls)),
                ("setup_s".to_owned(), setup_s),
                ("peak_rss_mb".to_owned(), peak_rss_mb(&mut tally)),
                ("pred_mae_pct".to_owned(), all[0].output.pred_mae_pct),
            ]),
        ),
    };
    let value_of = |name: &str| measured.get(name).copied().unwrap_or(f64::NAN);
    tally.op(
        "every catalogued metric measured and finite",
        || match catalogue.iter().find(|m| !value_of(&m.name).is_finite()) {
            Some(m) => Err(format!("{} = {}", m.name, value_of(&m.name))),
            None => Ok(()),
        },
    );
    println!(
        "# failed_frac {} ({} of {} operations)",
        ratio(tally.failed as f64, tally.attempted as f64),
        tally.failed,
        tally.attempted
    );
    let mut body = Vec::new();
    for metric in &catalogue {
        let (name, unit, value) = (&metric.name, &metric.unit, value_of(&metric.name));
        println!("{:<16} {name:<28} {value:>18} {unit}", workload.name());
        let value = if value.is_finite() { value } else { 0.0 };
        body.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
}

/// Sets up in batches for [`SETUP_WINDOW_S`] and returns the state and the
/// median over batches of the host seconds per set-up.
fn time_setup() -> (State, f64) {
    let window = Instant::now();
    let mut state = None;
    let mut batch = 1;
    let mut per_setup = Vec::new();
    while per_setup.len() < SETUP_MIN_BATCHES || window.elapsed().as_secs_f64() < SETUP_WINDOW_S {
        let t = Instant::now();
        for _ in 0..batch {
            state = Some(std::hint::black_box(State::setup()));
        }
        let elapsed = t.elapsed().as_secs_f64();
        // The size is fixed by the first batch long enough to time, so a
        // fast phase later on is not left out.
        if per_setup.is_empty() && elapsed < SETUP_BATCH_S {
            batch *= 2;
        } else {
            per_setup.push(elapsed / batch as f64);
        }
    }
    (state.expect("at least one set-up"), median(&per_setup))
}

/// The per-layer metrics of a traced run, by name. Counters come from the
/// traced pass's registry delta; host times of steps are medians over the
/// `timed` (untraced) passes; span-derived numbers come from the traced
/// pass. Without an untraced pass the numbers that need one are NaN.
fn per_layer(
    tally: &mut Tally,
    workload: Workload,
    seed: u64,
    timed: &[Pass],
    traced: &Pass,
    spans: &[ProfSpan],
) -> BTreeMap<String, f64> {
    let count = |name: &str| traced.counters.get(name).copied().unwrap_or(0) as f64;
    let untraced_wall = if timed.is_empty() {
        f64::NAN
    } else {
        median(&timed.iter().map(|p| p.wall_s).collect::<Vec<_>>())
    };
    let tree = SpanTree::build(spans);
    let secs = |us: u64| us as f64 / 1e6;
    let durations = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| secs(s.dur_us))
            .collect()
    };
    let total_of = |prefix: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .map(|s| secs(s.dur_us))
            .sum()
    };
    let under_serve = |i: usize| {
        let mut at = tree.parent[i];
        while let Some(p) = at {
            if spans[p].name == "serve.run" {
                return true;
            }
            at = tree.parent[p];
        }
        false
    };

    let exec = durations("sim.execute");
    let exec_s: f64 = exec.iter().sum();
    let rep_s: f64 = durations("sim.rep").iter().sum();
    let (mut loop_self_s, mut probe_s, mut serve_reps) = (0.0, 0.0, 0.0);
    for (i, s) in spans.iter().enumerate() {
        if s.name == "serve.run" {
            loop_self_s += secs(tree.self_us[i]);
        }
        let parent_is_serve = tree.parent[i].is_some_and(|p| spans[p].name == "serve.run");
        if s.name == "sim.execute" && parent_is_serve {
            probe_s += secs(s.dur_us);
        }
        if s.name == "sim.rep" && under_serve(i) {
            serve_reps += 1.0;
        }
    }
    let root = spans.iter().find(|s| s.name == spans::ROOT);
    let pass_s = traced.wall_s;
    let sched = [
        count("dram.sched.idle"),
        count("dram.sched.bus_blocked"),
        count("dram.sched.no_candidate"),
        count("dram.sched.issued"),
    ];
    let row_total = count("dram.row.hits") + count("dram.row.misses") + count("dram.row.conflicts");
    let cache_total = count("profile_cache.hits") + count("profile_cache.misses");

    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    for name in [
        "dram.cycles",
        "dram.requests.served",
        "dram.sched.issued",
        "dram.sched.idle",
        "dram.sched.bus_blocked",
        "dram.sched.no_candidate",
        "dram.queue.hwm",
        "sim.runs",
        "sched.decisions",
        "serve.offered",
        "serve.admitted",
        "serve.completed",
        "serve.shed",
        "serve.missed",
        "serve.recalibrations",
        "profile_cache.hits",
        "profile_cache.misses",
        "sweep.cells",
        "sweep.steals",
    ] {
        m.insert(name.to_owned(), count(name));
    }
    let mut put = |name: &str, value: f64| {
        m.insert(name.to_owned(), value);
    };
    put("dram.idle_frac", ratio(sched[0], sched.iter().sum()));
    put(
        "dram.row_hit_frac",
        ratio(count("dram.row.hits"), row_total),
    );
    // NaN, not 0, without an untraced pass.
    put(
        "dram.mcycles_per_s",
        count("dram.cycles") / untraced_wall / 1e6,
    );
    put("soc.execute.calls", exec.len() as f64);
    put("soc.execute.s", exec_s);
    put("soc.execute.frac", ratio(exec_s, pass_s));
    put("soc.execute.p50_ms", percentile(&exec, 50.0) * 1e3);
    put("soc.execute.p99_ms", percentile(&exec, 99.0) * 1e3);
    put("sim.ns_per_cycle", ratio(rep_s * 1e9, count("dram.cycles")));
    put(
        "serve.sim_runs_per_request",
        ratio(serve_reps, count("serve.offered")),
    );
    put("serve.loop_self_s", loop_self_s);
    put("serve.probe_s", probe_s);
    put(
        "profile_cache.hit_frac",
        ratio(count("profile_cache.hits"), cache_total),
    );
    put(
        "sweep.busy_frac",
        ratio(total_of("cell."), JOBS as f64 * total_of("sweep.")),
    );
    put("fig14_mae_pct", traced.output.fig14_mae_pct);
    for (layer, us) in tree.layer_self_us(spans) {
        put(&format!("layer.{layer}.self_s"), secs(us));
    }
    put("trace.pass_s", pass_s);
    put(
        "trace.unattributed_s",
        root.map_or(pass_s, |r| secs(spans::uncovered_us(r, spans))),
    );
    put(
        "trace.overhead_pct",
        100.0 * (pass_s - untraced_wall) / untraced_wall,
    );
    put("trace.spans", spans.len() as f64);
    // Step timings and counts: medians over the untraced passes.
    let mut steps: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for pass in timed {
        for (name, value) in &pass.output.steps {
            steps.entry(name).or_default().push(*value);
        }
    }
    for metric in catalog::per_layer() {
        if let Some(values) = steps.get(metric.name.as_str()) {
            m.insert(metric.name, median(values));
        } else if STEP_PREFIXES.iter().any(|p| metric.name.starts_with(p)) {
            // A step of the other workload (calib.* on repro_quick) reads
            // 0; with no untraced pass every step is unmeasured.
            let value = if timed.is_empty() { f64::NAN } else { 0.0 };
            m.insert(metric.name, value);
        }
    }
    let clamped = export_trace(tally, workload, seed, spans);
    m.insert("trace.clamped_spans".to_owned(), clamped as f64);
    m
}

/// Writes the traced pass as a Perfetto trace (with the registry as
/// counter tracks) and checks it with `perfetto::check_trace`. Returns how
/// many spans had to be cut back by a microsecond to nest in their parent
/// (see [`spans::clamp_to_parents`]).
fn export_trace(tally: &mut Tally, workload: Workload, seed: u64, spans: &[ProfSpan]) -> u64 {
    let counters = perfetto::counters_from_snapshot(&metrics::snapshot(), Profiler::now_us());
    // The spans as the profiler recorded them, so its rounding defect stays
    // visible; only the clamped export below counts as a check.
    match perfetto::check_trace(&perfetto::trace_json(spans, &counters)) {
        Ok(_) => println!("# trace: the unclamped export passes check_trace"),
        Err(e) => println!("# trace: the unclamped export fails check_trace: {e}"),
    }
    let (spans, clamped) = spans::clamp_to_parents(spans);
    if clamped > 0 {
        println!("# trace: {clamped} spans overran their parent by 1 us (profiler rounding)");
    }
    tally.op("perfetto trace export", || {
        let text = perfetto::trace_json(&spans, &counters);
        let shape = perfetto::check_trace(&text)?;
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
        let path = format!("{OUT_DIR}/trace-{}-{seed}.json", workload.name());
        std::fs::write(&path, text).map_err(|e| format!("{path}: {e}"))?;
        println!("# trace: {path} ({shape:?})");
        Ok(())
    });
    clamped
}

/// Peak resident memory of this process, from `VmHWM` in
/// `/proc/self/status`.
fn peak_rss_mb(tally: &mut Tally) -> f64 {
    tally
        .op("read peak RSS", || {
            let status = std::fs::read_to_string("/proc/self/status")
                .map_err(|e| format!("/proc/self/status: {e}"))?;
            let kb: f64 = status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
                .ok_or("no VmHWM line")?;
            Ok(kb / 1024.0)
        })
        .unwrap_or(f64::NAN)
}

/// FNV-1a, 64-bit: a short fingerprint of the results for the report.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Option<Args>, String> {
        parse_args(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload repro_quick --seed 7 --seconds 10 --trace 1")
            .expect("valid")
            .expect("not describe");
        assert_eq!(a.workload, Workload::ReproQuick);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(args("--describe").expect("valid").is_none());
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload repro_quick --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload repro_quick --seed 1 --seconds 1").is_err());
        assert!(args("--workload repro_quick --seed -1 --seconds 1 --trace 0").is_err());
        assert!(args("--bogus 1").is_err());
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
