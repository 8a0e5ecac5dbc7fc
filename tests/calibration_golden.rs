//! Golden pin of the calibration step (§3.2): the serialized
//! `CalibrationData` of `calibrate::sweep` on a small Xavier grid must not
//! change by a single bit.
//!
//! The engine-parity tests compare two memory engines that share one
//! scheduler, so they cannot see a change in scheduling semantics; this
//! test can. Every sweep cell is seeded, so the output is deterministic at
//! any thread count.
//!
//! When the test fails it writes what it measured next to the build
//! artifacts and names the file. If a change of results is intended,
//! review that file and copy it over the golden.

use pccs_soc::soc::SocConfig;
use pccs_workloads::calibrate::{self, CalibrationConfig};
use std::path::Path;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/calibration_xavier_small.json"
);

/// Serializes the three Xavier sweeps — the CPU under GPU pressure, the
/// GPU and the DLA under CPU pressure — on a 3 × 3 grid.
fn sweeps() -> String {
    let soc = SocConfig::xavier();
    let pu = |name: &str| soc.pu_index(name).expect("Xavier has CPU, GPU and DLA");
    let (cpu, gpu, dla) = (pu("CPU"), pu("GPU"), pu("DLA"));
    let peak = soc.peak_bw_gbps();
    let cfg = CalibrationConfig {
        demands_gbps: vec![0.1 * peak, 0.3 * peak, 0.6 * peak],
        external_gbps: vec![0.2 * peak, 0.5 * peak, 0.9 * peak],
        horizon: 6_000,
        repeats: 1,
        threads: 2,
    };
    let mut out = String::new();
    for (target, pressure) in [(cpu, gpu), (gpu, cpu), (dla, cpu)] {
        let data = calibrate::sweep(&soc, target, pressure, &cfg).expect("sweep validates");
        out.push_str(&serde_json::to_string_pretty(&data).expect("serializes"));
        out.push('\n');
    }
    out
}

#[test]
fn small_xavier_sweep_matches_golden() {
    let actual = sweeps();
    let golden = std::fs::read_to_string(GOLDEN).unwrap_or_default();
    if actual != golden {
        let dump = Path::new(env!("CARGO_TARGET_TMPDIR")).join("calibration_xavier_small.json");
        std::fs::write(&dump, &actual).expect("writes the measured sweep");
        panic!(
            "calibration sweep differs from {GOLDEN}; measured output written to {}",
            dump.display()
        );
    }
}
