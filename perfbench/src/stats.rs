//! Order statistics over repeated timings and deltas of the metrics
//! registry around one pass.

use std::collections::BTreeMap;

/// Registry names that are high-watermark gauges: a pass reports their
/// value after the pass, not a difference.
pub const GAUGES: &[&str] = &["dram.queue.hwm", "serve.p99_latency", "sweep.workers"];

/// The median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller holds at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let sorted = sorted(values);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartiles, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method). A
/// single sample is its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let data = sorted(values);
    let ld = data.len();
    if ld == 1 {
        return (data[0], data[0]);
    }
    let n = 4;
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    };
    (cut(1), cut(3))
}

/// The nearest-rank `p`-th percentile (`p` in `[0, 100]`), or 0 for no
/// samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let data = sorted(values);
    let rank = ((p / 100.0) * data.len() as f64).ceil() as usize;
    data[rank.clamp(1, data.len()) - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    data
}

/// What one pass added to the registry: counters as `after - before`
/// (a name first registered during the pass counts from zero), gauges
/// (see [`GAUGES`]) as their value after the pass.
pub fn registry_delta(
    before: &BTreeMap<String, u64>,
    after: &BTreeMap<String, u64>,
) -> BTreeMap<String, u64> {
    after
        .iter()
        .map(|(name, &value)| {
            let delta = if GAUGES.contains(&name.as_str()) {
                value
            } else {
                value.saturating_sub(before.get(name).copied().unwrap_or(0))
            };
            (name.clone(), delta)
        })
        .collect()
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_single() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) -> [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) -> [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) -> [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 50.0), 50.0);
        assert_eq!(percentile(&hundred, 99.0), 99.0);
        assert_eq!(percentile(&[4.0], 99.0), 4.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn registry_delta_diffs_counters_and_keeps_gauges() {
        let before: BTreeMap<String, u64> = [("dram.cycles", 100), ("dram.queue.hwm", 7)]
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect();
        let after: BTreeMap<String, u64> =
            [("dram.cycles", 250), ("dram.queue.hwm", 9), ("sim.runs", 4)]
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect();
        let d = registry_delta(&before, &after);
        assert_eq!(d["dram.cycles"], 150);
        assert_eq!(d["dram.queue.hwm"], 9, "gauges report their watermark");
        assert_eq!(d["sim.runs"], 4, "a name new in the pass counts from zero");
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }
}
