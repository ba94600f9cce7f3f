//! Sample statistics, process counters and the host calibration loop.

use std::time::Instant;

/// Samples a tail percentile needs beyond it before it is reported.
pub const TAIL_BEYOND: usize = 10;

/// Value at percentile `p` (0..=100) of `samples` by the nearest-rank rule:
/// the `⌈p·n/100⌉`-th smallest sample. `None` for an empty slice.
pub fn percentile(samples: &[f64], p: usize) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len()).div_ceil(100);
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of `samples` (lower middle for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50)
}

/// The percentile the tail rule reports for `n` samples: the highest one up
/// to p99 that still has at least [`TAIL_BEYOND`] samples beyond it, and
/// never below the median. p99 needs 1000 samples; with 20 or fewer the
/// rule falls back to the median.
pub fn tail_percentile(n: usize) -> usize {
    (51..=99)
        .rev()
        .find(|&p| n - (p * n).div_ceil(100) >= TAIL_BEYOND)
        .unwrap_or(50)
}

/// Tail latency of `samples` under [`tail_percentile`].
pub fn tail(samples: &[f64]) -> Option<f64> {
    percentile(samples, tail_percentile(samples.len()))
}

/// Arithmetic mean; `None` for an empty slice.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// User + system CPU seconds this process has used so far, threads that
/// already exited included (`/proc/self/stat` fields 14 and 15, counted in
/// the kernel's fixed 100 Hz user-visible tick).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis, at field 3.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> f64 { fields[i - 3].parse::<f64>().expect("numeric stat field") };
    (ticks(14) + ticks(15)) / 100.0
}

/// CPU seconds the hypervisor has taken from the virtual CPUs so
/// far, summed over them (`steal` of the `cpu` line in `/proc/stat`; 0 on
/// bare metal). A `Parallel(2)` solve waits at every fork-join barrier for
/// whichever CPU was taken, so steal bursts stretch wall-clock far more
/// than CPU time.
pub fn host_steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
    let cpu = stat.lines().next().expect("aggregate cpu line");
    cpu.split_whitespace()
        .nth(8)
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// High-water resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Milliseconds one fixed single-thread integer loop takes, five times.
/// The work never changes, so these numbers move only with the host; they
/// sit next to every sample to tell host drift from a regression.
pub fn host_calibration_ms() -> Vec<f64> {
    (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            let mut acc = 0u64;
            for _ in 0..20_000_000u32 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                acc = acc.wrapping_add(x);
            }
            std::hint::black_box(acc);
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50), Some(5.0));
        assert_eq!(percentile(&xs, 90), Some(9.0));
        assert_eq!(percentile(&xs, 100), Some(10.0));
        assert_eq!(percentile(&xs, 0), Some(1.0));
        assert_eq!(percentile(&[], 50), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond_the_reported_percentile() {
        // p99 only once 1000 samples leave ten beyond it.
        assert_eq!(tail_percentile(1000), 99);
        assert_eq!(tail_percentile(5000), 99);
        assert_eq!(tail_percentile(999), 98);
        assert_eq!(tail_percentile(500), 98);
        assert_eq!(tail_percentile(499), 97);
        assert_eq!(tail_percentile(100), 90);
        // Twenty or fewer samples: nothing above the median qualifies.
        assert_eq!(tail_percentile(20), 50);
        assert_eq!(tail_percentile(6), 50);
        assert_eq!(tail_percentile(0), 50);
        for n in 21..3000 {
            let p = tail_percentile(n);
            let beyond = n - (p * n).div_ceil(100);
            assert!(beyond >= TAIL_BEYOND, "n={n}: p{p} leaves {beyond}");
            if p < 99 {
                let next = n - ((p + 1) * n).div_ceil(100);
                assert!(next < TAIL_BEYOND, "n={n}: p{} also qualifies", p + 1);
            }
        }
    }

    #[test]
    fn tail_of_a_ramp() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs), Some(990.0));
        let few: Vec<f64> = (1..=7).map(f64::from).collect();
        assert_eq!(tail(&few), median(&few));
    }

    #[test]
    fn process_counters_are_readable() {
        assert!(process_cpu_s() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
