//! Percentiles and process resource readers (std only, Linux `/proc`).

use std::time::Instant;

/// Nearest-rank percentile of `xs` (`p` in 0..=1); 0 for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = (p * v.len() as f64).ceil() as usize;
    v[idx.clamp(1, v.len()) - 1]
}

/// Median (nearest rank).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Clock ticks per second of `/proc/<pid>/stat` CPU fields. The kernel
/// exports `USER_HZ`, which is 100 on every Linux ABI this runs on.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds this process has consumed, all threads.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line, i.e. 12 and 13 after it.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / USER_HZ
}

/// Peak resident set of this process (`VmHWM`), MiB. Every workload runs
/// in its own process, so the peak is the workload's own.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Ticks the hypervisor stole from this machine's CPUs, and all ticks,
/// summed over every CPU (`/proc/stat`); zero where they are not reported.
pub fn host_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let f: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    (f.get(7).copied().unwrap_or(0), f.iter().sum())
}

/// Host cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}
