//! The benchmark's one wall clock, plus the process CPU and memory readers.

use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

fn epoch() -> Instant {
    // htd-lint: allow(determinism): the benchmark times the library from outside; no detection verdict reads this clock
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process's first clock read (monotonic).
pub fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Seconds since the process's first clock read (monotonic).
pub fn now_s() -> f64 {
    epoch().elapsed().as_secs_f64()
}

/// Clock ticks per second of the `utime`/`stime` fields of `/proc/self/stat`
/// (`USER_HZ`, fixed at 100 by the Linux user-space ABI).
const USER_HZ: f64 = 100.0;

/// User plus system CPU time of the whole process (every thread, live or
/// exited), in milliseconds.
pub fn process_cpu_ms() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    // The command name (field 2) may contain spaces; fields after it are
    // plain numbers.  utime and stime are fields 14 and 15.
    let after = stat
        .rfind(')')
        .map(|i| &stat[i + 1..])
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = after.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| "malformed /proc/self/stat".to_owned())
    };
    // Field 3 (state) is fields[0] here, so field n is fields[n - 3].
    Ok((tick(11)? + tick(12)?) * 1000.0 / USER_HZ)
}

/// The process's high-water resident set size (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}
