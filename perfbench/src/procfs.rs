//! Std-only readers for the Linux `/proc` counters the harness reports:
//! process CPU time, resident-set sizes, host steal, and run-queue delay.
//! Each parser takes the file's text so it can be tested on fixed input.

use std::fs;

/// Clock ticks per second of `/proc/<pid>/stat` and `/proc/stat` (Linux
/// `USER_HZ`, 100 on every mainstream architecture).
pub const TICKS_PER_SEC: f64 = 100.0;

/// User + system CPU ticks of all threads (live and exited) of a process,
/// from the text of `/proc/<pid>/stat`.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    // The command name may contain spaces and parentheses: fields resume
    // after the last ')'. From there, field 3 (state) is index 0, so
    // utime (14) and stime (15) are indices 11 and 12.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// A `kB` field (`VmHWM`, `VmRSS`, ...) of `/proc/<pid>/status`, in kB.
pub fn parse_status_kb(status: &str, field: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(field)?.strip_prefix(':')?;
        value.split_whitespace().next()?.parse().ok()
    })
}

/// `(total, steal)` ticks of the aggregate `cpu` line of `/proc/stat`.
/// The total covers user..steal (guest time is already inside user).
pub fn parse_steal(proc_stat: &str) -> Option<(u64, u64)> {
    let line = proc_stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> =
        line.split_whitespace().skip(1).take(8).map(|t| t.parse().ok()).collect::<Option<_>>()?;
    (ticks.len() == 8).then(|| (ticks.iter().sum(), ticks[7]))
}

/// `(on_cpu_ns, runqueue_wait_ns)` from `/proc/<pid>/schedstat`.
pub fn parse_schedstat(text: &str) -> Option<(u64, u64)> {
    let mut it = text.split_whitespace().map(|t| t.parse::<u64>().ok());
    Some((it.next()??, it.next()??))
}

fn read(path: &str) -> Option<String> {
    fs::read_to_string(path).ok()
}

/// CPU milliseconds a process has used so far (`pid` may be `"self"`).
pub fn cpu_ms(pid: &str) -> Option<f64> {
    let ticks = parse_cpu_ticks(&read(&format!("/proc/{pid}/stat"))?)?;
    Some(ticks as f64 * 1e3 / TICKS_PER_SEC)
}

/// A `/proc/<pid>/status` field in MB.
pub fn status_mb(pid: &str, field: &str) -> Option<f64> {
    Some(parse_status_kb(&read(&format!("/proc/{pid}/status"))?, field)? as f64 / 1024.0)
}

/// Resident set size of this process in kB (sampled at span boundaries).
pub fn self_rss_kb() -> u64 {
    read("/proc/self/status").and_then(|s| parse_status_kb(&s, "VmRSS")).unwrap_or(0)
}

/// Host-wide `(total, steal)` ticks right now.
pub fn host_steal() -> Option<(u64, u64)> {
    parse_steal(&read("/proc/stat")?)
}

/// Share of host CPU time stolen between two [`host_steal`] readings.
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((t0, s0)), Some((t1, s1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

/// This process's main-thread run-queue wait so far, in milliseconds.
pub fn self_runqueue_ms() -> f64 {
    read("/proc/self/schedstat")
        .and_then(|s| parse_schedstat(&s))
        .map_or(0.0, |(_, w)| w as f64 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_skip_a_command_name_with_spaces() {
        let stat = "4242 (my (odd) prog) S 1 4242 4242 0 -1 4194304 100 0 0 0 \
                    250 37 0 0 20 0 3 0 12345 1000000 500 18446744073709551615";
        assert_eq!(parse_cpu_ticks(stat), Some(287));
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }

    #[test]
    fn status_fields_in_kb() {
        let status = "Name:\tautocomm\nVmPeak:\t  900000 kB\nVmHWM:\t  716800 kB\n\
                      VmRSS:\t  512000 kB\nThreads:\t3\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(716_800));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(512_000));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
    }

    #[test]
    fn steal_from_the_aggregate_cpu_line() {
        let text = "cpu  100 5 50 800 10 0 5 30 7 0\ncpu0 50 2 25 400 5 0 2 15 3 0\nintr 1\n";
        assert_eq!(parse_steal(text), Some((1000, 30)));
        let share = steal_share(Some((1000, 30)), Some((2000, 130)));
        assert!((share - 0.1).abs() < 1e-12);
        assert_eq!(steal_share(None, Some((1, 1))), 0.0);
        assert_eq!(parse_steal("cpu  1 2\n"), None);
    }

    #[test]
    fn schedstat_run_and_wait() {
        assert_eq!(parse_schedstat("123456789 2500000 42\n"), Some((123_456_789, 2_500_000)));
        assert_eq!(parse_schedstat(""), None);
    }

    #[test]
    fn live_proc_files_parse() {
        assert!(cpu_ms("self").is_some());
        assert!(status_mb("self", "VmHWM").unwrap() > 0.0);
        assert!(self_rss_kb() > 0);
        assert!(host_steal().is_some());
    }
}
