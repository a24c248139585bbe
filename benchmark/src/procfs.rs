//! Process-level counters from `/proc/self`: CPU time, context switches,
//! thread count, resident set. Linux only; every reader returns zeros
//! elsewhere rather than failing the run.

use std::fs;

/// A snapshot of the process's cumulative counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSnapshot {
    /// User + system CPU time, µs (clock-tick granularity, 10 ms).
    pub cpu_us: u64,
    /// Voluntary + involuntary context switches, summed over live threads.
    pub ctx_switches: u64,
    /// Live threads.
    pub threads: u64,
    /// Resident set now, bytes.
    pub rss_bytes: u64,
    /// Peak resident set (`VmHWM`), bytes.
    pub peak_rss_bytes: u64,
}

fn status_field(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.trim_start_matches(':').split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Reads the counters now.
pub fn snapshot() -> ProcSnapshot {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    // Fields 14 and 15 of /proc/self/stat (utime, stime) in clock ticks;
    // the comm field may hold spaces, so count from the closing paren.
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let ticks: u64 = stat
        .rsplit_once(')')
        .map(|(_, rest)| {
            rest.split_whitespace()
                .skip(11)
                .take(2)
                .filter_map(|v| v.parse::<u64>().ok())
                .sum()
        })
        .unwrap_or(0);
    let mut ctx_switches = 0;
    if let Ok(tasks) = fs::read_dir("/proc/self/task") {
        for t in tasks.flatten() {
            let s = fs::read_to_string(t.path().join("status")).unwrap_or_default();
            ctx_switches += status_field(&s, "voluntary_ctxt_switches")
                + status_field(&s, "nonvoluntary_ctxt_switches");
        }
    }
    ProcSnapshot {
        // USER_HZ is 100 on every Linux ABI.
        cpu_us: ticks * 10_000,
        ctx_switches,
        threads: status_field(&status, "Threads"),
        rss_bytes: status_field(&status, "VmRSS") * 1024,
        peak_rss_bytes: status_field(&status, "VmHWM") * 1024,
    }
}

/// Online CPUs (`nproc`), for the header.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields_parse() {
        let s = "Name:\tx\nVmHWM:\t  1234 kB\nThreads:\t7\nvoluntary_ctxt_switches:\t42\n";
        assert_eq!(status_field(s, "VmHWM"), 1234);
        assert_eq!(status_field(s, "Threads"), 7);
        assert_eq!(status_field(s, "voluntary_ctxt_switches"), 42);
        assert_eq!(status_field(s, "Missing"), 0);
    }

    #[test]
    fn snapshot_reads_this_process() {
        let p = snapshot();
        if cfg!(target_os = "linux") {
            assert!(p.threads >= 1);
            assert!(p.peak_rss_bytes >= p.rss_bytes && p.rss_bytes > 0);
        }
    }
}
