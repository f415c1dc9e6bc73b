//! What the process and the machine report about themselves: memory and
//! CPU from `/proc/self`, and the machine descriptor printed in the header.

/// One `Key: value` field of `/proc/self/status`, as its first number.
fn status_field(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    status_field("VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// Voluntary context switches of the calling thread (the generator):
/// every join of a worker it waits for adds one.
pub fn voluntary_switches() -> u64 {
    status_field("voluntary_ctxt_switches").unwrap_or(0)
}

/// User plus system CPU seconds of the whole process, all threads
/// (including ones already joined), from `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    // Linux reports these in USER_HZ, which is 100 on every mainstream
    // architecture.
    const TICKS_PER_S: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    (ticks(11) + ticks(12)) as f64 / TICKS_PER_S
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn read_trim(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// The machine descriptor: `(key, value)` pairs for the run header.
pub fn machine() -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find_map(|l| l.strip_prefix("model name")?.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let cache = |idx: u32| {
        read_trim(&format!(
            "/sys/devices/system/cpu/cpu0/cache/index{idx}/size"
        ))
        .unwrap_or_else(|| "unknown".to_string())
    };
    vec![
        ("nproc", nproc().to_string()),
        ("cpu", cpu),
        ("l2", cache(2)),
        ("l3", cache(3)),
        ("rustc", env!("DYBENCH_RUSTC").to_string()),
        ("profile", env!("DYBENCH_PROFILE").to_string()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_sane_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mib() > 0.0);
            assert!(cpu_seconds() >= 0.0);
        }
        let m = machine();
        assert_eq!(m[0], ("nproc", nproc().to_string()));
        assert!(m.iter().any(|(k, _)| *k == "rustc"));
    }
}
