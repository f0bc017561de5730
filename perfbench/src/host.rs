//! What the numbers were measured on, and the process-level readings
//! (`/proc/self`) behind `peak_rss_mb` and `cpu.util`.

use flight_bench::run::HostEnv;

/// The host and fidelity block printed with every run, so a later
/// claim can name the machine and inputs behind it.
pub fn host_block(seed: u64) -> Vec<(String, String)> {
    let env = HostEnv::detect();
    vec![
        ("nproc".into(), env.logical_cores.to_string()),
        ("cpu_model".into(), env.cpu_model),
        ("cpu_features".into(), env.cpu_features),
        // The engaged lane/remnant split is not observable from outside
        // the engine, so this is the path forwards *request*.
        ("requested_path".into(), env.kernel_dispatch),
        ("git_describe".into(), git_describe()),
        ("seed".into(), seed.to_string()),
    ]
}

fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string())
}

/// Peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Linux reports process CPU time in clock ticks of `USER_HZ`, which is
/// 100 on every mainstream architecture.
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of the whole process so far.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}
