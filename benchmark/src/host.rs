//! What the benchmark reads from the host: the process's own CPU time and
//! peak memory (from `/proc/self`), and the stamp every result block
//! carries (cores, CPU model, compiler, commit).

use crate::jsonio::{num, obj, text};
use frugal_telemetry::json::Json;
use std::path::{Path, PathBuf};

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, which the x86-64 and
/// aarch64 ABIs fix at 100 per second.
const TICK_NS: u64 = 10_000_000;

/// CPU time (user + system, all threads) this process has used, in ns at
/// tick resolution; 0 where `/proc` is unavailable.
pub fn process_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_ticks(&s))
        .map_or(0, |ticks| ticks * TICK_NS)
}

/// `utime + stime` (fields 14 and 15) of a `/proc/<pid>/stat` line. The
/// command name (field 2) may hold spaces and parentheses, so fields are
/// counted from the last `)`.
fn parse_stat_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set (`VmHWM`) of this process in MB; 0 where `/proc` is
/// unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kb(&s))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The benchmark package's own directory (`benchmark/`), fixed when it is
/// built — the benchmark builds from source in every checkout it runs in.
pub fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Where traces and result files go: `benchmark/out/`.
pub fn out_dir() -> std::io::Result<PathBuf> {
    let dir = package_dir().join("out");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The checked-out commit, read from `.git` beside the package (no `git`
/// process, nothing outside the checkout); "unknown" in a plain copy.
fn commit() -> String {
    let git = package_dir().join("../.git");
    let head = match std::fs::read_to_string(git.join("HEAD")) {
        Ok(h) => h.trim().to_owned(),
        Err(_) => return "unknown".to_owned(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_owned();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|refs| {
            refs.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next())
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The stamp of a result block. `rustc` is the compiler on the path — the
/// one `cargo run` has just built this binary with.
pub fn stamp() -> Json {
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned());
    let n = nproc();
    obj(vec![
        ("nproc", num(n as f64)),
        ("cpu_model", text(&cpu_model())),
        ("rustc", text(&rustc)),
        ("commit", text(&commit())),
        // Two trainers are the closed loop's clients: with fewer cores the
        // numbers measure the scheduler, not the runtime.
        ("oversubscribed", Json::Bool(n < crate::workloads::N_GPUS)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        let line = "4242 (bench) mark (x)) R 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 3";
        assert_eq!(parse_stat_ticks(line), Some(300));
        assert_eq!(parse_stat_ticks("garbage"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kb() {
        let status = "Name:\tbenchmark\nVmPeak:\t  900 kB\nVmHWM:\t  262144 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(262_144));
        assert_eq!(parse_vm_hwm_kb("Name: x\n"), None);
    }

    #[test]
    fn live_readings_are_sane_on_linux() {
        if Path::new("/proc/self/stat").exists() {
            assert!(peak_rss_mb() > 0.0);
            // Burn a few ticks so the counter is visibly monotonic.
            let before = process_cpu_ns();
            let t = std::time::Instant::now();
            let mut x = 0u64;
            while t.elapsed().as_millis() < 40 {
                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
            }
            assert!(process_cpu_ns() >= before + TICK_NS);
        }
        assert!(nproc() >= 1);
    }
}
