//! What the host did while a block ran: resident memory, processor time
//! against wall time, the cost of reading the clock, and the run header.

use std::process::Command;
use std::time::Instant;

/// `utime`/`stime` in `/proc/self/stat` count clock ticks; Linux fixes
/// the user-visible tick at 100 Hz.
const TICKS_PER_S: f64 = 100.0;

/// The value in kB of `field` (with its colon) in a `/proc/<pid>/status`
/// text, as MB.
pub fn status_mb(status: &str, field: &str) -> Option<f64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
}

fn own_status() -> String {
    std::fs::read_to_string("/proc/self/status").unwrap_or_default()
}

/// Current resident set, MB.
pub fn rss_mb() -> f64 {
    status_mb(&own_status(), "VmRSS:").unwrap_or(0.0)
}

/// Peak resident memory since [`PeakRss::start`]. The kernel's
/// high-water mark (`VmHWM`) is reset by writing `5` to
/// `/proc/self/clear_refs`; where that file is not writable the peak
/// falls back to the larger of `VmRSS` at the start and at the reading.
pub struct PeakRss {
    hwm_reset: bool,
    start_mb: f64,
}

impl PeakRss {
    pub fn start() -> PeakRss {
        PeakRss {
            hwm_reset: std::fs::write("/proc/self/clear_refs", "5").is_ok(),
            start_mb: rss_mb(),
        }
    }

    /// Whether the kernel's high-water mark is in use.
    pub fn exact(&self) -> bool {
        self.hwm_reset
    }

    pub fn peak_mb(&self) -> f64 {
        self.peak_from(&own_status())
    }

    fn peak_from(&self, status: &str) -> f64 {
        let field = if self.hwm_reset { "VmHWM:" } else { "VmRSS:" };
        status_mb(status, field).unwrap_or(0.0).max(self.start_mb)
    }
}

/// Processor seconds (user + system, all threads) this process has used.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    cpu_seconds_from(&stat).unwrap_or(0.0)
}

/// Fields 14 and 15 of a `/proc/<pid>/stat` line. The command name
/// (field 2) may hold spaces, so fields are counted from its closing
/// parenthesis.
pub fn cpu_seconds_from(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_S)
}

/// Processor time over wall time between two points: below 0.95 on a
/// single-threaded block, something else had the core.
pub struct CpuWall {
    wall: Instant,
    cpu: f64,
}

impl CpuWall {
    pub fn start() -> CpuWall {
        CpuWall {
            wall: Instant::now(),
            cpu: cpu_seconds(),
        }
    }

    pub fn ratio(&self) -> f64 {
        let wall = self.wall.elapsed().as_secs_f64();
        if wall <= 0.0 {
            0.0
        } else {
            (cpu_seconds() - self.cpu) / wall
        }
    }
}

/// Mean cost in ns of one `Instant::now()` pair, which every per-call
/// latency sample includes.
pub fn timer_overhead_ns() -> f64 {
    const PAIRS: u32 = 20_000;
    let t0 = Instant::now();
    for _ in 0..PAIRS {
        std::hint::black_box(Instant::now().elapsed());
    }
    t0.elapsed().as_nanos() as f64 / f64::from(PAIRS)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// `rustc -V`, or "unknown".
pub fn rustc_version() -> String {
    first_line_of("rustc", &["-V"])
}

/// The checkout's commit, or "unknown" outside a git repository.
pub fn git_rev() -> String {
    first_line_of("git", &["rev-parse", "--short", "HEAD"])
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str =
        "Name:\trootbench\nVmPeak:\t  300000 kB\nVmHWM:\t  204800 kB\nVmRSS:\t  102400 kB\n";

    #[test]
    fn status_fields_parse_to_mb() {
        assert_eq!(status_mb(STATUS, "VmHWM:"), Some(200.0));
        assert_eq!(status_mb(STATUS, "VmRSS:"), Some(100.0));
        assert_eq!(status_mb(STATUS, "VmSwap:"), None);
    }

    #[test]
    fn peak_falls_back_to_rss_without_clear_refs() {
        // Reset worked: the kernel's mark is the peak.
        let exact = PeakRss {
            hwm_reset: true,
            start_mb: 120.0,
        };
        assert_eq!(exact.peak_from(STATUS), 200.0);
        // Not writable: the stale process-lifetime mark is ignored and the
        // resident set at either end stands in.
        let fallback = PeakRss {
            hwm_reset: false,
            start_mb: 90.0,
        };
        assert_eq!(fallback.peak_from(STATUS), 100.0);
        let shrunk = PeakRss {
            hwm_reset: false,
            start_mb: 120.0,
        };
        assert_eq!(shrunk.peak_from(STATUS), 120.0);
        // A live tracker reports something positive on Linux.
        assert!(PeakRss::start().peak_mb() > 0.0);
    }

    #[test]
    fn cpu_time_survives_spaces_in_the_command_name() {
        let stat =
            "1234 (root bench) R 1 1 1 0 -1 4194304 500 0 0 0 150 50 0 0 20 0 2 0 100 1000 200";
        assert_eq!(cpu_seconds_from(stat), Some(2.0));
        assert_eq!(cpu_seconds_from("garbage"), None);
    }
}
