//! Process-level measurements (CPU clock, peak RSS, directory sizes) and
//! the per-run scratch directory.

use std::path::{Path, PathBuf};
use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User+sys CPU time of the whole process, all threads (including threads
/// that have already exited). Sleeping threads accrue nothing, so modelled
/// `thread::sleep` delays are excluded.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Lowers the process's peak RSS mark to its current RSS (Linux
/// `clear_refs` value 5), so that [`peak_rss_mb`] reads the peak since
/// this call. False when the kernel refuses; the mark then covers the
/// whole process lifetime.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Total size in bytes of the regular files under `dir`.
pub fn dir_size(dir: &Path) -> u64 {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return 0;
    };
    rd.flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_size(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map(|m| m.len()).unwrap_or(0),
            _ => 0,
        })
        .sum()
}

/// Logical CPUs available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A fresh scratch directory for one benchmark run, inside the working
/// directory, removed (with everything under it) when dropped.
pub struct RunDir {
    root: PathBuf,
    next: std::cell::Cell<u64>,
}

impl RunDir {
    /// Creates `.bench_run/run-<pid>` under the current directory,
    /// emptying any leftover of the same name.
    pub fn create() -> std::io::Result<Self> {
        let root = std::env::current_dir()?
            .join(".bench_run")
            .join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(Self {
            root,
            next: std::cell::Cell::new(0),
        })
    }

    /// A fresh, empty subdirectory named after `tag`.
    pub fn fresh(&self, tag: &str) -> PathBuf {
        let n = self.next.get();
        self.next.set(n + 1);
        let p = self.root.join(format!("{tag}-{n}"));
        let _ = std::fs::create_dir_all(&p);
        p
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        if let Some(parent) = self.root.parent() {
            // Only succeeds when no other run is using `.bench_run`.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let a = process_cpu();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(process_cpu() > a);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn peak_rss_reset_drops_an_old_peak() {
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        let before = peak_rss_mb();
        drop(big);
        if reset_peak_rss() {
            assert!(peak_rss_mb() < before);
        }
    }
}
