//! What the numbers were measured on: core count, worker sizing, commit,
//! compiler — written into every result — plus the process-level readings
//! (`VmHWM`, CPU time) the end-to-end metrics use.

use crate::json::Json;
use std::path::Path;

/// Kernel clock ticks per second as `/proc/<pid>/stat` reports them
/// (`USER_HZ`, 100 on every Linux ABI this harness runs on).
const USER_HZ: f64 = 100.0;

/// The host fingerprint recorded with every result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Pool workers every threaded workload uses: `clamp(nproc - 1, 1, 4)`,
    /// leaving one core to the single load-generator thread.
    pub workers: usize,
    /// `HEAD` of the repository the harness sits in, or `unknown` (a plain
    /// checkout has no `.git`).
    pub commit: String,
    /// Version of the compiler that built this binary.
    pub rustc: &'static str,
}

impl Host {
    pub fn detect() -> Host {
        let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Host {
            nproc,
            workers: workers_for(nproc),
            commit: read_commit(Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/..")))
                .unwrap_or_else(|| "unknown".to_owned()),
            rustc: env!("IGM_BENCH_RUSTC"),
        }
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("nproc".to_owned(), Json::Num(self.nproc as f64)),
            ("workers".to_owned(), Json::Num(self.workers as f64)),
            ("commit".to_owned(), Json::Str(self.commit.clone())),
            ("rustc".to_owned(), Json::Str(self.rustc.to_owned())),
        ])
    }
}

/// Pool workers for a host with `nproc` cores.
pub fn workers_for(nproc: usize) -> usize {
    nproc.saturating_sub(1).clamp(1, 4)
}

/// Resolves `HEAD` by reading `.git` directly (no process is spawned).
fn read_commit(repo: &Path) -> Option<String> {
    let git = repo.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return Some(hash.trim().to_owned());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (hash, name) = l.split_once(' ')?;
        (name == reference).then(|| hash.to_owned())
    })
}

/// Peak resident set of this process in MB (`VmHWM`), zero where `/proc`
/// is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds (user + system) this process has consumed, every thread
/// included — exited pool workers too, which is why this reads the
/// process-wide `stat` line and not per-task files.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the line, i.e. indices 11 and 12 after it.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / USER_HZ
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_sizing_leaves_a_core_to_the_generator() {
        assert_eq!(workers_for(1), 1);
        assert_eq!(workers_for(2), 1);
        assert_eq!(workers_for(4), 3);
        assert_eq!(workers_for(64), 4);
    }

    #[test]
    fn process_readings_are_live() {
        assert!(peak_rss_mb() > 0.0);
        let before = cpu_seconds();
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_seconds() > before);
    }
}
