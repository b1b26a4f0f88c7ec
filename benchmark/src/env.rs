//! The machine and process facts every result is labelled with, read from
//! `/proc` (this benchmark runs on Linux only).

use std::path::Path;
use std::process::Command;

/// Where a run happened.
#[derive(Debug, Clone)]
pub struct Environment {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// One-minute load average when the run started.
    pub loadavg_1m: f64,
    /// Commit of the tree being measured, `unknown` outside a git checkout.
    pub commit: String,
    /// Whether that tree had uncommitted changes.
    pub dirty: bool,
}

impl Environment {
    /// Read the environment of the current process; `repo` is the tree
    /// being measured.
    pub fn capture(repo: &Path) -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        let loadavg_1m = std::fs::read_to_string("/proc/loadavg")
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse().ok())
            .unwrap_or(0.0);
        // Only inside a checkout: elsewhere git would go looking for a
        // repository in the directories above.
        let in_git = repo.join(".git").exists();
        let git = |args: &[&str]| {
            if !in_git {
                return None;
            }
            Command::new("git")
                .arg("-C")
                .arg(repo)
                .args(args)
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        };
        // The commit labels the tree under test — HEAD plus a dirty flag —
        // never its parent.
        let commit = git(&["rev-parse", "--short=12", "HEAD"]).unwrap_or_else(|| "unknown".into());
        let dirty = git(&["status", "--porcelain"]).is_some_and(|s| !s.is_empty());
        Environment {
            nproc,
            loadavg_1m,
            commit,
            dirty,
        }
    }

    /// The environment as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"loadavg_1m\":{},\"commit\":\"{}\",\"dirty\":{}}}",
            self.nproc, self.loadavg_1m, self.commit, self.dirty
        )
    }
}

/// A field of `/proc/self/status` in kB-or-count form (`VmHWM`,
/// `voluntary_ctxt_switches`, …).
fn status_field(name: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Peak resident set of this process so far, MB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// Voluntary plus involuntary context switches of every live thread of
/// this process so far (`/proc/self/status` alone covers the main thread
/// only).
pub fn ctx_switches_all_threads() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("status")).ok())
        .map(|status| {
            status
                .lines()
                .filter(|l| l.contains("ctxt_switches"))
                .filter_map(|l| l.split_whitespace().last()?.parse::<u64>().ok())
                .sum::<u64>()
        })
        .sum()
}

/// User plus system CPU time consumed by this process (all threads,
/// including exited ones) so far, in microseconds.
pub fn cpu_us() -> u64 {
    // Fields 14 and 15 of /proc/self/stat, after the parenthesised command
    // name (which may itself contain spaces).
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = [11, 12]
        .iter()
        .filter_map(|&i| fields.get(i)?.parse::<u64>().ok())
        .sum();
    // USER_HZ is 100 on every Linux this runs on.
    ticks * 10_000
}

/// Whether `taskset -c 0 true` works here (util-linux present and CPU 0 in
/// this process's affinity mask).
pub fn taskset_available() -> bool {
    Command::new("taskset")
        .args(["-c", "0", "true"])
        .output()
        .is_ok_and(|o| o.status.success())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_live_values() {
        assert!(peak_rss_mb() > 0.0);
        let before = cpu_us();
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 30 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_us() >= before + 10_000, "30 ms of spinning is ≥1 tick");
        assert!(ctx_switches_all_threads() > 0);
    }

    #[test]
    fn environment_renders_as_json() {
        let env = Environment::capture(Path::new("."));
        assert!(env.nproc >= 1);
        let json = env.to_json();
        assert!(json.starts_with("{\"nproc\":") && json.ends_with('}'));
    }
}
