//! Process and file hygiene: no worker outlives its run, and everything
//! a run writes stays under `clickbench/out/`.

use std::path::{Path, PathBuf};

/// `clickbench/out/`: traces, answer fingerprints and the per-run temp
/// directories.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Pids of live processes running this binary as a tree worker (its
/// `--listen` argv) — the leftovers of a crashed run, or another run's
/// tree: either way their CPU time would be charged to this run's numbers.
pub fn live_workers() -> Vec<u32> {
    let Ok(me) = std::env::current_exe() else { return Vec::new() };
    let Ok(entries) = std::fs::read_dir("/proc") else { return Vec::new() };
    let mut pids = Vec::new();
    for entry in entries.flatten() {
        let Some(pid) = entry.file_name().to_str().and_then(|s| s.parse::<u32>().ok()) else {
            continue;
        };
        if pid == std::process::id() {
            continue;
        }
        let same_binary = std::fs::read_link(entry.path().join("exe")).is_ok_and(|exe| exe == me);
        if !same_binary {
            continue;
        }
        let is_worker = std::fs::read(entry.path().join("cmdline"))
            .is_ok_and(|cmdline| cmdline.split(|b| *b == 0).any(|arg| arg == b"--listen"));
        if is_worker {
            pids.push(pid);
        }
    }
    pids.sort_unstable();
    pids
}

/// `(stolen, total)` CPU time of the machine so far, in the kernel's ticks
/// (the `cpu` line of `/proc/stat`): what the hypervisor gave to someone
/// else while this VM wanted to run. `None` where there is no such file.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
    // user nice system idle iowait irq softirq steal; guest time is
    // already inside user.
    let counted = fields.get(..8)?;
    Some((counted[7], counted.iter().sum()))
}

/// The worker side of the same promise: a worker whose parent is gone (a
/// run killed outright, where no `ReapGuard` gets to run) exits on its
/// own instead of taxing the next run.
pub fn exit_when_orphaned() {
    let parent = std::os::unix::process::parent_id();
    std::thread::spawn(move || loop {
        std::thread::sleep(std::time::Duration::from_millis(250));
        if std::os::unix::process::parent_id() != parent {
            std::process::exit(0);
        }
    });
}

/// The run's private temp directory, exported as `TMPDIR` so the engine's
/// worker sockets and announce files land in it; removed on drop.
///
/// The path is relative (the process has already changed into
/// `clickbench/`): a unix socket path holds 108 bytes, which an absolute
/// checkout path could use up on its own.
pub struct RunDir(PathBuf);

impl RunDir {
    pub fn create() -> std::io::Result<RunDir> {
        std::env::set_current_dir(env!("CARGO_MANIFEST_DIR"))?;
        // A run killed outright could not remove its directory.
        for entry in std::fs::read_dir("out").into_iter().flatten().flatten() {
            let name = entry.file_name();
            let pid = name.to_str().and_then(|n| n.strip_prefix("run-"));
            if pid.is_some_and(|pid| !Path::new("/proc").join(pid).exists()) {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
        let dir = PathBuf::from(format!("out/run-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        std::env::set_var("TMPDIR", &dir);
        Ok(RunDir(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
