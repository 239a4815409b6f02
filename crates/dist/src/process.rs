//! The worker processes of a [`crate::Transport::Rpc`] tree: one
//! `pd-dist-worker` OS process per node beneath the driver's root (two per
//! shard under replication). A process becomes a leaf by a `Load` and a
//! merge server by an `Attach`; the driver keeps a control connection to
//! each for those and the final `Shutdown`. An append does not come here:
//! it walks the tree's own edges from the root ([`crate::node::Node::append`]).
//!
//! Workers listen on Unix sockets in a private temp directory
//! ([`WorkerAddr::Unix`]) or on ephemeral TCP ports ([`WorkerAddr::Tcp`],
//! the multi-host shape exercised over loopback here); TCP workers
//! announce their kernel-assigned port through a file the spawner polls.
//! Every spawned process sits in a [`ReapGuard`], so a panic anywhere
//! mid-build or mid-test kills and reaps the child on unwind — a wedged
//! worker (the very failure mode the deadline path exists for) must not
//! outlive its cluster, and a red test must not poison later suites with
//! orphan processes.

use crate::cluster::{node_spec, ClusterConfig, RpcConfig};
use crate::meta::ShardMeta;
use crate::rpc::{
    backoff_sleep, encode_frame, refusal, Addr, AttachRequest, ChildSpec, LoadRequest, Request,
    Response, RpcClient, BACKOFF_CAP, LOAD_TIMEOUT, STARTUP_TIMEOUT,
};
use pd_common::rng::Rng;
use pd_common::{fx_hash64, Error, Result};
use pd_encoding::TableDelta;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Which socket shape spawned workers listen on.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum WorkerAddr {
    /// Unix sockets in a private temp directory — the single-box default.
    #[default]
    Unix,
    /// TCP on the given interface (e.g. `127.0.0.1`), one ephemeral port
    /// per worker. Loopback today; the same wiring reaches real hosts once
    /// a remote spawner exists (the protocol is already host-agnostic —
    /// addresses travel as `tcp:host:port` strings).
    Tcp { host: String },
}

impl WorkerAddr {
    /// The conventional loopback TCP shape.
    pub fn loopback() -> WorkerAddr {
        WorkerAddr::Tcp { host: "127.0.0.1".into() }
    }
}

/// Kills and reaps a spawned worker on drop. Every child process the tree
/// spawns lives inside one of these from the instant `spawn` returns, so
/// unwinding (a failed build, a panicking test, an `assert!` mid-query)
/// reaps the process instead of leaking it to poison later suites.
pub struct ReapGuard {
    child: Option<Child>,
    /// Filesystem residue (unix socket paths, announce files) removed
    /// after the child is reaped, so a rerun in the same directory can
    /// never adopt a dead worker's stale address.
    cleanup: Vec<PathBuf>,
}

impl ReapGuard {
    pub fn new(child: Child) -> ReapGuard {
        ReapGuard { child: Some(child), cleanup: Vec::new() }
    }

    /// Register a path to delete once the child is reaped.
    pub fn remove_on_exit(&mut self, path: PathBuf) {
        self.cleanup.push(path);
    }

    /// Has the child already exited? Non-blocking; `None` while running.
    pub fn try_wait(&mut self) -> Option<std::process::ExitStatus> {
        self.child.as_mut().and_then(|c| c.try_wait().ok().flatten())
    }
}

impl Drop for ReapGuard {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        // Only after the kill: removing a live worker's socket path would
        // strand it listening on an unlinked inode.
        for path in self.cleanup.drain(..) {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Locate the worker binary: an explicit path, the `PD_DIST_WORKER_BIN`
/// environment variable, or `pd-dist-worker` next to the current
/// executable (where cargo puts workspace binaries relative to test
/// executables in `target/<profile>/deps/`).
pub fn resolve_worker_bin(explicit: Option<&Path>) -> Result<PathBuf> {
    if let Some(path) = explicit {
        return Ok(path.to_path_buf());
    }
    if let Ok(path) = std::env::var("PD_DIST_WORKER_BIN") {
        return Ok(PathBuf::from(path));
    }
    if let Ok(exe) = std::env::current_exe() {
        for dir in exe.ancestors().skip(1).take(3) {
            let candidate = dir.join("pd-dist-worker");
            if candidate.is_file() {
                return Ok(candidate);
            }
        }
    }
    Err(Error::Data(
        "rpc transport: cannot locate the pd-dist-worker binary \
         (set RpcConfig::worker_bin or PD_DIST_WORKER_BIN, or build the \
         `pd-dist-worker` bin target)"
            .into(),
    ))
}

/// The worker processes of a process-split tree.
pub(crate) struct Workers {
    worker_bin: PathBuf,
    /// Socket shape workers listen on.
    addr: WorkerAddr,
    dir: PathBuf,
    processes: Vec<ReapGuard>,
    /// One control connection per worker, in spawn order, kept from its
    /// spawn: role assignment and the final shutdown travel over it (a
    /// fresh connection each would be a connect here and a new connection
    /// thread there, per request).
    control: Vec<RpcClient>,
    /// Cumulative serialized bytes of the frames that moved data: every
    /// `Load`, and every `Append` the tree's appends wrote — the cost an
    /// incremental append is measured against a respawn by.
    pub(crate) bytes_shipped: u64,
}

static TREE_SEQ: AtomicU64 = AtomicU64::new(0);

impl Workers {
    pub(crate) fn new(rpc: &RpcConfig) -> Result<Workers> {
        let dir = std::env::temp_dir().join(format!(
            "pd-tree-{}-{}",
            std::process::id(),
            TREE_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)?;
        Ok(Workers {
            worker_bin: resolve_worker_bin(rpc.worker_bin.as_deref())?,
            addr: rpc.addr.clone(),
            dir,
            processes: Vec::new(),
            control: Vec::new(),
            bytes_shipped: 0,
        })
    }

    /// Spawn and load shard `shard`'s worker (pair). The primary's Load ack
    /// carries the shard's metadata summary, which every parent up the
    /// tree uses to prune non-matching subtrees; it leaves here inside the
    /// returned spec.
    pub(crate) fn load_leaf(
        &mut self,
        shard: u64,
        delta: TableDelta,
        config: &ClusterConfig,
    ) -> Result<ChildSpec> {
        let mut load = Request::Load(Box::new(LoadRequest {
            shard,
            delta,
            build: config.build.clone(),
            spec: node_spec(config, format!("l{shard}p")),
        }));
        let (primary, ack) = self.spawn_worker(&format!("l{shard}p"), &load)?;
        let meta = match ack {
            Response::Loaded(meta) => *meta,
            other => return Err(refusal(other, "load")),
        };
        let replica = if config.replication {
            // Same shard bytes, its own name — retagged in place so the
            // shipped columns are not cloned per replica.
            if let Request::Load(l) = &mut load {
                l.spec.name = format!("l{shard}r");
            }
            let (replica, ack) = self.spawn_worker(&format!("l{shard}r"), &load)?;
            if !matches!(ack, Response::Loaded(_)) {
                return Err(refusal(ack, "load"));
            }
            Some(replica)
        } else {
            None
        };
        Ok(ChildSpec::Leaf { shard, primary, replica, meta })
    }

    /// Spawn the merge server `name` over `children`. Each node's child
    /// spec accumulates the shard summaries beneath it, so pruning works at
    /// any depth.
    pub(crate) fn attach_mixer(
        &mut self,
        children: Vec<ChildSpec>,
        name: String,
    ) -> Result<ChildSpec> {
        let metas: Vec<ShardMeta> =
            children.iter().flat_map(|c| c.metas().iter().cloned()).collect();
        let attach = Request::Attach(AttachRequest { children, name: name.clone() });
        let (addr, ack) = self.spawn_worker(&name, &attach)?;
        expect_ok(ack, "attach")?;
        Ok(ChildSpec::Node { addr, metas })
    }

    /// Spawn one worker named `name`, wait for it to answer `Ping`, then
    /// send its role-assignment request (`Load` / `Attach`). Returns the
    /// worker's address and its reply to the assignment.
    fn spawn_worker(&mut self, name: &str, role: &Request) -> Result<(Addr, Response)> {
        // Decide the address story once: a unix worker listens where the
        // driver says; a tcp worker binds port 0 and reports back through
        // its announce file.
        enum Spawned {
            At(Addr),
            Announced(PathBuf),
        }
        let mut command = Command::new(&self.worker_bin);
        let spawned = match &self.addr {
            WorkerAddr::Unix => {
                let path = self.dir.join(format!("{name}.sock"));
                // A stale socket path from a dead worker would make the
                // fresh bind fail (or worse, a poller adopt a corpse's
                // address) — clear it before spawning.
                let _ = std::fs::remove_file(&path);
                let addr = Addr::Unix(path);
                command.arg("--listen").arg(addr.to_string());
                Spawned::At(addr)
            }
            WorkerAddr::Tcp { host } => {
                let announce = self.dir.join(format!("{name}.addr"));
                // Same staleness rule: an old announce file would hand
                // the poller a dead worker's port.
                let _ = std::fs::remove_file(&announce);
                command
                    .arg("--listen")
                    .arg(format!("tcp:{host}:0"))
                    .arg("--announce")
                    .arg(&announce);
                Spawned::Announced(announce)
            }
        };
        let child = command
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| Error::Data(format!("spawn {}: {e}", self.worker_bin.display())))?;
        let mut guard = ReapGuard::new(child);
        let addr = match &spawned {
            Spawned::At(addr) => {
                if let Addr::Unix(path) = addr {
                    guard.remove_on_exit(path.clone());
                }
                addr.clone()
            }
            Spawned::Announced(announce) => {
                guard.remove_on_exit(announce.clone());
                wait_for_announce(announce, &mut guard)?
            }
        };
        self.processes.push(guard);
        let mut client = RpcClient::new(addr.clone());
        client.connect_with_retry(STARTUP_TIMEOUT)?;
        expect_ok(client.call(&Request::Ping, STARTUP_TIMEOUT)?, "ping")?;
        let frame = encode_frame(role, false)?;
        let reply = client.call_frame(&frame, Instant::now() + LOAD_TIMEOUT)?;
        if matches!(role, Request::Load(_)) {
            // Data-bearing shipping cost: what an append path is compared
            // against. (Attach frames are wiring, not data.)
            self.bytes_shipped += frame.len() as u64;
        }
        self.control.push(client);
        Ok((addr, reply))
    }
}

impl Drop for Workers {
    fn drop(&mut self) {
        // Polite first: a Shutdown request lets workers exit cleanly.
        for client in &mut self.control {
            let _ = client.call(&Request::Shutdown, Duration::from_millis(200));
        }
        // Then force: dropping the guards kills and reaps whatever is
        // left — a wedged worker must not leak past its cluster.
        self.processes.clear();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Poll for a TCP worker's announce file (written atomically after bind).
/// A worker that dies before announcing (bad host, port in use) fails the
/// build immediately with its exit status instead of running out the full
/// startup timeout once per worker.
fn wait_for_announce(path: &Path, worker: &mut ReapGuard) -> Result<Addr> {
    let deadline = Instant::now() + STARTUP_TIMEOUT;
    // Jittered exponential backoff instead of a fixed busy-poll: dozens of
    // workers spawning at once must not all hammer the filesystem on the
    // same 2ms beat, and an overall deadline still bounds the wait.
    let mut backoff = Duration::from_millis(1);
    let mut jitter = Rng::seed_from_u64(fx_hash64(path.to_string_lossy().as_ref()));
    loop {
        match std::fs::read_to_string(path) {
            Ok(contents) if !contents.trim().is_empty() => {
                return Addr::parse(contents.trim());
            }
            _ => {
                if let Some(status) = worker.try_wait() {
                    return Err(Error::Data(format!(
                        "rpc: worker exited ({status}) before announcing its address \
                         (bad --listen host or port?)"
                    )));
                }
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(Error::Data(format!(
                        "rpc: worker never announced its address at {}",
                        path.display()
                    )));
                }
                backoff_sleep(&mut backoff, BACKOFF_CAP, left, &mut jitter);
            }
        }
    }
}

fn expect_ok(response: Response, what: &str) -> Result<()> {
    match response {
        Response::Ok => Ok(()),
        other => Err(refusal(other, what)),
    }
}
