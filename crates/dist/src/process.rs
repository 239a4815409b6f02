//! The computation tree as its driver holds it.
//!
//! [`Tree::build`] turns a table into the paper's §4 topology: one leaf
//! per shard, plus one merge server per `fanout` children whenever a level
//! exceeds the [`crate::TreeShape`] fanout. The driver itself is the root:
//! it queries the frontier (the top-most level), folds the answers with
//! the merge every other level uses, and finalizes. Every node is a
//! [`Node`]; where it lives is the tree's only variable — in the driver's
//! address space, reached by reference, or ([`Transport::Rpc`]) one
//! `pd-dist-worker` OS process per node (two per shard under replication),
//! reached over sockets.
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

use crate::cluster::{ClusterConfig, RpcConfig, Transport};
use crate::meta::ShardMeta;
use crate::node::{Node, NodeSpec};
use crate::rpc::{
    backoff_sleep, encode_frame, fan_out, Addr, AppendRequest, AttachRequest, ChildHandle,
    ChildSpec, LoadRequest, QueryRequest, Request, Response, RpcClient, SubtreeAnswer, BACKOFF_CAP,
    LOAD_TIMEOUT, STARTUP_TIMEOUT,
};
use pd_common::rng::Rng;
use pd_common::{fx_hash64, Error, Result};
use pd_data::Table;
use pd_encoding::TableDelta;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
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

/// A live computation tree as its driver (the root) holds it: the frontier
/// to query, and the leaves to append to.
pub struct Tree {
    /// The top tree level, queried (and failed over) by the driver root.
    frontier: Vec<ChildHandle>,
    nodes: Placement,
    config: ClusterConfig,
}

/// Where the nodes beneath the frontier live — the one thing the two
/// transports differ in.
enum Placement {
    /// Leaves in shard order; the mixers above them are owned by the
    /// frontier's handles.
    Local(Vec<Arc<Node>>),
    Workers(Workers),
}

/// The worker processes of a process-split tree.
struct Workers {
    worker_bin: PathBuf,
    /// Socket shape workers listen on.
    addr: WorkerAddr,
    /// Compress RPC frames (negotiated per connection, applied down the
    /// whole tree).
    compress: bool,
    dir: PathBuf,
    processes: Vec<ReapGuard>,
    /// One control connection per worker, kept from its spawn: role
    /// assignment, appends, re-attaches and the final shutdown all travel
    /// over it (a fresh connection each would be a connect here and a new
    /// connection thread there, per request).
    control: Vec<(Addr, RpcClient)>,
    /// Every tree node's name (`l0p`, `l0r`, `m1_0`, ...), in spawn
    /// order — the name space chaos directives target.
    names: Vec<String>,
    /// The leaf level's child specs (shard, addresses, current metadata):
    /// where appends go, and what re-wiring stacks the merge levels on.
    leaf_specs: Vec<ChildSpec>,
    /// Merge servers per level (bottom-up): address + tree name. Appends
    /// re-`Attach` each one so its pruning metas and epoch track the data.
    merge_levels: Vec<Vec<(Addr, String)>>,
    /// Cumulative serialized bytes of `Load` and `Append` frames shipped —
    /// the cost an incremental append is measured against a respawn by.
    bytes_shipped: u64,
}

static TREE_SEQ: AtomicU64 = AtomicU64::new(0);

/// Group `level` into subtrees of `fanout` children, one `mixer` each, until
/// one level fits the fanout; returns that top level. `mixer` gets the
/// level's height (≥ 1), the group's index in it, and the group.
fn stack_levels<C>(
    mut level: Vec<C>,
    fanout: usize,
    mut mixer: impl FnMut(u64, usize, Vec<C>) -> Result<C>,
) -> Result<Vec<C>> {
    let mut height = 1u64;
    while level.len() > fanout {
        let mut next = Vec::with_capacity(level.len().div_ceil(fanout));
        let mut rest = level.into_iter().peekable();
        while rest.peek().is_some() {
            let group: Vec<C> = rest.by_ref().take(fanout).collect();
            next.push(mixer(height, next.len(), group)?);
        }
        level = next;
        height += 1;
    }
    Ok(level)
}

impl Tree {
    /// Split `table` into contiguous row ranges (not round-robin: that
    /// preserves the "implicit clustering" of appended log records the
    /// paper's partitioning benefits from) and build the tree at `epoch`:
    /// one leaf (pair) per shard — sub-tables are produced one at a time
    /// and dropped once imported or shipped — then merge levels until one
    /// fits the fanout. The one place [`ClusterConfig::transport`] matters.
    pub fn build(table: &Table, config: &ClusterConfig, epoch: u64) -> Result<Tree> {
        let shard_count = config.shards.clamp(1, table.len().max(1));
        let cache_budget = (config.cache_budget / shard_count).max(1 << 16);
        let nodes = match &config.transport {
            Transport::InProcess => Placement::Local(Vec::with_capacity(shard_count)),
            Transport::Rpc(rpc) => Placement::Workers(Workers::new(rpc)?),
        };
        let mut tree = Tree { frontier: Vec::new(), nodes, config: config.clone() };
        for shard in 0..shard_count {
            let sub = shard_table(table, shard, shard_count)?;
            match &mut tree.nodes {
                // A local leaf keeps no shard summary: summarizing is three
                // more passes over the rows, and no edge in this address
                // space needs a proof the leaf's own chunk dictionaries
                // find anyway.
                Placement::Local(leaves) => leaves.push(Arc::new(Node::leaf(
                    shard as u64,
                    &sub,
                    &config.build,
                    cache_budget,
                    None,
                    node_spec(config, format!("l{shard}p"), epoch),
                )?)),
                Placement::Workers(workers) => {
                    workers.load_leaf(shard, sub, config, cache_budget, epoch)?
                }
            }
        }
        tree.rewire(epoch)?;
        Ok(tree)
    }

    /// Stack the merge levels on the current leaves, bottom-up, at `epoch`,
    /// and take the top level as the frontier. A mixer is always made
    /// afresh — a local one constructed, a process one (re-)`Attach`ed,
    /// which is a total role reset — so its cache and pruning metas can
    /// never describe the data of an older epoch.
    fn rewire(&mut self, epoch: u64) -> Result<()> {
        let config = &self.config;
        let fanout = config.tree.fanout.max(2);
        self.frontier = match &mut self.nodes {
            Placement::Local(leaves) => {
                let level = leaves
                    .iter()
                    .enumerate()
                    .map(|(shard, leaf)| {
                        ChildHandle::local(Arc::clone(leaf), Some(shard as u64), config.replication)
                    })
                    .collect();
                stack_levels(level, fanout, |height, i, group| {
                    let spec = node_spec(config, format!("m{height}_{i}"), epoch);
                    Ok(ChildHandle::local(Arc::new(Node::mixer(group, spec)), None, false))
                })?
            }
            Placement::Workers(workers) => {
                let compress = workers.compress;
                stack_levels(workers.leaf_specs.clone(), fanout, |height, i, group| {
                    workers.attach_mixer(height, i, group, config.shard_cache, epoch)
                })?
                .into_iter()
                .map(|spec| ChildHandle::new(spec, compress))
                .collect()
            }
        };
        Ok(())
    }

    pub fn shard_count(&self) -> usize {
        match &self.nodes {
            Placement::Local(leaves) => leaves.len(),
            Placement::Workers(workers) => workers.leaf_specs.len(),
        }
    }

    fn workers(&self) -> Option<&Workers> {
        match &self.nodes {
            Placement::Local(_) => None,
            Placement::Workers(workers) => Some(workers),
        }
    }

    /// Cumulative serialized bytes of data-bearing requests (`Load` +
    /// `Append`) shipped into the tree since it was built; 0 when no node
    /// is behind a wire.
    pub fn shipped_bytes(&self) -> u64 {
        self.workers().map_or(0, |w| w.bytes_shipped)
    }

    /// Whether leaf primaries have replica *processes* worth racing.
    pub fn hedges(&self) -> bool {
        self.config.replication && self.workers().is_some()
    }

    /// The end-to-end budget of one query through this tree.
    pub fn budget(&self) -> Duration {
        match &self.config.transport {
            Transport::InProcess => RpcConfig::default().budget,
            Transport::Rpc(rpc) => rpc.budget,
        }
    }

    /// Summed `(hits, misses)` of the node result caches reachable in this
    /// address space.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.frontier
            .iter()
            .map(ChildHandle::cache_stats)
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
    }

    /// Stream new rows into the live tree. `deltas[shard]` is that shard's
    /// dictionary-delta table (`None` = unchanged: nothing is applied; the
    /// epoch rule makes the leaf drop its caches at its next query). Each
    /// delta reaches every copy of the shard (a process tree's primary
    /// *and* replica — or failover would travel back in time), and the
    /// merge levels are then re-wired so parent-side pruning and the epoch
    /// track the appended data. Returns the request bytes shipped.
    pub fn append(&mut self, deltas: Vec<Option<TableDelta>>, epoch: u64) -> Result<u64> {
        let mut shipped = 0u64;
        for (shard, delta) in deltas.into_iter().enumerate() {
            let Some(delta) = delta else { continue };
            let append = AppendRequest { shard: shard as u64, delta, epoch };
            match &mut self.nodes {
                Placement::Local(leaves) => {
                    leaves[shard].append(&append)?;
                }
                Placement::Workers(workers) => shipped += workers.append(append)?,
            }
        }
        self.rewire(epoch)?;
        Ok(shipped)
    }

    /// Every worker process's node name, in spawn order — the targets a
    /// [`crate::ChaosModel`] draws faults over. Empty for a local tree:
    /// chaos is wire sabotage, and a local node must never be able to exit
    /// the driver.
    pub fn node_names(&self) -> &[String] {
        self.workers().map_or(&[], |w| &w.names)
    }

    /// Run one query through the tree: fan out to the frontier, fold in
    /// frontier order.
    pub fn query(&self, request: &QueryRequest) -> Result<SubtreeAnswer> {
        fan_out(&self.frontier, request)
    }

    /// Test knob: make shard `shard`'s primary worker process sleep before
    /// every answer — the controlled way to drive a deadline expiry.
    pub fn delay_primary(&self, shard: usize, delay: Duration) -> Result<()> {
        let workers = self
            .workers()
            .ok_or_else(|| Error::Data("worker delays require worker processes".into()))?;
        let Some(ChildSpec::Leaf { primary, .. }) = workers.leaf_specs.get(shard) else {
            return Err(Error::Data(format!("no such shard {shard}")));
        };
        // A test knob behind `&self`: it pays for a connection of its own.
        let request = Request::Delay { micros: delay.as_micros() as u64 };
        let mut client = RpcClient::new(primary.clone(), workers.compress);
        expect_ack(client.call(&request, STARTUP_TIMEOUT)?, "delay").map(|_| ())
    }
}

/// What every node of a tree built from `config` is told besides its name.
fn node_spec(config: &ClusterConfig, name: String, epoch: u64) -> NodeSpec {
    NodeSpec { name, cache_entries: config.shard_cache, epoch, threads: config.threads }
}

/// Shard `s`'s contiguous slice of `table` under an `shard_count`-way split
/// — the *same* row assignment for both transports and for appended
/// deltas, so neither can ever re-partition the data.
pub(crate) fn shard_table(table: &Table, s: usize, shard_count: usize) -> Result<Table> {
    let n = table.len();
    let lo = n * s / shard_count;
    let hi = n * (s + 1) / shard_count;
    let mut sub = Table::new(table.schema().clone());
    for r in lo..hi {
        sub.push_row(table.row(r))?;
    }
    Ok(sub)
}

impl Workers {
    fn new(rpc: &RpcConfig) -> Result<Workers> {
        let dir = std::env::temp_dir().join(format!(
            "pd-tree-{}-{}",
            std::process::id(),
            TREE_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)?;
        Ok(Workers {
            worker_bin: resolve_worker_bin(rpc.worker_bin.as_deref())?,
            addr: rpc.addr.clone(),
            compress: rpc.compress,
            dir,
            processes: Vec::new(),
            control: Vec::new(),
            names: Vec::new(),
            leaf_specs: Vec::new(),
            merge_levels: Vec::new(),
            bytes_shipped: 0,
        })
    }

    /// The control connection to the worker at `addr`.
    fn control(&mut self, addr: &Addr) -> Result<&mut RpcClient> {
        self.control
            .iter_mut()
            .find_map(|(a, client)| (a == addr).then_some(client))
            .ok_or_else(|| Error::Internal(format!("no worker was spawned at {addr}")))
    }

    /// Spawn and load shard `shard`'s worker (pair). The primary's Load ack
    /// carries the shard's metadata summary, which every parent up the
    /// tree uses to prune non-matching subtrees.
    fn load_leaf(
        &mut self,
        shard: usize,
        table: Table,
        config: &ClusterConfig,
        cache_budget: usize,
        epoch: u64,
    ) -> Result<()> {
        let mut load = Request::Load(Box::new(LoadRequest {
            shard: shard as u64,
            schema: table.schema().clone(),
            rows: table.iter_rows().collect(),
            build: config.build.clone(),
            threads: config.threads as u64,
            cache_budget: cache_budget as u64,
            cache_entries: config.shard_cache as u64,
            epoch,
            name: format!("l{shard}p"),
        }));
        drop(table);
        let (primary, meta) = self.spawn_worker(&format!("l{shard}p"), &load)?;
        let meta =
            meta.ok_or_else(|| Error::Data(format!("shard {shard}: load ack carried no meta")))?;
        let replica = if config.replication {
            // Same shard bytes, its own name — retagged in place so the
            // shipped rows are not cloned per replica.
            if let Request::Load(l) = &mut load {
                l.name = format!("l{shard}r");
            }
            Some(self.spawn_worker(&format!("l{shard}r"), &load)?.0)
        } else {
            None
        };
        self.leaf_specs.push(ChildSpec::Leaf { shard: shard as u64, primary, replica, meta });
        Ok(())
    }

    /// Make merge server `i` of level `height` own `children`: spawned the
    /// first time the level is wired, re-`Attach`ed (same process, same
    /// name, refreshed metas and epoch) ever after. Each node's spec
    /// accumulates the shard summaries beneath it, so pruning works at any
    /// depth.
    fn attach_mixer(
        &mut self,
        height: u64,
        i: usize,
        children: Vec<ChildSpec>,
        cache_entries: usize,
        epoch: u64,
    ) -> Result<ChildSpec> {
        let metas: Vec<ShardMeta> =
            children.iter().flat_map(|c| c.metas().iter().cloned()).collect();
        let level = (height - 1) as usize;
        let existing = self.merge_levels.get(level).and_then(|servers| servers.get(i)).cloned();
        let name = existing.as_ref().map_or_else(|| format!("m{height}_{i}"), |(_, n)| n.clone());
        let attach = Request::Attach(AttachRequest {
            children,
            compress: self.compress,
            cache_entries: cache_entries as u64,
            epoch,
            name: name.clone(),
        });
        let addr = match existing {
            Some((addr, _)) => {
                expect_ack(self.control(&addr)?.call(&attach, LOAD_TIMEOUT)?, "re-attach")?;
                addr
            }
            None => {
                let (addr, _) = self.spawn_worker(&name, &attach)?;
                if self.merge_levels.len() <= level {
                    self.merge_levels.push(Vec::new());
                }
                self.merge_levels[level].push((addr.clone(), name));
                addr
            }
        };
        Ok(ChildSpec::Node { addr, height, metas })
    }

    /// Ship one shard's delta — encoded once — to its primary and replica,
    /// both at work on it at the same time; the primary's ack refreshes
    /// the shard's metadata. Returns the bytes shipped. An error may leave
    /// an ack unread on a control connection: the cluster drops the tree on
    /// any failed append, and the `Shutdown` that follows does not mind.
    fn append(&mut self, append: AppendRequest) -> Result<u64> {
        let shard = append.shard as usize;
        let frame = encode_frame(&Request::Append(Box::new(append)), self.compress)?;
        let Some(ChildSpec::Leaf { primary, replica, .. }) = self.leaf_specs.get(shard) else {
            return Err(Error::Data("append: leaf level holds a non-leaf spec".into()));
        };
        let copies: Vec<Addr> = std::iter::once(primary).chain(replica).cloned().collect();
        let deadline = Instant::now() + LOAD_TIMEOUT;
        for addr in &copies {
            self.control(addr)?.send(&frame, deadline)?;
        }
        let mut refreshed = None;
        for addr in &copies {
            let meta = expect_ack(self.control(addr)?.recv(deadline)?, "append")?;
            // The primary's (first) ack is the one kept.
            refreshed = refreshed.or(meta);
        }
        let refreshed = refreshed
            .ok_or_else(|| Error::Data(format!("shard {shard}: append ack carried no meta")))?;
        if let ChildSpec::Leaf { meta, .. } = &mut self.leaf_specs[shard] {
            *meta = refreshed;
        }
        let shipped = (frame.len() * copies.len()) as u64;
        self.bytes_shipped += shipped;
        Ok(shipped)
    }

    /// Spawn one worker named `name`, wait for it to answer `Ping`, then
    /// send its role-assignment request (`Load` / `Attach`). Returns the
    /// worker's address and, for a `Load`, the shard metadata it reported.
    fn spawn_worker(&mut self, name: &str, role: &Request) -> Result<(Addr, Option<ShardMeta>)> {
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
        self.names.push(name.to_string());
        self.processes.push(guard);
        let mut client = RpcClient::new(addr.clone(), self.compress);
        client.connect_with_retry(STARTUP_TIMEOUT)?;
        expect_ack(client.call(&Request::Ping, STARTUP_TIMEOUT)?, "ping").map(|_| ())?;
        let frame = encode_frame(role, self.compress)?;
        let reply = client.call_frame(&frame, Instant::now() + LOAD_TIMEOUT)?;
        let meta = expect_ack(reply, "role assignment")?;
        if matches!(role, Request::Load(_)) {
            // Data-bearing shipping cost: what an append path is compared
            // against. (Attach frames are wiring, not data.)
            self.bytes_shipped += frame.len() as u64;
        }
        self.control.push((addr.clone(), client));
        Ok((addr, meta))
    }
}

impl Drop for Workers {
    fn drop(&mut self) {
        // Polite first: a Shutdown request lets workers exit cleanly.
        for (_, client) in &mut self.control {
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

fn expect_ack(response: Response, what: &str) -> Result<Option<ShardMeta>> {
    match response {
        Response::Ok => Ok(None),
        Response::Loaded(meta) => Ok(Some(*meta)),
        Response::Err(message) => Err(Error::Data(format!("worker {what} failed: {message}"))),
        Response::Fault(fault) => Err(Error::Rpc(fault)),
        Response::Malformed(message) => {
            Err(Error::Data(format!("worker rejected the {what} frame: {message}")))
        }
        Response::Answer(_) => {
            Err(Error::Data(format!("worker sent an answer to a {what} request")))
        }
    }
}
