//! Seeded fault injection for the §4 computation tree — the one injector.
//!
//! Real trees fail in many ways: a peer is simply not there, connections
//! reset mid-conversation, reply frames arrive torn, workers stall, and any
//! process (merge servers included) can die mid-query. [`ChaosModel`]
//! injects all of those, deterministically: every fault is drawn from a
//! seeded per-(query, node) stream — or pinned to every query by
//! [`ChaosModel::always`] — so a failing run replays bit-for-bit from its
//! seed.
//!
//! The driver draws at most one [`ChaosFault`] per tree node per query and
//! ships the resulting [`ChaosDirective`]s inside the `QueryRequest`, which
//! travels whole down the tree. A fault is applied in one of two places:
//!
//! - **At the edge** ([`ChaosFault::Unreachable`]): the *parent* of the
//!   named leaf primary does not contact it for this query, as if the peer
//!   were gone — the §4 failover case. This is decided above the link, so
//!   it behaves identically whether the child is a worker process or a
//!   node in the driver's address space.
//! - **In the worker** (every other fault): the named process applies it
//!   to itself, on its real socket — the caller-side robustness machinery
//!   (typed errors, hedged replica racing, budget expiry) is exercised
//!   against genuine transport wreckage, not mocks. A tree of in-memory
//!   nodes has no wire to sabotage (and must never be able to exit its
//!   driver), so these are drawn over process names only.

use pd_common::rng::Rng;
use pd_common::wire::{Decode, Encode, Reader};
use pd_common::{fx_hash64, Error, Result};
use std::time::Duration;

/// One fault to apply while serving one query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosDirective {
    /// The tree-node name the fault targets (`l0p`, `l2r`, `m1_0`, ...),
    /// as assigned by the driver at `Load`/`Attach`.
    pub node: String,
    pub fault: ChaosFault,
}

/// The fault shapes, roughly ordered by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosFault {
    /// Edge-applied; names a leaf primary ([`leaf_primary`]). Its parent
    /// does not contact it for this query and settles the edge as
    /// `PeerGone`: the replica answers, or the query fails naming the
    /// shard when there is none. The node itself is untouched — it keeps
    /// its data, its caches and its place in the tree, and still takes
    /// appends.
    Unreachable,
    /// Exit the worker process mid-query, before any reply byte: the
    /// parent sees the connection die (`PeerGone`) exactly as it would on
    /// a real crash.
    Kill,
    /// Close the connection without replying — a reset mid-conversation.
    Reset,
    /// Write a truncated reply frame, then close: torn bytes on the wire.
    Torn,
    /// Delay the reply by this much: service time of that query alone,
    /// never queue delay of the requests behind it.
    Delay(Duration),
}

/// The tree-wide name of shard `shard`'s primary leaf — the names
/// [`ChaosFault::Unreachable`] can target.
pub fn leaf_primary(shard: u64) -> String {
    format!("l{shard}p")
}

/// Whether `directives` tell shard `shard`'s parent not to contact the
/// shard's primary for this query.
pub fn primary_unreachable(directives: &[ChaosDirective], shard: u64) -> bool {
    directives.iter().any(|d| d.fault == ChaosFault::Unreachable && d.node == leaf_primary(shard))
}

const FAULT_KILL: u8 = 0;
const FAULT_RESET: u8 = 1;
const FAULT_TORN: u8 = 2;
const FAULT_DELAY: u8 = 3;
const FAULT_UNREACHABLE: u8 = 4;

impl Encode for ChaosFault {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ChaosFault::Kill => out.push(FAULT_KILL),
            ChaosFault::Reset => out.push(FAULT_RESET),
            ChaosFault::Torn => out.push(FAULT_TORN),
            ChaosFault::Delay(d) => {
                out.push(FAULT_DELAY);
                d.encode(out);
            }
            ChaosFault::Unreachable => out.push(FAULT_UNREACHABLE),
        }
    }
}

impl Decode for ChaosFault {
    fn decode(r: &mut Reader<'_>) -> Result<ChaosFault> {
        Ok(match r.u8()? {
            FAULT_KILL => ChaosFault::Kill,
            FAULT_RESET => ChaosFault::Reset,
            FAULT_TORN => ChaosFault::Torn,
            FAULT_DELAY => ChaosFault::Delay(Duration::decode(r)?),
            FAULT_UNREACHABLE => ChaosFault::Unreachable,
            other => return Err(Error::Data(format!("wire: invalid chaos-fault tag {other}"))),
        })
    }
}

impl Encode for ChaosDirective {
    fn encode(&self, out: &mut Vec<u8>) {
        self.node.encode(out);
        self.fault.encode(out);
    }
}

impl Decode for ChaosDirective {
    fn decode(r: &mut Reader<'_>) -> Result<ChaosDirective> {
        Ok(ChaosDirective { node: String::decode(r)?, fault: ChaosFault::decode(r)? })
    }
}

/// Seed-keyed fault model. The driver draws per (query, node); everything
/// derives from `(seed, qid, node name)`, never from wall clock or
/// scheduling, so equal seeds and query sequences inject equal faults.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChaosModel {
    /// Seed for every draw.
    pub seed: u64,
    /// Per-(query, leaf primary) probability that the primary is
    /// [`ChaosFault::Unreachable`].
    pub unreachable_probability: f64,
    /// Per-(query, process) probability of a mid-query process kill.
    pub kill_probability: f64,
    /// Per-(query, process) probability of a connection reset (no reply).
    pub reset_probability: f64,
    /// Per-(query, process) probability of a torn (truncated) reply frame.
    pub torn_probability: f64,
    /// Per-(query, process) probability of a delayed reply.
    pub delay_probability: f64,
    /// `(min, max)` of a drawn delay.
    pub delay_range: (Duration, Duration),
    /// Directives applied to *every* query, deterministically: a
    /// permanently dead primary (`Unreachable` on `l1p`), a pinned
    /// straggler (`Delay` on `l0p`), a merge server that dies at its first
    /// query (`Kill` on `m1_0`). A node named here gets no seeded draw.
    pub always: Vec<ChaosDirective>,
}

impl ChaosModel {
    /// Whether any draw can ever produce a fault.
    pub fn is_active(&self) -> bool {
        !self.always.is_empty()
            || self.unreachable_probability > 0.0
            || self.kill_probability > 0.0
            || self.reset_probability > 0.0
            || self.torn_probability > 0.0
            || self.delay_probability > 0.0
    }

    /// The deterministic per-(seed, query, node) stream every draw uses.
    fn node_stream(&self, qid: u64, node: &str) -> Rng {
        let mut mix = self.seed;
        mix = mix.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(qid);
        mix = mix.wrapping_mul(0xBF58_476D_1CE4_E5B9).wrapping_add(fx_hash64(node));
        Rng::seed_from_u64(mix)
    }

    /// Draw this query's directives for a tree of `shards` shards whose
    /// worker processes are named `processes` (none for a tree of
    /// in-memory nodes): at most one fault per node, pinned before seeded.
    /// Edge-applied faults go to leaf primaries, worker-applied ones to
    /// processes.
    pub fn draw(&self, qid: u64, processes: &[String], shards: usize) -> Vec<ChaosDirective> {
        if !self.is_active() {
            return Vec::new();
        }
        let primaries: Vec<String> = (0..shards as u64).map(leaf_primary).collect();
        // A process tree's primaries are among its processes.
        let nodes = if processes.is_empty() { &primaries } else { processes };
        let mut directives = Vec::new();
        for node in nodes {
            let is_primary = primaries.contains(node);
            let fault = match self.always.iter().find(|d| d.node == *node) {
                Some(pinned) => Some(pinned.fault),
                None => self.seeded(qid, node, is_primary),
            };
            let applies = |fault: &ChaosFault| match fault {
                ChaosFault::Unreachable => is_primary,
                _ => !processes.is_empty(),
            };
            if let Some(fault) = fault.filter(applies) {
                directives.push(ChaosDirective { node: node.clone(), fault });
            }
        }
        directives
    }

    /// The seeded draw for one node: a primary nobody contacts needs no
    /// sabotage, and of the rest the severest wins (a killed node needs no
    /// torn frame).
    fn seeded(&self, qid: u64, node: &str, is_primary: bool) -> Option<ChaosFault> {
        let mut rng = self.node_stream(qid, node);
        // Fixed draw order, and a knob at zero consumes no stream position:
        // the edge fault comes first, so one seed cuts the same edges of an
        // in-memory tree and a process tree.
        let mut fires = |p: f64| p > 0.0 && rng.chance(p);
        let unreachable = is_primary && fires(self.unreachable_probability);
        let kill = fires(self.kill_probability);
        let reset = fires(self.reset_probability);
        let torn = fires(self.torn_probability);
        let delay = fires(self.delay_probability);
        let (lo, hi) = self.delay_range;
        let delay_by = Duration::from_micros(rng.range_u64(
            lo.as_micros() as u64,
            (hi.as_micros() as u64).max(lo.as_micros() as u64 + 1),
        ));
        let by_severity = [
            (unreachable, ChaosFault::Unreachable),
            (kill, ChaosFault::Kill),
            (reset, ChaosFault::Reset),
            (torn, ChaosFault::Torn),
            (delay, ChaosFault::Delay(delay_by)),
        ];
        by_severity.into_iter().find_map(|(fired, fault)| fired.then_some(fault))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_common::wire::{from_bytes, to_bytes};

    /// A 2-shard replicated process tree under one merge server.
    fn nodes() -> Vec<String> {
        ["l0p", "l0r", "l1p", "l1r", "m1_0"].iter().map(|s| s.to_string()).collect()
    }

    fn on(node: &str, fault: ChaosFault) -> ChaosDirective {
        ChaosDirective { node: node.into(), fault }
    }

    #[test]
    fn directives_round_trip_on_the_wire() {
        for fault in [
            ChaosFault::Unreachable,
            ChaosFault::Kill,
            ChaosFault::Reset,
            ChaosFault::Torn,
            ChaosFault::Delay(Duration::from_micros(12_345)),
        ] {
            let directive = on("m2_1", fault);
            let back: ChaosDirective = from_bytes(&to_bytes(&directive)).unwrap();
            assert_eq!(back, directive);
        }
        assert!(from_bytes::<ChaosFault>(&[42]).is_err());
    }

    #[test]
    fn draws_are_seed_deterministic_and_vary_by_query_and_node() {
        let model = ChaosModel {
            seed: 0xc4a05,
            unreachable_probability: 0.1,
            kill_probability: 0.05,
            reset_probability: 0.15,
            torn_probability: 0.15,
            delay_probability: 0.3,
            delay_range: (Duration::from_millis(1), Duration::from_millis(20)),
            ..Default::default()
        };
        let nodes = nodes();
        let a: Vec<_> = (0..50).map(|qid| model.draw(qid, &nodes, 2)).collect();
        let b: Vec<_> = (0..50).map(|qid| model.draw(qid, &nodes, 2)).collect();
        assert_eq!(a, b, "equal seeds draw equal fault schedules");
        let total: usize = a.iter().map(Vec::len).sum();
        assert!(total > 0, "these probabilities over 250 draws must inject something");
        assert!(total < 250, "...but not everywhere");
        assert_ne!(a, (0..50).map(|qid| model.draw(qid + 1, &nodes, 2)).collect::<Vec<_>>());
        let reseeded = ChaosModel { seed: 1, ..model.clone() };
        assert_ne!(a, (0..50).map(|qid| reseeded.draw(qid, &nodes, 2)).collect::<Vec<_>>());

        // A fault is drawn only where it can be applied: an edge can be cut
        // on either kind of tree — by one seed, the same edges — while wire
        // sabotage needs a worker process.
        let mut cut_total = 0;
        for (qid, processes) in a.into_iter().enumerate() {
            let cuts: Vec<_> =
                processes.into_iter().filter(|d| d.fault == ChaosFault::Unreachable).collect();
            assert!(cuts.iter().all(|d| d.node == "l0p" || d.node == "l1p"), "{cuts:?}");
            assert_eq!(model.draw(qid as u64, &[], 2), cuts, "the in-memory tree, query {qid}");
            cut_total += cuts.len();
        }
        assert!(cut_total > 0 && cut_total < 100, "{cut_total}");
    }

    #[test]
    fn pinned_directives_fire_every_query_and_inactive_models_draw_nothing() {
        let model = ChaosModel {
            always: vec![
                on("m1_0", ChaosFault::Kill),
                on("l1p", ChaosFault::Unreachable),
                on("l0r", ChaosFault::Unreachable), // not a primary: never applies
            ],
            ..Default::default()
        };
        for qid in 0..5 {
            assert_eq!(
                model.draw(qid, &nodes(), 2),
                vec![on("l1p", ChaosFault::Unreachable), on("m1_0", ChaosFault::Kill)]
            );
            assert_eq!(model.draw(qid, &[], 2), vec![on("l1p", ChaosFault::Unreachable)]);
        }
        assert!(primary_unreachable(&model.draw(0, &nodes(), 2), 1));
        assert!(!primary_unreachable(&model.draw(0, &nodes(), 2), 0));
        assert!(ChaosModel::default().draw(0, &nodes(), 2).is_empty());
        assert!(!ChaosModel::default().is_active());
        assert!(model.is_active());
    }
}
