//! Seeded, rpc-level fault injection for the §4 computation tree.
//!
//! The [`crate::FailureModel`] kill switch only models one failure shape —
//! a primary that never answers. Real trees fail in more ways: connections
//! reset mid-conversation, reply frames arrive torn, workers stall, and
//! any process (merge servers included) can die mid-query. [`ChaosModel`]
//! injects all of those, deterministically: every fault is drawn from a
//! seeded per-(query, node) stream, so a failing run replays bit-for-bit
//! from its seed.
//!
//! The injection point is the wire itself. The driver draws at most one
//! [`ChaosFault`] per tree node per query and ships the resulting
//! [`ChaosDirective`]s inside the `QueryRequest`; each worker applies only
//! the directives naming *its own* node name (assigned at `Load`/`Attach`)
//! and forwards the full list to its children. Faults therefore fire
//! inside real worker processes, on real sockets — the caller-side
//! robustness machinery (typed errors, hedged replica racing, budget
//! expiry) is exercised against genuine transport wreckage, not mocks.
//!
//! Chaos only has effect on worker processes: a tree of in-memory nodes
//! has no wire to sabotage (and must never be able to exit its driver), so
//! the driver draws directives over process names only.

use pd_common::rng::Rng;
use pd_common::wire::{Decode, Encode, Reader};
use pd_common::{fx_hash64, Error, Result};
use std::time::Duration;

/// One fault a worker must apply while serving one query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosDirective {
    /// The tree-node name the fault targets (`l0p`, `l2r`, `m1_0`, ...),
    /// as assigned by the driver at `Load`/`Attach`.
    pub node: String,
    pub fault: ChaosFault,
}

/// The fault shapes a worker can inject, roughly ordered by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosFault {
    /// Exit the worker process mid-query, before any reply byte: the
    /// parent sees the connection die (`PeerGone`) exactly as it would on
    /// a real crash.
    Kill,
    /// Close the connection without replying — a reset mid-conversation.
    Reset,
    /// Write a truncated reply frame, then close: torn bytes on the wire.
    Torn,
    /// Delay the reply by this much (service time of that query alone,
    /// like the `Delay` test knob).
    Delay(Duration),
}

const FAULT_KILL: u8 = 0;
const FAULT_RESET: u8 = 1;
const FAULT_TORN: u8 = 2;
const FAULT_DELAY: u8 = 3;

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
    /// Seed for every draw; independent of the failure stream.
    pub seed: u64,
    /// Per-(query, node) probability of a mid-query process kill.
    pub kill_probability: f64,
    /// Per-(query, node) probability of a connection reset (no reply).
    pub reset_probability: f64,
    /// Per-(query, node) probability of a torn (truncated) reply frame.
    pub torn_probability: f64,
    /// Per-(query, node) probability of a delayed reply.
    pub delay_probability: f64,
    /// `(min, max)` of an injected delay.
    pub delay_range: (Duration, Duration),
    /// Node names killed on *every* query, deterministically — the chaos
    /// counterpart of [`crate::FailureModel::kill_primaries`], but aimable
    /// at any tree node, merge servers included.
    pub kill_nodes: Vec<String>,
}

impl ChaosModel {
    /// Whether any draw can ever produce a fault.
    pub fn is_active(&self) -> bool {
        !self.kill_nodes.is_empty()
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

    /// Draw this query's directives over the named tree nodes: at most one
    /// fault per node, severest first (a killed node needs no torn frame).
    pub fn draw(&self, qid: u64, nodes: &[String]) -> Vec<ChaosDirective> {
        if !self.is_active() {
            return Vec::new();
        }
        let mut directives = Vec::new();
        for node in nodes {
            let fault = if self.kill_nodes.contains(node) {
                Some(ChaosFault::Kill)
            } else {
                let mut rng = self.node_stream(qid, node);
                // Fixed draw order: each probability consumes its stream
                // position whether or not it fires, so tightening one knob
                // never reshuffles the draws of the others.
                let kill = self.kill_probability > 0.0 && rng.chance(self.kill_probability);
                let reset = self.reset_probability > 0.0 && rng.chance(self.reset_probability);
                let torn = self.torn_probability > 0.0 && rng.chance(self.torn_probability);
                let delay = self.delay_probability > 0.0 && rng.chance(self.delay_probability);
                let (lo, hi) = self.delay_range;
                let delay_by = Duration::from_micros(rng.range_u64(
                    lo.as_micros() as u64,
                    (hi.as_micros() as u64).max(lo.as_micros() as u64 + 1),
                ));
                if kill {
                    Some(ChaosFault::Kill)
                } else if reset {
                    Some(ChaosFault::Reset)
                } else if torn {
                    Some(ChaosFault::Torn)
                } else if delay {
                    Some(ChaosFault::Delay(delay_by))
                } else {
                    None
                }
            };
            if let Some(fault) = fault {
                directives.push(ChaosDirective { node: node.clone(), fault });
            }
        }
        directives
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pd_common::wire::{from_bytes, to_bytes};

    fn nodes() -> Vec<String> {
        ["l0p", "l0r", "l1p", "l1r", "m1_0"].iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn directives_round_trip_on_the_wire() {
        for fault in [
            ChaosFault::Kill,
            ChaosFault::Reset,
            ChaosFault::Torn,
            ChaosFault::Delay(Duration::from_micros(12_345)),
        ] {
            let directive = ChaosDirective { node: "m2_1".into(), fault };
            let back: ChaosDirective = from_bytes(&to_bytes(&directive)).unwrap();
            assert_eq!(back, directive);
        }
        assert!(from_bytes::<ChaosFault>(&[42]).is_err());
    }

    #[test]
    fn draws_are_seed_deterministic_and_vary_by_query_and_node() {
        let model = ChaosModel {
            seed: 0xc4a05,
            kill_probability: 0.05,
            reset_probability: 0.15,
            torn_probability: 0.15,
            delay_probability: 0.3,
            delay_range: (Duration::from_millis(1), Duration::from_millis(20)),
            ..Default::default()
        };
        let nodes = nodes();
        let a: Vec<_> = (0..50).map(|qid| model.draw(qid, &nodes)).collect();
        let b: Vec<_> = (0..50).map(|qid| model.draw(qid, &nodes)).collect();
        assert_eq!(a, b, "equal seeds draw equal fault schedules");
        let total: usize = a.iter().map(Vec::len).sum();
        assert!(total > 0, "these probabilities over 250 draws must inject something");
        assert!(total < 250, "...but not everywhere");
        assert_ne!(a, (0..50).map(|qid| model.draw(qid + 1, &nodes)).collect::<Vec<_>>());
        let reseeded = ChaosModel { seed: 1, ..model.clone() };
        assert_ne!(a, (0..50).map(|qid| reseeded.draw(qid, &nodes)).collect::<Vec<_>>());
    }

    #[test]
    fn kill_nodes_fire_every_query_and_inactive_models_draw_nothing() {
        let model = ChaosModel { kill_nodes: vec!["m1_0".into()], ..Default::default() };
        for qid in 0..5 {
            assert_eq!(
                model.draw(qid, &nodes()),
                vec![ChaosDirective { node: "m1_0".into(), fault: ChaosFault::Kill }]
            );
        }
        assert!(ChaosModel::default().draw(0, &nodes()).is_empty());
        assert!(!ChaosModel::default().is_active());
        assert!(model.is_active());
    }
}
