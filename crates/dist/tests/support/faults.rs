//! Fault plans: what the fault relay (`relay.rs`) does to the queries it
//! passes, and how a test, bench or example puts a plan in front of a
//! cluster's worker processes.
//!
//! A plan is a text file, one setting per line (`#` starts a comment):
//!
//! ```text
//! seed 7
//! refuse 0.05          # per query and leaf primary: close without forwarding
//! kill 0.05            # per query and process: exit before any reply byte
//! reset 0.1            # close without replying
//! torn 0.1             # forward half the reply frame, then close
//! delay 0.2 1000 15000 # sleep before forwarding; the range in µs
//! pin l1p refuse       # on every query that reaches l1p
//! pin l0p delay 20000000
//! ```
//!
//! Every relay re-reads its plan per query, so rewriting the file changes
//! the faults of a running tree. A node with a pin gets no seeded draw;
//! every other node draws from a stream keyed by (seed, node, the query's
//! analyzed plan) — not by the frame bytes, whose budget shrinks per hop —
//! so one seed injects the same faults into the same queries of a fresh
//! tree. A seeded refusal goes to leaf primaries only (`l<n>p`):
//! the §4 failover case, which a replica answers. Of several seeded faults
//! the severest wins, in the order above.

// Each includer — the relay, a test, a bench — uses a part of this file.
#![allow(dead_code)]

use pd_common::rng::Rng;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// One fault the relay applies to one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    Refuse,
    Kill,
    Reset,
    Torn,
    Delay(Duration),
}

/// A seeded fault model plus faults pinned to nodes. The default plan
/// injects nothing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Plan {
    pub seed: u64,
    pub refuse: f64,
    pub kill: f64,
    pub reset: f64,
    pub torn: f64,
    pub delay: f64,
    /// `(min, max)` of a seeded delay.
    pub delay_range: (Duration, Duration),
    pub pins: Vec<(String, Fault)>,
}

impl Plan {
    /// `fault` on every query that reaches `node`, nothing elsewhere.
    pub fn pinned(node: &str, fault: Fault) -> Plan {
        Plan { pins: vec![(node.to_string(), fault)], ..Plan::default() }
    }

    /// The primaries of `shards` refuse every query.
    pub fn refusing(shards: &[u64]) -> Plan {
        let pins = shards.iter().map(|shard| (format!("l{shard}p"), Fault::Refuse)).collect();
        Plan { pins, ..Plan::default() }
    }

    pub fn to_text(&self) -> String {
        let micros = |d: Duration| d.as_micros();
        let mut text = format!(
            "seed {}\nrefuse {}\nkill {}\nreset {}\ntorn {}\ndelay {} {} {}\n",
            self.seed,
            self.refuse,
            self.kill,
            self.reset,
            self.torn,
            self.delay,
            micros(self.delay_range.0),
            micros(self.delay_range.1)
        );
        for (node, fault) in &self.pins {
            let fault = match fault {
                Fault::Refuse => "refuse".to_string(),
                Fault::Kill => "kill".to_string(),
                Fault::Reset => "reset".to_string(),
                Fault::Torn => "torn".to_string(),
                Fault::Delay(lag) => format!("delay {}", micros(*lag)),
            };
            text.push_str(&format!("pin {node} {fault}\n"));
        }
        text
    }

    pub fn parse(text: &str) -> Result<Plan, String> {
        let mut plan = Plan::default();
        for line in text.lines() {
            let words: Vec<&str> =
                line.split('#').next().unwrap_or("").split_whitespace().collect();
            let number = |i: usize| -> Result<f64, String> {
                let word = words.get(i).ok_or_else(|| format!("plan: `{line}` is short"))?;
                word.parse().map_err(|_| format!("plan: `{word}` is not a number"))
            };
            let micros = |i: usize| number(i).map(|us| Duration::from_micros(us as u64));
            match words.first().copied() {
                None => {}
                Some("seed") => plan.seed = number(1)? as u64,
                Some("refuse") => plan.refuse = number(1)?,
                Some("kill") => plan.kill = number(1)?,
                Some("reset") => plan.reset = number(1)?,
                Some("torn") => plan.torn = number(1)?,
                Some("delay") => {
                    plan.delay = number(1)?;
                    plan.delay_range = (micros(2)?, micros(3)?);
                }
                Some("pin") => {
                    let node = words.get(1).ok_or_else(|| format!("plan: `{line}` is short"))?;
                    let fault = match words.get(2).copied() {
                        Some("refuse") => Fault::Refuse,
                        Some("kill") => Fault::Kill,
                        Some("reset") => Fault::Reset,
                        Some("torn") => Fault::Torn,
                        Some("delay") => Fault::Delay(micros(3)?),
                        _ => return Err(format!("plan: `{line}` names no fault")),
                    };
                    plan.pins.push((node.to_string(), fault));
                }
                Some(other) => return Err(format!("plan: unknown setting `{other}`")),
            }
        }
        Ok(plan)
    }

    /// The fault for the query keyed `query` as it reaches `node`, if any.
    pub fn draw(&self, node: &str, query: u64) -> Option<Fault> {
        if let Some((_, fault)) = self.pins.iter().find(|(pinned, _)| pinned == node) {
            return Some(*fault);
        }
        let mut mix = self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        mix = mix.wrapping_mul(0xBF58_476D_1CE4_E5B9).wrapping_add(pd_common::fx_hash64(node));
        mix = mix.wrapping_mul(0x94D0_49BB_1331_11EB).wrapping_add(query);
        let mut rng = Rng::seed_from_u64(mix);
        // A probability of zero consumes no stream position.
        let mut fires = |p: f64| p > 0.0 && rng.chance(p);
        let primary = node.starts_with('l') && node.ends_with('p');
        let refuse = primary && fires(self.refuse);
        let kill = fires(self.kill);
        let reset = fires(self.reset);
        let torn = fires(self.torn);
        let delay = fires(self.delay);
        let (lo, hi) =
            (self.delay_range.0.as_micros() as u64, self.delay_range.1.as_micros() as u64);
        let lag = Duration::from_micros(rng.range_u64(lo, hi.max(lo + 1)));
        [
            (refuse, Fault::Refuse),
            (kill, Fault::Kill),
            (reset, Fault::Reset),
            (torn, Fault::Torn),
            (delay, Fault::Delay(lag)),
        ]
        .into_iter()
        .find_map(|(fired, fault)| fired.then_some(fault))
    }
}

/// One cluster's relays: a private directory holding the plan file and a
/// launcher script that starts the relay on it. The launcher is what the
/// cluster spawns (`RpcConfig::worker_bin`), so no two clusters share a
/// plan. Dropping this removes the directory; relays still running then
/// read no plan and inject nothing.
pub struct Relays {
    dir: PathBuf,
}

static RELAYS: AtomicU64 = AtomicU64::new(0);

impl Relays {
    /// Relays running `relay` (a build of `relay.rs`) on `plan`.
    pub fn new(relay: &Path, plan: &Plan) -> Relays {
        let dir = std::env::temp_dir().join(format!(
            "pd-relays-{}-{}",
            std::process::id(),
            RELAYS.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("relay directory");
        let relays = Relays { dir };
        relays.set(plan);
        let script = format!(
            "#!/bin/sh\nexec '{}' --plan '{}' \"$@\"\n",
            relay.display(),
            relays.dir.join("plan").display()
        );
        let launcher = relays.launcher();
        std::fs::write(&launcher, script).expect("relay launcher");
        use std::os::unix::fs::PermissionsExt;
        std::fs::set_permissions(&launcher, std::fs::Permissions::from_mode(0o755))
            .expect("relay launcher mode");
        relays
    }

    /// The executable to spawn as a worker.
    pub fn launcher(&self) -> PathBuf {
        self.dir.join("worker")
    }

    /// Replace the plan; the relays read it at their next query. The file
    /// is renamed into place, so no relay reads half of it.
    pub fn set(&self, plan: &Plan) {
        let staged = self.dir.join("plan.next");
        std::fs::write(&staged, plan.to_text()).expect("stage the plan");
        std::fs::rename(&staged, self.dir.join("plan")).expect("install the plan");
    }
}

impl Drop for Relays {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A relay binary built beside the running executable (`pd-dist-relay`,
/// or the root package's `pd-relay`), as cargo lays out a target
/// directory for binaries, examples and benches.
pub fn built_relay() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let dirs = exe.ancestors().skip(1).take(3);
    dirs.flat_map(|dir| ["pd-dist-relay", "pd-relay"].map(|name| dir.join(name)))
        .find(|candidate| candidate.is_file())
}
