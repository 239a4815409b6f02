//! clickbench — the repo's click-latency benchmark.
//!
//! ```text
//! cargo run --release --manifest-path clickbench/Cargo.toml -- \
//!     --workload <scan_cold|drill_local|drill_tree|ingest_serve|all> \
//!     [--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke]
//! ```
//!
//! One process replays one workload as one closed-loop client, checks the
//! answers and prints every metric by name with its unit; the last line of
//! standard output is the result object. `--workload all` runs the four
//! workloads one after the other, each in a process of its own. See
//! `README.md` for what is measured and why.

mod gen;
mod hygiene;
mod layers;
mod report;
mod run;
mod stats;
mod trace;
mod traced;
mod verify;

use report::Stamp;
use run::{Sizes, Workload};
use std::process::ExitCode;

struct Args {
    /// `None`: all four, one child process each.
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

const USAGE: &str =
    "usage: clickbench --workload <scan_cold|drill_local|drill_tree|ingest_serve|all> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke]";

/// `run_seconds` of `BENCHMARK.json`: what the fixed work of
/// `Sizes::full` is sized for on a 2-core box.
const DEFAULT_SECONDS: f64 = 20.0;

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: run::DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
    };
    let mut named = false;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                named = true;
                args.workload = match name.as_str() {
                    "all" => None,
                    name => {
                        Some(Workload::parse(name).ok_or(format!("unknown workload `{name}`"))?)
                    }
                };
            }
            "--seed" => {
                args.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !named {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// The `answers <fingerprint>` note of a run's output.
fn answers_of(stdout: &str) -> Option<&str> {
    stdout.lines().find_map(|line| line.split_once("] answers ")).map(|(_, hex)| hex.trim())
}

/// Run each workload in a child process of this binary, passing its
/// output through. `drill_tree` replays `drill_local`'s inputs byte for
/// byte, so their answer fingerprints must be equal.
fn run_all(args: &Args) -> ExitCode {
    let mut ok = true;
    let mut answers = Vec::new();
    for workload in Workload::ALL {
        let mut command = std::process::Command::new(std::env::current_exe().expect("own path"));
        command
            .args(["--workload", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit());
        if args.smoke {
            command.arg("--smoke");
        }
        match command.output() {
            Ok(output) => {
                let stdout = String::from_utf8_lossy(&output.stdout);
                print!("{stdout}");
                answers.push(answers_of(&stdout).map(str::to_owned));
                if !output.status.success() {
                    eprintln!("clickbench: {} ended with {}", workload.name(), output.status);
                    ok = false;
                }
            }
            Err(e) => {
                eprintln!("clickbench: cannot start {}: {e}", workload.name());
                return ExitCode::FAILURE;
            }
        }
    }
    let of =
        |w: Workload| answers[Workload::ALL.iter().position(|x| *x == w).expect("listed")].clone();
    let (local, tree) = (of(Workload::DrillLocal), of(Workload::DrillTree));
    if local.is_none() || local != tree {
        eprintln!("clickbench: drill_local answers {local:?} differ from drill_tree's {tree:?}");
        ok = false;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_one(workload: Workload, args: &Args) -> ExitCode {
    let stale = hygiene::live_workers();
    if !stale.is_empty() {
        eprintln!(
            "clickbench: worker processes of this binary are already alive (pids {stale:?}); \
             their CPU time would be charged to this run — stop them first"
        );
        return ExitCode::from(3);
    }
    let run_dir = match hygiene::RunDir::create() {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("clickbench: cannot create the run directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Before the first engine call: the engine resolves this once.
    std::env::set_var("EXEC_THREADS", run::engine_threads().to_string());

    let sizes = if args.smoke { Sizes::smoke(workload) } else { Sizes::full(workload) };
    let mut stamp = Stamp {
        workload: workload.name(),
        mode: match (args.smoke, args.trace) {
            (true, true) => "smoke-traced",
            (true, false) => "smoke",
            (false, true) => "traced",
            (false, false) => "untraced",
        },
        seed: args.seed,
        rows: sizes.rows,
        clicks: 0,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        threads: run::engine_threads(),
        rev: report::git_rev(),
    };
    let ticks_before = hygiene::cpu_ticks();
    let mut outcome = if args.trace {
        traced::run_traced(workload, &sizes, args.seed, &mut stamp)
    } else {
        run::run_untraced(workload, &sizes, args.seed, args.seconds, &mut stamp)
    };
    drop(run_dir);
    // A run made while the host was oversubscribed gives itself away.
    if let (Ok(outcome), Some((stolen0, total0)), Some((stolen1, total1))) =
        (&mut outcome, ticks_before, hygiene::cpu_ticks())
    {
        outcome.notes.push(format!(
            "host: {:.1} % of this machine's CPU time was stolen during the run",
            100.0 * (stolen1 - stolen0) as f64 / (total1 - total0).max(1) as f64
        ));
    }

    // Every cluster was dropped inside the run; a worker still alive now
    // escaped its `ReapGuard`.
    let leaked = hygiene::live_workers();
    if !leaked.is_empty() {
        eprintln!("clickbench: worker processes outlived the run: pids {leaked:?}");
        return ExitCode::from(4);
    }
    match outcome {
        Ok(outcome) => {
            report::print(&stamp, &outcome);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("clickbench: {}: {e}", workload.name());
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // The tree workloads re-execute this binary as their worker processes.
    if argv.first().is_some_and(|a| a == "--listen") {
        hygiene::exit_when_orphaned();
        return ExitCode::from(powerdrill::dist::worker::worker_main() as u8);
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("clickbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(workload) => run_one(workload, &args),
        None => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        parse_args(&argv)
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let args = parse("--workload drill_tree --seed 7 --seconds 15 --trace 1").unwrap();
        assert_eq!(args.workload, Some(Workload::DrillTree));
        assert_eq!((args.seed, args.seconds, args.trace, args.smoke), (7, 15.0, true, false));
        let all = parse("--workload all --smoke").unwrap();
        assert_eq!((all.workload, all.seed, all.smoke), (None, run::DEFAULT_SEED, true));
        assert!(!all.trace);
    }

    #[test]
    fn finds_the_answers_note_of_a_run() {
        let stdout = "[clickbench drill_tree smoke seed=3] inputs 00ff\n\
                      [clickbench drill_tree smoke seed=3] answers 0123456789abcdef\n{}\n";
        assert_eq!(answers_of(stdout), Some("0123456789abcdef"));
        assert_eq!(answers_of("{}\n"), None);
    }

    #[test]
    fn rejects_what_it_does_not_understand() {
        assert!(parse("").is_err());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload scan_cold --trace yes").is_err());
        assert!(parse("--workload scan_cold --seconds -1").is_err());
        assert!(parse("--workload scan_cold --seed").is_err());
        assert!(parse("--workload scan_cold --frobnicate").is_err());
    }
}
