//! What a run prints: one stamped line per metric, then the result object
//! the driver reads as the last line of standard output.

/// One named number with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count or definition detail, shown beside the value.
    pub note: String,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit, note: String::new() }
    }

    pub fn note(mut self, note: String) -> Metric {
        self.note = note;
        self
    }
}

/// The result of one run.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
    /// Free-form lines printed before the metrics.
    pub notes: Vec<String>,
}

/// What every output line is stamped with: enough to tell which machine,
/// inputs and commit a number came from.
pub struct Stamp {
    pub workload: &'static str,
    pub mode: &'static str,
    pub seed: u64,
    pub rows: usize,
    pub clicks: usize,
    pub nproc: usize,
    pub threads: usize,
    pub rev: String,
}

impl Stamp {
    fn prefix(&self) -> String {
        format!(
            "[clickbench {} {} seed={} rows={} clicks={} nproc={} threads={} rev={}]",
            self.workload,
            self.mode,
            self.seed,
            self.rows,
            self.clicks,
            self.nproc,
            self.threads,
            self.rev
        )
    }
}

/// `git rev-parse --short HEAD`, or `nogit` outside a repository (the
/// driver's checkout is not one).
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "nogit".to_owned())
}

/// The driver's result object: exactly `correct`, `attempted`, `failed`
/// and `metrics`, each value with all its digits.
pub fn result_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

pub fn print(stamp: &Stamp, outcome: &Outcome) {
    let prefix = stamp.prefix();
    for note in &outcome.notes {
        println!("{prefix} {note}");
    }
    for m in &outcome.metrics {
        let note = if m.note.is_empty() { String::new() } else { format!("  ({})", m.note) };
        println!("{prefix} {} = {} {}{note}", m.name, m.value, m.unit);
    }
    println!(
        "{prefix} attempted={} failed={} correct={}",
        outcome.attempted,
        outcome.failed,
        outcome.failed == 0
    );
    println!("{}", result_json(outcome));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_object_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            attempted: 2_400,
            failed: 0,
            metrics: vec![
                Metric::new("click_p50_ms", 41.20375, "ms"),
                Metric::new("setup_s", 0.8127, "s").note("median of 3".into()),
            ],
            notes: Vec::new(),
        };
        assert_eq!(
            result_json(&outcome),
            "{\"correct\": true, \"attempted\": 2400, \"failed\": 0, \"metrics\": \
             {\"click_p50_ms\": {\"value\": 41.20375, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        let failed = Outcome { failed: 3, ..outcome };
        assert!(result_json(&failed)
            .starts_with("{\"correct\": false, \"attempted\": 2400, \"failed\": 3,"));
    }
}
