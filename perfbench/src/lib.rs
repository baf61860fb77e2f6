//! # rpt-perfbench
//!
//! One benchmark for `rpt serve` and `rpt pretrain` (see README.md):
//! two workloads driven through the public entry points, every
//! end-to-end metric printed by name and unit, every output checked, and a
//! traced run that replays the same inputs through each layer's public
//! calls for the per-layer breakdown.

pub mod client;
pub mod gen;
pub mod host;
pub mod pretrain;
pub mod report;
pub mod serve;
pub mod stats;

use rpt_json::{Json, Map};

use report::Metrics;

/// Command-line settings of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOpts {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the dark (end-to-end) run.
    pub trace: bool,
}

/// The runnable workloads, as `BENCHMARK.json` names them.
pub const WORKLOADS: [&str; 2] = ["match_bulk_int8", "pretrain_stream"];

impl RunOpts {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    pub fn parse(args: &[String]) -> Result<RunOpts, String> {
        let mut opts = RunOpts {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |_| format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => opts.workload = value.clone(),
                "--seed" => opts.seed = value.parse().map_err(bad)?,
                "--seconds" => {
                    opts.seconds = value
                        .parse()
                        .map_err(|_| format!("bad value {value:?} for {flag}"))?
                }
                "--trace" => {
                    opts.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad value {value:?} for {flag}")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !WORKLOADS.contains(&opts.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {}",
                WORKLOADS.join(", ")
            ));
        }
        if !(opts.seconds > 0.0 && opts.seconds <= 60.0) {
            return Err("--seconds must be in (0, 60]".into());
        }
        Ok(opts)
    }
}

/// Request counts of one phase of a run.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Phase name.
    pub name: &'static str,
    /// Requests sent (steps run, for training).
    pub sent: u64,
    /// Answered with 200 and a correct output.
    pub ok: u64,
    /// Non-200, non-503 answers (non-finite losses, for training).
    pub errors: u64,
    /// 503 answers.
    pub rejected: u64,
    /// Never answered (connection lost or drain timeout).
    pub dropped: u64,
    /// Answers that differ from single-request decoding.
    pub mismatches: u64,
}

impl Phase {
    /// An empty phase.
    pub fn new(name: &'static str) -> Self {
        Self {
            name,
            ..Default::default()
        }
    }

    fn to_json(&self) -> Json {
        let mut m = Map::new();
        m.insert("name".into(), Json::from(self.name));
        for (k, v) in [
            ("sent", self.sent),
            ("ok", self.ok),
            ("errors", self.errors),
            ("rejected_503", self.rejected),
            ("dropped", self.dropped),
            ("mismatches", self.mismatches),
        ] {
            m.insert(k.into(), Json::from(v));
        }
        Json::Object(m)
    }
}

/// What a run measured and whether it is valid.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values.
    pub metrics: Metrics,
    /// Per-phase counts.
    pub phases: Vec<Phase>,
    /// Extra figures for the result document (percentile used, sample
    /// counts, SLO limit, …).
    pub notes: Vec<(&'static str, f64)>,
    /// Reasons the run is not valid (an output mismatch or a
    /// failed training check). Empty = valid.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Adds a figure to the result document.
    pub fn note(&mut self, key: &'static str, value: f64) {
        self.notes.push((key, value));
    }

    /// Marks the run invalid.
    pub fn invalid(&mut self, reason: String) {
        self.problems.push(reason);
    }

    /// Requests (steps) attempted over all phases.
    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.sent).sum()
    }

    /// Attempts that did not succeed with a correct output.
    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.sent - p.ok).sum()
    }

    /// The full `rpt-perf-v1` result document: host stamp, phases, notes,
    /// problems and metrics.
    pub fn document(&self, opts: &RunOpts, set: &[report::MetricDef]) -> Json {
        let mut doc = Map::new();
        doc.insert("schema".into(), Json::from("rpt-perf-v1"));
        doc.insert(
            "host".into(),
            host::stamp(&opts.workload, opts.seed, opts.trace),
        );
        doc.insert("seconds".into(), Json::Float(opts.seconds));
        doc.insert("valid".into(), Json::Bool(self.problems.is_empty()));
        doc.insert(
            "problems".into(),
            Json::Array(self.problems.iter().map(Json::from).collect()),
        );
        doc.insert(
            "phases".into(),
            Json::Array(self.phases.iter().map(Phase::to_json).collect()),
        );
        let notes: Map = self
            .notes
            .iter()
            .map(|(k, v)| (k.to_string(), Json::Float(*v)))
            .collect();
        doc.insert("notes".into(), Json::Object(notes));
        doc.insert("metrics".into(), self.metrics.to_json(set));
        Json::Object(doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let o = RunOpts::parse(&args(&[
            "--workload",
            "match_bulk_int8",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(o.workload, "match_bulk_int8");
        assert_eq!((o.seed, o.seconds, o.trace), (42, 10.0, true));
        assert!(RunOpts::parse(&args(&["--workload", "nope"])).is_err());
        assert!(RunOpts::parse(&args(&["--workload", "pretrain_stream", "--trace", "2"])).is_err());
        assert!(RunOpts::parse(&args(&["--workload", "pretrain_stream", "--seed"])).is_err());
    }

    #[test]
    fn benchmark_json_names_exactly_the_runnable_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(names, WORKLOADS);
    }
}
