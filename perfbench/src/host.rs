//! Host facts stamped into every result document, and process memory.

use rpt_json::{Json, Map};

/// CPU model, kernel features, thread settings and source revision: two
/// results are comparable only when these match.
pub fn stamp(workload: &str, seed: u64, trace: bool) -> Json {
    let env = |k: &str| Json::from(std::env::var(k).unwrap_or_default());
    let mut m = Map::new();
    m.insert("workload".into(), Json::from(workload));
    m.insert("seed".into(), Json::from(seed));
    m.insert("trace".into(), Json::Bool(trace));
    m.insert("cpu_model".into(), Json::from(cpu_model()));
    m.insert(
        "cpu_features".into(),
        Json::from(rpt_tensor::simd::cpu_features()),
    );
    m.insert("nproc".into(), Json::from(nproc() as u64));
    m.insert("rpt_threads".into(), env("RPT_THREADS"));
    m.insert("rpt_simd".into(), env("RPT_SIMD"));
    m.insert("git_rev".into(), Json::from(git_rev()));
    Json::Object(m)
}

/// Hardware threads the load generator may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` in the working directory;
/// "unknown" when the tree is not a git checkout.
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or(head),
            None => head,
        },
        None => "unknown".into(),
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
