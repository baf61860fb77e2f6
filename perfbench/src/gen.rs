//! Seeded workload inputs.
//!
//! Every input is a pure function of `--seed`: the tables come from
//! `rpt-datagen`, the token ids from `rpt-tokenizer` (through the same
//! `RptC` encoder `rpt serve` uses), and the server only ever sees the
//! HTTP bytes built here.

use std::path::Path;

use rpt_core::corpus::{self, CorpusError, Manifest};
use rpt_core::{build_vocab, Blocker, CleaningConfig, RptC};
use rpt_datagen::{standard_benchmarks, ErBenchmark};
use rpt_rng::{SeedableRng, SliceRandom, SmallRng};
use rpt_table::Table;
use rpt_tokenizer::{TupleEncoder, Vocab};

/// Side-A rows of each generated ER benchmark behind the serve workload.
pub const SERVE_ROWS: usize = 60;
/// Vocabulary cap `rpt serve` and `rpt shard` build with.
pub const VOCAB_CAP: usize = 20_000;
/// Longest forced target of a `/v1/match` pair, tokens.
pub const MAX_TARGET: usize = 60;
/// Pairs in the fixed `/v1/match` set.
pub const MATCH_SET: usize = 1024;
/// Side-A rows of the benchmark `rpt shard` turns into a corpus (its
/// `--rows` default).
pub const SHARD_ROWS: usize = 50;
/// Tuples per corpus shard (`rpt shard --shard-size` default).
pub const SHARD_SIZE: usize = 64;

/// One generated `/v1/match` request (a teacher-forced pair score).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// JSON body.
    pub body: String,
}

impl Request {
    /// The request as keep-alive HTTP/1.1 bytes. `trace` adds the
    /// `x-rpt-trace: 1` header that asks for a stage-timing summary.
    pub fn http_bytes(&self, trace: bool) -> Vec<u8> {
        format!(
            "POST /v1/match HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n{}\r\n{}",
            self.body.len(),
            if trace { "x-rpt-trace: 1\r\n" } else { "" },
            self.body
        )
        .into_bytes()
    }
}

/// The generated ER benchmarks behind the serve workload.
pub fn serve_tables(seed: u64) -> Vec<ErBenchmark> {
    let mut rng = SmallRng::seed_from_u64(seed);
    standard_benchmarks(SERVE_ROWS, &mut rng).1
}

fn all_tables(benches: &[ErBenchmark]) -> Vec<&Table> {
    benches
        .iter()
        .flat_map(|b| [&b.table_a, &b.table_b])
        .collect()
}

/// The served vocabulary, built from the generated tables as `rpt serve`
/// builds it from its input file.
pub fn serve_vocab(benches: &[ErBenchmark]) -> Vocab {
    build_vocab(&all_tables(benches), &[], 1, VOCAB_CAP)
}

/// The model `rpt serve` builds (default `CleaningConfig`) over `vocab`,
/// with its deterministic initial weights.
pub fn serve_model(vocab: Vocab) -> RptC {
    RptC::new(vocab, CleaningConfig::default())
}

fn ids(v: &[usize]) -> String {
    let parts: Vec<String> = v.iter().map(|x| x.to_string()).collect();
    format!("[{}]", parts.join(","))
}

/// The fixed `/v1/match` set: blocked candidate pairs of every generated
/// benchmark, `src` = left tuple, `targets` = right tuple (at most
/// [`MAX_TARGET`] tokens), shuffled and cut to [`MATCH_SET`] pairs.
pub fn match_requests(model: &RptC, benches: &[ErBenchmark], rng: &mut SmallRng) -> Vec<Request> {
    let encoder: &TupleEncoder = model.encoder();
    let max_cols = model.config().model.max_cols;
    let mut out = Vec::new();
    for bench in benches {
        let (a, b) = (&bench.table_a, &bench.table_b);
        for (i, j) in Blocker::default().candidates(a, b) {
            let src = encoder.encode_tuple(a.schema(), a.row(i));
            let mut targets = encoder.encode_tuple(b.schema(), b.row(j)).ids;
            targets.truncate(MAX_TARGET);
            if src.cols.iter().any(|&c| c >= max_cols) {
                continue;
            }
            let body = format!(
                r#"{{"src":{},"cols":{},"targets":{}}}"#,
                ids(&src.ids),
                ids(&src.cols),
                ids(&targets)
            );
            out.push(Request { body });
        }
    }
    out.shuffle(rng);
    out.truncate(MATCH_SET);
    out
}

/// Writes the corpus `rpt shard --seed <seed>` writes (its other flags at
/// their defaults) into `dir`.
pub fn write_shard_corpus(dir: &Path, seed: u64) -> Result<Manifest, CorpusError> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let (_universe, mut benches) = standard_benchmarks(SHARD_ROWS, &mut rng);
    let b = benches.remove(0);
    let tables = [b.table_a, b.table_b];
    let refs: Vec<&Table> = tables.iter().collect();
    let vocab = build_vocab(&refs, &[], 1, VOCAB_CAP);
    let encoder = TupleEncoder::new(vocab.clone(), Default::default());
    let examples = corpus::encode_tables(&encoder, &refs);
    let shards = corpus::split_shards(examples, SHARD_SIZE);
    std::fs::create_dir_all(dir)?;
    corpus::write_corpus(dir, &shards, &vocab)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every byte the serve workload sends for `seed`.
    fn request_stream(seed: u64) -> Vec<u8> {
        let benches = serve_tables(seed);
        let model = serve_model(serve_vocab(&benches));
        let mut rng = SmallRng::seed_from_u64(seed);
        match_requests(&model, &benches, &mut rng)
            .iter()
            .flat_map(|r| r.http_bytes(true))
            .collect()
    }

    #[test]
    fn request_bytes_are_a_pure_function_of_the_seed() {
        let a = request_stream(7);
        assert!(!a.is_empty());
        assert_eq!(a, request_stream(7), "same seed, different bytes");
        assert_ne!(a, request_stream(8), "different seeds, same bytes");
    }

    #[test]
    fn match_requests_are_valid_and_follow_the_spec() {
        let benches = serve_tables(3);
        let model = serve_model(serve_vocab(&benches));
        let pairs = match_requests(&model, &benches, &mut SmallRng::seed_from_u64(3));
        assert_eq!(pairs.len(), MATCH_SET);
        let cfg = &model.config().model;
        for r in &pairs {
            let spec = rpt_serve::api::parse_match(r.body.as_bytes(), cfg);
            assert!(spec.is_ok(), "{}", r.body);
        }
    }
}
