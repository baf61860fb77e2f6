//! The `pretrain_stream` workload: what `rpt pretrain <corpus>
//! --checkpoint-dir <dir> --progress` runs with its defaults (400 steps,
//! batch 16, micro-batch 4, accum 1, prefetch on, a train-state
//! checkpoint every 40 steps), over the corpus `rpt shard` writes for the
//! seed. Metrics stay off, as they do without `--metrics-out`.
//!
//! Step timing comes from the `rpt::progress` records the training loop
//! logs every 20 steps (`--progress`): each record's timestamp lands in a
//! JSON-lines sink, so no thread of the benchmark runs beside training.

use std::path::Path;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use rpt_core::corpus::{ShardSource, StreamCursor};
use rpt_core::{CheckpointOpts, CleaningConfig, DiskCorpus, RptC, StreamOpts, TrainOpts, Trainer};
use rpt_json::Json;
use rpt_nn::Ctx;
use rpt_rng::{Rng, SeedableRng, SmallRng};
use rpt_tensor::serialize;
use rpt_tokenizer::{EncodedTuple, Vocab, BOS, EOS, PAD};

use crate::report::Metrics;
use crate::stats;
use crate::{gen, host, Outcome, Phase, RunOpts};

/// `rpt pretrain --steps` default.
pub const STEPS: usize = 400;
/// `rpt pretrain --batch-size` default.
const BATCH: usize = 16;
/// `rpt pretrain --micro-batch` default.
const MICRO_BATCH: usize = 4;
/// Steps between two `rpt::progress` records (`pretrain_stream` logs
/// every `steps / 20`): one timing window.
const PROGRESS_EVERY: usize = STEPS / 20;
/// Steps between two train-state checkpoints (`rpt pretrain` saves every
/// `steps / 10`).
const CHECKPOINT_EVERY: usize = STEPS / 10;
/// Nominal length of one job: a run trains `round(--seconds / 15)` whole
/// jobs (at least one). The count never depends on measured speed, so
/// every run of a given `--seconds` does the same work.
const JOB_SECONDS: f64 = 15.0;
/// Limit on a window's mean step time for `slo_frac`, ms: 1.4–1.6× a
/// window that carries a checkpoint write on the reference host, so a
/// host slow spell stays inside it and ~1.6× slower steps fall outside.
pub const STEP_SLO_MS: f64 = 75.0;
/// Set-ups per run (each a few ms); `setup_s` is their median.
const SETUP_REPS: usize = 21;
/// Idle time before each set-up.
const SETUP_PAUSE: Duration = Duration::from_millis(20);
/// Optimizer steps replayed through the layers in the traced run.
const REPLAY_STEPS: usize = 20;

/// The `CleaningConfig` `rpt pretrain` builds from its flags.
fn config() -> CleaningConfig {
    CleaningConfig {
        train: TrainOpts {
            steps: STEPS,
            batch_size: BATCH,
            micro_batch: MICRO_BATCH,
            warmup: (STEPS / 10).max(1),
            peak_lr: 3e-3,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Corpus open + vocabulary check + model init, as `rpt pretrain` does
/// them before its first step. Each set-up starts after a short idle
/// pause, as a fresh `rpt pretrain` starts without the previous set-up's
/// warm caches: on the reference host the median of back-to-back set-ups
/// moved by ±30 % from one process to the next, after a pause by ±7 %.
fn setup(corpus: &Path) -> Result<(DiskCorpus, RptC, Duration), String> {
    std::thread::sleep(SETUP_PAUSE);
    let t = Instant::now();
    let mut disk = DiskCorpus::open(corpus).map_err(|e| format!("corpus: {e}"))?;
    let vocab = disk.vocab().map_err(|e| format!("corpus: {e}"))?;
    let model = RptC::new(vocab, config());
    Ok((disk, model, t.elapsed()))
}

fn setup_repeatedly(corpus: &Path, reps: usize) -> Result<(DiskCorpus, RptC, Vec<f64>), String> {
    let mut times = Vec::new();
    loop {
        let (disk, model, t) = setup(corpus)?;
        times.push(t.as_secs_f64());
        if times.len() == reps {
            return Ok((disk, model, times));
        }
    }
}

/// One full `rpt pretrain` job.
struct Job {
    losses: Vec<f32>,
    /// Mean step time of each progress window, ms: window `k` ends at the
    /// record logged after step `(k + 1) * PROGRESS_EVERY`; the first
    /// starts at the `pretrain_stream` call. A checkpoint is written right
    /// after the record of every `CHECKPOINT_EVERY`-th step, so it falls
    /// in the window that follows that record.
    window_ms: Vec<f64>,
    /// Wall time of the `pretrain_stream` call, s: every step and every
    /// checkpoint write.
    wall_s: f64,
}

fn unix_ms() -> f64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or_default()
        .as_secs_f64()
        * 1e3
}

/// Turns on the `rpt::progress` records, as `rpt pretrain --progress`
/// does, and sends them to a fresh JSON-lines sink at `sink`.
fn log_progress_to(sink: &Path) -> Result<(), String> {
    let mut filter = std::env::var("RPT_LOG")
        .map(|s| rpt_obs::Filter::parse(&s))
        .unwrap_or_default();
    filter
        .directives
        .push(("rpt::progress".to_string(), rpt_obs::LEVEL_INFO));
    rpt_obs::set_filter(filter);
    rpt_obs::set_json_sink(sink).map_err(|e| format!("progress sink: {e}"))
}

/// Timestamps (unix ms) of the `step N/STEPS` progress records in `sink`,
/// checked to be the records of steps `PROGRESS_EVERY`, `2 *
/// PROGRESS_EVERY`, … `STEPS` in order.
fn progress_times(sink: &Path) -> Result<Vec<f64>, String> {
    let text = std::fs::read_to_string(sink).map_err(|e| format!("progress sink: {e}"))?;
    let mut times = Vec::new();
    for line in text.lines() {
        let rec = Json::parse(line).map_err(|e| format!("progress record: {e}"))?;
        if rec.get("target").and_then(Json::as_str) != Some("rpt::progress") {
            continue;
        }
        let step = rec
            .get("msg")
            .and_then(Json::as_str)
            .and_then(|m| m.strip_prefix("step "))
            .and_then(|m| m.split('/').next())
            .and_then(|n| n.parse::<usize>().ok());
        if step != Some((times.len() + 1) * PROGRESS_EVERY) {
            return Err(format!("unexpected progress record {line}"));
        }
        let ts = rec.get("ts_unix_ms").and_then(Json::as_f64);
        times.push(ts.ok_or_else(|| format!("progress record without time: {line}"))?);
    }
    if times.len() != STEPS / PROGRESS_EVERY {
        return Err(format!(
            "{} progress record(s), expected {}",
            times.len(),
            STEPS / PROGRESS_EVERY
        ));
    }
    Ok(times)
}

/// Runs `model.pretrain_stream` over `disk` exactly as `rpt pretrain
/// --checkpoint-dir ckpt --progress` does; `sink` receives the progress
/// records.
fn train(model: &mut RptC, disk: DiskCorpus, ckpt: &Path, sink: &Path) -> Result<Job, String> {
    std::fs::create_dir_all(ckpt).map_err(|e| format!("checkpoint dir: {e}"))?;
    let checkpoint = CheckpointOpts {
        dir: ckpt.into(),
        every: CHECKPOINT_EVERY,
    };
    log_progress_to(sink)?;
    let start = unix_ms();
    let wall = Instant::now();
    let losses = model
        .pretrain_stream(
            Box::new(disk),
            &StreamOpts::default(),
            Some(&checkpoint),
            None,
        )
        .map_err(|e| format!("pretrain_stream: {e}"))?;
    let wall_s = wall.elapsed().as_secs_f64();
    let mut prev = start;
    let mut window_ms = Vec::with_capacity(STEPS / PROGRESS_EVERY);
    for t in progress_times(sink)? {
        window_ms.push((t - prev) / PROGRESS_EVERY as f64);
        prev = t;
    }
    Ok(Job {
        losses,
        window_ms,
        wall_s,
    })
}

/// Source + target tokens one job trains. The examples `pretrain_stream`
/// draws are masked again, untimed, by the same call on the same
/// per-shard masking streams (a `StreamCursor` from the corpus start),
/// `BATCH` maskable examples per step as accum 1 gathers them.
fn job_tokens(corpus: &Path, model: &RptC) -> Result<u64, String> {
    let disk = DiskCorpus::open(corpus).map_err(|e| format!("corpus: {e}"))?;
    let mask_seed = model.config().seed.wrapping_add(2);
    let mut cursor = StreamCursor::start(Box::new(disk), false, mask_seed, 0, 0, 0, None)
        .map_err(|e| format!("corpus: {e}"))?;
    let mut tokens = 0u64;
    for _ in 0..STEPS {
        let (mut pairs, mut drawn) = (0, 0);
        while pairs < BATCH && drawn < BATCH * 20 {
            drawn += 1;
            let encoded = cursor.next().map_err(|e| format!("corpus: {e}"))?;
            if let Some((src, tgt)) = model.pair_from_encoded(&encoded, None, cursor.rng_mut()) {
                tokens += (src.ids.len() + tgt.len()) as u64;
                pairs += 1;
            }
        }
    }
    Ok(tokens)
}

/// The pretraining checks: finite losses, a final loss below the first,
/// and a last train-state checkpoint that loads back.
fn check(job: &Job, ckpt: &Path, vocab: Vocab, out: &mut Outcome) -> Phase {
    let mut phase = Phase::new("train");
    phase.sent = job.losses.len() as u64;
    phase.ok = job.losses.iter().filter(|l| l.is_finite()).count() as u64;
    phase.errors = phase.sent - phase.ok;
    if job.losses.len() != STEPS {
        out.invalid(format!(
            "trained {} step(s), expected {STEPS}",
            job.losses.len()
        ));
    }
    if phase.errors > 0 {
        out.invalid(format!("{} non-finite loss(es)", phase.errors));
    }
    match (job.losses.first(), job.losses.last()) {
        (Some(first), Some(last)) if last < first => {}
        (first, last) => out.invalid(format!(
            "final loss {last:?} is not below the first {first:?}"
        )),
    }
    let mut fresh = RptC::new(vocab, config());
    if let Err(e) = serialize::load_train_file(
        &mut fresh.params,
        ckpt.join(rpt_core::train::TRAIN_STATE_FILE),
    ) {
        out.invalid(format!("last train_state.json does not load: {e}"));
    }
    phase
}

/// The dark run: end-to-end metrics.
pub fn run(opts: &RunOpts, work: &Path) -> Result<Outcome, String> {
    let corpus = work.join("corpus");
    gen::write_shard_corpus(&corpus, opts.seed).map_err(|e| format!("shard: {e}"))?;
    let (_, model, mut setup_s) = setup_repeatedly(&corpus, SETUP_REPS - 1)?;
    let tokens_per_pair = job_tokens(&corpus, &model)? as f64 / (STEPS * BATCH) as f64;
    let mut out = Outcome::default();
    let n_jobs = ((opts.seconds / JOB_SECONDS).round() as usize).max(1);
    let mut jobs: Vec<Job> = Vec::new();
    while jobs.len() < n_jobs {
        let (disk, mut model, t) = setup(&corpus)?;
        setup_s.push(t.as_secs_f64());
        let ckpt = work.join(format!("ckpt{}", jobs.len()));
        let sink = work.join(format!("progress{}.jsonl", jobs.len()));
        let job = train(&mut model, disk, &ckpt, &sink)?;
        let vocab = model.encoder().vocab().clone();
        let phase = check(&job, &ckpt, vocab, &mut out);
        out.phases.push(phase);
        jobs.push(job);
    }
    let window_ms: Vec<f64> = jobs
        .iter()
        .flat_map(|j| j.window_ms.iter().copied())
        .collect();
    let wall_s: f64 = jobs.iter().map(|j| j.wall_s).sum();
    let pairs_per_s = (jobs.len() * STEPS * BATCH) as f64 / wall_s;
    let tail = stats::tail(&window_ms);
    let within = window_ms.iter().filter(|&&t| t <= STEP_SLO_MS).count();
    let ok: u64 = out.phases.iter().map(|p| p.ok).sum();
    let attempted: u64 = out.phases.iter().map(|p| p.sent).sum();
    let m = &mut out.metrics;
    m.set("setup_s", stats::median(&setup_s));
    m.set("p50_ms", stats::median(&window_ms));
    m.set("p99_ms", tail.value);
    m.set("pairs_per_s", pairs_per_s);
    m.set("tok_s", pairs_per_s * tokens_per_pair);
    m.set("slo_frac", within as f64 / window_ms.len() as f64);
    m.set("ok_frac", ok as f64 / attempted.max(1) as f64);
    m.set("peak_rss_mb", host::peak_rss_mb());
    out.note("tail_percentile", tail.percentile);
    out.note("latency_samples", tail.samples as f64);
    out.note("jobs", jobs.len() as f64);
    out.note("train_wall_s", wall_s);
    out.note("tokens_per_pair", tokens_per_pair);
    out.note(
        "final_loss",
        *jobs[0].losses.last().unwrap_or(&f32::NAN) as f64,
    );
    out.note("slo_ms", STEP_SLO_MS);
    Ok(out)
}

/// The traced run: per-layer metrics.
pub fn run_traced(opts: &RunOpts, work: &Path) -> Result<Outcome, String> {
    let corpus = work.join("corpus");
    gen::write_shard_corpus(&corpus, opts.seed).map_err(|e| format!("shard: {e}"))?;
    let mut out = Outcome::default();

    // A dark job, then the same job with metrics and tracing on.
    let (disk, mut model, _) = setup(&corpus)?;
    let vocab = model.encoder().vocab().clone();
    let tokens = job_tokens(&corpus, &model)?;
    let dark = train(
        &mut model,
        disk,
        &work.join("ckpt-dark"),
        &work.join("dark.jsonl"),
    )?;
    let phase = check(&dark, &work.join("ckpt-dark"), vocab.clone(), &mut out);
    out.phases.push(phase);
    let (disk, mut model, _) = setup(&corpus)?;
    rpt_obs::set_metrics_enabled(true);
    rpt_obs::set_trace_enabled(true);
    let trained = rpt_obs::counter("train.tokens");
    let t0 = trained.value();
    let traced = train(
        &mut model,
        disk,
        &work.join("ckpt-traced"),
        &work.join("traced.jsonl"),
    );
    rpt_obs::set_trace_enabled(false);
    let traced = traced?;
    let overlap = rpt_obs::gauge("corpus.overlap_ratio").value();
    let phase = check(&traced, &work.join("ckpt-traced"), vocab.clone(), &mut out);
    out.phases.push(phase);
    if traced
        .losses
        .iter()
        .map(|l| l.to_bits())
        .ne(dark.losses.iter().map(|l| l.to_bits()))
    {
        out.invalid("traced training diverged from the dark run".into());
    }
    if trained.value() - t0 != tokens {
        out.invalid(format!(
            "train.tokens counted {} tokens, the benchmark's own count is {tokens}",
            trained.value() - t0
        ));
    }
    let (dark_p50, traced_p50) = (
        stats::median(&dark.window_ms),
        stats::median(&traced.window_ms),
    );
    let r = replay(&corpus, vocab, opts.seed, &work.join("ckpt-replay"))?;
    let m = &mut out.metrics;
    m.set("corpus.overlap_ratio", overlap);
    m.set(
        "train.final_loss",
        *dark.losses.last().unwrap_or(&0.0) as f64,
    );
    m.set(
        "trace.overhead_pct",
        (traced_p50 - dark_p50) / dark_p50 * 100.0,
    );
    r.record(m);
    let mut phase = Phase::new("replay");
    phase.sent = REPLAY_STEPS as u64;
    phase.ok = r.finite_losses as u64;
    phase.errors = phase.sent - phase.ok;
    out.phases.push(phase);
    Ok(out)
}

/// Per-call timings of the training replay.
#[derive(Debug, Default)]
struct Replay {
    load_ms: Vec<f64>,
    mask_s: Vec<f64>,
    fwd_s: Vec<f64>,
    micro_s: Vec<f64>,
    micro_global_s: Vec<f64>,
    opt_s: Vec<f64>,
    tape_nodes: u64,
    matmul_calls: u64,
    madds: u64,
    tokens: u64,
    save_ms: f64,
    save_bytes: u64,
    load_ckpt_ms: f64,
    logit_gflops: f64,
    wall_s: f64,
    finite_losses: usize,
}

impl Replay {
    fn record(&self, m: &mut Metrics) {
        let steps = REPLAY_STEPS as f64;
        let fwd_ms = self.fwd_s.iter().sum::<f64>() * 1e3 / steps;
        let micro_ms = self.micro_s.iter().sum::<f64>() * 1e3 / steps;
        m.set("corpus.load_ms", stats::mean(&self.load_ms));
        m.set("train.mask_us", stats::mean(&self.mask_s) * 1e6);
        m.set("train.fwd_ms", fwd_ms);
        m.set("train.bwd_ms", micro_ms - fwd_ms);
        m.set("train.opt_ms", stats::mean(&self.opt_s) * 1e3);
        m.set(
            "train.par_speedup",
            self.micro_s.iter().sum::<f64>() / self.micro_global_s.iter().sum::<f64>(),
        );
        m.set("tensor.tape_nodes_per_step", self.tape_nodes as f64 / steps);
        m.set(
            "kernel.matmul_calls_per_step",
            self.matmul_calls as f64 / steps,
        );
        m.set(
            "kernel.madds_per_tok",
            self.madds as f64 / self.tokens.max(1) as f64,
        );
        m.set("kernel.logit_gflops", self.logit_gflops);
        m.set("ckpt.save_ms", self.save_ms);
        m.set("ckpt.save_bytes", self.save_bytes as f64);
        m.set("ckpt.load_ms", self.load_ckpt_ms);
        let timed: f64 = [
            &self.mask_s,
            &self.micro_s,
            &self.micro_global_s,
            &self.opt_s,
        ]
        .iter()
        .map(|v| v.iter().sum::<f64>())
        .sum::<f64>()
            + self.load_ms.iter().sum::<f64>() / 1e3;
        m.set("replay.unaccounted_frac", 1.0 - timed / self.wall_s);
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Replays [`REPLAY_STEPS`] optimizer steps through the layers' public
/// calls: shard loads, masking, the forward closure handed to
/// `Trainer::accum_micro_step` (1-thread pool, so micro-step wall minus
/// forward is backward), `Trainer::accum_apply`, the same micro-step on
/// the global pool (parallel speed-up), and one checkpoint save and load.
fn replay(corpus: &Path, vocab: Vocab, seed: u64, ckpt_dir: &Path) -> Result<Replay, String> {
    let mut r = Replay::default();
    let wall = Instant::now();
    let mut disk = DiskCorpus::open(corpus).map_err(|e| format!("corpus: {e}"))?;
    let mut examples: Vec<EncodedTuple> = Vec::new();
    for i in 0..disk.manifest().shards.len() {
        let t = Instant::now();
        let shard = disk.load_shard(i).map_err(|e| format!("shard {i}: {e}"))?;
        r.load_ms.push(secs(t) * 1e3);
        examples.extend(shard.iter().map(|e| e.to_encoded()));
    }
    let mut model = RptC::new(vocab, config());
    let cfg = model.config().clone();
    let mut trainer = Trainer::new(cfg.train.clone(), cfg.model.d_model);
    let mut probe = Trainer::new(cfg.train.clone(), cfg.model.d_model);
    let pool1 = rpt_par::ThreadPool::new(1);
    let mut rng = SmallRng::seed_from_u64(seed);
    let counter = |n: &str| rpt_obs::counter(n);
    let (nodes, calls, madds) = (
        counter("tensor.tape_nodes"),
        counter("tensor.matmul_calls"),
        counter("tensor.matmul_madds"),
    );
    let mut cursor = 0usize;
    let mut shard_tokens = Vec::new();
    for _ in 0..REPLAY_STEPS {
        let (mut srcs, mut tgts) = (Vec::with_capacity(BATCH), Vec::with_capacity(BATCH));
        while srcs.len() < BATCH {
            let enc = &examples[cursor % examples.len()];
            cursor += 1;
            let t = Instant::now();
            let pair = model.pair_from_encoded(enc, None, &mut rng);
            r.mask_s.push(secs(t));
            if let Some((s, g)) = pair {
                srcs.push(s);
                tgts.push(g);
            }
        }
        r.tokens += (srcs.iter().map(|s| s.ids.len()).sum::<usize>()
            + tgts.iter().map(Vec::len).sum::<usize>()) as u64;
        let shards = rpt_nn::make_denoising_shards_indexed(
            &srcs,
            &tgts,
            cfg.model.max_len,
            PAD,
            BOS,
            EOS,
            MICRO_BATCH,
            rng.gen(),
            0,
        );
        shard_tokens.extend(shards.iter().map(|s| s.tgt_out.len()));
        let fwd_ns = std::sync::atomic::AtomicU64::new(0);
        let (seq2seq, params) = model.decode_parts();
        let forward = |tape: &rpt_tensor::Tape,
                       params: &mut rpt_tensor::ParamStore,
                       shard: &rpt_nn::DenoisingShard| {
            let t = Instant::now();
            let mut rng = SmallRng::seed_from_u64(shard.seed);
            let mut ctx = Ctx::new(tape, params, &mut rng, true);
            let loss = seq2seq.reconstruction_loss(
                &mut ctx,
                &shard.src,
                &shard.tgt_in,
                &shard.tgt_out,
                PAD,
            );
            fwd_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
            loss
        };
        let (n0, c0, a0) = (nodes.value(), calls.value(), madds.value());
        let t = Instant::now();
        trainer.accum_micro_step(&pool1, params, &shards, |s| s.weight as f32, forward);
        r.micro_s.push(secs(t));
        r.fwd_s.push(fwd_ns.load(Ordering::Relaxed) as f64 / 1e9);
        let t = Instant::now();
        let loss = trainer.accum_apply(params);
        r.opt_s.push(secs(t));
        r.tape_nodes += nodes.value() - n0;
        r.matmul_calls += calls.value() - c0;
        r.madds += madds.value() - a0;
        if loss.is_finite() {
            r.finite_losses += 1;
        }
        let t = Instant::now();
        probe.accum_micro_step(
            rpt_par::ThreadPool::global(),
            params,
            &shards,
            |s| s.weight as f32,
            forward,
        );
        r.micro_global_s.push(secs(t));
        probe.clear_pending();
    }
    r.wall_s = secs(wall);

    std::fs::create_dir_all(ckpt_dir).map_err(|e| format!("checkpoint dir: {e}"))?;
    let path = ckpt_dir.join(rpt_core::train::TRAIN_STATE_FILE);
    let written = rpt_obs::counter("ckpt.bytes_written");
    let b0 = written.value();
    let t = Instant::now();
    trainer
        .save_checkpoint(&model.params, vec![("model".into(), rng.state())], &path)
        .map_err(|e| format!("save checkpoint: {e}"))?;
    r.save_ms = secs(t) * 1e3;
    r.save_bytes = written.value() - b0;
    let t = Instant::now();
    serialize::load_train_file(&mut model.params, &path)
        .map_err(|e| format!("load checkpoint: {e}"))?;
    r.load_ckpt_ms = secs(t) * 1e3;

    let rows = (shard_tokens.iter().sum::<usize>() / shard_tokens.len().max(1)).max(1);
    let (seq2seq, params) = model.decode_parts();
    let (gflops, _) = crate::serve::kernel_probe(seq2seq, params, rows);
    r.logit_gflops = gflops;
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn progress_times_reads_the_step_records_in_order() {
        let sink = std::env::temp_dir().join(format!("perfbench-progress-{}", std::process::id()));
        let record = |step: usize| {
            format!(
                r#"{{"ts_unix_ms":{},"level":"INFO","target":"rpt::progress","msg":"step {step}/{STEPS} loss 2.5"}}"#,
                1000 + step
            )
        };
        let mut lines: Vec<String> = (1..=STEPS / PROGRESS_EVERY)
            .map(|k| record(k * PROGRESS_EVERY))
            .collect();
        lines.insert(
            3,
            r#"{"ts_unix_ms":5,"level":"WARN","target":"rpt_core","msg":"x"}"#.into(),
        );
        std::fs::write(&sink, lines.join("\n")).unwrap();
        let times = progress_times(&sink).unwrap();
        assert_eq!(times.len(), STEPS / PROGRESS_EVERY);
        assert_eq!((times[0], times[19]), (1020.0, 1400.0));
        lines.remove(5);
        std::fs::write(&sink, lines.join("\n")).unwrap();
        assert!(
            progress_times(&sink).is_err(),
            "a missing record is an error"
        );
        std::fs::remove_file(&sink).unwrap();
    }
}
