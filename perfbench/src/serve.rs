//! The `match_bulk_int8` workload: closed-loop `/v1/match` over a fixed
//! set of blocked candidate pairs, served with `--quant`.
//!
//! It loads the checkpoint exactly as `rpt serve --load --quant` loads it,
//! starts `rpt_serve::Server`, and talks to it over HTTP only.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rpt_core::{CleaningConfig, RptC};
use rpt_nn::{JobOutput, JobSpec, MicroBatcher, Seq2Seq};
use rpt_rng::{SeedableRng, SliceRandom, SmallRng};
use rpt_serve::{api, ServeConfig, Server};
use rpt_tensor::{serialize, ParamStore};
use rpt_tokenizer::Vocab;

use crate::client::{self, Sample};
use crate::gen::{self, Request};
use crate::report::Metrics;
use crate::stats;
use crate::{host, Outcome, Phase, RunOpts};

/// Latency limit for `slo_frac`, ms: about 1.4× the p99 latency on the
/// reference host, so a host slow spell stays inside it and a change that
/// makes the slowest tenth of requests ~2× slower falls outside.
pub const SLO_MS: f64 = 120.0;
/// Untimed warm-up before the measured phase, s.
const WARMUP_S: f64 = 1.0;
/// Server start-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Responses checked against single-request decoding (by body hash), per
/// measured window (a seeded sample; every response is shape-checked).
const CHECK_SAMPLE: usize = 64;
/// Requests replayed through the layers in the traced run.
const REPLAY_REQS: usize = 300;
/// Measured windows per dark run, driven one after another against the
/// same server. Latency and throughput are medians over the windows, so
/// a host slow spell (on a shared VM the same work swings by ±20 % from
/// one few-second span to the next) moves some windows rather than the
/// result. At 45 s a window holds about 1300 requests, enough for a p99
/// with 10 samples beyond it.
const WINDOWS: usize = 10;
const WINDOW_NAMES: [&str; WINDOWS] = [
    "window-1",
    "window-2",
    "window-3",
    "window-4",
    "window-5",
    "window-6",
    "window-7",
    "window-8",
    "window-9",
    "window-10",
];
/// Time allowed after the last send for outstanding responses.
const DRAIN: Duration = Duration::from_secs(20);

/// Everything generated before the server starts (untimed).
struct Prepared {
    vocab: Vocab,
    ckpt: PathBuf,
    cfg: rpt_nn::TransformerConfig,
    /// The fixed pair set, cycled.
    requests: Vec<Request>,
}

fn prepare(opts: &RunOpts, work: &Path) -> Result<Prepared, String> {
    let benches = gen::serve_tables(opts.seed);
    let vocab = gen::serve_vocab(&benches);
    let model = gen::serve_model(vocab.clone());
    let ckpt = work.join("model.json");
    serialize::save_file(&model.params, &ckpt).map_err(|e| format!("write checkpoint: {e}"))?;
    let requests = gen::match_requests(&model, &benches, &mut SmallRng::seed_from_u64(opts.seed));
    Ok(Prepared {
        vocab,
        ckpt,
        cfg: model.config().model.clone(),
        requests,
    })
}

/// Loads the checkpoint as `rpt serve --load [--quant]` does: the default
/// cleaning model over the vocabulary, the JSON checkpoint, and — under
/// `--quant` — the file's stored int8 section when it has one (a plain
/// f32 file has none; the server then quantizes at start).
fn load_like_cli(vocab: &Vocab, ckpt: &Path, quant: bool) -> Result<(Seq2Seq, ParamStore), String> {
    let mut rpt = RptC::new(vocab.clone(), CleaningConfig::default());
    let json = std::fs::read_to_string(ckpt).map_err(|e| format!("read checkpoint: {e}"))?;
    serialize::load_json(&mut rpt.params, &json).map_err(|e| format!("checkpoint: {e}"))?;
    let (mut model, params) = rpt.into_serve_parts();
    if quant {
        if let Ok(Some(entries)) = serialize::load_quant_file(ckpt) {
            let qs = rpt_nn::quant_set_from_named(&params, entries).map_err(|e| e.to_string())?;
            model.set_quant(Some(Arc::new(qs)));
        }
    }
    Ok((model, params))
}

/// `rpt serve --quant` defaults.
fn serve_config() -> ServeConfig {
    ServeConfig {
        quant: true,
        ..Default::default()
    }
}

fn wait_healthy(addr: SocketAddr) -> Result<(), String> {
    let t0 = Instant::now();
    loop {
        if matches!(client::get(addr, "/healthz"), Ok((200, _))) {
            return Ok(());
        }
        if t0.elapsed() > Duration::from_secs(10) {
            return Err("server never answered /healthz".into());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Timings of one start-up.
struct Startup {
    total: Duration,
    load: Duration,
    start: Duration,
}

fn start_server(p: &Prepared) -> Result<(Server, Startup), String> {
    let t0 = Instant::now();
    let (model, params) = load_like_cli(&p.vocab, &p.ckpt, true)?;
    let t1 = Instant::now();
    let server = Server::start(model, params, serve_config()).map_err(|e| format!("start: {e}"))?;
    wait_healthy(server.addr())?;
    let t2 = Instant::now();
    Ok((
        server,
        Startup {
            total: t2 - t0,
            load: t1 - t0,
            start: t2 - t1,
        },
    ))
}

/// Starts the server `reps` times and keeps the last one running.
fn start_repeatedly(p: &Prepared, reps: usize) -> Result<(Server, Vec<Startup>), String> {
    let mut timings = Vec::with_capacity(reps);
    loop {
        let (server, t) = start_server(p)?;
        timings.push(t);
        if timings.len() == reps {
            return Ok((server, timings));
        }
        server.shutdown();
    }
}

fn median_ms(xs: impl Iterator<Item = Duration>) -> f64 {
    stats::median(&xs.map(|d| d.as_secs_f64() * 1e3).collect::<Vec<_>>())
}

/// Single-request decoding on the same weights: the reference every
/// checked response body must equal byte for byte.
struct Oracle {
    model: Seq2Seq,
    params: ParamStore,
    cfg: rpt_nn::TransformerConfig,
    memo: HashMap<String, String>,
}

impl Oracle {
    fn new(p: &Prepared) -> Result<Self, String> {
        let (mut model, params) = load_like_cli(&p.vocab, &p.ckpt, true)?;
        if model.quant().is_none() {
            // What the server's batcher does with plain f32 weights.
            model.set_quant(Some(Arc::new(rpt_nn::build_quant_set(&params))));
        }
        Ok(Self {
            model,
            params,
            cfg: p.cfg.clone(),
            memo: HashMap::new(),
        })
    }

    fn body(&mut self, req: &Request) -> &str {
        if !self.memo.contains_key(&req.body) {
            let spec = api::parse_match(req.body.as_bytes(), &self.cfg);
            let Ok(JobSpec::Forced {
                src,
                bos,
                eos,
                targets,
            }) = spec
            else {
                panic!("generated requests are valid match requests");
            };
            let (total_logprob, per_token) =
                rpt_nn::forced_score(&self.model, &mut self.params, &src, bos, eos, &targets);
            let out = JobOutput::Forced {
                total_logprob,
                per_token,
            };
            self.memo
                .insert(req.body.clone(), api::render_output(&out, 0));
        }
        &self.memo[&req.body]
    }
}

/// Positions a `/v1/match` response scored; `None` for a malformed body.
fn output_tokens(body: &[u8]) -> Option<usize> {
    let doc = rpt_json::Json::parse(std::str::from_utf8(body).ok()?).ok()?;
    Some(doc.get("per_token")?.as_array()?.len())
}

/// A measured window's results, checked.
struct Checked {
    phase: Phase,
    /// Latency of each successful, correct response, ms.
    latencies: Vec<f64>,
    /// Output tokens over all successful responses.
    tokens: usize,
    mismatches: usize,
}

/// Shape-checks every response, compares a seeded sample against the
/// oracle (by a 64-bit hash of the whole body), and tallies the phase.
fn check(
    name: &'static str,
    samples: &[Sample],
    requests: &[Request],
    oracle: &mut Oracle,
    seed: u64,
) -> Checked {
    let mut phase = Phase::new(name);
    let mut latencies = Vec::new();
    let mut tokens = 0usize;
    let mut bad = vec![false; samples.len()];
    for (i, s) in samples.iter().enumerate() {
        phase.sent += 1;
        match s.status() {
            200 => match s.response.as_ref().and_then(|r| r.tokens) {
                Some(n) => tokens += n,
                None => bad[i] = true,
            },
            503 => phase.rejected += 1,
            0 => phase.dropped += 1,
            _ => phase.errors += 1,
        }
    }
    let mut order: Vec<usize> = (0..samples.len())
        .filter(|&i| samples[i].status() == 200)
        .collect();
    order.shuffle(&mut SmallRng::seed_from_u64(seed ^ 0xc0ffee));
    for &i in order.iter().take(CHECK_SAMPLE) {
        let s = &samples[i];
        let got = s.response.as_ref().expect("status 200 has a response");
        let want = oracle.body(&requests[s.index % requests.len()]);
        if got.body_hash != client::body_hash(want.as_bytes()) {
            bad[i] = true;
        }
    }
    let mismatches = bad.iter().filter(|&&b| b).count();
    phase.mismatches = mismatches as u64;
    for (i, s) in samples.iter().enumerate() {
        if s.status() == 200 && !bad[i] {
            phase.ok += 1;
            latencies.push(s.latency_ms().expect("answered request has timestamps"));
        }
    }
    Checked {
        phase,
        latencies,
        tokens,
        mismatches,
    }
}

/// Requests outstanding per batch slot. The server answers each
/// connection strictly in request order and reads no new request on it
/// while an answer is owed, so `max_batch` outstanding would leave slots
/// empty until a whole connection's group drains and the client's next
/// group arrives — the batcher would then wait on thread wake-ups, and
/// the run would measure the host's scheduler. Twice as many keeps the
/// server's queue non-empty: a freed slot is refilled from the queue at
/// the next step, and the fused batch stays full. The default queue cap
/// (4 × `max_batch`) holds them all, so none is refused with a 503.
const OUTSTANDING_PER_SLOT: usize = 2;

/// Connections and requests outstanding per connection for the closed
/// loop: `OUTSTANDING_PER_SLOT * max_batch` in flight over at most
/// `nproc` connections.
fn closed_loop_shape(max_batch: usize) -> (usize, usize) {
    let outstanding = OUTSTANDING_PER_SLOT * max_batch;
    let conns = (1..=host::nproc().min(outstanding))
        .rev()
        .find(|&c| outstanding.is_multiple_of(c))
        .unwrap_or(1);
    (conns, outstanding / conns)
}

fn http_bytes(reqs: &[Request], trace: bool) -> Vec<Vec<u8>> {
    reqs.iter().map(|r| r.http_bytes(trace)).collect()
}

/// Responses of one measured window.
struct Window {
    samples: Vec<Sample>,
    /// From the window's start to its last response byte, s.
    span_s: f64,
}

impl Window {
    fn new(samples: Vec<Sample>) -> Self {
        let span_s = samples
            .iter()
            .filter_map(|s| s.done)
            .max()
            .map_or(0.0, |d| d.as_secs_f64());
        Self { samples, span_s }
    }
}

/// Drives one closed-loop window of `secs` seconds against a live server.
fn drive(addr: SocketAddr, p: &Prepared, trace: bool, secs: f64) -> Window {
    let bytes = http_bytes(&p.requests, trace);
    let (conns, per_conn) = closed_loop_shape(serve_config().max_batch);
    let len = Duration::from_secs_f64(secs);
    Window::new(client::closed_loop(
        addr,
        &bytes,
        conns,
        per_conn,
        len,
        DRAIN,
        &output_tokens,
    ))
}

/// The dark run: end-to-end metrics.
pub fn run(opts: &RunOpts, work: &Path) -> Result<Outcome, String> {
    let p = prepare(opts, work)?;
    let (server, startups) = start_repeatedly(&p, SETUP_REPS)?;
    let addr = server.addr();
    drive(addr, &p, false, WARMUP_S);
    let windows: Vec<Window> = (0..WINDOWS)
        .map(|_| drive(addr, &p, false, opts.seconds / WINDOWS as f64))
        .collect();
    server.shutdown();

    let mut oracle = Oracle::new(&p)?;
    let mut out = Outcome::default();
    let (mut p50s, mut tails, mut rates, mut tok_rates) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut within, mut mismatches, mut samples) = (0usize, 0usize, 0usize);
    for (w, win) in windows.iter().enumerate() {
        let c = check(
            WINDOW_NAMES[w],
            &win.samples,
            &p.requests,
            &mut oracle,
            opts.seed + w as u64,
        );
        if !c.latencies.is_empty() {
            p50s.push(stats::median(&c.latencies));
            tails.push(stats::tail(&c.latencies));
        }
        let span = win.span_s.max(1e-9);
        rates.push(c.phase.ok as f64 / span);
        tok_rates.push(c.tokens as f64 / span);
        within += c.latencies.iter().filter(|&&l| l <= SLO_MS).count();
        mismatches += c.mismatches;
        samples += c.latencies.len();
        out.phases.push(c.phase);
    }
    if tails.is_empty() {
        return Err("no request succeeded".into());
    }
    let tail_values: Vec<f64> = tails.iter().map(|t| t.value).collect();
    let lowest_percentile = tails.iter().map(|t| t.percentile).fold(100.0, f64::min);
    let attempted = out.attempted().max(1) as f64;
    let ok = (out.attempted() - out.failed()) as f64;
    let m = &mut out.metrics;
    m.set("setup_s", median_ms(startups.iter().map(|s| s.total)) / 1e3);
    m.set("p50_ms", stats::median(&p50s));
    m.set("p99_ms", stats::median(&tail_values));
    m.set("pairs_per_s", stats::median(&rates));
    m.set("tok_s", stats::median(&tok_rates));
    m.set("slo_frac", within as f64 / attempted);
    m.set("ok_frac", ok / attempted);
    m.set("peak_rss_mb", host::peak_rss_mb());
    out.note("tail_percentile", lowest_percentile);
    out.note("latency_samples", samples as f64);
    out.note("windows", WINDOWS as f64);
    out.note("slo_ms", SLO_MS);
    if mismatches > 0 {
        out.invalid(format!(
            "{mismatches} response(s) differ from single-request decoding"
        ));
    }
    Ok(out)
}

/// `rpt_obs` counter and histogram readings around a phase.
#[derive(Debug, Clone, Copy, Default)]
struct ServeCounters {
    tokens: u64,
    steps: u64,
    rejected: u64,
    occ_count: u64,
    occ_sum: f64,
}

fn serve_counters() -> ServeCounters {
    let occ = rpt_obs::histogram_with("serve.batch_occupancy", rpt_obs::COUNT_BOUNDS);
    ServeCounters {
        tokens: rpt_obs::counter("serve.tokens").value(),
        steps: rpt_obs::counter("serve.batch_steps").value(),
        rejected: rpt_obs::counter("serve.rejected").value(),
        occ_count: occ.count(),
        occ_sum: occ.sum(),
    }
}

/// Parses one `x-rpt-trace` summary into `(queue_wait, batch_wait,
/// decode)` ms.
fn parse_trace_header(value: &str) -> Option<(f64, f64, f64)> {
    let field = |key: &str| {
        value
            .split(';')
            .filter_map(|kv| kv.trim().split_once('='))
            .find(|(k, _)| *k == key)
            .and_then(|(_, v)| v.parse::<f64>().ok())
    };
    Some((
        field("queue_wait_ms")?,
        field("batch_wait_ms")?,
        field("decode_ms")?,
    ))
}

/// The traced run: per-layer metrics.
pub fn run_traced(opts: &RunOpts, work: &Path) -> Result<Outcome, String> {
    let p = prepare(opts, work)?;
    let mut out = Outcome::default();

    // Set-up layers.
    let (server, startups) = start_repeatedly(&p, 3)?;
    let addr = server.addr();
    let (_, params) = load_like_cli(&p.vocab, &p.ckpt, false)?;
    let mut quantize_ms = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        std::hint::black_box(rpt_nn::build_quant_set(&params));
        quantize_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    drive(addr, &p, false, WARMUP_S);

    // Dark pass, then the same load traced.
    let half = opts.seconds / 2.0;
    let before = serve_counters();
    let dark = drive(addr, &p, false, half).samples;
    let after = serve_counters();
    rpt_obs::set_trace_enabled(true);
    let traced = drive(addr, &p, true, half).samples;
    rpt_obs::set_trace_enabled(false);
    server.shutdown();

    let mut oracle = Oracle::new(&p)?;
    let dark_c = check("dark", &dark, &p.requests, &mut oracle, opts.seed);
    let traced_c = check("traced", &traced, &p.requests, &mut oracle, opts.seed);
    let mut stages = (Vec::new(), Vec::new(), Vec::new());
    for s in &traced {
        if let Some((q, b, d)) = s
            .response
            .as_ref()
            .and_then(|r| r.trace.as_deref())
            .and_then(parse_trace_header)
        {
            stages.0.push(q);
            stages.1.push(b);
            stages.2.push(d);
        }
    }
    if stages.0.is_empty() {
        return Err("traced pass returned no x-rpt-trace headers".into());
    }
    let steps = (after.steps - before.steps).max(1) as f64;
    let occupancy = (after.tokens - before.tokens) as f64 / steps;
    let jobs_per_step =
        (after.occ_sum - before.occ_sum) / (after.occ_count - before.occ_count).max(1) as f64;
    let dark_p50 = stats::median(&dark_c.latencies);
    let traced_p50 = stats::median(&traced_c.latencies);

    let m = &mut out.metrics;
    m.set(
        "setup.start_ms",
        median_ms(startups.iter().map(|s| s.start)),
    );
    m.set("ckpt.load_ms", median_ms(startups.iter().map(|s| s.load)));
    m.set("setup.quantize_ms", stats::median(&quantize_ms));
    for (p50, p99, xs) in [
        (
            "serve.queue_wait_ms.p50",
            "serve.queue_wait_ms.p99",
            &stages.0,
        ),
        (
            "serve.batch_wait_ms.p50",
            "serve.batch_wait_ms.p99",
            &stages.1,
        ),
        ("serve.decode_ms.p50", "serve.decode_ms.p99", &stages.2),
    ] {
        m.set(p50, stats::median(xs));
        m.set(p99, stats::tail(xs).value);
    }
    m.set("serve.occupancy", occupancy);
    m.set("serve.rejected", (after.rejected - before.rejected) as f64);
    m.set(
        "trace.overhead_pct",
        (traced_p50 - dark_p50) / dark_p50 * 100.0,
    );
    out.note("serve.jobs_per_step", jobs_per_step);

    let live = (jobs_per_step.round() as usize).clamp(1, serve_config().max_batch);
    let replay = replay(&p, live, &mut oracle)?;
    replay.record(&mut out.metrics);
    out.note("replay.live_jobs", live as f64);
    out.note("replay.requests", replay.requests as f64);

    let mismatches = dark_c.mismatches + traced_c.mismatches + replay.mismatches;
    if mismatches > 0 {
        out.invalid(format!(
            "{mismatches} output(s) differ from single-request decoding"
        ));
    }
    out.phases.push(dark_c.phase);
    out.phases.push(traced_c.phase);
    let mut rp = Phase::new("replay");
    rp.sent = replay.requests as u64;
    rp.ok = (replay.requests - replay.mismatches) as u64;
    rp.mismatches = replay.mismatches as u64;
    out.phases.push(rp);
    Ok(out)
}

/// Per-call timings of the layer replay.
#[derive(Debug, Default)]
struct Replay {
    requests: usize,
    steps: usize,
    rows: usize,
    http_parse: Vec<f64>,
    api_parse: Vec<f64>,
    encode: Vec<f64>,
    admit: Vec<f64>,
    step_ms: Vec<f64>,
    render: Vec<f64>,
    write: Vec<f64>,
    matmul_calls: u64,
    madds: u64,
    wall_s: f64,
    timed_s: f64,
    qdot_gops: f64,
    mismatches: usize,
}

impl Replay {
    fn record(&self, m: &mut Metrics) {
        let steps = self.steps.max(1) as f64;
        let us = |v: &[f64]| stats::mean(v) * 1e6;
        m.set("http.parse_us", us(&self.http_parse));
        m.set("api.parse_us", us(&self.api_parse));
        m.set("nn.encode_us", us(&self.encode));
        m.set("mb.admit_us", us(&self.admit));
        m.set("mb.append_us", us(&self.admit) - us(&self.encode));
        m.set("mb.step_ms.p50", stats::median(&self.step_ms));
        m.set("mb.step_ms.p99", stats::tail(&self.step_ms).value);
        m.set("mb.rows_per_step", self.rows as f64 / steps);
        m.set("mb.steps_per_req", steps / self.requests.max(1) as f64);
        m.set("api.render_us", us(&self.render));
        m.set("http.write_us", us(&self.write));
        m.set(
            "kernel.matmul_calls_per_step",
            self.matmul_calls as f64 / steps,
        );
        m.set(
            "kernel.madds_per_tok",
            self.madds as f64 / self.rows.max(1) as f64,
        );
        m.set("kernel.qdot_gops", self.qdot_gops);
        m.set(
            "replay.unaccounted_frac",
            1.0 - self.timed_s / self.wall_s.max(1e-12),
        );
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Replays the first [`REPLAY_REQS`] measured requests through the
/// layers' public calls on this thread — HTTP parse, API parse, batcher
/// admission (with an encoder probe), fused steps, rendering, response
/// write — keeping `live` jobs admitted, and times every call.
fn replay(p: &Prepared, live: usize, oracle: &mut Oracle) -> Result<Replay, String> {
    let (mut model, mut params) = load_like_cli(&p.vocab, &p.ckpt, true)?;
    if model.quant().is_none() {
        model.set_quant(Some(Arc::new(rpt_nn::build_quant_set(&params))));
    }
    let mut mb = MicroBatcher::new(&model, &mut params);
    let reqs: Vec<&Request> = p.requests.iter().take(REPLAY_REQS).collect();
    let mut r = Replay {
        requests: reqs.len(),
        ..Default::default()
    };
    let matmul_calls = rpt_obs::counter("tensor.matmul_calls");
    let madds = rpt_obs::counter("tensor.matmul_madds");
    let mut next = 0usize;
    let mut outputs: Vec<(usize, String)> = Vec::with_capacity(reqs.len());
    let wall = Instant::now();
    while outputs.len() < reqs.len() {
        while mb.slots_in_use() < live && next < reqs.len() {
            let bytes = reqs[next].http_bytes(false);
            let t = Instant::now();
            let mut parser = rpt_serve::http::RequestParser::new(
                rpt_serve::http::DEFAULT_MAX_HEADER_BYTES,
                rpt_serve::http::DEFAULT_MAX_BODY_BYTES,
            );
            parser.feed(&bytes);
            let parsed = parser.next_request();
            r.http_parse.push(secs(t));
            let Ok(rpt_serve::http::Parsed::Request(req)) = parsed else {
                return Err("replay: request bytes did not parse".into());
            };
            let t = Instant::now();
            let spec = api::parse_match(&req.body, &p.cfg);
            r.api_parse.push(secs(t));
            let spec = spec.map_err(|e| format!("replay: {}", e.message))?;
            let src = match &spec {
                JobSpec::Greedy { src, .. }
                | JobSpec::Beam { src, .. }
                | JobSpec::Forced { src, .. } => src.clone(),
            };
            let t = Instant::now();
            mb.admit(&model, &mut params, next as u64, spec);
            r.admit.push(secs(t));
            // The encoder probe runs after admission, on caches the
            // admission just warmed, so `admit - encode` never goes
            // negative from a cold first touch.
            let t = Instant::now();
            std::hint::black_box(model.begin_request(&mut params, &src));
            r.encode.push(secs(t));
            next += 1;
        }
        let (c0, a0) = (matmul_calls.value(), madds.value());
        r.rows += mb.rows();
        let t = Instant::now();
        let done = mb.step(&model, &mut params);
        r.step_ms.push(secs(t) * 1e3);
        r.steps += 1;
        r.matmul_calls += matmul_calls.value() - c0;
        r.madds += madds.value() - a0;
        for (id, output) in done {
            let t = Instant::now();
            let body = api::render_output(&output, 0);
            r.render.push(secs(t));
            let t = Instant::now();
            let mut wire = Vec::with_capacity(body.len() + 128);
            rpt_serve::http::Response::json(200, body.clone())
                .write_to(&mut wire, true)
                .map_err(|e| e.to_string())?;
            r.write.push(secs(t));
            outputs.push((id as usize, body));
        }
    }
    r.wall_s = secs(wall);
    r.mismatches = outputs
        .iter()
        .filter(|(id, body)| body.as_str() != oracle.body(reqs[*id]))
        .count();
    let step_s: f64 = r.step_ms.iter().sum::<f64>() / 1e3;
    r.timed_s = [
        &r.http_parse,
        &r.api_parse,
        &r.encode,
        &r.admit,
        &r.render,
        &r.write,
    ]
    .iter()
    .map(|v| v.iter().sum::<f64>())
    .sum::<f64>()
        + step_s;
    let rows = (r.rows as f64 / r.steps.max(1) as f64).round().max(1.0) as usize;
    r.qdot_gops = kernel_probe(&model, &mut params, rows).1;
    Ok(r)
}

/// Rates of the logit projection at `[rows, d] × [d, vocab]`: the f32
/// `Tensor::matmul2d_with` kernel (GFLOP/s) and the int8
/// `QuantMatrix::matmul_f32` kernel (GOP/s), each over ≥ 50 ms of calls.
pub fn kernel_probe(model: &Seq2Seq, params: &mut ParamStore, rows: usize) -> (f64, f64) {
    let et = model.tied_projection(params);
    let (d, vocab) = (et.shape()[0], et.shape()[1]);
    let x: Vec<f32> = (0..rows * d)
        .map(|i| ((i * 7919) % 1000) as f32 / 1000.0 - 0.5)
        .collect();
    let xt =
        rpt_tensor::Tensor::from_vec(x.clone(), &[rows, d]).expect("probe shape matches its data");
    let ops = 2.0 * (rows * d * vocab) as f64;
    let rate = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        let mut n = 0u64;
        while n < 3 || t.elapsed() < Duration::from_millis(50) {
            f();
            n += 1;
        }
        ops * n as f64 / t.elapsed().as_secs_f64() / 1e9
    };
    let pool = rpt_par::ThreadPool::global();
    let gflops = rate(&mut || {
        std::hint::black_box(xt.matmul2d_with(&et, pool));
    });
    let qm = rpt_tensor::QuantMatrix::quantize_transposed(et.data(), d, vocab);
    let gops = rate(&mut || {
        std::hint::black_box(qm.matmul_f32(&x, rows));
    });
    (gflops, gops)
}
