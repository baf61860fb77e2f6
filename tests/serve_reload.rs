//! Checkpoint hot-reload under load, across the prefill pipeline.
//!
//! `rpt serve` encodes requests on a prefill thread ahead of the batcher,
//! so when the watched checkpoint is swapped some queued jobs were
//! already encoded under the old parameters. The batcher must re-encode
//! those (`serve.prefill_stale`) rather than decode them against the new
//! weights. This suite keeps many clients in flight, atomically swaps the
//! checkpoint, and proves that every response body is bit-identical to
//! single-request `forced_score` under the parameters of the generation
//! the response reports — and that the stale re-encode path really ran.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::{get, ids_json, post, trained_copy_model, BOS, EOS};
use rpt::json::Json;
use rpt::nn::{forced_score, Sequence, TokenBatch};
use rpt::serve::{ServeConfig, Server};
use rpt::tensor::serialize::save_file;
use rpt::tensor::{ParamStore, Tensor};

/// The `/v1/match` jobs every client cycles through.
const JOBS: [(&[usize], &[usize]); 6] = [
    (&[9, 10], &[9, 10]),
    (&[10, 9], &[10, 9]),
    (&[11, 9], &[11, 9, 10]),
    (&[9, 11], &[11]),
    (&[10, 11, 9], &[10, 11, 9]),
    (&[11], &[11, 10]),
];
const CLIENTS: usize = 8;
/// Most checkpoint swaps to try before giving up on seeing a stale
/// prefill (one nearly always suffices: clients keep the queue full).
const MAX_SWAPS: u64 = 6;

/// A second, distinguishable parameter set for the same model: every
/// weight scaled by 0.9.
fn scaled(params: &ParamStore) -> ParamStore {
    let mut out = params.clone();
    let named: Vec<(String, Tensor)> = params
        .iter()
        .map(|(name, t)| {
            let data = t.data().iter().map(|x| x * 0.9).collect();
            (name.to_string(), Tensor::from_vec(data, t.shape()).unwrap())
        })
        .collect();
    for (name, t) in named {
        let id = out.find(&name).expect("param present");
        out.set_value(id, t);
    }
    out
}

fn counter(addr: &str, name: &str) -> u64 {
    let (status, body) = get(addr, "/metrics");
    assert_eq!(status, 200, "/metrics failed: {body}");
    Json::parse(&body)
        .expect("/metrics is JSON")
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("/metrics lacks counter {name}: {body}"))
}

fn generation(addr: &str) -> u64 {
    let (_, body) = get(addr, "/healthz");
    Json::parse(&body)
        .expect("/healthz is JSON")
        .get("model_generation")
        .and_then(Json::as_u64)
        .expect("model_generation")
}

fn f32_bits(v: &Json) -> u32 {
    (v.as_f64().expect("number") as f32).to_bits()
}

#[test]
fn hot_reload_under_load_decodes_each_request_under_one_generation() {
    let (model, params_a) = trained_copy_model();
    let mut params_b = scaled(&params_a);
    let max_len = model.config().max_len;
    let batch =
        |ids: &[usize]| TokenBatch::from_sequences(&[Sequence::from_ids(ids.to_vec())], max_len, 0);

    // expected[parity][job] = (total bits, per-token bits). Even
    // generations serve A, odd ones B (the swaps alternate).
    let mut params_a_mut = params_a.clone();
    let mut expected: [Vec<(u32, Vec<u32>)>; 2] = [Vec::new(), Vec::new()];
    for (parity, params) in [&mut params_a_mut, &mut params_b].into_iter().enumerate() {
        for (src, targets) in JOBS {
            let (total, per) = forced_score(&model, params, &batch(src), BOS, EOS, targets);
            expected[parity].push((total.to_bits(), per.iter().map(|x| x.to_bits()).collect()));
        }
    }
    assert_ne!(expected[0], expected[1], "the two generations must differ");

    let dir = std::env::temp_dir().join(format!("rpt-serve-reload-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let ckpt = dir.join("model.json");
    save_file(&params_a, &ckpt).expect("seed checkpoint");

    // Small batches and many clients: the queue and the prefilled
    // handoff stay full, so a swap always finds jobs encoded under the
    // old generation.
    let server = Server::start(
        model,
        params_a.clone(),
        ServeConfig {
            checkpoint: Some(ckpt.clone()),
            max_batch: 2,
            queue_cap: 64,
            reload_poll_ms: 2,
            read_timeout_ms: 10,
            ..ServeConfig::default()
        },
    )
    .expect("server starts");
    let addr = server.addr().to_string();

    let stop = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let (addr, stop) = (addr.clone(), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut answers: Vec<(usize, String)> = Vec::new();
                let mut i = c;
                while !stop.load(Ordering::Relaxed) {
                    let job = i % JOBS.len();
                    let (src, targets) = JOBS[job];
                    let body = format!(
                        r#"{{"src": {}, "targets": {}}}"#,
                        ids_json(src),
                        ids_json(targets)
                    );
                    let (status, resp) = post(&addr, "/v1/match", &body);
                    assert_eq!(status, 200, "unexpected status; body: {resp}");
                    answers.push((job, resp));
                    i += 1;
                }
                answers
            })
        })
        .collect();

    // Swap the checkpoint under load until the stale-prefill path has
    // run; each swap must advance the generation, and each generation
    // serves traffic for a while before the next check.
    let stale_before = counter(&addr, "serve.prefill_stale");
    let mut swaps = 0u64;
    loop {
        std::thread::sleep(Duration::from_millis(50));
        if swaps > 0 && counter(&addr, "serve.prefill_stale") > stale_before {
            break;
        }
        assert!(
            swaps < MAX_SWAPS,
            "no prefilled job went stale in {swaps} swaps"
        );
        swaps += 1;
        let next = if swaps % 2 == 1 { &params_b } else { &params_a };
        save_file(next, &ckpt).expect("swap checkpoint");
        let deadline = Instant::now() + Duration::from_secs(20);
        while generation(&addr) < swaps {
            assert!(
                Instant::now() < deadline,
                "reload {swaps} never took effect"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    stop.store(true, Ordering::Relaxed);
    let answers: Vec<(usize, String)> = clients
        .into_iter()
        .flat_map(|c| c.join().expect("client"))
        .collect();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    let mut per_generation = vec![0usize; swaps as usize + 1];
    for (job, body) in &answers {
        let doc = Json::parse(body).expect("response JSON");
        let generation = doc
            .get("model_generation")
            .and_then(Json::as_u64)
            .expect("model_generation");
        assert!(generation <= swaps, "unknown generation {generation}");
        per_generation[generation as usize] += 1;
        let (want_total, want_per) = &expected[(generation % 2) as usize][*job];
        assert_eq!(
            f32_bits(doc.get("total_logprob").expect("total_logprob")),
            *want_total,
            "job {job} at generation {generation}: total_logprob not bit-identical"
        );
        let got_per: Vec<u32> = doc
            .get("per_token")
            .and_then(Json::as_array)
            .expect("per_token")
            .iter()
            .map(f32_bits)
            .collect();
        assert_eq!(
            &got_per, want_per,
            "job {job} at generation {generation}: per_token not bit-identical"
        );
    }
    assert!(
        per_generation[0] > 0 && per_generation[swaps as usize] > 0,
        "traffic must span the swap: {per_generation:?}"
    );
}
