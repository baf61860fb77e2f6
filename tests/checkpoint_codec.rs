//! The streaming checkpoint codec: byte identity with the `Json`-tree
//! writer it replaced, all-or-nothing loads, parity with the tree
//! loader's acceptance rules, refusal of non-finite values, and a seeded
//! fuzz loop over every checkpoint loader.
//!
//! The tree writer survives only here, as the referee: `tree_*` below
//! build the exact `json!` documents the checkpoint writers used to
//! serialize, and every streamed document must match them byte for byte.

// `json!` array literals expand to `Vec::new()` + pushes.
#![allow(clippy::vec_init_then_push)]

use std::fs;
use std::path::PathBuf;

use rpt::json::{json, Json};
use rpt::rng::{Rng, SeedableRng, SmallRng};
use rpt::tensor::serialize::{
    load_json, load_params_any, load_quant_json, load_train_json, quant_to_json, save_file,
    save_quant_file, save_train_file, staging_path, to_json, train_state_to_json, AccumState,
    CorpusPos, PendingGrad,
};
use rpt::tensor::{AdamState, CheckpointError, ParamStore, QuantMatrix, Tensor, TrainState};

// ---------------------------------------------------------------------------
// The referee: the tree writer, as the checkpoint families used to write
// ---------------------------------------------------------------------------

fn tree_floats(data: &[f32]) -> Vec<Json> {
    data.iter().map(|&x| Json::from(x)).collect()
}

fn tree_shape(shape: &[usize]) -> Vec<Json> {
    shape.iter().map(|&d| Json::from(d)).collect()
}

fn tree_tensor(name: &str, t: &Tensor) -> Json {
    json!({"name": name, "shape": tree_shape(t.shape()), "data": tree_floats(t.data())})
}

fn tree_params(store: &ParamStore) -> Vec<Json> {
    store.iter().map(|(name, t)| tree_tensor(name, t)).collect()
}

fn tree_to_json(store: &ParamStore) -> String {
    json!({"format_version": 1u32, "params": tree_params(store)}).to_string()
}

fn tree_train_state(store: &ParamStore, state: &TrainState) -> String {
    let adam = match &state.adam {
        None => Json::Null,
        Some(a) => json!({
            "t": a.t,
            "moments": a
                .moments
                .iter()
                .map(|(name, m, v)| {
                    json!({
                        "name": name.as_str(),
                        "shape": tree_shape(m.shape()),
                        "m": tree_floats(m.data()),
                        "v": tree_floats(v.data()),
                    })
                })
                .collect::<Vec<_>>(),
        }),
    };
    let rng: Vec<Json> = state
        .rng_streams
        .iter()
        .map(|(name, s)| {
            json!({
                "name": name.as_str(),
                "state": s.iter().map(|w| Json::from(format!("{w:#x}"))).collect::<Vec<_>>(),
            })
        })
        .collect();
    let corpus = match &state.corpus {
        None => Json::Null,
        Some(c) => {
            let accum = match &c.accum {
                None => Json::Null,
                Some(a) => json!({
                    "micro_done": a.micro_done,
                    "window_seed": format!("{:#x}", a.window_seed),
                    "pending": a
                        .pending
                        .iter()
                        .map(|p| {
                            json!({
                                "loss": p.loss,
                                "weight": p.weight,
                                "grads": p
                                    .grads
                                    .iter()
                                    .map(|(name, g)| tree_tensor(name, g))
                                    .collect::<Vec<_>>(),
                            })
                        })
                        .collect::<Vec<_>>(),
                }),
            };
            json!({"epoch": c.epoch, "shard": c.shard, "offset": c.offset, "accum": accum})
        }
    };
    json!({
        "format_version": 2u32,
        "params": tree_params(store),
        "train": {
            "adam": adam,
            "rng": rng,
            "steps_done": state.steps_done,
            "losses": tree_floats(&state.losses),
            "corpus": corpus,
        },
    })
    .to_string()
}

fn tree_quant(store: &ParamStore, tensors: &[(&str, &QuantMatrix)]) -> String {
    let records: Vec<Json> = tensors
        .iter()
        .map(|(name, qm)| {
            json!({
                "name": *name,
                "n_out": qm.n_out(),
                "k": qm.k(),
                "scales": tree_floats(qm.scales()),
                "data": qm.weights().iter().map(|&w| Json::from(w)).collect::<Vec<_>>(),
            })
        })
        .collect();
    json!({
        "format_version": 1u32,
        "params": tree_params(store),
        "quant": {"format": "quant-v1", "tensors": records},
    })
    .to_string()
}

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

/// Values the number writer must reproduce exactly, non-finite included.
const AWKWARD: [f32; 14] = [
    0.1,
    -0.0,
    0.0,
    f32::MAX,
    f32::MIN,
    f32::MIN_POSITIVE,
    1.0e-45,
    -5.877_472e-39,
    1.0 / 3.0,
    16_777_216.0,
    2.0,
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
];

fn t(data: &[f32], shape: &[usize]) -> Tensor {
    Tensor::from_vec(data.to_vec(), shape).unwrap()
}

/// A store with an awkward-valued tensor and a name that needs escaping.
fn awkward_store() -> ParamStore {
    let mut store = ParamStore::new();
    store.register("enc.w", t(&AWKWARD, &[2, 7]));
    store.register("q\"uo\\te\n\u{1}é", t(&[1.5, -2.25], &[2]));
    store.register("b", t(&[0.0], &[1]));
    store
}

fn finite_store() -> ParamStore {
    let mut store = ParamStore::new();
    store.register("w", t(&[0.5, -1.25, 3.0, 1.0e-40], &[2, 2]));
    store.register("b", t(&[0.1, 0.2], &[2]));
    store
}

fn state_for(store: &ParamStore, accum: Option<AccumState>, adam: bool) -> TrainState {
    let moments = store
        .iter()
        .map(|(name, t)| {
            let m = t.map(|x| x * 0.5);
            let v = t.map(|x| x * x);
            (name.to_string(), m, v)
        })
        .collect();
    TrainState {
        adam: adam.then_some(AdamState { t: 3, moments }),
        rng_streams: vec![
            ("model".into(), [1, u64::MAX, 0xdead_beef, 7]),
            ("batch".into(), [9, 8, 7, 6]),
        ],
        steps_done: 3,
        losses: vec![4.5, 3.25, 1.0 / 3.0],
        corpus: Some(CorpusPos {
            epoch: 1,
            shard: 2,
            offset: 5,
            accum,
        }),
    }
}

fn accum_for(store: &ParamStore) -> AccumState {
    let grads: Vec<(String, Tensor)> = store
        .iter()
        .map(|(name, t)| (name.to_string(), t.map(|x| x - 0.125)))
        .collect();
    AccumState {
        micro_done: 2,
        window_seed: u64::MAX - 3,
        pending: vec![
            PendingGrad {
                loss: 2.5,
                weight: 3.0,
                grads: grads.clone(),
            },
            PendingGrad {
                loss: 1.0 / 7.0,
                weight: 1.0,
                grads,
            },
        ],
    }
}

fn bits(store: &ParamStore) -> Vec<(String, Vec<usize>, Vec<u32>)> {
    store
        .iter()
        .map(|(n, t)| {
            let b = t.data().iter().map(|x| x.to_bits()).collect();
            (n.to_string(), t.shape().to_vec(), b)
        })
        .collect()
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rpt-checkpoint-codec-{tag}"));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).unwrap();
    dir
}

// ---------------------------------------------------------------------------
// Byte identity
// ---------------------------------------------------------------------------

#[test]
fn streaming_writers_match_the_tree_writer_byte_for_byte() {
    let stores = [awkward_store(), finite_store(), ParamStore::new()];
    for store in &stores {
        assert_eq!(to_json(store), tree_to_json(store));
        let accums = [None, Some(accum_for(store)), Some(AccumState::default())];
        for accum in accums {
            for adam in [false, true] {
                let mut state = state_for(store, accum.clone(), adam);
                assert_eq!(
                    train_state_to_json(store, &state),
                    tree_train_state(store, &state)
                );
                state.corpus = None;
                state.losses.push(f32::NAN);
                assert_eq!(
                    train_state_to_json(store, &state),
                    tree_train_state(store, &state)
                );
            }
        }
        let empty = TrainState::default();
        assert_eq!(
            train_state_to_json(store, &empty),
            tree_train_state(store, &empty)
        );
    }

    let qa = QuantMatrix::quantize_transposed(&[0.5, -1.5, 2.0, 0.25, -0.75, 1.0], 2, 3);
    let qb = QuantMatrix::from_parts(2, 2, vec![-128, 127, 0, -1], vec![f32::MAX, 1.0e-45]);
    let store = awkward_store();
    let tensors = [("lin.w", &qa), ("odd \"name\"", &qb)];
    assert_eq!(quant_to_json(&store, tensors), tree_quant(&store, &tensors));
    assert_eq!(quant_to_json(&store, []), tree_quant(&store, &[]));
}

// ---------------------------------------------------------------------------
// Refusing non-finite values
// ---------------------------------------------------------------------------

/// Runs `bad_save` against a file `good_save` just wrote: it must fail
/// with `NonFinite`, leave the file's bytes unchanged, and stage nothing.
fn assert_refused(
    tag: &str,
    good_save: impl Fn(&PathBuf) -> Result<(), CheckpointError>,
    bad_save: impl Fn(&PathBuf) -> Result<(), CheckpointError>,
) {
    let dir = fresh_dir(tag);
    let path = dir.join("ckpt.json");
    good_save(&path).unwrap();
    let before = fs::read(&path).unwrap();
    let err = bad_save(&path).unwrap_err();
    assert!(matches!(err, CheckpointError::NonFinite(_)), "{tag}: {err}");
    assert_eq!(
        fs::read(&path).unwrap(),
        before,
        "{tag}: the good file changed"
    );
    assert!(
        !staging_path(&path).exists(),
        "{tag}: a refused save staged a file"
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn non_finite_saves_are_refused_and_keep_the_previous_file() {
    let store = finite_store();
    let mut nan_store = finite_store();
    let b = nan_store.find("b").unwrap();
    nan_store.set_value(b, t(&[0.1, f32::NAN], &[2]));
    assert_refused(
        "params",
        |p| save_file(&store, p),
        |p| save_file(&nan_store, p),
    );

    let good = state_for(&store, Some(accum_for(&store)), true);
    let mut cases: Vec<(&str, TrainState)> = Vec::new();
    let mut s = good.clone();
    s.adam.as_mut().unwrap().moments[0].1 = t(&[0.0, f32::INFINITY, 0.0, 0.0], &[2, 2]);
    cases.push(("adam-m", s));
    let mut s = good.clone();
    s.adam.as_mut().unwrap().moments[1].2 = t(&[f32::NAN, 0.0], &[2]);
    cases.push(("adam-v", s));
    let mut s = good.clone();
    s.corpus.as_mut().unwrap().accum.as_mut().unwrap().pending[1].grads[0].1 =
        t(&[0.0, 0.0, f32::NEG_INFINITY, 0.0], &[2, 2]);
    cases.push(("pending-grad", s));
    let mut s = good.clone();
    s.corpus.as_mut().unwrap().accum.as_mut().unwrap().pending[0].loss = f32::NAN;
    cases.push(("pending-loss", s));
    let mut s = good.clone();
    s.losses[1] = f32::NAN;
    cases.push(("losses", s));
    for (tag, bad) in &cases {
        assert_refused(
            tag,
            |p| save_train_file(&store, &good, p),
            |p| save_train_file(&store, bad, p),
        );
    }
    assert_refused(
        "train-params",
        |p| save_train_file(&store, &good, p),
        |p| save_train_file(&nan_store, &good, p),
    );

    let qm = QuantMatrix::quantize_transposed(&[1.0, -1.0], 1, 2);
    assert_refused(
        "quant",
        |p| save_quant_file(&store, [("lin.w", &qm)], p),
        |p| save_quant_file(&nan_store, [("lin.w", &qm)], p),
    );
}

// ---------------------------------------------------------------------------
// All-or-nothing loads
// ---------------------------------------------------------------------------

#[test]
fn a_failed_load_leaves_the_store_unchanged() {
    // the second record has the wrong shape: the first must not land
    let doc = r#"{"format_version":1,"params":[
        {"name":"w","shape":[2,2],"data":[9,9,9,9]},
        {"name":"b","shape":[3],"data":[9,9,9]}]}"#;
    let mut store = finite_store();
    let before = bits(&store);
    let err = load_json(&mut store, doc).unwrap_err();
    assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");
    assert_eq!(bits(&store), before);
    let err = load_train_json(&mut store, doc).unwrap_err();
    assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");
    assert_eq!(bits(&store), before);

    // good params, then an inconsistent train section
    let mut other = finite_store();
    other.set_value(other.find("w").unwrap(), t(&[7.0; 4], &[2, 2]));
    let good = train_state_to_json(&other, &state_for(&other, None, true));
    let bad = good.replace("\"steps_done\":3", "\"steps_done\":4");
    assert_ne!(bad, good);
    let err = load_train_json(&mut store, &bad).unwrap_err();
    assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");
    assert_eq!(bits(&store), before);
    load_train_json(&mut store, &good).unwrap();
    assert_eq!(bits(&store), bits(&other));
}

// ---------------------------------------------------------------------------
// Parity with the tree loader's rules
// ---------------------------------------------------------------------------

#[test]
fn loaders_keep_the_tree_parsers_acceptance_rules() {
    let mut store = finite_store();
    let w = store.find("w").unwrap();
    let b = store.find("b").unwrap();

    // integer tokens, duplicate keys (last wins), unknown keys skipped,
    // numbers past f32 (and f64) range decode as f64 then `as f32`
    let doc = r#"{"format_version":1,"extra":{"deep":[[1,{"x":null}]]},"params":[
        {"name":"w","shape":[2,2],"data":[1,-2,3e0,1e999],"data":[1,-2,3,-4],"note":"skip"},
        {"name":"zzz","shape":[1],"data":[1]},
        {"name":"b","name":"b","shape":[2],"data":[1e999,-1e400]}],
        "params_extra":[]}"#;
    load_json(&mut store, doc).unwrap();
    assert_eq!(store.value(w).data(), &[1.0, -2.0, 3.0, -4.0]);
    assert_eq!(store.value(b).data(), &[f32::INFINITY, f32::NEG_INFINITY]);
    let via_tree: Vec<f32> = Json::parse("[1e999,-1e400,0.1]")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|x| x.as_f64().unwrap() as f32)
        .collect();
    assert_eq!(&via_tree[..2], store.value(b).data());

    // a v1 file through the train-state loader: params load, default state
    let src = finite_store();
    let state = load_train_json(&mut store, &to_json(&src)).unwrap();
    assert_eq!(bits(&store), bits(&src));
    assert!(state.adam.is_none() && state.corpus.is_none());
    assert_eq!((state.steps_done, state.losses.len()), (0, 0));

    // a whole train state round-trips, pending window included
    let full = state_for(&src, Some(accum_for(&src)), true);
    let back = load_train_json(&mut store, &train_state_to_json(&src, &full)).unwrap();
    assert_eq!(
        train_state_to_json(&src, &back),
        train_state_to_json(&src, &full)
    );

    // typed errors: syntax is Parse, structure is Mismatch
    for (doc, parse_error) in [
        (r#"{"format_version":1,"params":[}"#, true),
        (r#"{"format_version":1,"params":[]} x"#, true),
        (
            r#"{"format_version":1,"params":[{"name":"w","shape":[2,2],"data":[1,2,3,"4"]}]}"#,
            false,
        ),
        (
            r#"{"format_version":1,"params":[{"name":"w","shape":[2,2.0],"data":[]}]}"#,
            false,
        ),
        (r#"{"format_version":1,"params":{}}"#, false),
        (r#"[1,2]"#, false),
    ] {
        let err = load_json(&mut store, doc).unwrap_err();
        let is_parse = matches!(err, CheckpointError::Parse(_));
        assert_eq!(is_parse, parse_error, "{doc}: {err}");
    }
}

#[test]
fn overflowing_shapes_are_typed_errors() {
    let doc =
        r#"{"format_version":1,"params":[{"name":"x","shape":[4294967296,4294967296],"data":[]}]}"#;
    let Err(err) = load_params_any(doc) else {
        panic!("an overflowing shape loaded");
    };
    assert!(
        matches!(&err, CheckpointError::Mismatch(m) if m.contains("usize")),
        "{err}"
    );
    let mut store = ParamStore::new();
    store.register("x", Tensor::zeros(&[2]));
    let err = load_json(&mut store, doc).unwrap_err();
    assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");
    assert_eq!(store.value(store.find("x").unwrap()).data(), &[0.0, 0.0]);

    // the same shape on a parameter, an Adam moment and pending gradients
    let src = finite_store();
    let doc = train_state_to_json(&src, &state_for(&src, Some(accum_for(&src)), true));
    let small = "\"shape\":[2]";
    let sites: Vec<usize> = doc.match_indices(small).map(|(at, _)| at).collect();
    assert_eq!(
        sites.len(),
        4,
        "b's shape in params, moments and two pending grads"
    );
    for at in sites {
        let one = format!(
            "{}\"shape\":[4294967296,4294967296]{}",
            &doc[..at],
            &doc[at + small.len()..]
        );
        let mut probe = finite_store();
        let before = bits(&probe);
        let err = load_train_json(&mut probe, &one).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Mismatch(_)),
            "at {at}: {err}"
        );
        assert_eq!(bits(&probe), before);
    }
}

// ---------------------------------------------------------------------------
// Fuzz: every loader on mutated documents
// ---------------------------------------------------------------------------

/// One seeded mutation of `doc`: a byte flip, a truncation, a digit run,
/// 200-deep nesting, or a huge shape. Mutations stay ASCII so the result
/// is still a `&str` (the loaders' input type).
fn mutate(doc: &str, rng: &mut SmallRng) -> String {
    if doc.is_empty() {
        return String::new();
    }
    let mut bytes = doc.as_bytes().to_vec();
    let at = rng.gen_range(0..bytes.len());
    match rng.gen_range(0..6u32) {
        0 => {
            let alphabet = b" \"[]{},:-.0123456789eEtfnulx\\";
            bytes[at] = alphabet[rng.gen_range(0..alphabet.len())];
        }
        1 => bytes.truncate(at),
        2 => {
            let run: Vec<u8> = (0..rng.gen_range(1..400))
                .map(|i| b'0' + (i % 10) as u8)
                .collect();
            bytes.splice(at..at, run);
        }
        3 => {
            let nest = "[".repeat(200) + &"]".repeat(200);
            bytes.splice(at..at, nest.bytes());
        }
        4 => {
            let huge = [
                "[4294967296,4294967296]",
                "[18446744073709551615]",
                "[0,18446744073709551615,2]",
            ];
            let text = String::from_utf8(bytes).unwrap();
            let pick = huge[rng.gen_range(0..huge.len())];
            return text.replacen("[2]", pick, 1 + rng.gen_range(0..3));
        }
        _ => {
            // cut a short span out of the middle
            let end = (at + rng.gen_range(1..40)).min(bytes.len());
            bytes.drain(at..end);
        }
    }
    String::from_utf8(bytes).unwrap()
}

#[test]
fn seeded_fuzz_never_panics_any_loader() {
    let src = finite_store();
    let train = train_state_to_json(&src, &state_for(&src, Some(accum_for(&src)), true));
    let qm = QuantMatrix::quantize_transposed(&[0.5, -1.0, 0.25, 2.0], 2, 2);
    let quant = quant_to_json(&src, [("w", &qm)]);
    let mut rng = SmallRng::seed_from_u64(0x5eed);
    let (mut ok, mut err) = (0usize, 0usize);
    for i in 0..3000 {
        let base = if i % 2 == 0 { &train } else { &quant };
        let mut doc = mutate(base, &mut rng);
        if rng.gen_bool(0.3) {
            doc = mutate(&doc, &mut rng);
        }
        let before = bits(&finite_store());
        let mut tally = |r: Result<(), CheckpointError>, store: Option<&ParamStore>| match r {
            Ok(()) => ok += 1,
            Err(_) => {
                err += 1;
                if let Some(store) = store {
                    assert_eq!(
                        bits(store),
                        before,
                        "a failed load changed the store:\n{doc}"
                    );
                }
            }
        };
        let mut store = finite_store();
        tally(load_json(&mut store, &doc), Some(&store));
        let mut store = finite_store();
        tally(load_train_json(&mut store, &doc).map(drop), Some(&store));
        tally(load_params_any(&doc).map(drop), None);
        tally(load_quant_json(&doc).map(drop), None);
    }
    // the mutations must exercise both outcomes
    assert!(ok > 100 && err > 100, "ok {ok}, err {err}");
}
