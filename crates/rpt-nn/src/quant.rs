//! Int8 inference-mode weight sets for [`Seq2Seq`] decoding.
//!
//! A [`QuantSet`] holds a [`QuantMatrix`] per dense-layer weight plus the
//! quantized tied output projection. It is built offline (or at load) from
//! an f32 [`ParamStore`] and attached to a model with
//! [`crate::Seq2Seq::set_quant`]; every inference [`Ctx`](crate::Ctx) the
//! model creates then carries a reference to it, and [`crate::Linear`]
//! takes the exact-integer kernel path for weights that have an entry.
//!
//! Only *weights* are quantized, ahead of time; activations are quantized
//! per row inside the kernel and everything else (layer norms, attention
//! probabilities, residuals, biases) stays f32. Training paths never see a
//! quant set: `Ctx::new` starts with `quant: None` and only the
//! forward-only decode contexts attach one.

use std::collections::HashMap;

use rpt_tensor::{ParamId, ParamStore, QuantMatrix};

/// Name of the tied embedding/output-projection weight in [`ParamStore`].
pub const TIED_WEIGHT_NAME: &str = "s2s.tok.w";

/// Weight-name suffixes of the dense layers quantized for inference: the
/// four attention projections and the two feed-forward layers of every
/// encoder/decoder block.
pub const LINEAR_WEIGHT_SUFFIXES: [&str; 6] = [".q.w", ".k.w", ".v.w", ".o.w", ".ff1.w", ".ff2.w"];

/// A model's int8 inference weights: per-layer quantized dense weights
/// keyed by [`ParamId`], plus the quantized tied projection.
#[derive(Debug, Default)]
pub struct QuantSet {
    /// `(param name, id, quantized weight)` per dense layer.
    linears: Vec<(String, ParamId, QuantMatrix)>,
    index: HashMap<ParamId, usize>,
    /// Quantized tied embedding table `[vocab, d]` (output channels = rows).
    tied: Option<QuantMatrix>,
}

impl QuantSet {
    /// Number of quantized dense-layer weights (excluding the tied table).
    pub fn len(&self) -> usize {
        self.linears.len()
    }

    /// True when no weight has been quantized.
    pub fn is_empty(&self) -> bool {
        self.linears.is_empty() && self.tied.is_none()
    }

    /// The quantized weight for a dense layer, if registered.
    pub fn linear(&self, id: ParamId) -> Option<&QuantMatrix> {
        self.index.get(&id).map(|&i| &self.linears[i].2)
    }

    /// The quantized tied output projection, if registered.
    pub fn tied(&self) -> Option<&QuantMatrix> {
        self.tied.as_ref()
    }

    /// Registers a quantized dense-layer weight under its parameter name.
    pub fn insert(&mut self, name: impl Into<String>, id: ParamId, qm: QuantMatrix) {
        self.index.insert(id, self.linears.len());
        self.linears.push((name.into(), id, qm));
    }

    /// Registers the quantized tied table.
    pub fn set_tied(&mut self, qm: QuantMatrix) {
        self.tied = Some(qm);
    }

    /// Iterates every quantized tensor as `(name, matrix)` — the tied
    /// table under [`TIED_WEIGHT_NAME`] — in a stable order, for
    /// checkpoint serialization.
    pub fn iter_named(&self) -> impl Iterator<Item = (&str, &QuantMatrix)> {
        self.tied
            .iter()
            .map(|qm| (TIED_WEIGHT_NAME, qm))
            .chain(self.linears.iter().map(|(n, _, qm)| (n.as_str(), qm)))
    }
}

/// Quantizes every inference-path weight of a [`ParamStore`] holding a
/// [`crate::Seq2Seq`]: each dense-layer weight `W: [d_in, d_out]` matching
/// [`LINEAR_WEIGHT_SUFFIXES`] per output column (transposed storage), and
/// the tied table [`TIED_WEIGHT_NAME`] `[vocab, d]` per row.
pub fn build_quant_set(params: &ParamStore) -> QuantSet {
    let mut qs = QuantSet::default();
    let names: Vec<String> = params.iter().map(|(n, _)| n.to_string()).collect();
    for name in names {
        let id = params.find(&name).expect("iterated name must resolve");
        let t = params.value(id);
        if t.shape().len() != 2 {
            continue;
        }
        let (rows, cols) = (t.shape()[0], t.shape()[1]);
        if name == TIED_WEIGHT_NAME {
            qs.set_tied(QuantMatrix::quantize_rows(t.data(), rows, cols));
        } else if LINEAR_WEIGHT_SUFFIXES.iter().any(|s| name.ends_with(s)) {
            qs.insert(name, id, QuantMatrix::quantize_transposed(t.data(), rows, cols));
        }
    }
    qs
}

/// Rebuilds a [`QuantSet`] from named tensors (a loaded `quant-v1`
/// checkpoint section), resolving each name against `params`. Unknown
/// names and shapes that disagree with the parameter are errors — a quant
/// section must describe the model it rides with, and a mis-shaped tensor
/// would otherwise panic inside the first quantized decode.
pub fn quant_set_from_named(
    params: &ParamStore,
    entries: Vec<(String, QuantMatrix)>,
) -> Result<QuantSet, String> {
    let mut qs = QuantSet::default();
    for (name, qm) in entries {
        let id = params
            .find(&name)
            .ok_or_else(|| format!("quant tensor {name:?} has no matching parameter"))?;
        let shape = params.value(id).shape();
        // The tied table `[vocab, d]` is stored row for row; a dense
        // weight `[d_in, d_out]` transposed.
        let tied = name == TIED_WEIGHT_NAME;
        let expect = if tied {
            [qm.n_out(), qm.k()]
        } else {
            [qm.k(), qm.n_out()]
        };
        if shape != expect {
            return Err(format!(
                "quant tensor {name:?} shape [{}, {}] does not match parameter {shape:?}",
                qm.n_out(),
                qm.k(),
            ));
        }
        if tied {
            qs.set_tied(qm);
        } else {
            qs.insert(name, id, qm);
        }
    }
    Ok(qs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq2seq::{Seq2Seq, TransformerConfig};
    use rpt_rng::{SeedableRng, SmallRng};

    fn tiny_model() -> (Seq2Seq, ParamStore) {
        let mut params = ParamStore::new();
        let mut rng = SmallRng::seed_from_u64(0);
        let model = Seq2Seq::new(&mut params, TransformerConfig::tiny(12), &mut rng);
        (model, params)
    }

    #[test]
    fn build_covers_every_dense_weight_and_the_tied_table() {
        let (model, params) = tiny_model();
        let cfg = model.config();
        let qs = build_quant_set(&params);
        // per layer: q/k/v/o + self+cross attention in decoder + ff1/ff2
        let enc_linears = cfg.n_layers * 6;
        let dec_linears = cfg.n_dec_layers * 10;
        assert_eq!(qs.len(), enc_linears + dec_linears);
        let tied = qs.tied().expect("tied table quantized");
        assert_eq!(tied.n_out(), cfg.vocab_size);
        assert_eq!(tied.k(), cfg.d_model);
        for (name, _) in params.iter() {
            if LINEAR_WEIGHT_SUFFIXES.iter().any(|s| name.ends_with(s)) {
                let id = params.find(name).unwrap();
                assert!(qs.linear(id).is_some(), "missing quant entry for {name}");
            }
        }
    }

    #[test]
    fn named_roundtrip_rebuilds_an_equivalent_set() {
        let (_model, params) = tiny_model();
        let qs = build_quant_set(&params);
        let named: Vec<(String, QuantMatrix)> = qs
            .iter_named()
            .map(|(n, qm)| (n.to_string(), qm.clone()))
            .collect();
        let rebuilt = quant_set_from_named(&params, named).expect("roundtrip");
        assert_eq!(rebuilt.len(), qs.len());
        for (name, qm) in qs.iter_named() {
            if name == TIED_WEIGHT_NAME {
                assert_eq!(rebuilt.tied().unwrap().weights(), qm.weights());
            } else {
                let id = params.find(name).unwrap();
                assert_eq!(rebuilt.linear(id).unwrap().weights(), qm.weights());
            }
        }
    }

    #[test]
    fn mis_shaped_tied_table_is_rejected() {
        let (model, params) = tiny_model();
        let d = model.config().d_model;
        // one row short of the vocabulary, and one column short of d
        for (n_out, k) in [
            (model.config().vocab_size - 1, d),
            (model.config().vocab_size, d - 1),
        ] {
            let qm = QuantMatrix::quantize_rows(&vec![0.5; n_out * k], n_out, k);
            let err = quant_set_from_named(&params, vec![(TIED_WEIGHT_NAME.into(), qm)])
                .expect_err("mis-shaped tied table must be rejected");
            assert!(err.contains("does not match"), "{err}");
        }
    }

    #[test]
    fn unknown_names_are_rejected() {
        let (_model, params) = tiny_model();
        let qm = QuantMatrix::quantize_rows(&[1.0, 2.0], 1, 2);
        let err = quant_set_from_named(&params, vec![("no.such.w".into(), qm)]);
        assert!(err.is_err());
    }
}
