//! Checkpointing: save/load a [`ParamStore`] (and optionally the full
//! training state) as JSON, atomically.
//!
//! JSON is verbose but human-inspectable and needs no dependencies beyond
//! the in-tree `rpt-json`; the models in this reproduction are small (well
//! under a million scalars), so file size is not a concern. The params
//! format is unchanged from the original `serde_json` emitter —
//! `{"format_version":1,"params":[{"name":...,"shape":[...],"data":[...]}]}` —
//! so checkpoints written before the migration load identically. Floats
//! are written with shortest round-trip decimal encoding, which makes
//! `f32` tensors bit-identical after a save/load cycle.
//!
//! One codec serves all three families (params v1, train-state v2,
//! `quant-v1`), and neither direction builds a `Json` tree for tensor
//! data: writers stream the document into one buffer reserved from the
//! element count, and loaders pull it through [`rpt_json::Reader`],
//! decoding numeric arrays straight into vectors. Loads are all or
//! nothing — the whole document is decoded and validated before the
//! caller's store changes — and saves refuse non-finite values (which
//! JSON cannot carry) before anything is staged.
//!
//! Two extensions support crash-safe resumable training (see DESIGN.md,
//! "Durable training state"):
//!
//! * **[`TrainState`]** (format_version 2) adds a `"train"` object with
//!   Adam's `m`/`v`/`t`, named RNG stream states, the completed-step
//!   counter, and the loss curve — while keeping `"params"` readable by
//!   v1 loaders, and v1 files readable here.
//! * **Atomic writes**: every save goes write-temp → fsync → rename →
//!   fsync-dir through the [`CheckpointIo`] trait, so a crash at any
//!   point leaves a complete old or complete new file, never a torn one.

use std::fmt::Write as _;
use std::fs;
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::LazyLock;

use rpt_json::{Json, JsonError, Next, Reader};

use crate::optim::{AdamState, ParamId, ParamStore};
use crate::tensor::Tensor;

/// Checkpoint-IO metrics (DESIGN.md §Observability): every stage of the
/// atomic-write protocol is timed separately so a slow fsync is
/// distinguishable from a slow serialize, and injected faults are counted.
struct CkptObs {
    saves: rpt_obs::Counter,
    loads: rpt_obs::Counter,
    save_errors: rpt_obs::Counter,
    faults_injected: rpt_obs::Counter,
    bytes_written: rpt_obs::Counter,
    bytes_read: rpt_obs::Counter,
    size_bytes: rpt_obs::Gauge,
    save_ms: rpt_obs::Histogram,
    load_ms: rpt_obs::Histogram,
    write_ms: rpt_obs::Histogram,
    fsync_ms: rpt_obs::Histogram,
    rename_ms: rpt_obs::Histogram,
}

static OBS: LazyLock<CkptObs> = LazyLock::new(|| CkptObs {
    saves: rpt_obs::counter("ckpt.saves"),
    loads: rpt_obs::counter("ckpt.loads"),
    save_errors: rpt_obs::counter("ckpt.save_errors"),
    faults_injected: rpt_obs::counter("ckpt.faults_injected"),
    bytes_written: rpt_obs::counter("ckpt.bytes_written"),
    bytes_read: rpt_obs::counter("ckpt.bytes_read"),
    size_bytes: rpt_obs::gauge("ckpt.size_bytes"),
    save_ms: rpt_obs::histogram("ckpt.save_ms"),
    load_ms: rpt_obs::histogram("ckpt.load_ms"),
    write_ms: rpt_obs::histogram("ckpt.write_ms"),
    fsync_ms: rpt_obs::histogram("ckpt.fsync_ms"),
    rename_ms: rpt_obs::histogram("ckpt.rename_ms"),
});

/// The checkpoint format revision this build writes.
const FORMAT_VERSION: u32 = 1;

// ---------------------------------------------------------------------------
// Atomic checkpoint I/O
// ---------------------------------------------------------------------------

/// The filesystem primitives a durable checkpoint write decomposes into.
///
/// Production code uses [`StdCheckpointIo`]; crash-safety tests inject
/// faults through [`FaultyIo`] to prove that whatever step fails, the
/// previously committed checkpoint at the destination path survives
/// intact (the write-to-temp → fsync → rename → fsync-dir protocol never
/// touches the destination except via the atomic rename).
pub trait CheckpointIo {
    /// Creates (truncating) `path` and writes `bytes` to it.
    fn write_file(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Flushes the file's contents to stable storage.
    fn sync_file(&mut self, path: &Path) -> io::Result<()>;
    /// Atomically replaces `to` with `from` (same filesystem).
    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()>;
    /// Flushes the directory entry (the rename itself) to stable storage.
    fn sync_dir(&mut self, dir: &Path) -> io::Result<()>;
    /// Reads the whole file at `path`. Streaming-corpus shard reads go
    /// through this hook so the fault harness can serve torn or failing
    /// reads; the default is the plain filesystem.
    fn read_file(&mut self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }
}

/// The real filesystem.
#[derive(Debug, Default)]
pub struct StdCheckpointIo;

impl CheckpointIo for StdCheckpointIo {
    fn write_file(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut f = fs::File::create(path)?;
        f.write_all(bytes)?;
        f.flush()
    }

    fn sync_file(&mut self, path: &Path) -> io::Result<()> {
        fs::File::open(path)?.sync_all()
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn sync_dir(&mut self, dir: &Path) -> io::Result<()> {
        fs::File::open(dir)?.sync_all()
    }
}

/// One injectable failure in the atomic-write sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Persist only the first `n` bytes of the payload, then fail — a
    /// torn write (crash mid-`write`).
    ShortWrite(usize),
    /// Fail the fsync of the freshly written temp file.
    SyncFile,
    /// Fail the rename into place (crash just before commit).
    Rename,
    /// Fail the directory fsync *after* a successful rename (crash just
    /// after commit: the new checkpoint is already in place).
    SyncDir,
    /// Serve only the first `n` bytes of the file on the next read — a
    /// torn read (the file on disk is fine; the reader saw a prefix).
    ReadTruncate(usize),
    /// Fail the next read outright (media error / vanished file).
    ReadFail,
}

/// A [`CheckpointIo`] that performs real filesystem operations but
/// injects one configured [`Fault`] — the fault-injection harness used
/// by the crash-safety test suite.
#[derive(Debug)]
pub struct FaultyIo {
    inner: StdCheckpointIo,
    fault: Option<Fault>,
}

impl FaultyIo {
    /// An IO layer that will fail once at the configured step.
    pub fn new(fault: Fault) -> Self {
        Self {
            inner: StdCheckpointIo,
            fault: Some(fault),
        }
    }

    /// True once the configured fault has fired.
    pub fn tripped(&self) -> bool {
        self.fault.is_none()
    }

    fn injected(&mut self) -> io::Error {
        OBS.faults_injected.inc();
        rpt_obs::warn!(target: "rpt_tensor::ckpt", "checkpoint fault injected: {:?}", self.fault);
        self.fault = None;
        io::Error::other("injected checkpoint fault")
    }
}

impl CheckpointIo for FaultyIo {
    fn write_file(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        if let Some(Fault::ShortWrite(n)) = self.fault {
            let n = n.min(bytes.len());
            self.inner.write_file(path, &bytes[..n])?;
            return Err(self.injected());
        }
        self.inner.write_file(path, bytes)
    }

    fn sync_file(&mut self, path: &Path) -> io::Result<()> {
        if self.fault == Some(Fault::SyncFile) {
            return Err(self.injected());
        }
        self.inner.sync_file(path)
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        if self.fault == Some(Fault::Rename) {
            return Err(self.injected());
        }
        self.inner.rename(from, to)
    }

    fn sync_dir(&mut self, dir: &Path) -> io::Result<()> {
        if self.fault == Some(Fault::SyncDir) {
            return Err(self.injected());
        }
        self.inner.sync_dir(dir)
    }

    fn read_file(&mut self, path: &Path) -> io::Result<Vec<u8>> {
        match self.fault {
            Some(Fault::ReadTruncate(n)) => {
                self.injected();
                let bytes = self.inner.read_file(path)?;
                let n = n.min(bytes.len());
                Ok(bytes[..n].to_vec())
            }
            Some(Fault::ReadFail) => Err(self.injected()),
            _ => self.inner.read_file(path),
        }
    }
}

/// The sibling temp path an atomic write stages into (`<path>.tmp`).
pub fn staging_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

/// Durably replaces the file at `path` with `bytes`: write to a sibling
/// temp file, fsync it, rename it into place, fsync the directory. A
/// crash (or injected fault) at any point leaves either the old complete
/// file or the new complete file at `path` — never a torn mixture.
pub fn atomic_write_with(
    io: &mut dyn CheckpointIo,
    path: &Path,
    bytes: &[u8],
) -> io::Result<()> {
    let tmp = staging_path(path);
    let result = (|| {
        {
            let _t = OBS.write_ms.time();
            io.write_file(&tmp, bytes)?;
        }
        {
            let _t = OBS.fsync_ms.time();
            io.sync_file(&tmp)?;
        }
        {
            let _t = OBS.rename_ms.time();
            io.rename(&tmp, path)?;
        }
        let dir = match path.parent() {
            Some(d) if !d.as_os_str().is_empty() => d,
            _ => Path::new("."),
        };
        io.sync_dir(dir)
    })();
    match &result {
        Ok(()) => {
            OBS.saves.inc();
            OBS.bytes_written.add(bytes.len() as u64);
            OBS.size_bytes.set(bytes.len() as f64);
        }
        Err(e) => {
            OBS.save_errors.inc();
            rpt_obs::warn!(target: "rpt_tensor::ckpt", "checkpoint write to {} failed: {e}", path.display());
            // best-effort cleanup; after a successful rename this is a no-op
            let _ = fs::remove_file(&tmp);
        }
    }
    result
}

/// [`atomic_write_with`] on the real filesystem.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    atomic_write_with(&mut StdCheckpointIo, path, bytes)
}

/// Errors from checkpoint IO.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// Malformed JSON.
    Parse(JsonError),
    /// Well-formed JSON that is not a checkpoint, or a checkpoint that
    /// does not match the store's parameters.
    Mismatch(String),
    /// A save refused because the named tensor (or loss) holds a NaN or
    /// ±inf, which JSON cannot carry; nothing was written.
    NonFinite(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CheckpointError::Parse(e) => write!(f, "checkpoint parse error: {e}"),
            CheckpointError::Mismatch(m) => write!(f, "checkpoint mismatch: {m}"),
            CheckpointError::NonFinite(what) => {
                write!(f, "checkpoint refused: {what} holds a non-finite value")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<JsonError> for CheckpointError {
    fn from(e: JsonError) -> Self {
        CheckpointError::Parse(e)
    }
}

fn structure(msg: impl Into<String>) -> CheckpointError {
    CheckpointError::Mismatch(msg.into())
}

// ---------------------------------------------------------------------------
// Streaming writer
// ---------------------------------------------------------------------------

/// Bytes reserved per float: the longest `f32` token ("-0." + 44 zeros +
/// 17 digits, for the smallest subnormal) plus its comma.
const FLOAT_BYTES: usize = 65;
/// Bytes reserved per record beyond its floats and name: keys, braces,
/// a few shape dims, or one RNG stream.
const RECORD_BYTES: usize = 160;

/// Whole-document buffers (a save's output, a load's input) are reserved
/// at no less than this. glibc's malloc serves a request this large from
/// a fresh mapping and unmaps it on free (it adapts its mmap threshold only
/// to freed blocks of up to 32 MiB), so a save or load leaves no freed but
/// still resident copy of a document behind for the next one to land
/// beside. Capacity that is never written costs address space, not memory;
/// the price is a page fault per written page on every save and load.
const DOC_BUF_MIN: usize = (32 << 20) + 4096;

/// Bytes [`DocWriter::new`] reserves for one `name` record of `floats` floats.
fn record_bytes(name: &str, floats: usize) -> usize {
    RECORD_BYTES + 6 * name.len() + FLOAT_BYTES * floats
}

/// Reservation for a store's `params` array.
fn params_bytes(store: &ParamStore) -> usize {
    store
        .iter()
        .map(|(name, t)| record_bytes(name, t.numel()))
        .sum()
}

/// A checkpoint document streamed into one buffer reserved up front from
/// the element count — no `Json` tree. The bytes must equal `Json`'s
/// compact form of the same document, so files stay byte-compatible
/// (`tests/checkpoint_codec.rs` holds the tree writer as referee). A
/// non-finite float is written as `null`, as `Json` writes it, and the
/// first one is remembered: the savers refuse such a document, since no
/// loader would read it back.
struct DocWriter {
    out: String,
    /// Where the first non-finite value sits, for the error message.
    non_finite: Option<String>,
}

impl DocWriter {
    fn new(reserve: usize) -> Self {
        DocWriter {
            out: String::with_capacity((reserve + RECORD_BYTES).max(DOC_BUF_MIN)),
            non_finite: None,
        }
    }

    fn raw(&mut self, s: &str) {
        self.out.push_str(s);
    }

    fn string(&mut self, s: &str) {
        rpt_json::push_string(&mut self.out, s);
    }

    /// An integer, written exactly as its [`Json`] conversion writes it.
    fn int(&mut self, n: impl Into<Json>) {
        write!(self.out, "{}", n.into()).expect("writing to a String cannot fail");
    }

    /// A float; `what` names its owner if it is the first non-finite one.
    fn float(&mut self, what: &str, x: f32) {
        if !x.is_finite() && self.non_finite.is_none() {
            self.non_finite = Some(what.to_string());
        }
        rpt_json::push_number(&mut self.out, x as f64);
    }

    /// `[a,b,...]`, one `item` call per element.
    fn list<T>(&mut self, items: impl IntoIterator<Item = T>, mut item: impl FnMut(&mut Self, T)) {
        self.out.push('[');
        for (i, x) in items.into_iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            item(self, x);
        }
        self.out.push(']');
    }

    fn floats(&mut self, what: &str, xs: &[f32]) {
        self.list(xs, |w, &x| w.float(what, x));
    }

    /// `{"name":...,"shape":[...],"<key>":[...],...}`.
    fn tensor(&mut self, name: &str, shape: &[usize], arrays: &[(&str, &[f32])]) {
        self.raw("{\"name\":");
        self.string(name);
        self.raw(",\"shape\":");
        self.list(shape, |w, &d| w.int(d));
        for (key, data) in arrays {
            self.raw(",\"");
            self.raw(key);
            self.raw("\":");
            self.floats(name, data);
        }
        self.raw("}");
    }

    /// `{"format_version":V,"params":[...]` — the v1 prefix every
    /// checkpoint family shares (the caller closes the object).
    fn params(&mut self, version: u32, store: &ParamStore) {
        self.raw("{\"format_version\":");
        self.int(version);
        self.raw(",\"params\":");
        self.list(store.iter(), |w, (name, t)| {
            w.tensor(name, t.shape(), &[("data", t.data())])
        });
    }

    /// The document's bytes, or the typed refusal for a non-finite value.
    fn finish(self) -> Result<String, CheckpointError> {
        match self.non_finite {
            None => Ok(self.out),
            Some(what) => Err(CheckpointError::NonFinite(what)),
        }
    }
}

/// Atomically writes a streamed document — unless it holds a non-finite
/// value, in which case nothing is staged and the previous file at
/// `path` stays the checkpoint.
fn save_doc(io: &mut dyn CheckpointIo, path: &Path, doc: DocWriter) -> Result<(), CheckpointError> {
    let bytes = doc.finish().inspect_err(|e| {
        OBS.save_errors.inc();
        rpt_obs::warn!(target: "rpt_tensor::ckpt", "checkpoint save to {} refused: {e}", path.display());
    })?;
    atomic_write_with(io, path, bytes.as_bytes())?;
    Ok(())
}

fn params_doc(store: &ParamStore) -> DocWriter {
    let mut w = DocWriter::new(params_bytes(store));
    w.params(FORMAT_VERSION, store);
    w.raw("}");
    w
}

/// Serializes every parameter of `store` to a JSON string. A non-finite
/// value is written as `null`, which no loader accepts; [`save_file`]
/// refuses such a store instead.
pub fn to_json(store: &ParamStore) -> String {
    params_doc(store).out
}

// ---------------------------------------------------------------------------
// Streaming reader
// ---------------------------------------------------------------------------
//
// Loaders decode the whole document through `rpt_json::Reader` into the
// `Raw*` mirrors below — small members as `Json` values, numeric arrays
// straight into vectors — and only then validate, in a fixed order that
// does not depend on the order of keys in the file. A document that fails
// any check therefore leaves the caller's store untouched.

/// An array member: `None` if absent, `Some(None)` if present but not an
/// array (of acceptable numbers, for a numeric member).
type Field<T> = Option<Option<Vec<T>>>;

/// Walks the next value as an object, handing each key to `f` (which
/// consumes its value). Any other value is skipped and reads as an object
/// without keys, just as `Json::get` on a non-object finds nothing.
fn each_key(
    r: &mut Reader,
    mut f: impl FnMut(&mut Reader, &str) -> Result<(), JsonError>,
) -> Result<(), JsonError> {
    if r.peek()? != Next::Object {
        return r.skip();
    }
    r.begin_object()?;
    while let Some(key) = r.next_key()? {
        f(r, &key)?;
    }
    Ok(())
}

/// Decodes the next value as an array, `item` per element; `None` (the
/// value consumed) if it is not an array.
fn each_item<T>(
    r: &mut Reader,
    mut item: impl FnMut(&mut Reader) -> Result<T, JsonError>,
) -> Result<Option<Vec<T>>, JsonError> {
    if r.peek()? != Next::Array {
        r.skip()?;
        return Ok(None);
    }
    r.begin_array()?;
    let mut out = Vec::new();
    while r.next_element()? {
        out.push(item(r)?);
    }
    Ok(Some(out))
}

/// `None` for a JSON `null`, else the value decoded by `f`.
fn nullable<T>(
    r: &mut Reader,
    f: impl FnOnce(&mut Reader) -> Result<T, JsonError>,
) -> Result<Option<T>, JsonError> {
    if r.peek()? == Next::Null {
        r.skip()?;
        return Ok(None);
    }
    f(r).map(Some)
}

/// A `{"name","shape",<float arrays>}` record (a parameter, a pending
/// gradient, or Adam's `m`/`v` pair in `a`/`b`), not yet validated.
#[derive(Default)]
struct RawTensor {
    name: Option<Json>,
    shape: Option<Json>,
    a: Field<f32>,
    b: Field<f32>,
}

impl RawTensor {
    fn decode(r: &mut Reader, a_key: &str, b_key: Option<&str>) -> Result<Self, JsonError> {
        let mut rec = RawTensor::default();
        each_key(r, |r, key| {
            match key {
                "name" => rec.name = Some(r.value()?),
                "shape" => rec.shape = Some(r.value()?),
                k if k == a_key => rec.a = Some(r.f32_array()?),
                k if Some(k) == b_key => rec.b = Some(r.f32_array()?),
                _ => r.skip()?,
            }
            Ok(())
        })?;
        Ok(rec)
    }

    fn name(&self, missing: &str) -> Result<String, CheckpointError> {
        self.name
            .as_ref()
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| structure(missing))
    }

    fn shape(&self, name: &str) -> Result<Vec<usize>, CheckpointError> {
        self.shape
            .as_ref()
            .and_then(Json::as_array)
            .ok_or_else(|| structure(format!("param {name} without shape")))?
            .iter()
            .map(|d| d.as_u64().map(|d| d as usize))
            .collect::<Option<_>>()
            .ok_or_else(|| structure(format!("param {name} has non-integer shape")))
    }
}

/// A numeric-array member, present and all numbers.
fn nums<T>(field: Field<T>, name: &str, key: &str) -> Result<Vec<T>, CheckpointError> {
    match field {
        None => Err(structure(format!("param {name} without {key}"))),
        Some(None) => Err(structure(format!("param {name} has non-numeric {key}"))),
        Some(Some(v)) => Ok(v),
    }
}

/// A tensor from decoded parts; an inconsistent or overflowing shape is a
/// `Mismatch` prefixed with `what`.
fn tensor(data: Vec<f32>, shape: &[usize], what: &str) -> Result<Tensor, CheckpointError> {
    Tensor::from_vec(data, shape).map_err(|e| structure(format!("{what}: {e}")))
}

/// Errors unless `store`'s parameter `name` (if it has one) is shaped
/// `shape`; `subject` ("... has") leads the message.
fn check_shape(
    store: &ParamStore,
    name: &str,
    shape: &[usize],
    subject: &str,
) -> Result<(), CheckpointError> {
    match store.find(name) {
        Some(id) if store.value(id).shape() != shape => Err(structure(format!(
            "{subject} shape {shape:?} but the parameter is {:?}",
            store.value(id).shape()
        ))),
        _ => Ok(()),
    }
}

/// A checkpoint document as decoded: the top-level sections one loader
/// wants; the rest are skipped (validated, never built).
#[derive(Default)]
struct RawDoc {
    format_version: Option<Json>,
    params: Field<RawTensor>,
    train: Option<RawTrain>,
    quant: Option<RawQuant>,
}

/// The top-level sections a loader decodes.
#[derive(Clone, Copy, PartialEq)]
enum Want {
    Params,
    Train,
    Quant,
}

impl RawDoc {
    fn decode(json: &str, want: Want) -> Result<Self, JsonError> {
        let mut r = Reader::new(json);
        let mut doc = RawDoc::default();
        each_key(&mut r, |r, key| {
            match key {
                "format_version" => doc.format_version = Some(r.value()?),
                "params" if want != Want::Quant => {
                    doc.params = Some(each_item(r, |r| RawTensor::decode(r, "data", None))?)
                }
                "train" if want == Want::Train => doc.train = Some(RawTrain::decode(r)?),
                "quant" if want == Want::Quant => doc.quant = Some(RawQuant::decode(r)?),
                _ => r.skip()?,
            }
            Ok(())
        })?;
        r.finish()?;
        Ok(doc)
    }

    /// The parameter records, after the format-version check.
    fn param_records(&mut self) -> Result<Vec<RawTensor>, CheckpointError> {
        self.format_version
            .as_ref()
            .and_then(Json::as_u64)
            .ok_or_else(|| structure("missing format_version"))?;
        self.params
            .take()
            .flatten()
            .ok_or_else(|| structure("missing params array"))
    }
}

/// Validates parameter records against `store` — matched by name, extra
/// names in the file tolerated (forward compat) — into the updates that a
/// successful load commits.
fn param_updates(
    store: &ParamStore,
    records: Vec<RawTensor>,
) -> Result<Vec<(ParamId, Tensor)>, CheckpointError> {
    let mut updates = Vec::new();
    for rec in records {
        let name = rec.name("param record without name")?;
        let shape = rec.shape(&name)?;
        let data = nums(rec.a, &name, "data")?;
        let Some(id) = store.find(&name) else {
            continue;
        };
        if store.value(id).shape() != shape.as_slice() {
            return Err(structure(format!(
                "parameter {} has shape {:?} in store but {:?} in checkpoint",
                name,
                store.value(id).shape(),
                shape
            )));
        }
        updates.push((id, tensor(data, &shape, &name)?));
    }
    Ok(updates)
}

fn commit(store: &mut ParamStore, updates: Vec<(ParamId, Tensor)>) {
    for (id, t) in updates {
        store.set_value(id, t);
    }
}

/// Loads parameter values from JSON into an existing store, matching by
/// name. Every parameter in the store must be present with the same shape.
/// Accepts both params-only (v1) and full train-state (v2) checkpoints.
/// All or nothing: on any error the store is left unchanged.
pub fn load_json(store: &mut ParamStore, json: &str) -> Result<(), CheckpointError> {
    let mut doc = RawDoc::decode(json, Want::Params)?;
    let updates = param_updates(store, doc.param_records()?)?;
    commit(store, updates);
    Ok(())
}

/// Parses a checkpoint into a *fresh* store holding every parameter the
/// file records, no model required — the offline path for tools (like
/// `rpt quantize`) that transform checkpoints without rebuilding the
/// architecture that produced them.
pub fn load_params_any(json: &str) -> Result<ParamStore, CheckpointError> {
    let mut doc = RawDoc::decode(json, Want::Params)?;
    let mut store = ParamStore::new();
    for rec in doc.param_records()? {
        let name = rec.name("param record without name")?;
        if store.find(&name).is_some() {
            return Err(structure(format!("duplicate parameter {name}")));
        }
        let shape = rec.shape(&name)?;
        let data = nums(rec.a, &name, "data")?;
        let t = tensor(data, &shape, &name)?;
        store.register(name, t);
    }
    Ok(store)
}

/// Writes the store to a file, atomically: a crash mid-save leaves any
/// previous checkpoint at `path` intact. A store holding a NaN or ±inf is
/// refused with [`CheckpointError::NonFinite`] before anything is staged.
pub fn save_file(store: &ParamStore, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
    save_file_with(&mut StdCheckpointIo, store, path)
}

/// [`save_file`] over an injectable IO layer (for crash-safety tests).
pub fn save_file_with(
    io: &mut dyn CheckpointIo,
    store: &ParamStore,
    path: impl AsRef<Path>,
) -> Result<(), CheckpointError> {
    let _t = rpt_obs::span("ckpt.save", &OBS.save_ms);
    save_doc(io, path.as_ref(), params_doc(store))
}

/// Reads a whole checkpoint document into a buffer of at least
/// [`DOC_BUF_MIN`] bytes.
fn read_doc(path: impl AsRef<Path>) -> io::Result<String> {
    let mut file = fs::File::open(path)?;
    let len = file.metadata()?.len() as usize;
    let mut text = String::with_capacity(len.max(DOC_BUF_MIN));
    file.read_to_string(&mut text)?;
    Ok(text)
}

/// Loads a file into the store.
pub fn load_file(store: &mut ParamStore, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
    let _t = rpt_obs::span("ckpt.load", &OBS.load_ms);
    let json = read_doc(path)?;
    OBS.loads.inc();
    OBS.bytes_read.add(json.len() as u64);
    load_json(store, &json)
}

// ---------------------------------------------------------------------------
// Full training-state checkpoints (format_version 2)
// ---------------------------------------------------------------------------

/// The checkpoint format revision full train-state checkpoints use.
const TRAIN_FORMAT_VERSION: u32 = 2;

/// Everything beyond parameter values a training run needs to resume
/// bit-identically: Adam's moments and step counter, the RNG streams that
/// drive batching/dropout, the completed-step counter, and the loss curve.
///
/// Versioning rules: a v2 file is `{"format_version":2, "params":[...],
/// "train":{...}}`. The `params` array is byte-compatible with v1, so
/// params-only loaders ([`load_json`]) read v2 files unchanged, and v1
/// files load here as a default `TrainState` (no moments — they
/// reinitialize cleanly — no RNG streams, zero completed steps).
#[derive(Debug, Clone, Default)]
pub struct TrainState {
    /// Optimizer state; `None` for params-only (v1) checkpoints.
    pub adam: Option<AdamState>,
    /// Named xoshiro256++ states (e.g. `"model"`, `"batch"`), serialized
    /// as hex words so full-range `u64`s survive JSON exactly.
    pub rng_streams: Vec<(String, [u64; 4])>,
    /// Optimizer steps completed when the snapshot was taken.
    pub steps_done: u64,
    /// Loss recorded at each completed step.
    pub losses: Vec<f32>,
    /// Streaming-corpus position; `None` for in-memory runs. Written as a
    /// `"corpus"` key inside `"train"`, which pre-streaming readers ignore
    /// under the unknown-keys rule — so v2 files stay loadable everywhere.
    pub corpus: Option<CorpusPos>,
}

/// Mid-corpus position of a streaming pretraining run: which shard of
/// which epoch the trainer was consuming, how many examples of that shard
/// are already folded in, and — when the snapshot lands inside a
/// gradient-accumulation window — the partial window itself, so resume
/// replays nothing.
#[derive(Debug, Clone, Default)]
pub struct CorpusPos {
    /// Completed passes over the corpus before the current one.
    pub epoch: u64,
    /// Index of the shard being consumed (manifest order).
    pub shard: u64,
    /// Examples of that shard already consumed.
    pub offset: u64,
    /// Partial accumulation window, if the snapshot was taken mid-window.
    pub accum: Option<AccumState>,
}

/// A partially filled gradient-accumulation window: the micro-steps done
/// so far, the seed the window's dropout shards were keyed from, and the
/// unapplied per-shard gradients awaiting the window's single Adam step.
#[derive(Debug, Clone, Default)]
pub struct AccumState {
    /// Micro-steps already folded into this window.
    pub micro_done: u64,
    /// Base seed of the window's indexed shard-seed sequence, serialized
    /// as a hex word so the full `u64` survives JSON exactly.
    pub window_seed: u64,
    /// One entry per data-parallel shard already folded, in global shard
    /// order (micro-steps contribute their shards in sequence).
    pub pending: Vec<PendingGrad>,
}

/// One shard's contribution awaiting the window's optimizer step.
#[derive(Debug, Clone)]
pub struct PendingGrad {
    /// Mean loss of the shard.
    pub loss: f32,
    /// Example weight of the shard (numerator of its share of the
    /// window's weighted gradient mean).
    pub weight: f32,
    /// Named raw (unscaled) gradients, same layout as parameter records.
    pub grads: Vec<(String, Tensor)>,
}

fn train_doc(store: &ParamStore, state: &TrainState) -> DocWriter {
    let moments = state.adam.iter().flat_map(|a| &a.moments);
    let pending = state
        .corpus
        .iter()
        .flat_map(|c| &c.accum)
        .flat_map(|a| &a.pending);
    let reserve = params_bytes(store)
        + moments
            .map(|(n, m, v)| record_bytes(n, m.numel() + v.numel()))
            .sum::<usize>()
        + pending
            .flat_map(|p| &p.grads)
            .map(|(n, g)| record_bytes(n, g.numel()))
            .sum::<usize>()
        + state
            .rng_streams
            .iter()
            .map(|(n, _)| record_bytes(n, 0))
            .sum::<usize>()
        + FLOAT_BYTES * state.losses.len();
    let mut w = DocWriter::new(reserve);
    w.params(TRAIN_FORMAT_VERSION, store);
    w.raw(",\"train\":{\"adam\":");
    match &state.adam {
        None => w.raw("null"),
        Some(a) => {
            w.raw("{\"t\":");
            w.int(a.t);
            w.raw(",\"moments\":");
            w.list(&a.moments, |w, (name, m, v)| {
                w.tensor(name, m.shape(), &[("m", m.data()), ("v", v.data())])
            });
            w.raw("}");
        }
    }
    w.raw(",\"rng\":");
    w.list(&state.rng_streams, |w, (name, s)| {
        w.raw("{\"name\":");
        w.string(name);
        w.raw(",\"state\":");
        w.list(s, |w, word| w.string(&format!("{word:#x}")));
        w.raw("}");
    });
    w.raw(",\"steps_done\":");
    w.int(state.steps_done);
    w.raw(",\"losses\":");
    w.floats("losses", &state.losses);
    w.raw(",\"corpus\":");
    match &state.corpus {
        None => w.raw("null"),
        Some(c) => write_corpus_pos(&mut w, c),
    }
    w.raw("}}");
    w
}

fn write_corpus_pos(w: &mut DocWriter, c: &CorpusPos) {
    w.raw("{\"epoch\":");
    w.int(c.epoch);
    w.raw(",\"shard\":");
    w.int(c.shard);
    w.raw(",\"offset\":");
    w.int(c.offset);
    w.raw(",\"accum\":");
    match &c.accum {
        None => w.raw("null"),
        Some(a) => {
            w.raw("{\"micro_done\":");
            w.int(a.micro_done);
            w.raw(",\"window_seed\":");
            w.string(&format!("{:#x}", a.window_seed));
            w.raw(",\"pending\":");
            w.list(&a.pending, |w, p| {
                w.raw("{\"loss\":");
                w.float("a pending gradient's loss", p.loss);
                w.raw(",\"weight\":");
                w.float("a pending gradient's weight", p.weight);
                w.raw(",\"grads\":");
                w.list(&p.grads, |w, (name, g)| {
                    w.tensor(name, g.shape(), &[("data", g.data())])
                });
                w.raw("}");
            });
            w.raw("}");
        }
    }
    w.raw("}");
}

/// Serializes parameters plus full training state (format_version 2).
/// Non-finite values are written as `null`; [`save_train_file`] refuses
/// such a state instead.
pub fn train_state_to_json(store: &ParamStore, state: &TrainState) -> String {
    train_doc(store, state).out
}

/// The `"train"` object as decoded.
#[derive(Default)]
struct RawTrain {
    /// `Some(None)` for `"adam": null`.
    adam: Option<Option<RawAdam>>,
    rng: Option<Json>,
    steps_done: Option<Json>,
    losses: Field<f32>,
    /// `Some(None)` for `"corpus": null`.
    corpus: Option<Option<RawCorpus>>,
}

#[derive(Default)]
struct RawAdam {
    t: Option<Json>,
    moments: Field<RawTensor>,
}

#[derive(Default)]
struct RawCorpus {
    epoch: Option<Json>,
    shard: Option<Json>,
    offset: Option<Json>,
    /// `Some(None)` for `"accum": null`.
    accum: Option<Option<RawAccum>>,
}

#[derive(Default)]
struct RawAccum {
    micro_done: Option<Json>,
    window_seed: Option<Json>,
    pending: Field<RawPending>,
}

#[derive(Default)]
struct RawPending {
    loss: Option<Json>,
    weight: Option<Json>,
    grads: Field<RawTensor>,
}

impl RawTrain {
    fn decode(r: &mut Reader) -> Result<Self, JsonError> {
        let mut t = RawTrain::default();
        each_key(r, |r, key| {
            match key {
                "adam" => t.adam = Some(nullable(r, RawAdam::decode)?),
                "rng" => t.rng = Some(r.value()?),
                "steps_done" => t.steps_done = Some(r.value()?),
                "losses" => t.losses = Some(r.f32_array()?),
                "corpus" => t.corpus = Some(nullable(r, RawCorpus::decode)?),
                _ => r.skip()?,
            }
            Ok(())
        })?;
        Ok(t)
    }
}

impl RawAdam {
    fn decode(r: &mut Reader) -> Result<Self, JsonError> {
        let mut a = RawAdam::default();
        each_key(r, |r, key| {
            match key {
                "t" => a.t = Some(r.value()?),
                "moments" => {
                    a.moments = Some(each_item(r, |r| RawTensor::decode(r, "m", Some("v")))?)
                }
                _ => r.skip()?,
            }
            Ok(())
        })?;
        Ok(a)
    }

    fn validate(self, store: &ParamStore) -> Result<AdamState, CheckpointError> {
        let t = self
            .t
            .as_ref()
            .and_then(Json::as_u64)
            .ok_or_else(|| structure("adam state without step counter t"))?;
        let mut moments = Vec::new();
        for rec in self
            .moments
            .flatten()
            .ok_or_else(|| structure("adam state without moments array"))?
        {
            let name = rec.name("adam moment record without name")?;
            let shape = rec.shape(&name)?;
            let m = nums(rec.a, &name, "m")?;
            let v = nums(rec.b, &name, "v")?;
            let m = tensor(m, &shape, &format!("adam m for {name}"))?;
            let v = tensor(v, &shape, &format!("adam v for {name}"))?;
            check_shape(
                store,
                &name,
                &shape,
                &format!("adam moments for {name} have"),
            )?;
            moments.push((name, m, v));
        }
        Ok(AdamState { t, moments })
    }
}

impl RawCorpus {
    fn decode(r: &mut Reader) -> Result<Self, JsonError> {
        let mut c = RawCorpus::default();
        each_key(r, |r, key| {
            match key {
                "epoch" => c.epoch = Some(r.value()?),
                "shard" => c.shard = Some(r.value()?),
                "offset" => c.offset = Some(r.value()?),
                "accum" => c.accum = Some(nullable(r, RawAccum::decode)?),
                _ => r.skip()?,
            }
            Ok(())
        })?;
        Ok(c)
    }

    fn validate(self, store: &ParamStore) -> Result<CorpusPos, CheckpointError> {
        let field = |v: &Option<Json>, key: &str| {
            v.as_ref()
                .and_then(Json::as_u64)
                .ok_or_else(|| structure(format!("corpus position without {key}")))
        };
        let accum = match self.accum.flatten() {
            None => None,
            Some(a) => Some(a.validate(store)?),
        };
        Ok(CorpusPos {
            epoch: field(&self.epoch, "epoch")?,
            shard: field(&self.shard, "shard")?,
            offset: field(&self.offset, "offset")?,
            accum,
        })
    }
}

impl RawAccum {
    fn decode(r: &mut Reader) -> Result<Self, JsonError> {
        let mut a = RawAccum::default();
        each_key(r, |r, key| {
            match key {
                "micro_done" => a.micro_done = Some(r.value()?),
                "window_seed" => a.window_seed = Some(r.value()?),
                "pending" => a.pending = Some(each_item(r, RawPending::decode)?),
                _ => r.skip()?,
            }
            Ok(())
        })?;
        Ok(a)
    }

    fn validate(self, store: &ParamStore) -> Result<AccumState, CheckpointError> {
        let micro_done = self
            .micro_done
            .as_ref()
            .and_then(Json::as_u64)
            .ok_or_else(|| structure("accum state without micro_done"))?;
        let hex = self
            .window_seed
            .as_ref()
            .and_then(Json::as_str)
            .and_then(|s| s.strip_prefix("0x"))
            .ok_or_else(|| structure("accum state without hex window_seed"))?;
        let window_seed = u64::from_str_radix(hex, 16)
            .map_err(|_| structure("accum state has a malformed window_seed"))?;
        let mut pending = Vec::new();
        for p in self
            .pending
            .flatten()
            .ok_or_else(|| structure("accum state without pending array"))?
        {
            let scalar = |v: &Option<Json>, missing: &str| {
                v.as_ref()
                    .and_then(Json::as_f64)
                    .map(|x| x as f32)
                    .ok_or_else(|| structure(missing))
            };
            let loss = scalar(&p.loss, "pending gradient without loss")?;
            let weight = scalar(&p.weight, "pending gradient without weight")?;
            let mut grads = Vec::new();
            for g in p
                .grads
                .flatten()
                .ok_or_else(|| structure("pending gradient without grads array"))?
            {
                let name = g.name("pending gradient record without name")?;
                let shape = g.shape(&name)?;
                let data = nums(g.a, &name, "data")?;
                let t = tensor(data, &shape, &format!("pending gradient for {name}"))?;
                check_shape(
                    store,
                    &name,
                    &shape,
                    &format!("pending gradient for {name} has"),
                )?;
                grads.push((name, t));
            }
            pending.push(PendingGrad {
                loss,
                weight,
                grads,
            });
        }
        Ok(AccumState {
            micro_done,
            window_seed,
            pending,
        })
    }
}

impl RawPending {
    fn decode(r: &mut Reader) -> Result<Self, JsonError> {
        let mut p = RawPending::default();
        each_key(r, |r, key| {
            match key {
                "loss" => p.loss = Some(r.value()?),
                "weight" => p.weight = Some(r.value()?),
                "grads" => p.grads = Some(each_item(r, |r| RawTensor::decode(r, "data", None))?),
                _ => r.skip()?,
            }
            Ok(())
        })?;
        Ok(p)
    }
}

fn parse_rng_streams(doc: &Json) -> Result<Vec<(String, [u64; 4])>, CheckpointError> {
    let mut streams = Vec::new();
    for record in doc
        .as_array()
        .ok_or_else(|| structure("train.rng is not an array"))?
    {
        let name = record
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| structure("rng stream without name"))?;
        let words = record
            .get("state")
            .and_then(Json::as_array)
            .ok_or_else(|| structure(format!("rng stream {name} without state")))?;
        if words.len() != 4 {
            return Err(structure(format!(
                "rng stream {name} has {} state words, expected 4",
                words.len()
            )));
        }
        let mut state = [0u64; 4];
        for (slot, w) in state.iter_mut().zip(words) {
            let hex = w
                .as_str()
                .and_then(|s| s.strip_prefix("0x"))
                .ok_or_else(|| structure(format!("rng stream {name} has a non-hex word")))?;
            *slot = u64::from_str_radix(hex, 16)
                .map_err(|_| structure(format!("rng stream {name} has a malformed word")))?;
        }
        if state.iter().all(|&w| w == 0) {
            return Err(structure(format!(
                "rng stream {name} has an all-zero (invalid xoshiro) state"
            )));
        }
        streams.push((name.to_string(), state));
    }
    Ok(streams)
}

impl RawTrain {
    fn validate(self, store: &ParamStore) -> Result<TrainState, CheckpointError> {
        let adam = match self.adam.flatten() {
            None => None,
            Some(a) => Some(a.validate(store)?),
        };
        let rng_streams = match &self.rng {
            None => Vec::new(),
            Some(r) => parse_rng_streams(r)?,
        };
        let steps_done = self
            .steps_done
            .as_ref()
            .and_then(Json::as_u64)
            .ok_or_else(|| structure("train state without steps_done"))?;
        let losses = match self.losses {
            None => return Err(structure("train state without losses")),
            Some(None) => return Err(structure("train state has non-numeric losses")),
            Some(Some(l)) => l,
        };
        if losses.len() as u64 != steps_done {
            return Err(structure(format!(
                "train state records {} losses for {} completed steps",
                losses.len(),
                steps_done
            )));
        }
        if let Some(a) = &adam {
            if a.t != steps_done {
                return Err(structure(format!(
                    "adam step counter {} disagrees with steps_done {}",
                    a.t, steps_done
                )));
            }
        }
        let corpus = match self.corpus.flatten() {
            None => None,
            Some(c) => Some(c.validate(store)?),
        };
        Ok(TrainState {
            adam,
            rng_streams,
            steps_done,
            losses,
            corpus,
        })
    }
}

/// Loads parameters into `store` and returns the training state. v1
/// (params-only) checkpoints yield `TrainState::default()` — Adam moments
/// are cleanly reinitialized by the resuming trainer. All or nothing: the
/// whole document is decoded and validated before the store changes.
pub fn load_train_json(
    store: &mut ParamStore,
    json: &str,
) -> Result<TrainState, CheckpointError> {
    let mut doc = RawDoc::decode(json, Want::Train)?;
    let updates = param_updates(store, doc.param_records()?)?;
    let state = match doc.train {
        None => TrainState::default(),
        Some(t) => t.validate(store)?,
    };
    commit(store, updates);
    Ok(state)
}

/// Atomically writes a full train-state checkpoint, refusing (before
/// anything is staged) a state holding a non-finite value.
pub fn save_train_file(
    store: &ParamStore,
    state: &TrainState,
    path: impl AsRef<Path>,
) -> Result<(), CheckpointError> {
    save_train_file_with(&mut StdCheckpointIo, store, state, path)
}

/// [`save_train_file`] over an injectable IO layer (for crash-safety tests).
pub fn save_train_file_with(
    io: &mut dyn CheckpointIo,
    store: &ParamStore,
    state: &TrainState,
    path: impl AsRef<Path>,
) -> Result<(), CheckpointError> {
    let _t = rpt_obs::span("ckpt.save", &OBS.save_ms);
    save_doc(io, path.as_ref(), train_doc(store, state))
}

/// Loads a full train-state checkpoint file.
pub fn load_train_file(
    store: &mut ParamStore,
    path: impl AsRef<Path>,
) -> Result<TrainState, CheckpointError> {
    let _t = rpt_obs::span("ckpt.load", &OBS.load_ms);
    let json = read_doc(path)?;
    OBS.loads.inc();
    OBS.bytes_read.add(json.len() as u64);
    load_train_json(store, &json)
}

// ---------------------------------------------------------------------------
// Quantized checkpoints (the `quant-v1` section)
// ---------------------------------------------------------------------------

/// Identifier of the quantized-tensor section layout this build writes.
pub const QUANT_FORMAT: &str = "quant-v1";

fn quant_doc<'a>(
    store: &ParamStore,
    tensors: impl IntoIterator<Item = (&'a str, &'a crate::quant::QuantMatrix)>,
) -> DocWriter {
    let tensors: Vec<_> = tensors.into_iter().collect();
    // int8 weights take at most 5 bytes each ("-128,")
    let reserve = params_bytes(store)
        + tensors
            .iter()
            .map(|(name, qm)| record_bytes(name, qm.scales().len()) + 5 * qm.weights().len())
            .sum::<usize>();
    let mut w = DocWriter::new(reserve);
    w.params(FORMAT_VERSION, store);
    w.raw(",\"quant\":{\"format\":");
    w.string(QUANT_FORMAT);
    w.raw(",\"tensors\":");
    w.list(tensors, |w, (name, qm)| {
        w.raw("{\"name\":");
        w.string(name);
        w.raw(",\"n_out\":");
        w.int(qm.n_out());
        w.raw(",\"k\":");
        w.int(qm.k());
        w.raw(",\"scales\":");
        w.floats(name, qm.scales());
        w.raw(",\"data\":");
        w.list(qm.weights(), |w, &q| w.int(q));
        w.raw("}");
    });
    w.raw("}}");
    w
}

/// Serializes the f32 parameters plus a `"quant"` section holding int8
/// tensors and their per-row scales:
///
/// ```text
/// {"format_version":1,
///  "params":[...],                      // unchanged v1 array
///  "quant":{"format":"quant-v1",
///           "tensors":[{"name":...,"n_out":...,"k":...,
///                       "scales":[...],"data":[...]}]}}
/// ```
///
/// `data` is the `[n_out, k]` row-major i8 weights as JSON integers. The
/// `params` array is byte-compatible with v1, and [`load_json`] ignores
/// unknown top-level keys — so quantized checkpoints load anywhere a
/// plain checkpoint does, with the quant section simply unused.
pub fn quant_to_json<'a>(
    store: &ParamStore,
    tensors: impl IntoIterator<Item = (&'a str, &'a crate::quant::QuantMatrix)>,
) -> String {
    quant_doc(store, tensors).out
}

/// The `"quant"` section as decoded.
#[derive(Default)]
struct RawQuant {
    format: Option<Json>,
    tensors: Field<RawQTensor>,
}

#[derive(Default)]
struct RawQTensor {
    name: Option<Json>,
    n_out: Option<Json>,
    k: Option<Json>,
    scales: Field<f32>,
    data: Field<i8>,
}

impl RawQuant {
    fn decode(r: &mut Reader) -> Result<Self, JsonError> {
        let mut q = RawQuant::default();
        each_key(r, |r, key| {
            match key {
                "format" => q.format = Some(r.value()?),
                "tensors" => q.tensors = Some(each_item(r, RawQTensor::decode)?),
                _ => r.skip()?,
            }
            Ok(())
        })?;
        Ok(q)
    }
}

impl RawQTensor {
    fn decode(r: &mut Reader) -> Result<Self, JsonError> {
        let mut t = RawQTensor::default();
        each_key(r, |r, key| {
            match key {
                "name" => t.name = Some(r.value()?),
                "n_out" => t.n_out = Some(r.value()?),
                "k" => t.k = Some(r.value()?),
                "scales" => t.scales = Some(r.f32_array()?),
                "data" => {
                    t.data = Some(r.number_array(|x| {
                        x.as_i64()
                            .filter(|v| (-128..=127).contains(v))
                            .map(|v| v as i8)
                    })?)
                }
                _ => r.skip()?,
            }
            Ok(())
        })?;
        Ok(t)
    }

    fn validate(self) -> Result<(String, crate::quant::QuantMatrix), CheckpointError> {
        let name = self
            .name
            .as_ref()
            .and_then(Json::as_str)
            .ok_or_else(|| structure("quant tensor without name"))?
            .to_string();
        let dim = |v: &Option<Json>, key: &str| {
            v.as_ref()
                .and_then(Json::as_u64)
                .map(|d| d as usize)
                .ok_or_else(|| structure(format!("quant tensor {name} without {key}")))
        };
        let n_out = dim(&self.n_out, "n_out")?;
        let k = dim(&self.k, "k")?;
        let scales = nums(self.scales, &name, "scales")?;
        let data = match self.data {
            None => return Err(structure(format!("quant tensor {name} without data"))),
            Some(None) => return Err(structure(format!("quant tensor {name} has non-i8 data"))),
            Some(Some(d)) => d,
        };
        if k > crate::quant::QMATMUL_MAX_K {
            return Err(structure(format!(
                "quant tensor {name} inner dim {k} exceeds {}",
                crate::quant::QMATMUL_MAX_K
            )));
        }
        let size = n_out
            .checked_mul(k)
            .ok_or_else(|| structure(format!("quant tensor {name} size {n_out}x{k} overflows")))?;
        if data.len() != size || scales.len() != n_out {
            return Err(structure(format!(
                "quant tensor {name} sizes disagree: {}x{} with {} weights, {} scales",
                n_out,
                k,
                data.len(),
                scales.len()
            )));
        }
        let qm = crate::quant::QuantMatrix::from_parts(n_out, k, data, scales);
        Ok((name, qm))
    }
}

/// Parses the `"quant"` section of a checkpoint, returning the named int8
/// tensors — or `None` when the checkpoint has no such section (a plain
/// f32 checkpoint).
pub fn load_quant_json(
    json: &str,
) -> Result<Option<Vec<(String, crate::quant::QuantMatrix)>>, CheckpointError> {
    let Some(quant) = RawDoc::decode(json, Want::Quant)?.quant else {
        return Ok(None);
    };
    let format = quant
        .format
        .as_ref()
        .and_then(Json::as_str)
        .ok_or_else(|| structure("quant section without format"))?;
    if format != QUANT_FORMAT {
        return Err(structure(format!(
            "unsupported quant format {format:?} (this build reads {QUANT_FORMAT:?})"
        )));
    }
    quant
        .tensors
        .flatten()
        .ok_or_else(|| structure("quant section without tensors array"))?
        .into_iter()
        .map(RawQTensor::validate)
        .collect::<Result<_, _>>()
        .map(Some)
}

/// Atomically writes a quantized checkpoint (params + quant section),
/// refusing a store or scales holding a non-finite value.
pub fn save_quant_file<'a>(
    store: &ParamStore,
    tensors: impl IntoIterator<Item = (&'a str, &'a crate::quant::QuantMatrix)>,
    path: impl AsRef<Path>,
) -> Result<(), CheckpointError> {
    save_quant_file_with(&mut StdCheckpointIo, store, tensors, path)
}

/// [`save_quant_file`] over an injectable IO layer.
pub fn save_quant_file_with<'a>(
    io: &mut dyn CheckpointIo,
    store: &ParamStore,
    tensors: impl IntoIterator<Item = (&'a str, &'a crate::quant::QuantMatrix)>,
    path: impl AsRef<Path>,
) -> Result<(), CheckpointError> {
    let _t = rpt_obs::span("ckpt.save", &OBS.save_ms);
    save_doc(io, path.as_ref(), quant_doc(store, tensors))
}

/// Reads the `"quant"` section of a checkpoint file (`None` for plain f32
/// checkpoints). Parameters load separately through [`load_file`].
pub fn load_quant_file(
    path: impl AsRef<Path>,
) -> Result<Option<Vec<(String, crate::quant::QuantMatrix)>>, CheckpointError> {
    let json = read_doc(path)?;
    load_quant_json(&json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_values() {
        let mut store = ParamStore::new();
        let a = store.register("layer.w", Tensor::from_vec(vec![1.5, -2.5], &[2]).unwrap());
        let b = store.register("layer.b", Tensor::scalar(0.25));
        let json = to_json(&store);

        let mut store2 = ParamStore::new();
        let a2 = store2.register("layer.w", Tensor::zeros(&[2]));
        let b2 = store2.register("layer.b", Tensor::zeros(&[1]));
        load_json(&mut store2, &json).unwrap();
        assert_eq!(store2.value(a2).data(), store.value(a).data());
        assert_eq!(store2.value(b2).data(), store.value(b).data());
    }

    #[test]
    fn roundtrip_is_bit_exact_on_awkward_floats() {
        // values whose decimal forms are non-terminating or subnormal
        let vals = vec![
            0.1f32,
            1.0 / 3.0,
            f32::MIN_POSITIVE / 8.0, // subnormal
            -3.402_823_5e38,
            1.000_000_1,
            5.877_472e-39,
        ];
        let mut store = ParamStore::new();
        let id = store.register("w", Tensor::from_vec(vals.clone(), &[6]).unwrap());
        let json = to_json(&store);
        let mut store2 = ParamStore::new();
        let id2 = store2.register("w", Tensor::zeros(&[6]));
        load_json(&mut store2, &json).unwrap();
        let _ = id;
        for (a, b) in vals.iter().zip(store2.value(id2).data()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} reloaded as {b}");
        }
    }

    #[test]
    fn pre_migration_serde_checkpoint_still_loads() {
        // byte-for-byte what serde_json::to_string emitted before the
        // rpt-json migration (same field order, ryu float shortening)
        let old = r#"{"format_version":1,"params":[{"name":"layer.w","shape":[2],"data":[1.5,-2.5]},{"name":"layer.b","shape":[1],"data":[0.25]}]}"#;
        let mut store = ParamStore::new();
        let w = store.register("layer.w", Tensor::zeros(&[2]));
        let b = store.register("layer.b", Tensor::zeros(&[1]));
        load_json(&mut store, old).unwrap();
        assert_eq!(store.value(w).data(), &[1.5, -2.5]);
        assert_eq!(store.value(b).data(), &[0.25]);
    }

    #[test]
    fn load_params_any_rebuilds_the_store_model_free() {
        let mut store = ParamStore::new();
        store.register("enc.ff1.w", Tensor::from_vec(vec![0.1, -0.2, 0.3, 1.0 / 3.0], &[2, 2]).unwrap());
        store.register("enc.ff1.b", Tensor::from_vec(vec![0.5, -0.5], &[2]).unwrap());
        let json = to_json(&store);

        let loaded = load_params_any(&json).unwrap();
        let names: Vec<&str> = loaded.iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["enc.ff1.w", "enc.ff1.b"]);
        for (name, t) in store.iter() {
            let got = loaded.value(loaded.find(name).unwrap());
            assert_eq!(got.shape(), t.shape());
            for (a, b) in t.data().iter().zip(got.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{name}: {a} reloaded as {b}");
            }
        }

        assert!(matches!(
            load_params_any(r#"{"params":[]}"#),
            Err(CheckpointError::Mismatch(_))
        ));
        let dup = r#"{"format_version":1,"params":[{"name":"w","shape":[1],"data":[1.0]},{"name":"w","shape":[1],"data":[2.0]}]}"#;
        assert!(matches!(
            load_params_any(dup),
            Err(CheckpointError::Mismatch(_))
        ));
    }

    #[test]
    fn shape_mismatch_is_an_error() {
        let mut store = ParamStore::new();
        store.register("w", Tensor::zeros(&[2]));
        let json = to_json(&store);
        let mut store2 = ParamStore::new();
        store2.register("w", Tensor::zeros(&[3]));
        assert!(matches!(
            load_json(&mut store2, &json),
            Err(CheckpointError::Mismatch(_))
        ));
    }

    #[test]
    fn unknown_params_in_file_are_ignored() {
        let mut store = ParamStore::new();
        store.register("old", Tensor::scalar(1.0));
        let json = to_json(&store);
        let mut store2 = ParamStore::new();
        let n = store2.register("new", Tensor::scalar(7.0));
        load_json(&mut store2, &json).unwrap();
        assert_eq!(store2.value(n).data(), &[7.0]);
    }

    #[test]
    fn crash_mid_write_leaves_old_checkpoint_loadable() {
        // Regression: save_file used to be a bare fs::write, so a crash
        // mid-write tore the existing checkpoint. Simulate the crash with
        // a short-write fault and prove the old file still loads.
        let dir = std::env::temp_dir().join("rpt-serialize-torn-write");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");

        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap());
        save_file(&store, &path).unwrap();

        // new values that should never reach disk
        store.set_value(w, Tensor::from_vec(vec![9.0, 9.0], &[2]).unwrap());
        let mut io = FaultyIo::new(Fault::ShortWrite(10));
        let err = save_file_with(&mut io, &store, &path).unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)), "{err}");
        assert!(io.tripped());
        assert!(
            !staging_path(&path).exists(),
            "failed save left a staging file behind"
        );

        let mut reloaded = ParamStore::new();
        let w2 = reloaded.register("w", Tensor::zeros(&[2]));
        load_file(&mut reloaded, &path).expect("old checkpoint must survive");
        assert_eq!(reloaded.value(w2).data(), &[1.0, 2.0]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn successful_atomic_save_replaces_and_cleans_up() {
        let dir = std::env::temp_dir().join("rpt-serialize-atomic-ok");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::scalar(1.0));
        save_file(&store, &path).unwrap();
        store.set_value(w, Tensor::scalar(2.0));
        save_file(&store, &path).unwrap();
        assert!(!staging_path(&path).exists());
        let mut reloaded = ParamStore::new();
        let w2 = reloaded.register("w", Tensor::zeros(&[1]));
        load_file(&mut reloaded, &path).unwrap();
        assert_eq!(reloaded.value(w2).data(), &[2.0]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn quant_checkpoint_roundtrips_bit_exactly() {
        use crate::quant::QuantMatrix;
        let mut store = ParamStore::new();
        let w = store.register(
            "lin.w",
            Tensor::from_vec(vec![0.5, -1.5, 2.0, 0.25, -0.75, 1.0], &[2, 3]).unwrap(),
        );
        let qm = QuantMatrix::quantize_transposed(store.value(w).data(), 2, 3);
        let json = quant_to_json(&store, [("lin.w", &qm)]);

        // params still load through the plain path (quant key ignored)
        let mut store2 = ParamStore::new();
        let w2 = store2.register("lin.w", Tensor::zeros(&[2, 3]));
        load_json(&mut store2, &json).unwrap();
        assert_eq!(store2.value(w2).data(), store.value(w).data());

        let tensors = load_quant_json(&json).unwrap().expect("quant section");
        assert_eq!(tensors.len(), 1);
        let (name, back) = &tensors[0];
        assert_eq!(name, "lin.w");
        assert_eq!(back.weights(), qm.weights());
        assert_eq!(
            back.scales().iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            qm.scales().iter().map(|s| s.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn plain_checkpoints_have_no_quant_section() {
        let mut store = ParamStore::new();
        store.register("w", Tensor::scalar(1.0));
        assert!(load_quant_json(&to_json(&store)).unwrap().is_none());
    }

    #[test]
    fn unsupported_quant_format_is_rejected() {
        let json = r#"{"format_version":1,"params":[],"quant":{"format":"quant-v9","tensors":[]}}"#;
        assert!(matches!(
            load_quant_json(json),
            Err(CheckpointError::Mismatch(_))
        ));
    }

    /// A one-tensor quant section with the given header dims and no data.
    fn quant_section(n_out: u64, k: u64) -> String {
        format!(
            r#"{{"format_version":1,"params":[],"quant":{{"format":"quant-v1","tensors":[{{"name":"w","n_out":{n_out},"k":{k},"data":[],"scales":[]}}]}}}}"#
        )
    }

    #[test]
    fn overflowing_quant_size_is_a_typed_error() {
        let err = load_quant_json(&quant_section(u64::MAX / 2, 4)).unwrap_err();
        assert!(
            matches!(&err, CheckpointError::Mismatch(m) if m.contains("overflows")),
            "{err}"
        );
    }

    #[test]
    fn quant_inner_dim_past_the_kernel_ceiling_is_a_typed_error() {
        let k = crate::quant::QMATMUL_MAX_K as u64 + 1;
        let err = load_quant_json(&quant_section(0, k)).unwrap_err();
        assert!(
            matches!(&err, CheckpointError::Mismatch(m) if m.contains("exceeds")),
            "{err}"
        );
    }

    #[test]
    fn quant_save_is_atomic_under_faults() {
        use crate::quant::QuantMatrix;
        let dir = std::env::temp_dir().join("rpt-serialize-quant-atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("q8.json");
        let mut store = ParamStore::new();
        store.register("lin.w", Tensor::from_vec(vec![1.0, -1.0], &[1, 2]).unwrap());
        let qm = QuantMatrix::quantize_transposed(&[1.0, -1.0], 1, 2);
        save_quant_file(&store, [("lin.w", &qm)], &path).unwrap();

        let mut io = FaultyIo::new(Fault::ShortWrite(5));
        let err = save_quant_file_with(&mut io, &store, [("lin.w", &qm)], &path).unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)));
        let survived = load_quant_file(&path).unwrap().expect("old file intact");
        assert_eq!(survived[0].1.weights(), qm.weights());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn garbage_json_is_a_parse_error() {
        let mut store = ParamStore::new();
        store.register("w", Tensor::scalar(0.0));
        assert!(matches!(
            load_json(&mut store, "not json"),
            Err(CheckpointError::Parse(_))
        ));
        assert!(matches!(
            load_json(&mut store, "{\"format_version\": 1}"),
            Err(CheckpointError::Mismatch(_))
        ));
    }
}
