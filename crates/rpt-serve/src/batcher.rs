//! The micro-batching loop: a bounded queue of decode jobs, one prefill
//! thread that encodes them ([`crate::prefill`]), and one batcher thread
//! that appends the pre-encoded jobs and advances every admitted request
//! through fused [`rpt_nn::MicroBatcher`] steps, with drain-then-swap
//! checkpoint hot-reload between batches.
//!
//! ## Hot reload
//!
//! The checkpoint file (PR-4 atomic-rename format) is stat-ed between
//! batches; a changed `(mtime, len)` pair marks a reload as pending. The
//! batcher then stops admitting (so in-flight requests finish on the old
//! parameters — the drain), and once idle loads the file into a clone of
//! the live [`ParamStore`]. A torn or invalid file fails validation in
//! `load_file`, increments `serve.reload_errors`, and leaves the old
//! parameters serving; the attempt is not retried until the stat changes
//! again. On success the clone is swapped in, the tied projection is
//! rebuilt, `serve.model_generation` increments, and the new parameter
//! set is published to the prefill thread. Jobs the prefill thread
//! encoded under the old generation are re-encoded at admission.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, SystemTime};

use rpt_nn::{JobOutput, JobSpec, MicroBatcher, Seq2Seq};
use rpt_tensor::serialize::load_file;
use rpt_tensor::ParamStore;

use crate::obs::SERVE_OBS;
use crate::prefill::{latest, Prefilled, Snapshot, SnapshotCell};

/// One queued decode request: the job plus the channel its result goes
/// back on, tagged with the parameter generation that served it. The
/// connection handler raises `cancel` when its client vanishes; the
/// batcher then reclaims the job's KV slot instead of decoding for
/// nobody.
pub(crate) struct Job {
    pub spec: JobSpec,
    pub resp: SyncSender<(u64, JobOutput)>,
    pub cancel: Arc<AtomicBool>,
    /// Per-request trace identity; `None` when tracing is dark (the
    /// batcher then records no stage spans and reads no clock for them).
    pub trace: Option<JobTrace>,
}

/// Stage durations shared back to the connection handler so the optional
/// `X-Rpt-Trace` response header can summarize them (nanoseconds; 0 =
/// stage not finished).
#[derive(Default)]
pub(crate) struct StageNs {
    pub queue_wait: AtomicU64,
    pub prefill: AtomicU64,
    pub batch_wait: AtomicU64,
    pub decode: AtomicU64,
}

/// The trace identity a request carries across the queue: span parents
/// for the stage spans the prefill and batcher threads emit, plus the
/// enqueue timestamp (`rpt_obs::now_ns`) where queue_wait starts.
pub(crate) struct JobTrace {
    pub trace_id: u64,
    pub root: u64,
    pub enqueue_ns: u64,
    pub stages: Arc<StageNs>,
}

/// Batcher-side stage bookkeeping for one admitted traced job.
struct PendingTrace {
    meta: JobTrace,
    /// When the job's encode finished (batch_wait starts).
    encoded_ns: u64,
    /// Set when the job's first fused step begins (batch_wait ends).
    first_step_ns: Option<u64>,
}

/// An admitted job awaiting completion.
struct PendingJob {
    id: u64,
    resp: SyncSender<(u64, JobOutput)>,
    cancel: Arc<AtomicBool>,
    trace: Option<PendingTrace>,
}

/// State shared between connection handlers and the prefill and batcher
/// threads.
pub(crate) struct BatcherShared {
    /// Jobs submitted but not yet admitted (queued, prefilling, or
    /// prefilled); submission refuses past `queue_cap`.
    pub queue_depth: AtomicUsize,
    /// Parameter generation currently serving (for `/healthz`).
    pub generation: AtomicU64,
    /// Server-wide shutdown flag.
    pub shutdown: AtomicBool,
}

impl BatcherShared {
    /// Counts one job out of the waiting set (admitted or dropped).
    pub fn leave_queue(&self) {
        let depth = self.queue_depth.fetch_sub(1, Ordering::Relaxed) - 1;
        SERVE_OBS.queue_depth.set(depth as f64);
    }
}

pub(crate) struct Batcher {
    model: Seq2Seq,
    params: ParamStore,
    mb: MicroBatcher,
    rx: Receiver<Prefilled>,
    /// The parameter set the prefill thread encodes with.
    snapshot: Arc<SnapshotCell>,
    /// Result channel + cancel flag per admitted job id.
    pending: Vec<PendingJob>,
    next_id: u64,
    max_batch: usize,
    /// Serve int8 quantized weights (rebuilt on every hot-reload).
    quant: bool,
    checkpoint: Option<PathBuf>,
    seen_stat: Option<(SystemTime, u64)>,
    reload_pending: bool,
    poll: Duration,
    shared: Arc<BatcherShared>,
}

impl Batcher {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        mut model: Seq2Seq,
        mut params: ParamStore,
        rx: Receiver<Prefilled>,
        max_batch: usize,
        checkpoint: Option<PathBuf>,
        poll: Duration,
        quant: bool,
        shared: Arc<BatcherShared>,
    ) -> Self {
        if quant && model.quant().is_none() {
            // The caller handed plain f32 weights; quantize in place. A
            // caller that loaded a `quant-v1` checkpoint attaches the
            // stored int8 tensors itself before starting the server.
            model.set_quant(Some(Arc::new(rpt_nn::build_quant_set(&params))));
        }
        SERVE_OBS.quant.set(if quant { 1.0 } else { 0.0 });
        let mb = MicroBatcher::new(&model, &mut params);
        let seen_stat = checkpoint.as_deref().and_then(stat);
        SERVE_OBS.model_generation.set(0.0);
        let snapshot = Arc::new(Mutex::new(Arc::new(Snapshot {
            model: model.clone(),
            params: params.clone(),
            generation: shared.generation.load(Ordering::Relaxed),
        })));
        Self {
            model,
            params,
            mb,
            rx,
            snapshot,
            pending: Vec::new(),
            next_id: 0,
            max_batch,
            quant,
            checkpoint,
            seen_stat,
            reload_pending: false,
            poll,
            shared,
        }
    }

    /// The cell the prefill thread reads its parameter set from.
    pub fn snapshot(&self) -> Arc<SnapshotCell> {
        Arc::clone(&self.snapshot)
    }

    /// Runs until the prefill thread hangs up and all admitted work has
    /// drained.
    pub fn run(mut self) {
        loop {
            let disconnected = self.admit_available();
            if self.mb.is_idle() {
                if self.reload_pending {
                    self.reload();
                }
                if disconnected {
                    return;
                }
                match self.rx.recv_timeout(self.poll) {
                    Ok(job) => self.admit(job),
                    Err(RecvTimeoutError::Timeout) => self.check_stat(),
                    Err(RecvTimeoutError::Disconnected) => return,
                }
                continue;
            }
            self.check_stat();
            self.reap_cancelled();
            self.step();
        }
    }

    /// Drops jobs whose clients vanished: the KV slot is reclaimed
    /// before the next fused step instead of decoding to completion for
    /// nobody. Survivor outputs are unaffected (row independence).
    fn reap_cancelled(&mut self) {
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].cancel.load(Ordering::Relaxed) {
                let job = self.pending.swap_remove(i);
                if self.mb.cancel(job.id) {
                    SERVE_OBS.cancelled.inc();
                }
            } else {
                i += 1;
            }
        }
        SERVE_OBS.kv_slots_in_use.set(self.mb.slots_in_use() as f64);
    }

    /// Admits queued jobs up to the batch cap (none while draining for a
    /// reload). Returns true when all producers are gone.
    fn admit_available(&mut self) -> bool {
        while !self.reload_pending && self.mb.slots_in_use() < self.max_batch {
            match self.rx.try_recv() {
                Ok(job) => self.admit(job),
                Err(TryRecvError::Empty) => return false,
                Err(TryRecvError::Disconnected) => return true,
            }
        }
        false
    }

    /// Appends a pre-encoded job. A job encoded under an older parameter
    /// generation (it was prefilled before a hot-reload) is re-encoded
    /// here, so every job decodes under the parameters that encoded it.
    fn admit(&mut self, ready: Prefilled) {
        self.shared.leave_queue();
        let Prefilled {
            job,
            generation,
            mut layers,
            mut cross_row,
            encoded_ns,
        } = ready;
        if job.cancel.load(Ordering::Relaxed) {
            // The client gave up while the job waited: don't decode for
            // nobody.
            SERVE_OBS.cancelled.inc();
            return;
        }
        if generation != self.shared.generation.load(Ordering::Relaxed) {
            SERVE_OBS.prefill_stale.inc();
            (layers, cross_row) = self.model.begin_request(&mut self.params, job.spec.src());
        }
        let id = self.next_id;
        self.next_id += 1;
        let trace = job.trace.map(|meta| PendingTrace {
            meta,
            encoded_ns,
            first_step_ns: None,
        });
        self.mb.admit_encoded(id, job.spec, layers, cross_row);
        self.pending.push(PendingJob {
            id,
            resp: job.resp,
            cancel: job.cancel,
            trace,
        });
        SERVE_OBS.kv_slots_in_use.set(self.mb.slots_in_use() as f64);
    }

    fn step(&mut self) {
        SERVE_OBS.batch_steps.inc();
        SERVE_OBS
            .batch_occupancy
            .record(self.mb.slots_in_use() as f64);
        SERVE_OBS.tokens.add(self.mb.rows() as u64);
        // batch_wait ends for every traced job entering its first fused
        // step (admission → here is the wait for batch formation).
        if rpt_obs::trace_enabled() {
            let now = rpt_obs::now_ns();
            for p in self.pending.iter_mut() {
                if let Some(t) = &mut p.trace {
                    if t.first_step_ns.is_none() {
                        rpt_obs::emit_span(
                            t.meta.trace_id,
                            t.meta.root,
                            "serve.batch_wait",
                            t.encoded_ns,
                            now,
                        );
                        t.meta
                            .stages
                            .batch_wait
                            .store(now.saturating_sub(t.encoded_ns), Ordering::Relaxed);
                        t.first_step_ns = Some(now);
                    }
                }
            }
        }
        let finished = self.mb.step(&self.model, &mut self.params);
        let generation = self.shared.generation.load(Ordering::Relaxed);
        for (id, out) in finished {
            if let Some(at) = self.pending.iter().position(|p| p.id == id) {
                let job = self.pending.swap_remove(at);
                if let Some(t) = &job.trace {
                    let now = rpt_obs::now_ns();
                    let start = t.first_step_ns.unwrap_or(t.encoded_ns);
                    rpt_obs::emit_span(t.meta.trace_id, t.meta.root, "serve.decode", start, now);
                    t.meta
                        .stages
                        .decode
                        .store(now.saturating_sub(start), Ordering::Relaxed);
                }
                // A handler that gave up (client vanished) just drops the
                // receiver; the send error is fine to ignore.
                let _ = job.resp.try_send((generation, out));
            }
        }
        SERVE_OBS.kv_slots_in_use.set(self.mb.slots_in_use() as f64);
    }

    /// Marks a reload pending when the checkpoint's `(mtime, len)` moved.
    fn check_stat(&mut self) {
        let Some(path) = self.checkpoint.as_deref() else {
            return;
        };
        let now = stat(path);
        if now.is_some() && now != self.seen_stat {
            self.seen_stat = now;
            self.reload_pending = true;
        }
    }

    /// Attempts the pending reload (caller guarantees the batcher is
    /// idle, so no request ever spans two parameter sets).
    fn reload(&mut self) {
        self.reload_pending = false;
        let Some(path) = self.checkpoint.as_deref() else {
            return;
        };
        let mut candidate = self.params.clone();
        match load_file(&mut candidate, path) {
            Ok(()) => {
                self.params = candidate;
                if self.quant {
                    self.model.set_quant(Some(Arc::new(self.quant_set_for(path))));
                }
                self.mb = MicroBatcher::new(&self.model, &mut self.params);
                let generation = self.shared.generation.load(Ordering::Relaxed) + 1;
                *latest(&self.snapshot) = Arc::new(Snapshot {
                    model: self.model.clone(),
                    params: self.params.clone(),
                    generation,
                });
                self.shared.generation.store(generation, Ordering::Relaxed);
                SERVE_OBS.model_generation.set(generation as f64);
                SERVE_OBS.reloads.inc();
                rpt_obs::info!(target: "serve", "hot-reloaded checkpoint generation={generation}");
            }
            Err(e) => {
                SERVE_OBS.reload_errors.inc();
                rpt_obs::warn!(target: "serve", "checkpoint reload rejected: {e}");
            }
        }
    }

    /// The int8 weight set for a freshly reloaded checkpoint: the file's
    /// `quant-v1` section when it carries one (an `rpt quantize` output),
    /// otherwise requantized from the loaded f32 parameters. Both paths
    /// are deterministic functions of the same weights, so either way the
    /// serving output is the quantized model of *this* checkpoint.
    fn quant_set_for(&self, path: &std::path::Path) -> rpt_nn::QuantSet {
        match rpt_tensor::serialize::load_quant_file(path) {
            Ok(Some(entries)) => match rpt_nn::quant_set_from_named(&self.params, entries) {
                Ok(qs) => return qs,
                Err(e) => {
                    rpt_obs::warn!(target: "serve", "stored quant section rejected ({e}); requantizing");
                }
            },
            Ok(None) => {}
            Err(e) => {
                rpt_obs::warn!(target: "serve", "stored quant section unreadable ({e}); requantizing");
            }
        }
        rpt_nn::build_quant_set(&self.params)
    }
}

fn stat(path: &std::path::Path) -> Option<(SystemTime, u64)> {
    let meta = std::fs::metadata(path).ok()?;
    Some((meta.modified().ok()?, meta.len()))
}
