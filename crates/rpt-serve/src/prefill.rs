//! The prefill stage: one `rpt-serve-prefill` thread between the bounded
//! request queue and the batcher. It runs each request's encoder pass
//! ([`Seq2Seq::begin_request`]) so the batcher thread only appends
//! pre-encoded rows and steps the fused decoder — the encode of the next
//! request overlaps the decode of the live batch instead of stalling it.
//!
//! ## Generations
//!
//! The batcher publishes a [`Snapshot`] — model, parameters, generation —
//! at start and after every hot-reload. The prefill thread encodes with
//! the newest snapshot it has seen (one [`ParamStore`] clone per
//! generation, not per request) and tags each [`Prefilled`] job with that
//! generation. The batcher appends a job only when its tag equals the
//! live generation; a job encoded before a swap is re-encoded on the
//! batcher (`serve.prefill_stale`). So drain-then-swap still means no
//! request ever spans two parameter sets.

use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use rpt_nn::{LayerKv, Seq2Seq};
use rpt_tensor::ParamStore;

use crate::batcher::{BatcherShared, Job};
use crate::obs::SERVE_OBS;

/// A parameter set tagged with its generation (0 = the weights the
/// server started with).
pub(crate) struct Snapshot {
    pub model: Seq2Seq,
    pub params: ParamStore,
    pub generation: u64,
}

/// Where the batcher publishes the live [`Snapshot`].
pub(crate) type SnapshotCell = Mutex<Arc<Snapshot>>;

/// The published snapshot. Every publish is one `Arc` store, so the cell
/// is valid even if a holder panicked: a poisoned lock is recovered.
pub(crate) fn latest(cell: &SnapshotCell) -> MutexGuard<'_, Arc<Snapshot>> {
    cell.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A queued job with its source already encoded.
pub(crate) struct Prefilled {
    pub job: Job,
    /// Generation of the parameters that produced `layers`/`cross_row`.
    pub generation: u64,
    /// [`Seq2Seq::begin_request`] of the job's source.
    pub layers: Vec<LayerKv>,
    pub cross_row: Vec<f32>,
    /// When the encode finished (`rpt_obs::now_ns`; 0 for trace-dark
    /// jobs): the request's batch_wait starts here.
    pub encoded_ns: u64,
}

/// The prefill thread body. Runs until every queue producer is gone or
/// the batcher hangs up; dropping `tx` on return lets the batcher drain
/// and exit.
pub(crate) fn run(
    rx: Receiver<Job>,
    tx: SyncSender<Prefilled>,
    snapshot: Arc<SnapshotCell>,
    shared: Arc<BatcherShared>,
) {
    let mut live = Arc::clone(&latest(&snapshot));
    let mut params = live.params.clone();
    for job in rx {
        if job.cancel.load(Ordering::Relaxed) {
            // The client gave up while the job sat in the queue: don't
            // pay for the encode at all.
            shared.leave_queue();
            SERVE_OBS.cancelled.inc();
            continue;
        }
        let newest = Arc::clone(&latest(&snapshot));
        if newest.generation != live.generation {
            params = newest.params.clone();
            live = newest;
        }
        // queue_wait ends here. Trace-dark jobs read no clock.
        let start = job.trace.as_ref().map(|t| {
            let now = rpt_obs::now_ns();
            rpt_obs::emit_span(t.trace_id, t.root, "serve.queue_wait", t.enqueue_ns, now);
            t.stages
                .queue_wait
                .store(now.saturating_sub(t.enqueue_ns), Ordering::Relaxed);
            now
        });
        let (layers, cross_row) = live.model.begin_request(&mut params, job.spec.src());
        let encoded_ns = match (&job.trace, start) {
            (Some(t), Some(start)) => {
                let now = rpt_obs::now_ns();
                rpt_obs::emit_span(t.trace_id, t.root, "serve.prefill", start, now);
                t.stages
                    .prefill
                    .store(now.saturating_sub(start), Ordering::Relaxed);
                now
            }
            _ => 0,
        };
        let ready = Prefilled {
            job,
            generation: live.generation,
            layers,
            cross_row,
            encoded_ns,
        };
        if tx.send(ready).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};
    use std::sync::mpsc::sync_channel;

    use rpt_nn::{JobOutput, JobSpec, Sequence, TokenBatch, TransformerConfig};
    use rpt_rng::{SeedableRng, SmallRng};

    fn job(src: &[usize], cancelled: bool) -> Job {
        // The response channel is never read: these jobs stop at prefill.
        let (resp, _) = sync_channel::<(u64, JobOutput)>(1);
        Job {
            spec: JobSpec::Greedy {
                src: TokenBatch::from_sequences(&[Sequence::from_ids(src.to_vec())], 16, 0),
                bos: 1,
                eos: 2,
                max_steps: 4,
            },
            resp,
            cancel: Arc::new(AtomicBool::new(cancelled)),
            trace: None,
        }
    }

    #[test]
    fn job_cancelled_while_queued_is_never_encoded() {
        rpt_obs::set_metrics_enabled(true);
        let encodes = rpt_obs::counter("decode.calls");
        let mut params = ParamStore::new();
        let model = Seq2Seq::new(
            &mut params,
            TransformerConfig::tiny(12),
            &mut SmallRng::seed_from_u64(0),
        );
        let snapshot = Arc::new(Mutex::new(Arc::new(Snapshot {
            model,
            params,
            generation: 3,
        })));
        let shared = Arc::new(BatcherShared {
            queue_depth: AtomicUsize::new(2),
            generation: AtomicU64::new(3),
            shutdown: AtomicBool::new(false),
        });
        let (tx, rx) = sync_channel::<Job>(2);
        let (ready_tx, ready_rx) = sync_channel::<Prefilled>(2);
        tx.send(job(&[9, 10], true)).unwrap();
        tx.send(job(&[10, 11], false)).unwrap();
        drop(tx);

        let before = encodes.value();
        run(rx, ready_tx, snapshot, Arc::clone(&shared));
        // Only the live job was encoded; the cancelled one left the
        // waiting set without touching the encoder.
        assert_eq!(encodes.value() - before, 1, "exactly one encode");
        assert_eq!(shared.queue_depth.load(Ordering::Relaxed), 1);
        let ready: Vec<Prefilled> = ready_rx.iter().collect();
        assert_eq!(ready.len(), 1);
        assert_eq!(ready[0].job.spec.src().ids, vec![10, 11]);
        assert_eq!(
            ready[0].generation, 3,
            "tagged with the encoding generation"
        );
    }
}
