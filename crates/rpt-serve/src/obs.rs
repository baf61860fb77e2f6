//! Cached metric handles for the serving path (DESIGN.md §Serving).
//! Handles resolve once per process; recording is inert unless metrics
//! are enabled (the server enables them on startup).

use std::sync::LazyLock;

pub(crate) struct ServeObs {
    /// Requests that reached dispatch (any endpoint, any outcome).
    pub requests: rpt_obs::Counter,
    /// Decode requests rejected with 503 because the queue was full.
    pub rejected: rpt_obs::Counter,
    /// Responses with a 4xx/5xx status other than 503.
    pub errors: rpt_obs::Counter,
    /// End-to-end request latency (parse → response written), ms.
    pub request_ms: rpt_obs::Histogram,
    /// Decode jobs submitted but not yet admitted to the batcher
    /// (queued, prefilling, or prefilled).
    pub queue_depth: rpt_obs::Gauge,
    /// KV-cache slots currently owned by admitted, unfinished jobs.
    pub kv_slots_in_use: rpt_obs::Gauge,
    /// Jobs resident in the batcher per fused step.
    pub batch_occupancy: rpt_obs::Histogram,
    /// Fused decoder steps taken by the batcher.
    pub batch_steps: rpt_obs::Counter,
    /// Decoder rows advanced across all fused steps.
    pub tokens: rpt_obs::Counter,
    /// Successful checkpoint hot-reloads.
    pub reloads: rpt_obs::Counter,
    /// Checkpoint reload attempts rejected (torn/invalid file).
    pub reload_errors: rpt_obs::Counter,
    /// Monotonic parameter-set generation (0 = the weights served first).
    pub model_generation: rpt_obs::Gauge,
    /// Jobs cancelled mid-decode (client disconnected); their KV slots
    /// are reclaimed immediately.
    pub cancelled: rpt_obs::Counter,
    /// 1 when the batcher serves int8 quantized weights, else 0.
    pub quant: rpt_obs::Gauge,
    /// Prefilled jobs re-encoded at admission because a hot-reload
    /// swapped the parameters after their encode.
    pub prefill_stale: rpt_obs::Counter,
}

pub(crate) static SERVE_OBS: LazyLock<ServeObs> = LazyLock::new(|| ServeObs {
    requests: rpt_obs::counter("serve.requests"),
    rejected: rpt_obs::counter("serve.rejected"),
    errors: rpt_obs::counter("serve.errors"),
    request_ms: rpt_obs::histogram("serve.request_ms"),
    queue_depth: rpt_obs::gauge("serve.queue_depth"),
    kv_slots_in_use: rpt_obs::gauge("serve.kv_slots_in_use"),
    batch_occupancy: rpt_obs::histogram_with("serve.batch_occupancy", rpt_obs::COUNT_BOUNDS),
    batch_steps: rpt_obs::counter("serve.batch_steps"),
    tokens: rpt_obs::counter("serve.tokens"),
    reloads: rpt_obs::counter("serve.reloads"),
    reload_errors: rpt_obs::counter("serve.reload_errors"),
    model_generation: rpt_obs::gauge("serve.model_generation"),
    cancelled: rpt_obs::counter("serve.cancelled"),
    quant: rpt_obs::gauge("serve.quant"),
    prefill_stale: rpt_obs::counter("serve.prefill_stale"),
});
