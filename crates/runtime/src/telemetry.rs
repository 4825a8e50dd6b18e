//! Live host-mode telemetry: a lock-light sharded metrics registry with
//! OpenMetrics/JSON exporters.
//!
//! A [`Telemetry`] handle is created by the harness, attached to a machine
//! with [`crate::Machine::with_telemetry`], and shared (it is always used
//! behind an `Arc`). Each run shards the registry per processor: every
//! simulated processor owns one [`ProcShard`] holding an `Arc` to the
//! processor's counter block (the one [`crate::RunReport::counters`] is
//! read from; see the `counters` module), plus log-bucketed histograms
//! and a flight ring, so the hot send/receive paths touch only their own
//! cache lines and never take a lock. Cross-processor state is
//! limited to a label-interning table (hit once per new region path per
//! processor, then cached locally); even the chunk-bytes-in-flight gauge
//! is sharded per processor and only summed at read time.
//!
//! Reading is always safe concurrently with a run: exporters and the
//! stall sampler read the same atomics with relaxed loads, and queue
//! depths are computed on demand from the live mailboxes rather than
//! tracked by yet another hot-path atomic.
//!
//! Telemetry never touches the virtual clock. Simulated times are
//! bit-identical with telemetry on, off, or absent; the only cost of
//! enabling it is host wall-time (a handful of relaxed atomic increments
//! and one flight-ring slot write per event).

use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::counters::{bump, Counters, ProcTotals, FAMILIES};
use crate::ctx::World;
use crate::flight::{FlightEvent, FlightKind, FlightRing, RawEvent, K_BARRIER, K_ENTER, K_EXIT, K_RECV, K_SEND};
use crate::stall::StallReport;

/// Marker for "not blocked in a receive" in [`ProcShard::wait_src`].
pub(crate) const NO_WAIT: usize = usize::MAX;

/// Log-bucketed histogram bucket count: finite `le` bounds are
/// `2^0 .. 2^37` (covers byte sizes to 128 GB and waits to ~137 s in ns),
/// plus one `+Inf` overflow bucket.
const HIST_FINITE: usize = 38;

/// A fixed-shape power-of-two histogram. All operations are relaxed
/// atomics; recording is two single-writer load+store bumps (use
/// [`Histogram::record_shared`] when several processors write the same
/// histogram, as the per-tenant serving latency histograms do).
///
/// Bucket `0` covers `v <= 1`; bucket `i` (for `1 <= i < 38`) covers
/// `2^(i-1) < v <= 2^i`; the last bucket is the `+Inf` overflow.
pub struct Histogram {
    buckets: [AtomicU64; HIST_FINITE + 1],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: std::array::from_fn(|_| AtomicU64::new(0)), sum: AtomicU64::new(0) }
    }
}

/// Bucket index for a recorded value (shared by both record paths).
#[inline]
fn bucket_index(v: u64) -> usize {
    if v <= 1 {
        0
    } else {
        ((u64::BITS - (v - 1).leading_zeros()) as usize).min(HIST_FINITE)
    }
}

/// `(lower, upper]` value bounds of bucket `i`. The `+Inf` bucket is
/// clamped to one more doubling (`2^38`) so interpolation stays finite.
#[inline]
fn bucket_bounds(i: usize) -> (u64, u64) {
    match i {
        0 => (0, 1),
        i if i < HIST_FINITE => (1u64 << (i - 1), 1u64 << i),
        _ => (1u64 << (HIST_FINITE - 1), 1u64 << HIST_FINITE),
    }
}

/// Quantile extraction over a merged bucket array: walk to the first
/// bucket whose cumulative count reaches rank `ceil(q * count)` and
/// interpolate linearly toward that bucket's *upper* bound.
///
/// A naive reader returning bucket lower bounds would systematically
/// under-report tail quantiles (p99 of a distribution concentrated near
/// a bucket's top edge reads as half its true value). Interpolating to
/// the upper bound keeps the estimate inside the true value's bucket,
/// so the error is at most one power-of-two bucket width: the result is
/// within `[v/2, 2v]` of the true quantile `v` — a ≤2× bound, which is
/// the resolution SLO reporting gets from 39 buckets.
fn quantile_from_buckets(buckets: &[u64], q: f64) -> u64 {
    let count: u64 = buckets.iter().sum();
    if count == 0 {
        return 0;
    }
    let q = q.clamp(0.0, 1.0);
    let target = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut cum = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let before = cum;
        cum += c;
        if cum >= target {
            let (lo, hi) = bucket_bounds(i);
            let frac = (target - before) as f64 / c as f64;
            return (lo as f64 + frac * (hi - lo) as f64).round() as u64;
        }
    }
    unreachable!("cumulative count reaches total")
}

impl Histogram {
    #[inline]
    pub(crate) fn record(&self, v: u64) {
        bump(&self.buckets[bucket_index(v)], 1);
        bump(&self.sum, v);
    }

    /// Multi-writer record: locked read-modify-write instead of the
    /// single-writer load+store pair. Used off the per-message hot path,
    /// e.g. when several module leaders complete requests for the same
    /// tenant concurrently.
    #[inline]
    pub fn record_shared(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of recorded values (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) of the recorded values, by bucket
    /// upper-bound interpolation — see [`quantile_from_buckets`] for the
    /// ≤2× bucket-width error bound. Returns 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        quantile_from_buckets(&self.snapshot().buckets, q)
    }

    /// A point-in-time plain copy of the bucket counts and sum.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }

    /// Merge into a plain bucket array + sum (for aggregated rendering).
    fn accumulate(&self, into: &mut ([u64; HIST_FINITE + 1], u64)) {
        for (i, b) in self.buckets.iter().enumerate() {
            into.0[i] += b.load(Ordering::Relaxed);
        }
        into.1 += self.sum.load(Ordering::Relaxed);
    }
}

/// Plain (non-atomic) copy of a [`Histogram`], as stored in snapshots
/// and reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Bucket counts; same shape as the live histogram (39 buckets, the
    /// last being `+Inf`).
    pub buckets: Vec<u64>,
    /// Sum of recorded values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The `q`-quantile by bucket upper-bound interpolation (≤2× error —
    /// see [`Histogram::quantile`]). Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        quantile_from_buckets(&self.buckets, q)
    }

    /// Mean of recorded values (exact: the sum is tracked outside the
    /// buckets). Returns 0.0 when empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }
}

/// One processor's shard of the registry, written only by the owning
/// simulated processor (whichever worker thread is currently running it
/// — see [`bump`] for why migration is safe) and read by exporters and
/// the stall sampler. The counters are the processor's own block, shared
/// by `Arc`; the shard adds what only telemetry keeps: histograms, the
/// flight ring, wait state, scope-label counts and the in-flight gauge.
/// Cache-line aligned so neighbouring shards (separate allocations, but
/// allocator-adjacent) never false-share.
#[repr(align(64))]
pub(crate) struct ProcShard {
    /// The processor's counter block (the same `Arc` its `ProcCtx` bumps).
    pub counters: Arc<Counters>,
    /// This processor's contribution to the chunk-bytes-in-flight gauge:
    /// +bytes when it sends a chunk, -bytes when it receives one. The
    /// machine-wide gauge is the sum over shards (each shard stays
    /// single-writer; no shared cache line on the hot path).
    pub chunk_flight: AtomicI64,
    /// Source rank this processor is currently blocked receiving from
    /// ([`NO_WAIT`] when not blocked).
    pub wait_src: AtomicUsize,
    /// Tag of the in-progress blocking receive (valid when `wait_src` is
    /// not [`NO_WAIT`]).
    pub wait_tag: AtomicU64,
    /// Sent message sizes in bytes.
    pub msg_bytes_hist: Histogram,
    /// Blocking receive wait durations in nanoseconds.
    pub recv_wait_hist: Histogram,
    /// Region-enter counts keyed by interned path id. Locked only on
    /// scope transitions (rare next to messages) and by exporters.
    pub scope_counts: Mutex<HashMap<u32, u64>>,
    /// The flight recorder ring for this processor.
    pub flight: FlightRing,
}

impl ProcShard {
    fn new(counters: Arc<Counters>, flight_capacity: usize) -> Self {
        ProcShard {
            counters,
            chunk_flight: AtomicI64::new(0),
            wait_src: AtomicUsize::new(NO_WAIT),
            wait_tag: AtomicU64::new(0),
            msg_bytes_hist: Histogram::default(),
            recv_wait_hist: Histogram::default(),
            scope_counts: Mutex::new(HashMap::new()),
            flight: FlightRing::new(flight_capacity),
        }
    }

    /// The counter row plus the flight ring's recorded-event count.
    fn totals(&self) -> ProcTotals {
        ProcTotals { flight_recorded: self.flight.pushed(), ..self.counters.totals() }
    }

    /// Telemetry-only state for one send (either payload path); the
    /// counters were bumped by the caller.
    #[inline]
    pub fn on_send(&self, bytes: u64, chunk: bool, wall_ns: u64, vbits: u64, dst: usize, tag: u64) {
        if chunk {
            // The in-flight gauge is sharded too: the sender credits its
            // own shard, the receiver debits its own; the sum over shards
            // is the machine-wide gauge. Keeps the hot path off any
            // shared cache line.
            let f = self.chunk_flight.load(Ordering::Relaxed);
            self.chunk_flight.store(f + bytes as i64, Ordering::Relaxed);
        }
        self.msg_bytes_hist.record(bytes);
        self.flight.push(RawEvent {
            packed: RawEvent::pack(K_SEND, 0, dst as u32),
            tag,
            bytes,
            wall_ns,
            vtime_bits: vbits,
        });
    }

    /// Telemetry-only state for one completed receive.
    #[inline]
    pub fn on_recv(&self, bytes: u64, waited_ns: u64, wall_ns: u64, vbits: u64, src: usize, tag: u64) {
        self.recv_wait_hist.record(waited_ns);
        self.wait_src.store(NO_WAIT, Ordering::Relaxed);
        self.flight.push(RawEvent {
            packed: RawEvent::pack(K_RECV, 0, src as u32),
            tag,
            bytes,
            wall_ns,
            vtime_bits: vbits,
        });
    }

    /// Mark this processor as parked in a blocking receive on `(src, tag)`
    /// so the stall sampler can name who it is waiting on.
    #[inline]
    pub fn begin_wait(&self, src: usize, tag: u64) {
        self.wait_tag.store(tag, Ordering::Relaxed);
        self.wait_src.store(src, Ordering::Relaxed);
    }

    /// Debit the in-flight gauge on this (receiving) processor's shard.
    #[inline]
    pub fn on_recv_chunk_bytes(&self, bytes: u64) {
        let f = self.chunk_flight.load(Ordering::Relaxed);
        self.chunk_flight.store(f - bytes as i64, Ordering::Relaxed);
    }

    pub fn on_barrier(&self, wall_ns: u64, vbits: u64) {
        self.flight.push(RawEvent {
            packed: RawEvent::pack(K_BARRIER, 0, 0),
            tag: 0,
            bytes: 0,
            wall_ns,
            vtime_bits: vbits,
        });
    }

    pub fn on_region_enter(&self, label: u32, wall_ns: u64, vbits: u64) {
        *self.scope_counts.lock().entry(label).or_insert(0) += 1;
        self.flight.push(RawEvent {
            packed: RawEvent::pack(K_ENTER, label, 0),
            tag: 0,
            bytes: 0,
            wall_ns,
            vtime_bits: vbits,
        });
    }

    pub fn on_region_exit(&self, label: u32, wall_ns: u64, vbits: u64) {
        self.flight.push(RawEvent {
            packed: RawEvent::pack(K_EXIT, label, 0),
            tag: 0,
            bytes: 0,
            wall_ns,
            vtime_bits: vbits,
        });
    }
}

/// Tuning knobs for a [`Telemetry`] handle.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Flight-recorder ring capacity per processor (events retained).
    pub flight_capacity: usize,
    /// Run the stall-detector sampler thread during host-mode runs.
    pub stall: bool,
    /// A processor blocked in a receive without forward progress for this
    /// long is reported as stalled.
    pub stall_window: Duration,
    /// How often the stall sampler wakes to check progress counters.
    pub stall_sample_every: Duration,
    /// How many slowest-request exemplar traces the serving layer retains
    /// (the `/trace/<id>` ring); 0 disables retention.
    pub exemplar_trace_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            flight_capacity: 256,
            stall: true,
            stall_window: Duration::from_millis(1000),
            stall_sample_every: Duration::from_millis(50),
            exemplar_trace_capacity: 8,
        }
    }
}

/// One retained slowest-request trace: the id, the end-to-end latency
/// that earned it a ring slot, and the rendered per-request Chrome-trace
/// JSON (see [`crate::chrome_trace_request_json`]).
#[derive(Debug, Clone)]
pub struct ExemplarTrace {
    /// Causal trace id of the request.
    pub trace_id: u64,
    /// End-to-end latency in virtual nanoseconds.
    pub latency_ns: u64,
    /// Per-request Chrome-trace JSON document.
    pub json: String,
}

/// Per-run registry state, swapped wholesale by [`Telemetry::begin_run`].
struct Inner {
    shards: Vec<Arc<ProcShard>>,
    /// Interned region-path labels, id = index. Append-only across runs so
    /// cached ids stay valid.
    names: Vec<Arc<str>>,
    ids: HashMap<Arc<str>, u32>,
    /// Wall-clock start of the current (or last) run.
    start: Option<Instant>,
    /// The live world, for on-demand queue-depth gauges. Dangling after
    /// the run finishes.
    world: Weak<World>,
    /// Per-tenant serving accounting, registered by the serving layer via
    /// [`Telemetry::begin_tenants`]. Deliberately *not* reset by
    /// [`Telemetry::begin_run`]: the serving layer registers tenants
    /// before launching the SPMD run that serves them.
    tenants: Vec<Arc<TenantStats>>,
}

/// Per-tenant serving accounting: request-outcome counters and the
/// completion latency histogram that SLO quantiles (p50/p99/p999) are
/// read from. Counters use shared read-modify-write atomics because
/// admission decisions and request completions are recorded by whichever
/// processor performs them.
pub struct TenantStats {
    name: String,
    /// Requests that arrived (admitted + shed).
    pub arrived: AtomicU64,
    /// Requests accepted into the admission queue.
    pub admitted: AtomicU64,
    /// Requests dropped by the shedding policy (queue full).
    pub shed: AtomicU64,
    /// Requests fully served.
    pub completed: AtomicU64,
    /// Completion latency (arrival to last-stage completion) in
    /// nanoseconds of virtual time.
    pub latency_ns: Histogram,
    /// Trace id of the most recent traced sample per latency bucket
    /// (`0` = none): the OpenMetrics exemplar linking a p999 bucket to
    /// the request that landed in it.
    exemplar_trace: [AtomicU64; HIST_FINITE + 1],
    /// Observed latency of the exemplar per bucket (the exemplar's
    /// required value field).
    exemplar_value: [AtomicU64; HIST_FINITE + 1],
}

impl TenantStats {
    fn new(name: &str) -> Self {
        TenantStats {
            name: name.to_string(),
            arrived: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            latency_ns: Histogram::default(),
            exemplar_trace: std::array::from_fn(|_| AtomicU64::new(0)),
            exemplar_value: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// The tenant's registered name (the `tenant` label value in the
    /// OpenMetrics exposition).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Record one request completion with its latency in nanoseconds.
    pub fn on_complete(&self, latency_ns: u64) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.latency_ns.record_shared(latency_ns);
    }

    /// Record one request completion carrying a causal trace id: like
    /// [`TenantStats::on_complete`], but the latency bucket the sample
    /// lands in also remembers `trace_id` as its exemplar (most recent
    /// traced sample wins). `trace_id == 0` records without an exemplar.
    pub fn on_complete_traced(&self, latency_ns: u64, trace_id: u64) {
        self.on_complete(latency_ns);
        if trace_id != 0 {
            let i = bucket_index(latency_ns);
            // Value first, id second: a torn read pairs an id with some
            // traced sample's value from the same bucket — both relaxed
            // because exemplars are best-effort debugging pointers.
            self.exemplar_value[i].store(latency_ns, Ordering::Relaxed);
            self.exemplar_trace[i].store(trace_id, Ordering::Relaxed);
        }
    }

    /// Plain copy of this tenant's counters and latency histogram.
    pub fn totals(&self) -> TenantTotals {
        TenantTotals {
            name: self.name.clone(),
            arrived: self.arrived.load(Ordering::Relaxed),
            admitted: self.admitted.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            latency_ns: self.latency_ns.snapshot(),
            exemplars: (0..=HIST_FINITE)
                .map(|i| {
                    (
                        self.exemplar_trace[i].load(Ordering::Relaxed),
                        self.exemplar_value[i].load(Ordering::Relaxed),
                    )
                })
                .collect(),
        }
    }
}

/// The live telemetry handle: metrics registry, flight recorders, and
/// stall reports, with OpenMetrics/JSON exporters.
///
/// Create one, wrap it in an `Arc`, and attach it to a machine:
///
/// ```
/// use std::sync::Arc;
/// use fx_runtime::{run, Machine, Telemetry};
///
/// let telemetry = Arc::new(Telemetry::new());
/// let machine = Machine::real(2).with_telemetry(Arc::clone(&telemetry));
/// let rep = run(&machine, |cx| {
///     if cx.rank() == 0 { cx.send(1, 1, 7u32); } else { let _: u32 = cx.recv(0, 1); }
/// });
/// assert_eq!(rep.telemetry.as_ref().unwrap().total().sends, 1);
/// let text = telemetry.render_openmetrics();
/// assert!(text.ends_with("# EOF\n"));
/// ```
///
/// The handle outlives the run: scrape it live from another thread (or
/// the `telemetry-http` endpoint) while the program executes, and read
/// final counters, flight dumps, and stall reports after it finishes —
/// even when the run ended in a panic and no report was produced.
pub struct Telemetry {
    config: TelemetryConfig,
    inner: Mutex<Inner>,
    stall_reports: Mutex<Vec<StallReport>>,
    /// Bounded slowest-N request traces (see
    /// [`Telemetry::offer_exemplar_trace`]).
    exemplar_traces: Mutex<Vec<ExemplarTrace>>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("Telemetry")
            .field("config", &self.config)
            .field("nprocs", &inner.shards.len())
            .field("labels", &inner.names.len())
            .field("stall_reports", &self.stall_reports.lock().len())
            .finish()
    }
}

impl Telemetry {
    /// A telemetry handle with default configuration.
    pub fn new() -> Self {
        Telemetry::with_config(TelemetryConfig::default())
    }

    /// A telemetry handle with explicit configuration.
    pub fn with_config(config: TelemetryConfig) -> Self {
        Telemetry {
            config,
            inner: Mutex::new(Inner {
                shards: Vec::new(),
                names: Vec::new(),
                ids: HashMap::new(),
                start: None,
                world: Weak::new(),
                tenants: Vec::new(),
            }),
            stall_reports: Mutex::new(Vec::new()),
            exemplar_traces: Mutex::new(Vec::new()),
        }
    }

    /// The configuration this handle was built with.
    pub fn config(&self) -> &TelemetryConfig {
        &self.config
    }

    /// Attach to a new run's counter blocks with fresh shards. Called by
    /// [`crate::run`]; a handle reused across runs reports only the
    /// latest run.
    pub(crate) fn begin_run(&self, start: Instant, world: &Arc<World>) {
        let mut inner = self.inner.lock();
        inner.shards = world
            .counters
            .iter()
            .map(|c| Arc::new(ProcShard::new(Arc::clone(c), self.config.flight_capacity)))
            .collect();
        inner.start = Some(start);
        inner.world = Arc::downgrade(world);
        drop(inner);
        self.stall_reports.lock().clear();
    }

    pub(crate) fn shard(&self, rank: usize) -> Arc<ProcShard> {
        Arc::clone(&self.inner.lock().shards[rank])
    }

    pub(crate) fn shards(&self) -> Vec<Arc<ProcShard>> {
        self.inner.lock().shards.clone()
    }

    pub(crate) fn world(&self) -> Option<Arc<World>> {
        self.inner.lock().world.upgrade()
    }

    /// Intern a region path, returning a stable small id.
    pub(crate) fn intern(&self, path: &str) -> u32 {
        let mut inner = self.inner.lock();
        if let Some(&id) = inner.ids.get(path) {
            return id;
        }
        let id = inner.names.len() as u32;
        let arc: Arc<str> = Arc::from(path);
        inner.names.push(Arc::clone(&arc));
        inner.ids.insert(arc, id);
        id
    }

    /// Resolve an interned label id back to its path.
    pub(crate) fn resolve(&self, id: u32) -> Arc<str> {
        let inner = self.inner.lock();
        inner
            .names
            .get(id as usize)
            .cloned()
            .unwrap_or_else(|| Arc::from(format!("label#{id}").as_str()))
    }

    /// Register (or replace) the tenant set for a serving session and
    /// return the live handles, in registration order. Counters start at
    /// zero. Survives [`Telemetry::begin_run`] so the serving layer can
    /// register tenants before launching the SPMD run that serves them.
    pub fn begin_tenants(&self, names: &[&str]) -> Vec<Arc<TenantStats>> {
        let tenants: Vec<Arc<TenantStats>> = names.iter().map(|n| Arc::new(TenantStats::new(n))).collect();
        self.inner.lock().tenants = tenants.clone();
        // A new tenant set starts a new serving session: retained
        // exemplar traces belong to the previous one.
        self.exemplar_traces.lock().clear();
        tenants
    }

    /// Offer a request trace to the slowest-N exemplar ring. The ring
    /// keeps the [`TelemetryConfig::exemplar_trace_capacity`] slowest
    /// requests seen this serving session; `render` is only invoked when
    /// the request actually earns a slot, so callers can offer every
    /// completion without paying for JSON rendering on the fast path.
    pub fn offer_exemplar_trace(
        &self,
        trace_id: u64,
        latency_ns: u64,
        render: impl FnOnce() -> String,
    ) {
        let cap = self.config.exemplar_trace_capacity;
        if cap == 0 || trace_id == 0 {
            return;
        }
        let mut ring = self.exemplar_traces.lock();
        if ring.len() >= cap {
            // Evict the fastest retained trace if this one is slower.
            let (min_i, min_lat) = ring
                .iter()
                .enumerate()
                .map(|(i, e)| (i, e.latency_ns))
                .min_by_key(|&(_, l)| l)
                .expect("ring is non-empty");
            if latency_ns <= min_lat {
                return;
            }
            ring.swap_remove(min_i);
        }
        ring.push(ExemplarTrace { trace_id, latency_ns, json: render() });
    }

    /// Look up a retained exemplar trace by its trace id.
    pub fn exemplar_trace(&self, trace_id: u64) -> Option<ExemplarTrace> {
        self.exemplar_traces.lock().iter().find(|e| e.trace_id == trace_id).cloned()
    }

    /// The retained exemplar traces, slowest first.
    pub fn exemplar_traces(&self) -> Vec<ExemplarTrace> {
        let mut out = self.exemplar_traces.lock().clone();
        out.sort_by(|a, b| b.latency_ns.cmp(&a.latency_ns).then(a.trace_id.cmp(&b.trace_id)));
        out
    }

    /// The currently registered tenant handles (empty outside serving).
    pub fn tenants(&self) -> Vec<Arc<TenantStats>> {
        self.inner.lock().tenants.clone()
    }

    pub(crate) fn push_stall_report(&self, report: StallReport) {
        let mut reports = self.stall_reports.lock();
        // Bounded: a long-lived stall re-reported forever must not grow
        // without limit.
        if reports.len() < 256 {
            reports.push(report);
        }
    }

    /// Stall-detector reports accumulated during the current/last run,
    /// oldest first. Readable even after a run that ended in a panic.
    pub fn stall_reports(&self) -> Vec<StallReport> {
        self.stall_reports.lock().clone()
    }

    /// Chunk payload bytes currently deposited in mailboxes (sum of the
    /// per-processor sharded gauge; transiently off by in-progress
    /// messages while the run executes, exact once it finishes).
    pub fn chunk_bytes_in_flight(&self) -> i64 {
        self.shards().iter().map(|s| s.chunk_flight.load(Ordering::Relaxed)).sum()
    }

    // ----- flight recorder ------------------------------------------------

    /// The retained flight-recorder events of one processor, oldest first,
    /// with region labels resolved.
    pub fn flight_events(&self, proc: usize) -> Vec<FlightEvent> {
        let shard = {
            let inner = self.inner.lock();
            match inner.shards.get(proc) {
                Some(s) => Arc::clone(s),
                None => return Vec::new(),
            }
        };
        shard
            .flight
            .snapshot()
            .into_iter()
            .map(|raw| {
                let kind = match raw.kind() {
                    K_SEND => FlightKind::Send { peer: raw.peer(), tag: raw.tag, bytes: raw.bytes },
                    K_RECV => FlightKind::Recv { peer: raw.peer(), tag: raw.tag, bytes: raw.bytes },
                    K_BARRIER => FlightKind::Barrier,
                    K_ENTER => FlightKind::RegionEnter(self.resolve(raw.label()).to_string()),
                    _ => FlightKind::RegionExit(self.resolve(raw.label()).to_string()),
                };
                FlightEvent { wall_ns: raw.wall_ns, vtime: f64::from_bits(raw.vtime_bits), kind }
            })
            .collect()
    }

    /// Human-readable flight dump of every processor's ring (the black-box
    /// readout printed on panic and attached to CI artifacts).
    pub fn flight_dump(&self) -> String {
        let nprocs = self.inner.lock().shards.len();
        let mut out = String::new();
        for p in 0..nprocs {
            let events = self.flight_events(p);
            let shard = self.shard(p);
            out.push_str(&format!(
                "=== processor {p}: {} retained of {} recorded ===\n",
                events.len(),
                shard.flight.pushed()
            ));
            let (src, tag) = (shard.wait_src.load(Ordering::Relaxed), shard.wait_tag.load(Ordering::Relaxed));
            if src != NO_WAIT {
                out.push_str(&format!("    (blocked in recv(src={src}, tag={tag:#x}))\n"));
            }
            for ev in &events {
                out.push_str(&format!("  {ev}\n"));
            }
        }
        out
    }

    // ----- snapshots ------------------------------------------------------

    /// A consistent-enough point-in-time copy of every counter (relaxed
    /// reads; exact once the run has finished).
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let (shards, names, tenants) = {
            let inner = self.inner.lock();
            (inner.shards.clone(), inner.names.clone(), inner.tenants.clone())
        };
        let per_proc: Vec<ProcTotals> = shards.iter().map(|s| s.totals()).collect();
        let mut regions: Vec<(String, u64)> = Vec::new();
        let mut region_map: HashMap<u32, u64> = HashMap::new();
        for s in &shards {
            for (&id, &n) in s.scope_counts.lock().iter() {
                *region_map.entry(id).or_insert(0) += n;
            }
        }
        let mut ids: Vec<u32> = region_map.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let name = names.get(id as usize).map(|a| a.to_string()).unwrap_or_else(|| format!("label#{id}"));
            regions.push((name, region_map[&id]));
        }
        TelemetrySnapshot {
            per_proc,
            regions,
            chunk_bytes_in_flight: shards.iter().map(|s| s.chunk_flight.load(Ordering::Relaxed)).sum(),
            stall_report_count: self.stall_reports.lock().len(),
            tenants: tenants.iter().map(|t| t.totals()).collect(),
        }
    }

    /// Machine-wide totals (sum of [`Telemetry::snapshot`] per-processor
    /// rows).
    pub fn total(&self) -> ProcTotals {
        self.snapshot().total()
    }

    // ----- exporters ------------------------------------------------------

    /// Render the registry in OpenMetrics text format (Prometheus
    /// exposition), ending with `# EOF`. Per-processor counters carry a
    /// `proc` label; region-enter counters carry a `path` label; queue
    /// depths are gauged live from the mailboxes while the run executes.
    pub fn render_openmetrics(&self) -> String {
        let snap = self.snapshot();
        let mut out = String::with_capacity(4096);

        let counter = |out: &mut String, name: &str, help: &str, rows: &dyn Fn(&mut String)| {
            out.push_str(&format!("# TYPE {name} counter\n# HELP {name} {help}\n"));
            rows(out);
        };
        let mut families = FAMILIES.to_vec();
        families.sort_by_key(|f| f.0);
        for (_, name, help, get) in families {
            counter(&mut out, name, help, &|out: &mut String| {
                for (p, t) in snap.per_proc.iter().enumerate() {
                    out.push_str(&format!("{name}_total{{proc=\"{p}\"}} {}\n", get(t)));
                }
            });
        }

        counter(&mut out, "fx_region_path_enters", "Region entries by subgroup path.", &|out| {
            for (path, n) in &snap.regions {
                out.push_str(&format!("fx_region_path_enters_total{{path=\"{}\"}} {n}\n", escape_label(path)));
            }
        });

        out.push_str("# TYPE fx_chunk_bytes_in_flight gauge\n");
        out.push_str("# HELP fx_chunk_bytes_in_flight Chunk payload bytes currently deposited in mailboxes.\n");
        out.push_str(&format!("fx_chunk_bytes_in_flight {}\n", snap.chunk_bytes_in_flight));

        // Queue depths are computed live from the mailboxes; after the run
        // finishes the world is gone and the gauges read 0.
        let world = self.world();
        out.push_str("# TYPE fx_queue_depth gauge\n");
        out.push_str("# HELP fx_queue_depth Messages queued in each processor's mailbox.\n");
        for p in 0..snap.per_proc.len() {
            let depth: usize = world
                .as_ref()
                .map(|w| w.mailboxes[p].depth_snapshot().iter().map(|d| d.count).sum())
                .unwrap_or(0);
            out.push_str(&format!("fx_queue_depth{{proc=\"{p}\"}} {depth}\n"));
        }
        out.push_str("# TYPE fx_oldest_queued_seconds gauge\n");
        out.push_str("# HELP fx_oldest_queued_seconds Age of the oldest message queued in each mailbox.\n");
        for p in 0..snap.per_proc.len() {
            let oldest: f64 = world
                .as_ref()
                .map(|w| {
                    w.mailboxes[p]
                        .depth_snapshot()
                        .iter()
                        .map(|d| d.oldest_wait.as_secs_f64())
                        .fold(0.0, f64::max)
                })
                .unwrap_or(0.0);
            out.push_str(&format!("fx_oldest_queued_seconds{{proc=\"{p}\"}} {oldest:.6}\n"));
        }

        self.render_histogram(&mut out, "fx_msg_size_bytes", "Sent message sizes in bytes.", |s| &s.msg_bytes_hist);
        self.render_histogram(&mut out, "fx_recv_wait_duration_ns", "Blocking receive wait durations in nanoseconds.", |s| {
            &s.recv_wait_hist
        });

        // Per-tenant serving families (present only while a tenant set is
        // registered, i.e. during/after a serving session).
        if !snap.tenants.is_empty() {
            out.push_str("# TYPE fx_serve_requests counter\n");
            out.push_str("# HELP fx_serve_requests Serving requests by tenant and outcome.\n");
            for t in &snap.tenants {
                let tenant = escape_label(&t.name);
                for (outcome, n) in
                    [("arrived", t.arrived), ("admitted", t.admitted), ("shed", t.shed), ("completed", t.completed)]
                {
                    out.push_str(&format!(
                        "fx_serve_requests_total{{tenant=\"{tenant}\",outcome=\"{outcome}\"}} {n}\n"
                    ));
                }
            }
            out.push_str("# TYPE fx_serve_latency_ns histogram\n");
            out.push_str("# HELP fx_serve_latency_ns Request completion latency in virtual nanoseconds.\n");
            for t in &snap.tenants {
                let tenant = escape_label(&t.name);
                let mut cumulative = 0u64;
                for (i, &c) in t.latency_ns.buckets.iter().enumerate() {
                    cumulative += c;
                    let le = if i < HIST_FINITE {
                        format!("{}", 1u64 << i)
                    } else {
                        "+Inf".to_string()
                    };
                    // OpenMetrics exemplar: the trace id of the most
                    // recent traced sample in this bucket, so a p999
                    // bucket links straight to its exemplar trace.
                    let exemplar = match t.exemplars.get(i) {
                        Some(&(tid, v)) if tid != 0 => {
                            format!(" # {{trace_id=\"{tid:016x}\"}} {v}")
                        }
                        _ => String::new(),
                    };
                    out.push_str(&format!(
                        "fx_serve_latency_ns_bucket{{tenant=\"{tenant}\",le=\"{le}\"}} {cumulative}{exemplar}\n"
                    ));
                }
                out.push_str(&format!("fx_serve_latency_ns_sum{{tenant=\"{tenant}\"}} {}\n", t.latency_ns.sum));
                out.push_str(&format!("fx_serve_latency_ns_count{{tenant=\"{tenant}\"}} {cumulative}\n"));
            }
        }

        out.push_str("# EOF\n");
        out
    }

    fn render_histogram(
        &self,
        out: &mut String,
        name: &str,
        help: &str,
        pick: impl Fn(&ProcShard) -> &Histogram,
    ) {
        let shards = self.shards();
        let mut acc = ([0u64; HIST_FINITE + 1], 0u64);
        for s in &shards {
            pick(s).accumulate(&mut acc);
        }
        out.push_str(&format!("# TYPE {name} histogram\n# HELP {name} {help}\n"));
        let mut cumulative = 0u64;
        for (i, &c) in acc.0.iter().enumerate() {
            cumulative += c;
            if i < HIST_FINITE {
                out.push_str(&format!("{name}_bucket{{le=\"{}\"}} {cumulative}\n", 1u64 << i));
            } else {
                out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cumulative}\n"));
            }
        }
        out.push_str(&format!("{name}_sum {}\n", acc.1));
        out.push_str(&format!("{name}_count {cumulative}\n"));
    }

    /// Render the registry as a JSON document (hand-written, no serde
    /// dependency): per-processor counter objects, aggregated region
    /// counts, gauges, and stall-report count.
    pub fn render_json(&self) -> String {
        let snap = self.snapshot();
        let mut out = String::from("{\"procs\":[");
        for (p, t) in snap.per_proc.iter().enumerate() {
            if p > 0 {
                out.push(',');
            }
            out.push_str(&t.to_json());
        }
        out.push_str("],\"total\":");
        out.push_str(&snap.total().to_json());
        out.push_str(",\"regions\":{");
        for (i, (path, n)) in snap.regions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{n}", escape_label(path)));
        }
        out.push_str("},\"tenants\":[");
        for (i, t) in snap.tenants.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"arrived\":{},\"admitted\":{},\"shed\":{},\"completed\":{},\
                 \"latency_p50_ns\":{},\"latency_p99_ns\":{},\"latency_p999_ns\":{}}}",
                escape_label(&t.name),
                t.arrived,
                t.admitted,
                t.shed,
                t.completed,
                t.latency_ns.quantile(0.50),
                t.latency_ns.quantile(0.99),
                t.latency_ns.quantile(0.999)
            ));
        }
        out.push_str(&format!(
            "],\"chunk_bytes_in_flight\":{},\"stall_reports\":{}}}",
            snap.chunk_bytes_in_flight, snap.stall_report_count
        ));
        out
    }
}

/// Escape a label value for OpenMetrics / JSON string position.
fn escape_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Point-in-time copy of the whole registry, as stored in
/// [`crate::RunReport::telemetry`].
#[derive(Debug, Clone, Default)]
pub struct TelemetrySnapshot {
    /// One counter row per processor, indexed by physical rank.
    pub per_proc: Vec<ProcTotals>,
    /// Region-enter counts by subgroup path, aggregated across
    /// processors, sorted by first occurrence.
    pub regions: Vec<(String, u64)>,
    /// Chunk payload bytes deposited but not yet received at snapshot
    /// time (0 after a clean run).
    pub chunk_bytes_in_flight: i64,
    /// Number of stall reports the detector emitted.
    pub stall_report_count: usize,
    /// Per-tenant serving accounting (empty outside serving sessions).
    pub tenants: Vec<TenantTotals>,
}

/// Final per-tenant serving counters, as stored in snapshots and in
/// [`crate::RunReport::telemetry`].
#[derive(Debug, Clone, Default)]
pub struct TenantTotals {
    /// The tenant's registered name.
    pub name: String,
    /// Requests that arrived (admitted + shed).
    pub arrived: u64,
    /// Requests accepted into the admission queue.
    pub admitted: u64,
    /// Requests dropped by the shedding policy.
    pub shed: u64,
    /// Requests fully served.
    pub completed: u64,
    /// Completion latency histogram in virtual nanoseconds; read SLO
    /// quantiles with [`HistogramSnapshot::quantile`].
    pub latency_ns: HistogramSnapshot,
    /// Per-bucket `(trace id, observed latency)` exemplar of the most
    /// recent traced sample; `(0, _)` = no exemplar. Same indexing as
    /// `latency_ns.buckets`.
    pub exemplars: Vec<(u64, u64)>,
}

impl TelemetrySnapshot {
    /// Machine-wide totals: every per-processor row merged.
    pub fn total(&self) -> ProcTotals {
        let mut t = ProcTotals::default();
        for row in &self.per_proc {
            t.merge(row);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_cumulative_pow2() {
        let h = Histogram::default();
        for v in [0u64, 1, 2, 3, 4, 1000, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        let mut acc = ([0u64; HIST_FINITE + 1], 0u64);
        h.accumulate(&mut acc);
        assert_eq!(acc.0[0], 2, "0 and 1 land in le=1");
        assert_eq!(acc.0[1], 1, "2 lands in le=2");
        assert_eq!(acc.0[2], 2, "3 and 4 land in le=4");
        assert_eq!(acc.0[10], 1, "1000 lands in le=1024");
        assert_eq!(acc.0[HIST_FINITE], 1, "u64::MAX overflows to +Inf");
    }

    /// Exact quantile of a sorted sample: rank `ceil(q*n)` (1-based).
    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        let n = sorted.len() as f64;
        let rank = ((q * n).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    fn assert_within_2x(est: u64, exact: u64, what: &str) {
        let lo = exact / 2;
        let hi = exact.saturating_mul(2).max(1);
        assert!(est >= lo && est <= hi, "{what}: estimate {est} outside [{lo}, {hi}] (exact {exact})");
    }

    #[test]
    fn quantile_within_bucket_width_of_exact() {
        // Known distributions with analytically exact quantiles: the
        // log-bucket estimate must stay within one bucket width (≤2×).
        for (name, values) in [
            ("uniform 1..=10000", (1..=10_000u64).collect::<Vec<_>>()),
            ("constant 1000", vec![1000u64; 500]),
            ("bimodal 10 | 100000", (0..1000).map(|i| if i % 2 == 0 { 10 } else { 100_000 }).collect()),
            ("geometric-ish", (0..14).flat_map(|k| std::iter::repeat(1u64 << k).take(1 << (13 - k))).collect()),
        ] {
            let h = Histogram::default();
            for &v in &values {
                h.record(v);
            }
            let mut sorted = values.clone();
            sorted.sort_unstable();
            for q in [0.5, 0.9, 0.99, 0.999] {
                assert_within_2x(h.quantile(q), exact_quantile(&sorted, q), &format!("{name} q={q}"));
            }
        }
    }

    #[test]
    fn quantile_is_monotone_and_handles_edges() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.99), 0, "empty histogram yields 0");
        for v in [1u64, 3, 9, 100, 5000] {
            h.record(v);
        }
        let qs: Vec<u64> = [0.0, 0.1, 0.5, 0.9, 0.99, 1.0].iter().map(|&q| h.quantile(q)).collect();
        assert!(qs.windows(2).all(|w| w[0] <= w[1]), "quantiles must be monotone: {qs:?}");
        assert!(h.quantile(1.0) >= 2500 && h.quantile(1.0) <= 10_000, "max within 2x of 5000");
        // Values in the first bucket (<= 1) report at most 1.
        let tiny = Histogram::default();
        tiny.record(0);
        tiny.record(1);
        assert!(tiny.quantile(0.99) <= 1);
        // Overflow values clamp to the +Inf bucket's interpolation range.
        let huge = Histogram::default();
        huge.record(u64::MAX);
        assert!(huge.quantile(0.5) >= 1u64 << 37);
    }

    #[test]
    fn record_shared_matches_record() {
        let a = Histogram::default();
        let b = Histogram::default();
        for v in [0u64, 1, 2, 700, 1 << 20] {
            a.record(v);
            b.record_shared(v);
        }
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn tenant_registry_renders_and_snapshots() {
        let t = Telemetry::new();
        let tenants = t.begin_tenants(&["interactive", "batch"]);
        tenants[0].arrived.fetch_add(3, Ordering::Relaxed);
        tenants[0].admitted.fetch_add(2, Ordering::Relaxed);
        tenants[0].shed.fetch_add(1, Ordering::Relaxed);
        tenants[0].on_complete(1_000_000);
        tenants[0].on_complete(2_000_000);
        let om = t.render_openmetrics();
        assert!(om.contains("fx_serve_requests_total{tenant=\"interactive\",outcome=\"shed\"} 1"));
        assert!(om.contains("fx_serve_latency_ns_count{tenant=\"interactive\"} 2"));
        assert!(om.contains("fx_serve_latency_ns_bucket{tenant=\"batch\",le=\"+Inf\"} 0"));
        assert!(om.ends_with("# EOF\n"));
        let snap = t.snapshot();
        assert_eq!(snap.tenants.len(), 2);
        assert_eq!(snap.tenants[0].completed, 2);
        let p50 = snap.tenants[0].latency_ns.quantile(0.5);
        assert!(p50 >= 500_000 && p50 <= 4_000_000, "p50 {p50} within 2x of exact 1ms..2ms");
        // Re-registration resets.
        let again = t.begin_tenants(&["interactive"]);
        assert_eq!(again[0].totals().arrived, 0);
    }

    #[test]
    fn latency_buckets_carry_exemplars() {
        let t = Telemetry::new();
        let tenants = t.begin_tenants(&["gold"]);
        tenants[0].on_complete(1_000_000); // untraced: no exemplar
        tenants[0].on_complete_traced(3_000_000, 0xABCD); // traced
        tenants[0].on_complete_traced(3_100_000, 0xEF01); // same bucket: wins
        let om = t.render_openmetrics();
        assert!(
            om.contains("# {trace_id=\"000000000000ef01\"} 3100000"),
            "most recent traced sample is the bucket exemplar: {om}"
        );
        assert!(!om.contains("abcd"), "overwritten exemplar must not linger");
        // The exemplar rides the bucket the sample landed in, value intact.
        let totals = tenants[0].totals();
        let i = totals.latency_ns.buckets.iter().rposition(|&c| c > 0).unwrap();
        assert_eq!(totals.exemplars[i], (0xEF01, 3_100_000));
    }

    #[test]
    fn exemplar_ring_keeps_slowest_n() {
        let mut cfg = TelemetryConfig::default();
        cfg.exemplar_trace_capacity = 2;
        let t = Telemetry::with_config(cfg);
        t.begin_tenants(&["gold"]);
        let mut rendered = 0usize;
        let mut offer = |id: u64, lat: u64, rendered: &mut usize| {
            t.offer_exemplar_trace(id, lat, || {
                *rendered += 1;
                format!("{{\"trace\":{id}}}")
            });
        };
        offer(1, 100, &mut rendered);
        offer(2, 300, &mut rendered);
        offer(3, 50, &mut rendered); // faster than everything retained: dropped
        offer(4, 200, &mut rendered); // evicts id 1
        assert_eq!(rendered, 3, "render is lazy: dropped offers never render");
        let ids: Vec<u64> = t.exemplar_traces().iter().map(|e| e.trace_id).collect();
        assert_eq!(ids, vec![2, 4], "slowest first");
        assert_eq!(t.exemplar_trace(2).unwrap().json, "{\"trace\":2}");
        assert!(t.exemplar_trace(1).is_none(), "evicted");
        assert!(t.exemplar_trace(0).is_none());
        // A new serving session clears the ring.
        t.begin_tenants(&["gold"]);
        assert!(t.exemplar_traces().is_empty());
    }

    #[test]
    fn intern_is_stable_and_resolves() {
        let t = Telemetry::new();
        let a = t.intern("G1/fft");
        let b = t.intern("G2/hist");
        assert_ne!(a, b);
        assert_eq!(t.intern("G1/fft"), a);
        assert_eq!(&*t.resolve(a), "G1/fft");
        assert_eq!(&*t.resolve(b), "G2/hist");
    }

    /// Pins the exposition of the per-processor counters: family names,
    /// help strings and order in OpenMetrics, key order in JSON, and that
    /// each family reads its own counter.
    #[test]
    fn exporters_pin_counter_families_and_keys() {
        let c = Arc::new(Counters::default());
        // (counter, family, help) in exposition order.
        let families: [(&AtomicU64, &str, &str); 23] = [
            (&c.sends, "fx_sends", "Messages sent (both payload paths)."),
            (&c.send_bytes, "fx_send_bytes", "Payload bytes sent."),
            (&c.recvs, "fx_recvs", "Messages received."),
            (&c.recv_bytes, "fx_recv_bytes", "Payload bytes received."),
            (&c.send_ns, "fx_send_ns", "Host nanoseconds inside send calls."),
            (&c.recv_wait_ns, "fx_recv_wait_ns", "Host nanoseconds blocked in receives."),
            (&c.chunk_msgs, "fx_chunk_msgs", "Messages sent via the chunk fast path."),
            (&c.chunk_bytes, "fx_chunk_bytes", "Payload bytes sent via the chunk fast path."),
            (&c.barriers, "fx_barriers", "Group barriers entered."),
            (
                &c.barriers_elided,
                "fx_barriers_elided",
                "Statement sync points whose subset barrier was elided (interval-covered edge).",
            ),
            (&c.barriers_kept, "fx_barriers_kept", "Statement sync points whose subset barrier ran."),
            (
                &c.promotions_attempted,
                "fx_promotions_attempted",
                "Heartbeats that published a promotion announcement.",
            ),
            (&c.promotions_taken, "fx_promotions_taken", "Loop-tail grants donated to idle subgroup peers."),
            (
                &c.promotions_declined,
                "fx_promotions_declined",
                "Heartbeats that donated nothing (no victim or unprofitable).",
            ),
            (&c.region_enters, "fx_region_enters", "Task-region scopes entered."),
            (&c.region_skips, "fx_region_skips", "Task regions skipped (processor not a member)."),
            (&c.pool_hits, "fx_pool_hits", "Buffer-pool hits (buffer recycled)."),
            (&c.pool_misses, "fx_pool_misses", "Buffer-pool misses (allocator invoked)."),
            (&c.plan_hits, "fx_plan_hits", "Communication-plan cache hits."),
            (&c.plan_misses, "fx_plan_misses", "Communication-plan cache misses."),
            (&c.pack_ns, "fx_plan_pack_ns", "Host nanoseconds packing/unpacking plan buffers."),
            (&c.lane_contention, "fx_lane_contention", "Mailbox lane deposits that found the lane lock held."),
            (&c.progress, "fx_progress", "Monotone per-processor progress events."),
        ];
        for (i, (counter, ..)) in families.iter().enumerate() {
            counter.store(100 + i as u64, Ordering::Relaxed);
        }
        let t = Telemetry::new();
        let shard = Arc::new(ProcShard::new(Arc::clone(&c), 8));
        for _ in 0..3 {
            shard.on_barrier(0, 0);
        }
        t.inner.lock().shards = vec![shard];

        let om = t.render_openmetrics();
        let mut lines = om.lines();
        for (i, (_, name, help)) in families.iter().enumerate() {
            assert_eq!(lines.next(), Some(format!("# TYPE {name} counter").as_str()));
            assert_eq!(lines.next(), Some(format!("# HELP {name} {help}").as_str()));
            let value = 100 + i;
            assert_eq!(lines.next(), Some(format!("{name}_total{{proc=\"0\"}} {value}").as_str()));
        }
        assert_eq!(lines.next(), Some("# TYPE fx_region_path_enters counter"));

        // JSON: the first processor object, keys in order, each with the
        // value of its own counter.
        let keys = [
            "sends", "send_bytes", "chunk_msgs", "chunk_bytes", "send_ns", "recvs", "recv_bytes",
            "recv_wait_ns", "barriers", "barriers_elided", "barriers_kept", "promotions_attempted",
            "promotions_taken", "promotions_declined", "region_enters", "region_skips", "pool_hits",
            "pool_misses", "plan_hits", "plan_misses", "pack_ns", "lane_contention", "progress",
            "flight_recorded",
        ];
        let json = t.render_json();
        let row = json
            .strip_prefix("{\"procs\":[{")
            .and_then(|r| r.split_once('}'))
            .map(|(row, _)| row)
            .expect("one processor object");
        let got: Vec<(&str, u64)> = row
            .split(',')
            .map(|kv| {
                let (k, v) = kv.split_once(':').expect("key:value");
                (k.trim_matches('"'), v.parse().expect("integer value"))
            })
            .collect();
        assert_eq!(got.iter().map(|kv| kv.0).collect::<Vec<_>>(), keys);
        let family_of = |key: &str| match key {
            "pack_ns" => "fx_plan_pack_ns".to_string(),
            k => format!("fx_{k}"),
        };
        for (key, value) in &got[..23] {
            let i = families.iter().position(|f| f.1 == family_of(key)).expect("key has a family");
            assert_eq!(*value, 100 + i as u64, "JSON {key} reads its own counter");
        }
        assert_eq!(got[23], ("flight_recorded", 3));
    }

    #[test]
    fn empty_registry_renders_valid_openmetrics() {
        let t = Telemetry::new();
        let text = t.render_openmetrics();
        assert!(text.ends_with("# EOF\n"));
        assert!(text.contains("# TYPE fx_sends counter"));
        let json = t.render_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
    }
}
