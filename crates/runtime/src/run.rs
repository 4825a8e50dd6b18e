//! Launching SPMD programs on the simulated multicomputer.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::coro;
use crate::counters::ProcTotals;
use crate::ctx::{ProcCtx, World};
use crate::heartbeat::{default_heartbeat_period, HeartbeatBoard, HeartbeatMode};
use crate::mailbox::Mailbox;
use crate::model::{MachineModel, TimeMode};
use crate::pool::{self, Pool};
use crate::span::SpanLog;
use crate::stall;
use crate::telemetry::{Telemetry, TelemetrySnapshot};
use crate::trace::EventLog;

/// How simulated processors are mapped onto OS threads.
///
/// Either executor produces **bit-identical virtual-time results**:
/// virtual clocks are per-processor state coupled only through message
/// causality, and matching is FIFO per `(src, tag)` with no wildcard
/// receive, so host scheduling order cannot leak into simulated time.
/// The choice only affects host wall-clock and resource footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Executor {
    /// One dedicated OS thread per simulated processor — the reference
    /// executor (and the only option for `P` real-time processors that
    /// genuinely need preemptive parallelism). At P ≫ cores it drowns in
    /// thread stacks and kernel context switches.
    Threaded,
    /// Each processor is a stackful coroutine multiplexed onto a fixed
    /// pool of `workers` OS threads with per-worker run queues and work
    /// stealing; blocking receives suspend into the scheduler. `workers
    /// == 0` means auto (`available_parallelism`). The default for
    /// simulated machines.
    Pooled {
        /// Worker threads (0 = number of host CPUs).
        workers: usize,
    },
}

impl Executor {
    /// The pooled executor with automatic worker count.
    pub fn pooled() -> Self {
        Executor::Pooled { workers: 0 }
    }

    /// Apply the `FX_EXECUTOR` (`threaded`/`pooled`) and `FX_WORKERS`
    /// environment overrides on top of a mode-specific default.
    fn from_env(default: Executor) -> Executor {
        let env_workers = std::env::var("FX_WORKERS").ok().and_then(|s| s.parse::<usize>().ok());
        match std::env::var("FX_EXECUTOR").as_deref() {
            Ok("threaded") => Executor::Threaded,
            Ok("pooled") => Executor::Pooled { workers: env_workers.unwrap_or(0) },
            _ => match default {
                Executor::Pooled { workers } => {
                    Executor::Pooled { workers: env_workers.unwrap_or(workers) }
                }
                Executor::Threaded => Executor::Threaded,
            },
        }
    }
}

impl std::fmt::Display for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Executor::Threaded => write!(f, "threaded"),
            Executor::Pooled { workers: 0 } => write!(f, "pooled(auto)"),
            Executor::Pooled { workers } => write!(f, "pooled({workers})"),
        }
    }
}

/// Whether distributed-array statements elide their inter-stage subset
/// barriers when the interval-level dependence structure proves them
/// redundant (ROADMAP item 4; see `fx-darray`'s dataflow module for the
/// covered-edge rule).
///
/// Barriers in this runtime never affect *results* — messages are matched
/// FIFO per `(src, tag)` stream regardless — only virtual (and host) time.
/// `Off` is the conservative baseline that synchronizes the participating
/// subset at every statement; `On` keeps only the barriers the classifier
/// cannot prove covered; `Validate` runs both ways and asserts the
/// elision is sound (identical event sequences, monotonically earlier
/// clocks, bit-identical times when nothing was elided).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataflowMode {
    /// Conservative: subset barrier at every distributed-array statement.
    Off,
    /// Elide barriers on interval-covered edges (the default).
    On,
    /// Run `Off` then `On` and assert the runs agree; report the `On` run.
    Validate,
}

impl DataflowMode {
    /// Apply the `FX_DATAFLOW` (`off`/`on`/`validate`) environment
    /// override on top of a default.
    fn from_env(default: DataflowMode) -> DataflowMode {
        match std::env::var("FX_DATAFLOW").as_deref() {
            Ok("off") => DataflowMode::Off,
            Ok("on") => DataflowMode::On,
            Ok("validate") => DataflowMode::Validate,
            _ => default,
        }
    }
}

impl std::fmt::Display for DataflowMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataflowMode::Off => write!(f, "off"),
            DataflowMode::On => write!(f, "on"),
            DataflowMode::Validate => write!(f, "validate"),
        }
    }
}

/// Causal-tracing default: `FX_TRACE` (`1`/`on` to enable, `0`/`off` to
/// disable) on top of a mode default of off. An explicit
/// [`Machine::with_tracing`] always wins.
fn tracing_from_env(default: bool) -> bool {
    match std::env::var("FX_TRACE").as_deref() {
        Ok("1") | Ok("on") | Ok("true") => true,
        Ok("0") | Ok("off") | Ok("false") => false,
        _ => default,
    }
}

/// Deadlock-watchdog default: `FX_RECV_TIMEOUT_MS` if set, else 60 s.
/// An explicit [`Machine::with_timeout`] always wins.
fn default_recv_timeout() -> Duration {
    std::env::var("FX_RECV_TIMEOUT_MS")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .map(Duration::from_millis)
        .unwrap_or(Duration::from_secs(60))
}

/// Configuration of one machine instance.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Number of simulated processors.
    pub nprocs: usize,
    /// Real or simulated time.
    pub mode: TimeMode,
    /// Deadlock watchdog: a blocked receive panics after this long.
    pub recv_timeout: Duration,
    /// Record duration spans (see [`crate::SpanLog`]). Host-side only:
    /// enabling it never changes virtual times. Only effective under
    /// simulated time.
    pub profile: bool,
    /// Live telemetry registry (see [`crate::Telemetry`]). Host-side
    /// only: enabling it never changes virtual times.
    pub telemetry: Option<Arc<Telemetry>>,
    /// How processors map onto OS threads (defaults: pooled for
    /// simulated machines, threaded for real-time ones; `FX_EXECUTOR`
    /// and `FX_WORKERS` override the default, an explicit
    /// [`Machine::with_executor`] overrides everything).
    pub executor: Executor,
    /// Barrier elision for distributed-array statements (default `On`;
    /// `FX_DATAFLOW` overrides, an explicit [`Machine::with_dataflow`]
    /// overrides everything).
    pub dataflow: DataflowMode,
    /// Heartbeat work promotion for promotable loops (default `On` for
    /// simulated machines, `Off` for real-time ones; `FX_HEARTBEAT`
    /// overrides the default, an explicit [`Machine::with_heartbeat`]
    /// overrides everything). Inert for programs that never run a
    /// promotable loop — arming it cannot change their virtual times.
    pub heartbeat: HeartbeatMode,
    /// Virtual seconds of charged compute between heartbeats
    /// (`FX_HEARTBEAT_US` microseconds; default 1000 us).
    pub heartbeat_period: f64,
    /// Piggyback causal trace contexts on every message and adopt them on
    /// receive (see [`crate::TraceCtx`]; default off, `FX_TRACE`
    /// overrides the default, an explicit [`Machine::with_tracing`]
    /// overrides everything). Host-side observability only: virtual
    /// times are bit-identical with tracing on or off.
    pub tracing: bool,
}

impl Machine {
    /// A machine with `nprocs` processors under deterministic virtual time.
    pub fn simulated(nprocs: usize, model: MachineModel) -> Self {
        Machine {
            nprocs,
            mode: TimeMode::Simulated(model),
            recv_timeout: default_recv_timeout(),
            profile: false,
            telemetry: None,
            executor: Executor::from_env(Executor::pooled()),
            dataflow: DataflowMode::from_env(DataflowMode::On),
            heartbeat: HeartbeatMode::from_env(HeartbeatMode::On),
            heartbeat_period: default_heartbeat_period(),
            tracing: tracing_from_env(false),
        }
    }

    /// A machine with `nprocs` processors running in real (wall-clock) time.
    pub fn real(nprocs: usize) -> Self {
        Machine {
            nprocs,
            mode: TimeMode::Real,
            recv_timeout: default_recv_timeout(),
            profile: false,
            telemetry: None,
            executor: Executor::from_env(Executor::Threaded),
            dataflow: DataflowMode::from_env(DataflowMode::On),
            heartbeat: HeartbeatMode::from_env(HeartbeatMode::Off),
            heartbeat_period: default_heartbeat_period(),
            tracing: tracing_from_env(false),
        }
    }

    /// Override the deadlock watchdog timeout.
    pub fn with_timeout(mut self, t: Duration) -> Self {
        self.recv_timeout = t;
        self
    }

    /// Pin the executor, overriding both the mode default and the
    /// `FX_EXECUTOR`/`FX_WORKERS` environment.
    pub fn with_executor(mut self, e: Executor) -> Self {
        self.executor = e;
        self
    }

    /// Pin the dataflow barrier-elision mode, overriding both the default
    /// (`On`) and the `FX_DATAFLOW` environment.
    pub fn with_dataflow(mut self, d: DataflowMode) -> Self {
        self.dataflow = d;
        self
    }

    /// Arm or disarm heartbeat work promotion, overriding both the mode
    /// default and the `FX_HEARTBEAT` environment. Promotion only ever
    /// runs under simulated time; arming it on a real-time machine is a
    /// no-op.
    pub fn with_heartbeat(mut self, on: bool) -> Self {
        self.heartbeat = if on { HeartbeatMode::On } else { HeartbeatMode::Off };
        self
    }

    /// Override the heartbeat period (virtual seconds of charged compute
    /// between promotion checks).
    pub fn with_heartbeat_period(mut self, seconds: f64) -> Self {
        assert!(seconds > 0.0, "heartbeat period must be positive");
        self.heartbeat_period = seconds;
        self
    }

    /// Enable or disable span profiling (off by default). Spans are
    /// recorded only under simulated time; profiling is host-side
    /// observability and never perturbs the virtual clock.
    pub fn with_profiling(mut self, on: bool) -> Self {
        self.profile = on;
        self
    }

    /// Enable or disable causal trace propagation (off by default),
    /// overriding the `FX_TRACE` environment. Trace contexts ride on
    /// every message and are adopted on receive; combine with
    /// [`Machine::with_profiling`] to tag spans with trace ids. Never
    /// perturbs the virtual clock.
    pub fn with_tracing(mut self, on: bool) -> Self {
        self.tracing = on;
        self
    }

    /// Attach a live telemetry registry (off by default). The handle is
    /// shared: keep your clone to scrape metrics mid-run, read flight
    /// recorders and stall reports — even after a run that panicked. The
    /// final snapshot also lands in [`RunReport::telemetry`]. Host-side
    /// observability only: virtual times are bit-identical with telemetry
    /// on or off.
    pub fn with_telemetry(mut self, t: Arc<Telemetry>) -> Self {
        self.telemetry = Some(t);
        self
    }
}

/// Everything a finished run produced.
#[derive(Debug)]
pub struct RunReport<R> {
    /// Per-processor return values, indexed by physical rank.
    pub results: Vec<R>,
    /// Per-processor finish times (virtual seconds when simulating).
    pub times: Vec<f64>,
    /// Per-processor event logs.
    pub events: Vec<EventLog>,
    /// Per-processor runtime counters: traffic, host transport time,
    /// buffer pool, plan cache, barriers and elision, promotion, regions.
    /// Read from the same blocks telemetry scrapes; `flight_recorded` is
    /// 0 here. Host observability only; never affects virtual time. For a
    /// `Validate` run these are the counters of the `On` pass.
    pub counters: Vec<ProcTotals>,
    /// Payload bytes deposited into each processor's mailbox, per source
    /// lane: `lane_bytes[dst][src]`.
    pub lane_bytes: Vec<Vec<u64>>,
    /// Per-processor duration spans (empty unless the machine was built
    /// with `with_profiling(true)` under simulated time). Feed these to
    /// [`crate::critical_path`] or [`crate::chrome_trace_full_json`].
    pub spans: Vec<SpanLog>,
    /// Final telemetry snapshot (`None` unless the machine was built with
    /// [`Machine::with_telemetry`]).
    pub telemetry: Option<TelemetrySnapshot>,
    /// Messages deposited but never received (0 for a clean program).
    pub undelivered: usize,
}

impl<R> RunReport<R> {
    /// Completion time of the run: the slowest processor's clock.
    pub fn makespan(&self) -> f64 {
        self.times.iter().copied().fold(0.0, f64::max)
    }

    /// Machine-wide counters: every processor's row merged.
    pub fn total(&self) -> ProcTotals {
        let mut total = ProcTotals::default();
        for c in &self.counters {
            total.merge(c);
        }
        total
    }

    /// Alias of [`RunReport::total`]. It exists only because the frozen
    /// benchmark in `perfbench/` calls it; drop it at the next change to
    /// the benchmark.
    pub fn plan_stats_total(&self) -> ProcTotals {
        self.total()
    }

    /// All events with the given label across processors, as
    /// `(processor, time)` pairs sorted by time.
    pub fn events_named(&self, label: &str) -> Vec<(usize, f64)> {
        let mut v: Vec<(usize, f64)> = self
            .events
            .iter()
            .enumerate()
            .flat_map(|(p, log)| log.times_of(label).into_iter().map(move |t| (p, t)))
            .collect();
        v.sort_by(|a, b| a.1.total_cmp(&b.1));
        v
    }

    /// Steady-state throughput in events/second for `label`, computed from
    /// the spacing between the first and last occurrence (skipping the
    /// pipeline fill by dropping the first `skip` events).
    pub fn throughput(&self, label: &str, skip: usize) -> f64 {
        let ev = self.events_named(label);
        assert!(
            ev.len() > skip + 1,
            "need at least {} '{label}' events to measure throughput, got {}",
            skip + 2,
            ev.len()
        );
        let first = ev[skip].1;
        let last = ev[ev.len() - 1].1;
        (ev.len() - 1 - skip) as f64 / (last - first)
    }

    /// Serialize the run as Chrome-trace JSON (open in `about:tracing` or
    /// Perfetto to see the pipeline overlap). When the run was profiled,
    /// duration spans are included as complete (`"X"`) events alongside
    /// the instant marks; otherwise only the instant marks are emitted.
    pub fn chrome_trace(&self) -> String {
        if self.spans.iter().any(|s| !s.is_empty()) {
            crate::trace::chrome_trace_full_json(&self.events, &self.spans)
        } else {
            crate::trace::chrome_trace_json(&self.events)
        }
    }

    /// Critical-path analysis of a profiled run: walks send→recv edges and
    /// per-processor program order backwards from the last-finishing
    /// processor and attributes the makespan to compute, communication and
    /// idle per stage. Requires a run under `with_profiling(true)`.
    pub fn critical_path(&self) -> crate::critical::CriticalPathReport {
        crate::critical::critical_path(&self.spans, &self.times)
    }

    /// Mean time between events labelled `start` and the matching events
    /// labelled `done` (paired in order). This is the per-data-set latency
    /// of a stream program.
    pub fn latency(&self, start: &str, done: &str) -> f64 {
        let s = self.events_named(start);
        let d = self.events_named(done);
        assert!(!s.is_empty() && s.len() == d.len(), "unpaired latency events: {} starts, {} dones", s.len(), d.len());
        let total: f64 = s.iter().zip(&d).map(|(a, b)| b.1 - a.1).sum();
        total / s.len() as f64
    }
}

/// Run `f` as an SPMD program: every processor executes the same closure
/// with its own [`ProcCtx`]. Returns when all processors finish.
///
/// If any processor panics, all others are unblocked (their receives
/// poison) and the original panic is propagated.
pub fn run<R, F>(machine: &Machine, f: F) -> RunReport<R>
where
    R: Send,
    F: Fn(&mut ProcCtx) -> R + Send + Sync,
{
    if machine.dataflow == DataflowMode::Validate {
        // Soundness check for barrier elision: execute the program twice —
        // conservative barriers first, then with the classifier — and
        // assert the elision could not have changed observable behaviour.
        // Observers (telemetry, profiling) attach only to the reported
        // `On` pass so registry counters aren't double-counted.
        let mut off = machine.clone();
        off.dataflow = DataflowMode::Off;
        off.telemetry = None;
        off.profile = false;
        off.tracing = false;
        let off_rep = run_resolved(&off, &f);
        let mut on = machine.clone();
        on.dataflow = DataflowMode::On;
        let on_rep = run_resolved(&on, &f);
        validate_elision(&off_rep, &on_rep, machine.mode.is_simulated());
        return on_rep;
    }
    run_resolved(machine, &f)
}

/// The single-pass body of [`run`]: `machine.dataflow` is already resolved
/// to `Off` or `On`.
fn run_resolved<R, F>(machine: &Machine, f: &F) -> RunReport<R>
where
    R: Send,
    F: Fn(&mut ProcCtx) -> R + Send + Sync,
{
    assert!(machine.nprocs >= 1, "machine needs at least one processor");
    debug_assert!(machine.dataflow != DataflowMode::Validate, "validate resolves before launch");
    // Resolve the effective executor: auto worker counts become concrete,
    // and targets without a coroutine backend fall back to threads.
    let pool = match machine.executor {
        Executor::Pooled { workers } if coro::SUPPORTED => {
            let workers = if workers == 0 {
                std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
            } else {
                workers
            };
            let workers = workers.clamp(1, machine.nprocs);
            Some(Pool::new(machine.nprocs, workers, machine.recv_timeout))
        }
        _ => None,
    };
    let telemetry = machine.telemetry.clone();
    let world = Arc::new(World {
        nprocs: machine.nprocs,
        mode: machine.mode,
        mailboxes: (0..machine.nprocs)
            .map(|rank| match &pool {
                Some(p) => Mailbox::new_pooled(machine.nprocs, rank, Arc::clone(p)),
                None => Mailbox::new(machine.nprocs),
            })
            .collect(),
        counters: (0..machine.nprocs).map(|_| Arc::default()).collect(),
        recv_timeout: machine.recv_timeout,
        profile: machine.profile,
        tracing: machine.tracing,
        telemetry: telemetry.clone(),
        dataflow: machine.dataflow,
        heartbeat: machine.heartbeat,
        heartbeat_period: machine.heartbeat_period,
        hb_board: HeartbeatBoard::new(machine.nprocs),
        idle: (0..machine.nprocs).map(|_| std::sync::atomic::AtomicBool::new(false)).collect(),
    });
    let start = Instant::now();
    if let Some(t) = &telemetry {
        t.begin_run(start, &world);
    }
    // The stall sampler lives exactly as long as the execution: the guard
    // joins it on drop even when the propagated panic unwinds past us.
    let stall_guard = telemetry
        .as_ref()
        .filter(|t| t.config().stall)
        .map(|t| stall::spawn(Arc::clone(t), Arc::clone(&world), start));

    let raw = match &pool {
        Some(p) => pool::execute(p, &world, &telemetry, start, &f),
        None => run_threaded(machine.nprocs, &world, &telemetry, start, &f),
    };

    // Tear down the stall sampler before (possibly) re-raising a panic.
    drop(stall_guard);

    // Prefer reporting the root-cause panic over the poison-induced
    // secondary ones, scanning in rank order like the threaded join loop
    // always has.
    let mut outcomes: Vec<Option<ProcOutcome<R>>> = Vec::with_capacity(machine.nprocs);
    let mut first_panic: Option<Box<dyn Any + Send>> = None;
    let mut poison_panic: Option<Box<dyn Any + Send>> = None;
    for slot in raw {
        match slot.expect("SPMD processor finished without reporting an outcome") {
            Ok(out) => outcomes.push(Some(out)),
            Err(p) => {
                outcomes.push(None);
                let is_secondary = p
                    .downcast_ref::<String>()
                    .is_some_and(|s| s.contains("another processor panicked"));
                if is_secondary {
                    poison_panic.get_or_insert(p);
                } else if first_panic.is_none() {
                    first_panic = Some(p);
                }
            }
        }
    }
    if let Some(p) = first_panic.or(poison_panic) {
        resume_unwind(p);
    }

    let undelivered = world.mailboxes.iter().map(Mailbox::undelivered).sum();
    let mut results = Vec::with_capacity(machine.nprocs);
    let mut times = Vec::with_capacity(machine.nprocs);
    let mut events = Vec::with_capacity(machine.nprocs);
    let mut spans = Vec::with_capacity(machine.nprocs);
    for out in outcomes {
        let out = out.expect("missing processor outcome despite no panic");
        results.push(out.value);
        times.push(out.time);
        events.push(out.events);
        spans.push(out.spans);
    }
    RunReport {
        results,
        times,
        events,
        counters: world.counters.iter().map(|c| c.totals()).collect(),
        lane_bytes: world.mailboxes.iter().map(Mailbox::lane_bytes).collect(),
        spans,
        telemetry: telemetry.as_ref().map(|t| t.snapshot()),
        undelivered,
    }
}

/// The `Validate` assertions: elision must not change what the program
/// did, only when (in virtual time) it did it.
///
/// * Event label sequences are identical per processor — the program took
///   the same path.
/// * Under simulated time, every event time and finish time of the `On`
///   run is `<=` its `Off` counterpart: removing barriers can only lower
///   clocks (clock updates are IEEE `+`/`max` of the same operands, both
///   monotone), never raise or reorder them.
/// * Traffic is `<=` (the elided barrier messages are the difference).
/// * When nothing was elided the runs executed identical message
///   schedules, so times and traffic must be bit-identical.
fn validate_elision<R>(off: &RunReport<R>, on: &RunReport<R>, simulated: bool) {
    let elided = on.total().barriers_elided;
    let exact = elided == 0;
    assert_eq!(off.results.len(), on.results.len(), "FX_DATAFLOW=validate: nprocs changed");
    for p in 0..on.results.len() {
        let (eo, en) = (off.events[p].events(), on.events[p].events());
        assert_eq!(
            eo.len(),
            en.len(),
            "FX_DATAFLOW=validate: processor {p} recorded {} events with barriers, {} without",
            eo.len(),
            en.len()
        );
        for (a, b) in eo.iter().zip(en) {
            assert_eq!(
                a.label, b.label,
                "FX_DATAFLOW=validate: processor {p} event label diverged"
            );
            if simulated {
                if exact {
                    assert!(
                        a.time.to_bits() == b.time.to_bits(),
                        "FX_DATAFLOW=validate: nothing elided, yet processor {p} \
                         event '{}' moved: {} (off) vs {} (on)",
                        a.label, a.time, b.time
                    );
                } else {
                    assert!(
                        b.time <= a.time,
                        "FX_DATAFLOW=validate: elision DELAYED processor {p} \
                         event '{}': {} (off) vs {} (on)",
                        a.label, a.time, b.time
                    );
                }
            }
        }
        if simulated {
            let (to, tn) = (off.times[p], on.times[p]);
            if exact {
                assert!(
                    to.to_bits() == tn.to_bits(),
                    "FX_DATAFLOW=validate: nothing elided, yet processor {p} finish \
                     moved: {to} (off) vs {tn} (on)"
                );
            } else {
                assert!(
                    tn <= to,
                    "FX_DATAFLOW=validate: elision delayed processor {p} finish: \
                     {to} (off) vs {tn} (on)"
                );
            }
        }
        let (o, n) = (&off.counters[p], &on.counters[p]);
        let ((mo, bo), (mn, bn)) = ((o.sends, o.send_bytes), (n.sends, n.send_bytes));
        if exact {
            assert_eq!(
                (mo, bo),
                (mn, bn),
                "FX_DATAFLOW=validate: nothing elided, yet processor {p} traffic differs"
            );
        } else {
            assert!(
                mn <= mo && bn <= bo,
                "FX_DATAFLOW=validate: elision increased processor {p} traffic: \
                 {mo} msgs/{bo} B (off) vs {mn} msgs/{bn} B (on)"
            );
        }
    }
    assert_eq!(
        off.undelivered, on.undelivered,
        "FX_DATAFLOW=validate: undelivered message count diverged"
    );
}

/// The reference executor: one dedicated OS thread per simulated
/// processor. Each thread runs the same harness the pooled executor's
/// coroutines run (catch panics, poison mailboxes, dump the flight
/// recorder) and its result is collected in rank order.
fn run_threaded<R, F>(
    nprocs: usize,
    world: &Arc<World>,
    telemetry: &Option<Arc<Telemetry>>,
    start: Instant,
    f: &F,
) -> RawOutcomes<R>
where
    R: Send,
    F: Fn(&mut ProcCtx) -> R + Send + Sync,
{
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(nprocs);
        for rank in 0..nprocs {
            let world = Arc::clone(world);
            let telemetry = telemetry.clone();
            handles.push(scope.spawn(move || {
                let mut cx = ProcCtx::new(rank, Arc::clone(&world), start);
                let r = catch_unwind(AssertUnwindSafe(|| f(&mut cx)));
                match r {
                    Ok(value) => Ok(cx.into_outcome(value)),
                    Err(payload) => {
                        // Unblock everyone else before reporting.
                        for mb in &world.mailboxes {
                            mb.poison();
                        }
                        // Black-box readout: dump this processor's flight
                        // ring, unless it is a secondary poison panic (the
                        // root cause already dumped its own).
                        if let Some(t) = &telemetry {
                            let secondary = payload
                                .downcast_ref::<String>()
                                .is_some_and(|s| s.contains("another processor panicked"));
                            if !secondary {
                                eprintln!(
                                    "[fx-telemetry] processor {rank} panicked; flight recorder:\n{}",
                                    flight_text(t, rank)
                                );
                            }
                        }
                        Err(payload)
                    }
                }
            }));
        }
        handles
            .into_iter()
            .map(|h| Some(h.join().expect("SPMD worker thread died outside catch_unwind")))
            .collect()
    })
}

/// One processor's flight-recorder readout with its blocked-receive state,
/// for the on-panic stderr dump.
pub(crate) fn flight_text(t: &Telemetry, rank: usize) -> String {
    let events = t.flight_events(rank);
    if events.is_empty() {
        return "  (no events recorded)\n".to_string();
    }
    let mut out = String::new();
    for ev in &events {
        out.push_str(&format!("  {ev}\n"));
    }
    out
}

/// Per-rank results of an execution: the processor's outcome, or the
/// panic payload it died with. `None` only on abnormal teardown paths
/// that are about to re-raise a panic anyway.
pub(crate) type RawOutcomes<R> = Vec<Option<Result<ProcOutcome<R>, Box<dyn Any + Send>>>>;

/// Everything one processor's harness hands back to the run for report
/// assembly, whichever executor ran it. Counters are not part of it:
/// they live in the run's counter blocks.
pub(crate) struct ProcOutcome<R> {
    pub(crate) value: R,
    pub(crate) time: f64,
    pub(crate) events: EventLog,
    pub(crate) spans: SpanLog,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_proc_returns_value() {
        let rep = run(&Machine::real(1), |cx| cx.rank() + 41);
        assert_eq!(rep.results, vec![41]);
        assert_eq!(rep.undelivered, 0);
    }

    #[test]
    fn ranks_are_unique_and_complete() {
        let rep = run(&Machine::real(8), |cx| cx.rank());
        assert_eq!(rep.results, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn ping_pong_real_mode() {
        let rep = run(&Machine::real(2), |cx| {
            if cx.rank() == 0 {
                cx.send(1, 1, 123u64);
                cx.recv::<u64>(1, 2)
            } else {
                let v = cx.recv::<u64>(0, 1);
                cx.send(0, 2, v + 1);
                v
            }
        });
        assert_eq!(rep.results, vec![124, 123]);
    }

    #[test]
    fn simulated_time_accounts_for_message_costs() {
        let m = crate::model::MachineModel::paragon();
        let rep = run(&Machine::simulated(2, m), |cx| {
            if cx.rank() == 0 {
                cx.send(1, 1, vec![0f64; 1000]);
            } else {
                let _: Vec<f64> = cx.recv(0, 1);
            }
            cx.now()
        });
        // Sender: o_send + 8000 B * gap. Receiver: that + latency + o_recv.
        let t0 = m.send_busy(8000);
        let t1 = m.arrival(t0) + m.recv_busy(8000);
        assert!((rep.results[0] - t0).abs() < 1e-12, "{} vs {}", rep.results[0], t0);
        assert!((rep.results[1] - t1).abs() < 1e-12, "{} vs {}", rep.results[1], t1);
        assert_eq!(rep.makespan(), rep.results[1]);
    }

    #[test]
    fn simulated_time_is_deterministic_across_runs() {
        let machine = Machine::simulated(4, crate::model::MachineModel::paragon());
        let go = || {
            run(&machine, |cx| {
                // Ring exchange plus local compute.
                let right = (cx.rank() + 1) % cx.nprocs();
                let left = (cx.rank() + cx.nprocs() - 1) % cx.nprocs();
                cx.charge_flops(1000.0 * (cx.rank() + 1) as f64);
                cx.send(right, 9, cx.rank() as u64);
                let v: u64 = cx.recv(left, 9);
                cx.charge_flops(500.0 * v as f64);
                cx.now()
            })
            .results
        };
        assert_eq!(go(), go());
    }

    #[test]
    fn clocks_decouple_until_communication() {
        // Proc 0 does lots of work; proc 1 does none and waits for a
        // message; proc 2 does nothing and should finish at time 0.
        let m = crate::model::MachineModel::zero_comm(1e-6);
        let rep = run(&Machine::simulated(3, m), |cx| match cx.rank() {
            0 => {
                cx.charge_flops(1_000_000.0);
                cx.send(1, 1, 0u8);
                cx.now()
            }
            1 => {
                let _: u8 = cx.recv(0, 1);
                cx.now()
            }
            _ => cx.now(),
        });
        assert!((rep.results[0] - 1.0).abs() < 1e-9);
        assert!((rep.results[1] - 1.0).abs() < 1e-9);
        assert_eq!(rep.results[2], 0.0);
    }

    #[test]
    fn events_and_throughput() {
        let m = crate::model::MachineModel::zero_comm(1e-3);
        let rep = run(&Machine::simulated(1, m), |cx| {
            for _ in 0..5 {
                cx.record("set start");
                cx.charge_flops(100.0); // 0.1 s each
                cx.record("set done");
            }
        });
        let done = rep.events_named("set done");
        assert_eq!(done.len(), 5);
        let thr = rep.throughput("set done", 1);
        assert!((thr - 10.0).abs() < 1e-6, "thr = {thr}");
        let lat = rep.latency("set start", "set done");
        assert!((lat - 0.1).abs() < 1e-9, "lat = {lat}");
    }

    #[test]
    fn panic_in_one_proc_fails_whole_run() {
        let machine = Machine::real(2).with_timeout(Duration::from_secs(30));
        let res = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run(&machine, |cx| {
                if cx.rank() == 0 {
                    panic!("boom from rank 0");
                }
                // Rank 1 would block forever without poisoning.
                let _: u8 = cx.recv(0, 7);
            })
        }));
        let err = res.expect_err("run should have panicked");
        let msg = err.downcast_ref::<&str>().map(|s| s.to_string())
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("boom from rank 0"), "got panic: {msg}");
    }

    #[test]
    fn undelivered_messages_are_counted() {
        let rep = run(&Machine::real(2), |cx| {
            if cx.rank() == 0 {
                cx.send(1, 1, 5u8);
                cx.send(1, 2, 6u8);
            } else {
                let _: u8 = cx.recv(0, 1);
            }
        });
        assert_eq!(rep.undelivered, 1);
        assert_eq!(rep.counters[0].sends, 2);
        assert_eq!(rep.counters[1].sends, 0);
    }

    #[test]
    fn probe_sees_deposited_messages_without_consuming() {
        let rep = run(&Machine::real(2), |cx| {
            if cx.rank() == 0 {
                cx.send(1, 3, 9u8);
                true
            } else {
                // Wait until the deposit lands, then check probe twice.
                while !cx.probe(0, 3) {
                    std::thread::yield_now();
                }
                let still_there = cx.probe(0, 3);
                let v: u8 = cx.recv(0, 3);
                still_there && v == 9 && !cx.probe(0, 3)
            }
        });
        assert!(rep.results.iter().all(|&ok| ok));
    }

    #[test]
    fn advance_to_moves_clock_forward_only() {
        let rep = run(&Machine::simulated(1, crate::model::MachineModel::paragon()), |cx| {
            cx.advance_to(2.5);
            let a = cx.now();
            cx.advance_to(1.0); // must not go backwards
            let b = cx.now();
            cx.charge_mem_bytes(30e6); // 1 second at 30 MB/s
            (a, b, cx.now())
        });
        let (a, b, c) = rep.results[0];
        assert_eq!(a, 2.5);
        assert_eq!(b, 2.5);
        assert!((c - 3.5).abs() < 1e-9);
    }

    #[test]
    fn advance_to_is_noop_in_real_mode() {
        let rep = run(&Machine::real(1), |cx| {
            cx.advance_to(1e9);
            cx.now() < 1.0 // wall clock, not the far future
        });
        assert!(rep.results[0]);
    }

    #[test]
    fn traffic_counts_bytes() {
        let rep = run(&Machine::real(2), |cx| {
            if cx.rank() == 0 {
                cx.send(1, 1, vec![0u32; 100]);
            } else {
                let _: Vec<u32> = cx.recv(0, 1);
            }
        });
        let c = &rep.counters[0];
        assert_eq!((c.sends, c.send_bytes), (1, 400));
    }
}
