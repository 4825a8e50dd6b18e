//! Run settings, timing, statistics and result output shared by the
//! three workloads.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fx_core::{DataflowMode, HeartbeatMode, Machine, MachineModel};
use fx_runtime::{Executor, ProcTotals, Telemetry, TelemetrySnapshot};

/// Deadlock watchdog for every benchmark machine: far above any pass, so
/// it only fires on a real hang.
const RECV_TIMEOUT: Duration = Duration::from_secs(60);

/// Heartbeat period pinned at the runtime's documented default (1 ms of
/// charged compute), so `FX_HEARTBEAT_US` cannot move it.
const HEARTBEAT_PERIOD_S: f64 = 1000e-6;

/// How many times set-up (input, oracle and trace generation plus one
/// warm-up pass) is repeated; `setup_s` is the median.
const SETUP_REPS: usize = 3;

/// Command-line options of one benchmark run.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Small shapes for the benchmark's own tests.
    pub smoke: bool,
    /// When the process started; the first set-up is timed from here.
    pub start: Instant,
}

/// One named metric value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// What a workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Checked operations (data sets, sorts, requests).
    pub attempted: u64,
    /// Checked operations whose output or determinism check failed.
    pub failed: u64,
    /// Requests refused by admission control (serving only). Not a
    /// correctness failure, but counted in the `fail_frac` metric.
    pub shed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn put(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
        });
    }

    /// Count `n` checked operations, `bad` of them failed.
    pub fn check(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }
}

/// The settings every benchmark machine runs with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pins {
    pub workers: usize,
    pub dataflow: DataflowMode,
    pub heartbeat: HeartbeatMode,
    pub heartbeat_period: f64,
    pub tracing: bool,
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

pub fn pins() -> Pins {
    Pins {
        workers: nproc(),
        dataflow: DataflowMode::On,
        heartbeat: HeartbeatMode::On,
        heartbeat_period: HEARTBEAT_PERIOD_S,
        tracing: false,
    }
}

/// A simulated Paragon of `p` nodes with every setting pinned through
/// the `Machine::with_*` builders, so no `FX_*` variable can change it.
pub fn machine(p: usize) -> Machine {
    let pin = pins();
    Machine::simulated(p, MachineModel::paragon())
        .with_executor(Executor::Pooled {
            workers: pin.workers,
        })
        .with_dataflow(pin.dataflow)
        .with_heartbeat(pin.heartbeat == HeartbeatMode::On)
        .with_heartbeat_period(pin.heartbeat_period)
        .with_tracing(pin.tracing)
        .with_profiling(false)
        .with_timeout(RECV_TIMEOUT)
}

/// The pinned machine with observability on: telemetry counters, causal
/// tracing and span profiling. Never changes virtual time.
pub fn traced_machine(p: usize) -> Machine {
    machine(p)
        .with_tracing(true)
        .with_profiling(true)
        .with_telemetry(Arc::new(Telemetry::new()))
}

/// Whether a built machine carries exactly the pinned settings.
pub fn pinned_ok(m: &Machine) -> bool {
    let pin = pins();
    m.executor
        == (Executor::Pooled {
            workers: pin.workers,
        })
        && m.dataflow == pin.dataflow
        && m.heartbeat == pin.heartbeat
        && m.heartbeat_period == pin.heartbeat_period
        && m.tracing == pin.tracing
        && !m.profile
        && m.telemetry.is_none()
}

/// Remove every `FX_*` variable from this process's environment and
/// return what was set. Called first thing in `main`, before any thread
/// exists. The builders in [`machine`] already pin what they can; this
/// also covers knobs without a builder (`FX_STACK_KB`).
pub fn scrub_fx_env() -> Vec<(String, String)> {
    let mut found: Vec<(String, String)> = std::env::vars_os()
        .filter_map(|(k, v)| {
            let k = k.into_string().ok()?;
            k.starts_with("FX_")
                .then(|| (k, v.to_string_lossy().into_owned()))
        })
        .collect();
    found.sort();
    for (k, _) in &found {
        std::env::remove_var(k);
    }
    found
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "none".to_string())
}

/// The run manifest, one JSON object.
pub fn manifest(opts: &Opts, ambient: &[(String, String)], p: usize) -> String {
    let pin = pins();
    let m = machine(p);
    let ambient_json: Vec<String> = ambient
        .iter()
        .map(|(k, v)| format!("\"{}\":\"{}\"", esc(k), esc(v)))
        .collect();
    format!(
        "{{\"manifest\":{{\"git_rev\":\"{}\",\"nproc\":{},\"executor\":\"{}\",\"workers\":{},\
         \"dataflow\":\"{}\",\"heartbeat\":\"{}\",\"heartbeat_period_s\":{},\"tracing\":{},\
         \"model\":\"paragon\",\"procs\":{},\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\
         \"traced_run\":{},\"smoke\":{},\"ambient_fx\":{{{}}},\"pinned_ok\":{}}}}}",
        esc(&git_rev()),
        nproc(),
        m.executor,
        pin.workers,
        m.dataflow,
        m.heartbeat,
        m.heartbeat_period,
        m.tracing,
        p,
        esc(&opts.workload),
        opts.seed,
        opts.seconds,
        opts.trace,
        opts.smoke,
        ambient_json.join(","),
        pinned_ok(&m)
    )
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// CPU seconds this process has used, over all its threads including
/// exited ones (`CLOCK_PROCESS_CPUTIME_ID`, nanosecond resolution).
/// Time the hypervisor steals from the virtual CPUs is not counted.
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` is the C library's; on 64-bit Linux its
    // `timespec` is two 64-bit integers, matching `Timespec`, and it
    // writes only through the valid pointer it is given.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
    } else {
        f64::NAN
    }
}

/// One untraced pass: its wall and CPU seconds.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    pub wall: f64,
    pub cpu: f64,
}

/// Run one timed pass, measuring wall and CPU time.
pub fn measured<R>(f: impl FnOnce() -> R) -> (R, Pass) {
    let c = cpu_seconds();
    let (r, wall) = timed(f);
    let cpu = cpu_seconds() - c;
    (r, Pass { wall, cpu })
}

fn median_of(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(&passes.iter().map(f).collect::<Vec<_>>())
}

/// Median untraced pass wall seconds.
pub fn wall_of(passes: &[Pass]) -> f64 {
    median_of(passes, |p| p.wall)
}

/// The end-to-end metrics from the untraced passes, and the process's
/// peak memory so far (read before any traced pass runs).
pub fn put_end_to_end(out: &mut Outcome, passes: &[Pass], setup_s: f64) {
    let ms: Vec<String> = passes
        .iter()
        .map(|p| format!("{:.0}/{:.0}", p.wall * 1e3, p.cpu * 1e3))
        .collect();
    out.notes
        .push(format!("untraced passes, wall/CPU ms: {}", ms.join(" ")));
    out.put("setup_s", "s", setup_s);
    out.put("wall_s", "s", wall_of(passes));
    out.put("cpu_s", "s", median_of(passes, |p| p.cpu));
    out.put("peak_rss_mb", "MiB", peak_rss_mb());
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Exact order statistic of an ascending sample: the value at rank
/// `ceil(q * n)`.
pub fn order_stat(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Wall seconds of `f`.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Run `f`, turning a panic into `None` (a failed pass).
pub fn guarded<R>(f: impl FnOnce() -> R) -> Option<R> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// Median wall seconds of `reps` runs of `f`.
pub fn median_wall(reps: usize, mut f: impl FnMut()) -> f64 {
    let ws: Vec<f64> = (0..reps).map(|_| timed(&mut f).1).collect();
    median(&ws)
}

/// Host cost of a probe body beyond the arrays it needs: median wall of
/// `with` minus median wall of `without`, interleaved, never negative.
pub fn probe_delta(reps: usize, mut without: impl FnMut(), mut with: impl FnMut()) -> f64 {
    let mut a = Vec::new();
    let mut b = Vec::new();
    for _ in 0..reps {
        a.push(timed(&mut without).1);
        b.push(timed(&mut with).1);
    }
    (median(&b) - median(&a)).max(0.0)
}

/// Host cost of a statement that builds a communication plan on its first
/// call and replays it after: `probe(calls)` makes `calls` calls in a
/// fresh run and returns that run's plan misses. Returns the plan-build
/// seconds per miss (cold call minus warm call) and the warm seconds per
/// call, from median walls of runs with 0, 1 and `1 + warm_calls` calls.
pub fn plan_costs(
    reps: usize,
    warm_calls: usize,
    mut probe: impl FnMut(usize) -> u64,
) -> (f64, f64) {
    let counts = [0, 1, 1 + warm_calls];
    let mut walls = [Vec::new(), Vec::new(), Vec::new()];
    let mut misses = 0;
    for _ in 0..reps {
        for (ws, &calls) in walls.iter_mut().zip(&counts) {
            let (m, s) = timed(|| probe(calls));
            ws.push(s);
            if calls == 1 {
                misses = m;
            }
        }
    }
    let cold = median(&walls[1]) - median(&walls[0]);
    let warm = ((median(&walls[2]) - median(&walls[1])) / warm_calls as f64).max(0.0);
    ((cold - warm).max(0.0) / misses.max(1) as f64, warm)
}

/// Set-up repeated [`SETUP_REPS`] times; returns the last state and the
/// median set-up seconds. The first repetition is timed from process
/// start.
pub fn repeated_setup<S>(opts: &Opts, mut setup: impl FnMut() -> S) -> (S, f64) {
    let mut times = Vec::new();
    let mut state = None;
    for i in 0..SETUP_REPS {
        let t0 = if i == 0 { opts.start } else { Instant::now() };
        state = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (state.expect("at least one set-up"), median(&times))
}

/// Keep calling `pass` until `seconds` have elapsed and at least `min`
/// passes ran.
pub fn run_for(seconds: f64, min: usize, mut pass: impl FnMut()) {
    let t = Instant::now();
    let mut n = 0;
    while n < min || t.elapsed().as_secs_f64() < seconds {
        pass();
        n += 1;
    }
}

/// Machine-wide telemetry totals of a traced run.
pub fn totals(snap: &Option<TelemetrySnapshot>) -> ProcTotals {
    snap.as_ref().map(|s| s.total()).unwrap_or_default()
}

/// Runtime, core and data-array counters of one traced pass, from the
/// telemetry snapshot the program already exposes.
pub fn put_counters(out: &mut Outcome, t: &ProcTotals) {
    let msgs = t.sends as f64;
    out.put("runtime.send_s", "s", t.send_ns as f64 * 1e-9);
    out.put("runtime.recv_wait_s", "s", t.recv_wait_ns as f64 * 1e-9);
    out.put("runtime.msgs", "count", msgs);
    out.put("runtime.bytes", "bytes", t.send_bytes as f64);
    out.put(
        "runtime.chunk_msg_share",
        "ratio",
        ratio(t.chunk_msgs as f64, msgs),
    );
    out.put(
        "runtime.pool_hit_ratio",
        "ratio",
        ratio(t.pool_hits as f64, (t.pool_hits + t.pool_misses) as f64),
    );
    out.put("runtime.lane_contended", "count", t.lane_contention as f64);
    out.put(
        "runtime.undelivered",
        "count",
        t.sends.saturating_sub(t.recvs) as f64,
    );
    out.put("core.plan_misses", "count", t.plan_misses as f64);
    out.put(
        "core.plan_hit_ratio",
        "ratio",
        ratio(t.plan_hits as f64, (t.plan_hits + t.plan_misses) as f64),
    );
    out.put("core.barriers", "count", t.barriers as f64);
    out.put("core.region_enters", "count", t.region_enters as f64);
    out.put("core.region_skips", "count", t.region_skips as f64);
    out.put(
        "core.promote_attempted",
        "count",
        t.promotions_attempted as f64,
    );
    out.put("core.promote_taken", "count", t.promotions_taken as f64);
    out.put("darray.pack_s", "s", t.pack_ns as f64 * 1e-9);
    out.put("darray.barriers_kept", "count", t.barriers_kept as f64);
    out.put("darray.barriers_elided", "count", t.barriers_elided as f64);
}

pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Host-time closure of a traced run: the layer estimates (host seconds
/// per pass, each measured by a probe on the workload's shapes) against
/// the median untraced pass, and the traced pass against it.
pub fn put_closure(out: &mut Outcome, passes: &[Pass], traced_wall: f64, layers: &[f64]) {
    let wall = wall_of(passes);
    let sum: f64 = layers.iter().sum();
    out.put("obs.trace_overhead_frac", "ratio", traced_wall / wall - 1.0);
    out.put("layers.unattributed_frac", "ratio", (wall - sum) / wall);
    out.put("bench.wall_untraced_s", "s", wall);
    out.put("bench.wall_traced_s", "s", traced_wall);
    out.put("bench.passes", "count", passes.len() as f64);
}
