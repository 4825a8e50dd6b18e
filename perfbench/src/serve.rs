//! `serve-ffthist`: open-loop `fx-serve` of FFT-Hist 256x256 requests on
//! 16 simulated processors (data-parallel mapping), two tenants at a 3:1
//! rate split. Host time here is the FFT kernels; every plan replays from
//! cache and telemetry is always attached.

use fx_apps::ffthist::{
    cffts_local, reference_histogram, rffts_local, FftHistConfig, FftHistMapping,
};
use fx_core::{spmd, Cx, Machine};
use fx_darray::{assign2, DArray2, Dist};
use fx_kernels::fft::fft_flops;
use fx_kernels::hist::histogram_magnitudes;
use fx_kernels::Complex;
use fx_serve::{
    poisson_trace, FftHistServable, ServeConfig, ServeReport, ServeRequest, Server, ShedPolicy,
    TenantSpec,
};

use crate::common::*;

/// Seed of the arrival schedule. Frozen, like the rates: the latency
/// percentiles and the knee are properties of the workload, so they do
/// not move with `--seed`, which picks the request payloads.
pub const TRACE_SEED: u64 = 42;

/// Offered rates (requests per virtual second) at about 0.5x, 0.9x and
/// 1.5x of the data-parallel mapping's saturation rate (16.5 req/s,
/// measured with an unbounded queue).
pub const RATES: [(&str, f64); 3] = [("lo", 8.0), ("mid", 15.0), ("hi", 25.0)];

/// The fixed rate ladder `knee_rps` is read from.
pub const LADDER: [f64; 10] = [8.0, 10.0, 12.0, 13.0, 14.0, 15.0, 16.0, 18.0, 20.0, 25.0];

/// Frozen latency limit on p99 for the knee, in virtual milliseconds:
/// about twice the p99 at the lo rate, where a batch of four requests
/// already takes 240 ms of service.
pub const P99_LIMIT_MS: f64 = 500.0;

/// Distinct payload datasets; requests draw one of them.
const PAYLOADS: usize = 64;

/// Admission control: queue capacity 8, batches of up to 4, drop-newest.
const ADMISSION: ServeConfig = ServeConfig {
    queue_cap: 8,
    batch_max: 4,
    shed: ShedPolicy::DropNewest,
};

#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub p: usize,
    pub n: usize,
    pub requests: usize,
}

pub fn shape(smoke: bool) -> Shape {
    if smoke {
        Shape {
            p: 4,
            n: 16,
            requests: 40,
        }
    } else {
        Shape {
            p: 16,
            n: 256,
            requests: 1000,
        }
    }
}

/// The payload datasets `--seed` picks: payload `i` is dataset
/// `64 * seed + i`, so a dataset's payload index is its value mod 64.
pub fn payloads(seed: u64) -> Vec<usize> {
    let base = (seed as usize).wrapping_mul(PAYLOADS);
    (0..PAYLOADS).map(|i| base.wrapping_add(i)).collect()
}

/// The arrival trace at `rate`: frozen arrivals, each request asking for
/// one of the seed's payloads.
pub fn trace(sh: &Shape, rate: f64, seed: u64) -> Vec<ServeRequest> {
    let gold = sh.requests * 3 / 4;
    let tenants = [
        TenantSpec::new("gold", rate * 0.75, gold),
        TenantSpec::new("bronze", rate * 0.25, sh.requests - gold),
    ];
    let payloads = payloads(seed);
    let mut t = poisson_trace(&tenants, TRACE_SEED);
    for r in &mut t {
        r.dataset = payloads[r.dataset % PAYLOADS];
    }
    t
}

pub fn serve(m: Machine, sh: &Shape, trace: &[ServeRequest]) -> ServeReport<Vec<u64>> {
    let servable = FftHistServable {
        cfg: FftHistConfig::new(sh.n, 1),
        mapping: FftHistMapping::DataParallel,
    };
    Server::new(m, servable)
        .with_config(ADMISSION)
        .serve(trace, &["gold", "bronze"])
}

/// Oracle: served answers that differ from the sequential reference,
/// plus requests that were neither completed nor shed exactly once, plus
/// one if the per-tenant counters do not balance (arrived = completed +
/// shed). `refs[i]` is the histogram of payload `i` (see [`payloads`]).
pub fn count_wrong(rep: &ServeReport<Vec<u64>>, trace: &[ServeRequest], refs: &[Vec<u64>]) -> u64 {
    let mut seen = vec![0u32; trace.len()];
    let mut bad = 0;
    for c in &rep.completions {
        let want = trace
            .get(c.req)
            .and_then(|r| refs.get(r.dataset % PAYLOADS));
        bad += u64::from(want != Some(&c.output));
        if let Some(s) = seen.get_mut(c.req) {
            *s += 1;
        }
    }
    for &s in &rep.shed {
        if let Some(x) = seen.get_mut(s) {
            *x += 1;
        }
    }
    bad += seen.iter().filter(|&&s| s != 1).count() as u64;
    bad + u64::from(!rep.conserved())
}

/// Virtual latency of one rate: exact order statistics of `done -
/// arrival` over the served requests, and the shed fraction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub samples: usize,
    pub shed_frac: f64,
    /// p99 over every arrival, a shed request counting as infinitely late.
    pub p99_all_ms: f64,
}

pub fn latency(rep: &ServeReport<Vec<u64>>, trace: &[ServeRequest]) -> Latency {
    let mut lat: Vec<f64> = rep
        .completions
        .iter()
        .map(|c| (c.done - trace[c.req].arrival) * 1e3)
        .collect();
    lat.sort_by(f64::total_cmp);
    let served = lat.clone();
    lat.extend(std::iter::repeat_n(f64::INFINITY, rep.shed.len()));
    Latency {
        p50_ms: order_stat(&served, 0.50),
        p99_ms: order_stat(&served, 0.99),
        samples: served.len(),
        shed_frac: rep.shed.len() as f64 / trace.len() as f64,
        p99_all_ms: order_stat(&lat, 0.99),
    }
}

impl Latency {
    /// A serve run that panicked: every limit missed.
    const FAILED: Latency = Latency {
        p50_ms: f64::INFINITY,
        p99_ms: f64::INFINITY,
        samples: 0,
        shed_frac: 1.0,
        p99_all_ms: f64::INFINITY,
    };
}

/// A rung meets the limit when its p99 over all arrivals (sheds count as
/// misses) is under the limit; that also requires under 1% shed.
fn meets(l: &Latency) -> bool {
    l.p99_all_ms < P99_LIMIT_MS && l.shed_frac < 0.01
}

struct State {
    refs: Vec<Vec<u64>>,
    mid: Vec<ServeRequest>,
    mid_lat: Latency,
}

pub fn run(opts: &Opts) -> Outcome {
    let sh = shape(opts.smoke);
    let m = machine(sh.p);
    let mut out = Outcome::default();
    let fcfg = FftHistConfig::new(sh.n, 1);
    let mid_rate = RATES[1].1;

    let (st, setup_s) = repeated_setup(opts, || {
        let refs: Vec<Vec<u64>> = payloads(opts.seed)
            .into_iter()
            .map(|d| reference_histogram(&fcfg, d))
            .collect();
        let mid = trace(&sh, mid_rate, opts.seed);
        let rep = serve(m.clone(), &sh, &mid);
        assert_eq!(
            count_wrong(&rep, &mid, &refs),
            0,
            "warm-up pass failed its oracle"
        );
        State {
            mid_lat: latency(&rep, &mid),
            refs,
            mid,
        }
    });

    // A serve run is checked request by request; one that panicked fails
    // every request, and sheds are counted apart from failures.
    let check = |out: &mut Outcome, t: &[ServeRequest], rep: Option<ServeReport<Vec<u64>>>| {
        let bad = rep
            .as_ref()
            .map_or(t.len() as u64, |r| count_wrong(r, t, &st.refs));
        out.check(t.len() as u64, bad);
        out.shed += rep.as_ref().map_or(0, |r| r.shed.len() as u64);
        rep
    };
    let mut passes = Vec::new();
    run_for(opts.seconds, 3, || {
        let (rep, timing) = measured(|| guarded(|| serve(m.clone(), &sh, &st.mid)));
        passes.push(timing);
        // Virtual time must repeat exactly: a moved latency fails the pass.
        let rep = rep.filter(|r| latency(r, &st.mid) == st.mid_lat);
        check(&mut out, &st.mid, rep);
    });
    out.notes.push(format!(
        "serve-ffthist: {} requests at {mid_rate} req/s per pass, FFT-Hist {}x{} on P={}, {} timed passes",
        sh.requests,
        sh.n,
        sh.n,
        sh.p,
        passes.len()
    ));
    put_end_to_end(&mut out, &passes, setup_s);

    // Virtual-time outputs. The mid rate is the timed pass; the lo and hi
    // rates and the knee's ladder rungs need serve runs of their own, so
    // only a traced run makes them.
    let mut rungs: Vec<(f64, Latency)> = vec![(mid_rate, st.mid_lat)];
    let mut eval = |rate: f64, out: &mut Outcome| -> Latency {
        if let Some((_, l)) = rungs.iter().find(|(r, _)| *r == rate) {
            return *l;
        }
        let t = trace(&sh, rate, opts.seed);
        let rep = check(out, &t, guarded(|| serve(m.clone(), &sh, &t)));
        let l = rep.map_or(Latency::FAILED, |r| latency(&r, &t));
        out.notes.push(format!(
            "rate {rate}/s: p50 {:.1} ms, p99 {:.1} ms over {} served, {:.1}% shed",
            l.p50_ms,
            l.p99_ms,
            l.samples,
            100.0 * l.shed_frac
        ));
        rungs.push((rate, l));
        l
    };
    let rates = if opts.trace { &RATES[..] } else { &RATES[1..2] };
    for &(label, rate) in rates {
        let l = eval(rate, &mut out);
        out.put(&format!("vt.p50_ms.{label}"), "vms", l.p50_ms);
        out.put(&format!("vt.p99_ms.{label}"), "vms", l.p99_ms);
        out.put(&format!("vt.samples.{label}"), "count", l.samples as f64);
        out.put(&format!("vt.shed_frac.{label}"), "ratio", l.shed_frac);
    }
    if opts.trace {
        let knee_rps = knee(|r| meets(&eval(r, &mut out)));
        out.put("vt.knee_rps", "1/vs", knee_rps);
        let traced = m.clone().with_tracing(true);
        let (rep, traced_wall) = timed(|| guarded(|| serve(traced, &sh, &st.mid)));
        let rep = check(
            &mut out,
            &st.mid,
            rep.filter(|r| latency(r, &st.mid) == st.mid_lat),
        );
        if let Some(rep) = rep {
            let t = totals(&rep.telemetry);
            put_counters(&mut out, &t);
            put_serve_layers(&mut out, &rep, wall_of(&passes));
            let layers = probes(&mut out, &sh, rep.completed(), t.plan_misses);
            put_closure(&mut out, &passes, traced_wall, &layers);
        }
    }
    let failed_or_shed = (out.failed + out.shed) as f64;
    out.put(
        "fail_frac",
        "ratio",
        ratio(failed_or_shed, out.attempted as f64),
    );
    out
}

/// The highest ladder rate that meets the limit, searching out from the
/// mid rate. Latency grows with the offered rate because every rung's
/// arrivals are the same draws scaled in time, so the first failing rung
/// above a passing one ends the search. 0 if no rung meets the limit.
pub fn knee(mut ok: impl FnMut(f64) -> bool) -> f64 {
    let start = LADDER
        .iter()
        .position(|&r| r == RATES[1].1)
        .expect("mid rate is on the ladder");
    if ok(LADDER[start]) {
        let mut best = LADDER[start];
        for &r in &LADDER[start + 1..] {
            if !ok(r) {
                break;
            }
            best = r;
        }
        best
    } else {
        LADDER[..start]
            .iter()
            .rev()
            .copied()
            .find(|&r| ok(r))
            .unwrap_or(0.0)
    }
}

/// Serving-layer counters of the traced mid-rate pass.
fn put_serve_layers(out: &mut Outcome, rep: &ServeReport<Vec<u64>>, wall: f64) {
    let traces = &rep.request_traces;
    let mut batches: Vec<u64> = traces.iter().map(|t| t.round).collect();
    batches.dedup();
    let stat = |f: &dyn Fn(&fx_serve::RequestTrace) -> f64, q: f64| {
        let mut v: Vec<f64> = traces.iter().map(|t| f(t) * 1e3).collect();
        v.sort_by(f64::total_cmp);
        if v.is_empty() {
            0.0
        } else {
            order_stat(&v, q)
        }
    };
    out.put("serve.rounds", "count", rep.rounds as f64);
    out.put(
        "serve.batch_mean",
        "count",
        ratio(traces.len() as f64, batches.len() as f64),
    );
    out.put(
        "serve.host_us_per_round",
        "us",
        ratio(wall * 1e6, rep.rounds as f64),
    );
    out.put("serve.queue_ms.p50", "vms", stat(&|t| t.queue_wait(), 0.50));
    out.put("serve.queue_ms.p99", "vms", stat(&|t| t.queue_wait(), 0.99));
    out.put(
        "serve.service_ms.p50",
        "vms",
        stat(&|t| t.done - t.dispatch, 0.50),
    );
    out.put(
        "serve.service_ms.p99",
        "vms",
        stat(&|t| t.done - t.dispatch, 0.99),
    );
    for c in rep
        .request_breakdown()
        .iter()
        .filter(|c| c.component != "latency")
    {
        out.put(
            &format!("serve.breakdown.{}_ms", c.component),
            "vms",
            c.mean * 1e3,
        );
    }
}

/// A fresh group's FFT-Hist arrays.
fn arrays(cx: &mut Cx, n: usize) -> (DArray2<Complex>, DArray2<Complex>) {
    let g = cx.group();
    let a1 = DArray2::new(cx, &g, [n, n], (Dist::Star, Dist::Block), Complex::ZERO);
    let a2 = DArray2::new(cx, &g, [n, n], (Dist::Block, Dist::Star), Complex::ZERO);
    (a1, a2)
}

/// Layer probes on the request's exact shapes, scaled to the requests a
/// pass serves. Returns the layer estimates (host seconds per pass) that
/// close against the wall time.
fn probes(out: &mut Outcome, sh: &Shape, served: usize, pass_misses: u64) -> Vec<f64> {
    const REPS: usize = 3;
    const K: usize = 8;
    let m = machine(sh.p);
    let n = sh.n;
    let per_pass = served as f64 / K as f64;
    let launch = median_wall(5, || {
        spmd(&m, |_cx| ());
    });
    let bare = || {
        spmd(&m, |cx| {
            arrays(cx, n);
        });
    };
    // The transpose: the first call builds its plan, later calls replay.
    let assign_calls = |calls| {
        let rep = spmd(&m, |cx| {
            let (a1, mut a2) = arrays(cx, n);
            for _ in 0..calls {
                assign2(cx, &mut a2, &a1);
            }
        });
        rep.plan_stats_total().plan_misses
    };
    let (per_miss, warm) = plan_costs(REPS, K, assign_calls);
    let assign = warm * served as f64;
    let plan_build = per_miss * pass_misses as f64;
    let fft = probe_delta(REPS, bare, || {
        spmd(&m, |cx| {
            let (mut a1, mut a2) = arrays(cx, n);
            for _ in 0..K {
                cffts_local(cx, &mut a1);
                rffts_local(cx, &mut a2);
            }
        });
    }) * per_pass;
    let hist = probe_delta(REPS, bare, || {
        spmd(&m, |cx| {
            let (_a1, a2) = arrays(cx, n);
            for _ in 0..K {
                std::hint::black_box(histogram_magnitudes(a2.local(), 64, 2.0 * n as f64));
            }
        });
    }) * per_pass;
    let flops = served as f64 * 2.0 * n as f64 * fft_flops(n);
    out.put("runtime.launch_s", "s", launch);
    out.put("darray.assign2_s", "s", assign);
    out.put("darray.plan_build_s", "s", plan_build);
    out.put("kernels.fft_s", "s", fft);
    out.put("kernels.fft_gflops", "GFLOP/s", ratio(flops * 1e-9, fft));
    out.put("kernels.hist_s", "s", hist);
    vec![launch, assign, plan_build, fft, hist]
}
