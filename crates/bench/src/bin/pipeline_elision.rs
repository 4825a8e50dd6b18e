//! Virtual-time benchmark of dataflow barrier elision (`FX_DATAFLOW`):
//! the conservative schedule that closes every cross-stage assignment
//! with a subset barrier (`off`) vs the dependence-analysed schedule
//! that keeps a barrier only on edges tainted by opaque writes (`on`).
//!
//! Two programs, both straight from the paper: the 3-stage FFT-Hist
//! pipeline of Figure 2(c), swept over stage depth (datasets streamed
//! through the pipeline) × machine size, and the Airshed
//! transport/chemistry task-parallel hour loop. Every inter-stage edge
//! in both is interval-covered — the receiving side's recv waits already
//! order the data — so `on` elides every barrier and the critical path
//! sheds its barrier-wait share entirely; `off` is the price a compiler
//! pays without the analysis.
//!
//! Both runs are profiled and the critical path decomposed, so the
//! number reported is not just makespan but specifically how much of the
//! path the eliminated barriers occupied. Contents are asserted equal
//! between the two modes in-process (the same invariant `validate` mode
//! enforces per run).
//!
//! Emits `BENCH_pipeline.json` in the working directory and a table on
//! stdout. Run with:
//! `cargo run --release -p fx-bench --bin pipeline_elision [-- --smoke]`

use fx_apps::airshed::{airshed_tp, AirshedConfig};
use fx_apps::ffthist::{fft_hist_pipeline_sets, FftHistConfig};
use fx_bench::{paragon, print_row};
use fx_core::spmd;
use fx_runtime::{DataflowMode, Machine};

struct Row {
    app: &'static str,
    p: usize,
    depth: usize,
    off_makespan: f64,
    on_makespan: f64,
    off_barrier_wait: f64,
    on_barrier_wait: f64,
    barriers_elided: u64,
}

impl Row {
    /// Fraction of the conservative run's critical-path barrier wait that
    /// elision removed.
    fn wait_removed(&self) -> f64 {
        if self.off_barrier_wait == 0.0 {
            0.0
        } else {
            1.0 - self.on_barrier_wait / self.off_barrier_wait
        }
    }
    fn speedup(&self) -> f64 {
        self.off_makespan / self.on_makespan
    }
}

/// Split P across the three FFT-Hist stages in the 3:4:1 ratio the
/// critical-path experiments use (6/8/2 at P=16).
fn stage_procs(p: usize) -> [usize; 3] {
    let procs = [3 * p / 8, p / 2, p / 8];
    assert_eq!(procs.iter().sum::<usize>(), p, "P must be divisible by 8");
    procs
}

/// One profiled run; returns (makespan, critical-path barrier wait,
/// barriers elided, per-proc results for the cross-mode equality check).
fn run_ffthist(p: usize, depth: usize, n: usize, mode: DataflowMode) -> (f64, f64, u64, Vec<Vec<Vec<u64>>>) {
    let machine = paragon(p).with_dataflow(mode).with_profiling(true);
    let rep = spmd(&machine, move |cx| {
        let cfg = FftHistConfig::new(n, depth);
        let sets: Vec<usize> = (0..depth).collect();
        fft_hist_pipeline_sets(cx, &cfg, stage_procs(p), &sets)
    });
    let wait = rep.critical_path().barrier_wait();
    let elided = rep.total().barriers_elided;
    (rep.makespan(), wait, elided, rep.results)
}

fn run_airshed(p: usize, hours: usize, mode: DataflowMode) -> (f64, f64, u64, Vec<f64>) {
    let machine = paragon(p).with_dataflow(mode).with_profiling(true);
    let rep = spmd(&machine, move |cx| {
        let mut cfg = AirshedConfig::paper();
        cfg.hours = hours;
        airshed_tp(cx, &cfg)
    });
    let wait = rep.critical_path().barrier_wait();
    let elided = rep.total().barriers_elided;
    (rep.makespan(), wait, elided, rep.results)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");

    // FFT-Hist: stage depth (datasets) × P. Depth is what pipelining
    // amortizes — at depth 1 the three stages run once each and the
    // barriers sit between them; at depth d the conservative schedule
    // pays 2d inter-stage barriers.
    let fft_cases: Vec<(usize, usize)> = if smoke {
        vec![(8, 2)]
    } else {
        let mut v = Vec::new();
        for &p in &[8usize, 16, 64] {
            for &depth in &[2usize, 4, 8, 16] {
                v.push((p, depth));
            }
        }
        v
    };
    let fft_n = if smoke { 32 } else { 64 };

    let mut rows = Vec::new();
    let widths = [9usize, 5, 6, 13, 13, 13, 13, 9, 8];
    print_row(
        &[
            "app".into(), "p".into(), "depth".into(), "off mksp s".into(), "on mksp s".into(),
            "off bwait s".into(), "on bwait s".into(), "removed".into(), "speedup".into(),
        ],
        &widths,
    );

    let mut push = |r: Row| {
        print_row(
            &[
                r.app.into(),
                format!("{}", r.p),
                format!("{}", r.depth),
                format!("{:.6}", r.off_makespan),
                format!("{:.6}", r.on_makespan),
                format!("{:.6}", r.off_barrier_wait),
                format!("{:.6}", r.on_barrier_wait),
                format!("{:.1}%", 100.0 * r.wait_removed()),
                format!("{:.3}x", r.speedup()),
            ],
            &widths,
        );
        rows.push(r);
    };

    for (p, depth) in fft_cases {
        let (off_mksp, off_wait, off_elided, off_res) = run_ffthist(p, depth, fft_n, DataflowMode::Off);
        let (on_mksp, on_wait, on_elided, on_res) = run_ffthist(p, depth, fft_n, DataflowMode::On);
        assert_eq!(off_res, on_res, "elision changed FFT-Hist results (p={p}, depth={depth})");
        assert_eq!(off_elided, 0, "off must not elide");
        assert!(on_elided > 0, "every FFT-Hist inter-stage edge is covered");
        push(Row {
            app: "ffthist",
            p,
            depth,
            off_makespan: off_mksp,
            on_makespan: on_mksp,
            off_barrier_wait: off_wait,
            on_barrier_wait: on_wait,
            barriers_elided: on_elided,
        });
    }

    // Airshed: the hour loop's transport halos and chemistry↔transport
    // assignments, depth = simulated hours.
    let air_cases: Vec<(usize, usize)> = if smoke {
        vec![(8, 1)]
    } else {
        vec![(16, 2), (16, 4), (64, 2), (64, 4)]
    };
    for (p, hours) in air_cases {
        let (off_mksp, off_wait, off_elided, off_res) = run_airshed(p, hours, DataflowMode::Off);
        let (on_mksp, on_wait, on_elided, on_res) = run_airshed(p, hours, DataflowMode::On);
        assert_eq!(off_res, on_res, "elision changed Airshed results (p={p}, hours={hours})");
        assert_eq!(off_elided, 0, "off must not elide");
        assert!(on_elided > 0, "Airshed's plan-based edges are covered");
        push(Row {
            app: "airshed",
            p,
            depth: hours,
            off_makespan: off_mksp,
            on_makespan: on_mksp,
            off_barrier_wait: off_wait,
            on_barrier_wait: on_wait,
            barriers_elided: on_elided,
        });
    }

    // Validate leg: run the smallest FFT-Hist case once under
    // DataflowMode::Validate, which executes both schedules and asserts
    // per-processor that events match, times never regress and traffic
    // never grows — the same check `FX_DATAFLOW=validate` applies to any
    // program, exercised here so the bench is self-validating.
    {
        let (p, depth) = (8, 2);
        let (_, _, elided, _) = run_ffthist(p, depth, fft_n, DataflowMode::Validate);
        assert!(elided > 0, "validate leg must have exercised elision");
        println!("\nvalidate: off/on dual run agrees (ffthist p={p} depth={depth})");
    }

    // Headline: the acceptance case — critical-path barrier wait removed
    // on FFT-Hist at P=64, deepest pipeline.
    if let Some(r) = rows
        .iter()
        .filter(|r| r.app == "ffthist" && r.p == 64)
        .max_by_key(|r| r.depth)
    {
        println!(
            "\nffthist P=64 depth={}: elision removed {:.1}% of critical-path barrier wait \
             ({:.6} s -> {:.6} s), makespan {:.3}x",
            r.depth,
            100.0 * r.wait_removed(),
            r.off_barrier_wait,
            r.on_barrier_wait,
            r.speedup()
        );
        assert!(
            r.wait_removed() >= 0.20,
            "acceptance: >=20% of critical-path barrier wait must be removed at P=64"
        );
    }

    // Executor provenance, as in the other BENCH_*.json files. The runs
    // above are simulated-time, but which executor carried them still
    // matters for reproducing the artifact.
    let mut json = format!(
        "{{\n  \"bench\": \"pipeline_elision\",\n  \"executor\": \"{}\",\n  \
         \"unit\": \"virtual_seconds\",\n  \
         \"modes\": [\"off: barrier on every inter-stage edge\", \
         \"on: barrier only on tainted edges\"],\n  \"results\": [\n",
        Machine::real(2).executor
    );
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"app\": \"{}\", \"p\": {}, \"depth\": {}, \
             \"off_makespan_s\": {:.6}, \"on_makespan_s\": {:.6}, \
             \"off_barrier_wait_s\": {:.6}, \"on_barrier_wait_s\": {:.6}, \
             \"barrier_wait_removed\": {:.4}, \"barriers_elided\": {}, \
             \"makespan_speedup\": {:.4}}}{}\n",
            r.app,
            r.p,
            r.depth,
            r.off_makespan,
            r.on_makespan,
            r.off_barrier_wait,
            r.on_barrier_wait,
            r.wait_removed(),
            r.barriers_elided,
            r.speedup(),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_pipeline.json", &json).expect("write BENCH_pipeline.json");
    println!("\nwrote BENCH_pipeline.json ({} cases)", rows.len());
}
