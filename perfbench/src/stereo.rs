//! `stereo-p64`: the Table 1 Stereo data-parallel stream on 64 simulated
//! Paragon nodes. Host time here is `copy_remap2`, which walks the whole
//! image index space on every processor for every disparity shift.

use fx_apps::stereo::{
    assemble_depth, reference_depth, stereo_stream, truth_disparity, StereoConfig,
};
use fx_apps::util::{real_input, SET_DONE, SET_START};
use fx_core::{spmd, Cx, Machine, RunReport};
use fx_darray::{copy_remap2, DArray2, Dist};
use fx_kernels::image::{box_sum_cols_with_halo, box_sum_rows_with_halo, window_sum_reference};

use crate::common::*;

/// Leading completions left out of the throughput (pipeline fill), as in
/// Table 1.
pub const SKIP: usize = 2;

#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub p: usize,
    pub cfg: StereoConfig,
}

/// Paper size (256x240, 2 match images, 8 disparities) with four sets per
/// pass: the fewest that leave two completions after the skip.
pub fn shape(smoke: bool) -> Shape {
    if smoke {
        let cfg = StereoConfig {
            rows: 24,
            cols: 32,
            n_match: 2,
            max_disp: 4,
            window: 2,
            datasets: 4,
        };
        Shape { p: 4, cfg }
    } else {
        Shape {
            p: 64,
            cfg: StereoConfig {
                datasets: 4,
                ..StereoConfig::paper()
            },
        }
    }
}

/// Data-set ids of a pass: the seed picks which images the cameras see.
pub fn sets(seed: u64, cfg: &StereoConfig) -> Vec<usize> {
    let base = (seed as usize).wrapping_mul(cfg.datasets);
    (0..cfg.datasets).map(|i| base.wrapping_add(i)).collect()
}

/// Virtual-time outputs of one pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Vt {
    pub makespan: f64,
    pub sets_per_s: f64,
    pub latency: f64,
}

pub type Report = RunReport<Vec<(usize, Vec<u16>)>>;

pub fn pass(m: &Machine, cfg: &StereoConfig, sets: &[usize]) -> Report {
    spmd(m, |cx| stereo_stream(cx, cfg, sets))
}

pub fn vt(rep: &Report) -> Vt {
    Vt {
        makespan: rep.makespan(),
        sets_per_s: rep.throughput(SET_DONE, SKIP),
        latency: rep.latency(SET_START, SET_DONE),
    }
}

/// Largest relative gap between two window errors that still counts as a
/// tie. The program sums each window in a different order from the
/// sequential reference, so f32 rounding (about 1e-7 per addition, over
/// 25-term windows) can move the argmin between disparities whose errors
/// agree to a few parts in 10^7. A wrong disparity misses by far more.
const TIE_RTOL: f32 = 1e-5;

/// Sequential reference error volume of dataset `d`: `err[disp][pixel]`,
/// computed exactly as `reference_depth` computes it before its argmin.
pub fn reference_errors(cfg: &StereoConfig, d: usize) -> Vec<Vec<f32>> {
    let (rows, cols) = (cfg.rows, cfg.cols);
    let reference: Vec<f32> = (0..rows * cols)
        .map(|i| real_input(d, i / cols, i % cols))
        .collect();
    (0..cfg.max_disp)
        .map(|disp| {
            let mut diff = vec![0f32; rows * cols];
            for m in 1..=cfg.n_match {
                for r in 0..rows {
                    for c in 0..cols {
                        // Match image `m` at the shifted column: the
                        // reference scene warped by `m` times the truth.
                        let sc = (c + m * disp).min(cols - 1);
                        let src = sc.saturating_sub(m * truth_disparity(cfg, r, sc) as usize);
                        let e = reference[r * cols + c] - real_input(d, r, src);
                        diff[r * cols + c] += e * e;
                    }
                }
            }
            window_sum_reference(&diff, rows, cols, cfg.window)
        })
        .collect()
}

/// Whether a depth image is right: equal to the sequential reference
/// `want`, except at pixels where the chosen disparity's reference error
/// ties the minimum within [`TIE_RTOL`].
pub fn depth_ok(cfg: &StereoConfig, d: usize, got: &[u16], want: &[u16]) -> bool {
    if got.len() != want.len() {
        return false;
    }
    if got == want {
        return true;
    }
    let err = reference_errors(cfg, d);
    got.iter().zip(want).enumerate().all(|(k, (&g, &w))| {
        let best = err[w as usize][k];
        g == w
            || err
                .get(g as usize)
                .is_some_and(|e| e[k] <= best + TIE_RTOL * best.abs())
    })
}

/// Oracle: how many of the pass's sets have a wrong depth image
/// (`refs[i]` is the sequential reference depth of `sets[i]`).
pub fn count_wrong(rep: &Report, cfg: &StereoConfig, sets: &[usize], refs: &[Vec<u16>]) -> u64 {
    let mut bad = 0;
    for (i, (&d, want)) in sets.iter().zip(refs).enumerate() {
        let tiles: Option<Vec<Vec<u16>>> = rep
            .results
            .iter()
            .map(|per| {
                per.get(i)
                    .filter(|(ds, _)| *ds == d)
                    .map(|(_, t)| t.clone())
            })
            .collect();
        let ok = tiles
            .and_then(|t| guarded(|| assemble_depth(&t, cfg.rows, cfg.cols)))
            .is_some_and(|img| depth_ok(cfg, d, &img, want));
        bad += u64::from(!ok);
    }
    bad
}

struct State {
    sets: Vec<usize>,
    refs: Vec<Vec<u16>>,
    vt: Vt,
}

pub fn run(opts: &Opts) -> Outcome {
    let sh = shape(opts.smoke);
    let cfg = sh.cfg;
    let m = machine(sh.p);
    let mut out = Outcome::default();

    let (st, setup_s) = repeated_setup(opts, || {
        let sets = sets(opts.seed, &cfg);
        let refs: Vec<Vec<u16>> = sets.iter().map(|&d| reference_depth(&cfg, d)).collect();
        let rep = pass(&m, &cfg, &sets);
        let bad = count_wrong(&rep, &cfg, &sets, &refs);
        assert_eq!(bad, 0, "warm-up pass failed its oracle");
        State {
            vt: vt(&rep),
            sets,
            refs,
        }
    });

    let n = cfg.datasets as u64;
    // A pass that panicked, lost a message or moved virtual time fails
    // all its sets.
    let check = |out: &mut Outcome, rep: Option<Report>| {
        let bad = match &rep {
            Some(r) if r.undelivered == 0 && vt(r) == st.vt => {
                count_wrong(r, &cfg, &st.sets, &st.refs)
            }
            _ => n,
        };
        out.check(n, bad);
        rep
    };
    let mut passes = Vec::new();
    run_for(opts.seconds, 3, || {
        let (rep, timing) = measured(|| guarded(|| pass(&m, &cfg, &st.sets)));
        passes.push(timing);
        check(&mut out, rep);
    });
    out.notes.push(format!(
        "stereo-p64: {} sets of {}x{} per pass on P={}, {} timed passes",
        cfg.datasets,
        cfg.cols,
        cfg.rows,
        sh.p,
        passes.len()
    ));
    put_end_to_end(&mut out, &passes, setup_s);
    out.put("vt.makespan_s", "vs", st.vt.makespan);
    out.put("vt.sets_per_s", "1/vs", st.vt.sets_per_s);
    out.put("vt.latency_s", "vs", st.vt.latency);

    if opts.trace {
        let traced = traced_machine(sh.p);
        let (rep, traced_wall) = timed(|| guarded(|| pass(&traced, &cfg, &st.sets)));
        let snap = check(&mut out, rep).and_then(|mut r| r.telemetry.take());
        put_counters(&mut out, &totals(&snap));
        let layers = probes(&mut out, &sh);
        put_closure(&mut out, &passes, traced_wall, &layers);
    }
    out.put(
        "fail_frac",
        "ratio",
        ratio(out.failed as f64, out.attempted as f64),
    );
    out
}

/// Remap calls of one data set: one shift per match image per disparity.
fn remaps_per_set(cfg: &StereoConfig) -> usize {
    cfg.n_match * cfg.max_disp
}

/// The stream's arrays, as `stereo_stream` allocates them.
fn arrays(cx: &mut Cx, cfg: &StereoConfig) -> (DArray2<f32>, Vec<DArray2<f32>>) {
    let g = cx.group();
    let dist = (Dist::Star, Dist::Block);
    let dims = [cfg.rows, cfg.cols];
    let shifted = DArray2::new(cx, &g, dims, dist, 0f32);
    let matches = (0..cfg.n_match)
        .map(|_| DArray2::new(cx, &g, dims, dist, 1f32))
        .collect();
    (shifted, matches)
}

/// Layer probes on the pass's exact shapes. Returns the layer estimates
/// (host seconds per pass) that close against the wall time.
fn probes(out: &mut Outcome, sh: &Shape) -> Vec<f64> {
    const REPS: usize = 3;
    let cfg = sh.cfg;
    let m = machine(sh.p);
    let sets = cfg.datasets as f64;
    let launch = median_wall(5, || {
        spmd(&m, |_cx| ());
    });
    let bare = || {
        spmd(&m, |cx| {
            arrays(cx, &cfg);
        });
    };
    // One set's disparity shifts, exactly as the stream issues them.
    let remap = probe_delta(REPS, bare, || {
        spmd(&m, |cx| {
            let (mut shifted, matches) = arrays(cx, &cfg);
            for disp in 0..cfg.max_disp {
                for (mi, img) in matches.iter().enumerate() {
                    let s = (mi + 1) * disp;
                    let cols = cfg.cols;
                    copy_remap2(cx, &mut shifted, img, |r, c| (r, (c + s).min(cols - 1)));
                }
            }
        });
    }) * sets;
    // One set's SSD and separable window sums on every processor's tile.
    let kern = probe_delta(REPS, bare, || {
        spmd(&m, |cx| {
            let (shifted, matches) = arrays(cx, &cfg);
            let (lr, lc) = shifted.local_dims();
            let halo = vec![0f32; lr * cfg.window];
            let mut diff = vec![0f32; lr * lc];
            let mut best = 0f32;
            for _ in 0..cfg.max_disp {
                for img in &matches {
                    for (dv, (a, b)) in diff.iter_mut().zip(img.local().iter().zip(shifted.local()))
                    {
                        let e = a - b;
                        *dv += e * e;
                    }
                }
                let h = box_sum_rows_with_halo(&diff, lr, lc, cfg.window, &halo, &halo);
                let e = box_sum_cols_with_halo(&h, lr, lc, cfg.window, &[], &[]);
                best += e.first().copied().unwrap_or(0.0);
            }
            std::hint::black_box(best);
        });
    }) * sets;
    out.put("runtime.launch_s", "s", launch);
    out.put("darray.remap_s", "s", remap);
    out.put(
        "darray.remap_calls",
        "count",
        (remaps_per_set(&cfg) * cfg.datasets) as f64,
    );
    out.put("kernels.stereo_s", "s", kern);
    vec![launch, remap, kern]
}
