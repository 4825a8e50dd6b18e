//! Multibaseline stereo (Okutomi & Kanade; Webb '93 — Table 1 row 4).
//!
//! Input: a reference image plus `n_match` match images from cameras
//! along a horizontal baseline. Per the paper, the major steps are:
//! **difference images** (sum of squared differences between
//! corresponding pixels of the match images for each candidate
//! disparity), **error images** (sum over a surrounding window of
//! pixels), and the **depth image** (per-pixel minimum across
//! disparities).
//!
//! Images are `(*, BLOCK)` column-distributed — the baseline direction.
//! Each candidate disparity *shifts* the match images along columns, an
//! array assignment that crosses block boundaries (real communication
//! every disparity, as in the HPF formulation); the horizontal half of
//! the separable window sum uses a column-halo exchange, the vertical
//! half is local.

use fx_core::Cx;
use fx_darray::{assign2, copy_remap2, exchange_col_halo, DArray2, Dist};
use fx_kernels::image::{
    box_sum_cols_with_halo, box_sum_rows_with_halo, ssd_flops, window_flops,
    window_sum_reference,
};

use crate::util::{real_input, replicated_modules, SET_DONE, SET_START};

/// Problem parameters for multibaseline stereo.
#[derive(Debug, Clone, Copy)]
pub struct StereoConfig {
    /// Image rows.
    pub rows: usize,
    /// Image columns (the baseline direction).
    pub cols: usize,
    /// Number of match images (the paper uses three or more cameras, so
    /// two or more match images).
    pub n_match: usize,
    /// Candidate disparities `0 .. max_disp`.
    pub max_disp: usize,
    /// Window half-width of the error-image stage.
    pub window: usize,
    /// Image sets in the stream.
    pub datasets: usize,
}

impl StereoConfig {
    /// The paper's data-set scale: 256x240 images.
    pub fn paper() -> Self {
        StereoConfig { rows: 240, cols: 256, n_match: 2, max_disp: 8, window: 2, datasets: 16 }
    }
}

/// Pixel of match image `m` (1-based camera index) for dataset `d`: an
/// inverse warp of the reference scene by `m * truth_disparity`, so that
/// sampling the match image at `c + m * truth` recovers the reference
/// pixel (away from disparity-band boundaries) and depth recovery is
/// verifiable.
fn match_input(cfg: &StereoConfig, d: usize, m: usize, r: usize, c: usize) -> f32 {
    let disp = truth_disparity(cfg, r, c) as usize;
    let sc = c.saturating_sub(m * disp);
    real_input(d, r, sc)
}

/// The known piecewise-constant disparity field used to synthesize match
/// images (diagonal bands wide enough that the error window fits inside).
pub fn truth_disparity(cfg: &StereoConfig, r: usize, c: usize) -> u16 {
    (((r + c) / 16) % cfg.max_disp) as u16
}

/// Sequential oracle: the depth image of dataset `d`.
pub fn reference_depth(cfg: &StereoConfig, d: usize) -> Vec<u16> {
    let (rows, cols) = (cfg.rows, cfg.cols);
    let npix = rows * cols;
    let reference: Vec<f32> = (0..npix).map(|i| real_input(d, i / cols, i % cols)).collect();
    let mut best = vec![f32::INFINITY; npix];
    let mut depth = vec![0u16; npix];
    for disp in 0..cfg.max_disp {
        let mut diff = vec![0f32; npix];
        for m in 1..=cfg.n_match {
            for r in 0..rows {
                for c in 0..cols {
                    let i = r * cols + c;
                    let shifted_c = (c + m * disp).min(cols - 1);
                    let mv = match_input(cfg, d, m, r, shifted_c);
                    let e = reference[i] - mv;
                    diff[i] += e * e;
                }
            }
        }
        let err = window_sum_reference(&diff, rows, cols, cfg.window);
        for i in 0..npix {
            if err[i] < best[i] {
                best[i] = err[i];
                depth[i] = disp as u16;
            }
        }
    }
    depth
}

/// Process the given data sets data-parallel on the current group.
/// Returns, per dataset, this processor's local depth columns as
/// `(dataset, local_depth)` (row-major `rows x local_cols`).
pub fn stereo_stream(cx: &mut Cx, cfg: &StereoConfig, sets: &[usize]) -> Vec<(usize, Vec<u16>)> {
    let g = cx.group();
    let (rows, cols) = (cfg.rows, cfg.cols);
    let dist = (Dist::Star, Dist::Block);
    let mut reference = DArray2::new(cx, &g, [rows, cols], dist, 0f32);
    let mut matches: Vec<DArray2<f32>> =
        (0..cfg.n_match).map(|_| DArray2::new(cx, &g, [rows, cols], dist, 0f32)).collect();
    let mut shifted = DArray2::new(cx, &g, [rows, cols], dist, 0f32);
    let mut diff = DArray2::new(cx, &g, [rows, cols], dist, 0f32);
    let mut out = Vec::with_capacity(sets.len());

    for &d in sets {
        if cx.id() == 0 {
            cx.record(SET_START);
        }
        // Camera feed: each owner generates its columns of every image.
        reference.for_each_owned(|r, c, v| *v = real_input(d, r, c));
        for (mi, img) in matches.iter_mut().enumerate() {
            img.for_each_owned(|r, c, v| *v = match_input(cfg, d, mi + 1, r, c));
        }
        cx.charge_mem_bytes(((cfg.n_match + 1) * reference.local().len() * 4) as f64);

        let (lr, lc) = reference.local_dims();
        let npix = lr * lc;
        let mut best = vec![f32::INFINITY; npix];
        let mut depth = vec![0u16; npix];
        for disp in 0..cfg.max_disp {
            // Difference image: SSD across the shifted match images. The
            // shift is an array assignment that crosses column blocks.
            for v in diff.local_mut() {
                *v = 0.0;
            }
            for (mi, img) in matches.iter().enumerate() {
                let m = mi + 1;
                copy_remap2(cx, &mut shifted, img, |r, c| (r, (c + m * disp).min(cols - 1)));
                let refl = reference.local();
                let shl = shifted.local();
                for (dv, (rv, sv)) in diff.local_mut().iter_mut().zip(refl.iter().zip(shl)) {
                    let e = rv - sv;
                    *dv += e * e;
                }
            }
            cx.charge_flops(ssd_flops(npix) * cfg.n_match as f64);

            // Error image: horizontal sum with column halos, vertical
            // sum local (columns hold all rows).
            let halo = exchange_col_halo(cx, &diff, cfg.window);
            let horiz =
                box_sum_rows_with_halo(diff.local(), lr, lc, cfg.window, &halo.left, &halo.right);
            let err = box_sum_cols_with_halo(&horiz, lr, lc, cfg.window, &[], &[]);
            cx.charge_flops(window_flops(npix, cfg.window));

            // Depth: running argmin.
            for i in 0..npix {
                if err[i] < best[i] {
                    best[i] = err[i];
                    depth[i] = disp as u16;
                }
            }
            cx.charge_flops(npix as f64);
        }
        if cx.id() == 0 {
            cx.record(SET_DONE);
        }
        out.push((d, depth));
    }
    out
}

/// Data-parallel stereo over the whole stream.
pub fn stereo_dp(cx: &mut Cx, cfg: &StereoConfig) -> Vec<(usize, Vec<u16>)> {
    let sets: Vec<usize> = (0..cfg.datasets).collect();
    stereo_stream(cx, cfg, &sets)
}

/// Pipelined stereo: difference images (G1) → error images (G2) → depth
/// (G3), one diff/error matrix per disparity crossing each boundary.
/// Returns `(dataset, local_depth)` pairs on G3 members (column tiles of
/// G3's layout), empty elsewhere.
pub fn stereo_pipeline(
    cx: &mut Cx,
    cfg: &StereoConfig,
    procs: [usize; 3],
    sets: &[usize],
) -> Vec<(usize, Vec<u16>)> {
    assert_eq!(
        procs.iter().sum::<usize>(),
        cx.nprocs(),
        "pipeline stage processors must sum to the group size"
    );
    let part = cx.task_partition(&[
        ("G1", fx_core::Size::Procs(procs[0])),
        ("G2", fx_core::Size::Procs(procs[1])),
        ("G3", fx_core::Size::Procs(procs[2])),
    ]);
    let g1 = part.group("G1");
    let g2 = part.group("G2");
    let g3 = part.group("G3");
    let (rows, cols) = (cfg.rows, cfg.cols);
    let dist = (Dist::Star, Dist::Block);

    // SUBGROUP(G1): reference/match/shift/diff; SUBGROUP(G2): diffs and
    // error volumes; SUBGROUP(G3): error volume and depth.
    let mut reference = DArray2::new(cx, &g1, [rows, cols], dist, 0f32);
    let mut matches: Vec<DArray2<f32>> =
        (0..cfg.n_match).map(|_| DArray2::new(cx, &g1, [rows, cols], dist, 0f32)).collect();
    let mut shifted = DArray2::new(cx, &g1, [rows, cols], dist, 0f32);
    let mut diff_g1: Vec<DArray2<f32>> =
        (0..cfg.max_disp).map(|_| DArray2::new(cx, &g1, [rows, cols], dist, 0f32)).collect();
    let mut diff_g2: Vec<DArray2<f32>> =
        (0..cfg.max_disp).map(|_| DArray2::new(cx, &g2, [rows, cols], dist, 0f32)).collect();
    let mut err_g2: Vec<DArray2<f32>> =
        (0..cfg.max_disp).map(|_| DArray2::new(cx, &g2, [rows, cols], dist, 0f32)).collect();
    let mut err_g3: Vec<DArray2<f32>> =
        (0..cfg.max_disp).map(|_| DArray2::new(cx, &g3, [rows, cols], dist, 0f32)).collect();
    let mut out = Vec::new();

    cx.task_region(&part, |cx, tr| {
        for &d in sets {
            tr.on(cx, "G1", |cx| {
                if cx.id() == 0 {
                    cx.record(SET_START);
                }
                reference.for_each_owned(|r, c, v| *v = real_input(d, r, c));
                for (mi, img) in matches.iter_mut().enumerate() {
                    img.for_each_owned(|r, c, v| *v = match_input(cfg, d, mi + 1, r, c));
                }
                let npix = reference.local().len();
                cx.charge_mem_bytes(((cfg.n_match + 1) * npix * 4) as f64);
                for (disp, diff) in diff_g1.iter_mut().enumerate() {
                    for v in diff.local_mut() {
                        *v = 0.0;
                    }
                    for (mi, img) in matches.iter().enumerate() {
                        let m = mi + 1;
                        copy_remap2(cx, &mut shifted, img, |r, c| {
                            (r, (c + m * disp).min(cols - 1))
                        });
                        let refl = reference.local();
                        let shl = shifted.local();
                        for (dv, (rv, sv)) in
                            diff.local_mut().iter_mut().zip(refl.iter().zip(shl))
                        {
                            let e = rv - sv;
                            *dv += e * e;
                        }
                    }
                    cx.charge_flops(ssd_flops(npix) * cfg.n_match as f64);
                }
            });
            // Difference volume crosses to the error stage.
            for (dst, src) in diff_g2.iter_mut().zip(&diff_g1) {
                assign2(cx, dst, src);
            }
            tr.on(cx, "G2", |cx| {
                for (diff, err) in diff_g2.iter().zip(err_g2.iter_mut()) {
                    let (lr, lc) = diff.local_dims();
                    let halo = exchange_col_halo(cx, diff, cfg.window);
                    let horiz = box_sum_rows_with_halo(
                        diff.local(),
                        lr,
                        lc,
                        cfg.window,
                        &halo.left,
                        &halo.right,
                    );
                    let e = box_sum_cols_with_halo(&horiz, lr, lc, cfg.window, &[], &[]);
                    err.local_mut().copy_from_slice(&e);
                    cx.charge_flops(window_flops(lr * lc, cfg.window));
                }
            });
            // Error volume crosses to the depth stage.
            for (dst, src) in err_g3.iter_mut().zip(&err_g2) {
                assign2(cx, dst, src);
            }
            if let Some(depth) = tr.on(cx, "G3", |cx| {
                let (lr, lc) = err_g3[0].local_dims();
                let npix = lr * lc;
                let mut best = vec![f32::INFINITY; npix];
                let mut depth = vec![0u16; npix];
                for (disp, err) in err_g3.iter().enumerate() {
                    for (i, &e) in err.local().iter().enumerate() {
                        if e < best[i] {
                            best[i] = e;
                            depth[i] = disp as u16;
                        }
                    }
                }
                cx.charge_flops((npix * cfg.max_disp) as f64);
                if cx.id() == 0 {
                    cx.record(SET_DONE);
                }
                depth
            }) {
                out.push((d, depth));
            }
        }
    });
    out
}

/// Replication combined with pipelining (§3.3): `replicas` modules, each
/// a diff→error→depth pipeline. Returns this module's G3-held results.
pub fn stereo_replicated_pipeline(
    cx: &mut Cx,
    cfg: &StereoConfig,
    replicas: usize,
    stage_procs: [usize; 3],
) -> Vec<(usize, Vec<u16>)> {
    replicated_modules(cx, replicas, |cx, rep| {
        let my_sets: Vec<usize> = (0..cfg.datasets).filter(|d| d % replicas == rep).collect();
        stereo_pipeline(cx, cfg, stage_procs, &my_sets)
    })
}

/// Replicated stereo: `replicas` modules, datasets dealt round-robin.
pub fn stereo_replicated(
    cx: &mut Cx,
    cfg: &StereoConfig,
    replicas: usize,
) -> Vec<(usize, Vec<u16>)> {
    replicated_modules(cx, replicas, |cx, rep| {
        let my_sets: Vec<usize> = (0..cfg.datasets).filter(|d| d % replicas == rep).collect();
        stereo_stream(cx, cfg, &my_sets)
    })
}

/// Reassemble per-processor local depth tiles (column blocks, in
/// virtual-rank order) into the global image.
pub fn assemble_depth(
    tiles: &[Vec<u16>],
    rows: usize,
    cols: usize,
) -> Vec<u16> {
    let p = tiles.len();
    let block = cols.div_ceil(p);
    let mut img = vec![u16::MAX; rows * cols];
    for (v, tile) in tiles.iter().enumerate() {
        let first = v * block;
        let lc = block.min(cols.saturating_sub(first));
        assert_eq!(tile.len(), rows * lc, "tile {v} has unexpected size");
        for r in 0..rows {
            for c in 0..lc {
                img[r * cols + first + c] = tile[r * lc + c];
            }
        }
    }
    img
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_core::{spmd, Machine};

    fn small_cfg() -> StereoConfig {
        StereoConfig { rows: 24, cols: 32, n_match: 2, max_disp: 4, window: 2, datasets: 2 }
    }

    fn depth_for(results: &[Vec<(usize, Vec<u16>)>], d: usize, rows: usize, cols: usize) -> Vec<u16> {
        let tiles: Vec<Vec<u16>> = results
            .iter()
            .map(|per_proc| {
                per_proc
                    .iter()
                    .find(|(ds, _)| *ds == d)
                    .map(|(_, t)| t.clone())
                    .unwrap_or_default()
            })
            .collect();
        assemble_depth(&tiles, rows, cols)
    }

    #[test]
    fn dp_matches_reference() {
        let cfg = small_cfg();
        for p in [1usize, 2, 4] {
            let rep = spmd(&Machine::real(p), move |cx| stereo_dp(cx, &cfg));
            for d in 0..cfg.datasets {
                let got = depth_for(&rep.results, d, cfg.rows, cfg.cols);
                let expect = reference_depth(&cfg, d);
                assert_eq!(got, expect, "p={p} d={d}");
            }
        }
    }

    #[test]
    fn recovered_depth_tracks_truth_away_from_edges() {
        // With noiseless synthetic inputs the argmin should recover the
        // generating disparity over most interior pixels.
        let cfg = small_cfg();
        let depth = reference_depth(&cfg, 0);
        let mut hits = 0;
        let mut total = 0;
        for r in 4..cfg.rows - 4 {
            for c in 4..cfg.cols - 12 {
                total += 1;
                if depth[r * cfg.cols + c] == truth_disparity(&cfg, r, c) {
                    hits += 1;
                }
            }
        }
        assert!(hits as f64 / total as f64 > 0.6, "depth recovery too poor: {hits}/{total}");
    }

    #[test]
    fn replicated_covers_all_datasets() {
        let cfg = StereoConfig { datasets: 4, ..small_cfg() };
        let rep = spmd(&Machine::real(4), move |cx| stereo_replicated(cx, &cfg, 2));
        for d in 0..cfg.datasets {
            let module = d % 2;
            let module_results = &rep.results[module * 2..module * 2 + 2];
            let got = depth_for(module_results, d, cfg.rows, cfg.cols);
            assert_eq!(got, reference_depth(&cfg, d), "d={d}");
        }
    }

    #[test]
    fn pipeline_matches_reference() {
        let cfg = StereoConfig { datasets: 3, ..small_cfg() };
        let sets: Vec<usize> = (0..cfg.datasets).collect();
        let rep = spmd(&Machine::real(5), move |cx| {
            stereo_pipeline(cx, &cfg, [2, 2, 1], &sets)
        });
        // G3 = phys 4 (one processor, whole columns).
        let g3 = &rep.results[4];
        assert_eq!(g3.len(), cfg.datasets);
        for (d, tile) in g3 {
            let got = assemble_depth(std::slice::from_ref(tile), cfg.rows, cfg.cols);
            assert_eq!(got, reference_depth(&cfg, *d), "d={d}");
        }
    }

    #[test]
    fn replicated_pipeline_hybrid_matches_reference() {
        let cfg = StereoConfig { datasets: 4, ..small_cfg() };
        let rep = spmd(&Machine::real(6), move |cx| {
            stereo_replicated_pipeline(cx, &cfg, 2, [1, 1, 1])
        });
        let mut seen = vec![false; cfg.datasets];
        for per_proc in &rep.results {
            for (d, tile) in per_proc {
                let got = assemble_depth(std::slice::from_ref(tile), cfg.rows, cfg.cols);
                assert_eq!(got, reference_depth(&cfg, *d), "d={d}");
                seen[*d] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn shifts_cause_real_communication() {
        // The disparity shifts must move data between column blocks.
        let cfg = small_cfg();
        let rep = spmd(&Machine::real(4), move |cx| {
            stereo_stream(cx, &cfg, &[0]);
        });
        assert!(rep.total().sends > 0, "expected shift/halo messages");
    }
}
