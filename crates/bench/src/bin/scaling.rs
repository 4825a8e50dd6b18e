//! Scaling of the dynamically nested applications (paper §5.3): speedup
//! curves for quicksort (Figure 4) and Barnes-Hut (Figure 7) on the
//! simulated Paragon. The paper reports no table for these — §5.3 gives
//! the expected O((n/p)·log n) running time for Barnes-Hut — so this
//! harness records the shape that claim predicts: near-linear scaling
//! with a slowly growing communication share.
//!
//! Run with: `cargo run --release -p fx-bench --bin scaling`

use fx_apps::barnes_hut::{bh_forces, make_bodies, BhConfig};
use fx_apps::qsort::qsort_global;
use fx_bench::paragon;
use fx_core::spmd;

fn main() {
    println!("Quicksort (Figure 4): 200k keys");
    let keys: Vec<i64> =
        (0..200_000).map(|i: i64| i.wrapping_mul(2654435761) % 1_000_000).collect();
    let t1 = {
        let keys = keys.clone();
        spmd(&paragon(1), move |cx| {
            qsort_global(cx, &keys);
        })
        .makespan()
    };
    println!("{:>6} {:>12} {:>8} {:>10}", "procs", "time s", "speedup", "messages");
    for p in [1usize, 2, 4, 8, 16, 32, 64] {
        let keys = keys.clone();
        let rep = spmd(&paragon(p), move |cx| {
            qsort_global(cx, &keys);
        });
        let t = rep.makespan();
        let msgs = rep.total().sends;
        println!("{p:>6} {t:>12.4} {:>8.2} {msgs:>10}", t1 / t);
    }
    println!();

    println!("Barnes-Hut (Figure 7): 4096 bodies, theta 0.4, k = 6 replicated levels");
    let bodies = make_bodies(4096, 5);
    let cfg = BhConfig { n: 4096, theta: 0.4, eps: 1e-3, k: 6, leaf_group: 1 };
    let t1 = {
        let bodies = bodies.clone();
        spmd(&paragon(1), move |cx| {
            bh_forces(cx, &bodies, &cfg);
        })
        .makespan()
    };
    println!("{:>6} {:>12} {:>8} {:>10}", "procs", "time s", "speedup", "messages");
    for p in [1usize, 2, 4, 8, 16, 32, 64] {
        let bodies = bodies.clone();
        let rep = spmd(&paragon(p), move |cx| {
            bh_forces(cx, &bodies, &cfg);
        });
        let t = rep.makespan();
        let msgs = rep.total().sends;
        println!("{p:>6} {t:>12.4} {:>8.2} {msgs:>10}", t1 / t);
    }
    println!();
    println!("(worklist sizes shrink as k grows; the paper bounds them O(n^(2/3)) for uniform clouds)");
}
