//! Figure 7 of the paper: Barnes-Hut N-body force computation with
//! dynamically nested task parallelism and worklists.
//!
//! Processor subgroups recursively take half the particles each, holding
//! partial trees (top-k levels replicated + their own subtree); particles
//! whose traversal needs a remote subtree are passed up the recursion on
//! worklists and resolved against fuller trees.
//!
//! Run with: `cargo run --release --example barnes_hut`

use fx::apps::barnes_hut::{bh_step, make_bodies, BhConfig};
use fx::apps::util::make_plummer_bodies;
use fx::kernels::nbody::direct_forces;
use fx::prelude::*;

fn main() {
    let n = 2048usize;
    let cfg = BhConfig { n, theta: 0.4, eps: 1e-3, k: 4, leaf_group: 1 };
    let bodies = make_bodies(n, 42);

    // Accuracy: compare one force evaluation against the direct O(n²)
    // sum over the same (input-ordered) bodies.
    let exact = direct_forces(&bodies, cfg.eps);

    for p in [1usize, 4, 8] {
        let machine = Machine::simulated(p, MachineModel::paragon());
        let bodies = bodies.clone();
        let report = spmd(&machine, move |cx| {
            fx::apps::barnes_hut::bh_forces(cx, &bodies, &cfg)
        });
        let forces = &report.results[0];
        let mut rms = 0.0;
        let mut count = 0;
        for (f, e) in forces.iter().zip(&exact) {
            let mag = (e[0] * e[0] + e[1] * e[1] + e[2] * e[2]).sqrt();
            if mag > 1e-9 {
                let err = ((f[0] - e[0]).powi(2) + (f[1] - e[1]).powi(2) + (f[2] - e[2]).powi(2))
                    .sqrt();
                rms += (err / mag).powi(2);
                count += 1;
            }
        }
        rms = (rms / count as f64).sqrt();
        println!(
            "p = {p:2}: {n} bodies in {:.4} virtual seconds, BH-vs-direct RMS error {:.4}",
            report.makespan(),
            rms
        );
    }

    // Run a short simulation.
    let machine = Machine::simulated(4, MachineModel::paragon());
    let report = spmd(&machine, move |cx| {
        let mut current = make_bodies(512, 1);
        for _ in 0..3 {
            current = bh_step(cx, &current, &BhConfig { n: 512, ..cfg }, 1e-3);
        }
        current
    });
    let final_bodies = &report.results[0];
    let com: [f64; 3] = final_bodies.iter().fold([0.0; 3], |mut acc, b| {
        for (a, p) in acc.iter_mut().zip(b.pos) {
            *a += p / final_bodies.len() as f64;
        }
        acc
    });
    println!("after 3 steps of 512 bodies: centre of cloud at {com:.3?}");

    // Irregular input + promotable leaves: a Plummer cluster makes core
    // particles far more expensive than halo particles, so the static
    // median split leaves some leaf members overloaded. With heartbeat
    // work donation (`leaf_group > 1`) they hand their loop tails to
    // idle peers — same forces, earlier finish.
    let np = 1024usize;
    let plummer = make_plummer_bodies(np, 7);
    let pcfg = BhConfig::new(np).with_leaf_group(4);
    for hb in [false, true] {
        let machine = Machine::simulated(8, MachineModel::paragon()).with_heartbeat(hb);
        let bodies = plummer.clone();
        let report =
            spmd(&machine, move |cx| fx::apps::barnes_hut::bh_forces(cx, &bodies, &pcfg));
        println!(
            "plummer p = 8 heartbeat {:3}: {np} bodies in {:.4} virtual seconds \
             ({} donations)",
            if hb { "on" } else { "off" },
            report.makespan(),
            report.total().promotions_taken,
        );
    }
    println!("ok: nested task-parallel Barnes-Hut matches the sequential tree code");
}
