//! Figure 4 of the paper: quicksort with dynamically nested task
//! parallelism. Each recursion level partitions the keys around a pivot
//! and splits the executing processors proportionately into two
//! subgroups, which sort their halves independently.
//!
//! Run with: `cargo run --release --example quicksort`

use fx::apps::qsort::{qsort_global, qsort_global_promoted};
use fx::apps::util::adversarial_keys;
use fx::prelude::*;

fn main() {
    let n = 100_000usize;
    let keys: Vec<i64> =
        (0..n as i64).map(|i| i.wrapping_mul(2654435761) % 1_000_000).collect();
    let mut expect = keys.clone();
    expect.sort_unstable();

    for p in [1usize, 2, 4, 8, 16] {
        let machine = Machine::simulated(p, MachineModel::paragon());
        let keys = keys.clone();
        let report = spmd(&machine, move |cx| qsort_global(cx, &keys));
        assert_eq!(report.results[0], expect, "sorted output differs at p={p}");
        println!(
            "p = {p:2}: sorted {n} keys in {:.4} virtual seconds \
             ({} messages total)",
            report.makespan(),
            report.total().sends,
        );
    }
    println!("ok: identical sorted output at every processor count");

    // Adversarial keys: sparse huge outliers stretch the key range so
    // pivots and uniform buckets skew badly. Promotable leaf base cases
    // (`leaf_group = 4`) let overloaded members donate bucket sorts to
    // idle peers on a heartbeat — same output, earlier finish.
    let bad = adversarial_keys(50_000, 3);
    let mut bad_sorted = bad.clone();
    bad_sorted.sort_unstable();
    for hb in [false, true] {
        let machine = Machine::simulated(8, MachineModel::paragon()).with_heartbeat(hb);
        let keys = bad.clone();
        let report = spmd(&machine, move |cx| qsort_global_promoted(cx, &keys, 4));
        assert_eq!(report.results[0], bad_sorted, "promoted sort differs");
        println!(
            "adversarial p = 8 heartbeat {:3}: {:.4} virtual seconds ({} donations)",
            if hb { "on" } else { "off" },
            report.makespan(),
            report.total().promotions_taken,
        );
    }
    println!("ok: promoted sort bit-identical with heartbeat on and off");
}
