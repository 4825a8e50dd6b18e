//! `qsort-p256`: Figure 4's nested divide-and-conquer quicksort with
//! heartbeat-promotable leaves, 2^20 adversarial keys on 256 simulated
//! processors. Host time here is the runtime (coroutines, messages,
//! subgroup regions) and plan building: every plan is built once and
//! never replayed.

use fx_apps::qsort::qsort_with_leaf;
use fx_apps::util::adversarial_keys;
use fx_core::{block_range, spmd, Cx, Machine, RunReport};
use fx_darray::{copy_shift1_range, DArray1, Dist1, Participation};

use crate::common::*;

/// Leaf group size: subgroups of 4 processors stop recursing and bucket
/// sort with heartbeat promotion.
const LEAF: usize = 4;

#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub p: usize,
    pub n: usize,
}

pub fn shape(smoke: bool) -> Shape {
    if smoke {
        Shape { p: 16, n: 1 << 12 }
    } else {
        Shape { p: 256, n: 1 << 20 }
    }
}

/// Order-independent checksum of a key multiset.
pub fn key_sum(keys: &[i64]) -> u64 {
    keys.iter().fold(0u64, |acc, &k| acc.wrapping_add(mix(k)))
}

fn mix(k: i64) -> u64 {
    let mut z = (k as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Collective oracle, run in place on the sorted array: every block is
/// sorted, blocks are in order across processors (block `v`'s last key
/// <= the next non-empty block's first), and the key multiset checksum,
/// summed by allreduce, equals the input's. Every member returns the
/// same verdict.
pub fn check_sorted(cx: &mut Cx, local: &[i64], want_sum: u64) -> bool {
    let sorted = local.windows(2).all(|w| w[0] <= w[1]);
    let ends = match (local.first(), local.last()) {
        (Some(&a), Some(&b)) => (1u8, (a, b)),
        _ => (0u8, (0, 0)),
    };
    let all_ends = cx.allgather(ends);
    let mut prev: Option<i64> = None;
    let mut ordered = true;
    for (nonempty, (first, last)) in all_ends {
        if nonempty == 1 {
            ordered &= prev.is_none_or(|p| p <= first);
            prev = Some(last);
        }
    }
    let sum = cx.allreduce(key_sum(local), |a: u64, b: u64| a.wrapping_add(b));
    let all_sorted = cx.allreduce(u8::from(sorted), |a: u8, b: u8| a.min(b)) == 1;
    all_sorted && ordered && sum == want_sum
}

/// One processor's view of a pass: virtual time when its sort finished,
/// and the collective oracle's verdict.
pub type Report = RunReport<(f64, bool)>;

pub fn pass(m: &Machine, keys: &[i64], want_sum: u64) -> Report {
    spmd(m, |cx| {
        let g = cx.group();
        let mut a = DArray1::from_global(cx, &g, Dist1::Block, keys);
        qsort_with_leaf(cx, &mut a, LEAF);
        let t = cx.now();
        (t, check_sorted(cx, a.local(), want_sum))
    })
}

/// Virtual makespan of the sort itself (the oracle's collectives after
/// it are not counted).
pub fn vt_makespan(rep: &Report) -> f64 {
    rep.results.iter().map(|r| r.0).fold(0.0, f64::max)
}

struct State {
    keys: Vec<i64>,
    sum: u64,
    vt: f64,
}

pub fn run(opts: &Opts) -> Outcome {
    let sh = shape(opts.smoke);
    let m = machine(sh.p);
    let mut out = Outcome::default();

    let (st, setup_s) = repeated_setup(opts, || {
        let keys = adversarial_keys(sh.n, opts.seed);
        let sum = key_sum(&keys);
        let rep = pass(&m, &keys, sum);
        assert!(
            rep.results.iter().all(|r| r.1),
            "warm-up pass failed its oracle"
        );
        State {
            vt: vt_makespan(&rep),
            keys,
            sum,
        }
    });

    // A pass that panicked, lost a message or moved virtual time fails.
    let check = |out: &mut Outcome, rep: Option<Report>| {
        let ok = rep.as_ref().is_some_and(|r| {
            r.results.iter().all(|x| x.1)
                && r.undelivered == 0
                && vt_makespan(r).to_bits() == st.vt.to_bits()
        });
        out.check(1, u64::from(!ok));
        rep
    };
    let mut passes = Vec::new();
    run_for(opts.seconds, 3, || {
        let (rep, timing) = measured(|| guarded(|| pass(&m, &st.keys, st.sum)));
        passes.push(timing);
        check(&mut out, rep);
    });
    out.notes.push(format!(
        "qsort-p256: 2^{} keys on P={}, leaf group {}, {} timed passes",
        sh.n.trailing_zeros(),
        sh.p,
        LEAF,
        passes.len()
    ));
    put_end_to_end(&mut out, &passes, setup_s);
    out.put("vt.makespan_s", "vs", st.vt);

    if opts.trace {
        let traced = traced_machine(sh.p);
        let (rep, traced_wall) = timed(|| guarded(|| pass(&traced, &st.keys, st.sum)));
        let snap = check(&mut out, rep).and_then(|mut r| r.telemetry.take());
        let t = totals(&snap);
        put_counters(&mut out, &t);
        let layers = probes(&mut out, &sh, &st.keys, &t);
        put_closure(&mut out, &passes, traced_wall, &layers);
    }
    out.put(
        "fail_frac",
        "ratio",
        ratio(out.failed as f64, out.attempted as f64),
    );
    out
}

/// Layer probes on the pass's shapes. Returns the layer estimates (host
/// seconds per pass) that close against the wall time.
fn probes(out: &mut Outcome, sh: &Shape, keys: &[i64], t: &fx_runtime::ProcTotals) -> Vec<f64> {
    const REPS: usize = 3;
    let m = machine(sh.p);
    let p = sh.p;
    let n = sh.n;
    let launch = median_wall(5, || {
        spmd(&m, |_cx| ());
    });

    // The pass's message count and volume pushed round a ring: executor
    // and transport cost without the program's computation.
    let per_proc = (t.sends as usize).div_ceil(p);
    let size = (t.send_bytes as usize)
        .checked_div(t.sends as usize)
        .unwrap_or(0);
    let ring = median_wall(REPS, || {
        spmd(&m, |cx| {
            let (me, p) = (cx.id(), cx.nprocs());
            for _ in 0..per_proc {
                cx.send_v((me + 1) % p, 1, vec![0u8; size]);
                let _: Vec<u8> = cx.recv_v((me + p - 1) % p, 1);
            }
        });
    });
    let transport = (ring - launch).max(0.0);

    // Plan building: the same shift statement cold (plan built) and warm
    // (plan replayed), scaled by the pass's plan misses.
    let shift_probe = |calls| {
        let rep = spmd(&m, |cx| {
            let g = cx.group();
            let a = DArray1::new(cx, &g, n, Dist1::Block, 1i64);
            let mut b = DArray1::new(cx, &g, n, Dist1::Block, 0i64);
            for _ in 0..calls {
                copy_shift1_range(
                    cx,
                    &mut b,
                    0..n / 2,
                    &a,
                    (n / 4) as isize,
                    Participation::Minimal,
                );
            }
        });
        rep.plan_stats_total().plan_misses
    };
    let (per_miss, _) = plan_costs(REPS, 1, shift_probe);
    let plan_build = per_miss * t.plan_misses as f64;

    // Leaf sorts: each leaf group holds n * leaf / p keys and each member
    // sorts its share of the uniform buckets, as `qsort_with_leaf` does.
    let leaf_n = n * LEAF / p;
    let sort = probe_delta(
        REPS,
        || {
            spmd(&m, |cx| {
                let leaf = cx.id() / LEAF;
                std::hint::black_box(keys[leaf * leaf_n..(leaf + 1) * leaf_n].to_vec());
            });
        },
        || {
            spmd(&m, |cx| {
                let leaf = cx.id() / LEAF;
                let mine = keys[leaf * leaf_n..(leaf + 1) * leaf_n].to_vec();
                std::hint::black_box(leaf_bucket_sort(&mine, LEAF, cx.id() % LEAF));
            });
        },
    );
    let pack_share = t.pack_ns as f64 * 1e-9 / pins().workers as f64;
    out.put("runtime.launch_s", "s", launch);
    out.put("runtime.transport_s", "s", transport);
    out.put("darray.plan_build_s", "s", plan_build);
    out.put("apps.leaf_sort_s", "s", sort);
    vec![launch, transport, plan_build, pack_share, sort]
}

/// One leaf member's share of the bucket sort: 16 uniform buckets per
/// member over the leaf's key range, each filtered from the whole leaf
/// key set and sorted.
fn leaf_bucket_sort(keys: &[i64], q: usize, me: usize) -> usize {
    let (Some(&min), Some(&max)) = (keys.iter().min(), keys.iter().max()) else {
        return 0;
    };
    let nb = 16 * q;
    let span = (max as i128 - min as i128 + 1) as u128;
    let bucket =
        |v: i64| (((v as i128 - min as i128) as u128 * nb as u128 / span) as usize).min(nb - 1);
    let mut total = 0;
    for b in block_range(0..nb, q, me) {
        let mut vals: Vec<i64> = keys.iter().copied().filter(|&v| bucket(v) == b).collect();
        vals.sort_unstable();
        total += vals.len();
    }
    total
}
