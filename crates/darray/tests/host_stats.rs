//! Accounting tests for the per-processor counter block: the pooled-buffer
//! transport underneath the darray communication plans must make zero
//! transport allocations in steady state, and one deterministic program
//! touching every counted layer must report exact counts — the same with
//! telemetry attached or not, and the same in the registry as in the
//! report.

use std::sync::Arc;

use fx_core::{spmd, Cx, DataflowMode, Machine, MachineModel, ProcTotals, Size};
use fx_darray::{assign1, DArray1, Dist1};
use fx_runtime::Telemetry;

/// Run a symmetric block→cyclic→block round trip for `iters` iterations
/// and return each processor's (pool_hits, pool_misses).
///
/// The round trip is what makes steady state reachable: every buffer a
/// processor ships out in the scatter leg comes back to it in the
/// gather leg, so pools stop growing after the first iteration.
fn pool_counters(iters: usize) -> Vec<(u64, u64)> {
    let rep = spmd(&Machine::real(4), move |cx| {
        let g = cx.group();
        let data: Vec<u64> = (0..64).collect();
        let src = DArray1::from_global(cx, &g, Dist1::Block, &data);
        let mut cyc = DArray1::new(cx, &g, 64, Dist1::Cyclic, 0u64);
        let mut back = DArray1::new(cx, &g, 64, Dist1::Block, 0u64);
        for _ in 0..iters {
            assign1(cx, &mut cyc, &src);
            assign1(cx, &mut back, &cyc);
        }
        back.to_global(cx)
    });
    for r in &rep.results {
        assert_eq!(*r, (0..64u64).collect::<Vec<_>>());
    }
    rep.counters.iter().map(|c| (c.pool_hits, c.pool_misses)).collect()
}

#[test]
fn steady_state_redistribution_makes_zero_transport_allocations() {
    let short = pool_counters(3);
    let long = pool_counters(30);
    for (p, (s, l)) in short.iter().zip(&long).enumerate() {
        // Misses happen only during warm-up: 27 extra iterations add no
        // allocations, so the steady-state hit rate is 100%.
        assert_eq!(s.1, l.1, "proc {p}: pool misses grew with iteration count");
        // The extra iterations are served entirely from the pool.
        assert!(l.0 > s.0, "proc {p}: longer run must add pool hits");
    }
}

#[test]
fn chunk_traffic_is_accounted_in_host_stats() {
    let rep = spmd(&Machine::real(4), |cx| {
        let g = cx.group();
        let data: Vec<u64> = (0..64).collect();
        let src = DArray1::from_global(cx, &g, Dist1::Block, &data);
        let mut cyc = DArray1::new(cx, &g, 64, Dist1::Cyclic, 0u64);
        assign1(cx, &mut cyc, &src);
        cyc.to_global(cx)
    });
    for c in &rep.counters {
        // Every remote redistribution leg rides the chunk path.
        assert!(c.chunk_msgs > 0, "redistribution should use chunk transport");
        assert_eq!(c.chunk_bytes % 8, 0, "u64 payloads are whole elements");
        // Wall-clock counters tick (real-time mode, actual threads).
        assert!(c.send_ns > 0);
    }
}

const P: usize = 4;
/// Elements in the ring chunk each processor sends.
const RING_ELEMS: usize = 16;
/// Global length of the redistributed array.
const N: usize = 64;
/// Repetitions of the plan-driven `assign1`.
const K: u64 = 5;
/// Raw runtime tags for the ring exchange, far from fx-core's op tags.
const TAG_BOXED: u64 = 0xACC0_0001;
const TAG_CHUNK: u64 = 0xACC0_0002;

/// A deterministic program touching every counted layer: a boxed and a
/// chunk send around the ring, a barrier, a plan-driven block→cyclic
/// `assign1` repeated `K` times, a task region every processor skips
/// half of, and a balanced promotable loop.
fn mixed_program(cx: &mut Cx) -> u64 {
    let me = cx.phys_rank();
    let (right, left) = ((me + 1) % P, (me + P - 1) % P);
    let rt = cx.runtime();
    rt.send(right, TAG_BOXED, me as u64);
    let from_left: u64 = rt.recv(left, TAG_BOXED);
    assert_eq!(from_left, left as u64);
    let mut chunk = rt.chunk_for::<f64>(RING_ELEMS);
    chunk.push_slice(&[me as f64; RING_ELEMS]);
    rt.send_chunk(right, TAG_CHUNK, chunk);
    let mut ring = [0.0f64; RING_ELEMS];
    rt.recv_chunk_into(left, TAG_CHUNK, &mut ring);
    assert_eq!(ring, [left as f64; RING_ELEMS]);

    cx.barrier();

    let g = cx.group();
    let data: Vec<u64> = (0..N as u64).collect();
    let src = DArray1::from_global(cx, &g, Dist1::Block, &data);
    let mut cyc = DArray1::new(cx, &g, N, Dist1::Cyclic, 0u64);
    for _ in 0..K {
        assign1(cx, &mut cyc, &src);
    }
    // Cyclic: local slot j holds global element me + j·P.
    for (j, v) in cyc.local().iter().enumerate() {
        assert_eq!(*v, (me + j * P) as u64);
    }

    let part = cx.task_partition(&[("a", Size::Procs(P / 2)), ("b", Size::Rest)]);
    cx.task_region(&part, |cx, tr| {
        tr.on(cx, "a", |cx| cx.charge_flops(1e3));
        tr.on(cx, "b", |cx| cx.charge_flops(2e3));
    });

    // Uniform cost: every member heartbeats, nobody parks early, so no
    // grant fires and the loop sends nothing.
    cx.pdo_reduce_promote(
        "flat",
        0..64,
        0u64,
        |cx, i| {
            cx.charge_flops(1e4);
            i as u64
        },
        |a, b| a + b,
    )
}

fn mixed_machine() -> Machine {
    Machine::simulated(P, MachineModel::paragon())
        .with_dataflow(DataflowMode::On)
        .with_heartbeat(true)
}

/// The counters that do not depend on host timing or on telemetry.
/// `lane_contention` counts deposits that raced another sender for a
/// lane lock, which host scheduling decides.
fn deterministic(t: &ProcTotals) -> ProcTotals {
    ProcTotals {
        send_ns: 0,
        recv_wait_ns: 0,
        pack_ns: 0,
        lane_contention: 0,
        progress: 0,
        flight_recorded: 0,
        ..t.clone()
    }
}

/// One accounting test for the counter block: exact counts for a known
/// program, one store shared by report and registry, and the same
/// deterministic counts with telemetry off.
#[test]
fn counter_block_accounts_every_layer_exactly() {
    let telemetry = Arc::new(Telemetry::new());
    let on = spmd(&mixed_machine().with_telemetry(Arc::clone(&telemetry)), mixed_program);
    let off = spmd(&mixed_machine(), mixed_program);
    assert_eq!(on.results, off.results);
    let sum: u64 = (0..64).sum();
    assert!(on.results.iter().all(|&r| r == sum));

    let t = on.total();
    let (p, k) = (P as u64, K);
    // Block→cyclic over N elements: every processor ships N/P² elements
    // to each of its P-1 peers per assign, one chunk each.
    let assign_msgs = k * p * (p - 1);
    let assign_bytes = assign_msgs * (N / (P * P)) as u64 * 8;
    // The barrier and the promotable loop's closing allreduce are each a
    // binomial reduce then broadcast: 2(P-1) messages, of `()` for the
    // barrier and of one u64 for the allreduce.
    let tree_msgs = 2 * (p - 1);
    // Ring: one boxed u64 and one chunk of RING_ELEMS f64 per processor.
    let ring_bytes = p * (8 + RING_ELEMS as u64 * 8);
    assert_eq!(t.sends, 2 * p + 2 * tree_msgs + assign_msgs, "sends");
    assert_eq!(t.send_bytes, ring_bytes + tree_msgs * 8 + assign_bytes, "send bytes");
    assert_eq!(t.recvs, t.sends, "every message was received");
    assert_eq!(t.recv_bytes, t.send_bytes);
    assert_eq!(t.chunk_msgs, p + assign_msgs, "ring chunk + plan transfers");
    assert_eq!(t.chunk_bytes, p * RING_ELEMS as u64 * 8 + assign_bytes);
    assert_eq!(t.plan_misses, p, "one plan build per processor");
    assert_eq!(t.plan_hits, p * (k - 1), "every later assign replays the plan");
    assert_eq!(t.barriers, p, "one barrier entry per processor");
    assert_eq!(t.region_skips, p, "each processor skips the other subgroup");
    assert_eq!(t.promotions_taken, 0, "a balanced loop donates nothing");
    assert!(t.promotions_attempted > 0, "the promotable loop heartbeat");
    assert_eq!(t.pool_hits + t.pool_misses, t.chunk_msgs, "one pool acquire per chunk");
    assert!(t.region_enters > 0 && t.progress > 0);
    assert_eq!(on.undelivered, 0);

    // The registry reads the report's blocks: identical rows, apart from
    // the flight count only telemetry keeps.
    let snap = on.telemetry.as_ref().expect("snapshot present");
    let strip = |rows: &[ProcTotals]| -> Vec<ProcTotals> {
        rows.iter().map(|r| ProcTotals { flight_recorded: 0, ..r.clone() }).collect()
    };
    assert_eq!(strip(&snap.per_proc), on.counters);
    assert!(snap.per_proc.iter().all(|r| r.flight_recorded > 0));
    let mut merged = ProcTotals::default();
    for row in &snap.per_proc {
        merged.merge(row);
    }
    assert_eq!(merged, snap.total());
    assert_eq!(telemetry.total(), snap.total());
    // All chunks were received: the sharded in-flight gauge sums to zero.
    assert_eq!(snap.chunk_bytes_in_flight, 0);
    assert_eq!(telemetry.chunk_bytes_in_flight(), 0);
    // Region scopes were counted under their subgroup path label.
    for name in ["a", "b"] {
        assert!(
            snap.regions.iter().any(|(path, n)| path == name && *n == (P / 2) as u64),
            "region {name}: got {:?}",
            snap.regions
        );
    }

    // Telemetry off counts the same events into the same kind of block.
    let rows = |r: &[ProcTotals]| r.iter().map(deterministic).collect::<Vec<_>>();
    assert_eq!(rows(&off.counters), rows(&on.counters));
    assert!(off.telemetry.is_none());
}
