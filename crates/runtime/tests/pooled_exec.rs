//! The pooled coroutine executor: correctness under P ≫ workers,
//! determinism against the threaded reference, and failure modes.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use fx_runtime::{run, Executor, Machine, MachineModel, ProcCtx};

fn panic_message(err: Box<dyn std::any::Any + Send>) -> String {
    err.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| err.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic>".into())
}

/// A ring exchange with per-rank compute: every processor's virtual
/// finish time depends on messages crossing the whole ring.
fn ring(cx: &mut ProcCtx) -> f64 {
    let p = cx.nprocs();
    let right = (cx.rank() + 1) % p;
    let left = (cx.rank() + p - 1) % p;
    cx.charge_flops(1000.0 * (cx.rank() + 1) as f64);
    cx.send(right, 9, cx.rank() as u64);
    let v: u64 = cx.recv(left, 9);
    cx.charge_flops(500.0 * v as f64);
    cx.now()
}

#[test]
fn pooled_ping_pong_real_mode() {
    let machine = Machine::real(2).with_executor(Executor::Pooled { workers: 1 });
    let rep = run(&machine, |cx: &mut ProcCtx| {
        if cx.rank() == 0 {
            cx.send(1, 1, 123u64);
            cx.recv::<u64>(1, 2)
        } else {
            let v = cx.recv::<u64>(0, 1);
            cx.send(0, 2, v + 1);
            v
        }
    });
    assert_eq!(rep.results, vec![124, 123]);
}

#[test]
fn pooled_matches_threaded_bitwise() {
    let m = MachineModel::paragon();
    for &p in &[1, 2, 4, 8, 17] {
        let pooled = run(
            &Machine::simulated(p, m).with_executor(Executor::Pooled { workers: 2 }),
            ring,
        );
        let threaded =
            run(&Machine::simulated(p, m).with_executor(Executor::Threaded), ring);
        for rank in 0..p {
            assert_eq!(
                pooled.times[rank].to_bits(),
                threaded.times[rank].to_bits(),
                "virtual time diverged at p={p} rank={rank}"
            );
        }
        for (a, b) in pooled.counters.iter().zip(&threaded.counters) {
            assert_eq!((a.sends, a.send_bytes), (b.sends, b.send_bytes));
        }
        assert_eq!(pooled.undelivered, threaded.undelivered);
    }
}

#[test]
fn many_procs_on_few_workers() {
    // 64 simulated processors on 2 workers: far more procs than threads,
    // lots of suspended coroutines at any instant.
    let machine = Machine::simulated(64, MachineModel::paragon())
        .with_executor(Executor::Pooled { workers: 2 });
    let rep = run(&machine, ring);
    assert_eq!(rep.results.len(), 64);
    assert_eq!(rep.undelivered, 0);
    // And the exact same virtual times as the reference executor.
    let reference = run(
        &Machine::simulated(64, MachineModel::paragon()).with_executor(Executor::Threaded),
        ring,
    );
    assert_eq!(
        rep.times.iter().map(|t| t.to_bits()).collect::<Vec<_>>(),
        reference.times.iter().map(|t| t.to_bits()).collect::<Vec<_>>()
    );
}

#[test]
fn pooled_fan_in_heavy_traffic() {
    // Every processor sends 50 messages to rank 0; exercises wake-on-
    // deposit for a processor that parks and unparks many times.
    let p = 16;
    let machine = Machine::real(p).with_executor(Executor::Pooled { workers: 3 });
    let rep = run(&machine, move |cx: &mut ProcCtx| {
        if cx.rank() == 0 {
            let mut sum = 0u64;
            for src in 1..p {
                for _ in 0..50 {
                    sum += cx.recv::<u64>(src, 4);
                }
            }
            sum
        } else {
            for i in 0..50u64 {
                cx.send(0, 4, i);
            }
            0
        }
    });
    assert_eq!(rep.results[0], (p as u64 - 1) * (0..50).sum::<u64>());
    assert_eq!(rep.undelivered, 0);
}

#[test]
fn pooled_chunk_transfers() {
    let machine = Machine::simulated(4, MachineModel::paragon())
        .with_executor(Executor::Pooled { workers: 2 });
    let rep = run(&machine, |cx: &mut ProcCtx| {
        if cx.rank() == 0 {
            for dst in 1..4 {
                let mut c = cx.chunk_for::<f64>(0);
                c.push_slice(&[dst as f64; 256]);
                cx.send_chunk(dst, 7, c);
            }
            0.0
        } else {
            let mut buf = [0f64; 256];
            cx.recv_chunk_into(0, 7, &mut buf);
            buf[128]
        }
    });
    assert_eq!(rep.results, vec![0.0, 1.0, 2.0, 3.0]);
}

#[test]
fn pooled_probe_poll_loop_makes_progress() {
    // A probe-driven poll loop on 1 worker: without the cooperative
    // yield inside probe(), rank 1 would spin the only worker forever
    // and rank 0's send could never run.
    let machine = Machine::real(2).with_executor(Executor::Pooled { workers: 1 });
    let rep = run(&machine, |cx: &mut ProcCtx| {
        if cx.rank() == 0 {
            cx.send(1, 3, 9u8);
            true
        } else {
            while !cx.probe(0, 3) {}
            let still_there = cx.probe(0, 3);
            let v: u8 = cx.recv(0, 3);
            still_there && v == 9 && !cx.probe(0, 3)
        }
    });
    assert!(rep.results.iter().all(|&ok| ok));
}

#[test]
fn pooled_yield_now_is_cooperative() {
    // Two procs on one worker alternating via yield_now on shared state.
    let turns = Arc::new(AtomicUsize::new(0));
    let t2 = Arc::clone(&turns);
    let machine = Machine::real(2).with_executor(Executor::Pooled { workers: 1 });
    run(&machine, move |cx: &mut ProcCtx| {
        for i in 0..10 {
            // Wait for my turn: rank 0 acts on even counts, rank 1 odd.
            while t2.load(Ordering::SeqCst) % 2 != cx.rank() || t2.load(Ordering::SeqCst) / 2 < i
            {
                cx.yield_now();
            }
            t2.fetch_add(1, Ordering::SeqCst);
        }
    });
    assert_eq!(turns.load(Ordering::SeqCst), 20);
}

#[test]
fn pooled_panic_propagates_original_message() {
    let machine = Machine::real(3)
        .with_timeout(Duration::from_secs(30))
        .with_executor(Executor::Pooled { workers: 2 });
    let err = catch_unwind(AssertUnwindSafe(|| {
        run(&machine, |cx: &mut ProcCtx| {
            if cx.rank() == 0 {
                panic!("injected pooled failure");
            }
            // Peers block on a message that never comes; the poison must
            // wake their suspended coroutines.
            let _: u8 = cx.recv(0, 7);
        })
    }))
    .expect_err("panic must propagate");
    assert!(panic_message(err).contains("injected pooled failure"));
}

#[test]
fn pooled_deadlock_watchdog_fires_with_diagnostic() {
    let machine = Machine::real(2)
        .with_timeout(Duration::from_millis(200))
        .with_executor(Executor::Pooled { workers: 1 });
    let err = catch_unwind(AssertUnwindSafe(|| {
        run(&machine, |cx: &mut ProcCtx| {
            if cx.rank() == 0 {
                let _: u64 = cx.recv(1, 42); // never sent
            }
        })
    }))
    .expect_err("deadlock must panic");
    let msg = panic_message(err);
    assert!(
        msg.contains("timed out") || msg.contains("another processor panicked"),
        "got: {msg}"
    );
    // The root-cause diagnostic carries the wait edge when it wins the
    // propagation race.
    if msg.contains("timed out") {
        assert!(msg.contains("recv(src=1, tag=0x2a)"), "got: {msg}");
    }
}

#[test]
fn pooled_timeout_env_override_applies() {
    // FX_RECV_TIMEOUT_MS configures the default watchdog timeout.
    // Setting env vars is process-global, so keep this self-contained:
    // an explicit with_timeout must still win over the env default.
    std::env::set_var("FX_RECV_TIMEOUT_MS", "150");
    let m = Machine::real(2);
    assert_eq!(m.recv_timeout, Duration::from_millis(150));
    let m = Machine::real(2).with_timeout(Duration::from_secs(9));
    assert_eq!(m.recv_timeout, Duration::from_secs(9));
    std::env::remove_var("FX_RECV_TIMEOUT_MS");
}

#[test]
fn pooled_profiled_runs_are_bit_identical_too() {
    let m = MachineModel::fast_network();
    let base = Machine::simulated(8, m);
    let pooled = run(&base.clone().with_profiling(true).with_executor(Executor::pooled()), ring);
    let threaded =
        run(&base.with_profiling(true).with_executor(Executor::Threaded), ring);
    assert_eq!(
        pooled.times.iter().map(|t| t.to_bits()).collect::<Vec<_>>(),
        threaded.times.iter().map(|t| t.to_bits()).collect::<Vec<_>>()
    );
    // Span logs are virtual-time records: identical too.
    assert_eq!(pooled.spans.len(), threaded.spans.len());
    for (sp, st) in pooled.spans.iter().zip(&threaded.spans) {
        assert_eq!(sp.len(), st.len());
    }
}

#[test]
fn executor_env_override_selects_threaded() {
    // FX_EXECUTOR=threaded forces the reference executor even where
    // pooled is the default; with_executor overrides the env again.
    std::env::set_var("FX_EXECUTOR", "threaded");
    let m = Machine::simulated(2, MachineModel::paragon());
    assert_eq!(m.executor, Executor::Threaded);
    let m = m.with_executor(Executor::pooled());
    assert_eq!(m.executor, Executor::Pooled { workers: 0 });
    std::env::remove_var("FX_EXECUTOR");
    let m = Machine::simulated(2, MachineModel::paragon());
    assert_eq!(m.executor, Executor::Pooled { workers: 0 });
}

#[test]
fn small_stack_env_is_clamped_to_safe_minimum() {
    // FX_STACK_KB below the floor is clamped, not honoured into a crash.
    std::env::set_var("FX_STACK_KB", "1");
    let machine = Machine::real(2).with_executor(Executor::Pooled { workers: 1 });
    let rep = run(&machine, |cx: &mut ProcCtx| {
        if cx.rank() == 0 {
            cx.send(1, 1, vec![1u8; 4096]);
            0
        } else {
            cx.recv::<Vec<u8>>(0, 1).len()
        }
    });
    std::env::remove_var("FX_STACK_KB");
    assert_eq!(rep.results[1], 4096);
}
