//! Host-time overhead of the live telemetry layer, on the same
//! credit-windowed fan-in pattern as `msg_microbench`.
//!
//! Telemetry must be cheap enough to leave on in deployment: the budget
//! is **< 5% throughput loss** on the message microbenchmark at P=64.
//! This bin runs the chunk-path fan-in with telemetry off and on
//! (interleaved, best-of-N per leg so scheduler noise cancels), prints
//! the delta, asserts the budget (skipped under `--smoke`), and emits
//! `BENCH_telemetry.json`.
//!
//! Run with:
//! `cargo run --release -p fx-bench --bin telemetry_overhead [-- --smoke]`

use std::sync::Arc;
use std::time::Instant;

use fx_runtime::{run, Machine, Telemetry, TelemetryConfig};

const TAG_DATA: u64 = 1;
const TAG_ACK: u64 = 2;

/// One chunk-path fan-in run; returns the receiver's nanoseconds over
/// the measured rounds (identical pattern to `msg_microbench`).
fn fan_in_ns(machine: &Machine, fan_in: usize, elems: usize, rounds: usize) -> f64 {
    let window = ((1usize << 25) / (fan_in * elems * 8)).clamp(4, 64);
    let warmup = 2 * window;
    let rep = run(machine, move |cx| {
        let me = cx.rank();
        if me == 0 {
            let mut ends = [0.0f64; 2];
            let mut sink = 0.0f64;
            let mut t = Instant::now();
            for round in 0..warmup + rounds {
                if round == warmup {
                    t = Instant::now();
                }
                for src in 1..=fan_in {
                    let chunk = cx.recv_chunk(src, TAG_DATA);
                    chunk.read_into(0, &mut ends[..1]);
                    chunk.read_into(elems - 1, &mut ends[1..]);
                    cx.send_chunk(src, TAG_ACK, chunk);
                    assert_eq!(ends[0], (src * elems) as f64, "first element corrupt");
                    sink += ends[1];
                }
            }
            let ns = t.elapsed().as_nanos() as f64;
            assert!(sink.is_finite());
            ns
        } else if me <= fan_in {
            let data: Vec<f64> = (0..elems).map(|i| (me * elems + i) as f64).collect();
            let mut in_flight = 0usize;
            for round in 0..warmup + rounds {
                // Stamp a fresh trace context each round (no-op when
                // tracing is off) so the traced leg pays the full
                // piggyback + adoption path on every message.
                cx.set_trace(round as u64 + 1);
                if in_flight == window {
                    let c = cx.recv_chunk(0, TAG_ACK);
                    cx.release_chunk(c);
                    in_flight -= 1;
                }
                let mut c = cx.chunk_for::<f64>(elems);
                c.push_slice(&data);
                cx.send_chunk(0, TAG_DATA, c);
                in_flight += 1;
            }
            while in_flight > 0 {
                let c = cx.recv_chunk(0, TAG_ACK);
                cx.release_chunk(c);
                in_flight -= 1;
            }
            0.0
        } else {
            0.0
        }
    });
    // Every round each sender ships one chunk and rank 0 acks it on the
    // chunk path, so the pattern fixes the message count exactly. Checked
    // on the report and, when attached, on the registry snapshot.
    let expect = (2 * fan_in * (warmup + rounds)) as u64;
    for t in rep.telemetry.iter().map(|s| s.total()).chain([rep.total()]) {
        assert_eq!((t.sends, t.chunk_msgs), (expect, expect), "fan-in message count");
    }
    rep.results[0]
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");

    // P=64, 31 senders, 8 KB messages: the contended mid-size regime
    // where per-message overhead (what telemetry adds to) matters most.
    let (p, fan_in, elems) = if smoke { (8, 7, 256) } else { (64, 31, 1024) };
    let rounds = if smoke { 64 } else { 512 };
    let reps = if smoke { 2 } else { 7 };

    let telemetry = Arc::new(Telemetry::with_config(TelemetryConfig {
        // Stall sampling off for the measured legs: the budget is about
        // the per-message hot path, not a background thread stealing an
        // oversubscribed core's cycles.
        stall: false,
        ..TelemetryConfig::default()
    }));
    let off = Machine::real(p);
    let on = Machine::real(p).with_telemetry(Arc::clone(&telemetry));
    let traced = Machine::real(p).with_telemetry(Arc::clone(&telemetry)).with_tracing(true);

    // Interleave off/on/traced legs; best-of-N per leg is the least
    // noisy observation of the same deterministic work on a shared host.
    let (mut off_ns, mut on_ns, mut trace_ns) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        off_ns = off_ns.min(fan_in_ns(&off, fan_in, elems, rounds));
        on_ns = on_ns.min(fan_in_ns(&on, fan_in, elems, rounds));
        trace_ns = trace_ns.min(fan_in_ns(&traced, fan_in, elems, rounds));
    }

    let bytes = (rounds * fan_in * elems * 8) as f64;
    let gibs = |ns: f64| bytes / ns * 1e9 / (1u64 << 30) as f64;
    let overhead = on_ns / off_ns - 1.0;
    // Tracing rides on top of telemetry in deployment, so its budget is
    // measured against the telemetry-on leg: what does stamping,
    // piggybacking and adopting a trace context per message add?
    let trace_overhead = trace_ns / on_ns - 1.0;

    println!(
        "P={p} fan_in={fan_in} msg={} B rounds={rounds} (best of {reps}):",
        elems * 8
    );
    println!("  telemetry off: {off_ns:>12.0} ns  {:.3} GiB/s", gibs(off_ns));
    println!("  telemetry on : {on_ns:>12.0} ns  {:.3} GiB/s", gibs(on_ns));
    println!("  + tracing    : {trace_ns:>12.0} ns  {:.3} GiB/s", gibs(trace_ns));
    println!("  overhead     : {:+.2}% (budget < 5%)", overhead * 100.0);
    println!("  trace ovhd   : {:+.2}% over telemetry (budget < 5%)", trace_overhead * 100.0);
    let total = telemetry.total();
    println!(
        "  final registry: {} sends, {} recvs, {} flight events recorded",
        total.sends, total.recvs, total.flight_recorded
    );

    let json = format!(
        "{{\n  \"bench\": \"telemetry_overhead\",\n  \"pattern\": \"credit_windowed_fan_in_chunk\",\n  \
         \"executor\": \"{}\",\n  \"dataflow\": \"{}\",\n  \"heartbeat\": \"{}\",\n  \
         \"p\": {p},\n  \"fan_in\": {fan_in},\n  \"msg_bytes\": {},\n  \"rounds\": {rounds},\n  \
         \"reps\": {reps},\n  \"off_ns\": {off_ns:.0},\n  \"on_ns\": {on_ns:.0},\n  \
         \"trace_ns\": {trace_ns:.0},\n  \
         \"off_gib_s\": {:.3},\n  \"on_gib_s\": {:.3},\n  \"overhead_frac\": {overhead:.4},\n  \
         \"trace_overhead_frac\": {trace_overhead:.4},\n  \
         \"budget_frac\": 0.05\n}}\n",
        off.executor,
        off.dataflow,
        off.heartbeat,
        elems * 8,
        gibs(off_ns),
        gibs(on_ns),
    );
    std::fs::write("BENCH_telemetry.json", &json).expect("write BENCH_telemetry.json");
    println!("\nwrote BENCH_telemetry.json");

    if !smoke {
        assert!(
            overhead < 0.05,
            "telemetry-on throughput must stay within 5% of off: measured {:+.2}%",
            overhead * 100.0
        );
        assert!(
            trace_overhead < 0.05,
            "tracing must stay within 5% of the telemetry-on leg: measured {:+.2}%",
            trace_overhead * 100.0
        );
    }
}
