//! Integration tests for the live telemetry layer: flight-recorder
//! retention, exporter formats, and the zero-cost-when-off guarantees.
//! Counter accounting is tested once, in fx-darray's `host_stats` suite.

use std::sync::Arc;
use std::time::Duration;

use fx_runtime::{run, Machine, MachineModel, ProcCtx, Telemetry, TelemetryConfig};

fn telemetry_machine(p: usize, t: &Arc<Telemetry>) -> Machine {
    Machine::real(p)
        .with_timeout(Duration::from_secs(30))
        .with_telemetry(Arc::clone(t))
}

/// A workload exercising both payload paths (boxed and chunk), the
/// buffer pool, and region scopes: each non-zero rank sends rank 0 one
/// boxed message and one chunk per round.
fn mixed_workload(cx: &mut ProcCtx, rounds: usize, elems: usize) {
    let p = cx.nprocs();
    cx.push_scope("mixed");
    for r in 0..rounds {
        if cx.rank() == 0 {
            for src in 1..p {
                let v: u64 = cx.recv(src, 1);
                assert_eq!(v, (src * 1000 + r) as u64);
                let mut buf = vec![0.0f64; elems];
                cx.recv_chunk_into(src, 2, &mut buf);
                assert_eq!(buf[0], src as f64);
            }
        } else {
            cx.send(0, 1, (cx.rank() * 1000 + r) as u64);
            let mut c = cx.chunk_for::<f64>(elems);
            c.push_slice(&vec![cx.rank() as f64; elems]);
            cx.send_chunk(0, 2, c);
        }
    }
    cx.pop_scope();
}

/// The flight ring is bounded: pushed well past capacity it retains
/// exactly the newest events, in order.
#[test]
fn flight_ring_wraps_keeping_newest() {
    let telemetry = Arc::new(Telemetry::with_config(TelemetryConfig {
        flight_capacity: 8,
        stall: false,
        ..TelemetryConfig::default()
    }));
    let rounds = 40usize;
    let rep = run(&telemetry_machine(2, &telemetry), move |cx| {
        if cx.rank() == 0 {
            for r in 0..rounds {
                cx.send(1, r as u64, r as u64);
            }
        } else {
            for r in 0..rounds {
                let _: u64 = cx.recv(0, r as u64);
            }
        }
    });

    // Rank 0 pushed 40 send events into a ring of 8: the newest 8 remain.
    let events = telemetry.flight_events(0);
    assert_eq!(events.len(), 8);
    for (k, ev) in events.iter().enumerate() {
        match &ev.kind {
            fx_runtime::FlightKind::Send { peer, tag, bytes } => {
                assert_eq!(*peer, 1);
                assert_eq!(*tag, (rounds - 8 + k) as u64, "newest events, oldest first");
                assert_eq!(*bytes, 8);
            }
            other => panic!("expected only sends on rank 0, got {other:?}"),
        }
    }
    // The recorded-total still counts everything that went through.
    assert_eq!(rep.telemetry.unwrap().per_proc[0].flight_recorded, rounds as u64);

    // The human dump mentions the ring bound.
    let dump = telemetry.flight_dump();
    assert!(dump.contains("processor 0: 8 retained of 40 recorded"), "got:\n{dump}");
}

/// Without a telemetry handle the report carries no snapshot.
#[test]
fn no_telemetry_means_no_snapshot() {
    let rep = run(&Machine::real(2), |cx| {
        if cx.rank() == 0 {
            cx.send(1, 1, 1u8);
        } else {
            let _: u8 = cx.recv(0, 1);
        }
    });
    assert!(rep.telemetry.is_none());
}

/// Telemetry must never touch the virtual clock: simulated completion
/// times are bit-identical with the registry attached and without.
#[test]
fn simulated_times_bit_identical_with_telemetry() {
    let model = MachineModel::paragon();
    let workload = |cx: &mut ProcCtx| {
        let p = cx.nprocs();
        cx.push_scope("stage");
        if cx.rank() == 0 {
            for src in 1..p {
                let _: Vec<f64> = cx.recv(src, 3);
            }
        } else {
            cx.charge_flops(50_000.0 * cx.rank() as f64);
            cx.send(0, 3, vec![cx.rank() as f64; 512]);
        }
        cx.pop_scope();
        cx.now()
    };

    let plain = run(&Machine::simulated(4, model), workload);
    let telemetry = Arc::new(Telemetry::new());
    let instrumented = run(
        &Machine::simulated(4, model).with_telemetry(Arc::clone(&telemetry)),
        workload,
    );

    assert_eq!(plain.times, instrumented.times, "virtual times diverged");
    for (a, b) in plain.results.iter().zip(&instrumented.results) {
        assert_eq!(a.to_bits(), b.to_bits(), "per-proc clocks diverged");
    }
    // And the registry did observe the run.
    assert_eq!(telemetry.total().sends, 3);
}

/// Exporters: the OpenMetrics rendering is well-formed line format with
/// counters, labeled region paths, gauges, and cumulative histograms;
/// the JSON rendering is a single object.
#[test]
fn exporters_render_expected_shapes() {
    let telemetry = Arc::new(Telemetry::new());
    run(&telemetry_machine(2, &telemetry), |cx| mixed_workload(cx, 2, 64));

    let text = telemetry.render_openmetrics();
    assert!(text.ends_with("# EOF\n"));
    for needle in [
        "# TYPE fx_sends counter",
        "fx_sends_total{proc=\"0\"} ",
        "fx_sends_total{proc=\"1\"} ",
        "# TYPE fx_chunk_bytes_in_flight gauge",
        "fx_chunk_bytes_in_flight 0",
        "# TYPE fx_queue_depth gauge",
        "# TYPE fx_msg_size_bytes histogram",
        "fx_msg_size_bytes_bucket{le=\"+Inf\"} ",
        "fx_msg_size_bytes_count ",
        "fx_region_path_enters_total{path=",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
    // Histogram buckets must be cumulative: +Inf equals _count.
    let grab = |marker: &str| -> u64 {
        text.lines()
            .find(|l| l.starts_with(marker))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no sample for {marker}"))
    };
    assert_eq!(grab("fx_msg_size_bytes_bucket{le=\"+Inf\"}"), grab("fx_msg_size_bytes_count"));

    let json = telemetry.render_json();
    assert!(json.starts_with('{') && json.ends_with('}'));
    for needle in ["\"procs\":[", "\"total\":", "\"regions\":{", "\"chunk_bytes_in_flight\":0"] {
        assert!(json.contains(needle), "missing {needle:?} in:\n{json}");
    }
}
