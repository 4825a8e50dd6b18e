//! The repository benchmark: three Fx workloads driven through the
//! workspace crates' public APIs, reporting host time (how fast the
//! simulator runs) and virtual time (the modelled machine's performance)
//! as separate metrics. See `README.md` in this directory.

pub mod common;
pub mod qsort;
pub mod serve;
pub mod stereo;

use common::{Opts, Outcome};

/// Workload names, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 3] = ["stereo-p64", "qsort-p256", "serve-ffthist"];

/// End-to-end metrics (`--trace 0`): name and unit. Every workload
/// reports all of them.
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s")];

/// Per-layer metrics (`--trace 1`): name and unit. A metric that does
/// not apply to a workload (for example `darray.remap_s` on a program
/// that makes no remap calls) reads 0. Units `vs` and `vms` are virtual
/// seconds and milliseconds of the simulated machine; `s`, `us` are
/// host time.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("vt.makespan_s", "vs"),
    ("vt.sets_per_s", "1/vs"),
    ("vt.latency_s", "vs"),
    ("vt.p50_ms.lo", "vms"),
    ("vt.p99_ms.lo", "vms"),
    ("vt.p50_ms.mid", "vms"),
    ("vt.p99_ms.mid", "vms"),
    ("vt.p50_ms.hi", "vms"),
    ("vt.p99_ms.hi", "vms"),
    ("vt.samples.lo", "count"),
    ("vt.samples.mid", "count"),
    ("vt.samples.hi", "count"),
    ("vt.shed_frac.lo", "ratio"),
    ("vt.shed_frac.mid", "ratio"),
    ("vt.shed_frac.hi", "ratio"),
    ("vt.knee_rps", "1/vs"),
    ("fail_frac", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("runtime.launch_s", "s"),
    ("runtime.transport_s", "s"),
    ("runtime.send_s", "s"),
    ("runtime.recv_wait_s", "s"),
    ("runtime.msgs", "count"),
    ("runtime.bytes", "bytes"),
    ("runtime.chunk_msg_share", "ratio"),
    ("runtime.pool_hit_ratio", "ratio"),
    ("runtime.lane_contended", "count"),
    ("runtime.undelivered", "count"),
    ("core.plan_misses", "count"),
    ("core.plan_hit_ratio", "ratio"),
    ("core.barriers", "count"),
    ("core.region_enters", "count"),
    ("core.region_skips", "count"),
    ("core.promote_attempted", "count"),
    ("core.promote_taken", "count"),
    ("darray.remap_s", "s"),
    ("darray.remap_calls", "count"),
    ("darray.assign2_s", "s"),
    ("darray.plan_build_s", "s"),
    ("darray.pack_s", "s"),
    ("darray.barriers_kept", "count"),
    ("darray.barriers_elided", "count"),
    ("kernels.fft_s", "s"),
    ("kernels.fft_gflops", "GFLOP/s"),
    ("kernels.hist_s", "s"),
    ("kernels.stereo_s", "s"),
    ("apps.leaf_sort_s", "s"),
    ("serve.rounds", "count"),
    ("serve.batch_mean", "count"),
    ("serve.host_us_per_round", "us"),
    ("serve.queue_ms.p50", "vms"),
    ("serve.queue_ms.p99", "vms"),
    ("serve.service_ms.p50", "vms"),
    ("serve.service_ms.p99", "vms"),
    ("serve.breakdown.queue_ms", "vms"),
    ("serve.breakdown.barrier_ms", "vms"),
    ("serve.breakdown.send_ms", "vms"),
    ("serve.breakdown.recv_ms", "vms"),
    ("serve.breakdown.compute_ms", "vms"),
    ("serve.breakdown.other_ms", "vms"),
    ("serve.breakdown.idle_ms", "vms"),
    ("obs.trace_overhead_frac", "ratio"),
    ("layers.unattributed_frac", "ratio"),
    ("bench.wall_untraced_s", "s"),
    ("bench.wall_traced_s", "s"),
    ("bench.passes", "count"),
];

/// Run one workload.
pub fn run_workload(opts: &Opts) -> Outcome {
    match opts.workload.as_str() {
        "stereo-p64" => stereo::run(opts),
        "qsort-p256" => qsort::run(opts),
        "serve-ffthist" => serve::run(opts),
        other => panic!("unknown workload {other:?}; expected one of {WORKLOADS:?}"),
    }
}

/// Processor count of a workload (for the manifest).
pub fn procs(workload: &str, smoke: bool) -> usize {
    match workload {
        "stereo-p64" => stereo::shape(smoke).p,
        "qsort-p256" => qsort::shape(smoke).p,
        _ => serve::shape(smoke).p,
    }
}

/// The result line: the metrics the mode calls for, in list order, with
/// inapplicable per-layer metrics at 0. `correct` also requires every
/// end-to-end metric to be present and every value finite.
pub fn result_json(out: &Outcome, trace: bool, pinned: bool) -> String {
    let list = if trace { PER_LAYER } else { END_TO_END };
    let mut ok = pinned && out.failed == 0 && out.attempted > 0;
    let mut parts = Vec::new();
    for (name, unit) in list {
        let found = out.metrics.iter().find(|m| m.name == *name);
        if let Some(m) = found {
            assert_eq!(m.unit, *unit, "metric {name} reported with the wrong unit");
        }
        let v = found.map_or(if trace { 0.0 } else { f64::NAN }, |m| m.value);
        ok &= v.is_finite();
        let shown = if v.is_finite() {
            format!("{v:?}")
        } else {
            "null".to_string()
        };
        parts.push(format!(
            "\"{name}\":{{\"value\":{shown},\"unit\":\"{unit}\"}}"
        ));
    }
    format!(
        "{{\"correct\":{ok},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted,
        out.failed,
        parts.join(",")
    )
}
