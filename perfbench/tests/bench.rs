//! The benchmark's own checks: its oracles reject corrupted outputs, its
//! Stereo workload agrees with Table 1, every workload runs at smoke size
//! and prints every metric with its unit, and `BENCHMARK.json` lists the
//! metrics the code prints.

use std::process::Command;

use fx_apps::stereo::{reference_depth, StereoConfig};
use fx_core::spmd;
use fx_darray::{DArray1, Dist1};
use fx_perfbench::common::machine;
use fx_perfbench::{qsort, serve, stereo, END_TO_END, PER_LAYER, WORKLOADS};

#[test]
fn stereo_oracle_rejects_a_wrong_pixel() {
    let sh = stereo::shape(true);
    let sets = stereo::sets(3, &sh.cfg);
    let refs: Vec<Vec<u16>> = sets.iter().map(|&d| reference_depth(&sh.cfg, d)).collect();
    let mut rep = stereo::pass(&machine(sh.p), &sh.cfg, &sets);
    assert_eq!(stereo::count_wrong(&rep, &sh.cfg, &sets, &refs), 0);
    rep.results[1][2].1[0] ^= 1;
    assert_eq!(stereo::count_wrong(&rep, &sh.cfg, &sets, &refs), 1);
    rep.results[0].pop();
    assert_eq!(
        stereo::count_wrong(&rep, &sh.cfg, &sets, &refs),
        2,
        "a missing tile fails"
    );
}

#[test]
fn stereo_oracle_accepts_only_rounding_ties() {
    // Reference errors agree with `reference_depth`: its argmin is theirs.
    let cfg = stereo::shape(true).cfg;
    let want = reference_depth(&cfg, 9);
    let err = stereo::reference_errors(&cfg, 9);
    for (k, &w) in want.iter().enumerate() {
        assert!(err.iter().all(|e| e[k] >= err[w as usize][k]));
    }
    assert!(stereo::depth_ok(&cfg, 9, &want, &want));
    // The runner-up disparity of some pixel is no tie: it must fail.
    let mut got = want.clone();
    got[0] = (want[0] + 1) % cfg.max_disp as u16;
    assert!(!stereo::depth_ok(&cfg, 9, &got, &want));
    got[0] = cfg.max_disp as u16;
    assert!(
        !stereo::depth_ok(&cfg, 9, &got, &want),
        "an out-of-range disparity fails"
    );
}

#[test]
fn qsort_oracle_rejects_disorder_and_lost_keys() {
    let p = 4;
    let keys: Vec<i64> = (0..64).collect();
    let sum = qsort::key_sum(&keys);
    // Corrupt the sorted blocks (16 keys each), then run the collective
    // check.
    let verdict = |corrupt: fn(usize, &mut [i64])| {
        let rep = spmd(&machine(p), |cx| {
            let g = cx.group();
            let mut a = DArray1::from_global(cx, &g, Dist1::Block, &keys);
            corrupt(cx.id(), a.local_mut());
            qsort::check_sorted(cx, a.local(), sum)
        });
        assert!(
            rep.results.iter().all(|&r| r == rep.results[0]),
            "every member agrees"
        );
        rep.results[0]
    };
    assert!(verdict(|_, _| {}), "a sorted array passes");
    assert!(
        !verdict(|id, b| if id == 1 {
            b.swap(0, 1)
        }),
        "local disorder fails"
    );
    // Blocks 0 and 1 trade contents: each stays sorted, the multiset is
    // unchanged, only the order across the boundary is wrong.
    let trade = |id: usize, b: &mut [i64]| match id {
        0 => b.iter_mut().for_each(|v| *v += 16),
        1 => b.iter_mut().for_each(|v| *v -= 16),
        _ => {}
    };
    assert!(
        !verdict(trade),
        "blocks out of order across processors fail"
    );
    assert!(
        !verdict(|id, b| if id == 1 {
            b[0] += 1
        }),
        "a changed key fails the multiset checksum"
    );
}

#[test]
fn serve_oracle_rejects_wrong_and_lost_answers() {
    let sh = serve::shape(true);
    let fcfg = fx_apps::ffthist::FftHistConfig::new(sh.n, 1);
    let trace = serve::trace(&sh, serve::RATES[1].1, 5);
    let refs: Vec<Vec<u64>> = serve::payloads(5)
        .into_iter()
        .map(|d| fx_apps::ffthist::reference_histogram(&fcfg, d))
        .collect();
    let mut rep = serve::serve(machine(sh.p), &sh, &trace);
    assert_eq!(serve::count_wrong(&rep, &trace, &refs), 0);
    rep.completions[0].output[0] += 1;
    assert_eq!(serve::count_wrong(&rep, &trace, &refs), 1);
    rep.completions.pop();
    assert!(
        serve::count_wrong(&rep, &trace, &refs) >= 2,
        "a lost request fails"
    );
}

#[test]
fn knee_is_the_highest_passing_rung() {
    assert_eq!(serve::knee(|r| r <= 13.0), 13.0);
    assert_eq!(serve::knee(|r| r <= 18.0), 18.0);
    assert_eq!(serve::knee(|_| true), 25.0);
    assert_eq!(serve::knee(|_| false), 0.0);
}

/// The Stereo DP row of `results/table1.txt`: (throughput, latency).
fn table1_stereo_row() -> (String, String) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../results/table1.txt");
    let text = std::fs::read_to_string(path).expect("read results/table1.txt");
    let row = text
        .lines()
        .find(|l| l.trim_start().starts_with("Stereo"))
        .expect("Table 1 has a Stereo row");
    let cols: Vec<&str> = row.split_whitespace().collect();
    (cols[2].to_string(), cols[3].to_string())
}

#[test]
fn stereo_virtual_time_matches_table1_at_its_settings() {
    // Table 1 runs the Stereo DP stream on 8 sets and skips 2.
    let cfg = StereoConfig {
        datasets: 8,
        ..StereoConfig::paper()
    };
    let sets: Vec<usize> = (0..cfg.datasets).collect();
    let rep = stereo::pass(&machine(64), &cfg, &sets);
    let vt = stereo::vt(&rep);
    let (thr, lat) = table1_stereo_row();
    assert_eq!(format!("{:.2}", vt.sets_per_s), thr);
    assert_eq!(format!("{:.3}", vt.latency), lat);
}

fn run_bench(args: &[&str], env: &[(&str, &str)]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_fx-perfbench"))
        .args(args)
        .envs(env.iter().copied())
        .output()
        .expect("run the benchmark");
    assert!(
        out.status.success(),
        "benchmark failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn every_workload_prints_every_metric_at_smoke_size_on_a_second_seed() {
    for w in WORKLOADS {
        for (trace, list) in [("0", END_TO_END), ("1", PER_LAYER)] {
            let args = [
                "--workload",
                w,
                "--seed",
                "7",
                "--seconds",
                "0",
                "--trace",
                trace,
                "--smoke",
            ];
            let text = run_bench(&args, &[]);
            let last = text.lines().last().expect("a result line");
            assert!(
                last.starts_with("{\"correct\":true,"),
                "{w} trace {trace}: {last}"
            );
            for (name, unit) in list {
                let field = format!("\"{name}\":{{\"value\":");
                let at = last
                    .find(&field)
                    .unwrap_or_else(|| panic!("{w}: {name} missing"));
                let rest = &last[at..];
                let end = rest.find('}').expect("closed metric object");
                assert!(
                    rest[..end].ends_with(&format!("\"unit\":\"{unit}\"")),
                    "{w}: {name} lacks unit {unit}"
                );
            }
            assert_eq!(
                last.matches("\"unit\":").count(),
                list.len(),
                "{w}: exactly the listed metrics"
            );
        }
    }
}

#[test]
fn ambient_fx_variables_are_recorded_and_do_not_change_the_pins() {
    let args = [
        "--workload",
        "qsort-p256",
        "--seconds",
        "0",
        "--trace",
        "0",
        "--smoke",
    ];
    let plain = run_bench(&args, &[]);
    let env = [
        ("FX_EXECUTOR", "threaded"),
        ("FX_HEARTBEAT", "off"),
        ("FX_DATAFLOW", "off"),
    ];
    let noisy = run_bench(&args, &env);
    let manifest = noisy.lines().next().expect("manifest line");
    assert!(
        manifest.contains("\"FX_EXECUTOR\":\"threaded\""),
        "{manifest}"
    );
    assert!(manifest.contains("\"executor\":\"pooled("), "{manifest}");
    assert!(manifest.contains("\"heartbeat\":\"on\""), "{manifest}");
    assert!(manifest.contains("\"dataflow\":\"on\""), "{manifest}");
    assert!(manifest.contains("\"pinned_ok\":true"), "{manifest}");
    let vt = |s: &str| {
        s.lines()
            .find(|l| l.starts_with("vt.makespan_s"))
            .map(str::to_string)
    };
    assert!(vt(&plain).is_some());
    assert_eq!(
        vt(&plain),
        vt(&noisy),
        "virtual time is unchanged by ambient FX_* variables"
    );
}

#[test]
fn benchmark_json_lists_the_metrics_the_code_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in WORKLOADS {
        assert!(
            json.contains(&format!("\"name\": \"{w}\"")),
            "BENCHMARK.json lacks workload {w}"
        );
    }
    let names = json.matches("\"name\":").count();
    assert_eq!(names, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
}
