//! Benchmark command line. Usage:
//!
//! ```text
//! fx-perfbench --workload <stereo-p64|qsort-p256|serve-ffthist|all>
//!              [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! ```
//!
//! Prints the run manifest, one `name = value unit` line per metric, and
//! as the last line one JSON object `{correct, attempted, failed,
//! metrics}`. `--trace 0` reports the end-to-end metrics, `--trace 1`
//! the per-layer ones. `--workload all` runs every workload both ways,
//! each in its own process.

use std::process::{Command, ExitCode};
use std::time::Instant;

use fx_perfbench::common::{machine, manifest, pinned_ok, scrub_fx_env, Opts};
use fx_perfbench::{procs, result_json, run_workload, WORKLOADS};

fn parse() -> Result<Opts, String> {
    let start = Instant::now();
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        smoke: false,
        start,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = || args.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => opts.workload = val()?,
            "--seed" => opts.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds >= 0.0 && opts.seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                opts.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--smoke" => opts.smoke = true,
            _ => return Err(format!("unknown argument {a}")),
        }
    }
    if opts.workload != "all" && !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?} or all"));
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let ambient = scrub_fx_env();
    let opts = match parse() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("fx-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if opts.workload == "all" {
        return run_all(&opts);
    }
    let p = procs(&opts.workload, opts.smoke);
    println!("{}", manifest(&opts, &ambient, p));
    let out = run_workload(&opts);
    for line in &out.notes {
        println!("# {line}");
    }
    for m in &out.metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_json(&out, opts.trace, pinned_ok(&machine(p))));
    ExitCode::SUCCESS
}

/// Every workload, untraced then traced, each in a child process so that
/// set-up time and peak memory are the workload's own.
fn run_all(opts: &Opts) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut all_ok = true;
    for w in WORKLOADS {
        for trace in ["0", "1"] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w, "--seed", &opts.seed.to_string()])
                .args(["--seconds", &opts.seconds.to_string(), "--trace", trace]);
            if opts.smoke {
                cmd.arg("--smoke");
            }
            let output = cmd.output().expect("run a workload");
            let text = String::from_utf8_lossy(&output.stdout);
            print!("{text}");
            let last = text.lines().last().unwrap_or("");
            all_ok &= output.status.success() && last.starts_with("{\"correct\":true");
        }
    }
    println!("{{\"correct\":{all_ok}}}");
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
