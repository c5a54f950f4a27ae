//! The RSSE serving benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <zipf_hot|conj_cold|churn_disk|sharded_churn> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. With `--trace 0` the run reports every
//! end-to-end metric; with `--trace 1` it records spans around its calls
//! into each layer and reports every per-layer metric instead, dumping the
//! spans under `.bench_work/`. The last line of standard output is the
//! result: `{"correct", "attempted", "failed", "metrics"}`; the line before
//! it is the detailed report (host, corpus, phases, sample counts).
//! `--describe` prints the workloads, rates, limits and the per-layer →
//! end-to-end predictions.

mod check;
mod cpu;
mod layers;
mod load;
mod sched;
mod spec;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;
use workload::{json_str, num, RunArgs};

fn usage() -> String {
    let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       perfbench --describe",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(spec::workload(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("seconds out of range: {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        probe: false,
    })
}

fn describe() {
    println!("corpus {}: {:?}", spec::CORPUS, spec::corpus(0));
    for w in &spec::WORKLOADS {
        let listed = if spec::BENCHMARKED.contains(&w.name) {
            "in BENCHMARK.json"
        } else {
            "layer probe"
        };
        println!(
            "{:<14} ({listed}) rates {:?} req/s, p99 limit {} ms\n  {}",
            w.name, w.rates, w.p99_limit_ms, w.why
        );
    }
    for (host, probe, metrics) in &spec::PROBES {
        println!("traced {host} also runs {probe} for {metrics:?}");
    }
    println!("\nper-layer metric -> end-to-end metric it should move | where it should stay flat");
    for (layer, moves, flat) in &spec::PREDICTIONS {
        println!("{layer}\n  moves: {moves}\n  flat:  {flat}");
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--describe") {
        describe();
        return ExitCode::SUCCESS;
    }
    let run = match parse(&args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let result = match workload::run(&run) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let table: Vec<(&str, &str)> = if run.trace {
        spec::PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
    } else {
        spec::END_TO_END.iter().map(|m| (m.0, m.1)).collect()
    };
    eprintln!(
        "{} seed {}{}:",
        run.workload.name,
        run.seed,
        if run.trace { " (traced)" } else { "" }
    );
    for (name, unit) in &table {
        if let Some(v) = result.metrics.get(name) {
            eprintln!("  {name:<36} {v:>14.4} {unit}");
        }
    }
    if !run.trace {
        eprintln!("over TCP (reported, not in the result):");
        for (name, unit) in &spec::REPORTED {
            if let Some(v) = result.metrics.get(name) {
                eprintln!("  {name:<36} {v:>14.4} {unit}");
            }
        }
    }
    eprintln!(
        "  {:<36} {:>14.6} ratio ({} failed of {} attempted)",
        "error_rate",
        result.failed as f64 / result.attempted as f64,
        result.failed,
        result.attempted
    );
    let metrics: Vec<String> = table
        .iter()
        .filter_map(|(name, unit)| {
            let v = result.metrics.get(name)?;
            Some(format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                num(*v),
                json_str(unit)
            ))
        })
        .collect();
    println!("{}", result.detail);
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        result.correct,
        result.attempted,
        result.failed,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}
