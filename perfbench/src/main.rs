//! `gdb-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints every metric by name with its unit, then, as the last line, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. Exits 1
//! when an output check fails and 2 on bad arguments.

use gdb_perfbench::report::{self, Metric};
use gdb_perfbench::run::{self, Failure, Spec, WorkloadKind};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    workload: WorkloadKind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: gdb-perfbench --workload <tpcc-mix|tpcc-ror|point-select> \
                     --seed <n> --seconds <1..=600> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(WorkloadKind::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Where a traced run writes its spans: under the build directory.
fn spans_path(args: &Args) -> PathBuf {
    let dir =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| ".bench_build".into(), PathBuf::from);
    dir.join("perfbench-spans")
        .join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed))
}

fn print_metrics(metrics: &[Metric]) {
    for x in metrics {
        println!("{:<40} {:>16.4} {}", x.name, x.value, x.unit);
    }
}

/// Run and report; `Err` carries the reason the run is not correct.
fn run(args: &Args) -> Result<(u64, Vec<Metric>), Failure> {
    let spec = Spec::new(args.workload, args.seed, Duration::from_secs(args.seconds));
    println!(
        "workload {} seed {} wall {} s, {} terminals, virtual warm-up {:?} + window {:?}",
        args.workload.name(),
        args.seed,
        args.seconds,
        spec.shape.terminals,
        spec.shape.warmup,
        spec.shape.window
    );
    if args.trace {
        let traced = run::run_traced(&spec)?;
        let path = spans_path(args);
        let t = &traced.traced.totals;
        let done = traced.traced.attempts + traced.untraced.attempts;
        t.write_spans(&path)
            .map_err(|e| Failure::new(format!("write {}: {e}", path.display()), done, 0))?;
        println!(
            "spans: {} kept, {} beyond the cap, written to {}",
            t.spans.len(),
            t.spans_dropped,
            path.display()
        );
        let metrics = report::per_layer(&traced);
        print_metrics(&metrics);
        Ok((traced.traced.wall.attempts, metrics))
    } else {
        let plain = run::run_plain(&spec)?;
        let v = &plain.measured.virt;
        let count = |s: Option<gdb_perfbench::percentile::Summary>| s.map_or(0, |s| s.count);
        println!(
            "virtual window: {} attempts, {} commits, {} retryable aborts; \
             latency samples {}, staleness samples {}",
            v.attempts,
            v.commits,
            v.retryable,
            count(v.latency_ns),
            count(v.staleness_ns)
        );
        let setups: Vec<String> = plain
            .setups
            .iter()
            .map(|s| format!("{:.3}", s.total_s()))
            .collect();
        println!("set-ups (s): {}", setups.join(" "));
        let metrics =
            report::end_to_end(&plain).map_err(|e| Failure::new(e, plain.measured.attempts, 0))?;
        print_metrics(&metrics);
        Ok((plain.measured.wall.attempts, metrics))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((attempted, metrics)) => {
            println!("{}", report::json_line(true, attempted, 0, &metrics));
            ExitCode::SUCCESS
        }
        Err(f) => {
            eprintln!("check failed: {}", f.reason);
            println!("{}", report::json_line(false, f.attempted, f.failed, &[]));
            ExitCode::from(1)
        }
    }
}
