//! Bench-artifact tooling for the CI perf gate:
//!
//! ```text
//! benchcmp merge OUT.json IN1.json [IN2.json ...]
//! benchcmp check BASELINE.json CURRENT.json
//! benchcmp validate FILE.json [FILE.json ...]
//! ```
//!
//! `merge` bundles several `gdb-bench/v1` artifacts into one
//! `gdb-bench/bundle/v1` document. `check` runs the gates each artifact
//! of a committed baseline lists (figure throughput and phases, in-run
//! ratios with floors, counter ceilings) against the current run and
//! exits non-zero if any gate fails or a gated series disappeared.
//! `validate` parses every given artifact file and fails on schema
//! drift (malformed gates, gated metrics missing from the series, broken
//! quantile ordering, duplicate or missing series) — the lint stage runs
//! it over all committed `BENCH_*.json` baselines so drift is caught
//! before a bench run.
//! `.toml` arguments are linted as scenario files instead (unknown
//! tables/keys, dangling plan or fault names), so the same stage covers
//! the committed `scenarios/*.toml`.

use gdb_obs::report::TOLERANCE;
use gdb_obs::{bundle, compare_artifacts, load_artifacts, validate_artifacts, BenchArtifact, Json};
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: benchcmp merge OUT.json IN.json [IN.json ...]\n\
         \x20      benchcmp check BASELINE.json CURRENT.json\n\
         \x20      benchcmp validate FILE.json|SCENARIO.toml [...]"
    );
    std::process::exit(2);
}

fn read_artifacts(path: &str) -> Vec<BenchArtifact> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("benchcmp: read {path}: {e}");
        std::process::exit(2);
    });
    let doc = Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("benchcmp: parse {path}: {e}");
        std::process::exit(2);
    });
    load_artifacts(&doc).unwrap_or_else(|e| {
        eprintln!("benchcmp: {path}: {e}");
        std::process::exit(2);
    })
}

fn merge(out: &str, inputs: &[String]) -> ExitCode {
    let mut all = Vec::new();
    for path in inputs {
        all.extend(read_artifacts(path));
    }
    let doc = bundle(&all).to_pretty();
    if let Err(e) = std::fs::write(out, doc) {
        eprintln!("benchcmp: write {out}: {e}");
        return ExitCode::from(2);
    }
    println!("merged {} artifacts into {out}", all.len());
    ExitCode::SUCCESS
}

fn check(baseline: &str, current: &str) -> ExitCode {
    let base = read_artifacts(baseline);
    let cur = read_artifacts(current);
    let comparisons = compare_artifacts(&base, &cur);
    if comparisons.is_empty() {
        eprintln!("benchcmp: baseline {baseline} has no series to compare");
        return ExitCode::from(2);
    }
    let mut failed = 0;
    for c in &comparisons {
        println!("{}", c.render());
        if !c.ok {
            failed += 1;
        }
    }
    if failed > 0 {
        eprintln!(
            "benchcmp: {failed}/{} comparisons regressed more than {:.0}% vs {baseline}",
            comparisons.len(),
            TOLERANCE * 100.0
        );
        ExitCode::FAILURE
    } else {
        println!(
            "all {} comparisons within {:.0}% of {baseline}",
            comparisons.len(),
            TOLERANCE * 100.0
        );
        ExitCode::SUCCESS
    }
}

fn validate(paths: &[String]) -> ExitCode {
    let mut problems = 0;
    let mut artifacts = 0;
    let mut scenarios = 0;
    for path in paths {
        if path.ends_with(".toml") {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("benchcmp: read {path}: {e}");
                std::process::exit(2);
            });
            scenarios += 1;
            for msg in gdb_chaos::scenario::lint(&text) {
                eprintln!("benchcmp: {path}: {msg}");
                problems += 1;
            }
            continue;
        }
        let arts = read_artifacts(path);
        artifacts += arts.len();
        for msg in validate_artifacts(&arts) {
            eprintln!("benchcmp: {path}: {msg}");
            problems += 1;
        }
    }
    if problems > 0 {
        eprintln!(
            "benchcmp: {problems} problem(s) across {} file(s)",
            paths.len()
        );
        ExitCode::FAILURE
    } else {
        println!(
            "validated {artifacts} artifacts and {scenarios} scenario(s) across {} file(s)",
            paths.len()
        );
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("merge") if args.len() >= 3 => merge(&args[1], &args[2..]),
        Some("validate") if args.len() >= 2 => validate(&args[1..]),
        Some("check") if args.len() == 3 => check(&args[1], &args[2]),
        _ => usage(),
    }
}
