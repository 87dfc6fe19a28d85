//! The CI contract gate (see [`scaffold_bench::check`]): diff a fresh
//! `--json --smoke` experiment run against the committed
//! `BENCH_engine.json` baseline and exit non-zero on any drift.
//!
//! ```text
//! exp engine_scale workload net gauntlet --json --smoke > fresh.json
//! bench_check BENCH_engine.json fresh.json
//! ```
//!
//! Every baseline document must reappear as the identical line; a `[full]`
//! document the fresh run lacks is skipped. See `crates/bench/README.md`.

use scaffold_bench::check::check_regression;

fn main() {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    let [baseline, fresh] = paths.as_slice() else {
        eprintln!("usage: bench_check <baseline.json> <fresh.json>");
        std::process::exit(2);
    };
    let read = |p: &str| {
        std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("bench_check: cannot read {p}: {e}");
            std::process::exit(2);
        })
    };
    let report = check_regression(&read(baseline), &read(fresh));
    println!(
        "bench_check: {} documents compared exactly, {} absent [full] documents skipped",
        report.compared, report.skipped
    );
    if report.ok() {
        println!("bench_check: OK — no drift against {baseline}");
    } else {
        eprintln!(
            "bench_check: {} failure(s) against {baseline}:",
            report.failures.len()
        );
        for f in &report.failures {
            eprintln!("  - {f}");
        }
        eprintln!(
            "If the change is intentional, regenerate the baseline \
             (see crates/bench/README.md)."
        );
        std::process::exit(1);
    }
}
