//! `exp` — every experiment of the harness, one row of a static table per
//! experiment family.
//!
//! ```text
//! exp <row>... [N] [--json] [--smoke] [--full] [--sched S] [--net M]
//! ```
//!
//! Rows run in the order given and share one parsed command line
//! ([`ExpArgs`]); `N` is each row's seed or trial count. The `--json
//! --smoke` output of `engine_scale workload net gauntlet` is the committed
//! `BENCH_engine.json` contract (`bench_check` diffs it exactly). An
//! unknown row, an unknown flag or a malformed option value exits with
//! status 2 before anything runs.

mod engine;
mod gauntlet;
mod net;
mod paper;
mod workload;

use scaffold_bench::ExpArgs;

/// A row: its name on the command line and the function that emits it.
type Row = (&'static str, fn(&ExpArgs));

const ROWS: &[Row] = &[
    ("cbt_convergence", paper::cbt_convergence),
    ("chord_convergence", paper::chord_convergence),
    ("degree_expansion", paper::degree_expansion),
    ("phase_reset", paper::phase_reset),
    ("scaffold_to_chord", paper::scaffold_to_chord),
    ("false_chord", paper::false_chord),
    ("baselines", paper::baselines),
    ("robustness", paper::robustness),
    ("routing", paper::routing),
    ("topologies", paper::topologies),
    ("churn", paper::churn),
    ("finger_variants", paper::finger_variants),
    ("engine_scale", engine::engine_scale),
    ("workload", workload::workload),
    ("net", net::net),
    ("gauntlet", gauntlet::gauntlet),
];

/// The rows `args` names, in order; `Err` when none is given or one is
/// unknown.
fn selected(args: &ExpArgs) -> Result<Vec<fn(&ExpArgs)>, String> {
    if args.rows.is_empty() {
        return Err("no row given".into());
    }
    args.rows
        .iter()
        .map(|name| {
            let row = ROWS.iter().find(|(n, _)| n == name);
            row.map(|&(_, run)| run)
                .ok_or_else(|| format!("unknown row {name:?}"))
        })
        .collect()
}

/// Print a row's reading guide under its human-readable tables.
fn note(args: &ExpArgs, lines: &[&str]) {
    if !args.json {
        println!("\n{}", lines.join("\n"));
    }
}

fn fail(e: &str) -> ! {
    let names: Vec<&str> = ROWS.iter().map(|&(n, _)| n).collect();
    eprintln!("exp: {e}\nrows: {}", names.join(" "));
    std::process::exit(2);
}

fn main() {
    let args = ExpArgs::from_env().unwrap_or_else(|e| fail(&e));
    for run in selected(&args).unwrap_or_else(|e| fail(&e)) {
        run(&args);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_resolve_by_name_and_unknown_names_are_rejected() {
        let args = |rows: &[&str]| ExpArgs {
            rows: rows.iter().map(|s| s.to_string()).collect(),
            ..ExpArgs::default()
        };
        assert_eq!(selected(&args(&["net", "workload"])).unwrap().len(), 2);
        let e = selected(&args(&["net", "exp_net"])).err().unwrap();
        assert!(e.contains("exp_net"), "{e}");
        assert!(selected(&args(&[])).is_err());
    }
}
