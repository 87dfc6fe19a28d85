//! The repo's benchmark: five workloads over the stabilize → serve → churn
//! → checkpoint chain, measured end to end with tracing off and layer by
//! layer in a separate traced run. See `README.md` beside this file for the
//! metric tables, the clock each number uses, and how to run it.
//!
//! ```text
//! benchmark [--workload NAME]... [--seed S] [--seconds T] [--trace [0|1]]
//!           [--out FILE] [--check-noise]
//! ```
//!
//! One `--workload` runs in this process and prints, as its last line, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`: every
//! end-to-end metric without `--trace`, every per-layer metric with it.
//! Several (or no) `--workload`s run one child process each, so that peak
//! memory and page layout are per workload.

mod fixture;
mod stats;
mod trace;
mod workloads;

use fixture::Plain;
use stats::{median, summarize};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use trace::{Timed, Tracer};
use workloads::{Outcome, Params, NAMES};

/// One metric of `BENCHMARK.json`: name, unit, which direction is better,
/// and (end to end only) the share of the parent's median it may worsen by.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// End-to-end metrics, reported by every workload: three host-clock
/// quantities, the memory ledger's count, and `rounds_per_op`, the simulated
/// cost of the workload's operation (deterministic per seed).
pub const END_TO_END: [MetricDef; 5] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("host_rounds_per_s", "1/s", "higher", 0.25),
    e2e("rounds_per_op", "rounds", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.25),
    e2e("mem_bytes_per_host", "B", "lower", 0.1),
];

/// Per-layer metrics, by module. Simulated numbers (rounds, counts,
/// ratios of counts) repeat exactly per seed; `ns` and `1/s` are host time.
pub const PER_LAYER: [MetricDef; 57] = [
    layer("ssim.runtime.step_ns_per_host_round", "ns", "lower"),
    layer("ssim.runtime.self_ns_per_host_round", "ns", "lower"),
    layer("ssim.runtime.msgs_per_round", "count", "lower"),
    layer("ssim.runtime.activations_per_round", "count", "lower"),
    layer("ssim.runtime.engine_bytes_per_host", "B", "lower"),
    layer("ssim.sched.activation_ratio", "ratio", "lower"),
    layer("ssim.sched.dormant_ns_per_round", "ns", "lower"),
    layer("ssim.par.ratio_2t", "ratio", "lower"),
    layer("ssim.par.syncs_per_round", "count", "lower"),
    layer("ssim.par.par_round_share", "ratio", "higher"),
    layer("ssim.topology.bytes_per_host", "B", "lower"),
    layer("ssim.topology.edge_op_ns", "ns", "lower"),
    layer("ssim.arena.inbox_bytes_per_host", "B", "lower"),
    layer("ssim.compact.map_get_ns", "ns", "lower"),
    layer("ssim.compact.map_insert_ns", "ns", "lower"),
    layer("ssim.net.transit_bytes_per_host", "B", "lower"),
    layer("ssim.net.delay_ns_per_msg", "ns", "lower"),
    layer("ssim.net.sent", "count", "lower"),
    layer("ssim.net.delivered", "count", "lower"),
    layer("ssim.snapshot.save_ns_per_host", "ns", "lower"),
    layer("ssim.snapshot.restore_ns_per_host", "ns", "lower"),
    layer("ssim.snapshot.unseal_ns_per_byte", "ns", "lower"),
    layer("ssim.snapshot.bytes_per_host", "B", "lower"),
    layer("ssim.snapshot.hosts_per_s", "1/s", "higher"),
    layer("ssim.workload.bytes_per_host", "B", "lower"),
    layer("ssim.workload.lookups_per_s", "1/s", "higher"),
    layer("ssim.workload.lookups", "count", "higher"),
    layer("ssim.workload.lookup_fail_ratio", "ratio", "lower"),
    layer("ssim.workload.lookup_p50_rounds", "rounds", "lower"),
    layer("ssim.workload.lookup_p99_rounds", "rounds", "lower"),
    layer("ssim.workload.forwards_per_lookup", "ratio", "lower"),
    layer("ssim.workload.retries_per_lookup", "ratio", "lower"),
    layer("ssim.workload.traffic_ns_per_round", "ns", "lower"),
    layer("ssim.fault.inject_ns_per_event", "ns", "lower"),
    layer("ssim.fault.events", "count", "lower"),
    layer("ssim.monitor.legality_ns_per_check", "ns", "lower"),
    layer("ssim.monitor.checks", "count", "lower"),
    layer("chord-scaffold.step_ns_per_call", "ns", "lower"),
    layer("chord-scaffold.step_calls", "count", "lower"),
    layer("chord-scaffold.step_share", "ratio", "lower"),
    layer("chord-scaffold.route_ns_per_call", "ns", "lower"),
    layer("chord-scaffold.route_calls", "count", "lower"),
    layer("chord-scaffold.program_bytes_per_host", "B", "lower"),
    layer("chord-scaffold.phase_host_rounds.cbt", "count", "lower"),
    layer("chord-scaffold.phase_host_rounds.chord", "count", "lower"),
    layer("chord-scaffold.phase_host_rounds.done", "count", "lower"),
    layer("chord-scaffold.rounds_to_legal", "rounds", "lower"),
    layer("chord-scaffold.degree_expansion", "ratio", "lower"),
    layer("avatar-cbt.rounds_to_legal", "rounds", "lower"),
    layer("avatar-cbt.step_ns_per_call", "ns", "lower"),
    layer("overlay.avatar.range_of_ns", "ns", "lower"),
    layer("overlay.avatar.project_edges_ns_per_edge", "ns", "lower"),
    layer("overlay.chord.finger_ns", "ns", "lower"),
    layer("trace.overhead_ratio", "ratio", "lower"),
    layer("trace.spans", "count", "lower"),
    layer("trace.rounds", "count", "lower"),
    layer("trace.host_rounds", "count", "lower"),
];

/// One reported number, with the repetitions it was derived from (printed
/// beside it with their quartiles) when there are any.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: Vec<f64>,
}

impl Metric {
    fn single(name: &'static str, unit: &'static str, value: f64) -> Self {
        Self::of(name, unit, value, &[])
    }

    fn median(name: &'static str, unit: &'static str, samples: &[f64]) -> Self {
        Self::of(name, unit, median(samples), samples)
    }

    fn of(name: &'static str, unit: &'static str, value: f64, samples: &[f64]) -> Self {
        Self {
            name,
            unit,
            value,
            samples: samples.to_vec(),
        }
    }
}

/// The result of one workload run: what gets printed.
struct Report {
    workload: &'static str,
    seed: u64,
    correct: bool,
    attempted: u64,
    failed: u64,
    checks: Vec<(String, bool)>,
    /// The metrics of the result line.
    metrics: Vec<Metric>,
    /// Further numbers printed for the reader only.
    notes: Vec<Metric>,
    sim_digest: u64,
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Pin glibc's mmap threshold at its initial value. Left alone it adapts to
/// the sizes freed so far, and whether a fixture's large blocks then come
/// from `mmap` (returned on free) or from the heap (retained) depends on
/// exact allocation sizes: `peak_rss_mb` read 295, 332 or 365 MiB on
/// `checkpoint-cycle` depending on the seed, and 276-287 MiB pinned.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_mmap_threshold() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only sets a tunable of the C allocator; it is
    // called first thing in `main`, before any other thread exists.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_mmap_threshold() {}

fn unit_of(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

fn run_untraced(workload: &'static str, seed: u64, seconds: u64) -> Report {
    let out = workloads::run::<Plain>(
        workload,
        &workloads::params(workload, seconds),
        seed,
        &mut None,
    );
    let metrics = vec![
        Metric::median("setup_s", "s", &out.setups_s),
        Metric::of(
            "host_rounds_per_s",
            "1/s",
            out.rate(&out.samples[0].values),
            &out.samples[0].values,
        ),
        Metric::of("rounds_per_op", "rounds", out.rounds_per_op, &out.op_rounds),
        Metric::single("peak_rss_mb", "MiB", peak_rss_mib()),
        Metric::single("mem_bytes_per_host", "B", out.mem_bytes_per_host),
    ];
    let mut notes = vec![Metric::median("repetition_wall_s", "s", &out.walls_s)];
    notes.extend(
        out.samples[1..]
            .iter()
            .map(|s| Metric::of(s.name, s.unit, out.rate(&s.values), &s.values)),
    );
    notes.extend(
        out.layers
            .iter()
            .map(|&(name, v)| Metric::single(name, unit_of(name), v)),
    );
    Report {
        workload,
        seed,
        correct: out.correct(),
        attempted: out.attempted,
        failed: out.failed,
        checks: out
            .checks
            .iter()
            .map(|&(n, ok)| (n.to_string(), ok))
            .collect(),
        metrics,
        notes,
        sim_digest: out.sim_digest,
    }
}

/// Layer values one workload contributes to a traced run: an untraced and a
/// traced execution of the same work, which must agree on every simulated
/// number; their wall-time ratio is the tracing overhead.
struct Traced {
    plain: Outcome,
    timed: Outcome,
    tracer: Tracer,
    layers: Vec<(&'static str, f64)>,
}

fn trace_workload(workload: &'static str, p: &Params, seed: u64) -> Traced {
    let plain = workloads::run::<Plain>(workload, p, seed, &mut None);
    let mut tracer = Tracer::new();
    let root = tracer.enter(workload);
    let mut tracer = Some(tracer);
    let timed = workloads::run::<Timed<Plain>>(workload, p, seed, &mut tracer);
    let mut tracer = tracer.expect("workloads leave the tracer in place");
    tracer.exit(root);

    let mut layers = timed.layers.clone();
    // Host-time rates come from the untraced execution.
    layers.extend(
        plain.samples[1..]
            .iter()
            .map(|s| (s.name, plain.rate(&s.values))),
    );
    layers.push((
        "trace.overhead_ratio",
        median(&timed.walls_s) / median(&plain.walls_s),
    ));
    layers.push(("trace.spans", tracer.spans.len() as f64));
    layers.push(("trace.rounds", tracer.rounds as f64));
    layers.push(("trace.host_rounds", tracer.host_rounds as f64));
    if workload == "sweep-silent" {
        // The same sweep on two round-execution threads.
        let two = workloads::run::<Plain>(workload, &Params { threads: 2, ..*p }, seed, &mut None);
        layers.push((
            "ssim.par.ratio_2t",
            median(&two.walls_s) / median(&plain.walls_s),
        ));
        layers.extend(two.layers.iter().filter(|l| l.0.starts_with("ssim.par.")));
    }
    Traced {
        plain,
        timed,
        tracer,
        layers,
    }
}

fn run_traced(workload: &'static str, seed: u64, seconds: u64, out_file: Option<&str>) -> Report {
    let full = workloads::params(workload, seconds);
    let p = Params {
        setups: 1,
        reps: (full.reps / 4).max(4),
        ..full
    };
    let t = trace_workload(workload, &p, seed);
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    values.extend(workloads::direct_layers(seed));
    values.extend(t.layers.iter().copied());
    let mut checks = Vec::new();
    for (prefix, o) in [("untraced", &t.plain), ("traced", &t.timed)] {
        checks.extend(
            o.checks
                .iter()
                .map(|&(n, ok)| (format!("{prefix}: {n}"), ok)),
        );
    }
    checks.push((
        "tracing leaves every simulated number unchanged".to_string(),
        t.plain.sim_digest == t.timed.sim_digest,
    ));

    if let Some(path) = out_file {
        let doc = format!(
            "{{\"env\":{},\"run_id\":\"{workload}-{seed}\",\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":{}}}\n",
            env_json(),
            t.tracer.spans_json()
        );
        write_file(path, &doc);
    }
    let failed = t.plain.failed + t.timed.failed;
    Report {
        workload,
        seed,
        correct: failed == 0 && checks.iter().all(|c| c.1),
        attempted: t.plain.attempted + t.timed.attempted,
        failed,
        checks,
        // A layer this workload bypasses reads 0: no time spent in it, no
        // calls made. Its value is in the traced run of the workload that
        // exercises it.
        metrics: PER_LAYER
            .iter()
            .map(|m| Metric::single(m.name, m.unit, values.get(m.name).copied().unwrap_or(0.0)))
            .collect(),
        notes: Vec::new(),
        sim_digest: t.timed.sim_digest,
    }
}

fn write_file(path: &str, text: &str) {
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("benchmark: cannot write {path}: {e}");
    }
}

/// The span file of one workload of a suite run: `spans.json` becomes
/// `spans.<workload>.json`.
fn out_for(path: &str, workload: &str) -> String {
    match path.rsplit_once('.') {
        Some((stem, ext)) if !stem.is_empty() && !ext.contains('/') => {
            format!("{stem}.{workload}.{ext}")
        }
        _ => format!("{path}.{workload}"),
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metric_line(prefix: &str, m: &Metric) -> String {
    let mut line = format!(
        "{prefix} {} {} value={}",
        m.name,
        m.unit,
        json_number(m.value)
    );
    if !m.samples.is_empty() {
        let s = summarize(&m.samples);
        let _ = write!(
            line,
            " n={} median={} q1={} q3={} spread={:.4}",
            s.n,
            json_number(s.median),
            json_number(s.q1),
            json_number(s.q3),
            s.spread()
        );
        let samples: Vec<String> = m.samples.iter().map(|v| format!("{v:.6e}")).collect();
        let _ = write!(line, " samples=[{}]", samples.join(","));
    }
    line
}

fn print_report(r: &Report) {
    println!(
        "workload {} seed {} sim_digest {:016x}",
        r.workload, r.seed, r.sim_digest
    );
    for m in &r.metrics {
        println!("{}", metric_line("metric", m));
    }
    for m in &r.notes {
        println!("{}", metric_line("note", m));
    }
    for (name, ok) in &r.checks {
        println!("check {} {name}", if *ok { "ok" } else { "FAILED" });
    }
    println!("ops attempted={} failed={}", r.attempted, r.failed);
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_string(m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        r.correct,
        r.attempted.max(1),
        r.failed,
        metrics.join(",")
    );
}

// ---- where a number was recorded -------------------------------------------

fn first_line(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    Some(line.split(':').nth(1).unwrap_or(line).trim().to_string())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The hardware and toolchain a file of numbers was recorded on.
fn env_json() -> String {
    let file = |path: &str| std::fs::read_to_string(path).ok();
    let thp = file("/sys/kernel/mm/transparent_hugepage/enabled")
        .and_then(|s| Some(s.split_once('[')?.1.split_once(']')?.0.to_string()));
    let fields = [
        ("cpu", first_line("/proc/cpuinfo", "model name")),
        (
            "nproc",
            std::thread::available_parallelism()
                .ok()
                .map(|n| n.to_string()),
        ),
        (
            "kernel",
            file("/proc/sys/kernel/osrelease").map(|s| s.trim().to_string()),
        ),
        ("rustc", command_line("rustc", &["--version"])),
        ("thp", thp),
        ("git_commit", command_line("git", &["rev-parse", "HEAD"])),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| {
            format!(
                "{}:{}",
                json_string(k),
                json_string(v.as_deref().unwrap_or("unknown"))
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

// ---- several workloads: one child process each -----------------------------

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<String>,
    check_noise: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 7,
        seconds: 10,
        trace: false,
        out: None,
        check_noise: false,
    };
    let mut it = raw.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let known = NAMES.into_iter().find(|n| *n == name);
                args.workloads
                    .push(known.ok_or(format!("unknown workload {name}; one of {NAMES:?}"))?);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be 1..=60".to_string());
                }
            }
            "--out" => args.out = Some(value("a file")?),
            "--check-noise" => args.check_noise = true,
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// The metric lines of one child run, by metric name.
struct ChildRun {
    ok: bool,
    metrics: BTreeMap<String, (f64, Option<f64>)>,
    sim_digest: String,
}

/// Run one workload in a child process of this executable, echo its output,
/// and collect its `metric` lines.
fn run_child(workload: &str, a: &Args) -> ChildRun {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if a.trace { "1" } else { "0" }]);
    if let (Some(path), false) = (&a.out, a.check_noise) {
        cmd.args(["--out", &out_for(path, workload)]);
    }
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .expect("child process starts");
    let text = String::from_utf8_lossy(&out.stdout);
    print!("{text}");
    let mut run = ChildRun {
        ok: out.status.success(),
        metrics: BTreeMap::new(),
        sim_digest: String::new(),
    };
    for line in text.lines() {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        match tokens.as_slice() {
            ["metric", name, _unit, rest @ ..] => {
                let field = |key: &str| {
                    rest.iter()
                        .find_map(|t| t.strip_prefix(key))
                        .and_then(|v| v.parse::<f64>().ok())
                };
                run.metrics.insert(
                    name.to_string(),
                    (field("value=").unwrap_or(f64::NAN), field("spread=")),
                );
            }
            ["workload", _, "seed", _, "sim_digest", d] => run.sim_digest = d.to_string(),
            _ => {}
        }
    }
    run
}

/// Run the untraced suite twice in alternating workload order and compare
/// every (workload, end-to-end metric) pair against the metric's bound.
fn check_noise(a: &Args) -> bool {
    let order: Vec<&str> = if a.workloads.is_empty() {
        NAMES.to_vec()
    } else {
        a.workloads.clone()
    };
    let first: Vec<ChildRun> = order.iter().map(|w| run_child(w, a)).collect();
    let mut second: Vec<ChildRun> = order.iter().rev().map(|w| run_child(w, a)).collect();
    second.reverse();

    let mut rows = Vec::new();
    let mut all_ok = true;
    println!("noise: workload metric first second rel_diff bound first_spread second_spread");
    for ((w, x), y) in order.iter().zip(&first).zip(&second) {
        let same_sim = x.sim_digest == y.sim_digest && !x.sim_digest.is_empty();
        all_ok &= x.ok && y.ok && same_sim;
        rows.push(format!(
            "{{\"workload\":{},\"metric\":\"sim_digest\",\"first\":{},\"second\":{},\"ok\":{same_sim}}}",
            json_string(w),
            json_string(&x.sim_digest),
            json_string(&y.sim_digest)
        ));
        for m in &END_TO_END {
            let (va, sa) = x.metrics.get(m.name).copied().unwrap_or((f64::NAN, None));
            let (vb, sb) = y.metrics.get(m.name).copied().unwrap_or((f64::NAN, None));
            let rel = (vb - va).abs() / va.abs();
            let ok = rel <= m.bound;
            all_ok &= ok;
            let spread = |s: Option<f64>| s.map_or("null".to_string(), json_number);
            println!(
                "noise: {w} {} {va} {vb} {rel:.4} {} {} {}{}",
                m.name,
                m.bound,
                spread(sa),
                spread(sb),
                if ok { "" } else { "  EXCEEDS BOUND" }
            );
            rows.push(format!(
                "{{\"workload\":{},\"metric\":{},\"unit\":{},\"first\":{},\"second\":{},\"rel_diff\":{},\"bound\":{},\"first_spread\":{},\"second_spread\":{},\"ok\":{ok}}}",
                json_string(w),
                json_string(m.name),
                json_string(m.unit),
                json_number(va),
                json_number(vb),
                json_number(rel),
                m.bound,
                spread(sa),
                spread(sb)
            ));
        }
    }
    let doc = format!(
        "{{\"env\":{},\"seed\":{},\"seconds\":{},\"order\":\"A..E then E..A\",\"ok\":{all_ok},\"rows\":[\n{}\n]}}\n",
        env_json(),
        a.seed,
        a.seconds,
        rows.join(",\n")
    );
    match &a.out {
        Some(path) => write_file(path, &doc),
        None => print!("{doc}"),
    }
    all_ok
}

fn main() -> ExitCode {
    pin_mmap_threshold();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = if args.check_noise {
        check_noise(&args)
    } else if let [workload] = args.workloads[..] {
        let report = if args.trace {
            run_traced(workload, args.seed, args.seconds, args.out.as_deref())
        } else {
            run_untraced(workload, args.seed, args.seconds)
        };
        print_report(&report);
        report.correct
    } else {
        let order = if args.workloads.is_empty() {
            NAMES.to_vec()
        } else {
            args.workloads.clone()
        };
        // Every workload runs, whether or not an earlier one failed.
        let runs: Vec<ChildRun> = order.iter().map(|w| run_child(w, &args)).collect();
        runs.iter().all(|r| r.ok)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"name": "..."` of `BENCHMARK.json`, in file order.
    fn manifest_names() -> Vec<String> {
        let manifest = include_str!("../../../../../../BENCHMARK.json");
        manifest
            .split("\"name\":")
            .skip(1)
            .map(|rest| rest.split('"').nth(1).expect("a quoted name").to_string())
            .collect()
    }

    #[test]
    fn manifest_names_are_exactly_what_the_binary_prints() {
        let names = manifest_names();
        assert!(names.iter().all(|n| {
            !n.is_empty()
                && n.len() <= 64
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        }));
        let printed: Vec<&str> = NAMES
            .iter()
            .copied()
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        assert_eq!(names, printed);
        let mut unique = printed.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), printed.len(), "a name is used once");
    }

    #[test]
    fn manifest_states_units_directions_and_bounds() {
        let manifest = include_str!("../../../../../../BENCHMARK.json");
        for m in END_TO_END.iter() {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            );
            assert!(manifest.contains(&entry), "{entry}");
        }
        for m in PER_LAYER.iter() {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            );
            assert!(manifest.contains(&entry), "{entry}");
        }
    }

    #[test]
    fn every_per_layer_metric_is_measured_by_some_workload() {
        let mut measured: Vec<&str> = workloads::direct_layers(3).iter().map(|l| l.0).collect();
        for name in NAMES {
            let t = trace_workload(name, &workloads::toy(workloads::toy_rate(name)), 11);
            assert!(t.plain.correct() && t.timed.correct(), "{name}");
            measured.extend(t.layers.iter().map(|l| l.0));
        }
        for m in PER_LAYER.iter() {
            assert!(measured.contains(&m.name), "{} is never measured", m.name);
        }
        for name in measured {
            assert!(
                !unit_of(name).is_empty(),
                "{name} is not a per-layer metric"
            );
        }
    }

    #[test]
    fn arguments_parse_as_the_driver_passes_them() {
        let to = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&to(
            "--workload churn-heal --seed 42 --seconds 10 --trace 0",
        ))
        .unwrap();
        assert_eq!(
            (a.workloads.as_slice(), a.seed, a.seconds, a.trace),
            (&["churn-heal"][..], 42, 10, false)
        );
        assert!(
            parse_args(&to("--workload churn-heal --trace 1"))
                .unwrap()
                .trace
        );
        assert!(parse_args(&to("--trace --seed 3")).unwrap().trace);
        let a = parse_args(&[]).unwrap();
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.workloads.len()),
            (7, 10, false, 0)
        );
        assert!(parse_args(&to("--workload nope")).is_err());
        assert!(parse_args(&to("--seconds 0")).is_err());
        assert!(parse_args(&to("--frobnicate")).is_err());
    }

    #[test]
    fn result_line_is_json_with_all_digits() {
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(out_for("spans.json", "churn-heal"), "spans.churn-heal.json");
        assert_eq!(out_for("out/spans", "churn-heal"), "out/spans.churn-heal");
        let m = Metric::median("setup_s", "s", &[1.0, 2.0, 4.0]);
        assert_eq!(
            metric_line("metric", &m),
            "metric setup_s s value=2 n=3 median=2 q1=1 q3=4 spread=1.5000 samples=[1.000000e0,2.000000e0,4.000000e0]"
        );
    }
}
