//! The repo's perf ledger: five named workloads, end-to-end metrics with
//! regression bounds, per-layer attribution. See `benchmark/README.md`
//! for the tables and `BENCHMARK.json` for the contract with the driver.
//!
//! Two ways in, both through `benchmark/run.sh`:
//!
//! * **one run** — `--workload W --seed N --seconds S --trace 0|1`: runs
//!   `W` in this process, prints a human table, and ends stdout with the
//!   driver's result object;
//! * **a report** — no `--trace`: runs each selected workload as a child
//!   process of its own (peak RSS is per process), optionally traced
//!   (`--traced`) or five rounds over (`--calibrate`).

mod client;
mod guard;
mod os;
mod report;
mod stats;
mod targets;
mod trace;
mod workloads;

use report::{DEFAULT_SEED, END_TO_END, WORKLOADS};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    traced: bool,
    calibrate: bool,
    scholar_bin: PathBuf,
    work_dir: PathBuf,
    out_dir: PathBuf,
    commit: String,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: None,
        smoke: false,
        traced: false,
        calibrate: false,
        scholar_bin: PathBuf::from("target/release/scholar"),
        work_dir: PathBuf::from("benchmark/work"),
        out_dir: PathBuf::from("benchmark/out"),
        commit: "unknown".to_string(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                args.seed = value()?.parse().map_err(|_| "--seed takes a u64".to_string())?
            }
            "--seconds" => {
                let s: f64 =
                    value()?.parse().map_err(|_| "--seconds takes a number".to_string())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                })
            }
            "--smoke" => args.smoke = true,
            "--traced" => args.traced = true,
            "--calibrate" => args.calibrate = true,
            "--scholar-bin" => args.scholar_bin = PathBuf::from(value()?),
            "--work-dir" => args.work_dir = PathBuf::from(value()?),
            "--out-dir" => args.out_dir = PathBuf::from(value()?),
            "--commit" => args.commit = value()?,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.trace.is_some() && args.workload.is_none() {
        return Err("--trace needs --workload".to_string());
    }
    Ok(args)
}

impl Args {
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.smoke { 1.0 } else { report::DEFAULT_SECONDS as f64 })
    }
}

/// Where, on what, and at which commit a result was measured.
fn print_provenance(args: &Args) {
    let m = os::machine();
    println!(
        "machine: nproc={} cpu=\"{}\" llc={} kernel={} commit={} seed={}{}",
        m.nproc,
        m.cpu_model,
        m.llc,
        m.kernel,
        args.commit,
        args.seed,
        if args.smoke { " (smoke)" } else { "" }
    );
}

/// One workload, in this process; stdout ends with the result object.
fn run_one(args: &Args, workload: &str, traced: bool) -> ExitCode {
    let env = workloads::Env {
        seed: args.seed,
        seconds: args.seconds(),
        traced,
        smoke: args.smoke,
        scholar_bin: args.scholar_bin.clone(),
        work_dir: args.work_dir.clone(),
    };
    print_provenance(args);
    let mut tracer = trace::Tracer::new(traced);
    let mut outcome = match workloads::run(workload, &env, &mut tracer) {
        Ok(outcome) => outcome,
        Err(why) => {
            // No result object: a run that could not measure says so with
            // its exit code, never with made-up numbers.
            eprintln!("benchmark: {workload} could not run: {why}");
            return ExitCode::from(2);
        }
    };
    if traced {
        for (slot, name) in [
            ("trace.primary_ms", "primary_ms"),
            ("trace.secondary_ms", "secondary_ms"),
            ("trace.cpu_ms_per_op", "cpu_ms_per_op"),
        ] {
            if let Some(e) = outcome.end_to_end.iter().find(|e| e.name == name) {
                let value = e.value;
                outcome.layer(slot, value);
            }
        }
        outcome.layer("trace.spans", tracer.spans().len() as f64);
        let path = args.out_dir.join(format!("trace-{workload}.jsonl"));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!("trace: {} spans -> {}", tracer.spans().len(), path.display()),
            Err(e) => {
                outcome.attempted += 1;
                outcome.fail(format!("cannot write {}: {e}", path.display()));
            }
        }
        println!("  self time by span (seconds, spans):");
        for (name, secs, n) in tracer.self_time_by_name().into_iter().take(16) {
            println!("    {name:<28} {secs:>12.6} {n:>8}");
        }
    }
    outcome.print(workload, traced);
    println!("{}", outcome.result_line(traced));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Metric name → value, as one child run reported it.
type Values = BTreeMap<String, f64>;

/// Run `workload` as a child process of this binary and parse its result
/// object. The child's human table passes through.
fn run_child(args: &Args, workload: &str, traced: bool, quiet: bool) -> Result<Values, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds().to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--scholar-bin")
        .arg(&args.scholar_bin)
        .arg("--work-dir")
        .arg(&args.work_dir)
        .arg("--out-dir")
        .arg(&args.out_dir)
        .args(["--commit", &args.commit])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    if !quiet {
        for line in lines.iter().filter(|l| !l.starts_with("machine:")) {
            println!("{line}");
        }
    }
    let parsed = sjson::parse(last)
        .map_err(|_| format!("{workload} ended without a result object ({})", output.status))?;
    if parsed.get("correct").and_then(sjson::Value::as_bool) != Some(true) {
        return Err(format!("{workload} reported an incorrect run: {last}"));
    }
    let metrics = parsed.get("metrics").and_then(sjson::Value::as_object).unwrap_or(&[]);
    Ok(metrics
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect())
}

/// The report mode: every selected workload once (plus a traced run with
/// `--traced`), or five rounds with min / median / max / spread.
fn report(args: &Args) -> ExitCode {
    print_provenance(args);
    let selected: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let rounds = if args.calibrate { 5 } else { 1 };
    let mut failed = false;
    // workload -> metric -> one value per round
    let mut ledger: BTreeMap<&str, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for round in 0..rounds {
        for &workload in &selected {
            match run_child(args, workload, false, args.calibrate) {
                Ok(values) => {
                    if args.calibrate {
                        println!("round {} {workload}: ok", round + 1);
                    }
                    let slot = ledger.entry(workload).or_default();
                    for (name, v) in &values {
                        slot.entry(name.clone()).or_default().push(*v);
                    }
                    if args.traced {
                        match run_child(args, workload, true, false) {
                            Ok(layers) => print_overhead(&values, &layers),
                            Err(why) => {
                                eprintln!("benchmark: {why}");
                                failed = true;
                            }
                        }
                    }
                }
                Err(why) => {
                    eprintln!("benchmark: {why}");
                    failed = true;
                }
            }
        }
    }
    if args.calibrate {
        print_calibration(&ledger);
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Traced minus untraced, per end-to-end metric the traced run repeats.
fn print_overhead(untraced: &Values, layers: &Values) {
    println!("  tracing overhead (traced - untraced):");
    for name in ["primary_ms", "secondary_ms", "cpu_ms_per_op"] {
        if let (Some(base), Some(traced)) =
            (untraced.get(name), layers.get(&format!("trace.{name}")))
        {
            println!(
                "    {name:<16} {:>+14.6} ms ({:+.2} % of {base:.6})",
                traced - base,
                (traced - base) / base * 100.0
            );
        }
    }
}

/// Five-round table: the numbers the bounds in `BENCHMARK.json` rest on.
fn print_calibration(ledger: &BTreeMap<&str, BTreeMap<String, Vec<f64>>>) {
    println!("\ncalibration: min / median / max over rounds, spread = IQR / median");
    println!(
        "{:<12} {:<15} {:>14} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "min", "median", "max", "spread", "bound"
    );
    for (workload, metrics) in ledger {
        for (def, bound) in END_TO_END.iter() {
            let Some(values) = metrics.get(def.name) else { continue };
            let min = values.iter().copied().fold(f64::INFINITY, f64::min);
            let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let spread = stats::iqr_share(values).unwrap_or(0.0);
            println!(
                "{workload:<12} {:<15} {min:>14.4} {:>14.4} {max:>14.4} {:>7.2}% {:>5.0}%{}",
                def.name,
                stats::median(values).unwrap_or(0.0),
                spread * 100.0,
                bound * 100.0,
                if spread > *bound && def.name != "setup_s" {
                    "  <- exceeds its bound"
                } else {
                    ""
                }
            );
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("benchmark: {why}");
            eprintln!(
                "usage: benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                 [--traced] [--calibrate] [--smoke]"
            );
            return ExitCode::from(2);
        }
    };
    match (&args.workload, args.trace) {
        (Some(workload), Some(traced)) => run_one(&args, workload, traced),
        _ => report(&args),
    }
}
