//! The repository benchmark: covered branches per second on the Fdlibm
//! suite, on generated FPIR programs and through the serve daemon.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//! ```
//!
//! Prints one line per metric (name, value, unit, sample count), writes
//! the full result (environment, metrics, per-function rows) to
//! `DIR/<workload>-seed<N>-trace<T>.json` and, when traced, the spans as
//! Chrome trace-event JSON to `DIR/<workload>-seed<N>.trace.json`. The
//! last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`. See README.md for the
//! workloads, the metrics and the predictions they test.

mod campaigns;
mod output;
mod serve_corpus;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use coverme::report::schema::JsonValue;
use coverme::SimdIsa;

use output::{num, object, text, Outcome};
use trace::Recorder;

const WORKLOADS: &[&str] = &["fdlibm-suite", "fpir-gen", "serve-corpus"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from("perfbench/out");
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value}")),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let parsed: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(parsed > 0.0 && parsed.is_finite()) {
                    return Err(format!("bad seconds {value}"));
                }
                seconds = Some(parsed);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        out,
    })
}

/// First line of a command's standard output, or `"unknown"`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The run environment recorded with every result, so results from
/// different machines or ISAs are recognisable as such.
fn environment() -> JsonValue {
    let active = SimdIsa::active();
    object(vec![
        (
            "nproc",
            num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("simd_detected", text(SimdIsa::detect().label())),
        (
            "simd_forced",
            SimdIsa::forced().map_or(JsonValue::Null, |isa| text(isa.label())),
        ),
        ("simd_active", text(active.label())),
        ("lane_width", num(active.lane_width() as f64)),
        (
            coverme::SIMD_ENV_VAR,
            std::env::var(coverme::SIMD_ENV_VAR).map_or(JsonValue::Null, text),
        ),
        ("rustc", text(command_line("rustc", &["--version"]))),
        (
            "git_commit",
            text(command_line("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

/// Peak resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn run(args: &Args) -> std::io::Result<(Outcome, Option<Arc<Recorder>>)> {
    let epoch = Instant::now();
    let session = args.trace.then(|| Recorder::new(epoch, 1));
    let mut out = Outcome::default();
    match args.workload.as_str() {
        "fdlibm-suite" => {
            let workload = campaigns::fdlibm_suite(args.seed);
            campaigns::measure(&workload, args.seconds, session.as_ref(), epoch, &mut out);
        }
        "fpir-gen" => {
            let workload = campaigns::fpir_gen(args.seed, &mut out);
            campaigns::measure(&workload, args.seconds, session.as_ref(), epoch, &mut out);
        }
        "serve-corpus" => {
            let work_dir = args.out.join(format!("work-{}", std::process::id()));
            std::fs::create_dir_all(&work_dir)?;
            let measured = serve_corpus::measure(
                args.seed,
                args.seconds,
                &work_dir,
                session.as_ref(),
                &mut out,
            );
            let cleaned = std::fs::remove_dir_all(&work_dir);
            measured?;
            cleaned?;
        }
        other => unreachable!("workload {other} was validated"),
    }
    out.metric("peak_rss_mb", peak_rss_mb(), 1);
    Ok((out, session))
}

/// A value for the human-readable lines: fixed point, or scientific when
/// fixed point would hide its digits.
fn shown(value: f64) -> String {
    if value != 0.0 && value.abs() < 1e-3 {
        format!("{value:.6e}")
    } else {
        format!("{value:.6}")
    }
}

fn write_json(path: &Path, value: &JsonValue) -> std::io::Result<()> {
    let mut body = value.to_compact();
    body.push('\n');
    std::fs::write(path, body)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload {} --seed N --seconds S --trace 0|1 [--out DIR]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if let Err(error) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: cannot create {}: {error}", args.out.display());
        return ExitCode::FAILURE;
    }
    let (outcome, session) = match run(&args) {
        Ok(result) => result,
        Err(error) => {
            eprintln!("perfbench: {} failed: {error}", args.workload);
            return ExitCode::FAILURE;
        }
    };

    println!(
        "perfbench {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let reported = outcome.reported(args.trace);
    for (name, unit, metric) in &reported {
        println!(
            "  {name:<28} {:>18} {unit:<6} n={}",
            shown(metric.value),
            metric.samples
        );
    }
    let failed_share = stats::ratio(outcome.failed as f64, outcome.attempted as f64);
    println!(
        "  {:<28} {:>18} {:<6} n={}",
        "failed_share",
        shown(failed_share),
        "ratio",
        outcome.attempted
    );
    for metric in &outcome.metrics {
        if !reported.iter().any(|(name, _, _)| *name == metric.name) {
            println!(
                "  {:<28} {:>18} {:<6} n={} (recorded, not scored)",
                metric.name,
                shown(metric.value),
                "",
                metric.samples
            );
        }
    }

    let correct = outcome.check_failures.is_empty();
    let metrics: Vec<(String, JsonValue)> = reported
        .iter()
        .map(|(name, unit, metric)| {
            (
                name.to_string(),
                object(vec![("value", num(metric.value)), ("unit", text(*unit))]),
            )
        })
        .collect();
    let stem = format!("{}-seed{}", args.workload, args.seed);
    let environment = environment();
    let recorded = outcome
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                object(vec![
                    ("value", num(m.value)),
                    ("samples", num(m.samples as f64)),
                ]),
            )
        })
        .collect();
    let failures = outcome
        .check_failures
        .iter()
        .map(|m| text(m.clone()))
        .collect();
    let mut members = vec![
        ("workload", text(args.workload.clone())),
        ("seed", text(args.seed.to_string())),
        ("seconds", num(args.seconds)),
        ("trace", JsonValue::Bool(args.trace)),
        ("environment", environment.clone()),
        ("metrics", JsonValue::Object(recorded)),
        ("attempted", num(outcome.attempted as f64)),
        ("failed", num(outcome.failed as f64)),
        ("failed_share", num(failed_share)),
        ("check_failures", JsonValue::Array(failures)),
        ("functions", JsonValue::Array(outcome.rows.clone())),
    ];
    members.extend(outcome.details.iter().cloned());
    let results = args
        .out
        .join(format!("{stem}-trace{}.json", args.trace as u8));
    if let Err(error) = write_json(&results, &object(members)) {
        eprintln!("perfbench: cannot write {}: {error}", results.display());
        return ExitCode::FAILURE;
    }
    if let Some(session) = &session {
        let trace_path = args.out.join(format!("{stem}.trace.json"));
        let chrome = session.chrome_trace(vec![
            ("workload".to_string(), text(args.workload.clone())),
            ("seed".to_string(), text(args.seed.to_string())),
            ("environment".to_string(), environment),
        ]);
        if let Err(error) = write_json(&trace_path, &chrome) {
            eprintln!("perfbench: cannot write {}: {error}", trace_path.display());
            return ExitCode::FAILURE;
        }
    }
    let line = object(vec![
        ("correct", JsonValue::Bool(correct)),
        ("attempted", num(outcome.attempted as f64)),
        ("failed", num(outcome.failed as f64)),
        ("metrics", JsonValue::Object(metrics)),
    ]);
    println!("{}", line.to_compact());
    ExitCode::SUCCESS
}
