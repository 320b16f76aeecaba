//! `acrbench`: the wall-clock benchmark of the ACR runtime.
//!
//! ```text
//! acrbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run of one workload; the last line of stdout is the result
//! acrbench --seed <n> [--seconds <s>] [--out <file>]
//!     every workload, end to end and traced, each in its own process;
//!     writes benchmark/out/results-<seed>.json, or <file>
//! acrbench check-agreement <a.json> <b.json>
//!     compare two result sets against the bounds in BENCHMARK.json
//! ```
//!
//! See `benchmark/README.md` for the metrics and how they interact.

mod agree;
mod json;
mod layers;
mod measure;
mod run;
mod stats;
mod trace;
mod workloads;

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::process::{Command, ExitCode};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator with a running total of bytes asked for, so the
/// pup replay can say what one pack allocates.
struct Counting;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is passed to `System` unchanged; the only addition is
// a relaxed counter that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(
            new_size.saturating_sub(layout.size()) as u64,
            Ordering::Relaxed,
        );
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

pub fn allocated_bytes() -> u64 {
    ALLOCATED.load(Ordering::Relaxed)
}

/// Named measurements with their units, in the order taken.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

/// Where `BENCHMARK.json` is at hand (the command runs from the checkout's
/// root), what a run reports must be exactly what it lists for that kind
/// of run, units included; a difference is returned as a failed check.
fn contract_mismatch(metrics: &Metrics, traced: bool) -> Option<String> {
    let text = std::fs::read_to_string("BENCHMARK.json").ok()?;
    let spec = match json::parse(&text) {
        Ok(spec) => spec,
        Err(e) => return Some(format!("BENCHMARK.json: {e}")),
    };
    let section = if traced { "per_layer" } else { "end_to_end" };
    let mut listed: Vec<(&str, &str)> = spec
        .get(section)
        .map_or(&[][..], json::Value::items)
        .iter()
        .filter_map(|m| Some((m.get("name")?.str()?, m.get("unit")?.str()?)))
        .collect();
    let mut reported: Vec<(&str, &str)> = metrics.0.iter().map(|m| (m.0, m.2)).collect();
    listed.sort_unstable();
    reported.sort_unstable();
    (listed != reported).then(|| {
        let odd: Vec<_> = listed
            .iter()
            .filter(|m| !reported.contains(m))
            .chain(reported.iter().filter(|m| !listed.contains(m)))
            .collect();
        format!("metrics differ from BENCHMARK.json {section}: {odd:?}")
    })
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
fn result_line(outcome: &run::Outcome) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.tally.failed == 0,
        outcome.tally.attempted,
        outcome.tally.failed
    );
    for (i, (name, value, unit)) in outcome.metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}{}: {{\"value\": {value}, \"unit\": {}}}",
            json::quote(name),
            json::quote(unit)
        );
    }
    out.push_str("}}");
    out
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 13.0,
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.clone()),
            "--out" => a.out = Some(value()?.clone()),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=600.0).contains(&a.seconds) {
                    return Err("--seconds must be between 1 and 600".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn run_one(name: &str, a: &Args) -> ExitCode {
    let Some(w) = workloads::by_name(name) else {
        let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
        eprintln!("unknown workload {name}; one of {}", names.join(", "));
        return ExitCode::from(2);
    };
    let mut outcome = if a.trace {
        run::traced(w, a.seed, a.seconds)
    } else {
        run::end_to_end(w, a.seed, a.seconds)
    };
    let mismatch = contract_mismatch(&outcome.metrics, a.trace);
    outcome
        .tally
        .op(mismatch.is_none(), || mismatch.unwrap_or_default());
    // A timing that divided by nothing would not be JSON.
    let broken: Vec<&str> = outcome
        .metrics
        .0
        .iter()
        .filter(|m| !m.1.is_finite())
        .map(|m| m.0)
        .collect();
    outcome
        .tally
        .op(broken.is_empty(), || format!("not finite: {broken:?}"));
    outcome.metrics.0.retain(|m| m.1.is_finite());
    for (name, value, unit) in &outcome.metrics.0 {
        eprintln!("{name:<36} {value:>16.6} {unit}");
    }
    for note in &outcome.tally.notes {
        eprintln!("FAILED {note}");
    }
    println!("{}", result_line(&outcome));
    if outcome.tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

/// Every workload, end to end and traced, each run a fresh process of this
/// executable so peak memory and CPU time are that workload's alone.
fn run_all(a: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut failed = false;
    let mut body = String::new();
    for (i, w) in workloads::ALL.iter().enumerate() {
        let mut lines = Vec::new();
        for trace in ["0", "1"] {
            // `output` waits for the child, so none outlives a failure.
            let out = Command::new(&exe)
                .args(["--workload", w.name, "--trace", trace])
                .args(["--seed", &a.seed.to_string()])
                .args(["--seconds", &a.seconds.to_string()])
                .stderr(std::process::Stdio::inherit())
                .output()
                .expect("child process starts");
            failed |= !out.status.success();
            let stdout = String::from_utf8_lossy(&out.stdout);
            lines.push(stdout.lines().last().unwrap_or("null").to_string());
        }
        let sep = if i == 0 { "" } else { ",\n" };
        let _ = write!(
            body,
            "{sep}{}: {{\"end_to_end\": {}, \"per_layer\": {}}}",
            json::quote(w.name),
            lines[0],
            lines[1]
        );
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let text = format!(
        "{{\"seed\": {}, \"seconds\": {}, \"machine\": {{\"nproc\": {nproc}, \"rustc\": {}, \"commit\": {}}},\n\"workloads\": {{\n{body}\n}}}}\n",
        a.seed,
        a.seconds,
        json::quote(&tool_line("rustc", &["--version"])),
        json::quote(&tool_line("git", &["rev-parse", "HEAD"])),
    );
    let path = match &a.out {
        Some(path) => path.into(),
        None => measure::out_dir().join(format!("results-{}.json", a.seed)),
    };
    std::fs::write(&path, text).expect("result file writes");
    eprintln!("wrote {}", path.display());
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("check-agreement") {
        return match args.as_slice() {
            [_, a, b] => agree::check(a, b),
            _ => {
                eprintln!("usage: acrbench check-agreement <a.json> <b.json>");
                ExitCode::from(2)
            }
        };
    }
    match parse_args(&args) {
        Ok(a) => match a.workload.clone() {
            Some(name) => run_one(&name, &a),
            None => run_all(&a),
        },
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
