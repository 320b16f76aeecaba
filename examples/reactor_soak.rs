//! Reactor soak: prove one reactor thread holds thousands of links
//! across concurrent jobs with bounded tick latency.
//!
//! This is the CI `driver-service` gate. It runs
//! [`acr::runtime::soak::run_reactor_soak`] — N jobs registered on one
//! shared reactor, `links-per-job` real handshaken TCP links each, load
//! pumped both directions — and then:
//!
//! * asserts the driver-side thread count stayed pinned while every
//!   link was connected (`/proc/self/status` `Threads:`, the PR 5
//!   technique) unless `--no-assert-threads`;
//! * with `--baseline FILE`, gates the measured p99 reactor tick
//!   latency against the committed `BENCH_reactor.json` (regressions
//!   beyond `--tolerance`, default 25%, fail the run);
//! * with `--write FILE`, writes the fresh report JSON — how the
//!   committed baseline is (re)generated.
//!
//! ```text
//! cargo run --release --example reactor_soak -- --jobs 4 --links-per-job 256 \
//!     --baseline BENCH_reactor.json --tolerance 0.25
//! cargo run --release --example reactor_soak -- --write BENCH_reactor.json
//! ```
//!
//! Run it alone. The gate times one thread's wake-ups on a shared
//! machine: anything else busy on the box — most often the node-host
//! children of a `jacobi_tcp` or `fault_campaign --transport tcp` still
//! running next to it — is scheduled in between and shows up as tail
//! latency (a p99 of tens of milliseconds where the quiet box gives a
//! fraction of one).

use acr::runtime::soak::{gate_p99, run_reactor_soak, SoakConfig};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
reactor_soak: multi-job shared-reactor scaling gate

OPTIONS:
    --jobs <n>            concurrent jobs on the one reactor (default 4)
    --links-per-job <n>   handshaken links per job (default 256)
    --duration-ms <n>     load duration once connected (default 3000)
    --write <file>        write the report JSON (baseline regeneration)
    --baseline <file>     gate p99 tick latency against this report JSON
    --tolerance <frac>    allowed p99 regression vs baseline (default 0.25)
    --no-assert-threads   skip the thread-count pinning assertion

Run it alone: the p99 gate times one thread on a shared machine, and other
busy processes (another example's node hosts, a second soak) land in its
tail. Wait for them to exit before gating or writing a baseline.
";

fn main() -> ExitCode {
    let mut cfg = SoakConfig::default();
    let mut write: Option<String> = None;
    let mut baseline: Option<String> = None;
    let mut tolerance = 0.25f64;
    let mut assert_threads = true;

    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        let parsed = (|| -> Result<(), String> {
            match a.as_str() {
                "--jobs" => cfg.jobs = parse(&val("--jobs")?)?,
                "--links-per-job" => cfg.links_per_job = parse(&val("--links-per-job")?)?,
                "--duration-ms" => {
                    cfg.duration = Duration::from_millis(parse(&val("--duration-ms")?)?)
                }
                "--write" => write = Some(val("--write")?),
                "--baseline" => baseline = Some(val("--baseline")?),
                "--tolerance" => {
                    let v = val("--tolerance")?;
                    tolerance = v.parse().map_err(|_| format!("bad --tolerance {v}"))?;
                }
                "--no-assert-threads" => assert_threads = false,
                "--help" | "-h" => {
                    print!("{USAGE}");
                    std::process::exit(0);
                }
                other => return Err(format!("unknown argument {other}")),
            }
            Ok(())
        })();
        if let Err(e) = parsed {
            eprintln!("reactor_soak: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    }

    println!(
        "reactor_soak: {} jobs x {} links, {} ms of load",
        cfg.jobs,
        cfg.links_per_job,
        cfg.duration.as_millis()
    );
    let report = match run_reactor_soak(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("reactor_soak: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "  links connected : {} across {} jobs",
        report.links, report.jobs
    );
    println!("  reactor ticks   : {}", report.ticks);
    println!(
        "  tick latency    : p50 {} ns, p99 {} ns, max {} ns, mean {} ns",
        report.tick_p50_ns, report.tick_p99_ns, report.tick_max_ns, report.tick_mean_ns
    );
    println!(
        "  load            : {} pings fanned out, {} pongs received",
        report.net_frames_sent, report.events_received
    );
    match (report.threads_before, report.threads_during) {
        (Some(b), Some(d)) => println!("  process threads : {b} before -> {d} under load"),
        _ => println!("  process threads : /proc/self/status unavailable"),
    }

    let mut failed = false;

    // One reactor thread must carry every link: the process may gain the
    // reactor itself plus a little slack, never O(links) threads.
    if assert_threads {
        match (report.threads_before, report.threads_during) {
            (Some(before), Some(during)) => {
                if during > before + 4 {
                    eprintln!(
                        "reactor_soak: FAIL thread pinning: {before} -> {during} threads for {} links",
                        report.links
                    );
                    failed = true;
                } else {
                    println!(
                        "  PASS thread pinning ({before} -> {during} for {} links)",
                        report.links
                    );
                }
            }
            _ => println!("  SKIP thread pinning (no /proc/self/status)"),
        }
    }

    if report.events_received == 0 || report.ticks == 0 {
        eprintln!("reactor_soak: FAIL no load flowed (events or ticks == 0)");
        failed = true;
    }

    if let Some(path) = &baseline {
        match std::fs::read_to_string(path) {
            Ok(json) => match gate_p99(&report, &json, tolerance) {
                Ok(()) => println!("  PASS p99 gate vs {path} (tolerance {tolerance})"),
                Err(e) => {
                    eprintln!("reactor_soak: FAIL {e}");
                    failed = true;
                }
            },
            Err(e) => {
                eprintln!("reactor_soak: FAIL reading baseline {path}: {e}");
                failed = true;
            }
        }
    }

    if let Some(path) = &write {
        let mut json = report.to_json();
        json.push('\n');
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("reactor_soak: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("  wrote {path}");
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn parse<T: std::str::FromStr>(v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("bad numeric value {v}"))
}
