//! Deterministic fault campaign from the command line: sweep seeded fault
//! scenarios across the three recovery schemes under virtual time, check
//! the paper's safety invariants on every run, and emit minimal-repro
//! artifacts for any violation. Exit code 1 if any invariant broke.
//!
//! ```text
//! cargo run --release --example fault_campaign                       # 32 seeds × 3 schemes
//! cargo run --release --example fault_campaign -- --seeds 8
//! cargo run --release --example fault_campaign -- --repro-dir target/repros
//! cargo run --release --example fault_campaign -- --transport tcp    # soak over real sockets
//! cargo run --release --example fault_campaign -- --service          # differential: every case also
//!                                                                    # runs via the 2-slot driver service
//!                                                                    # and must match its solo run bit-for-bit
//! cargo run --release --example fault_campaign -- --delta            # incremental delta checkpoints on
//! cargo run --release --example fault_campaign -- --driver-kill --persist-dir target/stores
//!                                                                    # scripted driver kills + resume-from-disk
//! cargo run --release --example fault_campaign -- --resume target/stores/strong_full-compare_seed3
//!                                                                    # resume one killed case from its store
//! cargo run --release --example fault_campaign -- --replay repro.txt # re-run one artifact
//! cargo run --release --example fault_campaign -- --fingerprint      # one line per case: verdict plus
//!                                                                    # Fletcher-64 of its trace and event log
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use acr::fault::FaultScript;
use acr::obs::sinks::to_jsonl;
use acr::pup::fletcher64;
use acr::runtime::campaign::{
    detection_name, parse_detection, parse_scheme, resume_case, run_campaign,
    run_campaign_via_service, run_script_case, scheme_name, CampaignConfig, CaseOutcome,
    CaseResult,
};
use acr::runtime::{TcpConfig, TransportKind};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seeds: u64 = 32;
    let mut repro_dir: Option<PathBuf> = None;
    let mut replay: Option<PathBuf> = None;
    let mut resume: Option<PathBuf> = None;
    let mut transport = TransportKind::InProcess;
    let mut delta = false;
    let mut driver_kill = false;
    let mut service = false;
    let mut fingerprint = false;
    let mut persist_dir: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--transport" => {
                i += 1;
                transport = match args.get(i).map(String::as_str) {
                    Some("tcp") => TransportKind::Tcp(TcpConfig::default()),
                    Some("in-process") => TransportKind::InProcess,
                    other => {
                        eprintln!("--transport must be `tcp` or `in-process`, got {other:?}");
                        std::process::exit(2);
                    }
                };
            }
            "--seeds" => {
                i += 1;
                seeds = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--seeds needs a number");
                    std::process::exit(2);
                });
            }
            "--repro-dir" => {
                i += 1;
                repro_dir = Some(PathBuf::from(
                    args.get(i).map(String::as_str).unwrap_or_else(|| {
                        eprintln!("--repro-dir needs a path");
                        std::process::exit(2);
                    }),
                ));
            }
            "--replay" => {
                i += 1;
                replay = Some(PathBuf::from(
                    args.get(i).map(String::as_str).unwrap_or_else(|| {
                        eprintln!("--replay needs a file");
                        std::process::exit(2);
                    }),
                ));
            }
            "--delta" => delta = true,
            "--resume" => {
                i += 1;
                resume = Some(PathBuf::from(
                    args.get(i).map(String::as_str).unwrap_or_else(|| {
                        eprintln!("--resume needs a store directory");
                        std::process::exit(2);
                    }),
                ));
            }
            "--driver-kill" => driver_kill = true,
            "--service" => service = true,
            "--fingerprint" => fingerprint = true,
            "--persist-dir" => {
                i += 1;
                persist_dir = Some(PathBuf::from(
                    args.get(i).map(String::as_str).unwrap_or_else(|| {
                        eprintln!("--persist-dir needs a path");
                        std::process::exit(2);
                    }),
                ));
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: fault_campaign [--seeds N] [--repro-dir DIR] \
                     [--transport tcp|in-process] [--delta] [--service] \
                     [--driver-kill --persist-dir DIR] [--fingerprint] [--resume STORE] \
                     [--replay FILE]"
                );
                return ExitCode::from(2);
            }
        }
        i += 1;
    }

    if let Some(path) = replay {
        return replay_artifact(&path, persist_dir);
    }
    if let Some(dir) = resume {
        return resume_store(&dir);
    }

    if driver_kill && persist_dir.is_none() {
        eprintln!("--driver-kill needs --persist-dir DIR (resume state must live somewhere)");
        return ExitCode::from(2);
    }
    if driver_kill && !matches!(transport, TransportKind::InProcess) {
        eprintln!("--driver-kill requires the in-process (virtual time) transport");
        return ExitCode::from(2);
    }
    if service && !matches!(transport, TransportKind::InProcess) {
        eprintln!("--service requires the in-process (virtual time) transport");
        return ExitCode::from(2);
    }
    if service && driver_kill {
        eprintln!("--service cannot run driver-kill scenarios (resume is per-job)");
        return ExitCode::from(2);
    }

    let cfg = CampaignConfig {
        seeds: (0..seeds).collect(),
        repro_dir,
        transport,
        delta_checkpoints: delta,
        driver_kill,
        persist_dir,
        ..CampaignConfig::default()
    };
    println!(
        "fault campaign: {} seeds × {} schemes over {}{}{}, determinism check {}",
        cfg.seeds.len(),
        cfg.schemes.len(),
        if cfg.wall_clock() {
            "localhost TCP (wall clock)"
        } else {
            "in-process channels (virtual time)"
        },
        if cfg.delta_checkpoints {
            ", delta checkpoints"
        } else {
            ""
        },
        if cfg.driver_kill {
            ", scripted driver kills + resume"
        } else if service {
            ", via 2-slot driver service (solo differential)"
        } else {
            ""
        },
        if cfg.check_determinism && !cfg.wall_clock() {
            "on"
        } else {
            "off"
        }
    );

    let report = if service {
        match run_campaign_via_service(&cfg) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("service sweep failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        run_campaign(&cfg)
    };
    let (clean, detected, escapes, violations) = report.tally();
    println!("  clean runs        : {clean}");
    println!("  SDC detected      : {detected}");
    println!("  known escapes     : {escapes}  (§2.3 unverified-window cases)");
    println!("  violations        : {violations}");
    let restarted = report
        .cases
        .iter()
        .filter(|c| c.report.restarts_from_beginning > 0);
    println!("  restarted from 0  : {} cases", restarted.count());
    let unverified: usize = report
        .cases
        .iter()
        .map(|c| c.report.unverified_recoveries)
        .sum();
    println!("  unverified recov. : {unverified}  (medium/weak ships)");
    if fingerprint {
        for case in &report.cases {
            println!("{}", fingerprint_line(case));
        }
    }
    for path in &report.artifacts {
        println!("  repro written     : {}", path.display());
    }
    for case in report.violations() {
        println!(
            "\nVIOLATION seed={} scheme={} detection={}: {:?}",
            case.seed,
            scheme_name(case.scheme),
            detection_name(case.detection),
            case.outcome
        );
        println!("script:\n{}", case.script.to_repro());
    }
    if violations > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// One case as a line two builds can `diff`: its verdict, then the
/// Fletcher-64 of its driver trace and of its flight-recorder JSONL. Equal
/// lines mean the run made the same decisions and emitted the same events.
fn fingerprint_line(case: &CaseResult) -> String {
    let trace = fletcher64(case.report.trace.join("\n").as_bytes());
    let events = fletcher64(to_jsonl(&case.report.events).as_bytes());
    format!(
        "seed={} scheme={} detection={} outcome={:?} trace={trace:016x} events={events:016x}",
        case.seed,
        scheme_name(case.scheme),
        detection_name(case.detection),
        case.outcome
    )
}

/// Resume a previously-killed campaign case straight from its store
/// directory (the per-case dirs `--driver-kill --persist-dir` leaves
/// behind). Prints the machine-readable `RecoveryReport` so operators
/// can see which slot the job came back from.
fn resume_store(dir: &std::path::Path) -> ExitCode {
    if !dir.join("events.log").is_file() {
        eprintln!("{} has no events.log — not a job store", dir.display());
        return ExitCode::from(2);
    }
    println!("resuming from {}", dir.display());
    let report = resume_case(&CampaignConfig::default(), dir);
    if let Some(rec) = &report.recovery {
        println!("recovery report: {}", rec.to_json());
    }
    println!(
        "completed: {} ({} checkpoints verified, {} rollbacks)",
        report.completed, report.checkpoints_verified, report.rollbacks
    );
    if let Some(err) = &report.error {
        println!("error: {err}");
    }
    println!("--- last trace lines ---");
    for line in report.trace.iter().rev().take(25).rev() {
        println!("{line}");
    }
    if report.completed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Re-run a single repro artifact: `key=value` config header, then the
/// script after a `script:` line (the format `repro_artifact` writes).
/// Pass `--persist-dir` alongside `--replay` when the artifact's script
/// kills the driver: the kill-and-resume pipeline needs a store on disk.
fn replay_artifact(path: &std::path::Path, persist_dir: Option<PathBuf>) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {}: {e}", path.display());
            return ExitCode::from(2);
        }
    };
    let mut cfg = CampaignConfig {
        check_determinism: true,
        repro_dir: None,
        persist_dir,
        ..CampaignConfig::default()
    };
    let mut seed = 0u64;
    let mut scheme = cfg.schemes[0];
    let mut detection = cfg.detections[0];
    let mut script_lines = Vec::new();
    let mut in_script = false;
    for line in text.lines() {
        let line = line.trim();
        if in_script {
            script_lines.push(line);
            continue;
        }
        if line == "script:" {
            in_script = true;
            continue;
        }
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        match key {
            "seed" => seed = value.parse().unwrap_or(0),
            "scheme" => {
                scheme = parse_scheme(value).unwrap_or_else(|| {
                    eprintln!("unknown scheme {value:?}");
                    std::process::exit(2);
                })
            }
            "detection" => {
                detection = parse_detection(value).unwrap_or_else(|| {
                    eprintln!("unknown detection {value:?}");
                    std::process::exit(2);
                })
            }
            "ranks" => cfg.ranks = value.parse().unwrap_or(cfg.ranks),
            "spares" => cfg.spares = value.parse().unwrap_or(cfg.spares),
            "iterations" => cfg.iterations = value.parse().unwrap_or(cfg.iterations),
            "quantum_ms" => {
                cfg.quantum = Duration::from_millis(value.parse().unwrap_or(1));
            }
            "checkpoint_interval_ms" => {
                cfg.checkpoint_interval = Duration::from_millis(value.parse().unwrap_or(60));
            }
            "delta" => cfg.delta_checkpoints = value == "1",
            _ => {}
        }
    }
    let script = match FaultScript::parse(&script_lines.join("\n")) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bad script in artifact: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "replaying seed={seed} scheme={} detection={} ({} scripted fault(s))",
        scheme_name(scheme),
        detection_name(detection),
        script.len()
    );
    let case = run_script_case(&cfg, seed, scheme, detection, script);
    println!("outcome: {:?}", case.outcome);
    println!("--- last trace lines ---");
    for line in case.report.trace.iter().rev().take(25).rev() {
        println!("{line}");
    }
    if matches!(case.outcome, CaseOutcome::Violation(_)) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
