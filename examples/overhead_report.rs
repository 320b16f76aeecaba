//! Paper-style overhead report from the flight recorder: run a fault-free
//! 8-node virtual job plus one crash scenario per recovery scheme, fold
//! each run's structured event log into a per-phase overhead breakdown
//! (forward / checkpoint / compare / recovery — the stacks of Figs. 6–8),
//! and emit the artifacts:
//!
//! * `overhead_<scenario>.jsonl` — the replayable JSONL event log.
//! * `BENCH_overhead.json` — one JSON object per scenario with the folded
//!   breakdown.
//!
//! Every scenario is executed **twice** and the two JSONL logs must be
//! byte-identical (virtual-time determinism); each breakdown's rows must
//! sum to the run's total duration within 1%. Exit code 1 if either check
//! fails.
//!
//! With `--baseline FILE` the freshly produced breakdowns are additionally
//! gated against a committed `BENCH_overhead.json`: any phase row (total /
//! forward / checkpoint / compare / recovery) that regresses by more than
//! the tolerance (default 25%) fails the run, as does a scenario missing
//! from the current sweep. Virtual time makes the numbers deterministic,
//! so the gate catches protocol-behavior regressions, not machine noise.
//!
//! A `jacobi_wire_batch` scenario runs the Jacobi halo workload over the
//! threaded TCP backend: it must complete, record checkpoint-ship traffic
//! in the wire columns and leave a JSONL event log.
//!
//! A `jacobi_wire_delta{,_off}` pair runs a slowly-mutating drift-field
//! workload with incremental delta checkpoints on and off: delta records
//! must ship ≤ 40% of the full payload bytes they replace, the final
//! application states must be bit-identical between the two runs, and
//! under `--baseline` the delta shipped/raw ratio must not regress.
//!
//! A `fault_free_persisted` scenario re-runs the fault-free sweep with the
//! durable store on (event-log journaling + checkpoint slots). Virtual
//! time makes the journaling overhead a deterministic protocol cost — the
//! extra verified-state collection round-trip per epoch — and it is gated
//! at ≤ 5% of the in-memory run's total, run-to-run and (for the store
//! volume columns) against the committed baseline.
//!
//! ```text
//! cargo run --release --example overhead_report
//! cargo run --release --example overhead_report -- --out target/obs
//! cargo run --release --example overhead_report -- --baseline BENCH_overhead.json --tolerance 0.25
//! ```

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use acr::integration::JacobiHaloTask;
use acr::obs::{sinks, Breakdown, EventKind, ObsConfig};
use acr::pup::{Pup, PupResult, Puper};
use acr::runtime::{
    AddrSlot, AppMsg, DetectionMethod, ExecMode, FaultAction, FaultScript, Job, JobConfig,
    JobReport, Scheme, Task, TaskCtx, TaskId, TcpConfig, TransportKind, Trigger,
};

/// Communicating token ring with float dynamics — the same workload shape
/// the fault campaign sweeps, sized so virtual runs take milliseconds.
struct Ring {
    rank: usize,
    iter: u64,
    tokens: u64,
    acc: Vec<f64>,
    total_iters: u64,
}

impl Ring {
    fn new(rank: usize, total_iters: u64) -> Self {
        Self {
            rank,
            iter: 0,
            tokens: 0,
            acc: (0..48).map(|i| (rank * 100 + i) as f64).collect(),
            total_iters,
        }
    }
}

impl Task for Ring {
    fn try_step(&mut self, ctx: &mut TaskCtx<'_>) -> bool {
        if self.done() {
            return false;
        }
        if self.iter > 0 && self.tokens == 0 {
            return false;
        }
        if self.iter > 0 {
            self.tokens -= 1;
        }
        for (i, x) in self.acc.iter_mut().enumerate() {
            *x += ((self.iter as f64 + i as f64) * 1e-3).sin();
        }
        let next = TaskId {
            rank: (self.rank + 1) % ctx.ranks(),
            task: 0,
        };
        ctx.send(next, self.iter, vec![]);
        self.iter += 1;
        true
    }

    fn on_message(&mut self, _msg: AppMsg, _ctx: &mut TaskCtx<'_>) {
        self.tokens += 1;
    }

    fn progress(&self) -> u64 {
        self.iter
    }

    fn done(&self) -> bool {
        self.iter >= self.total_iters
    }

    fn pup(&mut self, p: &mut dyn Puper) -> PupResult {
        p.pup_usize(&mut self.rank)?;
        p.pup_u64(&mut self.iter)?;
        p.pup_u64(&mut self.tokens)?;
        self.acc.pup(p)?;
        p.pup_u64(&mut self.total_iters)
    }
}

const ITERS: u64 = 400;

/// Token-ring-paced workload with a large, slowly-mutating float field:
/// each iteration relaxes a ~1 K-float window whose position advances only
/// every 256 iterations, so between two checkpoint rounds just a handful of
/// the field's 4 KiB chunks change. This is the shape incremental delta
/// checkpoints exist for — a full compare would re-ship the whole field
/// every round.
struct DriftField {
    rank: usize,
    iter: u64,
    tokens: u64,
    field: Vec<f64>,
    total_iters: u64,
}

/// 64 Ki floats = 512 KiB of checkpointed field per task.
const DRIFT_FIELD_LEN: usize = 64 * 1024;
/// Floats relaxed per iteration.
const DRIFT_WINDOW: usize = 1024;

impl DriftField {
    fn new(rank: usize, total_iters: u64) -> Self {
        Self {
            rank,
            iter: 0,
            tokens: 0,
            field: (0..DRIFT_FIELD_LEN)
                .map(|i| (rank * DRIFT_FIELD_LEN + i) as f64 * 1e-4)
                .collect(),
            total_iters,
        }
    }
}

impl Task for DriftField {
    fn try_step(&mut self, ctx: &mut TaskCtx<'_>) -> bool {
        if self.done() {
            return false;
        }
        if self.iter > 0 && self.tokens == 0 {
            return false;
        }
        if self.iter > 0 {
            self.tokens -= 1;
        }
        let start = ((self.iter / 256) as usize * (DRIFT_WINDOW / 2)) % DRIFT_FIELD_LEN;
        for k in 0..DRIFT_WINDOW {
            let i = (start + k) % DRIFT_FIELD_LEN;
            self.field[i] += ((self.iter as f64 + i as f64) * 1e-3).sin() * 1e-3;
        }
        let next = TaskId {
            rank: (self.rank + 1) % ctx.ranks(),
            task: 0,
        };
        ctx.send(next, self.iter, vec![]);
        self.iter += 1;
        true
    }

    fn on_message(&mut self, _msg: AppMsg, _ctx: &mut TaskCtx<'_>) {
        self.tokens += 1;
    }

    fn progress(&self) -> u64 {
        self.iter
    }

    fn done(&self) -> bool {
        self.iter >= self.total_iters
    }

    fn pup(&mut self, p: &mut dyn Puper) -> PupResult {
        p.pup_usize(&mut self.rank)?;
        p.pup_u64(&mut self.iter)?;
        p.pup_u64(&mut self.tokens)?;
        self.field.pup(p)?;
        p.pup_u64(&mut self.total_iters)
    }
}

/// 8 active nodes: 4 ranks × 2 replicas, plus two spares for recovery.
fn cfg(scheme: Scheme) -> JobConfig {
    JobConfig::builder()
        .ranks(4)
        .tasks_per_rank(1)
        .spares(2)
        .scheme(scheme)
        .detection(DetectionMethod::ChunkedChecksum)
        .checkpoint_interval(Duration::from_millis(60))
        .heartbeat_period(Duration::from_millis(5))
        .heartbeat_timeout(Duration::from_millis(40))
        .max_duration(Duration::from_secs(30))
        .build()
        .expect("valid overhead config")
}

fn run(scheme: Scheme, script: &FaultScript) -> JobReport {
    Job::new(cfg(scheme))
        .with_faults(script.clone())
        .mode(ExecMode::virtual_default())
        .run(|rank, _| Box::new(Ring::new(rank, ITERS)) as Box<dyn Task>)
}

/// One blocking GET against the operator endpoint, returning the body —
/// all of it: the endpoint states a `Content-Length`, and a response the
/// driver's exit cut short is a connection that ended (`UnexpectedEof`),
/// not a malformed body for the caller to judge.
fn scrape(addr: std::net::SocketAddr, path: &str) -> std::io::Result<String> {
    use std::io::{Error, ErrorKind};
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: acr\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let cut = || Error::new(ErrorKind::UnexpectedEof, "response ended early");
    let (head, body) = response.split_once("\r\n\r\n").ok_or_else(cut)?;
    let stated: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length:"))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| Error::new(ErrorKind::InvalidData, "no Content-Length"))?;
    if body.len() < stated {
        return Err(cut());
    }
    Ok(body.to_string())
}

/// Iteration count for the operator-endpoint scenario: 10x the sweep, so
/// the virtual run spans enough wall-clock for the scraper thread to land
/// requests while the protocol is genuinely mid-flight.
const HTTP_ITERS: u64 = 10 * ITERS;

/// The fault-free sweep again, with the operator endpoint enabled and a
/// scraper thread polling `/metrics` + `/status` flat-out for the whole
/// run. Returns the report plus (successful scrapes, all-well-formed).
fn run_http_scraped() -> (JobReport, u64, bool) {
    let slot = AddrSlot::new();
    let stop = Arc::new(AtomicBool::new(false));
    let scraper = {
        let slot = slot.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let Some(addr) = slot.wait(Duration::from_secs(10)) else {
                return (0u64, false);
            };
            let mut scrapes = 0u64;
            let mut well_formed = true;
            loop {
                match (scrape(addr, "/metrics"), scrape(addr, "/status")) {
                    (Ok(metrics), Ok(status)) => {
                        scrapes += 1;
                        well_formed &= metrics.contains("acr_obs_events_dropped_total")
                            && status.starts_with('{')
                            && status.ends_with('}');
                    }
                    // The endpoint dies with the driver; once the run is
                    // over, connection errors are the natural end.
                    _ => {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                    }
                }
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            (scrapes, well_formed)
        })
    };
    let mut c = cfg(Scheme::Strong);
    c.http_addr = Some("127.0.0.1:0".to_string());
    c.http_bound = Some(slot);
    let report = Job::new(c)
        .mode(ExecMode::virtual_default())
        .run(|rank, _| Box::new(Ring::new(rank, HTTP_ITERS)) as Box<dyn Task>);
    stop.store(true, Ordering::Relaxed);
    let (scrapes, well_formed) = scraper.join().unwrap_or((0, false));
    (report, scrapes, well_formed)
}

/// Threaded-TCP wire scenario: the Jacobi halo workload over real sockets
/// with `FullCompare` detection, so every comparison round ships whole
/// checkpoint payloads to the buddy alongside the halo and protocol
/// chatter a flush coalesces into one write.
fn run_wire() -> JobReport {
    const RANKS: usize = 2;
    let cfg = JobConfig::builder()
        .ranks(RANKS)
        .tasks_per_rank(1)
        .spares(1)
        .scheme(Scheme::Strong)
        .detection(DetectionMethod::FullCompare)
        .checkpoint_interval(Duration::from_millis(50))
        .heartbeat_period(Duration::from_millis(10))
        .heartbeat_timeout(Duration::from_millis(800))
        .max_duration(Duration::from_secs(60))
        .transport(TransportKind::Tcp(TcpConfig::default()))
        .build()
        .expect("valid wire config");
    // Long enough for several 50 ms checkpoint intervals on a fast machine
    // (300 iterations finished inside the first one about one run in four,
    // and the ship-traffic check below then had nothing to see).
    const ITERS: u64 = 2000;
    Job::new(cfg).run(|rank, _| {
        Box::new(JacobiHaloTask::new(rank, RANKS, 16, 16, 16, ITERS)) as Box<dyn Task>
    })
}

/// Delta-checkpoint wire scenario: the drift-field workload over real
/// sockets with `FullCompare`, chunked at 4 KiB, with incremental delta
/// checkpoints off or on.
fn run_wire_delta(delta: bool) -> JobReport {
    const RANKS: usize = 2;
    const DRIFT_ITERS: u64 = 2500;
    let cfg = JobConfig::builder()
        .ranks(RANKS)
        .tasks_per_rank(1)
        .spares(1)
        .scheme(Scheme::Strong)
        .detection(DetectionMethod::FullCompare)
        .chunk_size(4096)
        .delta_checkpoints(delta)
        // The long threaded run emits enough driver-link flush events to
        // overflow the default ring and evict `job_start`; size for it.
        .obs(ObsConfig {
            ring_capacity: 16384,
            ..ObsConfig::default()
        })
        .checkpoint_interval(Duration::from_millis(25))
        .heartbeat_period(Duration::from_millis(10))
        .heartbeat_timeout(Duration::from_millis(800))
        .max_duration(Duration::from_secs(60))
        .transport(TransportKind::Tcp(TcpConfig::default()))
        .build()
        .expect("valid delta wire config");
    Job::new(cfg).run(|rank, _| Box::new(DriftField::new(rank, DRIFT_ITERS)) as Box<dyn Task>)
}

/// Send-side wire totals folded from a run's `WireBytes` link summaries.
#[derive(Default)]
struct WireTotals {
    sent: u64,
    ship_raw: u64,
    ship_wire: u64,
    delta_raw: u64,
    delta_shipped: u64,
}

fn wire_totals(report: &JobReport) -> WireTotals {
    let mut w = WireTotals::default();
    for e in &report.events {
        if let EventKind::WireBytes {
            bytes_sent,
            ship_raw_bytes,
            ship_wire_bytes,
            delta_raw_bytes,
            delta_shipped_bytes,
            ..
        } = &e.kind
        {
            w.sent += bytes_sent;
            w.ship_raw += ship_raw_bytes;
            w.ship_wire += ship_wire_bytes;
            w.delta_raw += delta_raw_bytes;
            w.delta_shipped += delta_shipped_bytes;
        }
    }
    w
}

fn crash_script() -> FaultScript {
    FaultScript::single(
        Trigger::AtIteration(ITERS / 3),
        FaultAction::Crash {
            replica: 0,
            rank: 1,
        },
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_dir = PathBuf::from("target/obs");
    let mut baseline: Option<PathBuf> = None;
    let mut tolerance = 0.25f64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out_dir = PathBuf::from(args.get(i).map(String::as_str).unwrap_or_else(|| {
                    eprintln!("--out needs a directory");
                    std::process::exit(2);
                }));
            }
            "--baseline" => {
                i += 1;
                baseline = Some(PathBuf::from(
                    args.get(i).map(String::as_str).unwrap_or_else(|| {
                        eprintln!("--baseline needs a file");
                        std::process::exit(2);
                    }),
                ));
            }
            "--tolerance" => {
                i += 1;
                tolerance = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--tolerance needs a fraction (e.g. 0.25)");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: overhead_report [--out DIR] [--baseline FILE] [--tolerance FRAC]"
                );
                return ExitCode::from(2);
            }
        }
        i += 1;
    }
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return ExitCode::from(2);
    }

    let scenarios: Vec<(&str, Scheme, FaultScript)> = vec![
        ("fault_free", Scheme::Strong, FaultScript::new()),
        ("strong_crash", Scheme::Strong, crash_script()),
        ("medium_crash", Scheme::Medium, crash_script()),
        ("weak_crash", Scheme::Weak, crash_script()),
    ];

    let mut rows: Vec<(String, Breakdown)> = Vec::new();
    let mut bench_lines: Vec<String> = Vec::new();
    let mut failed = false;

    for (name, scheme, script) in &scenarios {
        let report = run(*scheme, script);
        let replay = run(*scheme, script);
        let jsonl = sinks::to_jsonl(&report.events);
        if jsonl != sinks::to_jsonl(&replay.events) {
            eprintln!("FAIL {name}: replay produced a different JSONL event log");
            failed = true;
        }
        if !report.completed {
            eprintln!(
                "FAIL {name}: run did not complete: {}",
                report.error.as_deref().unwrap_or("unknown")
            );
            failed = true;
        }

        let b = Breakdown::from_events(&report.events);
        let sum = b.forward + b.checkpoint + b.compare + b.recovery;
        if b.total > 0.0 && ((sum - b.total) / b.total).abs() > 0.01 {
            eprintln!(
                "FAIL {name}: breakdown rows sum to {sum:.6}s, total is {:.6}s",
                b.total
            );
            failed = true;
        }

        let log_path = out_dir.join(format!("overhead_{name}.jsonl"));
        if let Err(e) = std::fs::write(&log_path, &jsonl) {
            eprintln!("cannot write {}: {e}", log_path.display());
            return ExitCode::from(2);
        }
        println!(
            "{name}: {} events -> {}  (rounds {}, recoveries {}, overhead {:.1}%)",
            report.events.len(),
            log_path.display(),
            b.rounds,
            b.recoveries,
            100.0 * b.overhead_fraction()
        );

        // Splice the scenario label into the breakdown's JSON object.
        let json = b.to_json();
        bench_lines.push(format!(
            "{{\"scenario\":\"{name}\",{}",
            json.strip_prefix('{').unwrap_or(&json)
        ));
        rows.push((name.to_string(), b));
    }

    // Durable-store scenario: the fault-free run again with journaling and
    // checkpoint-slot persistence on. The cost model is deterministic
    // under virtual time: durable writes themselves consume no virtual
    // time, but each epoch commit adds a verified-state collection
    // round-trip before the round closes. That protocol-level journaling
    // overhead is gated at ≤ 5% of the in-memory run's total.
    {
        let name = "fault_free_persisted";
        let store_dir = out_dir.join("store_fault_free");
        let replay_dir = out_dir.join("store_fault_free_replay");
        let run_persisted = |dir: &std::path::Path| {
            let _ = std::fs::remove_dir_all(dir);
            let cfg = JobConfig::builder()
                .ranks(4)
                .tasks_per_rank(1)
                .spares(2)
                .scheme(Scheme::Strong)
                .detection(DetectionMethod::ChunkedChecksum)
                .checkpoint_interval(Duration::from_millis(60))
                .heartbeat_period(Duration::from_millis(5))
                .heartbeat_timeout(Duration::from_millis(40))
                .max_duration(Duration::from_secs(30))
                .persist_dir(dir)
                .build()
                .expect("valid persisted overhead config");
            Job::new(cfg)
                .mode(ExecMode::virtual_default())
                .run(|rank, _| Box::new(Ring::new(rank, ITERS)) as Box<dyn Task>)
        };
        let report = run_persisted(&store_dir);
        let replay = run_persisted(&replay_dir);
        let jsonl = sinks::to_jsonl(&report.events);
        if jsonl != sinks::to_jsonl(&replay.events) {
            eprintln!("FAIL {name}: replay produced a different JSONL event log");
            failed = true;
        }
        let _ = std::fs::remove_dir_all(&replay_dir);
        if !report.completed {
            eprintln!(
                "FAIL {name}: run did not complete: {}",
                report.error.as_deref().unwrap_or("unknown")
            );
            failed = true;
        }
        let b = Breakdown::from_events(&report.events);
        // Journal-volume accounting: the event log (decision records) vs
        // the checkpoint slots (state payloads).
        let (mut journal_bytes, mut slot_bytes) = (0u64, 0u64);
        for e in &report.events {
            if let EventKind::StoreAppend { kind, bytes } = &e.kind {
                if kind == "slot" {
                    slot_bytes += bytes;
                } else {
                    journal_bytes += bytes;
                }
            }
        }
        if journal_bytes == 0 || slot_bytes == 0 {
            eprintln!(
                "FAIL {name}: durable store never engaged \
                 (journal {journal_bytes} B, slots {slot_bytes} B)"
            );
            failed = true;
        }
        // The ≤ 5% journaling-overhead gate, measured against the
        // in-memory fault_free breakdown computed above. Both runs are
        // virtual-time deterministic, so this is a protocol property, not
        // machine noise.
        if let Some((_, mem)) = rows.iter().find(|(n, _)| n == "fault_free") {
            let overhead = (b.total - mem.total) / mem.total.max(1e-9);
            if overhead > 0.05 {
                eprintln!(
                    "FAIL {name}: journaling overhead {:.2}% > 5% \
                     (in-memory {:.6}s, persisted {:.6}s)",
                    100.0 * overhead,
                    mem.total,
                    b.total
                );
                failed = true;
            } else {
                println!(
                    "{name}: journaling overhead {:.2}% of total \
                     (in-memory {:.6}s -> persisted {:.6}s)",
                    100.0 * overhead.max(0.0),
                    mem.total,
                    b.total
                );
            }
        }
        let log_path = out_dir.join(format!("overhead_{name}.jsonl"));
        if let Err(e) = std::fs::write(&log_path, &jsonl) {
            eprintln!("cannot write {}: {e}", log_path.display());
            return ExitCode::from(2);
        }
        println!(
            "{name}: journal {journal_bytes} B + slots {slot_bytes} B over {} durable \
             writes ({} fsyncs) -> {}",
            b.store_appends,
            b.store_fsyncs,
            log_path.display(),
        );
        let json = b.to_json();
        bench_lines.push(format!(
            "{{\"scenario\":\"{name}\",{}",
            json.strip_prefix('{').unwrap_or(&json)
        ));
        rows.push((name.to_string(), b));
    }

    // Operator-endpoint scenario: the fault-free sweep shape once more
    // (10x iterations, so the scraper genuinely overlaps the run), with
    // the live /metrics + /status endpoint enabled and scraped flat-out
    // from another thread. Serving scrapes must not perturb the protocol
    // at all: the endpoint reads non-draining ring snapshots and never
    // touches the virtual clock, so the event log must stay byte-identical
    // to an endpoint-less twin of the same run, and the virtual-time total
    // is gated at ≤ 1% of the twin's.
    {
        let name = "fault_free_http";
        let plain = Job::new(cfg(Scheme::Strong))
            .mode(ExecMode::virtual_default())
            .run(|rank, _| Box::new(Ring::new(rank, HTTP_ITERS)) as Box<dyn Task>);
        let (report, scrapes, well_formed) = run_http_scraped();
        let (replay, replay_scrapes, replay_well_formed) = run_http_scraped();
        let jsonl = sinks::to_jsonl(&report.events);
        if jsonl != sinks::to_jsonl(&replay.events) {
            eprintln!("FAIL {name}: replay produced a different JSONL event log");
            failed = true;
        }
        if !plain.completed || !report.completed || !replay.completed {
            eprintln!(
                "FAIL {name}: run did not complete: {}",
                report.error.as_deref().unwrap_or("unknown")
            );
            failed = true;
        }
        // The scraper races a fast virtual run for wall-clock; demand
        // evidence of scrape-under-load from at least one of the two
        // endpoint-enabled runs.
        if scrapes + replay_scrapes == 0 {
            eprintln!("FAIL {name}: endpoint was never scraped during either run");
            failed = true;
        }
        if !well_formed || !replay_well_formed {
            eprintln!("FAIL {name}: a scrape returned a malformed /metrics or /status body");
            failed = true;
        }
        // Byte-identical to the endpoint-less twin: the operator surface
        // is a pure observer.
        if jsonl != sinks::to_jsonl(&plain.events) {
            eprintln!("FAIL {name}: enabling the endpoint changed the event log");
            failed = true;
        }
        let b = Breakdown::from_events(&report.events);
        let mem = Breakdown::from_events(&plain.events);
        let overhead = (b.total - mem.total) / mem.total.max(1e-9);
        if overhead > 0.01 {
            eprintln!(
                "FAIL {name}: scrape-under-load overhead {:.2}% > 1% \
                 (plain {:.6}s, scraped {:.6}s)",
                100.0 * overhead,
                mem.total,
                b.total
            );
            failed = true;
        } else {
            println!(
                "{name}: {scrapes}+{replay_scrapes} scrapes served, overhead {:.2}% \
                 (plain {:.6}s -> scraped {:.6}s)",
                100.0 * overhead.max(0.0),
                mem.total,
                b.total
            );
        }
        let log_path = out_dir.join(format!("overhead_{name}.jsonl"));
        if let Err(e) = std::fs::write(&log_path, &jsonl) {
            eprintln!("cannot write {}: {e}", log_path.display());
            return ExitCode::from(2);
        }
        let json = b.to_json();
        bench_lines.push(format!(
            "{{\"scenario\":\"{name}\",{}",
            json.strip_prefix('{').unwrap_or(&json)
        ));
        rows.push((name.to_string(), b));
    }

    // Wire scenario: the same report, but over the threaded TCP backend.
    // Wall-clock phase timings are machine noise, so those columns are
    // zeroed (the baseline phase gate skips zero rows); the wire columns
    // carry the signal.
    {
        let name = "jacobi_wire_batch";
        let report = run_wire();
        if !report.completed {
            eprintln!(
                "FAIL {name}: run did not complete: {}",
                report.error.as_deref().unwrap_or("unknown")
            );
            failed = true;
        }
        let w = wire_totals(&report);
        if w.ship_raw == 0 {
            eprintln!("FAIL {name}: no checkpoint-ship traffic recorded");
            failed = true;
        }
        let jsonl = sinks::to_jsonl(&report.events);
        let log_path = out_dir.join(format!("overhead_{name}.jsonl"));
        if let Err(e) = std::fs::write(&log_path, &jsonl) {
            eprintln!("cannot write {}: {e}", log_path.display());
            return ExitCode::from(2);
        }
        println!(
            "{name}: ship {} -> {} bytes ({:.1}% of raw), sent {} -> {}",
            w.ship_raw,
            w.ship_wire,
            100.0 * w.ship_wire as f64 / w.ship_raw.max(1) as f64,
            w.sent,
            log_path.display(),
        );
        let mut b = Breakdown::from_events(&report.events);
        b.total = 0.0;
        b.forward = 0.0;
        b.checkpoint = 0.0;
        b.compare = 0.0;
        b.recovery = 0.0;
        let json = b.to_json();
        bench_lines.push(format!(
            "{{\"scenario\":\"{name}\",{}",
            json.strip_prefix('{').unwrap_or(&json)
        ));
        rows.push((name.to_string(), b));
    }

    // Incremental-delta scenario pair: the same slowly-mutating workload
    // with delta checkpoints off (full-ship baseline) and on. Gates:
    // deltas must engage, their bytes must undercut the full ships they
    // replace by ≥ 60%, and the application outcome must be bit-identical
    // to the full-ship run.
    {
        let full = run_wire_delta(false);
        let thin = run_wire_delta(true);
        for (name, r) in [
            ("jacobi_wire_delta_off", &full),
            ("jacobi_wire_delta", &thin),
        ] {
            if !r.completed {
                eprintln!(
                    "FAIL {name}: run did not complete: {}",
                    r.error.as_deref().unwrap_or("unknown")
                );
                failed = true;
            }
        }
        if full.final_states != thin.final_states {
            eprintln!("FAIL jacobi_wire_delta: final states differ from the full-ship run");
            failed = true;
        }
        let w_full = wire_totals(&full);
        let w_thin = wire_totals(&thin);
        if w_full.delta_raw != 0 {
            eprintln!("FAIL jacobi_wire_delta_off: delta records on a delta-off run");
            failed = true;
        }
        if w_thin.delta_raw == 0 {
            eprintln!("FAIL jacobi_wire_delta: no delta compare records were shipped");
            failed = true;
        }
        // The §4.2 payoff: each delta record carries the full chunk table
        // plus only the dirty windows, so across all delta rounds the
        // shipped bytes must be ≤ 40% of the full payloads they stood for.
        if w_thin.delta_shipped * 10 > w_thin.delta_raw * 4 {
            eprintln!(
                "FAIL jacobi_wire_delta: delta ships {} bytes for {} full-ship bytes (> 40%)",
                w_thin.delta_shipped, w_thin.delta_raw
            );
            failed = true;
        }
        for (name, report, w) in [
            ("jacobi_wire_delta_off", &full, &w_full),
            ("jacobi_wire_delta", &thin, &w_thin),
        ] {
            let jsonl = sinks::to_jsonl(&report.events);
            let log_path = out_dir.join(format!("overhead_{name}.jsonl"));
            if let Err(e) = std::fs::write(&log_path, &jsonl) {
                eprintln!("cannot write {}: {e}", log_path.display());
                return ExitCode::from(2);
            }
            println!(
                "{name}: delta {} -> {} bytes ({:.1}% of full ship), ship raw {} -> {}",
                w.delta_raw,
                w.delta_shipped,
                100.0 * w.delta_shipped as f64 / w.delta_raw.max(1) as f64,
                w.ship_raw,
                log_path.display(),
            );
            let mut b = Breakdown::from_events(&report.events);
            b.total = 0.0;
            b.forward = 0.0;
            b.checkpoint = 0.0;
            b.compare = 0.0;
            b.recovery = 0.0;
            let json = b.to_json();
            bench_lines.push(format!(
                "{{\"scenario\":\"{name}\",{}",
                json.strip_prefix('{').unwrap_or(&json)
            ));
            rows.push((name.to_string(), b));
        }
    }

    println!();
    print!("{}", acr::obs::report::render_table("scenario", &rows));

    let bench_path = out_dir.join("BENCH_overhead.json");
    let bench = format!("[\n  {}\n]\n", bench_lines.join(",\n  "));
    if let Err(e) = std::fs::write(&bench_path, bench) {
        eprintln!("cannot write {}: {e}", bench_path.display());
        return ExitCode::from(2);
    }
    println!("\nbenchmark summary -> {}", bench_path.display());

    if let Some(base_path) = baseline {
        if !gate_against_baseline(&base_path, tolerance, &rows) {
            failed = true;
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Compare fresh breakdowns against a committed baseline: every baseline
/// scenario must still exist, and no phase row may regress past the
/// tolerance. Returns `false` on any regression.
fn gate_against_baseline(
    base_path: &std::path::Path,
    tolerance: f64,
    rows: &[(String, Breakdown)],
) -> bool {
    let text = match std::fs::read_to_string(base_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read baseline {}: {e}", base_path.display());
            return false;
        }
    };
    let base_rows = match acr::obs::report::parse_bench(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bad baseline {}: {e}", base_path.display());
            return false;
        }
    };
    println!(
        "\nperf gate: {} baseline scenario(s) from {}, tolerance {:.0}%",
        base_rows.len(),
        base_path.display(),
        100.0 * tolerance
    );
    let mut ok = true;
    for (scenario, base) in &base_rows {
        let Some((_, cur)) = rows.iter().find(|(name, _)| name == scenario) else {
            eprintln!("FAIL perf gate: baseline scenario {scenario:?} missing from this run");
            ok = false;
            continue;
        };
        let phases = [
            ("total", base.total, cur.total),
            ("forward", base.forward, cur.forward),
            ("checkpoint", base.checkpoint, cur.checkpoint),
            ("compare", base.compare, cur.compare),
            ("recovery", base.recovery, cur.recovery),
        ];
        for (phase, old, new) in phases {
            // A phase the baseline never entered has no regression budget
            // to apportion; its appearance shows up in `total` anyway.
            if old <= 1e-9 {
                continue;
            }
            let ratio = new / old;
            if ratio > 1.0 + tolerance {
                eprintln!(
                    "FAIL perf gate: {scenario}/{phase} regressed {:.1}% \
                     (baseline {old:.6}s, now {new:.6}s)",
                    100.0 * (ratio - 1.0)
                );
                ok = false;
            } else {
                println!("  ok {scenario}/{phase}: {old:.6}s -> {new:.6}s ({ratio:.2}x)");
            }
        }
        // Durable-store volume columns: journal + slot bytes written per
        // run are virtual-time deterministic, so they get a hard ≤ 5%
        // regression budget regardless of `--tolerance` — a new record
        // type or a chattier journal shows up here immediately.
        if base.store_bytes > 0 && cur.store_bytes > 0 {
            let volumes = [
                ("store_appends", base.store_appends, cur.store_appends),
                ("store_bytes", base.store_bytes, cur.store_bytes),
                ("store_fsyncs", base.store_fsyncs, cur.store_fsyncs),
            ];
            for (col, old, new) in volumes {
                if new as f64 > old as f64 * 1.05 {
                    eprintln!(
                        "FAIL perf gate: {scenario}/{col} regressed \
                         (baseline {old}, now {new}, budget 5%)"
                    );
                    ok = false;
                } else {
                    println!("  ok {scenario}/{col}: {old} -> {new}");
                }
            }
        }
        // Delta-efficiency column: the delta shipped/raw ratio (lower is
        // better) must not regress past the tolerance. Absolute byte
        // counts vary with wall-clock round counts on a threaded run; the
        // ratio is machine-independent.
        if base.wire_delta_raw_bytes > 0 && cur.wire_delta_raw_bytes > 0 {
            let old = base.wire_delta_shipped_bytes as f64 / base.wire_delta_raw_bytes as f64;
            let new = cur.wire_delta_shipped_bytes as f64 / cur.wire_delta_raw_bytes as f64;
            if new > old * (1.0 + tolerance) {
                eprintln!(
                    "FAIL perf gate: {scenario}/delta_ratio regressed \
                     (baseline {old:.3}, now {new:.3})"
                );
                ok = false;
            } else {
                println!("  ok {scenario}/delta_ratio: {old:.3} -> {new:.3}");
            }
        }
    }
    ok
}
