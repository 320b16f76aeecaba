//! Acceptance battery for the operator surface (PR 8): the deterministic
//! `/status` fold, the live HTTP endpoint under a real TCP run (with an
//! in-test Prometheus exposition linter), and the offline store fold that
//! must mark a killed driver's abandoned capture.
//!
//! The killed stores produced here are left on disk (under
//! `target/operator-surface` by default, `ACR_OPERATOR_SURFACE_DIR` to
//! override) so CI can point `acr-top --store <dir> --snapshot` at them.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use acr::obs::{sinks, RecordedEvent, StatusModel};
use acr::pup::{Pup, PupResult, Puper};
use acr::runtime::{
    fold_store, AddrSlot, AppMsg, DetectionMethod, ExecMode, FaultAction, FaultScript, Job,
    JobConfig, JobReport, Scheme, StoreView, Task, TaskCtx, TaskId, TcpConfig, TransportKind,
    Trigger,
};

// ---------------------------------------------------------------------------
// Workload: the same communicating mini-ring the crash-restart battery uses,
// plus an optional hold-gate so the live-endpoint test can keep the job
// running until its scrapes are done.

struct Ring {
    rank: usize,
    iter: u64,
    tokens: u64,
    acc: Vec<f64>,
    total_iters: u64,
    hold_at: u64,
    release: Option<Arc<AtomicBool>>,
}

impl Ring {
    fn new(rank: usize, total_iters: u64) -> Self {
        Self {
            rank,
            iter: 0,
            tokens: 0,
            acc: (0..32).map(|i| (rank * 100 + i) as f64).collect(),
            total_iters,
            hold_at: u64::MAX,
            release: None,
        }
    }

    fn gated(rank: usize, total_iters: u64, hold_at: u64, release: Arc<AtomicBool>) -> Self {
        let mut r = Ring::new(rank, total_iters);
        r.hold_at = hold_at;
        r.release = Some(release);
        r
    }
}

impl Task for Ring {
    fn try_step(&mut self, ctx: &mut TaskCtx<'_>) -> bool {
        if self.done() {
            return false;
        }
        if self.iter >= self.hold_at
            && !self
                .release
                .as_ref()
                .is_some_and(|r| r.load(Ordering::Relaxed))
        {
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

const ITERS: u64 = 300;

fn cfg(scheme: Scheme) -> JobConfig {
    JobConfig::builder()
        .ranks(2)
        .tasks_per_rank(1)
        .spares(2)
        .scheme(scheme)
        .detection(DetectionMethod::FullCompare)
        .checkpoint_interval(Duration::from_millis(60))
        .heartbeat_period(Duration::from_millis(5))
        .heartbeat_timeout(Duration::from_millis(40))
        .max_duration(Duration::from_secs(30))
        .build()
        .expect("valid virtual-time config")
}

fn run_virtual(scheme: Scheme, script: &FaultScript) -> JobReport {
    Job::new(cfg(scheme))
        .with_faults(script.clone())
        .mode(ExecMode::virtual_default())
        .run(|rank, _| Box::new(Ring::new(rank, ITERS)) as Box<dyn Task>)
}

/// Stable store root so CI can run `acr-top --store … --snapshot` against
/// what this battery leaves behind.
fn store_root() -> PathBuf {
    std::env::var_os("ACR_OPERATOR_SURFACE_DIR")
        .map_or_else(|| PathBuf::from("target/operator-surface"), PathBuf::from)
}

fn store_dir(name: &str) -> PathBuf {
    let dir = store_root().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run_persisted(scheme: Scheme, script: &FaultScript, dir: &Path) -> JobReport {
    let mut c = cfg(scheme);
    c.persist_dir = Some(dir.to_path_buf());
    Job::new(c)
        .with_faults(script.clone())
        .mode(ExecMode::virtual_default())
        .run(|rank, _| Box::new(Ring::new(rank, ITERS)) as Box<dyn Task>)
}

// ---------------------------------------------------------------------------
// Tentpole layer 1: the status fold is deterministic byte-for-byte.

#[test]
fn status_json_is_byte_identical_across_virtual_runs() {
    let mut script = FaultScript::new();
    script.push(
        Trigger::At(0.100),
        FaultAction::Crash {
            replica: 1,
            rank: 1,
        },
    );
    // Ten times the battery's usual run, so a scraper has some wall clock
    // to land requests in while the protocol is mid-flight.
    let run = |c: JobConfig| {
        let report = Job::new(c)
            .with_faults(script.clone())
            .mode(ExecMode::virtual_default())
            .run(|rank, _| Box::new(Ring::new(rank, 10 * ITERS)) as Box<dyn Task>);
        assert!(report.completed, "error: {:?}", report.error);
        let mut model = StatusModel::fold(report.events.iter());
        model.mark_source_ended();
        (sinks::to_jsonl(&report.events), model)
    };
    let (log_a, a) = run(cfg(Scheme::Strong));

    // The twin serves the operator endpoint to a thread scraping /metrics
    // and /status flat out for as long as the run lasts. The endpoint is a
    // pure observer, so the twin's event log and status fold must match.
    // The run is not held open for the scraper: a held task moves the
    // virtual clock.
    let slot = AddrSlot::new();
    let stop = Arc::new(AtomicBool::new(false));
    let scraper = {
        let slot = slot.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut landed = 0u64;
            let Some(addr) = slot.wait(Duration::from_secs(10)) else {
                return landed;
            };
            // The endpoint dies with the driver: a scrape the exit refused
            // or cut short did not land.
            while !stop.load(Ordering::Relaxed) {
                let (Some(metrics), Some(status)) =
                    (try_get(addr, "/metrics"), try_get(addr, "/status"))
                else {
                    continue;
                };
                assert_eq!((metrics.0, status.0), (200, 200));
                lint_prometheus(&metrics.1).expect("a scraped /metrics is lint-clean");
                assert!(
                    metrics.1.contains("acr_obs_events_dropped_total"),
                    "{}",
                    metrics.1
                );
                assert!(
                    status.1.starts_with('{') && status.1.ends_with('}'),
                    "{}",
                    status.1
                );
                landed += 1;
            }
            landed
        })
    };
    let mut served = cfg(Scheme::Strong);
    served.http_addr = Some("127.0.0.1:0".to_string());
    served.http_bound = Some(slot);
    let (log_b, b) = run(served);
    stop.store(true, Ordering::Relaxed);
    let landed = scraper
        .join()
        .expect("every scrape that landed is well-formed");
    eprintln!("{landed} scrape pairs landed during the served run");

    assert_eq!(log_a, log_b, "serving the endpoint changed the event log");
    assert_eq!(
        a.to_json(),
        b.to_json(),
        "same virtual run must fold to byte-identical /status JSON"
    );
    assert_eq!(a.render(), b.render());

    // The fold saw the whole story: a completed job is not "interrupted",
    // the crash shows up as a recovery, and an epoch committed.
    let json = a.to_json();
    assert!(json.contains("\"interrupted\":false"), "{json}");
    assert!(a.ended() == Some(true));
    assert!(a.committed_round().is_some());
    assert!(a.abandoned_round().is_none());
    assert!(json.contains("\"recoveries\":1"), "{json}");
    assert!(json.contains("\"role\":\"failed\""), "{json}");
}

#[test]
fn incremental_fold_matches_batch_fold_over_a_real_run() {
    let report = run_virtual(Scheme::Medium, &FaultScript::new());
    assert!(report.completed);
    let batch = StatusModel::fold(report.events.iter()).to_json();
    // Apply in arbitrary chunk sizes — the poller's view.
    let mut inc = StatusModel::default();
    for chunk in report.events.chunks(7) {
        for ev in chunk {
            inc.apply(ev);
        }
    }
    assert_eq!(inc.to_json(), batch);
}

// ---------------------------------------------------------------------------
// In-test Prometheus exposition linter.

/// Validate Prometheus text exposition format: every sample line parses,
/// every family is announced by `# HELP` then `# TYPE` (in that order,
/// once), histogram families carry `_bucket`/`_sum`/`_count` with `le`
/// labels, and nothing is emitted for a family that was never announced.
fn lint_prometheus(text: &str) -> Result<(), String> {
    if text.is_empty() {
        return Err("empty exposition".into());
    }
    if !text.ends_with('\n') {
        return Err("exposition must end with a newline".into());
    }
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }
    let mut helped: BTreeMap<String, ()> = BTreeMap::new();
    let mut typed: BTreeMap<String, String> = BTreeMap::new();
    let mut buckets_seen: BTreeMap<String, bool> = BTreeMap::new();
    for (no, line) in text.lines().enumerate() {
        let ln = no + 1;
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest
                .split_once(' ')
                .ok_or(format!("line {ln}: HELP without text"))?;
            if !valid_name(name) {
                return Err(format!("line {ln}: bad metric name {name:?}"));
            }
            if help.trim().is_empty() {
                return Err(format!("line {ln}: empty HELP text for {name}"));
            }
            if helped.insert(name.to_string(), ()).is_some() {
                return Err(format!("line {ln}: duplicate HELP for {name}"));
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, ty) = rest
                .split_once(' ')
                .ok_or(format!("line {ln}: TYPE without a type"))?;
            if !matches!(
                ty,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                return Err(format!("line {ln}: unknown TYPE {ty:?}"));
            }
            if !helped.contains_key(name) {
                return Err(format!("line {ln}: TYPE {name} precedes its HELP"));
            }
            if typed.insert(name.to_string(), ty.to_string()).is_some() {
                return Err(format!("line {ln}: duplicate TYPE for {name}"));
            }
            continue;
        }
        if line.starts_with('#') {
            return Err(format!("line {ln}: unknown comment form {line:?}"));
        }
        // Sample line: name[{labels}] value
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or(format!("line {ln}: sample without value"))?;
        if value.parse::<f64>().is_err() && value != "+Inf" {
            return Err(format!("line {ln}: unparseable value {value:?}"));
        }
        let name = match series.split_once('{') {
            Some((n, labels)) => {
                if !labels.ends_with('}') {
                    return Err(format!("line {ln}: unterminated label set"));
                }
                n
            }
            None => series,
        };
        if !valid_name(name) {
            return Err(format!("line {ln}: bad metric name {name:?}"));
        }
        // Resolve the family: histogram samples use suffixed series names.
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| {
                let base = name.strip_suffix(suffix)?;
                (typed.get(base).map(String::as_str) == Some("histogram")).then_some(base)
            })
            .unwrap_or(name);
        match typed.get(family).map(String::as_str) {
            None => {
                return Err(format!(
                    "line {ln}: sample {name} for unannounced family {family}"
                ))
            }
            Some("histogram") => {
                if name == format!("{family}_bucket") {
                    if !series.contains("le=\"") {
                        return Err(format!("line {ln}: histogram bucket without le label"));
                    }
                    buckets_seen.insert(family.to_string(), true);
                }
            }
            Some(_) => {}
        }
    }
    for (family, ty) in &typed {
        if ty == "histogram" && !buckets_seen.contains_key(family) {
            return Err(format!("histogram {family} has no _bucket samples"));
        }
    }
    Ok(())
}

#[test]
fn exposition_linter_accepts_expose_and_rejects_malformed_text() {
    // A recorder with one counter and one histogram: the real format.
    let rec = acr::obs::Recorder::new(acr::obs::ObsConfig::default(), 1, Arc::new(|| 0.0));
    rec.inc_counter("acr_pack_total", 2);
    rec.observe("acr_pack_seconds", 0.002);
    let text = rec.expose();
    lint_prometheus(&text).expect("Recorder::expose must be lint-clean");
    // The dropped-events series is always present, even at zero.
    assert!(text.contains("acr_obs_events_dropped_total 0"), "{text}");
    assert!(
        text.contains("# HELP acr_obs_events_dropped_total"),
        "{text}"
    );
    assert!(text.contains("# HELP acr_pack_total"), "{text}");

    // And the linter is not a rubber stamp.
    assert!(lint_prometheus("acr_x 1\n").is_err(), "unannounced family");
    assert!(
        lint_prometheus("# TYPE acr_x counter\nacr_x 1\n").is_err(),
        "TYPE without HELP"
    );
    assert!(
        lint_prometheus("# HELP acr_x h\n# TYPE acr_x wibble\nacr_x 1\n").is_err(),
        "unknown type"
    );
    assert!(
        lint_prometheus("# HELP acr_x h\n# TYPE acr_x counter\nacr_x notanumber\n").is_err(),
        "bad value"
    );
    assert!(lint_prometheus("# HELP acr_x h\n# TYPE acr_x counter\nacr_x 1").is_err());
}

// ---------------------------------------------------------------------------
// Tentpole layer 2: the live endpoint, scraped during a real TCP run.

/// One GET against the operator endpoint: the status code and the body, or
/// `None` when the connection fails or the response ends before its
/// `Content-Length`.
fn try_get(addr: std::net::SocketAddr, path: &str) -> Option<(u16, String)> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .ok()?;
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: acr\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .ok()?;
    let mut response = String::new();
    stream.read_to_string(&mut response).ok()?;
    let (head, body) = response.split_once("\r\n\r\n")?;
    let code = head.split_whitespace().nth(1)?.parse().ok()?;
    let stated: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length:"))?
        .trim()
        .parse()
        .ok()?;
    (body.len() >= stated).then(|| (code, body.to_string()))
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
    try_get(addr, path).expect("a whole response from the endpoint")
}

#[test]
fn live_tcp_run_serves_lint_clean_metrics_and_deterministic_status() {
    let slot = AddrSlot::new();
    let release = Arc::new(AtomicBool::new(false));
    let job_release = Arc::clone(&release);
    let job_slot = slot.clone();
    let job = std::thread::spawn(move || {
        let cfg = JobConfig::builder()
            .ranks(2)
            .tasks_per_rank(1)
            .spares(1)
            .scheme(Scheme::Strong)
            .detection(DetectionMethod::FullCompare)
            .checkpoint_interval(Duration::from_millis(25))
            .heartbeat_period(Duration::from_millis(5))
            .heartbeat_timeout(Duration::from_millis(300))
            .max_duration(Duration::from_secs(30))
            .transport(TransportKind::Tcp(TcpConfig::default()))
            .http_addr("127.0.0.1:0")
            .http_bound(job_slot)
            .build()
            .expect("valid TCP config");
        Job::new(cfg).mode(ExecMode::Threaded).run(move |rank, _| {
            // Hold the ring at iteration 50 until the scraper is done,
            // so the endpoint is guaranteed to be serving mid-run.
            Box::new(Ring::gated(rank, 200, 50, Arc::clone(&job_release))) as Box<dyn Task>
        })
    });

    let addr = slot
        .wait(Duration::from_secs(10))
        .expect("endpoint must publish its bound address");

    // Give the job a moment to reach the hold point with a few checkpoint
    // rounds behind it, then scrape everything.
    std::thread::sleep(Duration::from_millis(300));

    let (code, metrics) = http_get(addr, "/metrics");
    let (status_code, status) = http_get(addr, "/status");
    // No since= parameter: the full buffer, seq 0 (job_start) included.
    let (events_code, events) = http_get(addr, "/events");
    let (miss_code, _) = http_get(addr, "/definitely-not-a-route");
    // The two since= fetches name the tail's first and last events. They
    // run while the job is held: once it runs on, its nodes' 4096-event
    // rings can evict those early events between fetches.
    let seqs: Vec<u64> = (events.lines())
        .filter_map(|l| RecordedEvent::from_json(l).ok())
        .map(|ev| ev.seq)
        .collect();
    let (first, last) = (seqs.first().copied(), seqs.last().copied());
    let since = |seq: Option<u64>| http_get(addr, &format!("/events?since={}", seq.unwrap_or(0)));
    let (_, tail) = since(last);
    let (_, all_but_first) = since(first);
    // Unblock the job before asserting so a failure cannot deadlock it.
    release.store(true, Ordering::Relaxed);

    assert_eq!(code, 200);
    lint_prometheus(&metrics).expect("live /metrics must be lint-clean");
    assert!(
        metrics.contains("acr_obs_events_dropped_total"),
        "dropped-events series must always be exposed:\n{metrics}"
    );
    assert!(metrics.contains("acr_pack_total"), "{metrics}");
    assert!(
        metrics.contains("acr_transport_connects_total"),
        "{metrics}"
    );

    assert_eq!(status_code, 200);
    assert!(status.starts_with('{') && status.ends_with('}'), "{status}");
    assert!(status.contains("\"scheme\":\"strong\""), "{status}");
    assert!(
        status.contains("\"detection\":\"full-compare\""),
        "{status}"
    );
    assert!(status.contains("\"nodes\":["), "{status}");
    // 2 ranks x 2 replicas: rank 0 of replica 0 buddies node 2.
    assert!(
        status.contains("\"node\":0,\"role\":\"active\",\"replica\":0,\"rank\":0,\"buddy\":2"),
        "{status}"
    );

    assert_eq!(events_code, 200);
    let parsed: Vec<RecordedEvent> = events
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| RecordedEvent::from_json(l).expect("NDJSON event line parses"))
        .collect();
    assert!(!parsed.is_empty());
    assert!(
        parsed.windows(2).all(|w| w[0].seq < w[1].seq),
        "event tail must be seq-ordered"
    );
    // The same fold the driver serves at /status works client-side on the
    // tail — what acr-top's live mode does.
    let client_model = StatusModel::fold(parsed.iter());
    assert!(client_model.to_json().contains("\"scheme\":\"strong\""));

    // Incremental tailing: `since` is EXCLUSIVE — the poller names the
    // last seq it has seen and the boundary event must not be replayed
    // (regression: this used to be `seq >= since` here but exclusive in
    // the store tailer).
    let last = parsed.last().unwrap().seq;
    assert_eq!(seqs.last(), Some(&last));
    for line in tail.lines().filter(|l| !l.trim().is_empty()) {
        let ev = RecordedEvent::from_json(line).expect("tail line parses");
        assert!(
            ev.seq > last,
            "since= must be exclusive of the boundary seq {last}, got {}",
            ev.seq
        );
    }
    // Boundary check against the full buffer: polling since= the very
    // first event's seq must drop exactly that event and keep the rest.
    let first = parsed.first().unwrap().seq;
    assert_eq!(seqs.first(), Some(&first));
    let refetched: Vec<u64> = all_but_first
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| RecordedEvent::from_json(l).expect("line parses").seq)
        .collect();
    assert!(
        !refetched.contains(&first),
        "boundary event {first} replayed by since={first}"
    );
    assert!(
        refetched.contains(&parsed[1].seq),
        "since={first} must keep events after the boundary"
    );

    assert_eq!(miss_code, 404);

    let report = job.join().expect("job thread");
    assert!(report.completed, "error: {:?}", report.error);
}

// ---------------------------------------------------------------------------
// Tentpole layer 3 + satellite: folding killed stores offline.

#[test]
fn killed_mid_round_store_folds_to_an_abandoned_capture() {
    let dir = store_dir("killed_mid_round");
    // Checkpoint interval 60 ms: round 1 opens at t=0.060 and needs a few
    // virtual quanta of consensus; a kill at 0.061 lands inside the
    // capture, after RoundOpened was journaled but before EpochCommit.
    let mut script = FaultScript::new();
    script.push(Trigger::At(0.061), FaultAction::KillDriver);
    let report = run_persisted(Scheme::Strong, &script, &dir);
    assert!(!report.completed);
    assert_eq!(
        report.error.as_deref(),
        Some("driver killed by scripted fault"),
        "{:?}",
        report.error
    );

    let model = fold_store(&dir).expect("fold the killed store");
    assert_eq!(model.ended(), None, "no job-close record in a killed store");
    assert_eq!(
        model.abandoned_round(),
        Some(1),
        "round 1 was open when the driver died: {}",
        model.to_json()
    );
    assert_eq!(model.committed_round(), None);
    let json = model.to_json();
    assert!(json.contains("\"interrupted\":true"), "{json}");
    assert!(json.contains("\"abandoned_round\":1"), "{json}");
    let frame = model.render();
    assert!(frame.contains("ABANDONED"), "{frame}");
    assert!(frame.contains("INTERRUPTED"), "{frame}");
    assert!(frame.contains("r0:") && frame.contains("r1:"), "{frame}");

    // Folding twice is deterministic byte-for-byte.
    assert_eq!(fold_store(&dir).unwrap().to_json(), json);
}

#[test]
fn killed_after_commit_store_folds_to_committed_epoch_without_abandonment() {
    let dir = store_dir("killed_between_rounds");
    // 0.100 is between the commit of round 1 (~0.06x) and the opening of
    // round 2 (0.120): one epoch durable, nothing in flight.
    let mut script = FaultScript::new();
    script.push(Trigger::At(0.100), FaultAction::KillDriver);
    let report = run_persisted(Scheme::Strong, &script, &dir);
    assert!(!report.completed);

    let model = fold_store(&dir).expect("fold the killed store");
    assert_eq!(model.committed_round(), Some(1));
    assert_eq!(model.abandoned_round(), None);
    assert!(model.to_json().contains("\"interrupted\":true"));
}

#[test]
fn crash_then_kill_store_replays_promotion_into_the_node_grid() {
    let dir = store_dir("crash_then_kill");
    let mut script = FaultScript::new();
    script.push(
        Trigger::At(0.080),
        FaultAction::Crash {
            replica: 1,
            rank: 0,
        },
    );
    script.push(Trigger::At(0.250), FaultAction::KillDriver);
    let report = run_persisted(Scheme::Strong, &script, &dir);
    assert!(!report.completed);

    let mut view = StoreView::open(&dir);
    view.refresh().expect("replay the journal");
    assert!(view.records() > 0);
    assert_eq!(view.closed(), None, "killed journal never closes");
    assert_eq!(view.decode_errors(), 0);
    let model = view.status();
    let json = model.to_json();
    // The dead node shows as failed, and a spare took over its slot.
    assert!(json.contains("\"role\":\"failed\""), "{json}");
    assert!(json.contains("\"recoveries\":1"), "{json}");
    assert!(json.contains("\"interrupted\":true"), "{json}");
    // The promoted spare (node 4 or 5) holds replica 1 rank 0 and buddies
    // node 0 — visible in the rendered grid.
    let frame = model.render();
    assert!(frame.contains("r1:"), "{frame}");
    assert!(
        !frame.contains("VACANT"),
        "promotion must refill the slot: {frame}"
    );
}

#[test]
fn completed_persisted_store_folds_clean() {
    let dir = store_dir("completed");
    let report = run_persisted(Scheme::Strong, &FaultScript::new(), &dir);
    assert!(report.completed);

    let model = fold_store(&dir).expect("fold the completed store");
    assert_eq!(model.ended(), Some(true));
    assert_eq!(model.abandoned_round(), None);
    assert!(model.committed_round().is_some());
    assert!(model.to_json().contains("\"interrupted\":false"));
    assert!(model.render().contains("completed"));
}

#[test]
fn fold_store_refuses_a_directory_with_no_journal() {
    let dir = store_dir("not_a_store");
    std::fs::create_dir_all(&dir).unwrap();
    assert!(fold_store(&dir).is_err());
}
