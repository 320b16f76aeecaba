//! Transport fault-tolerance tests: a transient socket drop must be
//! absorbed by the reconnect/replay machinery without any node being
//! declared dead, while a *persistent* outage (quarantine) must surface
//! through the stale-link probe path and end in a normal hard-error
//! recovery — the node behind the dead wire is replaced even though its
//! process never crashed.
//!
//! The tests drive the fault through [`TransportControl`], the test
//! handle that severs a node's router link or its direct buddy link, or
//! quarantines the node on both, mid-run.

use std::sync::Mutex;
use std::time::Duration;

use acr::obs::{EventKind, DRIVER_NODE};
use acr::pup::{Pup, PupResult, Puper};
use acr::runtime::{
    run_node_host, AppMsg, DetectionMethod, ExecMode, FaultAction, FaultScript, Job, JobConfig,
    JobReport, Scheme, Task, TaskCtx, TaskId, TcpConfig, TransportControl, TransportKind, Trigger,
};

/// Threaded TCP jobs are thread-heavy; concurrent cases oversubscribe CI
/// runners enough to trip heartbeat detectors. Serialize.
static JOB_SERIAL: Mutex<()> = Mutex::new(());

const RANKS: usize = 2;
const ITERS: u64 = 200;

/// Paced token ring: ~500µs per iteration keeps the job alive long enough
/// for mid-run link faults to land while it is doing real protocol work.
struct PacedRing {
    rank: usize,
    iter: u64,
    tokens: u64,
    acc: Vec<f64>,
}

impl PacedRing {
    fn new(rank: usize) -> Self {
        Self {
            rank,
            iter: 0,
            tokens: 0,
            acc: (0..32).map(|i| (rank * 100 + i) as f64).collect(),
        }
    }
}

impl Task for PacedRing {
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
        std::thread::sleep(Duration::from_micros(500));
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
        self.iter >= ITERS
    }

    fn pup(&mut self, p: &mut dyn Puper) -> PupResult {
        p.pup_usize(&mut self.rank)?;
        p.pup_u64(&mut self.iter)?;
        p.pup_u64(&mut self.tokens)?;
        self.acc.pup(p)
    }
}

fn run_tcp(cfg: JobConfig) -> JobReport {
    Job::new(cfg)
        .mode(ExecMode::Threaded)
        .run(|rank, _| Box::new(PacedRing::new(rank)) as Box<dyn Task>)
}

fn base_cfg(heartbeat_timeout: Duration, transport: TransportKind) -> JobConfig {
    JobConfig::builder()
        .ranks(RANKS)
        .tasks_per_rank(1)
        .spares(2)
        .scheme(Scheme::Strong)
        .detection(DetectionMethod::ChunkedChecksum)
        .checkpoint_interval(Duration::from_millis(15))
        .heartbeat_period(Duration::from_millis(10))
        .heartbeat_timeout(heartbeat_timeout)
        .max_duration(Duration::from_secs(30))
        .transport(transport)
        .build()
        .expect("valid reconnect config")
}

/// A counter's value in the report's metrics exposition (0 when absent).
fn counter(report: &JobReport, name: &str) -> u64 {
    report
        .metrics
        .lines()
        .filter(|l| {
            l.strip_prefix(name)
                .is_some_and(|rest| rest.starts_with([' ', '{']))
        })
        .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
        .sum()
}

fn connects_for(report: &JobReport, node: u32) -> usize {
    report
        .events
        .iter()
        .filter(|e| e.node == node && matches!(e.kind, EventKind::TransportConnect { .. }))
        .count()
}

/// Event-taxonomy attribution audit: liveness probes are *driver* policy
/// (emitted as `DRIVER_NODE`), while dial attempts and retries are
/// *endpoint* mechanics (emitted as the dialing node). An event on the
/// wrong side means a probe got blamed on a node or a retry on the
/// driver, which corrupts per-node overhead attribution downstream.
fn audit_transport_attribution(report: &JobReport) {
    for e in &report.events {
        match e.kind {
            EventKind::ProbeSent { .. } | EventKind::ProbeDeath { .. } => assert_eq!(
                e.node, DRIVER_NODE,
                "liveness probe attributed to a node: {e:?}"
            ),
            EventKind::TransportConnect { .. } | EventKind::TransportRetry { .. } => {
                assert_ne!(
                    e.node, DRIVER_NODE,
                    "endpoint dial event attributed to the driver: {e:?}"
                );
            }
            _ => {}
        }
    }
}

/// A mid-run socket kill is a *transient* fault: the endpoint must redial,
/// the replay ring must re-deliver everything queued during the outage,
/// and nobody may be reported dead.
#[test]
fn socket_kill_reconnects_without_spurious_death() {
    let _guard = JOB_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let control = TransportControl::new();
    let cfg = base_cfg(
        // Generous: the outage lasts a few milliseconds (backoff starts at
        // 1ms); only a reconnect *failure* should ever approach this.
        Duration::from_secs(1),
        TransportKind::Tcp(TcpConfig {
            control: Some(control.clone()),
            ..TcpConfig::default()
        }),
    );
    let killer = {
        let control = control.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            let a = control.sever(2);
            std::thread::sleep(Duration::from_millis(30));
            let b = control.sever(3);
            (a, b)
        })
    };
    let report = run_tcp(cfg);
    let (severed_a, severed_b) = killer.join().unwrap();
    assert!(severed_a && severed_b, "sever() found no live link to kill");
    assert!(
        report.completed,
        "job failed: {:?}\n{}",
        report.error,
        report.trace.join("\n")
    );
    assert!(report.replicas_agree());
    assert_eq!(
        report.hard_errors_recovered,
        0,
        "socket kill was misread as node death:\n{}",
        report.trace.join("\n")
    );
    assert_eq!(report.restarts_from_beginning, 0);
    // Reconnect evidence: each severed node dialed in at least twice —
    // once at startup, once after its link was cut.
    for node in [2u32, 3u32] {
        assert!(
            connects_for(&report, node) >= 2,
            "node {node} shows no reconnect (connects: {}, retries metric:\n{})",
            connects_for(&report, node),
            report.metrics
        );
    }
    // The wire accounting made it into the flight recorder.
    assert!(
        report.events.iter().any(|e| matches!(
            e.kind,
            EventKind::WireBytes { bytes_sent, .. } if bytes_sent > 0
        )),
        "no WireBytes event recorded"
    );
    audit_transport_attribution(&report);
}

/// Paced ring variant whose checkpoint payload is mostly static: a 4 Ki
/// float field with one 64-float window mutating per iteration, chunked
/// small enough that delta records engage between rounds.
struct DriftPacedRing {
    rank: usize,
    iter: u64,
    tokens: u64,
    field: Vec<f64>,
}

const DRIFT_LEN: usize = 4096;
const DRIFT_WINDOW: usize = 64;

impl DriftPacedRing {
    fn new(rank: usize) -> Self {
        Self {
            rank,
            iter: 0,
            tokens: 0,
            field: (0..DRIFT_LEN)
                .map(|i| (rank * DRIFT_LEN + i) as f64 * 1e-4)
                .collect(),
        }
    }
}

impl Task for DriftPacedRing {
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
        std::thread::sleep(Duration::from_micros(500));
        let start = ((self.iter / 32) as usize * DRIFT_WINDOW) % DRIFT_LEN;
        for k in 0..DRIFT_WINDOW {
            let i = (start + k) % DRIFT_LEN;
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
        self.iter >= ITERS
    }

    fn pup(&mut self, p: &mut dyn Puper) -> PupResult {
        p.pup_usize(&mut self.rank)?;
        p.pup_u64(&mut self.iter)?;
        p.pup_u64(&mut self.tokens)?;
        self.field.pup(p)
    }
}

/// A socket kill in the middle of an active delta chain must be absorbed
/// exactly like any other transient outage: the replay ring re-delivers
/// the in-flight compare records, nobody is declared dead, the replicas
/// still agree, and the delta path keeps shipping thin records: the
/// sender's base is its own rollback target and the buddy keeps none, so
/// an outage has no base to desynchronize.
#[test]
fn socket_kill_mid_delta_chain_recovers_cleanly() {
    let _guard = JOB_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let control = TransportControl::new();
    let cfg = JobConfig::builder()
        .ranks(RANKS)
        .tasks_per_rank(1)
        .spares(2)
        .scheme(Scheme::Strong)
        .detection(DetectionMethod::FullCompare)
        .chunk_size(256)
        .delta_checkpoints(true)
        .checkpoint_interval(Duration::from_millis(15))
        .heartbeat_period(Duration::from_millis(10))
        .heartbeat_timeout(Duration::from_secs(1))
        .max_duration(Duration::from_secs(30))
        .transport(TransportKind::Tcp(TcpConfig {
            control: Some(control.clone()),
            ..TcpConfig::default()
        }))
        .build()
        .expect("valid delta reconnect config");
    let killer = {
        let control = control.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(40));
            let a = control.sever(2);
            std::thread::sleep(Duration::from_millis(40));
            let b = control.sever(3);
            (a, b)
        })
    };
    let report = Job::new(cfg)
        .mode(ExecMode::Threaded)
        .run(|rank, _| Box::new(DriftPacedRing::new(rank)) as Box<dyn Task>);
    let (severed_a, severed_b) = killer.join().unwrap();
    assert!(severed_a && severed_b, "sever() found no live link to kill");
    assert!(
        report.completed,
        "job failed: {:?}\n{}",
        report.error,
        report.trace.join("\n")
    );
    assert!(report.replicas_agree());
    assert_eq!(
        report.hard_errors_recovered,
        0,
        "socket kill mid-delta was misread as node death:\n{}",
        report.trace.join("\n")
    );
    assert_eq!(report.restarts_from_beginning, 0);
    for node in [2u32, 3u32] {
        assert!(
            connects_for(&report, node) >= 2,
            "node {node} shows no reconnect (connects: {})",
            connects_for(&report, node),
        );
    }
    // The delta path was live around the outage, not silently disabled.
    let delta_ships = report
        .events
        .iter()
        .filter(|e| {
            matches!(
                &e.kind,
                EventKind::CompareShip { method, .. } if method == "full-compare-delta"
            )
        })
        .count();
    assert!(
        delta_ships > 0,
        "no delta compare records shipped:\n{}",
        report.metrics
    );
    audit_transport_attribution(&report);
}

/// A quarantined link never reattaches: the stale monitor must flag it,
/// the driver must probe, and the unreachable node must be replaced by a
/// spare via the ordinary hard-error recovery path — reachability loss is
/// indistinguishable from death and must be handled as such.
#[test]
fn quarantined_link_is_probed_and_node_replaced() {
    let _guard = JOB_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let control = TransportControl::new();
    let cfg = base_cfg(
        Duration::from_millis(150),
        TransportKind::Tcp(TcpConfig {
            stale_after: Duration::from_millis(50),
            control: Some(control.clone()),
            ..TcpConfig::default()
        }),
    );
    let killer = {
        let control = control.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            // quarantine() both cuts the live socket and refuses re-accept.
            control.quarantine(2)
        })
    };
    let report = run_tcp(cfg);
    assert!(
        report.completed,
        "job failed: {:?}\n{}",
        report.error,
        report.trace.join("\n")
    );
    assert!(
        killer.join().unwrap(),
        "quarantine found no link for node 2"
    );
    assert!(report.replicas_agree());
    assert!(
        report.hard_errors_recovered >= 1,
        "unreachable node was never replaced:\n{}",
        report.trace.join("\n")
    );
    // The stale-link → liveness-probe path fired: the outage was noticed
    // at the transport layer and escalated to a driver probe of node 2.
    assert!(
        report
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::ProbeSent { suspect: 2 })),
        "no transport-triggered probe of node 2:\n{}",
        report.metrics
    );
    assert!(
        report.metrics.contains("acr_transport_probes_total"),
        "transport probe counter missing from metrics:\n{}",
        report.metrics
    );
    audit_transport_attribution(&report);
}

/// 4 MiB of state per node, a few words of it rewritten per ~0.5 ms step:
/// under `FullCompare` every round ships one 4 MiB frame per buddy pair.
struct PacedSlab {
    iter: u64,
    words: Vec<u64>,
}

const SLAB_WORDS: usize = (4 << 20) / 8;
const SLAB_ITERS: u64 = 300;

impl PacedSlab {
    fn new(rank: usize) -> Self {
        Self {
            iter: 0,
            words: (0..SLAB_WORDS as u64).map(|i| i ^ rank as u64).collect(),
        }
    }
}

impl Task for PacedSlab {
    fn try_step(&mut self, _ctx: &mut TaskCtx<'_>) -> bool {
        if self.done() {
            return false;
        }
        std::thread::sleep(Duration::from_micros(500));
        for k in 0..8 {
            let at = (self.iter as usize * 8191 + k * 131) % SLAB_WORDS;
            self.words[at] = self.words[at].wrapping_mul(6364136223846793005) ^ self.iter;
        }
        self.iter += 1;
        true
    }

    fn on_message(&mut self, _msg: AppMsg, _ctx: &mut TaskCtx<'_>) {}

    fn progress(&self) -> u64 {
        self.iter
    }

    fn done(&self) -> bool {
        self.iter >= SLAB_ITERS
    }

    fn pup(&mut self, p: &mut dyn Puper) -> PupResult {
        p.pup_u64(&mut self.iter)?;
        self.words.pup(p)
    }
}

/// Sockets cut while 4 MiB checkpoint frames are crossing them — the
/// buddy link the frames take, from either end, mid vectored write on one
/// side and mid receive-into-its-own-allocation on the other, and the
/// router links beside it: each frame still arrives once and intact. A
/// torn or repeated frame would show as a poisoned link that never
/// recovers, a comparison that finds the replicas apart, or a final state
/// that differs from the undisturbed run's; a frame lost, as a round that
/// never completes.
#[test]
fn socket_kills_mid_checkpoint_ship_lose_nothing() {
    let _guard = JOB_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let run = |control: Option<TransportControl>| {
        let cfg = JobConfig::builder()
            .ranks(1)
            .tasks_per_rank(1)
            .spares(1)
            .scheme(Scheme::Strong)
            .detection(DetectionMethod::FullCompare)
            .checkpoint_interval(Duration::from_millis(15))
            .heartbeat_period(Duration::from_millis(20))
            .heartbeat_timeout(Duration::from_secs(5))
            .max_duration(Duration::from_secs(60))
            .transport(TransportKind::Tcp(TcpConfig {
                control,
                ..TcpConfig::default()
            }))
            .build()
            .expect("valid slab config");
        Job::new(cfg)
            .mode(ExecMode::Threaded)
            .run(|rank, _| Box::new(PacedSlab::new(rank)) as Box<dyn Task>)
    };
    let undisturbed = run(None);
    assert!(undisturbed.completed && undisturbed.replicas_agree());

    let control = TransportControl::new();
    let killer = {
        let control = control.clone();
        std::thread::spawn(move || {
            // A ship takes a few milliseconds of every 15 ms round: cuts
            // 4 ms apart land inside several — on the buddy link from
            // either end, and on the two replica nodes' router links.
            std::thread::sleep(Duration::from_millis(30));
            (0..40)
                .filter(|i| {
                    std::thread::sleep(Duration::from_millis(4));
                    match i % 4 {
                        0 | 2 => control.sever_buddy_link(i / 2 % 2),
                        _ => control.sever(i / 2 % 2),
                    }
                })
                .count()
        })
    };
    let report = run(Some(control));
    let severed = killer.join().unwrap();
    assert!(severed >= 10, "only {severed} cuts found a live link");
    let redials = counter(&report, "acr_buddy_link_attaches_total");
    assert!(
        redials >= 2,
        "the buddy link was never redialed ({redials} attaches)"
    );
    assert!(
        report.completed,
        "job failed: {:?}\n{}",
        report.error,
        report.trace.join("\n")
    );
    assert_eq!(
        (report.hard_errors_recovered, report.sdc_rounds_detected),
        (0, 0),
        "a cut socket was misread as a dead node or a corrupt checkpoint:\n{}",
        report.trace.join("\n")
    );
    assert!(report.checkpoints_verified >= 4, "rounds kept completing");
    assert!(connects_for(&report, 0) >= 2 && connects_for(&report, 1) >= 2);
    assert!(report.replicas_agree());
    assert_eq!(report.final_states, undisturbed.final_states);
    assert_eq!(
        report.final_states[&(0, 0)][0].len(),
        8 + 8 + 8 * SLAB_WORDS
    );
}

/// A task whose only weight is its state: `BALLAST` bytes of xorshift
/// noise and a short paced loop.
struct Ballast {
    iter: u64,
    noise: Vec<u8>,
}

const BALLAST: usize = 8 << 20;

impl Ballast {
    fn new(rank: usize) -> Self {
        let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ rank as u64;
        let noise = (0..BALLAST)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        Self { iter: 0, noise }
    }
}

impl Task for Ballast {
    fn try_step(&mut self, _ctx: &mut TaskCtx<'_>) -> bool {
        if self.done() {
            return false;
        }
        std::thread::sleep(Duration::from_micros(500));
        self.iter += 1;
        true
    }

    fn on_message(&mut self, _msg: AppMsg, _ctx: &mut TaskCtx<'_>) {}

    fn progress(&self) -> u64 {
        self.iter
    }

    fn done(&self) -> bool {
        self.iter >= 20
    }

    fn pup(&mut self, p: &mut dyn Puper) -> PupResult {
        p.pup_u64(&mut self.iter)?;
        self.noise.pup(p)
    }
}

/// Teardown must deliver every live node's `FinalState`, however long the
/// ship path takes to carry it: with megabytes of incompressible task
/// state per node the first one arrives well after the driver drain loop's
/// 50 ms idle gap, and a drain that gave up at that gap left
/// `final_states` short (and `replicas_agree()` vacuous). The second pass
/// runs the nodes in a node host (`run_node_host`, as another process
/// would): the host must keep its links up until the driver has what the
/// workers queued last, not close them the moment the workers exit.
#[test]
fn teardown_delivers_large_final_states() {
    let _guard = JOB_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const SPARES: usize = 1;
    for remote_nodes in [false, true] {
        // Reserve a port by binding then dropping; the router rebinds it.
        let addr = remote_nodes.then(|| {
            let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("bind probe");
            probe.local_addr().expect("probe addr")
        });
        let cfg = JobConfig::builder()
            .ranks(RANKS)
            .tasks_per_rank(1)
            .spares(SPARES)
            .scheme(Scheme::Strong)
            .detection(DetectionMethod::Checksum)
            // No round fires: the only bulk traffic is the final states.
            .checkpoint_interval(Duration::from_secs(20))
            .heartbeat_period(Duration::from_millis(20))
            .heartbeat_timeout(Duration::from_secs(2))
            .max_duration(Duration::from_secs(30))
            .transport(TransportKind::Tcp(TcpConfig {
                addr,
                remote_nodes,
                ..TcpConfig::default()
            }))
            .build()
            .expect("valid ballast config");
        let host = addr.map(|addr| {
            let nodes: Vec<usize> = (0..2 * RANKS + SPARES).collect();
            std::thread::spawn(move || {
                run_node_host(addr, &nodes, |rank, _| {
                    Box::new(Ballast::new(rank)) as Box<dyn Task>
                })
            })
        });
        let report = Job::new(cfg)
            .mode(ExecMode::Threaded)
            .run(|rank, _| Box::new(Ballast::new(rank)) as Box<dyn Task>);
        if let Some(host) = host {
            host.join().unwrap().expect("node host ran");
        }
        assert!(
            report.completed,
            "remote_nodes={remote_nodes}: job failed: {:?}\n{}",
            report.error,
            report.trace.join("\n")
        );
        assert_eq!(
            report.final_states.len(),
            2 * RANKS,
            "remote_nodes={remote_nodes}: teardown dropped final states: got {:?}",
            report.final_states.keys().collect::<Vec<_>>()
        );
        for tasks in report.final_states.values() {
            assert_eq!(tasks.len(), 1);
            assert!(tasks[0].len() >= BALLAST);
        }
        assert!(report.replicas_agree());
    }
}

/// A spare promoted inside a node host takes over the dead node's rank:
/// every node keeps its own copy of the replica layout, so the ring's
/// tokens reach the spare only if each node applied the driver's
/// `LayoutChanged`. Run with local endpoints and with every node in one
/// node host, the job recovers the crash and its later rounds verify.
/// Node-side counters are not read: a node host records nothing.
#[test]
fn a_spare_promoted_inside_a_node_host_takes_over() {
    let _guard = JOB_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const SPARES: usize = 1;
    for remote_nodes in [false, true] {
        // Reserve a port by binding then dropping; the router rebinds it.
        let addr = remote_nodes.then(|| {
            let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("bind probe");
            probe.local_addr().expect("probe addr")
        });
        let cfg = JobConfig::builder()
            .ranks(RANKS)
            .tasks_per_rank(1)
            .spares(SPARES)
            .scheme(Scheme::Strong)
            .detection(DetectionMethod::FullCompare)
            .checkpoint_interval(Duration::from_millis(15))
            .heartbeat_period(Duration::from_millis(10))
            .heartbeat_timeout(Duration::from_millis(150))
            .max_duration(Duration::from_secs(30))
            .transport(TransportKind::Tcp(TcpConfig {
                addr,
                remote_nodes,
                ..TcpConfig::default()
            }))
            .build()
            .expect("valid crash config");
        let host = addr.map(|addr| {
            let nodes: Vec<usize> = (0..2 * RANKS + SPARES).collect();
            std::thread::spawn(move || {
                run_node_host(addr, &nodes, |rank, _| {
                    Box::new(PacedRing::new(rank)) as Box<dyn Task>
                })
            })
        });
        let script = FaultScript::single(
            Trigger::AfterCheckpoints(2),
            FaultAction::Crash {
                replica: 0,
                rank: 1,
            },
        );
        let report = Job::new(cfg)
            .with_faults(script)
            .mode(ExecMode::Threaded)
            .run(|rank, _| Box::new(PacedRing::new(rank)) as Box<dyn Task>);
        if let Some(host) = host {
            host.join().unwrap().expect("node host ran");
        }
        let trace = report.trace.join("\n");
        assert!(
            report.completed,
            "remote_nodes={remote_nodes}: job failed: {:?}\n{trace}",
            report.error
        );
        assert!(
            report.replicas_agree(),
            "remote_nodes={remote_nodes}\n{trace}"
        );
        assert_eq!(
            report.crashes_injected_at.len(),
            1,
            "remote_nodes={remote_nodes}\n{trace}"
        );
        assert_eq!(
            report.hard_errors_recovered, 1,
            "remote_nodes={remote_nodes}\n{trace}"
        );
        assert_eq!(
            report.restarts_from_beginning, 0,
            "remote_nodes={remote_nodes}\n{trace}"
        );
        assert!(
            report.checkpoints_verified >= 3,
            "remote_nodes={remote_nodes}: {} rounds verified\n{trace}",
            report.checkpoints_verified
        );
    }
}

/// The buddy link follows the buddy: a crashed replica-1 node is replaced
/// by a spare, its replica-0 partner drops the link to the dead node and
/// dials the spare at its next compare, and the rounds after the promotion
/// verify over that link.
#[test]
fn a_promoted_spare_is_dialed_and_its_rounds_verify() {
    let _guard = JOB_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = JobConfig::builder()
        .ranks(1)
        .tasks_per_rank(1)
        .spares(1)
        .scheme(Scheme::Strong)
        .detection(DetectionMethod::FullCompare)
        .checkpoint_interval(Duration::from_millis(15))
        .heartbeat_period(Duration::from_millis(10))
        .heartbeat_timeout(Duration::from_millis(150))
        .max_duration(Duration::from_secs(30))
        .transport(TransportKind::Tcp(TcpConfig::default()))
        .build()
        .expect("valid crash config");
    let script = FaultScript::single(
        Trigger::AfterCheckpoints(2),
        FaultAction::Crash {
            replica: 1,
            rank: 0,
        },
    );
    let report = Job::new(cfg)
        .with_faults(script)
        .mode(ExecMode::Threaded)
        .run(|rank, _| Box::new(PacedRing::new(rank)) as Box<dyn Task>);
    assert!(
        report.completed,
        "job failed: {:?}\n{}",
        report.error,
        report.trace.join("\n")
    );
    assert!(report.replicas_agree());
    assert_eq!(
        report.hard_errors_recovered,
        1,
        "{}",
        report.trace.join("\n")
    );
    // Node 0 shipped to node 1, then to the spare (node 2): two links.
    let dialed = counter(&report, "acr_buddy_link_attaches_total");
    assert!(
        dialed >= 2,
        "the spare was never dialed ({dialed} attaches)"
    );
    let promoted_at = (report.events.iter())
        .find(|e| matches!(e.kind, EventKind::NodeDead { .. }))
        .map(|e| e.t)
        .expect("a death was recorded");
    let verified_after = (report.events.iter())
        .filter(|e| e.t > promoted_at)
        .filter(|e| matches!(e.kind, EventKind::CompareOutcome { clean: true, .. }))
        .filter(|e| e.node == 2)
        .count();
    assert!(
        verified_after >= 1,
        "the spare compared nothing after its promotion:\n{}",
        report.trace.join("\n")
    );
    audit_transport_attribution(&report);
}

/// A node quarantined on every path — its router link and its buddy link
/// — while it is the buddy a checkpoint ships to: the shipping side's
/// endpoint gives the buddy link up and queues its compare on the router
/// link, the router reports the node's own link stale, the driver's probe
/// goes unanswered, a spare takes the node's place, and the job completes
/// instead of waiting on a compare that can no longer arrive.
#[test]
fn a_quarantined_buddy_is_probed_through_the_router_and_replaced() {
    let _guard = JOB_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let control = TransportControl::new();
    let cfg = JobConfig::builder()
        .ranks(1)
        .tasks_per_rank(1)
        .spares(1)
        .scheme(Scheme::Strong)
        .detection(DetectionMethod::FullCompare)
        .checkpoint_interval(Duration::from_millis(15))
        .heartbeat_period(Duration::from_millis(10))
        // Long: the heartbeat path must not be what replaces the node.
        .heartbeat_timeout(Duration::from_secs(5))
        .max_duration(Duration::from_secs(30))
        .transport(TransportKind::Tcp(TcpConfig {
            control: Some(control.clone()),
            ..TcpConfig::default()
        }))
        .build()
        .expect("valid quarantine config");
    let killer = {
        let control = control.clone();
        std::thread::spawn(move || {
            // A few rounds in, so node 0 has dialed node 1.
            std::thread::sleep(Duration::from_millis(60));
            control.quarantine(1)
        })
    };
    let report = run_tcp(cfg);
    assert!(
        killer.join().unwrap(),
        "quarantine found no link for node 1"
    );
    assert!(
        report.completed,
        "job failed: {:?}\n{}",
        report.error,
        report.trace.join("\n")
    );
    assert!(report.replicas_agree());
    assert!(
        report.hard_errors_recovered >= 1,
        "the unreachable buddy was never replaced:\n{}",
        report.trace.join("\n")
    );
    assert!(
        counter(&report, "acr_buddy_link_fallbacks_total") >= 1,
        "the detached buddy link never fell back to the router:\n{}",
        report.metrics
    );
    assert!(
        (report.events.iter()).any(|e| matches!(e.kind, EventKind::ProbeSent { suspect: 1 })),
        "no probe of node 1:\n{}",
        report.trace.join("\n")
    );
    audit_transport_attribution(&report);
}

/// Node hosts that reach the driver but not one another — a partition
/// between them, a firewall, a host that reached the driver over loopback
/// — still finish: the replica-1 nodes refuse every buddy link from the
/// start, so each shipping node's link falls back to the router after the
/// stale window and every comparison record of the job crosses the router.
/// Nobody is declared dead, and the redials that follow, refused like the
/// first, change nothing: one fallback per side of a pair at most, however
/// many rounds follow.
#[test]
fn buddies_that_cannot_reach_each_other_compare_through_the_router() {
    let _guard = JOB_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let control = TransportControl::new();
    let cfg = base_cfg(
        Duration::from_secs(1),
        TransportKind::Tcp(TcpConfig {
            control: Some(control.clone()),
            ..TcpConfig::default()
        }),
    );
    let partition = {
        let control = control.clone();
        std::thread::spawn(move || {
            // As soon as the fabric is built, before the first compare.
            while !control.partition_buddy_links(2) {
                std::thread::sleep(Duration::from_micros(200));
            }
            control.partition_buddy_links(3)
        })
    };
    let report = run_tcp(cfg);
    assert!(partition.join().unwrap(), "no endpoint to partition");
    assert!(
        report.completed,
        "job failed: {:?}\n{}",
        report.error,
        report.trace.join("\n")
    );
    assert!(report.replicas_agree());
    assert_eq!(
        report.hard_errors_recovered,
        0,
        "an unreachable buddy link was misread as node death:\n{}",
        report.trace.join("\n")
    );
    assert!(
        report.checkpoints_verified >= 3,
        "only {} rounds verified",
        report.checkpoints_verified
    );
    let fallbacks = counter(&report, "acr_buddy_link_fallbacks_total");
    assert!(
        (1..=4).contains(&fallbacks),
        "{fallbacks} fallbacks over {} rounds: one per round, not per outage",
        report.checkpoints_verified
    );
    audit_transport_attribution(&report);
}
