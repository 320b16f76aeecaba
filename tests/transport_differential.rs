//! Transport differential check: the same `FaultScript` + seed must
//! produce identical protocol outcomes — corruption verdicts, recovery
//! counts, forward progress, and bit-identical final states — whether the
//! job's messages travel over
//! in-process channels (deterministic virtual time) or over the framed
//! localhost-TCP backend (threaded wall clock).
//!
//! Protocol outcomes are timing-independent by design: an SDC injected at
//! a node-local iteration is caught by the first comparison round covering
//! it whichever clock is driving, a crash after N verified checkpoints
//! promotes exactly one spare, and the final state of a completed run is a
//! pure function of the iteration count. The sweep covers 8 seeds × all 3
//! recovery schemes, alternating SDC and crash scenarios.

use std::sync::Mutex;
use std::time::Duration;

use acr::pup::{Pup, PupResult, Puper};
use acr::runtime::{
    AppMsg, DetectionMethod, ExecMode, FaultAction, FaultScript, Job, JobConfig, JobReport, Scheme,
    Task, TaskCtx, TaskId, TcpConfig, TransportKind, Trigger,
};

/// TCP jobs spawn ~25 threads each (nodes + router links + endpoint
/// supervisors/readers); running cases concurrently oversubscribes CI
/// runners enough to trip heartbeat detectors. Serialize.
static JOB_SERIAL: Mutex<()> = Mutex::new(());

const RANKS: usize = 2;
const SPARES: usize = 2;
const ITERS: u64 = 200;

/// The campaign's token-ring workload, plus a wall-clock pacing knob: the
/// virtual runs advance ~1 iteration per quantum for free, while the TCP
/// runs sleep `step_delay` per step so checkpoint rounds land *between*
/// iterations rather than after the ring has already finished. The delay
/// is reconstructed by the factory, never pupped, so packed state stays
/// bit-identical across backends.
struct Ring {
    rank: usize,
    iter: u64,
    tokens: u64,
    acc: Vec<f64>,
    checksum: f64,
    total_iters: u64,
    step_delay: Duration,
}

impl Ring {
    fn new(rank: usize, total_iters: u64, step_delay: Duration) -> Self {
        Self {
            rank,
            iter: 0,
            tokens: 0,
            acc: (0..48).map(|i| (rank * 100 + i) as f64).collect(),
            checksum: 0.0,
            total_iters,
            step_delay,
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
        if !self.step_delay.is_zero() {
            std::thread::sleep(self.step_delay);
        }
        for (i, x) in self.acc.iter_mut().enumerate() {
            *x += ((self.iter as f64 + i as f64) * 1e-3).sin();
        }
        self.checksum += self.acc.iter().sum::<f64>() * 1e-6;
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
        p.pup_f64(&mut self.checksum)?;
        p.pup_u64(&mut self.total_iters)
    }
}

fn cfg(scheme: Scheme, transport: TransportKind) -> JobConfig {
    JobConfig::builder()
        .ranks(RANKS)
        .tasks_per_rank(1)
        .spares(SPARES)
        .scheme(scheme)
        .detection(DetectionMethod::ChunkedChecksum)
        .checkpoint_interval(Duration::from_millis(10))
        .heartbeat_period(Duration::from_millis(5))
        // Generous: a loaded CI runner must never see a false-positive
        // buddy death; scripted crashes are the only deaths expected.
        .heartbeat_timeout(Duration::from_millis(300))
        .max_duration(Duration::from_secs(30))
        .transport(transport)
        .build()
        .expect("valid differential config")
}

/// Deterministic per-seed scenario: even seeds flip bits mid-run (SDC
/// detection + rollback path), odd seeds crash a node after a verified
/// checkpoint exists (spare promotion path).
fn script_for(seed: u64) -> FaultScript {
    if seed.is_multiple_of(2) {
        FaultScript::single(
            Trigger::AtIteration(40 + 10 * (seed / 2)),
            FaultAction::Sdc {
                replica: ((seed / 2) % 2) as u8,
                rank: (seed as usize / 2) % RANKS,
                seed: 1000 + seed,
                bits: 1 + (seed % 3) as u32,
            },
        )
    } else {
        FaultScript::single(
            Trigger::AfterCheckpoints(1 + ((seed / 2) % 2) as u32),
            FaultAction::Crash {
                replica: ((seed / 2) % 2) as u8,
                rank: (seed as usize / 2) % RANKS,
            },
        )
    }
}

fn run_in_process(scheme: Scheme, script: &FaultScript) -> JobReport {
    Job::new(cfg(scheme, TransportKind::InProcess))
        .with_faults(script.clone())
        .mode(ExecMode::virtual_default())
        .run(|rank, _| Box::new(Ring::new(rank, ITERS, Duration::ZERO)) as Box<dyn Task>)
}

fn run_tcp(scheme: Scheme, script: &FaultScript) -> JobReport {
    Job::new(cfg(scheme, TransportKind::Tcp(TcpConfig::default())))
        .with_faults(script.clone())
        .run(|rank, _| {
            Box::new(Ring::new(rank, ITERS, Duration::from_micros(200))) as Box<dyn Task>
        })
}

/// The protocol outcome a transport must not change.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    completed: bool,
    replicas_agree: bool,
    sdc_rounds_detected: usize,
    rollbacks: usize,
    hard_errors_recovered: usize,
    unverified_recoveries: usize,
    restarts_from_beginning: usize,
}

impl Outcome {
    fn of(r: &JobReport) -> Self {
        Self {
            completed: r.completed,
            replicas_agree: r.replicas_agree(),
            sdc_rounds_detected: r.sdc_rounds_detected,
            rollbacks: r.rollbacks,
            hard_errors_recovered: r.hard_errors_recovered,
            unverified_recoveries: r.unverified_recoveries,
            restarts_from_beginning: r.restarts_from_beginning,
        }
    }
}

#[test]
fn tcp_and_in_process_backends_agree_on_protocol_outcomes() {
    let _guard = JOB_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let schemes = [Scheme::Strong, Scheme::Medium, Scheme::Weak];
    for seed in 0..8u64 {
        let script = script_for(seed);
        for scheme in schemes {
            let virt = run_in_process(scheme, &script);
            let tcp = run_tcp(scheme, &script);
            let (vo, to) = (Outcome::of(&virt), Outcome::of(&tcp));
            assert_eq!(
                vo,
                to,
                "seed {seed} scheme {scheme:?}: outcomes diverge\n\
                 in-process: {vo:?}\ntcp trace:\n{}",
                tcp.trace.join("\n"),
            );
            // Both completed with agreeing replicas (checked above);
            // sanity-pin the scenario actually exercised its path.
            if seed.is_multiple_of(2) {
                assert_eq!(to.sdc_rounds_detected, 1, "seed {seed} {scheme:?}");
                assert_eq!(to.rollbacks, 1, "seed {seed} {scheme:?}");
                assert_eq!(to.hard_errors_recovered, 0, "seed {seed} {scheme:?}");
            } else {
                assert_eq!(to.hard_errors_recovered, 1, "seed {seed} {scheme:?}");
                assert_eq!(to.restarts_from_beginning, 0, "seed {seed} {scheme:?}");
            }
            // Strongest form of "identical outcome": the completed final
            // state is bit-identical across backends.
            assert_eq!(
                virt.final_states, tcp.final_states,
                "seed {seed} scheme {scheme:?}: final states differ across transports"
            );
        }
    }
}

// --------------------------------------------------------------------------
// Delta-checkpoint differential
// --------------------------------------------------------------------------

/// Ring-paced workload whose checkpoint payload is mostly static: a 4 Ki
/// float field of which one 64-float window mutates per iteration, the
/// window advancing only every 32 iterations. Chunked at 256 bytes, most
/// chunks are clean between rounds — the shape delta records engage on.
/// `step_delay` paces wall-clock runs exactly as in [`Ring`].
struct DriftRing {
    rank: usize,
    iter: u64,
    tokens: u64,
    field: Vec<f64>,
    checksum: f64,
    total_iters: u64,
    step_delay: Duration,
}

const DRIFT_LEN: usize = 4096;
const DRIFT_WINDOW: usize = 64;

impl DriftRing {
    fn new(rank: usize, total_iters: u64, step_delay: Duration) -> Self {
        Self {
            rank,
            iter: 0,
            tokens: 0,
            field: (0..DRIFT_LEN)
                .map(|i| (rank * DRIFT_LEN + i) as f64 * 1e-4)
                .collect(),
            checksum: 0.0,
            total_iters,
            step_delay,
        }
    }
}

impl Task for DriftRing {
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
        if !self.step_delay.is_zero() {
            std::thread::sleep(self.step_delay);
        }
        let start = ((self.iter / 32) as usize * DRIFT_WINDOW) % DRIFT_LEN;
        for k in 0..DRIFT_WINDOW {
            let i = (start + k) % DRIFT_LEN;
            self.field[i] += ((self.iter as f64 + i as f64) * 1e-3).sin() * 1e-3;
            self.checksum += self.field[i] * 1e-9;
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
        p.pup_f64(&mut self.checksum)?;
        p.pup_u64(&mut self.total_iters)
    }
}

fn delta_cfg(scheme: Scheme, delta: bool, transport: TransportKind) -> JobConfig {
    JobConfig::builder()
        .ranks(RANKS)
        .tasks_per_rank(1)
        .spares(SPARES)
        .scheme(scheme)
        .detection(DetectionMethod::FullCompare)
        .chunk_size(256)
        .delta_checkpoints(delta)
        .checkpoint_interval(Duration::from_millis(10))
        .heartbeat_period(Duration::from_millis(5))
        .heartbeat_timeout(Duration::from_millis(300))
        .max_duration(Duration::from_secs(30))
        .transport(transport)
        .build()
        .expect("valid delta differential config")
}

fn run_delta(scheme: Scheme, script: &FaultScript, delta: bool) -> JobReport {
    Job::new(delta_cfg(scheme, delta, TransportKind::InProcess))
        .with_faults(script.clone())
        .mode(ExecMode::virtual_default())
        .run(|rank, _| Box::new(DriftRing::new(rank, ITERS, Duration::ZERO)) as Box<dyn Task>)
}

fn delta_ships(r: &JobReport) -> usize {
    ships_per_node(r).values().map(|&(_, deltas)| deltas).sum()
}

/// Per shipping node: `(compare ships, of which delta records)`.
fn ships_per_node(r: &JobReport) -> std::collections::BTreeMap<u32, (usize, usize)> {
    let mut ships = std::collections::BTreeMap::new();
    for e in &r.events {
        if let acr::obs::EventKind::CompareShip { method, .. } = &e.kind {
            let (all, delta) = ships.entry(e.node).or_insert((0, 0));
            *all += 1;
            *delta += usize::from(method == "full-compare-delta");
        }
    }
    ships
}

/// Chunks the buddy's delta verdicts took from the record's digest table
/// (the chunks the sender left clean) rather than from shipped bytes.
fn compare_skips(r: &JobReport) -> u64 {
    r.metrics
        .lines()
        .find_map(|l| l.strip_prefix("acr_delta_compare_skipped_total "))
        .map_or(0, |v| v.trim().parse().unwrap_or(0))
}

/// Turning incremental delta checkpoints on must not change any protocol
/// outcome: across 8 seeds × 3 schemes, alternating SDC and crash
/// scenarios, the outcome tuple and the bit-level final states are
/// identical to the full-ship run — and the delta path demonstrably
/// engaged somewhere in the sweep.
#[test]
fn delta_checkpoints_do_not_change_protocol_outcomes() {
    let schemes = [Scheme::Strong, Scheme::Medium, Scheme::Weak];
    let mut engaged = 0usize;
    let mut skipped = 0u64;
    for seed in 0..8u64 {
        let script = script_for(seed);
        for scheme in schemes {
            let full = run_delta(scheme, &script, false);
            let thin = run_delta(scheme, &script, true);
            let (fo, to) = (Outcome::of(&full), Outcome::of(&thin));
            assert_eq!(
                fo,
                to,
                "seed {seed} scheme {scheme:?}: delta changed the outcome\n\
                 full-ship: {fo:?}\ndelta trace:\n{}",
                thin.trace.join("\n"),
            );
            assert_eq!(
                full.final_states, thin.final_states,
                "seed {seed} scheme {scheme:?}: delta changed the final states"
            );
            assert_eq!(
                delta_ships(&full),
                0,
                "seed {seed} scheme {scheme:?}: delta records on a delta-off run"
            );
            // The clean-chunk compare skip is a delta-path optimization;
            // a full-ship run must never take it.
            assert_eq!(
                compare_skips(&full),
                0,
                "seed {seed} scheme {scheme:?}: compare skips on a delta-off run"
            );
            engaged += delta_ships(&thin);
            skipped += compare_skips(&thin);
        }
    }
    assert!(engaged > 0, "delta records never engaged across the sweep");
    // Clean chunks with a matching base epoch skip the buddy digest
    // compare entirely — and (asserted above, per case) doing so changes
    // neither the outcome tuple nor a single bit of the final states.
    assert!(
        skipped > 0,
        "clean-chunk compare skip never engaged across the sweep"
    );
}

/// Delta records engage on every round that is eligible by structure, over
/// threaded TCP on the wall clock: in a fault-free run the buddy always
/// holds its base, so each shipping node full-ships its first round only
/// and sends a delta record on every round after it — whatever the clock
/// measured while packing or shipping.
#[test]
fn threaded_tcp_delta_ships_every_structurally_eligible_round() {
    let _guard = JOB_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = delta_cfg(
        Scheme::Strong,
        true,
        TransportKind::Tcp(TcpConfig::default()),
    );
    let report = Job::new(cfg).run(|rank, _| {
        Box::new(DriftRing::new(rank, 5 * ITERS, Duration::from_micros(200))) as Box<dyn Task>
    });
    assert!(report.completed, "error: {:?}", report.error);
    assert!(report.replicas_agree());
    assert_eq!(report.sdc_rounds_detected, 0);
    assert_eq!(report.rollbacks, 0);
    assert_eq!(report.hard_errors_recovered, 0);
    let ships = ships_per_node(&report);
    println!("(compare rounds, delta ships) per shipping node: {ships:?}");
    assert_eq!(ships.len(), RANKS, "one shipping node per rank: {ships:?}");
    for (node, &(rounds, deltas)) in &ships {
        assert!(rounds >= 2, "node {node}: only {rounds} compare rounds");
        assert_eq!(
            deltas,
            rounds - 1,
            "node {node}: {deltas} delta ships in {rounds} clean rounds"
        );
    }
}
