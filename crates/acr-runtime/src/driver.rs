//! The job driver: launches the node workers, triggers checkpoint rounds,
//! reacts to failure reports, and executes the recovery schemes.
//!
//! In the paper's Charm++ implementation these responsibilities live in the
//! distributed runtime; here the *mechanisms* (consensus, buddy exchange,
//! comparison, heartbeat detection, state transfer) are fully distributed
//! across the node workers, while the *policy* reactions (when to open a
//! round, which recovery plan to execute) are centralized in this driver —
//! an engineering simplification that leaves every protocol code path
//! exercised for real.
//!
//! Two execution modes share all of that policy code ([`ExecMode`]):
//!
//! * **Threaded** — every node is an OS thread, time is the wall clock; the
//!   production-shaped mode.
//! * **Virtual** — all nodes are pumped round-robin on the caller's thread
//!   against a simulated [`Clock`] that advances in fixed quanta between
//!   passes. Message order, heartbeat expiry, fault triggers, and therefore
//!   the entire event trace are a pure function of the configuration and
//!   fault script — the substrate of the deterministic fault campaigns.

use std::collections::{BTreeMap, HashSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use acr_core::{
    Checkpoint, DetectionMethod, HardError, LayoutError, RecoveryAction, RecoveryPlanner,
    ReplicaLayout, Scheme,
};
use acr_fault::{FaultAction, FaultScript, ScriptedFault, Trigger};
use acr_obs::{debug_trace, EventKind, ObsConfig, RecordedEvent, Recorder, RunPhase, DRIVER_NODE};
use acr_store::{RecoveryReport, SlotEntryRef};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError};

use crate::clock::Clock;
use crate::message::{Ctrl, Event, Net, NodeFault, NodeIndex, Scope};
use crate::node::{NodeWorker, Pump, TaskFactory};
use crate::persist::{
    AdmitRecord, CommitRecord, DriverRecord, DriverStore, ResumePlan, SlotStates, NO_NODE,
    REPORT_FILE,
};
use crate::task::Task;
use crate::transport::{build_fabric, welcome_cfg, FabricHandle, Port, TransportKind};

/// Configuration of a replicated job.
#[derive(Debug, Clone)]
pub struct JobConfig {
    /// Ranks per replica.
    pub ranks: usize,
    /// Tasks per rank.
    pub tasks_per_rank: usize,
    /// Spare nodes reserved for crash recovery (§2.1).
    pub spares: usize,
    /// Recovery scheme (§2.3).
    pub scheme: Scheme,
    /// SDC detection method (§4.2).
    pub detection: DetectionMethod,
    /// Bytes per chunk of the fused pack+digest pipeline — the granularity
    /// at which a detected divergence is localized. Must be a positive
    /// multiple of 4.
    pub chunk_size: usize,
    /// Periodic checkpoint interval.
    pub checkpoint_interval: Duration,
    /// Buddy heartbeat period.
    pub heartbeat_period: Duration,
    /// Silence after which a buddy is declared dead (§6.1).
    pub heartbeat_timeout: Duration,
    /// Ship incremental delta checkpoints on the buddy-compare path: only
    /// chunks whose digests changed since the sender's rollback target (the
    /// last checkpoint both buddies verified) travel, and clean chunks are
    /// covered by their digest table. The buddy keeps no copy of an earlier
    /// ship: it byte-compares the dirty windows and every other chunk by
    /// its digest against its own checkpoint. Only effective with
    /// [`DetectionMethod::FullCompare`] (the checksum methods already ship
    /// a few bytes per round).
    pub delta_checkpoints: bool,
    /// Job-clock safety limit; exceeding it fails the job. Wall seconds in
    /// threaded mode, virtual seconds under [`ExecMode::Virtual`].
    pub max_duration: Duration,
    /// Flight-recorder configuration: master switch and per-node ring
    /// capacity. Disabled, every instrumentation site costs one relaxed
    /// atomic load.
    pub obs: ObsConfig,
    /// Wire fabric the job's messages travel over. The TCP backend
    /// requires [`ExecMode::Threaded`]; [`ExecMode::Virtual`] runs are
    /// in-process by construction.
    pub transport: TransportKind,
    /// Durable store directory, enabling driver crash-restart: the driver
    /// journals every policy decision to an append-only event log and
    /// persists each verified epoch into alternating checkpoint slots, so
    /// a killed job can be resumed with [`Job::resume`]. `None` (the
    /// default) keeps the job fully in-memory and byte-identical to
    /// pre-persistence behavior.
    pub persist_dir: Option<PathBuf>,
    /// Bind address (e.g. `"127.0.0.1:7070"`, or port `0` for an
    /// OS-assigned port) of the opt-in operator endpoint serving
    /// `GET /metrics`, `GET /status`, and `GET /events?since=<seq>` from a
    /// dedicated listener thread for the lifetime of the job. `None` (the
    /// default) serves nothing. Read-only: the endpoint observes the
    /// flight recorder and never perturbs the protocol or the job clock.
    pub http_addr: Option<String>,
    /// Where the driver publishes the endpoint's *bound* address once the
    /// listener is up — the only way to learn the port when `http_addr`
    /// asked for port `0`.
    pub http_bound: Option<crate::http::AddrSlot>,
}

impl Default for JobConfig {
    fn default() -> Self {
        Self {
            ranks: 4,
            tasks_per_rank: 1,
            spares: 2,
            scheme: Scheme::Strong,
            detection: DetectionMethod::FullCompare,
            chunk_size: acr_pup::DEFAULT_CHUNK_SIZE,
            checkpoint_interval: Duration::from_millis(150),
            heartbeat_period: Duration::from_millis(10),
            heartbeat_timeout: Duration::from_millis(80),
            delta_checkpoints: false,
            max_duration: Duration::from_secs(60),
            obs: ObsConfig::default(),
            transport: TransportKind::InProcess,
            persist_dir: None,
            http_addr: None,
            http_bound: None,
        }
    }
}

impl JobConfig {
    /// Start building a validated configuration from the defaults. Unlike
    /// a raw struct literal, [`JobConfigBuilder::build`] checks every
    /// shape invariant up front and reports a [`ConfigError`] instead of
    /// panicking mid-job.
    pub fn builder() -> JobConfigBuilder {
        JobConfigBuilder {
            cfg: JobConfig::default(),
        }
    }

    /// Check the mode-independent invariants (the builder's checks, for
    /// configurations that bypassed it).
    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
        if self.ranks == 0 {
            return Err(ConfigError::ZeroRanks);
        }
        if self.tasks_per_rank == 0 {
            return Err(ConfigError::ZeroTasksPerRank);
        }
        if self.chunk_size < 4 || !self.chunk_size.is_multiple_of(4) {
            return Err(ConfigError::BadChunkSize {
                got: self.chunk_size,
            });
        }
        if self.heartbeat_period.is_zero() || self.heartbeat_timeout <= self.heartbeat_period {
            return Err(ConfigError::BadHeartbeat {
                period: self.heartbeat_period,
                timeout: self.heartbeat_timeout,
            });
        }
        let total = 2 * self.ranks + self.spares;
        if let Err(e) = ReplicaLayout::new(total, self.spares) {
            return Err(ConfigError::BadLayout {
                total,
                spares: self.spares,
                reason: format!("{e:?}"),
            });
        }
        Ok(())
    }
}

/// An invalid job configuration (or configuration/mode combination),
/// reported by [`JobConfigBuilder::build`] before a job ever starts
/// instead of by a runtime panic halfway into one.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `ranks` must be at least 1.
    ZeroRanks,
    /// `tasks_per_rank` must be at least 1.
    ZeroTasksPerRank,
    /// `chunk_size` must be a positive multiple of 4 (the fused pipeline
    /// digests word-aligned chunks).
    BadChunkSize {
        /// The rejected value.
        got: usize,
    },
    /// `heartbeat_timeout` must exceed `heartbeat_period` (and the period
    /// must be nonzero) or every buddy is declared dead on its first
    /// silent interval.
    BadHeartbeat {
        /// Configured heartbeat period.
        period: Duration,
        /// Configured heartbeat timeout.
        timeout: Duration,
    },
    /// The derived `2·ranks + spares` node layout cannot be split into
    /// two replicas plus a spare pool.
    BadLayout {
        /// Total nodes the shape implies.
        total: usize,
        /// Spares requested.
        spares: usize,
        /// Underlying layout error.
        reason: String,
    },
    /// The TCP transport needs wall-clock threads;
    /// [`ExecMode::Virtual`] runs are in-process by construction.
    TcpRequiresThreaded,
    /// A virtual-mode quantum must be positive or time never advances.
    ZeroQuantum,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroRanks => write!(f, "ranks must be >= 1"),
            ConfigError::ZeroTasksPerRank => write!(f, "tasks_per_rank must be >= 1"),
            ConfigError::BadChunkSize { got } => {
                write!(f, "chunk_size must be a positive multiple of 4, got {got}")
            }
            ConfigError::BadHeartbeat { period, timeout } => write!(
                f,
                "heartbeat_timeout ({timeout:?}) must exceed a nonzero heartbeat_period \
                 ({period:?})"
            ),
            ConfigError::BadLayout {
                total,
                spares,
                reason,
            } => write!(
                f,
                "cannot lay out {total} nodes with {spares} spares as two replicas: {reason}"
            ),
            ConfigError::TcpRequiresThreaded => {
                write!(f, "the TCP transport requires ExecMode::Threaded")
            }
            ConfigError::ZeroQuantum => write!(f, "virtual quantum must be positive"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Builder for [`JobConfig`] with up-front validation: start from
/// [`JobConfig::builder`], chain setters, finish with
/// [`build`](JobConfigBuilder::build) — the one place shape invariants
/// are checked, so misconfigurations fail as a typed [`ConfigError`]
/// instead of a panic once the job is already running.
///
/// ```
/// use acr_runtime::JobConfig;
///
/// let cfg = JobConfig::builder()
///     .ranks(2)
///     .spares(2)
///     .build()
///     .expect("valid config");
/// assert_eq!(cfg.ranks, 2);
/// assert!(JobConfig::builder().chunk_size(6).build().is_err());
/// ```
#[derive(Debug, Clone)]
pub struct JobConfigBuilder {
    cfg: JobConfig,
}

impl JobConfigBuilder {
    /// Ranks per replica (must end up ≥ 1).
    pub fn ranks(mut self, ranks: usize) -> Self {
        self.cfg.ranks = ranks;
        self
    }

    /// Tasks per rank (must end up ≥ 1).
    pub fn tasks_per_rank(mut self, tasks: usize) -> Self {
        self.cfg.tasks_per_rank = tasks;
        self
    }

    /// Spare nodes reserved for crash recovery.
    pub fn spares(mut self, spares: usize) -> Self {
        self.cfg.spares = spares;
        self
    }

    /// Recovery scheme.
    pub fn scheme(mut self, scheme: Scheme) -> Self {
        self.cfg.scheme = scheme;
        self
    }

    /// SDC detection method.
    pub fn detection(mut self, detection: DetectionMethod) -> Self {
        self.cfg.detection = detection;
        self
    }

    /// Chunk size of the fused pack+digest pipeline (positive multiple
    /// of 4).
    pub fn chunk_size(mut self, bytes: usize) -> Self {
        self.cfg.chunk_size = bytes;
        self
    }

    /// Periodic checkpoint interval.
    pub fn checkpoint_interval(mut self, interval: Duration) -> Self {
        self.cfg.checkpoint_interval = interval;
        self
    }

    /// Buddy heartbeat period (must end up nonzero and below the
    /// timeout).
    pub fn heartbeat_period(mut self, period: Duration) -> Self {
        self.cfg.heartbeat_period = period;
        self
    }

    /// Silence after which a buddy is declared dead.
    pub fn heartbeat_timeout(mut self, timeout: Duration) -> Self {
        self.cfg.heartbeat_timeout = timeout;
        self
    }

    /// Enable incremental delta checkpoints on the buddy-compare path.
    pub fn delta_checkpoints(mut self, on: bool) -> Self {
        self.cfg.delta_checkpoints = on;
        self
    }

    /// Job-clock safety limit.
    pub fn max_duration(mut self, limit: Duration) -> Self {
        self.cfg.max_duration = limit;
        self
    }

    /// Flight-recorder configuration.
    pub fn obs(mut self, obs: ObsConfig) -> Self {
        self.cfg.obs = obs;
        self
    }

    /// Wire fabric the job's messages travel over.
    pub fn transport(mut self, transport: TransportKind) -> Self {
        self.cfg.transport = transport;
        self
    }

    /// Enable durable persistence into `dir` (event log + checkpoint
    /// slots), making the job resumable with [`Job::resume`].
    pub fn persist_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cfg.persist_dir = Some(dir.into());
        self
    }

    /// Serve the operator endpoint (`/metrics`, `/status`,
    /// `/events?since=`) on `addr` for the lifetime of the job. Use port
    /// `0` plus [`JobConfigBuilder::http_bound`] to let the OS pick.
    pub fn http_addr(mut self, addr: impl Into<String>) -> Self {
        self.cfg.http_addr = Some(addr.into());
        self
    }

    /// Publish the endpoint's bound address into `slot` once the listener
    /// is up (needed to discover an OS-assigned port while the job is
    /// still running).
    pub fn http_bound(mut self, slot: crate::http::AddrSlot) -> Self {
        self.cfg.http_bound = Some(slot);
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<JobConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// How a job executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// One OS thread per node, wall-clock time.
    Threaded,
    /// All nodes pumped on the calling thread against a simulated clock
    /// advancing `quantum` per scheduler pass: fully deterministic.
    Virtual {
        /// Virtual time added after each round-robin pass. Smaller quanta
        /// give finer-grained timing (and slower runs); must be positive.
        quantum: Duration,
    },
}

impl ExecMode {
    /// The default deterministic mode: virtual time at a 1 ms quantum.
    pub fn virtual_default() -> Self {
        ExecMode::Virtual {
            quantum: Duration::from_millis(1),
        }
    }
}

/// A fault to inject while the job runs (§6.1 methodology).
#[derive(Debug, Clone, Copy)]
pub enum Fault {
    /// Fail-stop: the node hosting `(replica, rank)` stops responding.
    Crash {
        /// Victim replica.
        replica: u8,
        /// Victim rank.
        rank: usize,
    },
    /// Flip one random bit of PUP-visible state on `(replica, rank)`.
    Sdc {
        /// Victim replica.
        replica: u8,
        /// Victim rank.
        rank: usize,
        /// Injection seed.
        seed: u64,
    },
}

/// One SDC detection, with the divergence localization the chunk table (or
/// windowed payload diff) provided.
#[derive(Debug, Clone)]
pub struct SdcDetection {
    /// Node that performed the comparison (replica-1 side).
    pub node: NodeIndex,
    /// Iteration of the mismatching checkpoint.
    pub iteration: u64,
    /// Diverged payload byte ranges, sorted and coalesced. The whole payload
    /// when the detection method cannot localize (plain `Checksum`).
    pub diverged: Vec<std::ops::Range<usize>>,
    /// Local checkpoint payload length.
    pub payload_len: usize,
    /// Mismatching fields found by the field-level re-check restricted to
    /// the diverged ranges (`FullCompare` only; 0 otherwise).
    pub fields_flagged: usize,
}

impl SdcDetection {
    /// Total bytes across the diverged ranges.
    pub fn diverged_bytes(&self) -> usize {
        self.diverged.iter().map(|r| r.end - r.start).sum()
    }
}

/// Outcome of a job run.
#[derive(Debug, Default)]
pub struct JobReport {
    /// Coordinated checkpoints that passed buddy comparison.
    pub checkpoints_verified: usize,
    /// Checkpoint rounds whose comparison found silent data corruption.
    pub sdc_rounds_detected: usize,
    /// Per-detection localization records (one per mismatching node-pair
    /// comparison, possibly several per detected round).
    pub sdc_detections: Vec<SdcDetection>,
    /// Rollbacks of both replicas (SDC response).
    pub rollbacks: usize,
    /// Hard errors recovered via spare promotion.
    pub hard_errors_recovered: usize,
    /// Recovery checkpoints installed without comparison (medium/weak).
    pub unverified_recoveries: usize,
    /// Whole-job restarts from the application's initial state, epoch 0.
    /// The job restarts only when a failure collapsed a recovery or the
    /// weak scheme lost a node in each replica; it restarts from epoch 0
    /// when no committed epoch reads back valid from the durable store. A
    /// crash before the first verified round recovers from epoch 0 by its
    /// scheme and counts here no more. A restart from an epoch shows only
    /// as a `GlobalRestart` event at its iteration.
    pub restarts_from_beginning: usize,
    /// The job ran to completion (vs. timed out or ran out of spares).
    pub completed: bool,
    /// Failure description when `completed` is false.
    pub error: Option<String>,
    /// Final packed task states per `(replica, rank)`.
    pub final_states: BTreeMap<(u8, usize), Vec<Bytes>>,
    /// Job-clock duration of the run (wall or virtual seconds).
    pub duration: f64,
    /// Timestamped event trace. Under [`ExecMode::Virtual`] this is byte-
    /// for-byte reproducible for a given configuration and fault script —
    /// the campaign determinism check compares exactly these lines.
    pub trace: Vec<String>,
    /// Job-clock start times of rounds that completed verified-clean.
    pub verified_round_starts: Vec<f64>,
    /// Job-clock times of unverified (medium/weak ship) recoveries.
    pub unverified_recoveries_at: Vec<f64>,
    /// Job-clock times SDC injections actually landed (node-reported).
    pub sdc_injected_at: Vec<f64>,
    /// Job-clock times crash injections actually landed (node-reported).
    pub crashes_injected_at: Vec<f64>,
    /// The flight-recorder event log, drained at shutdown and merged into
    /// emission order. Serialize with [`acr_obs::sinks::to_jsonl`]; fold
    /// into a per-phase overhead breakdown with
    /// [`acr_obs::Breakdown::from_events`]. Under [`ExecMode::Virtual`]
    /// the serialized log is byte-identical across replays of the same
    /// configuration and script.
    pub events: Vec<RecordedEvent>,
    /// Prometheus-style text snapshot of the recorder's counters and
    /// histograms at shutdown.
    pub metrics: String,
    /// Machine-readable recovery report when this run was produced by
    /// [`Job::resume`]: which slot was loaded, how much of the journal
    /// replayed, and what was skipped or repaired along the way.
    pub recovery: Option<RecoveryReport>,
}

impl JobReport {
    /// Whether the two replicas finished with bit-identical application
    /// state — the ground-truth check that no SDC survived.
    pub fn replicas_agree(&self) -> bool {
        let ranks: HashSet<usize> = self.final_states.keys().map(|&(_, rank)| rank).collect();
        ranks.iter().all(|&rank| {
            match (
                self.final_states.get(&(0, rank)),
                self.final_states.get(&(1, rank)),
            ) {
                (Some(a), Some(b)) => a == b,
                _ => false,
            }
        })
    }

    /// Final state of one task, if present.
    pub fn task_state(&self, replica: u8, rank: usize, task: usize) -> Option<&Bytes> {
        self.final_states.get(&(replica, rank))?.get(task)
    }
}

#[derive(Debug)]
enum Phase {
    Running,
    GlobalRound {
        round: u64,
        pending: HashSet<NodeIndex>,
        sdc: bool,
        iteration: u64,
        started: f64,
    },
    AwaitRollback {
        pending: HashSet<NodeIndex>,
    },
    Recovery(Recovery),
}

/// A verified epoch on its way to disk. The round it belongs to is already
/// released — the application runs while this is pending — so what it
/// collects must be the line the verdict was about: every active node's
/// answer, each at the round's iteration.
#[derive(Debug)]
struct Capture {
    /// The epoch's commit record, taken at the verdict: its clock and
    /// counters are those of the instant the committed state describes.
    commit: CommitRecord,
    pending: HashSet<NodeIndex>,
    states: BTreeMap<(u8, usize), Bytes>,
}

#[derive(Debug, Default)]
struct Recovery {
    expect_installed: HashSet<NodeIndex>,
    expect_rolled: HashSet<NodeIndex>,
    expect_ckpt: HashSet<NodeIndex>,
    ship_round: Option<u64>,
    to_resume: Vec<NodeIndex>,
    counts_as_unverified: bool,
}

impl Recovery {
    fn finished(&self) -> bool {
        self.expect_installed.is_empty()
            && self.expect_rolled.is_empty()
            && self.expect_ckpt.is_empty()
    }
}

/// A scripted fault awaiting its driver-side trigger. `seq` is the fault's
/// index in the script, the identity the journal uses to avoid re-firing
/// already-consumed faults after a resume.
#[derive(Debug, Clone, Copy)]
struct PendingTrigger {
    seq: usize,
    when: Trigger,
    action: FaultAction,
}

/// An outstanding driver liveness probe (see [`Ctrl::Ping`]): the backstop
/// failure detector for deaths the buddy-heartbeat graph cannot observe,
/// e.g. both members of a buddy pair crashing close together so that
/// neither lives to report the other.
#[derive(Debug)]
struct Probe {
    token: u64,
    sent_at: f64,
    awaiting: HashSet<NodeIndex>,
}

#[derive(Debug, PartialEq, Eq)]
enum LoopCtl {
    Continue,
    Done,
}

/// A replicated job. Configure with [`Job::new`], optionally attach a
/// fault scenario and an execution mode, then [`JobBuilder::run`]:
///
/// ```no_run
/// use acr_runtime::{ExecMode, Job, JobConfig};
/// # fn factory(_rank: usize, _task: usize) -> Box<dyn acr_runtime::Task> { unimplemented!() }
///
/// let cfg = JobConfig::builder().ranks(2).build().unwrap();
/// let report = Job::new(cfg)
///     .mode(ExecMode::virtual_default())
///     .run(factory);
/// assert!(report.completed);
/// ```
pub struct Job;

/// A configured job, ready to run: holds the validated [`JobConfig`],
/// the fault scenario (empty by default), and the execution mode
/// (threaded by default). Produced by [`Job::new`].
#[derive(Debug, Clone)]
pub struct JobBuilder {
    pub(crate) cfg: JobConfig,
    pub(crate) script: FaultScript,
    pub(crate) mode: ExecMode,
    /// Set by [`Job::resume`]: rebuild configuration, script, and state
    /// from this store directory instead of the fields above.
    pub(crate) resume_from: Option<PathBuf>,
}

impl JobBuilder {
    /// Attach a scripted fault scenario (replacing any previous one).
    pub fn with_faults(mut self, script: FaultScript) -> Self {
        self.script = script;
        self
    }

    /// Attach wall-clock-offset faults, the ergonomic form for threaded
    /// demos: each entry fires at its [`Duration`] into the run.
    pub fn with_timed_faults(mut self, faults: Vec<(Duration, Fault)>) -> Self {
        let mut script = FaultScript::new();
        for (at, fault) in faults {
            let when = Trigger::At(at.as_secs_f64());
            let action = match fault {
                Fault::Crash { replica, rank } => FaultAction::Crash { replica, rank },
                Fault::Sdc {
                    replica,
                    rank,
                    seed,
                } => FaultAction::Sdc {
                    replica,
                    rank,
                    seed,
                    bits: 1,
                },
            };
            script.push(when, action);
        }
        self.script = script;
        self
    }

    /// Select the execution mode (threaded wall clock by default).
    pub fn mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// Run the job to completion and collect its report.
    ///
    /// `factory` constructs task `task` of rank `rank`; it is called
    /// identically for both replicas (and again for spare-node restarts),
    /// so it must be deterministic. Under [`ExecMode::Virtual`] the run
    /// is deterministic end to end: the same configuration and script
    /// always produce the same [`JobReport`], event trace included, byte
    /// for byte.
    ///
    /// # Panics
    ///
    /// If the configuration bypassed [`JobConfig::builder`] and violates
    /// a shape invariant, or the configuration/mode combination is
    /// invalid ([`ConfigError::TcpRequiresThreaded`],
    /// [`ConfigError::ZeroQuantum`]).
    pub fn run<F>(self, factory: F) -> JobReport
    where
        F: Fn(usize, usize) -> Box<dyn Task> + Send + Sync + 'static,
    {
        if let Some(dir) = self.resume_from {
            return resume_job(dir, factory);
        }
        run_job(self.cfg, factory, &self.script, self.mode, None)
    }
}

struct Driver {
    cfg: JobConfig,
    /// The driver's copy of the replica layout; every node keeps its own,
    /// updated by the `LayoutChanged` that [`Driver::promote_spare`] sends.
    layout: ReplicaLayout,
    port: Arc<dyn Port>,
    /// `2·ranks + spares` (the fabric no longer exposes a peers vec to
    /// count).
    total: usize,
    /// Owns the transport's background machinery (TCP router/endpoints).
    fabric: FabricHandle,
    /// Nodes whose wire link went stale and are being probed: node →
    /// probe deadline (job clock). A Pong clears the suspicion; expiry
    /// declares the node dead.
    transport_suspects: BTreeMap<NodeIndex, f64>,
    events: Receiver<Event>,
    clock: Clock,
    round_counter: u64,
    phase: Phase,
    /// The verified epoch being written to the durable store, if any.
    /// While it is pending scripted faults hold fire, no round opens and
    /// the job does not end, so the journal orders every later decision
    /// after this epoch's commit; a death abandons it.
    capture: Option<Capture>,
    /// Every node holds a checkpoint newer than the initial state: a
    /// verified round, a recovery ship or a restored epoch.
    verified_exists: bool,
    /// The replica parked until the next periodic time, when the weak
    /// scheme's deferred ship recovers it.
    parked: Option<u8>,
    /// A failure collapsed an in-flight recovery, or the weak scheme lost
    /// a node in each replica: once pending promotions are done, restart
    /// the whole job from the newest durable line (`global_restart`).
    needs_global_restart: bool,
    done_nodes: HashSet<NodeIndex>,
    dead_nodes: HashSet<NodeIndex>,
    pending_failures: VecDeque<NodeIndex>,
    triggers: Vec<PendingTrigger>,
    next_ckpt: f64,
    /// Job-clock time of the last node event (or waiting-phase entry):
    /// silence past this + 2·heartbeat_timeout in a waiting phase raises a
    /// liveness probe.
    last_event: f64,
    probe: Option<Probe>,
    /// The earliest deadline the last policy pass found still ahead (job
    /// clock): the threaded loop waits for an event until then.
    wake: f64,
    report: JobReport,
    rec: Arc<Recorder>,
    /// Durable store (event log + checkpoint slots) when persistence is
    /// configured; `None` keeps the run fully in-memory.
    store: Option<DriverStore>,
    /// The armed script's faults, indexed by script position (`seq`).
    script_faults: Vec<ScriptedFault>,
    /// Per-`seq` fired flags, pre-seeded from the journal on resume so
    /// consumed faults never fire twice.
    fired: Vec<bool>,
    /// Checkpoint slot the next epoch commit writes (alternates A/B).
    next_slot: u8,
    /// A scripted `KillDriver` fired: stop the policy loop dead, skipping
    /// every shutdown nicety, to model a driver crash.
    killed: bool,
    /// Whether this run executes under [`ExecMode::Virtual`] (scripted
    /// driver kills are only meaningful there).
    virtual_mode: bool,
}

impl Job {
    /// Configure a job: returns a [`JobBuilder`] holding `cfg` with an
    /// empty fault scenario and the threaded execution mode, ready for
    /// [`JobBuilder::run`].
    #[allow(clippy::new_ret_no_self)]
    pub fn new(cfg: JobConfig) -> JobBuilder {
        JobBuilder {
            cfg,
            script: FaultScript::new(),
            mode: ExecMode::Threaded,
            resume_from: None,
        }
    }

    /// Resume a persisted virtual-mode job from its store directory.
    ///
    /// The returned builder ignores any configuration, script, or mode
    /// attached to it: everything is rebuilt from the journal's admission
    /// record — the job continues from its last committed epoch with the
    /// already-consumed script entries filtered out. `factory` must be the
    /// same deterministic task factory the original run used.
    ///
    /// Resume **fails closed**: a missing or closed journal, a threaded-
    /// mode journal, or an unrecoverable store (both slots unusable after
    /// a commit) produces a [`JobReport`] with `error` set and the
    /// diagnosis in `recovery` — it never guesses at state.
    pub fn resume(dir: impl Into<PathBuf>) -> JobBuilder {
        JobBuilder {
            cfg: JobConfig::default(),
            script: FaultScript::new(),
            mode: ExecMode::Threaded,
            resume_from: Some(dir.into()),
        }
    }
}

/// The one true job entry point ([`JobBuilder::run`] delegates here):
/// validate, build the fabric, spawn or pump the node workers, and drive
/// the policy loop to a report. `resume` carries the loaded [`ResumePlan`]
/// when this run continues a persisted job.
fn run_job<F>(
    cfg: JobConfig,
    factory: F,
    script: &FaultScript,
    mode: ExecMode,
    resume: Option<(PathBuf, ResumePlan)>,
) -> JobReport
where
    F: Fn(usize, usize) -> Box<dyn Task> + Send + Sync + 'static,
{
    {
        // Configurations from `JobConfig::builder()` already passed these
        // checks; raw struct literals get them here, fatally.
        if let Err(e) = cfg.validate() {
            panic!("invalid JobConfig: {e}");
        }
        if let ExecMode::Virtual { quantum } = mode {
            if quantum.is_zero() {
                panic!("invalid JobConfig: {}", ConfigError::ZeroQuantum);
            }
            if !matches!(cfg.transport, TransportKind::InProcess) {
                panic!("invalid JobConfig: {}", ConfigError::TcpRequiresThreaded);
            }
        }
        let total = 2 * cfg.ranks + cfg.spares;
        let layout = ReplicaLayout::new(total, cfg.spares).expect("valid job shape");
        let factory: Arc<TaskFactory> = Arc::new(factory);
        let (event_tx, event_rx) = unbounded::<Event>();
        let clock = match mode {
            ExecMode::Threaded => Clock::real(),
            ExecMode::Virtual { .. } => Clock::simulated(),
        };
        // One flight recorder serves the whole job; events are stamped with
        // the job clock, so virtual-mode logs are deterministic.
        let rec = {
            let c = clock.clone();
            Recorder::new(cfg.obs.clone(), total as u32, Arc::new(move || c.now()))
        };
        // The operator endpoint observes the recorder from its own thread;
        // it is up before the first protocol event and torn down after the
        // last, in both execution modes.
        let http = match &cfg.http_addr {
            Some(addr) => match crate::http::StatusServer::start(addr, Arc::clone(&rec)) {
                Ok(server) => {
                    if let Some(slot) = &cfg.http_bound {
                        slot.set(server.local_addr());
                    }
                    Some(server)
                }
                Err(e) => {
                    return JobReport {
                        error: Some(format!("cannot bind http endpoint {addr}: {e}")),
                        ..Default::default()
                    };
                }
            },
            None => None,
        };
        let welcome = welcome_cfg(&cfg, total);
        let fabric = build_fabric(&cfg, welcome, event_tx, &rec);
        let mut workers: Vec<NodeWorker> = (fabric.inboxes.into_iter())
            .zip(fabric.node_ports)
            .enumerate()
            .map(|(index, (inbox, port))| {
                let (factory, rec) = (Arc::clone(&factory), Arc::clone(&rec));
                NodeWorker::new(index, welcome, port, inbox, factory, clock.clone(), rec)
                    .expect("valid job shape")
            })
            .collect();

        let mut driver = Driver {
            next_ckpt: cfg.checkpoint_interval.as_secs_f64(),
            cfg,
            layout,
            port: fabric.driver_port,
            total,
            fabric: fabric.handle,
            transport_suspects: BTreeMap::new(),
            events: event_rx,
            clock,
            round_counter: 0,
            phase: Phase::Running,
            capture: None,
            verified_exists: false,
            parked: None,
            needs_global_restart: false,
            done_nodes: HashSet::new(),
            dead_nodes: HashSet::new(),
            pending_failures: VecDeque::new(),
            triggers: Vec::new(),
            last_event: 0.0,
            probe: None,
            wake: 0.0,
            report: JobReport::default(),
            rec,
            store: None,
            script_faults: Vec::new(),
            fired: Vec::new(),
            next_slot: 0,
            killed: false,
            virtual_mode: matches!(mode, ExecMode::Virtual { .. }),
        };
        driver.rec.emit_with(DRIVER_NODE, || EventKind::JobStart {
            scheme: driver.cfg.scheme.name().to_string(),
            detection: driver.cfg.detection.name().to_string(),
            ranks: driver.cfg.ranks as u32,
            spares: driver.cfg.spares as u32,
        });
        driver.enter_phase(RunPhase::Forward);
        match resume {
            Some((dir, plan)) => driver.apply_resume(&dir, plan),
            None => {
                if let Some(dir) = driver.cfg.persist_dir.clone() {
                    match DriverStore::create(&dir, Arc::clone(&driver.rec)) {
                        Ok(store) => {
                            driver.store = Some(store);
                            let admit = admit_record(&driver.cfg, script, mode);
                            driver.journal(&DriverRecord::JobAdmitted(admit));
                        }
                        Err(e) => {
                            driver.report.error =
                                Some(format!("cannot create persist dir {}: {e}", dir.display()));
                        }
                    }
                }
                driver.arm_script(script, &HashSet::new());
            }
        }

        let report = match mode {
            ExecMode::Threaded => {
                let handles: Vec<_> = workers
                    .into_iter()
                    .enumerate()
                    .map(|(index, worker)| {
                        std::thread::Builder::new()
                            .name(format!("acr-node-{index}"))
                            .spawn(move || worker.run())
                            .expect("spawn node thread")
                    })
                    .collect();
                // Over TCP, hold the job until every node's link has
                // handshaken (local endpoints connect in microseconds;
                // remote node hosts may still be starting up).
                match driver.fabric.wait_transport_ready() {
                    Ok(()) => driver.run_threaded(),
                    Err(e) => {
                        driver.tlog(format!("transport never became ready: {e}"));
                        driver.report.error = Some(e);
                    }
                }
                driver.shutdown_threaded(handles)
            }
            ExecMode::Virtual { quantum } => {
                driver.run_virtual(&mut workers, quantum.as_secs_f64());
                std::mem::take(&mut driver.report)
            }
        };
        if let Some(server) = http {
            server.stop();
        }
        report
    }
}

/// Resume a persisted job ([`Job::resume`] delegates here): load and
/// validate the plan, rebuild the configuration from the admission record,
/// and hand [`run_job`] the plan to apply. Fails closed — any doubt about
/// the store's integrity returns an error report instead of a guess.
fn resume_job<F>(dir: PathBuf, factory: F) -> JobReport
where
    F: Fn(usize, usize) -> Box<dyn Task> + Send + Sync + 'static,
{
    let plan = match ResumePlan::load(&dir) {
        Ok(plan) => plan,
        Err((msg, report)) => {
            let _ = report.write_json(dir.join(REPORT_FILE));
            return JobReport {
                error: Some(msg),
                recovery: Some(report),
                ..Default::default()
            };
        }
    };
    let a = &plan.admit;
    let quantum = Duration::from_secs_f64(
        a.virtual_quantum
            .expect("ResumePlan::load refuses threaded journals"),
    );
    let cfg = JobConfig {
        ranks: a.ranks as usize,
        tasks_per_rank: a.tasks_per_rank as usize,
        spares: a.spares as usize,
        scheme: a.scheme,
        detection: a.detection,
        chunk_size: a.chunk_size as usize,
        checkpoint_interval: Duration::from_secs_f64(a.checkpoint_interval),
        heartbeat_period: Duration::from_secs_f64(a.heartbeat_period),
        heartbeat_timeout: Duration::from_secs_f64(a.heartbeat_timeout),
        delta_checkpoints: a.delta_checkpoints,
        max_duration: Duration::from_secs_f64(a.max_duration),
        obs: ObsConfig::default(),
        transport: TransportKind::InProcess,
        persist_dir: Some(dir.clone()),
        http_addr: None,
        http_bound: None,
    };
    let script = plan.script.clone();
    run_job(
        cfg,
        factory,
        &script,
        ExecMode::Virtual { quantum },
        Some((dir, plan)),
    )
}

/// The journal's admission record for this job: everything a resume needs
/// to rebuild the configuration and script without the caller's help.
fn admit_record(cfg: &JobConfig, script: &FaultScript, mode: ExecMode) -> AdmitRecord {
    AdmitRecord {
        ranks: cfg.ranks as u64,
        tasks_per_rank: cfg.tasks_per_rank as u64,
        spares: cfg.spares as u64,
        scheme: cfg.scheme,
        detection: cfg.detection,
        chunk_size: cfg.chunk_size as u64,
        checkpoint_interval: cfg.checkpoint_interval.as_secs_f64(),
        heartbeat_period: cfg.heartbeat_period.as_secs_f64(),
        heartbeat_timeout: cfg.heartbeat_timeout.as_secs_f64(),
        max_duration: cfg.max_duration.as_secs_f64(),
        delta_checkpoints: cfg.delta_checkpoints,
        virtual_quantum: match mode {
            ExecMode::Virtual { quantum } => Some(quantum.as_secs_f64()),
            ExecMode::Threaded => None,
        },
        script: script.to_repro(),
    }
}

/// Whether a deadline has come: `passed` is the caller's own comparison
/// (strict or not, in its own arithmetic, so virtual traces stay exact) and
/// `at` the job-clock time it turns true. A deadline still ahead is folded
/// into `wake`, the earliest one so far, like `earliest()` in `tcp.rs`.
fn due(wake: &mut f64, passed: bool, at: f64) -> bool {
    if !passed {
        *wake = wake.min(at);
    }
    passed
}

impl Driver {
    fn now(&self) -> f64 {
        self.clock.now()
    }

    fn tlog(&mut self, line: String) {
        self.report
            .trace
            .push(format!("{:10.6} {line}", self.now()));
    }

    /// Mark a driver-phase transition in the flight recorder. Consecutive
    /// markers tile the run's timeline, which is what lets the overhead
    /// report's per-phase rows sum to the total duration exactly.
    fn enter_phase(&self, phase: RunPhase) {
        self.rec.emit(DRIVER_NODE, EventKind::PhaseEnter { phase });
    }

    /// The job is over. Journal the close first: it is the journal's last
    /// decision, durable on the job's clock like every other, and a closed
    /// journal refuses to resume — the job either completed or failed in a
    /// way a resume cannot mend (e.g. out of spares). Then record
    /// `duration` and stamp the end marker together, before teardown, so
    /// the overhead breakdown's total matches the reported duration and
    /// counts every store write; teardown events land after the marker and
    /// are ignored by the fold.
    fn end_job(&mut self) {
        let completed = self.report.completed;
        self.journal(&DriverRecord::JobClosed { completed });
        self.report.duration = self.now();
        self.rec.emit(DRIVER_NODE, EventKind::JobEnd { completed });
    }

    /// Close out the flight recorder into the report: the merged event log
    /// and the metrics snapshot.
    fn finalize_obs(&mut self) {
        self.report.events = self.rec.drain();
        self.report.metrics = self.rec.expose();
    }

    fn send(&self, node: NodeIndex, ctrl: Ctrl) {
        self.port.send(node, Net::Ctrl(ctrl));
    }

    fn active_nodes(&self) -> Vec<NodeIndex> {
        self.layout.active_nodes().map(|(n, _, _)| n).collect()
    }

    fn replica_nodes(&self, replica: u8) -> Vec<NodeIndex> {
        (0..self.layout.ranks())
            .map(|r| self.layout.host(replica, r))
            .collect()
    }

    fn alloc_round(&mut self) -> u64 {
        self.round_counter += 1;
        self.round_counter
    }

    /// Append one record to the journal, if persistence is on. An append
    /// failure is terminal — a journal that silently misses records would
    /// resume into a corrupt state, so the job fails instead.
    fn journal(&mut self, record: &DriverRecord) {
        let Some(store) = &mut self.store else {
            return;
        };
        if let Err(e) = store.append(record) {
            self.report.error = Some(format!("event-log append failed: {e}"));
        }
    }

    /// Mark script index `seq` consumed and journal the fire.
    fn journal_fired(&mut self, seq: usize, node: u64) {
        if let Some(f) = self.fired.get_mut(seq) {
            *f = true;
        }
        self.journal(&DriverRecord::TriggerFired {
            seq: seq as u64,
            node,
        });
    }

    /// A node reported an injected fault that was armed as a node-local
    /// iteration trigger: find its script entry and journal the fire (the
    /// driver-side triggers journal at send time instead). Matching is by
    /// shape — victim identity for crashes, seed+bits for SDC — against
    /// the first unfired iteration entry, which is unambiguous because
    /// `arm_script` armed them all from the same script.
    fn journal_node_fault(&mut self, node: NodeIndex, fault: NodeFault) {
        if self.store.is_none() {
            return;
        }
        let located = self.layout.locate(node);
        let mut matched = None;
        for (seq, f) in self.script_faults.iter().enumerate() {
            if self.fired.get(seq).copied().unwrap_or(true) {
                continue;
            }
            if !matches!(f.when, Trigger::AtIteration(_)) {
                continue;
            }
            let hit = match (f.action, fault) {
                (FaultAction::Crash { replica, rank }, NodeFault::Crash) => {
                    located == Some((replica, rank))
                }
                (FaultAction::Sdc { seed, bits, .. }, NodeFault::Sdc { seed: s, bits: b }) => {
                    seed == s && bits == b
                }
                _ => false,
            };
            if hit {
                matched = Some(seq);
                break;
            }
        }
        if let Some(seq) = matched {
            self.journal_fired(seq, NO_NODE);
        }
    }

    /// Split a script between driver-side triggers (time, checkpoint count)
    /// and node-local iteration triggers, arming the latter immediately.
    /// `dropped` holds script indices whose effects are already part of
    /// committed history (resume's trigger filter): they are never re-armed.
    fn arm_script(&mut self, script: &FaultScript, dropped: &HashSet<usize>) {
        self.script_faults = script.faults.clone();
        self.fired = vec![false; script.faults.len()];
        for &seq in dropped {
            if let Some(f) = self.fired.get_mut(seq) {
                *f = true;
            }
        }
        for (seq, fault) in script.faults.iter().enumerate() {
            if dropped.contains(&seq) {
                continue;
            }
            match (fault.when, fault.action) {
                (Trigger::AtIteration(k), FaultAction::Crash { replica, rank }) => {
                    let node = self.layout.host(replica, rank);
                    self.send(
                        node,
                        Ctrl::ScheduleFault {
                            at_iteration: k,
                            fault: NodeFault::Crash,
                        },
                    );
                }
                (
                    Trigger::AtIteration(k),
                    FaultAction::Sdc {
                        replica,
                        rank,
                        seed,
                        bits,
                    },
                ) => {
                    let node = self.layout.host(replica, rank);
                    self.send(
                        node,
                        Ctrl::ScheduleFault {
                            at_iteration: k,
                            fault: NodeFault::Sdc { seed, bits },
                        },
                    );
                }
                // Iteration triggers need a live victim rank; for the other
                // actions they degenerate to "as soon as possible".
                (Trigger::AtIteration(_), action) => self.triggers.push(PendingTrigger {
                    seq,
                    when: Trigger::At(0.0),
                    action,
                }),
                (when, action) => self.triggers.push(PendingTrigger { seq, when, action }),
            }
        }
    }

    /// Fire every driver-side trigger that is due. Failures don't wait for
    /// a convenient phase — they fire whenever their trigger says, with one
    /// exception: while an epoch capture is pending they hold, so no
    /// `TriggerFired` lands between a round's opening and its commit after
    /// the verdict. A driver kill is not the driver's to postpone; it ends
    /// the capture with everything else, and disk keeps the epoch before.
    fn fire_due_triggers(&mut self) {
        let now = self.now();
        let ckpts = self.report.checkpoints_verified as u32;
        let holding = self.capture.is_some();
        let mut fired = Vec::new();
        self.triggers.retain(|t| {
            let ready = (!holding || t.action == FaultAction::KillDriver)
                && match t.when {
                    Trigger::At(at) => due(&mut self.wake, now >= at, at),
                    Trigger::AfterCheckpoints(c) => ckpts >= c,
                    Trigger::AtIteration(_) => unreachable!("compiled to node-local triggers"),
                };
            if ready {
                fired.push((t.seq, t.action));
            }
            !ready
        });
        for (seq, action) in fired {
            self.fire(seq, action);
        }
    }

    fn fire(&mut self, seq: usize, action: FaultAction) {
        match action {
            FaultAction::Crash { replica, rank } => {
                self.journal_fired(seq, NO_NODE);
                let node = self.layout.host(replica, rank);
                self.send(node, Ctrl::InjectCrash);
            }
            FaultAction::Sdc {
                replica,
                rank,
                seed,
                bits,
            } => {
                self.journal_fired(seq, NO_NODE);
                let node = self.layout.host(replica, rank);
                self.send(node, Ctrl::InjectSdc { seed, bits });
            }
            FaultAction::CrashSpare => {
                // Kill the spare the next promotion would pick; the failure
                // stays latent until a crash promotes the corpse. Journal
                // the corpse's index: it is in no checkpoint, so a resume
                // must re-halt it explicitly.
                let spare = self.layout.peek_spare();
                self.journal_fired(seq, spare.map_or(NO_NODE, |s| s as u64));
                if let Some(spare) = spare {
                    self.send(spare, Ctrl::InjectCrash);
                }
            }
            FaultAction::DelayHeartbeats {
                replica,
                rank,
                secs,
            } => {
                self.journal_fired(seq, NO_NODE);
                let node = self.layout.host(replica, rank);
                self.send(node, Ctrl::MuteHeartbeats { secs });
            }
            FaultAction::KillDriver => {
                if !self.virtual_mode {
                    self.tlog("scripted driver kill ignored (threaded mode)".into());
                    return;
                }
                // Journal the fire *before* dying: the kept record is what
                // stops a resume from re-arming the kill forever.
                self.journal_fired(seq, NO_NODE);
                self.tlog("scripted driver kill".into());
                self.killed = true;
            }
        }
    }

    /// One policy pass: timeouts, due faults, pending recoveries, completion
    /// detection, checkpoint scheduling. Shared by both execution modes.
    /// Each timed check goes through [`due`], so the pass leaves in
    /// `wake` the earliest deadline still ahead. A pass that returns with
    /// work left, or changes the state a deadline hangs on after that
    /// deadline's check ran (a round opened, a probe sent or answered, a
    /// death declared), leaves `now` there: the next pass reads the
    /// deadlines of the new state.
    fn poll(&mut self) -> LoopCtl {
        let now = self.now();
        let max = self.cfg.max_duration.as_secs_f64();
        self.wake = f64::INFINITY;
        if self.report.error.is_some() {
            return LoopCtl::Done;
        }
        if due(&mut self.wake, now > max, max) {
            self.report.error = Some(format!(
                "job exceeded max_duration ({max:.1}s) in phase {:?}",
                self.phase
            ));
            self.tlog("error: max_duration exceeded".into());
            return LoopCtl::Done;
        }
        self.fire_due_triggers();
        if self.killed {
            return LoopCtl::Done;
        }
        self.poll_probe();
        self.poll_transport_suspects();
        if matches!(self.phase, Phase::Running) {
            if let Some(dead) = self.pending_failures.pop_front() {
                self.start_recovery(dead);
                self.wake = now;
                return LoopCtl::Continue;
            }
            if self.needs_global_restart {
                self.global_restart();
                self.wake = now;
                return LoopCtl::Continue;
            }
            if self.capture.is_some() {
                // `JobClosed` and the next `RoundOpened` follow this
                // epoch's commit in the journal, never precede it.
                return LoopCtl::Continue;
            }
            let everyone_done = self
                .active_nodes()
                .iter()
                .all(|n| self.done_nodes.contains(n));
            if everyone_done && self.parked.is_none() {
                self.report.completed = true;
                self.tlog("job completed".into());
                return LoopCtl::Done;
            }
            if due(&mut self.wake, now >= self.next_ckpt, self.next_ckpt) {
                if let Some(replica) = self.parked.take() {
                    self.start_ship_round(replica);
                } else {
                    self.start_global_round();
                }
                self.wake = now;
            }
        }
        LoopCtl::Continue
    }

    /// Threaded policy loop: a policy pass, then a wait for the next event
    /// until the deadline that pass left in `wake`, then a pass again.
    fn run_threaded(&mut self) {
        while self.poll() == LoopCtl::Continue {
            let wait = Duration::try_from_secs_f64((self.wake - self.now()).max(0.0));
            let wait = wait.unwrap_or(Duration::MAX);
            match self.events.recv_timeout(wait) {
                Ok(ev) => self.handle_event(ev),
                Err(RecvTimeoutError::Timeout) => {}
                // Every node is gone: only the deadlines are left.
                Err(RecvTimeoutError::Disconnected) => std::thread::sleep(wait),
            }
        }
    }

    /// Virtual-time executor: a deterministic single-threaded round-robin —
    /// drain driver events, run one policy pass, pump every worker once in
    /// index order, advance the clock one quantum. Ends by delivering
    /// `Shutdown` and pumping until every worker has exited.
    fn run_virtual(&mut self, workers: &mut [NodeWorker], quantum: f64) {
        loop {
            while let Ok(ev) = self.events.try_recv() {
                self.handle_event(ev);
            }
            if self.poll() == LoopCtl::Done {
                break;
            }
            for w in workers.iter_mut() {
                let _ = w.pump();
            }
            self.clock.advance(quantum);
        }
        if self.killed {
            // A scripted driver kill models `kill -9`: no JobClosed record,
            // no shutdown handshake, no final-state collection — the store
            // holds exactly what the fsynced appends left behind. The
            // in-memory report is still returned so tests can introspect
            // the truncated run.
            self.report.completed = false;
            self.report.error = Some("driver killed by scripted fault".into());
            self.report.duration = self.now();
            self.finalize_obs();
            return;
        }
        self.end_job();

        let total = workers.len();
        for n in 0..total {
            self.send(n, Ctrl::Shutdown);
        }
        let mut exited = vec![false; total];
        // Each non-exited worker consumes at least one queued message per
        // pass, so a few passes suffice; the bound is a hang backstop.
        for _ in 0..10_000 {
            for (i, w) in workers.iter_mut().enumerate() {
                if !exited[i] && w.pump() == Pump::Exited {
                    exited[i] = true;
                }
            }
            while let Ok(ev) = self.events.try_recv() {
                self.record_shutdown_event(ev);
            }
            if exited.iter().all(|&e| e) {
                break;
            }
            self.clock.advance(quantum);
        }
        self.finalize_obs();
    }

    /// Record what a node sends after `job_end`, in either executor's
    /// shutdown drain: its `FinalState`, or a fault that landed after the
    /// last policy pass. The journal is closed, but the report must still
    /// list the fault, or a flip after the last comparison reads as silent
    /// corruption (`campaign::classify`).
    fn record_shutdown_event(&mut self, ev: Event) {
        match ev {
            Event::FinalState {
                node,
                identity,
                tasks,
            } => {
                // A node declared dead may still be running (a muted-heartbeat
                // false positive): its stale state must not shadow the state
                // of the spare that replaced it.
                if self.dead_nodes.contains(&node) {
                    return;
                }
                if let Some((replica, rank)) = identity {
                    if !tasks.is_empty() {
                        self.report.final_states.insert((replica, rank), tasks);
                    }
                }
            }
            Event::FaultInjected { at, fault, .. } => match fault {
                NodeFault::Crash => self.report.crashes_injected_at.push(at),
                NodeFault::Sdc { .. } => self.report.sdc_injected_at.push(at),
            },
            _ => {}
        }
    }

    fn handle_event(&mut self, ev: Event) {
        self.last_event = self.now();
        match ev {
            Event::BuddyDead { reporter, dead } => self.on_dead(reporter, dead),
            Event::Pong { node, token } => {
                // Any Pong proves the node is alive *and* its wire path
                // works again, whichever probe asked.
                self.transport_suspects.remove(&node);
                if let Some(p) = &mut self.probe {
                    if p.token == token {
                        p.awaiting.remove(&node);
                    }
                }
            }
            Event::TransportStale { node } => self.on_transport_stale(node),
            Event::FaultInjected { node, at, fault } => {
                self.journal_node_fault(node, fault);
                match fault {
                    NodeFault::Crash => {
                        self.report.crashes_injected_at.push(at);
                        self.tlog(format!("fault crash landed node={node} at={at:.6}"));
                    }
                    NodeFault::Sdc { seed, bits } => {
                        self.report.sdc_injected_at.push(at);
                        self.tlog(format!(
                            "fault sdc landed node={node} at={at:.6} seed={seed} bits={bits}"
                        ));
                    }
                }
            }
            Event::CheckpointDone {
                node,
                round,
                iteration,
                verified,
            } => {
                match &mut self.phase {
                    Phase::GlobalRound {
                        round: r,
                        pending,
                        sdc,
                        iteration: it,
                        started,
                    } if *r == round => {
                        pending.remove(&node);
                        *it = iteration;
                        if verified == Some(false) {
                            *sdc = true;
                        }
                        if pending.is_empty() {
                            let had_sdc = *sdc;
                            let started = *started;
                            self.rec.emit(
                                DRIVER_NODE,
                                EventKind::RoundVerdict {
                                    round,
                                    iteration,
                                    clean: !had_sdc,
                                },
                            );
                            if had_sdc {
                                self.report.sdc_rounds_detected += 1;
                                self.tlog(format!("round {round} detected sdc iter={iteration}"));
                                self.begin_rollback();
                            } else {
                                self.report.checkpoints_verified += 1;
                                self.report.verified_round_starts.push(started);
                                self.verified_exists = true;
                                self.tlog(format!("round {round} verified iter={iteration}"));
                                for n in self.active_nodes() {
                                    self.send(n, Ctrl::RoundComplete);
                                }
                                self.back_to_running();
                                self.begin_capture(round, iteration);
                            }
                        }
                    }
                    Phase::Recovery(rec) if rec.ship_round == Some(round) => {
                        rec.expect_ckpt.remove(&node);
                        self.maybe_finish_recovery();
                    }
                    _ => {} // stale round
                }
            }
            Event::SdcDetected {
                node,
                iteration,
                diverged,
                payload_len,
                fields_flagged,
            } => {
                // Rounds are counted via the CheckpointDone verdicts; here we
                // record where the corruption was localized.
                self.report.sdc_detections.push(SdcDetection {
                    node,
                    iteration,
                    diverged,
                    payload_len,
                    fields_flagged,
                });
            }
            Event::RolledBack { node } => match &mut self.phase {
                Phase::AwaitRollback { pending } => {
                    pending.remove(&node);
                    if pending.is_empty() {
                        self.tlog("rollback complete".into());
                        self.back_to_running();
                    }
                }
                Phase::Recovery(rec) => {
                    rec.expect_rolled.remove(&node);
                    self.maybe_finish_recovery();
                }
                _ => {}
            },
            Event::Installed { node } => {
                if let Phase::Recovery(rec) = &mut self.phase {
                    rec.expect_installed.remove(&node);
                    self.maybe_finish_recovery();
                }
            }
            Event::VerifiedState {
                node,
                round,
                iteration,
                payload,
                ..
            } => {
                let located = self.layout.locate(node);
                let Some(c) = self.capture.as_mut().filter(|c| c.commit.round == round) else {
                    return; // an abandoned capture's answer
                };
                if iteration != c.commit.iteration {
                    // Not the line the verdict was about: never commit it.
                    let want = c.commit.iteration;
                    self.abandon_capture(&format!(
                        "node {node} answered at iteration {iteration}, not {want}"
                    ));
                    return;
                }
                c.pending.remove(&node);
                if let Some(identity) = located {
                    c.states.insert(identity, payload);
                }
                if c.pending.is_empty() {
                    self.commit_epoch();
                }
            }
            Event::AllTasksDone { node } => {
                self.done_nodes.insert(node);
            }
            Event::FinalState { .. } => {
                // Only expected during shutdown; ignore here.
            }
        }
    }

    /// The backstop failure detector. Buddy heartbeats (§6.1) cannot cover
    /// every death: when both members of a buddy pair crash close together,
    /// neither lives to report the other, and any round they participate in
    /// waits on them forever. Whenever a waiting phase (or a pending epoch
    /// capture) sees no node events for 2·heartbeat_timeout, the driver
    /// pings every active node; nodes that stay silent for another
    /// heartbeat_timeout are declared dead.
    fn poll_probe(&mut self) {
        if matches!(self.phase, Phase::Running) && self.capture.is_none() {
            self.probe = None;
            return;
        }
        let now = self.now();
        let timeout = self.cfg.heartbeat_timeout.as_secs_f64();
        match self.probe.take() {
            None => {
                let quiet = now - self.last_event > 2.0 * timeout;
                if due(&mut self.wake, quiet, self.last_event + 2.0 * timeout) {
                    let token = self.alloc_round();
                    let nodes = self.active_nodes();
                    self.tlog(format!("liveness probe token={token}"));
                    self.rec.inc_counter("acr_probe_rounds_total", 1);
                    for &n in &nodes {
                        self.rec
                            .emit_with(DRIVER_NODE, || EventKind::ProbeSent { suspect: n as u32 });
                        self.send(n, Ctrl::Ping { token });
                    }
                    self.probe = Some(Probe {
                        token,
                        sent_at: now,
                        awaiting: nodes.into_iter().collect(),
                    });
                    self.wake = now;
                }
            }
            Some(p) => {
                if p.awaiting.is_empty() {
                    // Everyone answered: the stall is slowness, not death.
                    // The next pass starts the silence clock again.
                    self.last_event = now;
                    self.wake = now;
                } else if due(
                    &mut self.wake,
                    now - p.sent_at > timeout,
                    p.sent_at + timeout,
                ) {
                    // Deterministic order: declare in ascending node index.
                    let mut dead: Vec<NodeIndex> = p.awaiting.into_iter().collect();
                    dead.sort_unstable();
                    self.last_event = now;
                    for d in dead {
                        self.tlog(format!("node {d} failed liveness probe"));
                        self.rec
                            .emit_with(DRIVER_NODE, || EventKind::ProbeDeath { dead: d as u32 });
                        self.declare_dead(d);
                    }
                    self.wake = now;
                } else {
                    self.probe = Some(p);
                }
            }
        }
    }

    /// The router's stale monitor says `node`'s socket has been gone
    /// longer than the grace window. A dead socket is not a dead node —
    /// the endpoint may be mid-backoff — so the report feeds the
    /// liveness machinery instead of declaring death: send a targeted
    /// `Ping` and give the node two heartbeat timeouts to reconnect and
    /// answer (the replay ring preserves the Ping across the reattach).
    fn on_transport_stale(&mut self, node: NodeIndex) {
        if self.dead_nodes.contains(&node)
            || self.transport_suspects.contains_key(&node)
            || self.layout.locate(node).is_none()
        {
            return; // already dead, already suspected, or an idle spare
        }
        let token = self.alloc_round();
        let timeout = self.cfg.heartbeat_timeout.as_secs_f64();
        self.tlog(format!("transport stale: probing node {node}"));
        self.rec.inc_counter("acr_transport_probes_total", 1);
        self.rec.emit_with(DRIVER_NODE, || EventKind::ProbeSent {
            suspect: node as u32,
        });
        self.send(node, Ctrl::Ping { token });
        self.transport_suspects
            .insert(node, self.now() + 2.0 * timeout);
    }

    /// Expire transport-stale probes: a suspect that never answered its
    /// targeted Ping is dead for real.
    fn poll_transport_suspects(&mut self) {
        let now = self.now();
        let expired: Vec<NodeIndex> = self
            .transport_suspects
            .iter()
            .filter(|&(_, &deadline)| due(&mut self.wake, now >= deadline, deadline))
            .map(|(&n, _)| n)
            .collect();
        for node in expired {
            self.transport_suspects.remove(&node);
            if self.dead_nodes.contains(&node) {
                continue;
            }
            self.tlog(format!("node {node} failed transport probe"));
            self.rec
                .emit_with(DRIVER_NODE, || EventKind::ProbeDeath { dead: node as u32 });
            self.declare_dead(node);
            self.wake = now;
        }
    }

    fn begin_rollback(&mut self) {
        self.last_event = self.now();
        self.enter_phase(RunPhase::Rollback);
        self.report.rollbacks += 1;
        let floor = self.alloc_round();
        let nodes = self.active_nodes();
        for &n in &nodes {
            self.done_nodes.remove(&n);
            self.send(n, Ctrl::Rollback { floor });
        }
        self.phase = Phase::AwaitRollback {
            pending: nodes.into_iter().collect(),
        };
    }

    fn back_to_running(&mut self) {
        self.enter_phase(RunPhase::Forward);
        self.phase = Phase::Running;
        self.next_ckpt = self.now() + self.cfg.checkpoint_interval.as_secs_f64();
    }

    /// A round verified clean and is released. With persistence on, ask
    /// every active node for the checkpoint it has just promoted — the
    /// `ReportVerified` queues behind the `RoundComplete` — so the epoch
    /// reaches disk while the application runs.
    fn begin_capture(&mut self, round: u64, iteration: u64) {
        if self.store.is_none() {
            return;
        }
        let nodes = self.active_nodes();
        for &n in &nodes {
            self.send(n, Ctrl::ReportVerified { round });
        }
        self.capture = Some(Capture {
            commit: CommitRecord {
                round,
                slot: self.next_slot,
                t: self.now(),
                iteration,
                round_counter: self.round_counter,
                checkpoints_verified: self.report.checkpoints_verified as u64,
                sdc_rounds_detected: self.report.sdc_rounds_detected as u64,
                rollbacks: self.report.rollbacks as u64,
                hard_errors_recovered: self.report.hard_errors_recovered as u64,
                unverified_recoveries: self.report.unverified_recoveries as u64,
                restarts_from_beginning: self.report.restarts_from_beginning as u64,
                verified_round_starts: self.report.verified_round_starts.clone(),
                unverified_recoveries_at: self.report.unverified_recoveries_at.clone(),
                sdc_injected_at: self.report.sdc_injected_at.clone(),
                crashes_injected_at: self.report.crashes_injected_at.clone(),
            },
            pending: nodes.into_iter().collect(),
            states: BTreeMap::new(),
        });
    }

    /// All verified-state reports are in: write the epoch to its slot and
    /// fsync it, then journal the commit and fsync that. After the journal
    /// append returns, this epoch is what a resume restores.
    fn commit_epoch(&mut self) {
        let Some(Capture { commit, states, .. }) = self.capture.take() else {
            return;
        };
        let Some(store) = &mut self.store else {
            return;
        };
        let entries: Vec<SlotEntryRef<'_>> = states
            .iter()
            .map(|(&(replica, rank), payload)| SlotEntryRef {
                replica,
                rank: rank as u64,
                iteration: commit.iteration,
                payload,
            })
            .collect();
        let (round, slot) = (commit.round, commit.slot);
        if let Err(e) = store.write_slot(slot, round, &entries) {
            self.report.error = Some(format!("checkpoint slot write failed: {e}"));
            return;
        }
        self.next_slot = 1 - slot;
        self.journal(&DriverRecord::EpochCommit(commit));
        self.tlog(format!("epoch {round} committed to slot {slot}"));
    }

    /// Drop a pending capture: disk keeps the previous epoch, and the next
    /// clean round captures afresh.
    fn abandon_capture(&mut self, why: &str) {
        if let Some(c) = self.capture.take() {
            self.tlog(format!("epoch {} capture abandoned: {why}", c.commit.round));
            self.rec
                .inc_counter("acr_store_captures_abandoned_total", 1);
        }
    }

    /// Rebuild driver state from a [`ResumePlan`]: reopen the journal
    /// compacted, advance the clock to the committed epoch, replay the
    /// layout history (halting corpses), seed every active node with its
    /// slot checkpoint, and re-arm the filtered fault script.
    fn apply_resume(&mut self, dir: &Path, mut plan: ResumePlan) {
        match DriverStore::resume(dir, &plan.kept, Arc::clone(&self.rec)) {
            Ok(store) => self.store = Some(store),
            Err(e) => {
                self.report.error = Some(format!("cannot reopen event log: {e}"));
                return;
            }
        }
        self.next_slot = plan.next_slot;
        self.rec.emit_with(DRIVER_NODE, || EventKind::StoreRecover {
            source: plan.report.source.clone(),
            replayed: plan.report.records_replayed,
            skipped: plan.report.records_skipped,
        });
        if let Some(c) = &plan.commit {
            // The resumed job clock continues from the commit time so
            // time-anchored triggers and the max_duration budget keep their
            // original meaning.
            self.clock.advance(c.t);
        }
        self.last_event = self.now();

        // Replay the pre-commit layout history. Promotions must pick the
        // same spares they picked originally (the layout allocator is
        // deterministic); divergence means the journal does not describe
        // this job, and resuming would corrupt state.
        for p in &plan.promotions {
            match self.promote_spare(p.dead) {
                Ok(s) if s == p.spare => {}
                other => {
                    self.report.error = Some(format!(
                        "journal replay diverged: promotion of node {} expected spare {}, \
                         layout gave {other:?}",
                        p.dead, p.spare
                    ));
                    return;
                }
            }
            self.dead_nodes.insert(p.dead);
            self.send(p.dead, Ctrl::Halt);
            let buddy = self.layout.host(1 - p.replica, p.rank);
            self.send(
                p.spare,
                Ctrl::AssumeIdentity {
                    replica: p.replica,
                    rank: p.rank,
                    buddy,
                    floor: 0,
                },
            );
            self.send(p.spare, Ctrl::Resume { floor: 0 });
        }
        // Deaths the journal recorded without a matching promotion (the
        // kill landed between the death and its recovery): halt the corpse
        // and let the resumed driver run the recovery itself.
        let promoted: HashSet<usize> = plan.promotions.iter().map(|p| p.dead).collect();
        for &n in &plan.dead {
            if promoted.contains(&n) {
                continue;
            }
            if self.dead_nodes.insert(n) {
                self.send(n, Ctrl::Halt);
                self.pending_failures.push_back(n);
            }
        }
        // Pre-commit CrashSpare corpses are in no checkpoint: re-halt.
        for &n in &plan.halt_targets {
            self.send(n, Ctrl::Halt);
        }

        // Every worker armed its heartbeat watch at clock 0; with the clock
        // now at the commit time, re-watch before the first tick or every
        // buddy would look timed out instantly.
        for n in self.active_nodes() {
            let buddy = self.layout.buddy(n).expect("active node has a buddy");
            self.send(n, Ctrl::BuddyChanged { buddy });
        }
        if let Some(c) = &plan.commit {
            self.round_counter = c.round_counter;
            self.report.checkpoints_verified = c.checkpoints_verified as usize;
            self.report.sdc_rounds_detected = c.sdc_rounds_detected as usize;
            self.report.rollbacks = c.rollbacks as usize;
            self.report.hard_errors_recovered = c.hard_errors_recovered as usize;
            self.report.unverified_recoveries = c.unverified_recoveries as usize;
            self.report.restarts_from_beginning = c.restarts_from_beginning as usize;
            self.report.verified_round_starts = c.verified_round_starts.clone();
            self.report.unverified_recoveries_at = c.unverified_recoveries_at.clone();
            self.report.sdc_injected_at = c.sdc_injected_at.clone();
            self.report.crashes_injected_at = c.crashes_injected_at.clone();
            self.verified_exists = true;
            self.next_ckpt = c.t + self.cfg.checkpoint_interval.as_secs_f64();
            self.install_epoch(std::mem::take(&mut plan.slot_states));
            self.tlog(format!(
                "resumed from {} checkpoint: epoch {} iteration {}",
                plan.report.source, c.round, c.iteration
            ));
        } else {
            // Every node, promoted spares too, was just built by the
            // factory: the job already stands at epoch 0.
            self.tlog("resumed with no committed epoch: restarting from initial state".into());
        }
        self.report.recovery = Some(plan.report.clone());
        if let Err(e) = plan.report.write_json(dir.join(REPORT_FILE)) {
            self.tlog(format!("could not write recovery report: {e}"));
        }
        // Arm last, after the layout replay, so iteration-trigger faults
        // target the nodes *currently* hosting their victim ranks.
        let script = plan.script.clone();
        self.arm_script(&script, &plan.dropped_seqs);
    }

    fn on_dead(&mut self, reporter: NodeIndex, dead: NodeIndex) {
        if self.dead_nodes.contains(&dead) || self.layout.locate(dead).is_none() {
            return; // duplicate report or not an active node
        }
        // Only the node *currently* paired with `dead` is its failure
        // detector. A node declared dead by mistake (e.g. a muted-heartbeat
        // false positive) keeps running with a stale watch list; its reports
        // against nodes that merely stopped heartbeating *to it* must not
        // kill healthy nodes.
        if self.layout.buddy(dead) != Ok(reporter) {
            self.tlog(format!(
                "ignoring death report of node {dead} from non-buddy {reporter}"
            ));
            return;
        }
        self.declare_dead(dead);
    }

    /// Process a legitimate death report (from the current buddy, or from
    /// the driver's own liveness probe).
    fn declare_dead(&mut self, dead: NodeIndex) {
        let Some((replica, rank)) = self.layout.locate(dead) else {
            return; // not an active node
        };
        if self.dead_nodes.contains(&dead) {
            return; // duplicate report
        }
        debug_trace!(
            self.rec,
            DRIVER_NODE,
            "[driver t={:.3}] node {dead} declared dead (phase {:?})",
            self.now(),
            self.phase
        );
        self.rec.emit_with(DRIVER_NODE, || EventKind::NodeDead {
            dead: dead as u32,
            replica,
            rank: rank as u32,
        });
        self.rec.inc_counter("acr_nodes_declared_dead_total", 1);
        self.dead_nodes.insert(dead);
        self.done_nodes.remove(&dead);
        self.tlog(format!("node {dead} declared dead"));
        self.journal(&DriverRecord::NodeDead { node: dead as u64 });
        // Its answer may never come, and the recovery that follows moves
        // every node's rollback target.
        self.abandon_capture("a node died");
        match &self.phase {
            Phase::Running => self.start_recovery(dead),
            Phase::GlobalRound { .. } => {
                // The dead node will never finish the round: abort it, then
                // recover.
                let floor = self.alloc_round();
                for n in self.active_nodes() {
                    if n != dead {
                        self.send(n, Ctrl::AbortRound { floor });
                    }
                }
                self.phase = Phase::Running;
                self.start_recovery(dead);
            }
            Phase::AwaitRollback { .. } => {
                // Its RolledBack will never arrive; don't wait for it.
                self.pending_failures.push_back(dead);
                if let Phase::AwaitRollback { pending } = &mut self.phase {
                    pending.remove(&dead);
                    if pending.is_empty() {
                        self.tlog("rollback complete (minus dead node)".into());
                        self.back_to_running();
                    }
                }
            }
            Phase::Recovery(rec) => {
                // The dead node owed this recovery a rollback, a ship-round
                // checkpoint or an install, or was the pending install
                // source for its buddy (strong scheme's SendVerifiedTo):
                // the recovery can never complete.
                let partner = self.layout.host(1 - replica, rank);
                let hit = [&rec.expect_installed, &rec.expect_rolled, &rec.expect_ckpt]
                    .iter()
                    .any(|owed| owed.contains(&dead))
                    || rec.expect_installed.contains(&partner);
                self.pending_failures.push_back(dead);
                if hit {
                    self.rec
                        .emit_with(DRIVER_NODE, || EventKind::RecoveryCollapsed {
                            dead: dead as u32,
                        });
                    self.tlog(format!("recovery collapsed by death of node {dead}"));
                    // Surviving participants of an in-flight ship round
                    // would wait forever for the dead member's consensus
                    // vote: don't wait for the remaining expectations —
                    // unstick everyone and queue the global restart now.
                    self.queue_restart();
                    let floor = self.alloc_round();
                    for n in self.active_nodes() {
                        if n != dead {
                            self.send(n, Ctrl::AbortRound { floor });
                        }
                    }
                }
            }
        }
    }

    /// Promote the next spare into `dead`'s place in the driver's layout,
    /// and tell every node to do the same to its own copy. Messages to one
    /// node arrive in order, so each applies the substitution before the
    /// `Halt`, `Park`, `AssumeIdentity` or `BuddyChanged` that follows it.
    fn promote_spare(&mut self, dead: NodeIndex) -> Result<NodeIndex, LayoutError> {
        let spare = self.layout.replace_with_spare(dead)?;
        for n in 0..self.total {
            self.send(n, Ctrl::LayoutChanged { dead });
        }
        Ok(spare)
    }

    fn start_recovery(&mut self, dead: NodeIndex) {
        let Some((replica, rank)) = self.layout.locate(dead) else {
            return;
        };
        self.last_event = self.now();
        let spare = match self.promote_spare(dead) {
            Ok(s) => s,
            Err(e) => {
                self.report.error = Some(format!("cannot recover node {dead}: {e}"));
                self.report.completed = false;
                self.tlog(format!("error: cannot recover node {dead}: {e}"));
                return;
            }
        };
        self.report.hard_errors_recovered += 1;
        self.journal(&DriverRecord::SparePromoted {
            dead: dead as u64,
            spare: spare as u64,
            replica,
            rank: rank as u64,
        });
        let buddy_node = self.layout.host(1 - replica, rank);
        let floor = self.alloc_round();
        self.enter_phase(RunPhase::Recovery);
        self.rec
            .emit_with(DRIVER_NODE, || EventKind::RecoveryStart {
                scheme: self.cfg.scheme.name().to_string(),
                class: self.cfg.scheme.sdc_exposure_class().to_string(),
                dead: dead as u32,
                spare: spare as u32,
            });
        self.tlog(format!(
            "recovery start dead={dead} replica={replica} rank={rank} spare={spare}"
        ));

        // Quiesce the crashed replica (its other nodes keep state; the
        // spare starts parked by construction).
        let crashed_nodes = self.replica_nodes(replica);
        for &n in &crashed_nodes {
            if n != spare {
                self.send(n, Ctrl::Park);
            }
            self.done_nodes.remove(&n);
        }
        self.send(
            spare,
            Ctrl::AssumeIdentity {
                replica,
                rank,
                buddy: buddy_node,
                floor,
            },
        );
        self.send(buddy_node, Ctrl::BuddyChanged { buddy: spare });

        // The planner decides (§2.3); the driver executes its actions.
        let plan =
            RecoveryPlanner::new(self.cfg.scheme, self.cfg.ranks).plan_hard_error(HardError {
                replica,
                buddy: buddy_node,
                spare,
                line: self.verified_exists,
                collapsed: self.needs_global_restart,
                parked: self.parked,
            });
        self.rec.emit_with(DRIVER_NODE, || EventKind::RecoveryPlan {
            actions: plan.actions.len() as u32,
            inter_replica_messages: plan.inter_replica_messages as u32,
            rework: plan.rework,
        });
        let mut recovery = Recovery {
            to_resume: crashed_nodes,
            ..Recovery::default()
        };
        for action in plan.actions {
            match action {
                RecoveryAction::SendVerifiedCheckpoint { from, to } => {
                    self.send(from, Ctrl::SendVerifiedTo { to });
                    recovery.expect_installed.insert(to);
                }
                RecoveryAction::RollbackReplica { replica } => {
                    for n in self.replica_nodes(replica) {
                        if n != spare {
                            self.send(n, Ctrl::Rollback { floor });
                            recovery.expect_rolled.insert(n);
                        }
                    }
                }
                RecoveryAction::ForceCheckpoint { replica } => recovery = self.ship(replica),
                // The forced round's checkpoints travel as they are taken.
                RecoveryAction::ShipCheckpointsToBuddies { .. } => {}
                RecoveryAction::WaitForNextPeriodicCheckpoint => {
                    // The healthy replica runs on (§2.3: "zero-overhead"
                    // recovery); `poll` ships at the next periodic time.
                    self.parked = Some(replica);
                    self.enter_phase(RunPhase::Forward);
                    self.phase = Phase::Running;
                    return;
                }
                RecoveryAction::RestartJob => {
                    self.tlog("no replica holds a line: restart".into());
                    self.queue_restart();
                    return;
                }
            }
        }
        self.phase = Phase::Recovery(recovery);
        // A one-rank replica recovering from epoch 0 waits on nothing.
        self.maybe_finish_recovery();
    }

    /// The deferred weak-scheme ship at the periodic time.
    fn start_ship_round(&mut self, replica: u8) {
        self.last_event = self.now();
        self.enter_phase(RunPhase::Ship);
        self.tlog("weak ship starts".into());
        self.phase = Phase::Recovery(self.ship(1 - replica));
    }

    /// The replica-local ship of §2.3's medium and weak schemes: a
    /// `Scope::Replica` round in the healthy replica `from`, each of whose
    /// checkpoints its buddy installs across the crashed replica, which
    /// then resumes from this unverified state.
    fn ship(&mut self, from: u8) -> Recovery {
        let round = self.alloc_round();
        let senders = self.replica_nodes(from);
        for &n in &senders {
            self.send(
                n,
                Ctrl::StartRound {
                    scope: Scope::Replica(from),
                    round,
                },
            );
        }
        let receivers = self.replica_nodes(1 - from);
        Recovery {
            expect_installed: receivers.iter().copied().collect(),
            expect_rolled: HashSet::new(),
            expect_ckpt: senders.into_iter().collect(),
            ship_round: Some(round),
            to_resume: receivers,
            counts_as_unverified: true,
        }
    }

    fn maybe_finish_recovery(&mut self) {
        let Phase::Recovery(rec) = &self.phase else {
            return;
        };
        if !rec.finished() {
            return;
        }
        let Phase::Recovery(rec) = std::mem::replace(&mut self.phase, Phase::Running) else {
            unreachable!()
        };
        if rec.counts_as_unverified {
            self.report.unverified_recoveries += 1;
            let now = self.now();
            self.report.unverified_recoveries_at.push(now);
            // The shipped state becomes the de-facto baseline.
            self.verified_exists = true;
        }
        self.rec.emit_with(DRIVER_NODE, || EventKind::RecoveryDone {
            unverified: rec.counts_as_unverified,
        });
        let floor = self.alloc_round();
        self.tlog("recovery complete".into());
        // Unpause the shipping replica's engines and unpark the recovered
        // replica. Only a ship has a round to complete: after a rollback,
        // a `RoundComplete` would promote what an aborted round left
        // tentative, a line nobody verified.
        if rec.ship_round.is_some() {
            for n in self.active_nodes() {
                self.send(n, Ctrl::RoundComplete);
            }
        }
        for n in rec.to_resume {
            self.send(n, Ctrl::Resume { floor });
        }
        self.back_to_running();
    }

    /// No in-memory checkpoint line survives: back to running, with a
    /// global restart queued behind any pending spare promotions.
    fn queue_restart(&mut self) {
        self.needs_global_restart = true;
        self.parked = None;
        self.back_to_running();
    }

    /// Seed every active node with its identity's state from a committed
    /// epoch: `Install` makes it the node's verified checkpoint.
    fn install_epoch(&self, states: SlotStates) {
        for ((replica, rank), (iteration, digest, payload)) in states {
            let node = self.layout.host(replica, rank);
            let checkpoint = Checkpoint::new(iteration, payload, digest);
            self.port.send(node, Net::Install { checkpoint });
        }
    }

    /// Restart the whole job from the newest durable line. That is the
    /// newest committed epoch whose slot reads back valid — read from disk
    /// here only, installed on every node, then restored as after an SDC —
    /// or, with no store, commit or valid slot, epoch 0: every node forgets
    /// its checkpoints and starts the application over.
    fn global_restart(&mut self) {
        self.last_event = self.now();
        self.needs_global_restart = false;
        self.parked = None;
        let floor = self.alloc_round();
        let nodes = self.active_nodes();
        self.enter_phase(RunPhase::Restart);
        let mut why = Vec::new();
        let epoch = (self.store.as_ref()).and_then(|s| s.newest_epoch(self.cfg.ranks, &mut why));
        for d in why {
            self.tlog(format!("restart: {d}"));
        }
        self.verified_exists = epoch.is_some();
        let iteration = match epoch {
            Some((c, states)) => {
                self.tlog(format!(
                    "restart from epoch {} iteration {}",
                    c.round, c.iteration
                ));
                self.next_slot = 1 - c.slot;
                self.install_epoch(states);
                c.iteration
            }
            None => {
                self.report.restarts_from_beginning += 1;
                self.tlog("restart from beginning".into());
                0
            }
        };
        self.rec
            .emit(DRIVER_NODE, EventKind::GlobalRestart { iteration });
        self.rec.inc_counter("acr_global_restarts_total", 1);
        for &n in &nodes {
            self.done_nodes.remove(&n);
            if self.verified_exists {
                // Parked survivors and promoted spares run again.
                self.send(n, Ctrl::Rollback { floor });
                self.send(n, Ctrl::Resume { floor });
            } else {
                self.send(n, Ctrl::HardRestart { floor });
            }
        }
        self.phase = Phase::AwaitRollback {
            pending: nodes.into_iter().collect(),
        };
    }

    fn start_global_round(&mut self) {
        self.last_event = self.now();
        let round = self.alloc_round();
        let nodes = self.active_nodes();
        let started = self.now();
        self.enter_phase(RunPhase::Round);
        self.rec.emit(DRIVER_NODE, EventKind::RoundStart { round });
        self.journal(&DriverRecord::RoundOpened { round });
        self.tlog(format!("round {round} starts"));
        for &n in &nodes {
            self.send(
                n,
                Ctrl::StartRound {
                    scope: Scope::Global,
                    round,
                },
            );
        }
        self.phase = Phase::GlobalRound {
            round,
            pending: nodes.into_iter().collect(),
            sdc: false,
            iteration: 0,
            started,
        };
    }

    fn shutdown_threaded(&mut self, handles: Vec<std::thread::JoinHandle<()>>) -> JobReport {
        self.end_job();
        let total = self.total;
        for n in 0..total {
            self.send(n, Ctrl::Shutdown);
        }
        // The drain deadline runs on the job clock, not a raw wall-clock
        // read, so a virtual-time driver could never hang here; the attempt
        // bound covers clocks that stand still regardless.
        let deadline = self.now() + 10.0;
        let mut owed: HashSet<NodeIndex> = (0..total).collect();
        let mut attempts = 0u32;
        while !owed.is_empty() && self.now() < deadline && attempts < 10_000 {
            attempts += 1;
            match self.events.recv_timeout(Duration::from_millis(50)) {
                Ok(ev) => {
                    if let Event::FinalState { node, .. } = &ev {
                        owed.remove(node);
                    }
                    self.record_shutdown_event(ev);
                }
                // A live node's FinalState can take longer than one idle gap
                // to cross the TCP fabric (megabytes of task state to the
                // router); the gap ends the drain only once every node still
                // owed is one the driver has given up on.
                Err(RecvTimeoutError::Timeout) => {
                    let given_up = |n: &NodeIndex| {
                        self.dead_nodes.contains(n) || self.transport_suspects.contains_key(n)
                    };
                    if owed.iter().all(given_up) {
                        break;
                    }
                }
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        // Tear the fabric down before joining: a TCP worker wedged on a
        // link that never came up only exits once its endpoint drops the
        // inbox sender.
        self.fabric.teardown();
        for h in handles {
            let _ = h.join();
        }
        self.finalize_obs();
        std::mem::take(&mut self.report)
    }
}
