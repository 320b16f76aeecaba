//! Deterministic fault campaigns: sweep seeded [`FaultScript`] scenarios
//! across recovery schemes and detection methods under virtual time, and
//! check the paper's end-to-end safety claims on every single run:
//!
//! * **No silent corruption** — every injected SDC is either detected by a
//!   buddy comparison or provably absent from the final output (bit-for-bit
//!   equal to a fault-free reference run). The only tolerated escapes are
//!   the windows the paper itself concedes: corruption baselined by an
//!   unverified medium/weak recovery ship (§2.3), and corruption injected
//!   after the last verified comparison round.
//! * **Forward progress** — every run completes within its (virtual) time
//!   budget, whatever the script throws at it.
//! * **Determinism** — the same seed replays to a byte-identical event
//!   trace, so every violation ships a minimal repro (config + script).
//!
//! The campaign is cheap: virtual time means a multi-second "run" is a few
//! milliseconds of wall clock, so CI sweeps hundreds of scenarios.
//!
//! Setting [`CampaignConfig::transport`] to [`TransportKind::Tcp`] reruns
//! the same scripted scenarios over the framed localhost-TCP backend under
//! real threads and a wall clock (the CI soak job). Wall-clock runs are
//! not replay-deterministic, so the determinism double-run is skipped, and
//! the fault-free reference always comes from a virtual in-process run —
//! the final state of a completed case is a pure function of the iteration
//! count, so the cross-backend comparison is exact.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

use acr_core::{DetectionMethod, Scheme};
use acr_fault::{FaultScript, ScenarioSpace};
use acr_pup::{Pup, PupResult, Puper};
use bytes::Bytes;

use crate::driver::{ExecMode, Job, JobConfig, JobReport};
use crate::message::{AppMsg, TaskId};
use crate::service::{DriverService, ServiceConfig};
use crate::task::{Task, TaskCtx};
use crate::transport::TransportKind;

/// Configuration of a fault campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Ranks per replica of the built-in workload job.
    pub ranks: usize,
    /// Spares per job (also the scripted crash budget).
    pub spares: usize,
    /// Ring iterations each task must complete.
    pub iterations: u64,
    /// Scenario seeds to sweep (one scripted run per seed × scheme).
    pub seeds: Vec<u64>,
    /// Recovery schemes to sweep.
    pub schemes: Vec<Scheme>,
    /// Detection methods, cycled per seed (a full cross would re-test the
    /// same script shapes at triple cost for little extra coverage).
    pub detections: Vec<DetectionMethod>,
    /// Virtual scheduler quantum.
    pub quantum: Duration,
    /// Checkpoint interval (virtual seconds).
    pub checkpoint_interval: Duration,
    /// Run every case twice and require byte-identical event traces (both
    /// the driver's text trace and the flight recorder's JSONL log).
    pub check_determinism: bool,
    /// Where to write minimal-repro artifacts for violations (created on
    /// demand); `None` disables artifact emission.
    pub repro_dir: Option<PathBuf>,
    /// How many trailing flight-recorder events a violation's minimal-repro
    /// artifact embeds (the crash-dump timeline).
    pub timeline_events: usize,
    /// Which wire the cases run over. [`TransportKind::InProcess`] keeps
    /// the deterministic virtual-time sweep; [`TransportKind::Tcp`] soaks
    /// the same scripts over framed localhost sockets under real threads
    /// (wall clock, heartbeat margins widened, determinism check skipped).
    pub transport: TransportKind,
    /// Run every case with incremental delta checkpoints enabled (small
    /// chunk size so the per-chunk machinery actually runs). The scripted
    /// faults then double as a soak of the delta path: every rollback,
    /// spare promotion, and reconnect lands mid-chain, and the next ship
    /// diffs against whatever rollback target the recovery left.
    pub delta_checkpoints: bool,
    /// Let scripted scenarios kill the driver mid-run (virtual-time only).
    /// A killed case is resumed from its durable store with
    /// [`Job::resume`] and the *resumed* run's outcome is classified — the
    /// sweep then doubles as a crash-restart battery. Silently inert
    /// unless `persist_dir` is also set (a kill without a store could
    /// never resume).
    pub driver_kill: bool,
    /// Root directory for per-case durable stores; each case journals into
    /// `<root>/<scheme>_<detection>_seed<N>` (wiped before the run).
    /// `None` keeps cases fully in-memory.
    pub persist_dir: Option<PathBuf>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self {
            ranks: 2,
            spares: 3,
            iterations: 400,
            seeds: (0..32).collect(),
            schemes: vec![Scheme::Strong, Scheme::Medium, Scheme::Weak],
            detections: vec![
                DetectionMethod::FullCompare,
                DetectionMethod::ChunkedChecksum,
                DetectionMethod::Checksum,
            ],
            quantum: Duration::from_millis(1),
            checkpoint_interval: Duration::from_millis(60),
            check_determinism: true,
            repro_dir: None,
            timeline_events: 40,
            transport: TransportKind::InProcess,
            delta_checkpoints: false,
            driver_kill: false,
            persist_dir: None,
        }
    }
}

impl CampaignConfig {
    /// Whether this campaign runs over real sockets on a wall clock.
    pub fn wall_clock(&self) -> bool {
        !matches!(self.transport, TransportKind::InProcess)
    }

    /// The job configuration every case of this campaign runs under.
    ///
    /// Over TCP the heartbeat margins widen: virtual time never stalls a
    /// scheduler, but a loaded CI runner does, and a false-positive death
    /// verdict would poison the sweep. Scripted heartbeat-delay faults stay
    /// well under the widened detector timeout either way.
    pub fn job_config(&self, scheme: Scheme, detection: DetectionMethod) -> JobConfig {
        let (hb_period, hb_timeout) = if self.wall_clock() {
            (Duration::from_millis(10), Duration::from_millis(150))
        } else {
            (Duration::from_millis(5), Duration::from_millis(40))
        };
        let mut b = JobConfig::builder()
            .ranks(self.ranks)
            .tasks_per_rank(1)
            .spares(self.spares)
            .scheme(scheme)
            .detection(detection);
        if self.delta_checkpoints {
            b = b.chunk_size(256).delta_checkpoints(true);
        }
        b.checkpoint_interval(self.checkpoint_interval)
            .heartbeat_period(hb_period)
            .heartbeat_timeout(hb_timeout)
            // Virtual seconds; generous so only genuine hangs trip it.
            .max_duration(Duration::from_secs(30))
            .transport(self.transport.clone())
            .build()
            .expect("campaign job shape is always valid")
    }

    /// The scenario space scripts are generated from: the crash budget is
    /// the spare pool, heartbeat delays stay under the detector timeout,
    /// and time triggers land within the fault-free run's horizon.
    ///
    /// On a wall clock nothing fixes how long that run is — it follows the
    /// transport and the machine — so it is measured: one fault-free job
    /// over the campaign's own transport, the horizon 0.8 × its duration.
    /// (Scripted times fall in the first 55 % of the horizon, so a faulted
    /// run, which is never shorter, is still under way when they fire; a
    /// guess that overshoots times faults into the sliver around `job_end`.)
    pub fn scenario_space(&self) -> ScenarioSpace {
        let horizon = if self.wall_clock() {
            let (scheme, detection) = (self.schemes[0], self.detections[0]);
            0.8 * run_case(self, scheme, detection, &FaultScript::new(), None).duration
        } else {
            // ~1 ring iteration per quantum: keep injections inside the run.
            self.iterations as f64 * self.quantum.as_secs_f64()
        };
        ScenarioSpace {
            ranks: self.ranks,
            spares: self.spares,
            horizon,
            max_iteration: self.iterations,
            heartbeat_timeout: 0.040,
            max_faults: 3,
            sdc_bits_max: 3,
            allow_spare_kill: true,
            allow_heartbeat_delay: true,
            allow_driver_kill: self.driver_kill && self.persist_dir.is_some() && !self.wall_clock(),
        }
    }

    /// The durable store directory one case persists into, when the
    /// campaign has a `persist_dir` root.
    pub fn case_store_dir(
        &self,
        scheme: Scheme,
        detection: DetectionMethod,
        seed: u64,
    ) -> Option<PathBuf> {
        self.persist_dir.as_ref().map(|root| {
            root.join(format!(
                "{}_{}_seed{}",
                scheme_name(scheme),
                detection_name(detection),
                seed
            ))
        })
    }
}

/// How one campaign case ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CaseOutcome {
    /// Completed, final state bit-identical to the fault-free reference,
    /// no comparison round flagged corruption.
    Clean,
    /// Completed and correct, with at least one SDC caught by a buddy
    /// comparison along the way.
    Detected,
    /// Final state differs from the reference, but only through the escape
    /// windows the paper concedes for medium/weak recovery — never silently
    /// past a verified comparison.
    KnownEscape,
    /// A safety invariant broke; the string says which.
    Violation(String),
}

/// One scripted run and its verdict.
#[derive(Debug)]
pub struct CaseResult {
    /// Scenario seed the script was generated from.
    pub seed: u64,
    /// Recovery scheme of this case.
    pub scheme: Scheme,
    /// Detection method of this case.
    pub detection: DetectionMethod,
    /// The generated (replayable) script.
    pub script: FaultScript,
    /// The verdict.
    pub outcome: CaseOutcome,
    /// The run's report (first run when determinism-checking).
    pub report: JobReport,
}

/// Aggregated campaign results.
#[derive(Debug, Default)]
pub struct CampaignReport {
    /// Every case, in sweep order (seeds outer, schemes inner).
    pub cases: Vec<CaseResult>,
    /// Repro artifacts written for violations.
    pub artifacts: Vec<PathBuf>,
}

impl CampaignReport {
    /// Cases whose outcome is a violation.
    pub fn violations(&self) -> impl Iterator<Item = &CaseResult> {
        self.cases
            .iter()
            .filter(|c| matches!(c.outcome, CaseOutcome::Violation(_)))
    }

    /// `(clean, detected, known_escape, violation)` counts.
    pub fn tally(&self) -> (usize, usize, usize, usize) {
        let mut t = (0, 0, 0, 0);
        for c in &self.cases {
            match c.outcome {
                CaseOutcome::Clean => t.0 += 1,
                CaseOutcome::Detected => t.1 += 1,
                CaseOutcome::KnownEscape => t.2 += 1,
                CaseOutcome::Violation(_) => t.3 += 1,
            }
        }
        t
    }
}

/// Stable lowercase name for a scheme (repro artifacts, file names).
pub fn scheme_name(s: Scheme) -> &'static str {
    match s {
        Scheme::Strong => "strong",
        Scheme::Medium => "medium",
        Scheme::Weak => "weak",
    }
}

/// Inverse of [`scheme_name`].
pub fn parse_scheme(s: &str) -> Option<Scheme> {
    match s {
        "strong" => Some(Scheme::Strong),
        "medium" => Some(Scheme::Medium),
        "weak" => Some(Scheme::Weak),
        _ => None,
    }
}

/// Stable lowercase name for a detection method.
pub fn detection_name(d: DetectionMethod) -> &'static str {
    match d {
        DetectionMethod::FullCompare => "full_compare",
        DetectionMethod::Checksum => "checksum",
        DetectionMethod::ChunkedChecksum => "chunked_checksum",
    }
}

/// Inverse of [`detection_name`].
pub fn parse_detection(s: &str) -> Option<DetectionMethod> {
    match s {
        "full_compare" => Some(DetectionMethod::FullCompare),
        "checksum" => Some(DetectionMethod::Checksum),
        "chunked_checksum" => Some(DetectionMethod::ChunkedChecksum),
        _ => None,
    }
}

/// The campaign workload: a communicating token ring with perturbation-
/// preserving float dynamics, sized small so virtual runs are fast but
/// corruption always has state to land in and persist through.
struct CampaignTask {
    rank: usize,
    iter: u64,
    tokens: u64,
    acc: Vec<f64>,
    checksum: f64,
    total_iters: u64,
    /// Wall-clock pacing for TCP cases, so checkpoint rounds land between
    /// iterations instead of after the ring has already finished. Never
    /// pupped — the factory reconstructs it, keeping packed state (and so
    /// the cross-backend reference comparison) bit-identical.
    step_delay: Duration,
}

impl CampaignTask {
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

impl Task for CampaignTask {
    fn try_step(&mut self, ctx: &mut TaskCtx<'_>) -> bool {
        if self.done() {
            return false;
        }
        if self.iter > 0 && self.tokens == 0 {
            return false; // waiting for the ring token
        }
        if self.iter > 0 {
            self.tokens -= 1;
        }
        if !self.step_delay.is_zero() {
            std::thread::sleep(self.step_delay);
        }
        for (i, x) in self.acc.iter_mut().enumerate() {
            // Additive update: an injected bit flip persists verbatim until
            // a rollback or recovery install purges it.
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

fn run_case(
    cfg: &CampaignConfig,
    scheme: Scheme,
    detection: DetectionMethod,
    script: &FaultScript,
    store: Option<&Path>,
) -> JobReport {
    let iters = cfg.iterations;
    let (mode, step_delay) = if cfg.wall_clock() {
        (ExecMode::Threaded, Duration::from_micros(200))
    } else {
        (
            ExecMode::Virtual {
                quantum: cfg.quantum,
            },
            Duration::ZERO,
        )
    };
    let mut job_cfg = cfg.job_config(scheme, detection);
    if let Some(dir) = store {
        // A stale store from a previous sweep would poison the journal.
        let _ = std::fs::remove_dir_all(dir);
        job_cfg.persist_dir = Some(dir.to_path_buf());
    }
    let report = Job::new(job_cfg)
        .with_faults(script.clone())
        .mode(mode)
        .run(move |rank, _task| {
            Box::new(CampaignTask::new(rank, iters, step_delay)) as Box<dyn Task>
        });
    // A scripted driver kill truncates the run; the case's real verdict is
    // the resumed run's. The kill's journal record survives compaction, so
    // the resume cannot be killed again by the same script entry.
    if let Some(dir) = store {
        if report.error.as_deref() == Some("driver killed by scripted fault") {
            return Job::resume(dir).run(move |rank, _task| {
                Box::new(CampaignTask::new(rank, iters, step_delay)) as Box<dyn Task>
            });
        }
    }
    report
}

/// Resume a previously-killed campaign case straight from its store dir —
/// the `--resume` path of `examples/fault_campaign.rs`. Scheme, detection,
/// script, and clock come from the journal's admission record; only the
/// task factory must match, and campaign stores are always written by
/// `CampaignTask` runs under virtual time (driver kills are virtual-only),
/// so the iteration count is the one knob the caller supplies.
pub fn resume_case(cfg: &CampaignConfig, dir: &Path) -> JobReport {
    let iters = cfg.iterations;
    Job::resume(dir).run(move |rank, _task| {
        Box::new(CampaignTask::new(rank, iters, Duration::ZERO)) as Box<dyn Task>
    })
}

/// The fault-free reference run a case's final state is compared against.
/// Always virtual and in-process: deterministic, cheap, and — because a
/// completed run's state is a pure function of the iteration count —
/// bit-identical to what a clean wall-clock TCP run produces.
fn run_reference(cfg: &CampaignConfig, scheme: Scheme, detection: DetectionMethod) -> JobReport {
    let mut vcfg = cfg.clone();
    vcfg.transport = TransportKind::InProcess;
    // The reference never persists: journaling must not perturb it, and a
    // store is only needed where a kill can land.
    run_case(&vcfg, scheme, detection, &FaultScript::new(), None)
}

/// Classify one completed run against the fault-free reference final state.
fn classify(report: &JobReport, reference: &BTreeMap<(u8, usize), Vec<Bytes>>) -> CaseOutcome {
    if !report.completed {
        return CaseOutcome::Violation(format!(
            "no forward progress: {}",
            report.error.as_deref().unwrap_or("did not complete")
        ));
    }
    // Every injected flip either baselined by an unverified recovery ship
    // (§2.3) or injected after the last verified comparison round — the
    // two escape windows the paper concedes.
    let all_excused = !report.sdc_injected_at.is_empty()
        && report.sdc_injected_at.iter().all(|&t| {
            let baselined_by_ship = report.unverified_recoveries_at.iter().any(|&u| u >= t);
            let compared_after = report.verified_round_starts.iter().any(|&v| v > t);
            baselined_by_ship || !compared_after
        });
    if !report.replicas_agree() {
        // An SDC past the last comparison round leaves one replica's final
        // state corrupted with nothing left to compare it against — the
        // divergence itself is the conceded escape.
        return if all_excused {
            CaseOutcome::KnownEscape
        } else {
            CaseOutcome::Violation("replicas disagree at completion".into())
        };
    }
    if &report.final_states == reference {
        return if report.sdc_rounds_detected > 0 {
            CaseOutcome::Detected
        } else {
            CaseOutcome::Clean
        };
    }
    // The final state is corrupted. That is only legitimate if *every*
    // injected flip falls into one of the escape windows.
    if report.sdc_injected_at.is_empty() {
        return CaseOutcome::Violation(
            "final state differs from reference without any SDC injection".into(),
        );
    }
    if all_excused {
        CaseOutcome::KnownEscape
    } else {
        CaseOutcome::Violation(
            "silent corruption: a verified comparison round after the injection \
             failed to catch a flip that reached the final output"
                .into(),
        )
    }
}

/// Render the minimal repro artifact for one case: enough to re-run it with
/// [`replay_case`] (or by hand) without the campaign.
///
/// `timeline` is the tail of the run's flight-recorder event log; it is
/// embedded as `# ` comment lines (one JSON event per line) so the artifact
/// doubles as a crash dump while [`FaultScript::parse`] replay — which only
/// reads past the `script:` marker — stays unaffected.
#[allow(clippy::too_many_arguments)]
pub fn repro_artifact(
    cfg: &CampaignConfig,
    seed: u64,
    scheme: Scheme,
    detection: DetectionMethod,
    script: &FaultScript,
    why: &str,
    timeline: &[acr_obs::RecordedEvent],
) -> String {
    let mut s = String::new();
    s.push_str("# acr fault-campaign minimal repro\n");
    s.push_str(&format!("# violation: {why}\n"));
    if let Some(dir) = cfg.case_store_dir(scheme, detection, seed) {
        // The case's durable store (journal + slots) outlives the sweep;
        // point the investigator at it.
        s.push_str(&format!("# persist_dir: {}\n", dir.display()));
    }
    if !timeline.is_empty() {
        s.push_str(&format!(
            "# timeline: last {} flight-recorder events\n",
            timeline.len()
        ));
        for ev in timeline {
            s.push_str(&format!("# {}\n", ev.to_json()));
        }
    }
    s.push_str(&format!("seed={seed}\n"));
    s.push_str(&format!("scheme={}\n", scheme_name(scheme)));
    s.push_str(&format!("detection={}\n", detection_name(detection)));
    s.push_str(&format!("ranks={}\n", cfg.ranks));
    s.push_str(&format!("spares={}\n", cfg.spares));
    s.push_str(&format!("iterations={}\n", cfg.iterations));
    s.push_str(&format!("quantum_ms={}\n", cfg.quantum.as_millis()));
    s.push_str(&format!(
        "checkpoint_interval_ms={}\n",
        cfg.checkpoint_interval.as_millis()
    ));
    s.push_str(&format!("delta={}\n", cfg.delta_checkpoints as u8));
    s.push_str("script:\n");
    s.push_str(&script.to_repro());
    s
}

/// Run one explicit script as a campaign case (the replay path for repro
/// artifacts, where the script in the file is authoritative).
pub fn run_script_case(
    cfg: &CampaignConfig,
    seed: u64,
    scheme: Scheme,
    detection: DetectionMethod,
    script: FaultScript,
) -> CaseResult {
    let reference = run_reference(cfg, scheme, detection);
    let store = cfg.case_store_dir(scheme, detection, seed);
    let report = run_case(cfg, scheme, detection, &script, store.as_deref());
    let outcome = classify(&report, &reference.final_states);
    CaseResult {
        seed,
        scheme,
        detection,
        script,
        outcome,
        report,
    }
}

/// Re-run a single `(seed, scheme, detection)` case of a campaign, e.g.
/// when reproducing a violation artifact.
pub fn replay_case(
    cfg: &CampaignConfig,
    seed: u64,
    scheme: Scheme,
    detection: DetectionMethod,
) -> CaseResult {
    let script = FaultScript::generate(seed, &cfg.scenario_space());
    run_script_case(cfg, seed, scheme, detection, script)
}

/// Run the full campaign: `seeds × schemes`, detection cycled per seed.
///
/// Violations do not abort the sweep; they are collected (with repro
/// artifacts when `repro_dir` is set) so one bad seed still yields the full
/// campaign picture.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    type FinalStates = BTreeMap<(u8, usize), Vec<Bytes>>;
    let space = cfg.scenario_space();
    let mut out = CampaignReport::default();
    // Fault-free reference finals, per (scheme, detection) job config.
    let mut references: BTreeMap<(usize, usize), FinalStates> = BTreeMap::new();
    for (si, &seed) in cfg.seeds.iter().enumerate() {
        let detection = cfg.detections[si % cfg.detections.len()];
        let script = FaultScript::generate(seed, &space);
        for (ki, &scheme) in cfg.schemes.iter().enumerate() {
            let di = si % cfg.detections.len();
            let reference = references
                .entry((ki, di))
                .or_insert_with(|| run_reference(cfg, scheme, detection).final_states);
            let store = cfg.case_store_dir(scheme, detection, seed);
            let report = run_case(cfg, scheme, detection, &script, store.as_deref());
            let mut outcome = classify(&report, reference);
            // Wall-clock runs are not replay-deterministic by nature;
            // determinism is a virtual-time claim only. The replay reuses
            // the case's store dir (wiped on entry), so a killed case is
            // killed and resumed identically.
            if cfg.check_determinism
                && !cfg.wall_clock()
                && !matches!(outcome, CaseOutcome::Violation(_))
            {
                let replay = run_case(cfg, scheme, detection, &script, store.as_deref());
                if replay.trace != report.trace {
                    let diverged_at = replay
                        .trace
                        .iter()
                        .zip(report.trace.iter())
                        .position(|(a, b)| a != b)
                        .unwrap_or_else(|| report.trace.len().min(replay.trace.len()));
                    outcome = CaseOutcome::Violation(format!(
                        "non-deterministic replay: traces diverge at line {diverged_at}"
                    ));
                } else if acr_obs::sinks::to_jsonl(&replay.events)
                    != acr_obs::sinks::to_jsonl(&report.events)
                {
                    outcome = CaseOutcome::Violation(
                        "non-deterministic replay: flight-recorder JSONL logs differ".into(),
                    );
                }
            }
            if let CaseOutcome::Violation(why) = &outcome {
                if let Some(dir) = &cfg.repro_dir {
                    let _ = std::fs::create_dir_all(dir);
                    let path = dir.join(format!(
                        "repro_{}_{}_seed{}.txt",
                        scheme_name(scheme),
                        detection_name(detection),
                        seed
                    ));
                    let tail = report.events.len().saturating_sub(cfg.timeline_events);
                    let body = repro_artifact(
                        cfg,
                        seed,
                        scheme,
                        detection,
                        &script,
                        why,
                        &report.events[tail..],
                    );
                    if std::fs::write(&path, body).is_ok() {
                        out.artifacts.push(path);
                    }
                    // The full flight-recorder log rides alongside the
                    // minimal repro (CI uploads both on failure).
                    let jsonl = dir.join(format!(
                        "repro_{}_{}_seed{}.events.jsonl",
                        scheme_name(scheme),
                        detection_name(detection),
                        seed
                    ));
                    if std::fs::write(&jsonl, acr_obs::sinks::to_jsonl(&report.events)).is_ok() {
                        out.artifacts.push(jsonl);
                    }
                }
            }
            out.cases.push(CaseResult {
                seed,
                scheme,
                detection,
                script: script.clone(),
                outcome,
                report,
            });
        }
    }
    out
}

/// The comparable fingerprint of one case run: completion, agreement,
/// every protocol counter, the driver's text trace, and the bit-exact
/// final task states. Two runs of the same case must match on all of it.
#[allow(clippy::type_complexity)]
fn case_fingerprint(
    r: &JobReport,
) -> (
    bool,
    bool,
    usize,
    usize,
    usize,
    usize,
    usize,
    usize,
    Vec<String>,
    BTreeMap<(u8, usize), Vec<Bytes>>,
) {
    (
        r.completed,
        r.replicas_agree(),
        r.checkpoints_verified,
        r.sdc_rounds_detected,
        r.rollbacks,
        r.hard_errors_recovered,
        r.unverified_recoveries,
        r.restarts_from_beginning,
        r.trace.clone(),
        r.final_states.clone(),
    )
}

/// Differential sweep through the multi-job driver service: every case is
/// run **twice** — once alone on its own [`Job`], and once submitted to a
/// [`DriverService`] that runs two jobs at a time over one shared spare
/// pool — and each pair must agree bit for bit: same outcome tuple, same
/// driver trace, same final task states. A disagreement is reported as a
/// [`CaseOutcome::Violation`] on the case, so the existing campaign
/// tooling (tallies, CI gating) applies unchanged.
///
/// Virtual-time in-process cases only: a wall-clock TCP case is not
/// replay-deterministic (so "bit-identical" is not a meaningful claim),
/// and driver-kill scenarios need [`Job::resume`], which the service
/// rejects by design — resume owns a store, services own fresh jobs.
pub fn run_campaign_via_service(cfg: &CampaignConfig) -> Result<CampaignReport, String> {
    if cfg.wall_clock() {
        return Err("service differential requires the virtual in-process transport".into());
    }
    if cfg.driver_kill {
        return Err(
            "service differential cannot run driver-kill scenarios (resume is per-job)".into(),
        );
    }
    let space = cfg.scenario_space();
    let iters = cfg.iterations;
    let mode = ExecMode::Virtual {
        quantum: cfg.quantum,
    };

    // Two concurrent jobs drawing on one pooled spare reservation.
    let service = DriverService::start(ServiceConfig {
        max_concurrent: 2,
        spare_pool: 2 * cfg.spares,
        ..ServiceConfig::default()
    })?;

    type FinalStates = BTreeMap<(u8, usize), Vec<Bytes>>;
    let mut references: BTreeMap<(usize, usize), FinalStates> = BTreeMap::new();
    let mut out = CampaignReport::default();
    let mut pending = Vec::new();
    for (si, &seed) in cfg.seeds.iter().enumerate() {
        let detection = cfg.detections[si % cfg.detections.len()];
        let script = FaultScript::generate(seed, &space);
        for (ki, &scheme) in cfg.schemes.iter().enumerate() {
            let di = si % cfg.detections.len();
            references
                .entry((ki, di))
                .or_insert_with(|| run_reference(cfg, scheme, detection).final_states);
            // Solo run first: the same case the service job must reproduce.
            let solo_store = cfg.case_store_dir(scheme, detection, seed);
            let solo = run_case(cfg, scheme, detection, &script, solo_store.as_deref());

            let mut job_cfg = cfg.job_config(scheme, detection);
            if let Some(dir) = &solo_store {
                // A sibling store, not the solo case's: the service job
                // journals beside it, it must never write over it.
                let svc_dir = dir.with_file_name(format!(
                    "{}_svc",
                    dir.file_name().and_then(|n| n.to_str()).unwrap_or("case")
                ));
                let _ = std::fs::remove_dir_all(&svc_dir);
                job_cfg.persist_dir = Some(svc_dir);
            }
            let name = format!(
                "{}_{}_seed{}",
                scheme_name(scheme),
                detection_name(detection),
                seed
            );
            let builder = Job::new(job_cfg).with_faults(script.clone()).mode(mode);
            let handle = service
                .submit(&name, builder, move |rank, _task| {
                    Box::new(CampaignTask::new(rank, iters, Duration::ZERO)) as Box<dyn Task>
                })
                .map_err(|e| format!("admission of case {name} failed: {e}"))?;
            pending.push((
                seed,
                scheme,
                detection,
                script.clone(),
                ki,
                di,
                solo,
                handle,
            ));
        }
    }

    for (seed, scheme, detection, script, ki, di, solo, handle) in pending {
        let report = handle.wait();
        let reference = &references[&(ki, di)];
        let mut outcome = classify(&report, reference);
        if !matches!(outcome, CaseOutcome::Violation(_))
            && case_fingerprint(&report) != case_fingerprint(&solo)
        {
            outcome = CaseOutcome::Violation(
                "service/solo divergence: the same case run through the driver \
                 service did not reproduce the solo run bit for bit"
                    .into(),
            );
        }
        out.cases.push(CaseResult {
            seed,
            scheme,
            detection,
            script,
            outcome,
            report,
        });
    }
    service.shutdown();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny 2-seed campaign exercises the full runner path (generation,
    /// reference, classification, determinism replay) quickly.
    #[test]
    fn mini_campaign_has_no_violations() {
        let cfg = CampaignConfig {
            seeds: vec![0, 1],
            ..CampaignConfig::default()
        };
        let report = run_campaign(&cfg);
        assert_eq!(report.cases.len(), 2 * cfg.schemes.len());
        for case in &report.cases {
            assert!(
                !matches!(case.outcome, CaseOutcome::Violation(_)),
                "seed {} scheme {:?}: {:?}\ntrace:\n{}",
                case.seed,
                case.scheme,
                case.outcome,
                case.report.trace.join("\n"),
            );
        }
    }

    /// The same campaign machinery drives the TCP backend: scripted faults
    /// over real sockets, classified against the virtual reference. Small
    /// (2 seeds × 1 scheme) — the full 8×3 soak is a CI job.
    #[test]
    fn mini_tcp_campaign_has_no_violations() {
        let cfg = CampaignConfig {
            seeds: vec![0, 1],
            schemes: vec![Scheme::Medium],
            transport: TransportKind::Tcp(crate::transport::TcpConfig::default()),
            ..CampaignConfig::default()
        };
        let report = run_campaign(&cfg);
        assert_eq!(report.cases.len(), 2);
        for case in &report.cases {
            assert!(
                !matches!(case.outcome, CaseOutcome::Violation(_)),
                "seed {} scheme {:?}: {:?}\ntrace:\n{}",
                case.seed,
                case.scheme,
                case.outcome,
                case.report.trace.join("\n"),
            );
        }
    }

    /// Service differential: campaign cases submitted to a two-slot
    /// `DriverService` sharing one spare pool must reproduce their solo
    /// runs bit for bit (outcome tuple, trace, final states) — otherwise
    /// the runner flags the case as a violation, which this test forbids.
    #[test]
    fn mini_service_campaign_matches_solo_runs() {
        let cfg = CampaignConfig {
            seeds: vec![0, 1],
            schemes: vec![Scheme::Strong, Scheme::Medium],
            check_determinism: false,
            ..CampaignConfig::default()
        };
        let report = run_campaign_via_service(&cfg).expect("service sweep runs");
        assert_eq!(report.cases.len(), 4);
        for case in &report.cases {
            assert!(
                !matches!(case.outcome, CaseOutcome::Violation(_)),
                "seed {} scheme {:?}: {:?}\ntrace:\n{}",
                case.seed,
                case.scheme,
                case.outcome,
                case.report.trace.join("\n"),
            );
        }
    }

    /// The service differential refuses the modes where "bit-identical"
    /// is not a meaningful claim.
    #[test]
    fn service_campaign_rejects_wall_clock_and_driver_kill() {
        let tcp = CampaignConfig {
            transport: TransportKind::Tcp(crate::transport::TcpConfig::default()),
            ..CampaignConfig::default()
        };
        assert!(run_campaign_via_service(&tcp).is_err());
        let kill = CampaignConfig {
            driver_kill: true,
            persist_dir: Some(std::env::temp_dir().join("acr_svc_kill_reject")),
            ..CampaignConfig::default()
        };
        assert!(run_campaign_via_service(&kill).is_err());
    }

    #[test]
    fn repro_artifact_round_trips_script() {
        let cfg = CampaignConfig::default();
        let script = FaultScript::generate(7, &cfg.scenario_space());
        let art = repro_artifact(
            &cfg,
            7,
            Scheme::Medium,
            DetectionMethod::Checksum,
            &script,
            "test",
            &[],
        );
        let script_part = art.split("script:\n").nth(1).unwrap();
        let parsed = FaultScript::parse(script_part).unwrap();
        assert_eq!(parsed, script);
    }

    /// The embedded flight-recorder timeline rides along as comment lines:
    /// each event parses back from its `# {json}` line, and the script
    /// replay path is unaffected by their presence.
    #[test]
    fn repro_artifact_embeds_replayable_timeline() {
        let cfg = CampaignConfig::default();
        let script = FaultScript::generate(3, &cfg.scenario_space());
        let events = vec![
            acr_obs::RecordedEvent {
                seq: 0,
                t: 0.25,
                node: acr_obs::DRIVER_NODE,
                kind: acr_obs::EventKind::RoundStart { round: 1 },
            },
            acr_obs::RecordedEvent {
                seq: 1,
                t: 0.5,
                node: 2,
                kind: acr_obs::EventKind::HeartbeatExpired { dead: 5 },
            },
        ];
        let art = repro_artifact(
            &cfg,
            3,
            Scheme::Strong,
            DetectionMethod::FullCompare,
            &script,
            "test",
            &events,
        );
        let recovered: Vec<_> = art
            .lines()
            .filter_map(|l| l.strip_prefix("# {"))
            .map(|rest| acr_obs::RecordedEvent::from_json(&format!("{{{rest}")).unwrap())
            .collect();
        assert_eq!(recovered, events);
        let script_part = art.split("script:\n").nth(1).unwrap();
        assert_eq!(FaultScript::parse(script_part).unwrap(), script);
    }
}
