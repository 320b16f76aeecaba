//! Driver crash-restart battery: hard-kill the driver at scripted points,
//! resume from the durable store, and require the resumed run to finish
//! with a bit-identical outcome to the uninterrupted run. The C-01..C-04
//! cases pin the store contract — primary recovery, torn-tail healing,
//! corrupt-primary rollback, and the missing-both fail-closed guardrail —
//! end to end through `Job::resume` rather than at the persist layer.

use std::path::{Path, PathBuf};
use std::time::Duration;

use acr_obs::{Breakdown, EventKind, RunPhase};
use acr_pup::{Pup, PupResult, Puper};
use acr_runtime::campaign::{run_campaign, CampaignConfig, CaseOutcome};
use acr_runtime::{
    fold_store, AppMsg, DetectionMethod, ExecMode, FaultAction, FaultScript, Job, JobConfig,
    JobReport, Scheme, Task, TaskCtx, TaskId, Trigger,
};
use bytes::Bytes;

/// Small communicating ring (one token in flight per rank) with
/// perturbation-preserving float dynamics — the same workload the
/// virtual-time tests use, so the final state is a pure function of the
/// iteration count.
struct MiniRing {
    rank: usize,
    iter: u64,
    tokens: u64,
    acc: Vec<f64>,
    total_iters: u64,
}

impl MiniRing {
    fn new(rank: usize, total_iters: u64) -> Self {
        Self {
            rank,
            iter: 0,
            tokens: 0,
            acc: (0..32).map(|i| (rank * 100 + i) as f64).collect(),
            total_iters,
        }
    }
}

impl Task for MiniRing {
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

fn factory(rank: usize, _task: usize) -> Box<dyn Task> {
    Box::new(MiniRing::new(rank, ITERS)) as Box<dyn Task>
}

/// Per-test store directory. `ACR_CRASH_RESTART_DIR` overrides the temp
/// root so CI can upload the stores and `recovery_report.json` files left
/// behind by a failing run.
fn tmp(name: &str) -> PathBuf {
    let root =
        std::env::var_os("ACR_CRASH_RESTART_DIR").map_or_else(std::env::temp_dir, PathBuf::from);
    let dir = root.join(format!("acr_crash_restart_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Run a persisted virtual-mode job with `script` into `dir`.
fn run_persisted(scheme: Scheme, script: &FaultScript, dir: &Path) -> JobReport {
    let mut c = cfg(scheme);
    c.persist_dir = Some(dir.to_path_buf());
    Job::new(c)
        .with_faults(script.clone())
        .mode(ExecMode::virtual_default())
        .run(factory)
}

fn kill_script(at: f64) -> FaultScript {
    let mut s = FaultScript::new();
    s.push(Trigger::At(at), FaultAction::KillDriver);
    s
}

/// The comparable outcome of a run: completion, agreement, every
/// protocol counter, and the bit-exact final task states.
#[allow(clippy::type_complexity)]
fn outcome_tuple(
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
    std::collections::BTreeMap<(u8, usize), Vec<Bytes>>,
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
        r.final_states.clone(),
    )
}

fn assert_killed(report: &JobReport) {
    assert!(!report.completed);
    assert_eq!(
        report.error.as_deref(),
        Some("driver killed by scripted fault"),
        "expected a scripted kill, got {:?}\n{}",
        report.error,
        report.trace.join("\n")
    );
}

/// C-01: kill after at least one committed epoch, resume from the primary
/// slot, and finish with an outcome bit-identical to the uninterrupted
/// persisted run — counters, agreement, and final task states included.
#[test]
fn c01_kill_after_commit_resumes_from_primary_to_identical_outcome() {
    let base_dir = tmp("c01_base");
    let baseline = run_persisted(Scheme::Strong, &FaultScript::new(), &base_dir);
    assert!(baseline.completed, "baseline: {:?}", baseline.error);
    assert!(baseline.checkpoints_verified >= 2);

    let dir = tmp("c01");
    // First round lands at ~60 ms; 100 ms is mid-interval, clear of any
    // round boundary, with exactly one epoch committed.
    let killed = run_persisted(Scheme::Strong, &kill_script(0.100), &dir);
    assert_killed(&killed);

    let resumed = Job::resume(&dir).run(factory);
    assert!(
        resumed.completed,
        "resume failed: {:?}\n{}",
        resumed.error,
        resumed.trace.join("\n")
    );
    let rec = resumed.recovery.as_ref().expect("resume carries a report");
    assert_eq!(rec.source, "primary");
    assert!(rec.records_replayed > 0);
    // The only record not replayed into state is the kill's own
    // post-commit TriggerFired (kept so the resume never re-arms it).
    assert!(rec.records_skipped <= 1, "report: {rec:?}");
    assert_eq!(
        outcome_tuple(&resumed),
        outcome_tuple(&baseline),
        "resumed outcome differs from the uninterrupted run\nresumed:\n{}",
        resumed.trace.join("\n")
    );
    // The machine-readable report also landed next to the store.
    assert!(dir.join("recovery_report.json").is_file());
}

/// The journal-order contract of a persisted run, read off its flight
/// recorder (store writes are recorded in the order they were issued): no
/// slot or commit write inside a round, and every clean verdict is
/// followed by exactly its slot and its commit before the journal sees
/// another round open or the job close. A death in between drops the
/// capture. Returns the number of committed epochs.
fn assert_commits_trail_verdicts(r: &JobReport) -> usize {
    let (mut in_round, mut commits) = (false, 0);
    let mut owed: Vec<&str> = Vec::new();
    for e in &r.events {
        match &e.kind {
            EventKind::PhaseEnter { phase } => in_round = *phase == RunPhase::Round,
            EventKind::RoundVerdict { clean: true, .. } => {
                assert!(owed.is_empty(), "verdict at {} with {owed:?} owed", e.t);
                owed = vec!["commit", "slot"];
            }
            EventKind::NodeDead { .. } => owed.clear(),
            EventKind::StoreAppend { kind, .. } => match kind.as_str() {
                "slot" | "commit" => {
                    assert!(!in_round, "{kind} written at {} with the round held", e.t);
                    assert_eq!(owed.pop(), Some(kind.as_str()), "stray {kind} at {}", e.t);
                    commits += usize::from(kind == "commit");
                }
                "round" | "closed" => assert!(
                    owed.is_empty(),
                    "`{kind}` journaled at {} ahead of the commit it should follow",
                    e.t
                ),
                _ => {}
            },
            _ => {}
        }
    }
    assert!(owed.is_empty(), "run ended with {owed:?} owed");
    commits
}

/// Value of counter `name` in a report's metrics exposition (0 if absent).
fn counter(r: &JobReport, name: &str) -> u64 {
    r.metrics
        .lines()
        .find(|l| l.starts_with(name))
        .and_then(|l| l.rsplit(' ').next()?.parse().ok())
        .unwrap_or(0)
}

/// Job-clock time of round `round`'s verdict.
fn verdict_time(r: &JobReport, round: u64) -> f64 {
    r.events
        .iter()
        .find(|e| matches!(e.kind, EventKind::RoundVerdict { round: n, .. } if n == round))
        .map(|e| e.t)
        .expect("round reached a verdict")
}

/// A clean epoch costs two fsyncs — the slot's and the commit's — and the
/// application waits for neither: both are issued after the round is
/// released, and the round's opening record rides the next fsync.
#[test]
fn a_clean_epoch_is_two_fsyncs_both_behind_the_verdict() {
    let dir = tmp("fsyncs");
    let r = run_persisted(Scheme::Strong, &FaultScript::new(), &dir);
    assert!(r.completed, "{:?}", r.error);
    let epochs = assert_commits_trail_verdicts(&r);
    assert!(epochs >= 2);
    assert_eq!(epochs, r.checkpoints_verified);
    // Admission and close, then round + slot + commit per epoch, of which
    // the round record is the one write without an fsync of its own.
    let b = Breakdown::from_events(&r.events);
    assert_eq!(b.store_appends as usize, 2 + 3 * epochs);
    assert_eq!(b.store_fsyncs as usize, 2 + 2 * epochs);
    assert_eq!(counter(&r, "acr_store_fsyncs_total"), b.store_fsyncs);
    assert_eq!(counter(&r, "acr_store_appends_total"), b.store_appends);
    assert_eq!(counter(&r, "acr_store_captures_abandoned_total"), 0);
    // What reached the slots is the line each verdict was about, not
    // whatever the tasks had computed by the time it was written.
    let slots = acr_store::SlotStore::new(&dir);
    for epoch in [epochs - 1, epochs] {
        let data = slots.read(((epoch - 1) % 2) as u8).expect("slot reads");
        assert_eq!(data.epoch as usize, epoch);
        let line = format!("round {epoch} verified iter={}", data.entries[0].iteration);
        assert!(r.trace.iter().any(|l| l.ends_with(&line)), "no `{line}`");
        assert!(data
            .entries
            .iter()
            .all(|e| e.iteration == data.entries[0].iteration));
    }
}

/// C-01 inside the capture window: the kill lands after round 2 is
/// released and before its `EpochCommit` is journaled. Disk keeps epoch 1,
/// the store folds to an abandoned round 2, and the resumed run finishes
/// bit-identical to the uninterrupted one.
#[test]
fn c01_kill_inside_the_capture_window_resumes_from_the_previous_epoch() {
    let base_dir = tmp("c01w_base");
    let baseline = run_persisted(Scheme::Strong, &FaultScript::new(), &base_dir);
    assert!(baseline.completed, "baseline: {:?}", baseline.error);

    let dir = tmp("c01w");
    // The policy pass that follows round 2's verdict runs at the verdict's
    // own clock reading, with the capture pending.
    let killed = run_persisted(
        Scheme::Strong,
        &kill_script(verdict_time(&baseline, 2)),
        &dir,
    );
    assert_killed(&killed);
    assert_eq!(
        killed.checkpoints_verified, 2,
        "round 2 verified, then the kill"
    );
    assert_eq!(commits_journaled(&killed), 1);
    let model = fold_store(&dir).expect("fold the killed store");
    assert_eq!(model.committed_round(), Some(1));
    assert_eq!(model.abandoned_round(), Some(2));

    let resumed = Job::resume(&dir).run(factory);
    assert!(
        resumed.completed,
        "resume failed: {:?}\n{}",
        resumed.error,
        resumed.trace.join("\n")
    );
    let rec = resumed.recovery.as_ref().expect("resume carries a report");
    assert_eq!((rec.source.as_str(), rec.epoch), ("primary", 1));
    assert_eq!(
        outcome_tuple(&resumed),
        outcome_tuple(&baseline),
        "resumed outcome differs from the uninterrupted run\nresumed:\n{}",
        resumed.trace.join("\n")
    );
}

/// `EpochCommit` records a run journaled.
fn commits_journaled(r: &JobReport) -> usize {
    r.events
        .iter()
        .filter(|e| matches!(&e.kind, EventKind::StoreAppend { kind, .. } if kind == "commit"))
        .count()
}

/// A crash that lands in the capture window: the victim goes silent one
/// quantum before round 2's verdict, so its `VerifiedState` never comes.
/// The capture stays pending until the death is declared, is abandoned
/// there (disk keeps epoch 1), and recovery proceeds; a driver kill right
/// after leaves a store that folds to epoch 1 with round 2 abandoned and
/// resumes to the same outcome as the run nobody killed.
#[test]
fn crash_inside_the_capture_window_abandons_the_epoch_and_recovers() {
    let base_dir = tmp("window_crash_base");
    let baseline = run_persisted(Scheme::Strong, &FaultScript::new(), &base_dir);
    let ExecMode::Virtual { quantum } = ExecMode::virtual_default() else {
        unreachable!()
    };
    let mut script = FaultScript::new();
    script.push(
        Trigger::At(verdict_time(&baseline, 2) - quantum.as_secs_f64()),
        FaultAction::Crash {
            replica: 1,
            rank: 0,
        },
    );
    let crash_dir = tmp("window_crash");
    let crashed = run_persisted(Scheme::Strong, &script, &crash_dir);
    assert!(crashed.completed, "{:?}", crashed.error);
    let trace = crashed.trace.join("\n");
    assert!(
        trace.contains("epoch 2 capture abandoned"),
        "the crash missed the window:\n{trace}"
    );
    assert!(!trace.contains("epoch 2 committed"), "{trace}");
    assert_eq!(counter(&crashed, "acr_store_captures_abandoned_total"), 1);
    assert_eq!(crashed.hard_errors_recovered, 1);
    assert!(crashed.replicas_agree());
    assert_eq!(crashed.final_states, baseline.final_states);
    assert_commits_trail_verdicts(&crashed);

    // The same run with the driver killed just after the death.
    let dead_at = crashed
        .events
        .iter()
        .find(|e| matches!(e.kind, EventKind::NodeDead { .. }))
        .map(|e| e.t)
        .expect("the death was declared");
    script.push(
        Trigger::At(dead_at + 2.0 * quantum.as_secs_f64()),
        FaultAction::KillDriver,
    );
    let dir = tmp("window_crash_kill");
    assert_killed(&run_persisted(Scheme::Strong, &script, &dir));
    let model = fold_store(&dir).expect("fold the killed store");
    assert_eq!(model.committed_round(), Some(1));
    assert_eq!(model.abandoned_round(), Some(2));
    let resumed = Job::resume(&dir).run(factory);
    assert!(
        resumed.completed,
        "resume failed: {:?}\n{}",
        resumed.error,
        resumed.trace.join("\n")
    );
    assert_eq!(resumed.recovery.as_ref().map(|r| r.epoch), Some(1));
    assert_eq!(outcome_tuple(&resumed), outcome_tuple(&crashed));
}

/// Nothing overtakes a pending commit in the journal: with a checkpoint
/// interval shorter than a capture the next `RoundOpened` waits for it,
/// and so does `JobClosed` when the tasks are done before it lands — a
/// replica that a crash rolled back catches up *inside* the last round,
/// so that round's verdict already finds every task finished. A scripted
/// fault that falls due in the window holds fire the same way.
#[test]
fn the_next_round_and_the_job_close_wait_for_the_commit() {
    let mut eager = cfg(Scheme::Strong);
    eager.checkpoint_interval = Duration::ZERO;
    let dir = tmp("eager_rounds");
    eager.persist_dir = Some(dir);
    let r = Job::new(eager)
        .mode(ExecMode::virtual_default())
        .run(factory);
    assert!(r.completed, "{:?}", r.error);
    assert_eq!(assert_commits_trail_verdicts(&r), r.checkpoints_verified);

    let mut script = FaultScript::new();
    script.push(
        Trigger::AtIteration(2 * ITERS / 3),
        FaultAction::Crash {
            replica: 1,
            rank: 0,
        },
    );
    let r = run_persisted(Scheme::Strong, &script, &tmp("done_in_round"));
    assert!(r.completed, "{:?}", r.error);
    let last = format!("verified iter={ITERS}");
    assert!(
        r.trace.iter().any(|l| l.ends_with(&last)),
        "no round ended on the final iteration:\n{}",
        r.trace.join("\n")
    );
    assert_eq!(assert_commits_trail_verdicts(&r), r.checkpoints_verified);

    let baseline = run_persisted(Scheme::Strong, &FaultScript::new(), &tmp("hold_base"));
    let mut script = FaultScript::new();
    script.push(
        Trigger::At(verdict_time(&baseline, 2)),
        FaultAction::Crash {
            replica: 0,
            rank: 1,
        },
    );
    let r = run_persisted(Scheme::Strong, &script, &tmp("hold_fire"));
    assert!(r.completed, "{:?}", r.error);
    let journal: Vec<&str> = r
        .events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::StoreAppend { kind, .. } => Some(kind.as_str()),
            _ => None,
        })
        .collect();
    assert_eq!(
        journal[..9],
        ["admit", "round", "slot", "commit", "round", "slot", "commit", "trigger", "dead"],
        "the crash fired ahead of epoch 2's commit"
    );
}

/// Both members of buddy pair 0 crash two iterations apart, inside one
/// heartbeat timeout: the liveness probe finds them together, the strong
/// recovery of the first collapses, and no in-memory copy of rank 0 is
/// left (§2.3's catastrophic case).
fn buddy_pair_script() -> FaultScript {
    let mut s = FaultScript::new();
    s.push(
        Trigger::AtIteration(150),
        FaultAction::Crash {
            replica: 0,
            rank: 0,
        },
    );
    s.push(
        Trigger::AtIteration(152),
        FaultAction::Crash {
            replica: 1,
            rank: 0,
        },
    );
    s
}

/// Iterations of a run's `GlobalRestart` events.
fn global_restarts(r: &JobReport) -> Vec<u64> {
    r.events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::GlobalRestart { iteration } => Some(iteration),
            _ => None,
        })
        .collect()
}

/// Iteration of the last epoch a run committed before job-clock time `t`:
/// each commit follows its clean verdict (`assert_commits_trail_verdicts`).
fn committed_iteration_before(r: &JobReport, t: f64) -> Option<u64> {
    let (mut verdict, mut committed) = (None, None);
    for e in r.events.iter().take_while(|e| e.t < t) {
        match &e.kind {
            EventKind::RoundVerdict {
                iteration,
                clean: true,
                ..
            } => verdict = Some(*iteration),
            EventKind::StoreAppend { kind, .. } if kind == "commit" => committed = verdict,
            _ => {}
        }
    }
    committed
}

/// With a durable store, losing a whole buddy pair restarts the job from
/// the newest committed epoch, not from iteration 0: both crashes are
/// recovered onto spares, the one whole-job restart carries the last
/// committed iteration, and the finals are those of the undisturbed run.
/// Without a store the same script restarts from the beginning — epoch 0
/// — to the same finals.
#[test]
fn a_lost_buddy_pair_restarts_from_the_newest_committed_epoch() {
    let baseline = run_persisted(Scheme::Strong, &FaultScript::new(), &tmp("pair_base"));
    assert!(baseline.completed, "baseline: {:?}", baseline.error);

    let r = run_persisted(Scheme::Strong, &buddy_pair_script(), &tmp("pair"));
    let trace = r.trace.join("\n");
    assert!(r.completed, "{:?}\n{trace}", r.error);
    assert_eq!(r.crashes_injected_at.len(), 2, "{trace}");
    assert_eq!(r.restarts_from_beginning, 0, "{trace}");
    assert_eq!(r.hard_errors_recovered, 2, "{trace}");
    let committed = committed_iteration_before(&r, r.crashes_injected_at[0]);
    assert_eq!(committed, Some(120), "{trace}");
    assert_eq!(global_restarts(&r), vec![120], "{trace}");
    assert_eq!(counter(&r, "acr_global_restarts_total"), 1);
    assert!(r.replicas_agree());
    assert_eq!(r.final_states, baseline.final_states);
    assert_commits_trail_verdicts(&r);

    // The no-store twin: epoch 0.
    let twin = Job::new(cfg(Scheme::Strong))
        .with_faults(buddy_pair_script())
        .mode(ExecMode::virtual_default())
        .run(factory);
    let trace = twin.trace.join("\n");
    assert!(twin.completed, "{:?}\n{trace}", twin.error);
    assert_eq!(twin.restarts_from_beginning, 1, "{trace}");
    assert_eq!(twin.hard_errors_recovered, 2, "{trace}");
    assert_eq!(global_restarts(&twin), vec![0], "{trace}");
    assert_eq!(twin.final_states, baseline.final_states);
}

/// A journal that holds an in-job restore resumes like any other. The
/// driver is killed after the buddy pair's restart from the newest epoch:
/// at 0.35 s before the next commit, so the resume starts from the very
/// epoch the restore installed and replays the crashes; at 0.40 s after
/// it, so the resume replays the promotions. Either way the resumed run
/// finishes with the outcome of the run nobody killed.
#[test]
fn a_kill_after_an_in_job_restore_resumes_to_the_same_outcome() {
    let unkilled = run_persisted(Scheme::Strong, &buddy_pair_script(), &tmp("restore_base"));
    assert!(unkilled.completed, "{:?}", unkilled.error);
    let restored_at = unkilled
        .events
        .iter()
        .find(|e| matches!(e.kind, EventKind::GlobalRestart { .. }))
        .map(|e| e.t)
        .expect("the pair's loss restarted the job");

    for (kill_at, epoch) in [(0.35, 120), (0.40, 181)] {
        assert!(restored_at < kill_at, "restore at {restored_at}");
        let mut script = buddy_pair_script();
        script.push(Trigger::At(kill_at), FaultAction::KillDriver);
        let dir = tmp(&format!("restore_kill_{kill_at}"));
        let killed = run_persisted(Scheme::Strong, &script, &dir);
        assert_killed(&killed);
        assert_eq!(global_restarts(&killed), vec![120]);

        let resumed = Job::resume(&dir).run(factory);
        assert!(
            resumed.completed,
            "resume failed: {:?}\n{}",
            resumed.error,
            resumed.trace.join("\n")
        );
        assert_eq!(resumed.recovery.as_ref().map(|r| r.iteration), Some(epoch));
        assert_eq!(
            outcome_tuple(&resumed),
            outcome_tuple(&unkilled),
            "kill at {kill_at}: resumed outcome differs from the run nobody killed\nresumed:\n{}",
            resumed.trace.join("\n")
        );
    }
}

/// C-02: a torn tail append (power loss mid-write) must be skipped by the
/// self-healing reader, reported in the recovery report, and must not
/// prevent a successful resume.
#[test]
fn c02_torn_tail_is_skipped_and_resume_succeeds() {
    let dir = tmp("c02");
    let killed = run_persisted(Scheme::Strong, &kill_script(0.100), &dir);
    assert_killed(&killed);

    // Simulate a torn append: a record header that promises more payload
    // than was ever written.
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(dir.join("events.log"))
        .unwrap();
    f.write_all(b"ACRE\x40\x00\x00\x00torn").unwrap();
    drop(f);

    let resumed = Job::resume(&dir).run(factory);
    assert!(
        resumed.completed,
        "resume failed: {:?}\n{}",
        resumed.error,
        resumed.trace.join("\n")
    );
    let rec = resumed.recovery.as_ref().expect("resume carries a report");
    assert!(rec.bytes_skipped > 0, "torn tail went unreported: {rec:?}");
    assert!(resumed.replicas_agree());
}

/// C-03: with two committed epochs the slots alternate; corrupting the
/// primary slot must fall back to the rollback slot — an older but valid
/// epoch — and still finish correctly.
#[test]
fn c03_corrupt_primary_falls_back_to_rollback_slot() {
    let dir = tmp("c03");
    // ~160 ms: two rounds (~60, ~120 ms) have committed, one per slot.
    let killed = run_persisted(Scheme::Strong, &kill_script(0.160), &dir);
    assert_killed(&killed);

    // The newest commit lives in slot B (second commit); flip a byte in
    // whichever slot file the journal names last by corrupting both
    // candidates' newest: slot 1 holds commit #2.
    let path = dir.join("ckpt_b.slot");
    let mut bytes = std::fs::read(&path).expect("slot B exists after two commits");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&path, bytes).unwrap();

    let resumed = Job::resume(&dir).run(factory);
    assert!(
        resumed.completed,
        "resume failed: {:?}\n{}",
        resumed.error,
        resumed.trace.join("\n")
    );
    let rec = resumed.recovery.as_ref().expect("resume carries a report");
    assert_eq!(rec.source, "rollback", "diagnostics: {:?}", rec.diagnostics);
    assert!(resumed.replicas_agree());

    // Bit-identical to the uninterrupted run regardless of the rollback:
    // the final state is a pure function of the iteration count.
    let base_dir = tmp("c03_base");
    let baseline = run_persisted(Scheme::Strong, &FaultScript::new(), &base_dir);
    assert_eq!(resumed.final_states, baseline.final_states);
}

/// C-04: both slots gone after a commit — resume must fail closed with a
/// diagnosis, never guess at state, and still write the machine-readable
/// recovery report.
#[test]
fn c04_missing_both_slots_fails_closed() {
    let dir = tmp("c04");
    let killed = run_persisted(Scheme::Strong, &kill_script(0.100), &dir);
    assert_killed(&killed);

    let _ = std::fs::remove_file(dir.join("ckpt_a.slot"));
    let _ = std::fs::remove_file(dir.join("ckpt_b.slot"));

    let resumed = Job::resume(&dir).run(factory);
    assert!(!resumed.completed);
    let err = resumed.error.as_deref().expect("fail-closed error");
    assert!(
        err.contains("refusing to resume"),
        "unexpected error: {err}"
    );
    let rec = resumed.recovery.as_ref().expect("failure carries a report");
    assert_eq!(rec.source, "failed");
    assert!(!rec.diagnostics.is_empty());
    assert!(resumed.final_states.is_empty(), "no state may be invented");
    assert!(dir.join("recovery_report.json").is_file());
}

/// A kill before the first commit resumes with no checkpoint: the job
/// restarts from its initial state under the journaled script filter and
/// still finishes identically.
#[test]
fn kill_before_first_commit_restarts_from_initial_state() {
    let dir = tmp("precommit");
    // First round opens at ~60 ms; 30 ms is before any commit.
    let killed = run_persisted(Scheme::Strong, &kill_script(0.030), &dir);
    assert_killed(&killed);

    let resumed = Job::resume(&dir).run(factory);
    assert!(
        resumed.completed,
        "resume failed: {:?}\n{}",
        resumed.error,
        resumed.trace.join("\n")
    );
    assert_eq!(resumed.recovery.as_ref().unwrap().source, "none");
    assert!(resumed.replicas_agree());

    let base_dir = tmp("precommit_base");
    let baseline = run_persisted(Scheme::Strong, &FaultScript::new(), &base_dir);
    assert_eq!(resumed.final_states, baseline.final_states);
}

/// A killed-and-resumed run is itself deterministic: the whole
/// kill → resume pipeline replayed from scratch produces byte-identical
/// resumed traces and final states.
#[test]
fn kill_resume_pipeline_is_deterministic() {
    let mut traces = Vec::new();
    let mut finals = Vec::new();
    for pass in 0..2 {
        let dir = tmp(&format!("det{pass}"));
        let killed = run_persisted(Scheme::Medium, &kill_script(0.100), &dir);
        assert_killed(&killed);
        let resumed = Job::resume(&dir).run(factory);
        assert!(resumed.completed, "pass {pass}: {:?}", resumed.error);
        traces.push(resumed.trace);
        finals.push(resumed.final_states);
    }
    assert_eq!(traces[0], traces[1], "resumed replay diverged");
    assert_eq!(finals[0], finals[1]);
}

/// A kill landing *between* a node death and the next commit: the resumed
/// driver must replay the journaled promotion (or run the recovery itself)
/// and still finish with both replicas agreeing.
#[test]
fn kill_after_crash_recovery_resumes_promotion() {
    let dir = tmp("promo");
    let mut script = kill_script(0.200);
    // Crash at an iteration close to mid-run; the recovery promotes a
    // spare and a later round commits the post-promotion epoch before the
    // kill lands.
    script.push(
        Trigger::AtIteration(ITERS / 4),
        FaultAction::Crash {
            replica: 1,
            rank: 0,
        },
    );
    let killed = run_persisted(Scheme::Strong, &script, &dir);
    assert_killed(&killed);
    assert_eq!(
        killed.hard_errors_recovered,
        1,
        "{}",
        killed.trace.join("\n")
    );

    let resumed = Job::resume(&dir).run(factory);
    assert!(
        resumed.completed,
        "resume failed: {:?}\n{}",
        resumed.error,
        resumed.trace.join("\n")
    );
    assert!(resumed.replicas_agree());
    // The journal's promotion replayed into the resumed counters.
    assert_eq!(resumed.hard_errors_recovered, 1);
    assert_eq!(resumed.final_states.len(), 4);
}

/// Satellite sweep: 8 seeds × 3 schemes of generated scenarios with the
/// driver-kill trigger armed. Every killed case is resumed from its store
/// and the resumed outcome classified against the fault-free reference —
/// no violations allowed, and at least one scenario must actually kill.
#[test]
fn driver_kill_campaign_sweep_survives_restart() {
    let root = tmp("campaign");
    let cfg = CampaignConfig {
        seeds: (0..8).collect(),
        driver_kill: true,
        persist_dir: Some(root.clone()),
        repro_dir: Some(root.join("repros")),
        ..CampaignConfig::default()
    };
    let report = run_campaign(&cfg);
    assert_eq!(report.cases.len(), 8 * cfg.schemes.len());
    let mut kills = 0;
    for case in &report.cases {
        assert!(
            !matches!(case.outcome, CaseOutcome::Violation(_)),
            "seed {} scheme {:?}: {:?}\ntrace:\n{}",
            case.seed,
            case.scheme,
            case.outcome,
            case.report.trace.join("\n"),
        );
        if case.report.recovery.is_some() {
            kills += 1;
        }
    }
    assert!(
        kills > 0,
        "no scenario ever killed the driver; the sweep proved nothing"
    );
}

// ---------------------------------------------------------------------------
// Multi-job store isolation (service layout)
// ---------------------------------------------------------------------------

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Service-layout isolation: `Job::resume` on job A is **byte-
    /// identical** — journal bytes and full outcome tuple — whether or
    /// not job B's store sits beside it under the same `jobs/` root. The
    /// kill lands mid-interval (`60·round + offset` ms, clear of round
    /// boundaries) so at least one epoch is always committed, and the
    /// sibling job is itself either completed or killed.
    #[test]
    fn resume_is_byte_identical_beside_sibling_job_store(
        round in 1u64..3,
        offset_ms in 15u64..50,
        sibling_killed in any::<bool>(),
    ) {
        let kill_at = (round * 60 + offset_ms) as f64 / 1000.0;
        let tag = format!("iso_{round}_{offset_ms}_{sibling_killed}");

        // Root 1: job A alone.
        let solo_root = tmp(&format!("{tag}_solo"));
        let a_solo = acr_store::job_store_dir(&solo_root, 1, "job-a");
        let killed = run_persisted(Scheme::Strong, &kill_script(kill_at), &a_solo);
        assert_killed(&killed);
        let resumed_solo = Job::resume(&a_solo).run(factory);
        prop_assert!(
            resumed_solo.completed,
            "solo resume failed: {:?}",
            resumed_solo.error
        );

        // Root 2: job B's store is written first, then job A runs and
        // resumes beside it.
        let shared_root = tmp(&format!("{tag}_shared"));
        let b_dir = acr_store::job_store_dir(&shared_root, 2, "job-b");
        let b_script = if sibling_killed {
            kill_script(0.100)
        } else {
            FaultScript::new()
        };
        let _sibling = run_persisted(Scheme::Strong, &b_script, &b_dir);
        let a_shared = acr_store::job_store_dir(&shared_root, 1, "job-a");
        let killed2 = run_persisted(Scheme::Strong, &kill_script(kill_at), &a_shared);
        assert_killed(&killed2);
        let resumed_shared = Job::resume(&a_shared).run(factory);
        prop_assert!(
            resumed_shared.completed,
            "shared resume failed: {:?}",
            resumed_shared.error
        );

        prop_assert_eq!(
            outcome_tuple(&resumed_shared),
            outcome_tuple(&resumed_solo),
            "sibling store changed job A's resumed outcome"
        );
        prop_assert_eq!(
            std::fs::read(a_solo.join("events.log")).unwrap(),
            std::fs::read(a_shared.join("events.log")).unwrap(),
            "sibling store changed job A's journal bytes"
        );
        let _ = std::fs::remove_dir_all(&solo_root);
        let _ = std::fs::remove_dir_all(&shared_root);
    }
}
