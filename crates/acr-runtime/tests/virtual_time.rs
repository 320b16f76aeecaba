//! Virtual-time runtime tests: determinism of scripted runs, scripted
//! trigger kinds, and the heartbeat failure detector's behaviour around its
//! timeout boundary — the regressions only a simulated clock can pin down.

use std::time::Duration;

use acr_obs::EventKind;
use acr_pup::{Pup, PupResult, Puper};
use acr_runtime::{
    AppMsg, DetectionMethod, ExecMode, FaultAction, FaultScript, Job, JobConfig, JobReport, Scheme,
    Task, TaskCtx, TaskId, Trigger,
};

/// Small communicating ring (one token in flight per rank) with
/// perturbation-preserving float dynamics.
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

fn run(scheme: Scheme, script: &FaultScript) -> JobReport {
    Job::new(cfg(scheme))
        .with_faults(script.clone())
        .mode(ExecMode::virtual_default())
        .run(|rank, _| Box::new(MiniRing::new(rank, ITERS)) as Box<dyn Task>)
}

fn trace_has(report: &JobReport, needle: &str) -> bool {
    report.trace.iter().any(|l| l.contains(needle))
}

#[test]
fn fault_free_virtual_run_completes_deterministically() {
    let a = run(Scheme::Strong, &FaultScript::new());
    let b = run(Scheme::Strong, &FaultScript::new());
    assert!(a.completed, "error: {:?}\n{}", a.error, a.trace.join("\n"));
    assert!(a.checkpoints_verified >= 1);
    assert!(a.replicas_agree());
    assert_eq!(a.trace, b.trace, "virtual runs must be byte-identical");
    assert_eq!(a.final_states, b.final_states);
    assert_eq!(a.duration, b.duration);
}

/// The acceptance determinism check: a non-trivial generated scenario,
/// executed twice, produces byte-identical event traces and final states.
#[test]
fn scripted_virtual_run_replays_byte_identically() {
    let space = acr_runtime::ScenarioSpace {
        ranks: 2,
        spares: 2,
        horizon: 0.3,
        max_iteration: ITERS,
        heartbeat_timeout: 0.040,
        max_faults: 3,
        sdc_bits_max: 3,
        allow_spare_kill: true,
        allow_heartbeat_delay: true,
        allow_driver_kill: false,
    };
    for seed in [3u64, 11, 19] {
        let script = FaultScript::generate(seed, &space);
        let a = run(Scheme::Medium, &script);
        let b = run(Scheme::Medium, &script);
        assert_eq!(
            a.trace,
            b.trace,
            "seed {seed}: replay diverged\nscript:\n{}",
            script.to_repro()
        );
        assert_eq!(a.final_states, b.final_states, "seed {seed}");
    }
}

/// Regression (heartbeat false positive): a buddy whose heartbeats stall
/// for *less* than `heartbeat_timeout` is slow-but-alive and must never be
/// declared dead. Only virtual time can place the stall exactly.
#[test]
fn heartbeat_stall_inside_timeout_is_not_a_death() {
    let mut script = FaultScript::new();
    // Timeout is 40 ms; stall 30 ms, so worst-case silence is
    // 30 ms + one 5 ms period — strictly inside the timeout.
    script.push(
        Trigger::At(0.050),
        FaultAction::DelayHeartbeats {
            replica: 1,
            rank: 1,
            secs: 0.030,
        },
    );
    let report = run(Scheme::Strong, &script);
    assert!(
        report.completed,
        "error: {:?}\n{}",
        report.error,
        report.trace.join("\n")
    );
    assert_eq!(
        report.hard_errors_recovered,
        0,
        "false positive: a live node was declared dead\n{}",
        report.trace.join("\n")
    );
    assert!(!trace_has(&report, "declared dead"));
    assert!(report.replicas_agree());
}

/// The mirror case: a stall *longer* than the timeout is (correctly, per
/// §6.1's no-response definition) declared dead even though the node is
/// still running. The runtime must survive the resulting zombie: promote a
/// spare, keep the zombie's stale messages out (rollback epochs), and ignore
/// its final state at shutdown.
#[test]
fn heartbeat_stall_past_timeout_promotes_spare_despite_zombie() {
    let mut script = FaultScript::new();
    script.push(
        Trigger::At(0.050),
        FaultAction::DelayHeartbeats {
            replica: 0,
            rank: 0,
            secs: 0.200,
        },
    );
    let report = run(Scheme::Strong, &script);
    assert!(
        report.completed,
        "error: {:?}\n{}",
        report.error,
        report.trace.join("\n")
    );
    assert_eq!(
        report.hard_errors_recovered,
        1,
        "{}",
        report.trace.join("\n")
    );
    assert!(trace_has(&report, "declared dead"));
    assert!(report.replicas_agree(), "zombie state leaked into the run");
    // Every (replica, rank) must be accounted for by live nodes.
    assert_eq!(report.final_states.len(), 4);
}

/// Iteration-anchored crash: the script names app progress, not a clock
/// time, and recovery still runs (strong scheme re-executes from the last
/// verified checkpoint).
#[test]
fn crash_at_iteration_trigger_recovers() {
    let mut script = FaultScript::new();
    script.push(
        Trigger::AtIteration(ITERS / 3),
        FaultAction::Crash {
            replica: 1,
            rank: 0,
        },
    );
    let report = run(Scheme::Strong, &script);
    assert!(
        report.completed,
        "error: {:?}\n{}",
        report.error,
        report.trace.join("\n")
    );
    assert_eq!(report.crashes_injected_at.len(), 1);
    assert_eq!(report.hard_errors_recovered, 1);
    assert!(report.replicas_agree());
}

/// Checkpoint-anchored SDC: the flip lands right after the second verified
/// round, and the next comparison must catch it (strong scheme, so no
/// escape window exists).
#[test]
fn sdc_after_checkpoints_trigger_is_detected_and_purged() {
    let mut script = FaultScript::new();
    script.push(
        Trigger::AfterCheckpoints(2),
        FaultAction::Sdc {
            replica: 0,
            rank: 1,
            seed: 42,
            bits: 2,
        },
    );
    let report = run(Scheme::Strong, &script);
    assert!(
        report.completed,
        "error: {:?}\n{}",
        report.error,
        report.trace.join("\n")
    );
    assert_eq!(report.sdc_injected_at.len(), 1);
    assert!(
        report.sdc_rounds_detected >= 1,
        "SDC escaped the comparison\n{}",
        report.trace.join("\n")
    );
    assert!(report.rollbacks >= 1);
    assert!(report.replicas_agree());
}

/// A crash arriving before the first verified checkpoint recovers by its
/// scheme from the initial state, epoch 0, a line like any verified
/// checkpoint: strong restarts only the crashed replica from it, medium and
/// weak ship the healthy replica's state. The job never restarts, and
/// under virtual time this is exact, not racy. In a one-rank replica a
/// strong recovery waits on nothing — the spare already holds the initial
/// state and no survivor rolls back — so it must complete at once.
#[test]
fn early_crash_recovers_from_epoch_0_virtually() {
    let cases = Scheme::ALL.map(|s| (s, 2)).into_iter();
    for (scheme, ranks) in cases.chain([(Scheme::Strong, 1)]) {
        let mut config = cfg(scheme);
        config.ranks = ranks;
        let mut script = FaultScript::new();
        script.push(
            Trigger::At(0.010),
            FaultAction::Crash {
                replica: 0,
                rank: ranks - 1,
            },
        );
        let report = Job::new(config)
            .with_faults(script)
            .mode(ExecMode::virtual_default())
            .run(|rank, _| Box::new(MiniRing::new(rank, ITERS)) as Box<dyn Task>);
        let case = format!("{scheme:?} ranks={ranks}");
        assert!(
            report.completed,
            "{case} error: {:?}\n{}",
            report.error,
            report.trace.join("\n")
        );
        assert_eq!(report.crashes_injected_at.len(), 1, "{case}");
        assert_eq!(report.restarts_from_beginning, 0, "{case}");
        assert_eq!(report.hard_errors_recovered, 1, "{case}");
        let unverified = usize::from(scheme != Scheme::Strong);
        assert_eq!(report.unverified_recoveries, unverified, "{case}");
        assert!(report.replicas_agree(), "{case}");
        // The event reports the plan the driver executed: from epoch 0,
        // strong sends nothing across replicas, a ship one per rank.
        let shipped = report.events.iter().find_map(|e| match e.kind {
            EventKind::RecoveryPlan {
                inter_replica_messages,
                ..
            } => Some(inter_replica_messages as usize),
            _ => None,
        });
        assert_eq!(shipped, Some(unverified * ranks), "{case}");
        if ranks == 1 {
            let at = |needle: &str| {
                let line = report.trace.iter().find(|l| l.contains(needle));
                line.and_then(|l| l.split_whitespace().next())
                    .map(str::to_owned)
            };
            let started = at("recovery start");
            assert!(started.is_some(), "{case}");
            assert_eq!(started, at("recovery complete"), "{case}");
        }
    }
}

/// A crash inside a round, after the tasks checkpointed but before the
/// verdict, aborts the round and leaves its checkpoints tentative. A strong
/// recovery must not promote them: the healthy replica's tentative holds a
/// flip injected just before the round, and if it became the rollback
/// target, the rollback after the flip's detection would restore it, and
/// the job would never finish. Swept across the round, with a line (round
/// 2, 0.126–0.132 s when undisturbed) and from epoch 0 (round 1,
/// 0.060–0.066 s).
#[test]
fn strong_recovery_never_promotes_an_aborted_round() {
    for (round_at, sdc_at) in [(0.126, 0.110), (0.060, 0.050)] {
        for ms in 0..7 {
            let crash_at = round_at + f64::from(ms) * 0.001;
            let mut script = FaultScript::new();
            script.push(
                Trigger::At(sdc_at),
                FaultAction::Sdc {
                    replica: 1,
                    rank: 0,
                    seed: 3,
                    bits: 1,
                },
            );
            script.push(
                Trigger::At(crash_at),
                FaultAction::Crash {
                    replica: 0,
                    rank: 1,
                },
            );
            let report = run(Scheme::Strong, &script);
            assert!(
                report.completed,
                "crash at {crash_at}: {:?}\n{}",
                report.error,
                report.trace.join("\n")
            );
            assert_eq!(report.restarts_from_beginning, 0, "crash at {crash_at}");
            assert!(report.replicas_agree(), "crash at {crash_at}");
        }
    }
}
