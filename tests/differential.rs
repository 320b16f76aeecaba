//! Differential check: the same fault scenario driven through the analytic
//! timeline simulator (`acr-sim`) and the real message-passing runtime
//! (`acr-runtime` under virtual time) must agree on the protocol-level
//! counts — checkpoints, rollbacks, restarts — per recovery scheme.
//!
//! The two engines share nothing but the paper's protocol (§2), so count
//! agreement is evidence both implement the *same* protocol rather than
//! two plausible variants of it. The sim runs with a pinned `CostProfile`
//! whose δ is calibrated from fault-free virtual runtime runs, so both
//! engines see the same checkpoint cadence.

use std::time::Duration;

use acr::fault::{FailureTrace, FaultKind, TraceEvent};
use acr::runtime::{
    AppMsg, DetectionMethod, ExecMode, FaultAction, FaultScript, Job, JobConfig, JobReport, Scheme,
    Task, TaskCtx, TaskId, Trigger,
};
use acr::sim::{CostProfile, SimConfig, SimReport, TauPolicy, Timeline};

const RANKS: usize = 2;
const ITERS: u64 = 400;
const TAU: f64 = 0.060;

/// Small communicating ring (one token in flight per rank), enough state
/// for bit flips to matter.
struct MiniRing {
    rank: usize,
    iter: u64,
    tokens: u64,
    acc: Vec<f64>,
}

impl MiniRing {
    fn new(rank: usize) -> Self {
        Self {
            rank,
            iter: 0,
            tokens: 0,
            acc: (0..32).map(|i| (rank * 100 + i) as f64).collect(),
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
        self.iter >= ITERS
    }

    fn pup(&mut self, p: &mut dyn acr::pup::Puper) -> acr::pup::PupResult {
        use acr::pup::Pup;
        p.pup_usize(&mut self.rank)?;
        p.pup_u64(&mut self.iter)?;
        p.pup_u64(&mut self.tokens)?;
        self.acc.pup(p)
    }
}

fn runtime_cfg(scheme: Scheme, interval: Duration) -> JobConfig {
    JobConfig::builder()
        .ranks(RANKS)
        .tasks_per_rank(1)
        .spares(3)
        .scheme(scheme)
        .detection(DetectionMethod::FullCompare)
        .checkpoint_interval(interval)
        .heartbeat_period(Duration::from_millis(5))
        .heartbeat_timeout(Duration::from_millis(40))
        .max_duration(Duration::from_secs(30))
        .build()
        .expect("valid differential config")
}

fn run_runtime(scheme: Scheme, interval: Duration, script: &FaultScript) -> JobReport {
    let report = Job::new(runtime_cfg(scheme, interval))
        .with_faults(script.clone())
        .mode(ExecMode::virtual_default())
        .run(|rank, _| Box::new(MiniRing::new(rank)) as Box<dyn Task>);
    assert!(
        report.completed,
        "runtime run failed: {:?}\n{}",
        report.error,
        report.trace.join("\n")
    );
    report
}

/// Probe calibration from two fault-free virtual runs: `w` is the pure
/// compute time (checkpoints effectively disabled), `delta` the mean cost
/// of one verified round under the real cadence. (The full measured
/// artifact is `acr_core::Calibration`, produced by `acr::runtime::
/// calibrate::measure`; this local pair is the minimal subset the
/// differential needs.)
struct ProbeCal {
    w: f64,
    delta: f64,
}

fn calibrate(scheme: Scheme) -> ProbeCal {
    let free = run_runtime(scheme, Duration::from_secs(10), &FaultScript::new());
    assert_eq!(free.checkpoints_verified, 0);
    let cadenced = run_runtime(scheme, Duration::from_secs_f64(TAU), &FaultScript::new());
    let n = cadenced.checkpoints_verified.max(1) as f64;
    let delta = ((cadenced.duration - free.duration) / n).max(1e-4);
    ProbeCal {
        w: free.duration,
        delta,
    }
}

fn run_sim(scheme: Scheme, cal: &ProbeCal, events: Vec<TraceEvent>) -> SimReport {
    let costs = CostProfile::explicit(cal.delta, cal.delta, cal.delta, RANKS);
    let tl = Timeline::with_costs(
        acr::sim::Machine::bgp(1024, acr::topology::MappingKind::Default),
        acr::apps::TABLE2[0],
        costs,
    );
    tl.run(&SimConfig {
        work: cal.w,
        scheme,
        detection: DetectionMethod::FullCompare,
        tau: TauPolicy::Fixed(TAU),
        trace: FailureTrace::from_events(events),
        alarms: vec![],
    })
}

/// Sim node id for `(replica, rank)` under the explicit-costs convention
/// (`node / ranks` = replica).
fn sim_node(replica: usize, rank: usize) -> usize {
    replica * RANKS + rank
}

/// Fault-free: both engines take the same number of checkpoints for the
/// same work, period, and δ.
#[test]
fn fault_free_checkpoint_counts_agree_across_schemes() {
    for scheme in [Scheme::Strong, Scheme::Medium, Scheme::Weak] {
        let cal = calibrate(scheme);
        let rt = run_runtime(scheme, Duration::from_secs_f64(TAU), &FaultScript::new());
        let sim = run_sim(scheme, &cal, vec![]);
        assert!(
            rt.checkpoints_verified >= 3,
            "cadence too coarse to compare"
        );
        let diff = (sim.checkpoints.len() as i64 - rt.checkpoints_verified as i64).abs();
        assert!(
            diff <= 1,
            "{scheme:?}: sim took {} checkpoints, runtime verified {} \
             (w={:.4}, delta={:.4})",
            sim.checkpoints.len(),
            rt.checkpoints_verified,
            cal.w,
            cal.delta
        );
        assert_eq!(sim.hard_errors, 0);
        assert_eq!(rt.hard_errors_recovered, 0);
    }
}

/// One mid-run SDC under the strong scheme: detected exactly once and
/// rolled back exactly once in both engines, with no escapes.
#[test]
fn single_sdc_strong_detected_once_in_both_engines() {
    let scheme = Scheme::Strong;
    let cal = calibrate(scheme);
    let t_sdc = 0.150;

    let mut script = FaultScript::new();
    script.push(
        Trigger::At(t_sdc),
        FaultAction::Sdc {
            replica: 0,
            rank: 1,
            seed: 9,
            bits: 2,
        },
    );
    let rt = run_runtime(scheme, Duration::from_secs_f64(TAU), &script);

    let sim = run_sim(
        scheme,
        &cal,
        vec![TraceEvent {
            time: t_sdc,
            node: sim_node(0, 1),
            kind: FaultKind::Sdc,
        }],
    );

    assert_eq!(rt.sdc_injected_at.len(), 1, "{}", rt.trace.join("\n"));
    assert_eq!(sim.sdc_detected, 1);
    assert_eq!(sim.sdc_undetected, 0);
    assert_eq!(
        rt.sdc_rounds_detected,
        1,
        "runtime detection count diverged from sim\n{}",
        rt.trace.join("\n")
    );
    assert_eq!(rt.rollbacks, sim.sdc_detected);
    assert_eq!(rt.restarts_from_beginning, sim.restarts_from_beginning);
    assert!(rt.replicas_agree());
}

/// One crash, before the first verified round and mid-run: one recovered
/// hard error and no restart-from-beginning in both engines; medium/weak
/// additionally install exactly one unverified recovery checkpoint (the
/// §2.3 ship). The early crash recovers from the initial state, a line
/// like any verified checkpoint, and every disturbed run ends where the
/// undisturbed one does.
#[test]
fn single_crash_counts_agree_per_scheme() {
    for scheme in [Scheme::Strong, Scheme::Medium, Scheme::Weak] {
        let cal = calibrate(scheme);
        let undisturbed = run_runtime(scheme, Duration::from_secs_f64(TAU), &FaultScript::new());
        for t_crash in [0.030, 0.150] {
            let mut script = FaultScript::new();
            script.push(
                Trigger::At(t_crash),
                FaultAction::Crash {
                    replica: 1,
                    rank: 0,
                },
            );
            let rt = run_runtime(scheme, Duration::from_secs_f64(TAU), &script);
            let sim = run_sim(
                scheme,
                &cal,
                vec![TraceEvent {
                    time: t_crash,
                    node: sim_node(1, 0),
                    kind: FaultKind::HardError,
                }],
            );
            let case = format!("{scheme:?} crash at {t_crash}");

            assert_eq!(sim.hard_errors, 1, "{case}");
            assert_eq!(
                rt.hard_errors_recovered,
                sim.hard_errors,
                "{case}: hard-error counts diverged\n{}",
                rt.trace.join("\n")
            );
            assert_eq!(sim.restarts_from_beginning, 0, "{case}");
            assert_eq!(
                rt.restarts_from_beginning,
                0,
                "{case}\n{}",
                rt.trace.join("\n")
            );
            let expected_unverified = match scheme {
                Scheme::Strong => 0,
                Scheme::Medium | Scheme::Weak => 1,
            };
            assert_eq!(
                rt.unverified_recoveries,
                expected_unverified,
                "{case}: ship count wrong\n{}",
                rt.trace.join("\n")
            );
            assert!(rt.replicas_agree(), "{case}");
            assert_eq!(rt.final_states, undisturbed.final_states, "{case}");
        }
    }
}

/// The weak scheme's §2.3 worst case: a second crash hits the *other*
/// replica while the first recovery is parked awaiting the next periodic
/// checkpoint. Neither replica holds a complete state, so both engines
/// must restart the job from the beginning — exactly once.
#[test]
fn weak_cross_replica_double_failure_restarts_in_both_engines() {
    let scheme = Scheme::Weak;
    let cal = calibrate(scheme);
    // First verified round completes shortly after 0.060; the next begins
    // near 0.125. Both crashes land in between, so the second arrives
    // while the first recovery is still parked.
    let (t1, t2) = (0.100, 0.110);

    let mut script = FaultScript::new();
    script.push(
        Trigger::At(t1),
        FaultAction::Crash {
            replica: 0,
            rank: 0,
        },
    );
    script.push(
        Trigger::At(t2),
        FaultAction::Crash {
            replica: 1,
            rank: 1,
        },
    );
    let rt = run_runtime(scheme, Duration::from_secs_f64(TAU), &script);

    let sim = run_sim(
        scheme,
        &cal,
        vec![
            TraceEvent {
                time: t1,
                node: sim_node(0, 0),
                kind: FaultKind::HardError,
            },
            TraceEvent {
                time: t2,
                node: sim_node(1, 1),
                kind: FaultKind::HardError,
            },
        ],
    );

    assert_eq!(rt.crashes_injected_at.len(), 2, "{}", rt.trace.join("\n"));
    assert_eq!(sim.hard_errors, 2);
    assert_eq!(sim.restarts_from_beginning, 1);
    assert_eq!(
        rt.restarts_from_beginning,
        sim.restarts_from_beginning,
        "runtime disagrees with sim on the double-failure restart\n{}",
        rt.trace.join("\n")
    );
    assert!(rt.replicas_agree());
}
