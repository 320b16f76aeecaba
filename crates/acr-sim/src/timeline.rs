//! Event-driven job timeline: a whole ACR-protected run with periodic (or
//! adaptive) checkpoints, hard errors, SDC, and the three recovery schemes.
//!
//! The two replicas execute in lock-step between coordinated checkpoints,
//! so the job's forward progress is one timeline with per-event branching —
//! the same abstraction the §5 model uses, but *simulated* against concrete
//! failure traces and the machine-derived δ/restart costs, which is what
//! lets Figs. 9, 11 and 12 come out of mechanics instead of formulas.

use acr_apps::AppProfile;
use acr_core::{Calibration, DetectionMethod, Scheme};
use acr_fault::{AdaptiveConfig, AdaptiveInterval, FailureTrace, FaultKind};

use crate::breakdown::{checkpoint_breakdown, restart_breakdown};
use crate::machine::Machine;

/// Checkpoint-period policy for a run.
#[derive(Debug, Clone)]
pub enum TauPolicy {
    /// A fixed period (seconds) — the classic configuration.
    Fixed(f64),
    /// ACR's adaptive mode (§2.2): the period is re-derived online from the
    /// observed failure stream.
    Adaptive(AdaptiveConfig),
    /// No periodic checkpointing at all — the hard-error-only mode of
    /// Fig. 5a (checkpoints happen only as failure reactions or on
    /// predictor alarms). Incompatible with [`acr_core::Scheme::Weak`],
    /// whose recovery *waits* for the next periodic checkpoint.
    Never,
}

/// One simulated run's configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Useful work in the job (seconds of computation).
    pub work: f64,
    /// Recovery scheme (§2.3).
    pub scheme: Scheme,
    /// SDC detection method (§4.2).
    pub detection: DetectionMethod,
    /// Checkpoint-period policy.
    pub tau: TauPolicy,
    /// Fault injections (wall-clock times; events beyond the run's end are
    /// ignored).
    pub trace: FailureTrace,
    /// Failure-prediction alarms (§2.2): each heeded alarm pulls the next
    /// checkpoint forward to the alarm time, shrinking the rework a
    /// correctly-predicted crash causes (at the cost of one extra δ per
    /// false alarm). Produce with [`acr_fault::FailurePredictor`].
    pub alarms: Vec<acr_fault::Alarm>,
}

impl SimConfig {
    /// Config without prediction (the common case).
    pub fn basic(
        work: f64,
        scheme: Scheme,
        detection: DetectionMethod,
        tau: TauPolicy,
        trace: FailureTrace,
    ) -> Self {
        Self {
            work,
            scheme,
            detection,
            tau,
            trace,
            alarms: Vec::new(),
        }
    }
}

/// Outcome of a simulated run.
#[derive(Debug, Clone, Default)]
pub struct SimReport {
    /// Wall-clock duration of the run.
    pub total_time: f64,
    /// Time spent computing work that survived (= `work`).
    pub solve_time: f64,
    /// Time spent taking checkpoints (local + transfer + compare).
    pub checkpoint_time: f64,
    /// Time spent in restart transfers/reconstruction.
    pub restart_time: f64,
    /// Computation discarded by rollbacks and re-executed.
    pub rework_time: f64,
    /// Wall times of completed checkpoints (Fig. 12's white lines).
    pub checkpoints: Vec<f64>,
    /// Wall times of injected faults that landed during the run (Fig. 12's
    /// black lines).
    pub faults: Vec<(f64, FaultKind)>,
    /// Hard errors recovered.
    pub hard_errors: usize,
    /// SDC events detected (and rolled back).
    pub sdc_detected: usize,
    /// SDC events that escaped detection (medium/weak unprotected windows).
    pub sdc_undetected: usize,
    /// SDC events whose corrupted span was discarded by a hard-error
    /// rollback before any comparison saw it: never detected, but the
    /// corruption never survives either (weak-scheme double failure).
    pub sdc_discarded: usize,
    /// Times the job had to restart from the very beginning (weak-scheme
    /// buddy double-failure).
    pub restarts_from_beginning: usize,
    /// Predictor alarms that triggered an early checkpoint.
    pub alarms_heeded: usize,
}

impl SimReport {
    /// Fractional overhead per replica `(T − W)/W` — the Fig. 9/11 y-axis.
    pub fn overhead(&self) -> f64 {
        (self.total_time - self.solve_time) / self.solve_time
    }

    /// Utilization including the replication investment: `0.5·W/T`.
    pub fn utilization(&self) -> f64 {
        0.5 * self.solve_time / self.total_time
    }
}

/// The simulator's protocol-cost surface, unified across its three
/// sources: machine-derived breakdowns, a measured [`Calibration`], and
/// the differential tests' explicitly pinned costs. One `CostProfile`
/// type means the sim and the runtime-differential can no longer drift
/// apart on what δ and the restart costs *are*.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostProfile {
    /// Checkpoint cost δ (pack + transfer + compare), seconds.
    pub delta: f64,
    /// Hard-error recovery cost (spare promotion + state transfer), seconds.
    pub hard_restart: f64,
    /// SDC rollback cost (reload + reconstruct), seconds.
    pub sdc_restart: f64,
    /// Ranks per replica, when the runtime's node numbering is in force
    /// (`replica = node / ranks`). `Some` switches the weak-scheme
    /// double-failure rule to the runtime's ("any loss in the other
    /// replica while this one is incomplete restarts the job"); `None`
    /// keeps the machine-placement rule (only the exact buddy node).
    pub ranks: Option<usize>,
}

impl CostProfile {
    /// Pin every cost directly (the differential-test mode): runtime node
    /// numbering with `ranks` ranks per replica.
    pub fn explicit(delta: f64, hard_restart: f64, sdc_restart: f64, ranks: usize) -> Self {
        Self {
            delta,
            hard_restart,
            sdc_restart,
            ranks: Some(ranks),
        }
    }

    /// Derive the costs from a machine model and application profile — the
    /// same numbers [`Timeline::new`] would compute internally.
    pub fn from_machine(
        machine: &Machine,
        app: &AppProfile,
        detection: DetectionMethod,
        scheme: Scheme,
    ) -> Self {
        Self {
            delta: checkpoint_breakdown(machine, app, detection).total(),
            hard_restart: restart_breakdown(machine, app, scheme).total(),
            sdc_restart: restart_breakdown(machine, app, scheme).reconstruction,
            ranks: None,
        }
    }

    /// Derive the costs from a measured [`Calibration`], extrapolated to
    /// `state_bytes` of checkpointed state per participant. Pass `ranks`
    /// to adopt the runtime's node numbering (differential mode), `None`
    /// for machine-placement semantics.
    pub fn from_calibration(
        cal: &Calibration,
        scheme: Scheme,
        state_bytes: f64,
        ranks: Option<usize>,
    ) -> Self {
        Self {
            delta: cal.delta_for_bytes(scheme, state_bytes),
            hard_restart: cal.hard_restart_for_bytes(scheme, state_bytes),
            sdc_restart: cal.sdc_restart_for_bytes(scheme, state_bytes),
            ranks,
        }
    }
}

/// The simulator: machine + application profile.
#[derive(Debug, Clone)]
pub struct Timeline {
    machine: Machine,
    app: AppProfile,
    costs: Option<CostProfile>,
}

impl Timeline {
    /// Simulator over `machine` running `app`: costs are derived per run
    /// from the machine breakdowns (equivalent to
    /// [`CostProfile::from_machine`] at the run's detection and scheme).
    pub fn new(machine: Machine, app: AppProfile) -> Self {
        Self {
            machine,
            app,
            costs: None,
        }
    }

    /// Simulator with a pinned [`CostProfile`] (calibration/differential
    /// mode); `machine` and `app` are retained only for reporting.
    pub fn with_costs(machine: Machine, app: AppProfile, costs: CostProfile) -> Self {
        Self {
            machine,
            app,
            costs: Some(costs),
        }
    }

    /// The machine in use.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The pinned cost profile, if any.
    pub fn costs(&self) -> Option<&CostProfile> {
        self.costs.as_ref()
    }

    /// Whether `second` failing forces a restart from the beginning while
    /// `first`'s weak recovery is parked.
    fn weak_double_failure(&self, first: usize, second: usize) -> bool {
        match self.costs.and_then(|c| c.ranks) {
            // Runtime rule: any loss in the other replica while this one is
            // incomplete.
            Some(ranks) => (first / ranks != second / ranks) && second / ranks < 2,
            // Machine-placement rule: the exact buddy node.
            None => self.machine.placement().buddy(second) == Some(first),
        }
    }

    /// Run one job to completion.
    pub fn run(&self, cfg: &SimConfig) -> SimReport {
        let costs = match self.costs {
            Some(c) => c,
            None => CostProfile::from_machine(&self.machine, &self.app, cfg.detection, cfg.scheme),
        };
        let (delta, hard_restart, sdc_restart) =
            (costs.delta, costs.hard_restart, costs.sdc_restart);

        assert!(
            !(matches!(cfg.tau, TauPolicy::Never) && cfg.scheme == Scheme::Weak),
            "weak recovery waits for a periodic checkpoint that Never produces"
        );
        let mut adaptive = match &cfg.tau {
            TauPolicy::Fixed(_) | TauPolicy::Never => None,
            TauPolicy::Adaptive(c) => Some(AdaptiveInterval::new(*c)),
        };
        let interval = |adaptive: &Option<AdaptiveInterval>, now: f64| -> f64 {
            match (&cfg.tau, adaptive) {
                (TauPolicy::Fixed(tau), _) => *tau,
                (TauPolicy::Never, _) => f64::INFINITY,
                (TauPolicy::Adaptive(_), Some(a)) => a.interval_at(now),
                _ => unreachable!(),
            }
        };

        let mut r = SimReport::default();
        let mut t = 0.0f64; // wall clock
        let mut work_done = 0.0f64;
        // Work captured in the last *verified* (or recovery-installed)
        // checkpoint — the rollback target.
        let mut baseline = 0.0f64;
        // SDC events whose corruption is in the not-yet-verified span.
        let mut pending_sdc = 0usize;
        // A weak-scheme recovery waiting for the next periodic checkpoint,
        // remembering the crashed node (for the buddy double-failure case).
        let mut weak_pending: Option<usize> = None;

        let mut next_ckpt = t + interval(&adaptive, t);
        let mut faults = cfg.trace.events().iter().peekable();
        let mut alarms = cfg.alarms.iter().peekable();

        loop {
            let finish = t + (cfg.work - work_done);
            let fault_time = faults.peek().map(|e| e.time).unwrap_or(f64::INFINITY);
            // A predictor alarm pulls the next checkpoint forward (§2.2:
            // "checkpointing right before a potential failure occurs").
            while let Some(a) = alarms.peek() {
                if a.time <= t {
                    alarms.next(); // stale (e.g. raised during a restart)
                } else if a.time < next_ckpt && a.time < fault_time && a.time < finish {
                    next_ckpt = a.time;
                    r.alarms_heeded += 1;
                    alarms.next();
                } else {
                    break;
                }
            }

            if finish <= next_ckpt.min(fault_time) {
                // The job completes before anything else happens.
                t = finish;
                break;
            }

            if fault_time < next_ckpt {
                // Advance to the fault.
                let ev = *faults.next().expect("peeked");
                work_done += ev.time - t;
                t = ev.time;
                r.faults.push((t, ev.kind));
                match ev.kind {
                    FaultKind::Sdc => {
                        pending_sdc += 1;
                    }
                    FaultKind::HardError => {
                        r.hard_errors += 1;
                        if let Some(a) = adaptive.as_mut() {
                            a.on_failure(t);
                        }
                        if let Some(first_failed) = weak_pending {
                            // Second hard failure while a weak recovery is
                            // parked (§2.3).
                            let hit_buddy = self.weak_double_failure(first_failed, ev.node);
                            if hit_buddy {
                                r.restarts_from_beginning += 1;
                                r.rework_time += work_done;
                                work_done = 0.0;
                                baseline = 0.0;
                            } else {
                                r.rework_time += work_done - baseline;
                                work_done = baseline;
                            }
                            // The unverified span (and any corruption in
                            // it) is discarded wholesale by the rollback.
                            r.sdc_discarded += pending_sdc;
                            pending_sdc = 0;
                            weak_pending = None;
                            t += hard_restart;
                            r.restart_time += hard_restart;
                        } else {
                            match cfg.scheme {
                                Scheme::Strong => {
                                    // Crashed replica rolls back; the
                                    // discarded span's corruption (if any)
                                    // is discarded with it on that side, and
                                    // the healthy replica will be
                                    // cross-checked at the next comparison.
                                    r.rework_time += work_done - baseline;
                                    work_done = baseline;
                                    t += hard_restart;
                                    r.restart_time += hard_restart;
                                }
                                Scheme::Medium => {
                                    // Healthy replica checkpoints *now* and
                                    // ships it: no rework, but everything
                                    // since the last verified comparison is
                                    // now beyond verification.
                                    t += delta + hard_restart;
                                    r.checkpoint_time += delta;
                                    r.restart_time += hard_restart;
                                    r.checkpoints.push(t);
                                    r.sdc_undetected += pending_sdc;
                                    pending_sdc = 0;
                                    baseline = work_done;
                                    next_ckpt = t + interval(&adaptive, t);
                                }
                                Scheme::Weak => {
                                    // Park until the next periodic
                                    // checkpoint; the healthy replica keeps
                                    // computing alone.
                                    weak_pending = Some(ev.node);
                                }
                            }
                        }
                    }
                }
            } else {
                // Advance to the periodic checkpoint.
                work_done += next_ckpt - t;
                t = next_ckpt;
                t += delta;
                r.checkpoint_time += delta;
                r.checkpoints.push(t);
                if let Some(_failed) = weak_pending.take() {
                    // Weak recovery: this checkpoint is shipped to the
                    // recovering replica instead of being cross-compared —
                    // the whole span since the last verification escapes
                    // detection (§2.3, Fig. 5d: "SDC cannot be detected").
                    t += hard_restart;
                    r.restart_time += hard_restart;
                    r.sdc_undetected += pending_sdc;
                    pending_sdc = 0;
                    baseline = work_done;
                } else if pending_sdc > 0 {
                    // Comparison mismatch: both replicas roll back.
                    r.sdc_detected += pending_sdc;
                    pending_sdc = 0;
                    r.rework_time += work_done - baseline;
                    work_done = baseline;
                    t += sdc_restart;
                    r.restart_time += sdc_restart;
                } else {
                    // Clean comparison: promote.
                    baseline = work_done;
                }
                next_ckpt = t + interval(&adaptive, t);
            }
        }

        // Corruption that struck after the last verified comparison reaches
        // the final output undetected — no scheme can check what it never
        // compared.
        r.sdc_undetected += pending_sdc;
        r.total_time = t;
        r.solve_time = cfg.work;
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acr_apps::TABLE2;
    use acr_fault::{FailureDistribution, FailureProcess, TraceEvent};
    use acr_topology::MappingKind;

    fn sim(cores: u64, mapping: MappingKind) -> Timeline {
        Timeline::new(Machine::bgp(cores, mapping), TABLE2[0])
    }

    fn fixed_cfg(work: f64, tau: f64, scheme: Scheme, trace: FailureTrace) -> SimConfig {
        SimConfig {
            work,
            scheme,
            detection: DetectionMethod::FullCompare,
            tau: TauPolicy::Fixed(tau),
            trace,
            alarms: Vec::new(),
        }
    }

    #[test]
    fn failure_free_run_pays_only_checkpoints() {
        let s = sim(1024, MappingKind::Default);
        let report = s.run(&fixed_cfg(
            1000.0,
            99.0,
            Scheme::Strong,
            FailureTrace::default(),
        ));
        assert_eq!(report.hard_errors, 0);
        assert_eq!(report.rework_time, 0.0);
        assert_eq!(report.restart_time, 0.0);
        // ~10 checkpoints of δ each
        assert_eq!(report.checkpoints.len(), 10);
        let delta =
            checkpoint_breakdown(s.machine(), &TABLE2[0], DetectionMethod::FullCompare).total();
        assert!((report.total_time - (1000.0 + 10.0 * delta)).abs() < 1e-6);
        assert!(report.overhead() > 0.0 && report.overhead() < 0.02);
    }

    #[test]
    fn hard_error_strong_pays_rework_weak_and_medium_do_not() {
        let trace = FailureTrace::from_events(vec![TraceEvent {
            time: 550.0,
            node: 3,
            kind: FaultKind::HardError,
        }]);
        let strong = sim(1024, MappingKind::Default).run(&fixed_cfg(
            1000.0,
            100.0,
            Scheme::Strong,
            trace.clone(),
        ));
        let medium = sim(1024, MappingKind::Default).run(&fixed_cfg(
            1000.0,
            100.0,
            Scheme::Medium,
            trace.clone(),
        ));
        let weak =
            sim(1024, MappingKind::Default).run(&fixed_cfg(1000.0, 100.0, Scheme::Weak, trace));
        assert_eq!(strong.hard_errors, 1);
        // Failure at 550, checkpoints near 100,200,...: strong redoes ~50 s.
        assert!(
            strong.rework_time > 30.0 && strong.rework_time < 70.0,
            "{}",
            strong.rework_time
        );
        assert_eq!(medium.rework_time, 0.0);
        assert_eq!(weak.rework_time, 0.0);
        // Total time ordering (§2.3 Fig. 4: weak fastest under rework).
        assert!(weak.total_time < strong.total_time);
        assert!(medium.total_time < strong.total_time);
    }

    #[test]
    fn sdc_is_detected_at_the_next_comparison_and_rolled_back() {
        let trace = FailureTrace::from_events(vec![TraceEvent {
            time: 250.0,
            node: 9,
            kind: FaultKind::Sdc,
        }]);
        let r =
            sim(1024, MappingKind::Default).run(&fixed_cfg(1000.0, 100.0, Scheme::Strong, trace));
        assert_eq!(r.sdc_detected, 1);
        assert_eq!(r.sdc_undetected, 0);
        // rolled back from ~300 to ~200: about 100 s of rework (the work
        // between the last verified checkpoint and the detection point).
        assert!(
            r.rework_time > 80.0 && r.rework_time < 120.0,
            "{}",
            r.rework_time
        );
    }

    #[test]
    fn medium_scheme_loses_sdc_in_the_crash_window() {
        // SDC at t=430, crash at t=470: medium's forced checkpoint at the
        // crash ships (and baselines) the corrupted state un-compared.
        let trace = FailureTrace::from_events(vec![
            TraceEvent {
                time: 430.0,
                node: 2,
                kind: FaultKind::Sdc,
            },
            TraceEvent {
                time: 470.0,
                node: 7,
                kind: FaultKind::HardError,
            },
        ]);
        let r = sim(1024, MappingKind::Default).run(&fixed_cfg(
            1000.0,
            100.0,
            Scheme::Medium,
            trace.clone(),
        ));
        assert_eq!(r.sdc_undetected, 1);
        assert_eq!(r.sdc_detected, 0);
        // Strong detects the same corruption instead.
        let r =
            sim(1024, MappingKind::Default).run(&fixed_cfg(1000.0, 100.0, Scheme::Strong, trace));
        assert_eq!(r.sdc_undetected, 0);
        assert_eq!(r.sdc_detected, 1);
    }

    #[test]
    fn weak_scheme_loses_the_whole_interval() {
        // Crash at 410; SDC at 450 (after the crash, before the next
        // checkpoint at 500): the shipped checkpoint is never compared.
        let trace = FailureTrace::from_events(vec![
            TraceEvent {
                time: 410.0,
                node: 2,
                kind: FaultKind::HardError,
            },
            TraceEvent {
                time: 450.0,
                node: 700,
                kind: FaultKind::Sdc,
            },
        ]);
        let r = sim(1024, MappingKind::Default).run(&fixed_cfg(1000.0, 100.0, Scheme::Weak, trace));
        assert_eq!(r.hard_errors, 1);
        assert_eq!(r.sdc_undetected, 1);
        assert_eq!(r.rework_time, 0.0, "weak recovery does no rework");
    }

    #[test]
    fn weak_double_failure_on_buddy_restarts_from_scratch() {
        let s = sim(1024, MappingKind::Default);
        let failed = 3usize;
        let buddy = s.machine().placement().buddy(failed).unwrap();
        let trace = FailureTrace::from_events(vec![
            TraceEvent {
                time: 410.0,
                node: failed,
                kind: FaultKind::HardError,
            },
            TraceEvent {
                time: 450.0,
                node: buddy,
                kind: FaultKind::HardError,
            },
        ]);
        let r = s.run(&fixed_cfg(1000.0, 100.0, Scheme::Weak, trace));
        assert_eq!(r.restarts_from_beginning, 1);
        assert!(r.rework_time >= 400.0, "{}", r.rework_time);

        // A second failure elsewhere only rolls back to the checkpoint.
        let trace = FailureTrace::from_events(vec![
            TraceEvent {
                time: 410.0,
                node: failed,
                kind: FaultKind::HardError,
            },
            TraceEvent {
                time: 450.0,
                node: buddy + 1,
                kind: FaultKind::HardError,
            },
        ]);
        let r = s.run(&fixed_cfg(1000.0, 100.0, Scheme::Weak, trace));
        assert_eq!(r.restarts_from_beginning, 0);
        assert!(r.rework_time > 0.0 && r.rework_time < 100.0);
    }

    #[test]
    fn weak_double_failure_discards_pending_sdc_with_the_span() {
        // SDC lands between the first crash and the buddy's: the rollback
        // wipes the corrupted span before any comparison — neither detected
        // nor escaped, but still accounted for.
        let s = sim(1024, MappingKind::Default);
        let failed = 3usize;
        let buddy = s.machine().placement().buddy(failed).unwrap();
        let trace = FailureTrace::from_events(vec![
            TraceEvent {
                time: 410.0,
                node: failed,
                kind: FaultKind::HardError,
            },
            TraceEvent {
                time: 430.0,
                node: 700,
                kind: FaultKind::Sdc,
            },
            TraceEvent {
                time: 450.0,
                node: buddy,
                kind: FaultKind::HardError,
            },
        ]);
        let r = s.run(&fixed_cfg(1000.0, 100.0, Scheme::Weak, trace));
        assert_eq!(r.restarts_from_beginning, 1);
        assert_eq!(r.sdc_detected, 0);
        assert_eq!(r.sdc_undetected, 0);
        assert_eq!(r.sdc_discarded, 1);
    }

    #[test]
    fn overheads_are_low_at_paper_scales() {
        // Fig. 9/11 ballpark: a day of work on 16K sockets/replica with the
        // paper's failure rates keeps overhead below a few percent.
        use acr_model::{ModelParams, SchemeModel};
        let machine = Machine::bgp(65536, MappingKind::Default);
        let tl = Timeline::new(machine, TABLE2[0]);
        let delta =
            checkpoint_breakdown(tl.machine(), &TABLE2[0], DetectionMethod::FullCompare).total();
        let params = ModelParams::builder()
            .work(24.0 * 3600.0)
            .delta(delta)
            .sockets(16384)
            .mtbf_years(50.0)
            .sdc_fit(10_000.0)
            .build()
            .expect("paper-scale parameters are positive");
        let eval = SchemeModel::new(params).optimize(Scheme::Strong);
        let hard = FailureProcess::Renewal(FailureDistribution::exponential(params.m_h));
        let sdc = FailureProcess::Renewal(FailureDistribution::exponential(params.m_s));
        let trace = FailureTrace::generate(Some(hard), Some(sdc), 3.0 * 24.0 * 3600.0, 32768, 42);
        let r = tl.run(&SimConfig {
            work: 24.0 * 3600.0,
            scheme: Scheme::Strong,
            detection: DetectionMethod::FullCompare,
            tau: TauPolicy::Fixed(eval.tau),
            trace,
            alarms: Vec::new(),
        });
        assert!(r.overhead() > 0.001, "{}", r.overhead());
        assert!(r.overhead() < 0.06, "{}", r.overhead());
        assert_eq!(r.sdc_undetected, 0, "strong scheme misses nothing");
    }

    #[test]
    fn adaptive_interval_stretches_during_a_decreasing_rate_run() {
        // The Fig. 12 experiment: 30 minutes, ~19 failures, Weibull-process
        // shape 0.6 — checkpoints crowd the start, spread toward the end.
        let scale = 1800.0 / 19.0f64.powf(1.0 / 0.6);
        let hard = FailureProcess::PowerLaw { shape: 0.6, scale };
        // Seed chosen so the sampled trace actually front-loads its failures
        // (a power-law draw can come out flat); the assertion below needs a
        // decreasing rate to exist before the policy can track it.
        let trace = FailureTrace::generate(Some(hard), None, 1800.0, 512, 6);
        let machine = Machine::bgp(1024, MappingKind::Column);
        let tl = Timeline::new(machine, TABLE2[4]); // LeanMD: small δ
        let r = tl.run(&SimConfig {
            work: 1800.0,
            scheme: Scheme::Strong,
            detection: DetectionMethod::Checksum,
            tau: TauPolicy::Adaptive(AdaptiveConfig {
                delta: 0.2,
                initial_interval: 10.0,
                min_interval: 2.0,
                max_interval: 60.0,
                window: 8,
                trend_fit: true,
            }),
            trace,
            alarms: Vec::new(),
        });
        assert!(r.checkpoints.len() > 20, "{}", r.checkpoints.len());
        assert!(r.hard_errors >= 10);
        // Mean gap between checkpoints in the first third vs the last third.
        let gaps: Vec<(f64, f64)> = r
            .checkpoints
            .windows(2)
            .map(|w| (w[0], w[1] - w[0]))
            .collect();
        let third = r.total_time / 3.0;
        let early: Vec<f64> = gaps
            .iter()
            .filter(|(t, _)| *t < third)
            .map(|(_, g)| *g)
            .collect();
        let late: Vec<f64> = gaps
            .iter()
            .filter(|(t, _)| *t > 2.0 * third)
            .map(|(_, g)| *g)
            .collect();
        assert!(!early.is_empty() && !late.is_empty());
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&late) > 1.5 * mean(&early),
            "checkpoint gaps should stretch: {} -> {}",
            mean(&early),
            mean(&late)
        );
    }

    #[test]
    fn hard_error_only_mode_never_checkpoints_periodically() {
        // Fig. 5a: no periodic checkpointing; a crash forces one checkpoint
        // in the healthy replica (medium-style recovery).
        let trace = FailureTrace::from_events(vec![TraceEvent {
            time: 400.0,
            node: 1,
            kind: FaultKind::HardError,
        }]);
        let r = sim(1024, MappingKind::Default).run(&SimConfig {
            work: 1000.0,
            scheme: Scheme::Medium,
            detection: DetectionMethod::FullCompare,
            tau: TauPolicy::Never,
            trace,
            alarms: Vec::new(),
        });
        assert_eq!(r.hard_errors, 1);
        assert_eq!(r.checkpoints.len(), 1, "only the crash-forced checkpoint");
        assert_eq!(r.rework_time, 0.0);
    }

    #[test]
    #[should_panic(expected = "weak recovery waits")]
    fn weak_scheme_rejects_never_policy() {
        let _ = sim(1024, MappingKind::Default).run(&SimConfig {
            work: 100.0,
            scheme: Scheme::Weak,
            detection: DetectionMethod::FullCompare,
            tau: TauPolicy::Never,
            trace: FailureTrace::default(),
            alarms: Vec::new(),
        });
    }

    #[test]
    fn predictor_alarm_shrinks_rework() {
        // Crash at t = 550; last periodic checkpoint at ~500. An oracle
        // alarm 10 s before the crash pulls a checkpoint to t = 540, so the
        // strong scheme's rework falls from ~50 s to ~10 s.
        let trace = FailureTrace::from_events(vec![TraceEvent {
            time: 550.0,
            node: 3,
            kind: FaultKind::HardError,
        }]);
        let blind = sim(1024, MappingKind::Default).run(&fixed_cfg(
            1000.0,
            100.0,
            Scheme::Strong,
            trace.clone(),
        ));
        let mut cfg = fixed_cfg(1000.0, 100.0, Scheme::Strong, trace);
        cfg.alarms = vec![acr_fault::Alarm {
            time: 540.0,
            node: 3,
            true_positive: true,
        }];
        let warned = sim(1024, MappingKind::Default).run(&cfg);
        assert_eq!(warned.alarms_heeded, 1);
        assert!(blind.rework_time > 30.0, "{}", blind.rework_time);
        assert!(warned.rework_time < 15.0, "{}", warned.rework_time);
        assert!(warned.total_time < blind.total_time);
    }

    #[test]
    fn false_alarms_cost_one_checkpoint_each() {
        let mut cfg = fixed_cfg(1000.0, 200.0, Scheme::Strong, FailureTrace::default());
        cfg.alarms = (1..=5)
            .map(|i| acr_fault::Alarm {
                time: i as f64 * 150.0,
                node: 0,
                true_positive: false,
            })
            .collect();
        let r = sim(1024, MappingKind::Default).run(&cfg);
        assert_eq!(r.alarms_heeded, 5);
        // More checkpoints than the periodic schedule alone would produce.
        let baseline = sim(1024, MappingKind::Default).run(&fixed_cfg(
            1000.0,
            200.0,
            Scheme::Strong,
            FailureTrace::default(),
        ));
        assert!(r.checkpoints.len() > baseline.checkpoints.len());
        assert!(r.total_time > baseline.total_time);
        assert_eq!(r.rework_time, 0.0);
    }

    #[test]
    fn trailing_sdc_counts_as_undetected() {
        // SDC after the last checkpoint that fits before completion: never
        // compared, so it must show up as undetected even under strong.
        let trace = FailureTrace::from_events(vec![TraceEvent {
            time: 990.0,
            node: 0,
            kind: FaultKind::Sdc,
        }]);
        let r =
            sim(1024, MappingKind::Default).run(&fixed_cfg(1000.0, 400.0, Scheme::Strong, trace));
        assert_eq!(r.sdc_detected, 0);
        assert_eq!(r.sdc_undetected, 1);
    }

    #[test]
    fn pinned_machine_profile_reproduces_derived_costs() {
        // Timeline::new derives its costs per run; pinning the same profile
        // via CostProfile::from_machine must give the identical timeline.
        let machine = Machine::bgp(1024, MappingKind::Default);
        let trace = FailureTrace::from_events(vec![TraceEvent {
            time: 550.0,
            node: 3,
            kind: FaultKind::HardError,
        }]);
        let cfg = fixed_cfg(1000.0, 100.0, Scheme::Strong, trace);
        let derived = Timeline::new(machine.clone(), TABLE2[0]).run(&cfg);
        let profile = CostProfile::from_machine(
            &machine,
            &TABLE2[0],
            DetectionMethod::FullCompare,
            Scheme::Strong,
        );
        assert_eq!(profile.ranks, None);
        let pinned = Timeline::with_costs(machine, TABLE2[0], profile).run(&cfg);
        assert_eq!(derived.total_time, pinned.total_time);
        assert_eq!(derived.rework_time, pinned.rework_time);
        assert_eq!(derived.checkpoints, pinned.checkpoints);
    }

    #[test]
    fn calibrated_profile_scales_with_state_bytes() {
        use acr_core::{Calibration, SampleStat, SchemeCosts, CALIBRATION_VERSION};
        let costs = |d: f64| SchemeCosts {
            delta: SampleStat::point(d),
            hard_restart: SampleStat::point(d * 1.5),
            sdc_restart: SampleStat::point(d * 1.2),
        };
        let cal = Calibration {
            version: CALIBRATION_VERSION,
            source: "test".into(),
            clock: "wall".into(),
            probe_ranks: 2,
            probe_state_bytes: 1e6,
            probe_work_s: 1.0,
            pack: SampleStat::point(60e6),
            gamma: SampleStat::point(4.0e-8),
            beta: SampleStat::point(4.5e-7),
            wire: SampleStat::point(2.2e6),
            store: SampleStat::point(80e6),
            per_byte: SampleStat::point(1e-8),
            round_overhead: SampleStat::point(1e-3),
            hard_fault_rate: SampleStat::point(1.0),
            sdc_fault_rate: SampleStat::point(1.0),
            checksum_wins: true,
            strong: costs(0.010),
            medium: costs(0.011),
            weak: costs(0.009),
        };
        let at_probe = CostProfile::from_calibration(&cal, Scheme::Strong, 1e6, Some(2));
        assert!((at_probe.delta - 0.010).abs() < 1e-12);
        assert_eq!(at_probe.ranks, Some(2));
        // 100 MB more state: δ grows by per_byte × extra bytes.
        let bigger = CostProfile::from_calibration(&cal, Scheme::Strong, 1.01e8, None);
        assert!(bigger.delta > at_probe.delta + 0.9);
        assert!(bigger.hard_restart > at_probe.hard_restart);
        assert_eq!(bigger.ranks, None);
        // The calibrated machine adopts the measured rates.
        let m = Machine::bgp(1024, MappingKind::Default).calibrated(&cal);
        assert_eq!(m.pup_rate, 60e6);
        assert_eq!(m.link_bandwidth, 2.2e6);
        assert!((m.checksum_rate - 1.0 / 4.0e-8).abs() / m.checksum_rate < 1e-12);
    }

    #[test]
    fn report_utilization_consistency() {
        let s = sim(1024, MappingKind::Column);
        let r = s.run(&fixed_cfg(
            500.0,
            50.0,
            Scheme::Weak,
            FailureTrace::default(),
        ));
        assert!((r.utilization() - 0.5 * 500.0 / r.total_time).abs() < 1e-12);
        assert!(r.total_time >= 500.0);
    }
}
