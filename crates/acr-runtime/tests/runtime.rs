//! End-to-end tests of the replicated runtime: failure-free runs, SDC
//! detection + rollback, fail-stop recovery under all three schemes, and
//! the §2.2 message-consistency guarantee under a communicating workload.

use std::sync::Mutex;
use std::time::Duration;

/// Serialize jobs: each spawns ~10 compute-heavy OS threads, and running
/// many at once can deschedule a node long enough to trip the heartbeat
/// failure detector (a false positive the real machine would not see).
static JOB_SERIAL: Mutex<()> = Mutex::new(());

use acr_pup::{Pup, PupResult, Puper};
use acr_runtime::{
    AppMsg, DetectionMethod, Fault, FaultAction, FaultScript, Job, JobConfig, Scheme, Task,
    TaskCtx, TaskId, Trigger,
};

/// A token-ring workload: rank `r`'s iteration `i` computes on its local
/// state, then sends a token to rank `r+1`; iteration `i ≥ 1` cannot start
/// until the token of iteration `i−1` arrived from rank `r−1`.
///
/// This is exactly the §2.2 hazard workload: tasks progress at different
/// rates and there is always a token in flight, so a naive uncoordinated
/// snapshot would lose one and hang the restart.
struct RingTask {
    rank: usize,
    iter: u64,
    tokens: u64,
    acc: Vec<f64>,
    checksum: f64,
    total_iters: u64,
    /// Busy-work knob so different ranks run at different speeds.
    spin: u32,
}

impl RingTask {
    fn new(rank: usize, total_iters: u64) -> Self {
        Self {
            rank,
            iter: 0,
            tokens: 0,
            acc: (0..2048).map(|i| (rank * 1000 + i) as f64).collect(),
            checksum: 0.0,
            total_iters,
            spin: 6 + (rank as u32 % 3),
        }
    }
}

impl Task for RingTask {
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
        // Deterministic computation that makes every iteration's state
        // distinguishable (so lost/duplicated work is detectable).
        for _ in 0..self.spin {
            for (i, x) in self.acc.iter_mut().enumerate() {
                // Perturbation-preserving dynamics: an injected bit flip
                // persists verbatim instead of being contracted away, so
                // comparison-based detection has something to find.
                *x += ((self.iter as f64 + i as f64) * 1e-3).sin();
            }
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
        p.pup_u64(&mut self.total_iters)?;
        p.pup_u32(&mut self.spin)
    }
}

fn ring_cfg(scheme: Scheme, detection: DetectionMethod) -> JobConfig {
    JobConfig::builder()
        .ranks(4)
        .tasks_per_rank(1)
        .spares(2)
        .scheme(scheme)
        .detection(detection)
        .checkpoint_interval(Duration::from_millis(100))
        .heartbeat_period(Duration::from_millis(10))
        .heartbeat_timeout(Duration::from_millis(300))
        .max_duration(Duration::from_secs(40))
        .build()
        .expect("valid ring config")
}

const ITERS: u64 = 600;

fn ring_factory(rank: usize, _task: usize) -> Box<dyn Task> {
    Box::new(RingTask::new(rank, ITERS))
}

#[test]
fn failure_free_run_completes_with_identical_replicas() {
    let _serial = JOB_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let report = Job::new(ring_cfg(Scheme::Strong, DetectionMethod::FullCompare)).run(ring_factory);
    assert!(report.completed, "error: {:?}", report.error);
    assert!(report.checkpoints_verified >= 1, "{report:?}");
    assert_eq!(report.sdc_rounds_detected, 0);
    assert_eq!(report.hard_errors_recovered, 0);
    assert!(report.replicas_agree(), "replicas diverged without faults");
    // Both replicas' every rank finished all iterations.
    assert_eq!(report.final_states.len(), 8);
}

#[test]
fn checksum_detection_mode_also_completes() {
    let _serial = JOB_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let report = Job::new(ring_cfg(Scheme::Strong, DetectionMethod::Checksum)).run(ring_factory);
    assert!(report.completed, "error: {:?}", report.error);
    assert!(report.checkpoints_verified >= 1);
    assert!(report.replicas_agree());
}

#[test]
fn injected_sdc_is_detected_and_rolled_back() {
    let _serial = JOB_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let faults = vec![(
        Duration::from_millis(200),
        Fault::Sdc {
            replica: 1,
            rank: 2,
            seed: 7,
        },
    )];
    let report = Job::new(ring_cfg(Scheme::Strong, DetectionMethod::FullCompare))
        .with_timed_faults(faults)
        .run(ring_factory);
    assert!(report.completed, "error: {:?}", report.error);
    assert!(report.sdc_rounds_detected >= 1, "SDC escaped: {report:?}");
    assert!(report.rollbacks >= 1);
    // The rollback purged the corruption: final states agree.
    assert!(report.replicas_agree(), "corruption survived to the end");
}

#[test]
fn injected_sdc_is_detected_by_checksum_exchange() {
    let _serial = JOB_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let faults = vec![(
        Duration::from_millis(200),
        Fault::Sdc {
            replica: 0,
            rank: 1,
            seed: 99,
        },
    )];
    let report = Job::new(ring_cfg(Scheme::Strong, DetectionMethod::Checksum))
        .with_timed_faults(faults)
        .run(ring_factory);
    assert!(report.completed, "error: {:?}", report.error);
    assert!(
        report.sdc_rounds_detected >= 1,
        "checksum missed the flip: {report:?}"
    );
    assert!(report.replicas_agree());
}

/// The chunked pipeline's whole point: a single injected bit flip must be
/// pinned to a few chunk-sized byte ranges of the payload, not just flagged
/// as "something differs somewhere".
#[test]
fn full_compare_localizes_sdc_to_diverged_chunks() {
    let _serial = JOB_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut cfg = ring_cfg(Scheme::Strong, DetectionMethod::FullCompare);
    // Small chunks so the ~16 KiB ring payload spans many of them.
    cfg.chunk_size = 256;
    let faults = vec![(
        Duration::from_millis(200),
        Fault::Sdc {
            replica: 1,
            rank: 2,
            seed: 7,
        },
    )];
    let report = Job::new(cfg).with_timed_faults(faults).run(ring_factory);
    assert!(report.completed, "error: {:?}", report.error);
    assert!(report.sdc_rounds_detected >= 1, "SDC escaped: {report:?}");
    assert!(!report.sdc_detections.is_empty(), "no localization records");
    for det in &report.sdc_detections {
        assert!(!det.diverged.is_empty());
        // One flipped f64 perturbs that element and the running checksum:
        // a handful of chunks at most, far from the whole payload.
        assert!(
            det.diverged_bytes() <= 4 * 256,
            "localization too coarse: {det:?}"
        );
        assert!(
            det.diverged_bytes() < det.payload_len / 4,
            "not localized: {det:?}"
        );
        assert!(
            det.fields_flagged >= 1,
            "windowed re-check found nothing: {det:?}"
        );
        for r in &det.diverged {
            assert!(r.start < r.end && r.end <= det.payload_len);
        }
    }
    assert!(report.replicas_agree(), "corruption survived to the end");
}

/// ChunkedChecksum ships only digests, yet still localizes: the per-chunk
/// table on the wire names the diverged ranges without the payload.
#[test]
fn chunked_checksum_detects_and_localizes_sdc() {
    let _serial = JOB_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut cfg = ring_cfg(Scheme::Strong, DetectionMethod::ChunkedChecksum);
    cfg.chunk_size = 256;
    let faults = vec![(
        Duration::from_millis(200),
        Fault::Sdc {
            replica: 0,
            rank: 1,
            seed: 99,
        },
    )];
    let report = Job::new(cfg).with_timed_faults(faults).run(ring_factory);
    assert!(report.completed, "error: {:?}", report.error);
    assert!(
        report.sdc_rounds_detected >= 1,
        "table missed the flip: {report:?}"
    );
    assert!(report.rollbacks >= 1);
    assert!(!report.sdc_detections.is_empty());
    for det in &report.sdc_detections {
        assert!(
            det.diverged_bytes() < det.payload_len / 4,
            "not localized: {det:?}"
        );
    }
    assert!(report.replicas_agree());
}

/// ChunkedChecksum must also pass the failure-free path (clean comparisons
/// through digest equality, checkpoints promoted normally).
#[test]
fn chunked_checksum_mode_completes_without_faults() {
    let _serial = JOB_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let report =
        Job::new(ring_cfg(Scheme::Strong, DetectionMethod::ChunkedChecksum)).run(ring_factory);
    assert!(report.completed, "error: {:?}", report.error);
    assert!(report.checkpoints_verified >= 1);
    assert_eq!(report.sdc_rounds_detected, 0);
    assert!(report.replicas_agree());
}

#[test]
fn crash_recovers_via_spare_under_strong_scheme() {
    let _serial = JOB_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let report = Job::new(ring_cfg(Scheme::Strong, DetectionMethod::FullCompare))
        .with_faults(crash_at_iteration(ITERS / 2, 1, 1))
        .run(ring_factory);
    assert!(report.completed, "error: {:?}", report.error);
    assert_eq!(report.crashes_injected_at.len(), 1);
    assert_eq!(report.hard_errors_recovered, 1);
    assert!(report.replicas_agree(), "restarted rank diverged");
    assert_eq!(report.final_states.len(), 8, "all ranks accounted for");
}

#[test]
fn crash_recovers_under_medium_scheme() {
    let _serial = JOB_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let report = Job::new(ring_cfg(Scheme::Medium, DetectionMethod::FullCompare))
        .with_faults(crash_at_iteration(ITERS / 2, 0, 3))
        .run(ring_factory);
    assert!(report.completed, "error: {:?}", report.error);
    assert_eq!(report.crashes_injected_at.len(), 1);
    assert_eq!(report.hard_errors_recovered, 1);
    assert!(report.unverified_recoveries >= 1, "{report:?}");
    assert!(report.replicas_agree());
}

#[test]
fn crash_recovers_under_weak_scheme() {
    let _serial = JOB_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let report = Job::new(ring_cfg(Scheme::Weak, DetectionMethod::FullCompare))
        .with_faults(crash_at_iteration(ITERS / 2, 1, 0))
        .run(ring_factory);
    assert!(report.completed, "error: {:?}", report.error);
    assert_eq!(report.crashes_injected_at.len(), 1);
    assert_eq!(report.hard_errors_recovered, 1);
    assert!(report.unverified_recoveries >= 1, "{report:?}");
    assert!(report.replicas_agree());
}

/// A crash of `(replica, rank)` when it reaches `iteration`: placed by
/// progress, not by the clock, so it fires at any step speed. Mid-run it
/// lands before or after the first verified round depending on that
/// speed, and either way the scheme's own recovery runs.
fn crash_at_iteration(iteration: u64, replica: u8, rank: usize) -> FaultScript {
    let mut script = FaultScript::new();
    script.push(
        Trigger::AtIteration(iteration),
        FaultAction::Crash { replica, rank },
    );
    script
}

/// A crash long before the first checkpoint recovers by the scheme from
/// the initial state, epoch 0: strong restarts only the crashed replica
/// from it, medium and weak ship the healthy replica's state. The job
/// never restarts.
#[test]
fn crash_before_first_checkpoint_recovers_from_epoch_0() {
    let _serial = JOB_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for scheme in Scheme::ALL {
        let mut cfg = ring_cfg(scheme, DetectionMethod::FullCompare);
        cfg.checkpoint_interval = Duration::from_secs(5); // no checkpoint before the crash
        let report = Job::new(cfg)
            .with_faults(crash_at_iteration(20, 0, 0))
            .run(ring_factory);
        assert!(report.completed, "{scheme:?} error: {:?}", report.error);
        assert_eq!(report.crashes_injected_at.len(), 1, "{scheme:?}");
        assert_eq!(report.restarts_from_beginning, 0, "{scheme:?}");
        assert_eq!(report.hard_errors_recovered, 1, "{scheme:?}");
        let unverified = usize::from(scheme != Scheme::Strong);
        assert_eq!(report.unverified_recoveries, unverified, "{scheme:?}");
        assert!(report.replicas_agree(), "{scheme:?}");
    }
}

/// An SDC and a later crash in one run, placed by checkpoint count so the
/// order holds at any step speed: the flip lands right after the first
/// verified round, the next round detects it and rolls back, and the crash
/// fires only once a second round has verified.
#[test]
fn sdc_then_crash_both_handled_in_one_run() {
    let _serial = JOB_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let script = FaultScript::parse(
        "sdc ckpts=1 replica=0 rank=2 seed=5\n\
         crash ckpts=2 replica=1 rank=2",
    )
    .expect("valid script");
    let mut cfg = ring_cfg(Scheme::Strong, DetectionMethod::FullCompare);
    cfg.checkpoint_interval = Duration::from_millis(20);
    let report = Job::new(cfg).with_faults(script).run(ring_factory);
    assert!(report.completed, "error: {:?}", report.error);
    assert!(report.sdc_rounds_detected >= 1, "{report:?}");
    assert_eq!(report.hard_errors_recovered, 1);
    assert!(report.replicas_agree());
}

/// Two crashes placed by application progress on one replica, whose ring
/// keeps its ranks within a few iterations of each other: rank 3 cannot
/// reach iteration 400 before rank 1 has crashed at 200 and been replaced,
/// whatever the step speed.
#[test]
fn two_crashes_consume_two_spares() {
    let _serial = JOB_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut cfg = ring_cfg(Scheme::Strong, DetectionMethod::FullCompare);
    cfg.max_duration = Duration::from_secs(60);
    let script = FaultScript::parse(
        "crash iter=200 replica=0 rank=1\n\
         crash iter=400 replica=0 rank=3",
    )
    .expect("valid script");
    let report = Job::new(cfg).with_faults(script).run(ring_factory);
    assert!(report.completed, "error: {:?}", report.error);
    assert_eq!(report.crashes_injected_at.len(), 2);
    assert_eq!(report.hard_errors_recovered, 2);
    assert!(report.replicas_agree());
}

#[test]
fn out_of_spares_fails_gracefully() {
    let _serial = JOB_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut cfg = ring_cfg(Scheme::Strong, DetectionMethod::FullCompare);
    cfg.spares = 0;
    cfg.max_duration = Duration::from_secs(8);
    let faults = vec![(
        Duration::from_millis(200),
        Fault::Crash {
            replica: 0,
            rank: 0,
        },
    )];
    let report = Job::new(cfg).with_timed_faults(faults).run(ring_factory);
    assert!(!report.completed);
    assert!(report.error.is_some());
}

/// Multi-task nodes: the consensus must drain *every* task to the target.
#[test]
fn multiple_tasks_per_rank() {
    let _serial = JOB_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut cfg = ring_cfg(Scheme::Strong, DetectionMethod::FullCompare);
    cfg.tasks_per_rank = 2;
    cfg.ranks = 3;
    // Independent counters (no ring) with different speeds per task.
    struct Counter {
        iter: u64,
        stride: u64,
        state: Vec<f64>,
    }
    impl Task for Counter {
        fn try_step(&mut self, _ctx: &mut TaskCtx<'_>) -> bool {
            if self.done() {
                return false;
            }
            for (i, s) in self.state.iter_mut().enumerate() {
                // Perturbation-preserving float dynamics (injected flips
                // must survive to the next comparison).
                *s = *s * 1.000_000_1 + (self.iter as f64 + i as f64) * 1e-6;
            }
            self.iter += 1;
            true
        }
        fn on_message(&mut self, _m: AppMsg, _c: &mut TaskCtx<'_>) {}
        fn progress(&self) -> u64 {
            self.iter
        }
        fn done(&self) -> bool {
            self.iter >= 300
        }
        fn pup(&mut self, p: &mut dyn Puper) -> PupResult {
            p.pup_u64(&mut self.iter)?;
            p.pup_u64(&mut self.stride)?;
            self.state.pup(p)
        }
    }
    let report = Job::new(cfg)
        .with_timed_faults(vec![(
            Duration::from_millis(250),
            Fault::Sdc {
                replica: 1,
                rank: 1,
                seed: 3,
            },
        )])
        .run(|rank, task| {
            Box::new(Counter {
                iter: 0,
                stride: 1 + (rank + task) as u64,
                state: vec![rank as f64 * 17.0 + task as f64; 64],
            })
        });
    assert!(report.completed, "error: {:?}", report.error);
    assert!(report.replicas_agree());
    assert!(report.sdc_rounds_detected >= 1);
    assert_eq!(report.final_states.len(), 6);
    assert!(report.final_states.values().all(|t| t.len() == 2));
}

/// A checkpoint packs each task on the thread that steps it: a node hosting
/// two tasks spawns no helper thread for the pack.
#[test]
fn a_pack_runs_on_the_thread_that_steps_the_task() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::thread::ThreadId;

    let _serial = JOB_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut cfg = ring_cfg(Scheme::Strong, DetectionMethod::FullCompare);
    cfg.tasks_per_rank = 2;
    cfg.ranks = 2;
    cfg.checkpoint_interval = Duration::from_millis(20);

    #[derive(Default)]
    struct Packs {
        on_stepper: AtomicUsize,
        elsewhere: AtomicUsize,
    }
    struct ThreadProbe {
        iter: u64,
        state: Vec<f64>,
        stepped_on: Option<ThreadId>,
        packs: Arc<Packs>,
    }
    impl Task for ThreadProbe {
        fn try_step(&mut self, _ctx: &mut TaskCtx<'_>) -> bool {
            if self.done() {
                return false;
            }
            self.stepped_on = Some(std::thread::current().id());
            std::thread::sleep(Duration::from_micros(200));
            self.state[self.iter as usize % 64] += 1.0;
            self.iter += 1;
            true
        }
        fn on_message(&mut self, _m: AppMsg, _c: &mut TaskCtx<'_>) {}
        fn progress(&self) -> u64 {
            self.iter
        }
        fn done(&self) -> bool {
            self.iter >= 300
        }
        fn pup(&mut self, p: &mut dyn Puper) -> PupResult {
            if p.dir() == acr_pup::Dir::Packing && self.stepped_on.is_some() {
                let count = if self.stepped_on == Some(std::thread::current().id()) {
                    &self.packs.on_stepper
                } else {
                    &self.packs.elsewhere
                };
                count.fetch_add(1, Ordering::Relaxed);
            }
            p.pup_u64(&mut self.iter)?;
            self.state.pup(p)
        }
    }

    let packs = Arc::new(Packs::default());
    let report = Job::new(cfg).run({
        let packs = Arc::clone(&packs);
        move |_, _| {
            Box::new(ThreadProbe {
                iter: 0,
                state: vec![0.0; 64],
                stepped_on: None,
                packs: Arc::clone(&packs),
            })
        }
    });
    assert!(report.completed, "error: {:?}", report.error);
    assert!(report.checkpoints_verified >= 1, "{report:?}");
    assert!(
        packs.on_stepper.load(Ordering::Relaxed) > 0,
        "no pack of a stepped task was seen"
    );
    assert_eq!(
        packs.elsewhere.load(Ordering::Relaxed),
        0,
        "a task was packed on a thread other than the one stepping it"
    );
}
