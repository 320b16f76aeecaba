//! Idle threads sleep: an exact count of scheduler wake-ups, read from
//! outside the program through `/proc/self/task/*/{comm,status}`.
//!
//! A spare node computes nothing until a failure promotes it (§2.1), so its
//! scheduler thread must block until a message comes, not wake on a fixed
//! tick. The driver's policy loop must wake only for an event or a
//! deadline. A fault-free threaded job with four spares runs for about a
//! second while a sampler reads every `acr-node-*` thread's
//! `voluntary_ctxt_switches` (each blocking wait that really blocks counts
//! one). A 1 ms tick reads about 1 000 a second on every thread.
//!
//! Sleeping to a deadline is only sound if every deadline is woken for:
//! the second test kills both nodes of a buddy pair, a failure only the
//! driver's liveness probe can see, and the job must still recover.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use acr::pup::{PupResult, Puper};
use acr::runtime::{AppMsg, DetectionMethod, Fault, Job, JobConfig, Scheme, Task, TaskCtx};

/// The tests read this process's `acr-node-*` threads: one job at a time.
static JOB_SERIAL: Mutex<()> = Mutex::new(());

const SPARES: usize = 4;
/// About a second of forward work at the node scheduler's forward pace.
const ITERS: u64 = 1000;

/// A counter that steps alone: no messages, so the active nodes never
/// wait on a peer.
struct Counter {
    iter: u64,
    acc: f64,
}

impl Task for Counter {
    fn try_step(&mut self, _ctx: &mut TaskCtx<'_>) -> bool {
        if self.iter >= ITERS {
            return false;
        }
        self.iter += 1;
        self.acc = (self.acc + self.iter as f64).sqrt();
        true
    }
    fn on_message(&mut self, _msg: AppMsg, _ctx: &mut TaskCtx<'_>) {}
    fn progress(&self) -> u64 {
        self.iter
    }
    fn done(&self) -> bool {
        self.iter >= ITERS
    }
    fn pup(&mut self, p: &mut dyn Puper) -> PupResult {
        p.pup_u64(&mut self.iter)?;
        p.pup_f64(&mut self.acc)
    }
}

/// `voluntary_ctxt_switches` from a `/proc/.../status` file.
fn voluntary(status: &str) -> Option<u64> {
    std::fs::read_to_string(status)
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))?
        .trim()
        .parse()
        .ok()
}

/// Every `acr-node-*` thread of this process now: `(name, tid)` →
/// voluntary context switches so far.
fn node_threads(into: &mut BTreeMap<(String, u64), u64>) {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return;
    };
    for task in tasks.flatten() {
        let dir = task.path();
        let Ok(comm) = std::fs::read_to_string(dir.join("comm")) else {
            continue;
        };
        let comm = comm.trim().to_string();
        let tid = task.file_name().to_string_lossy().parse().unwrap_or(0);
        if !comm.starts_with("acr-node-") {
            continue;
        }
        if let Some(n) = voluntary(&dir.join("status").to_string_lossy()) {
            // Monotone per thread: the last reading is the largest.
            let e = into.entry((comm, tid)).or_insert(0);
            *e = (*e).max(n);
        }
    }
}

#[test]
fn spares_and_the_policy_loop_wake_only_for_messages_and_deadlines() {
    let _serial = JOB_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let interval = Duration::from_millis(100);
    let cfg = JobConfig::builder()
        .ranks(1)
        .tasks_per_rank(1)
        .spares(SPARES)
        .scheme(Scheme::Strong)
        .detection(DetectionMethod::Checksum)
        .checkpoint_interval(interval)
        .heartbeat_period(Duration::from_millis(20))
        .heartbeat_timeout(Duration::from_millis(800))
        .max_duration(Duration::from_secs(120))
        .build()
        .expect("valid config");
    let total = 2 + SPARES;

    // Sample the node threads every 10 ms while the job runs; their
    // entries leave `/proc` as they exit.
    let readings = Arc::new(Mutex::new(BTreeMap::new()));
    let stop = Arc::new(AtomicBool::new(false));
    let sampler = {
        let (readings, stop) = (Arc::clone(&readings), Arc::clone(&stop));
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                node_threads(&mut readings.lock().unwrap());
                std::thread::sleep(Duration::from_millis(10));
            }
        })
    };

    let me = "/proc/thread-self/status";
    let before = voluntary(me).expect("this thread's status");
    let report = Job::new(cfg).run(|_, _| Box::new(Counter { iter: 0, acc: 0.0 }) as Box<dyn Task>);
    let driver = voluntary(me).expect("this thread's status") - before;
    stop.store(true, Ordering::SeqCst);
    sampler.join().expect("sampler");

    assert!(report.completed, "{:?}", report.error);
    assert!(report.replicas_agree());
    let rounds = report.verified_round_starts.len();
    assert!(rounds >= 3, "{rounds} rounds in {:.2} s", report.duration);

    let readings = readings.lock().unwrap().clone();
    println!(
        "job {:.2} s, {rounds} rounds; voluntary context switches:",
        report.duration
    );
    for ((name, tid), n) in &readings {
        println!("  {name} (tid {tid}): {n}");
    }
    // The driver's wake-ups, bounded by what can wake it: per round its
    // deadline and one `CheckpointDone` per active node; at the end one
    // `AllTasksDone` per active node, then one `FinalState` and one join
    // per node thread; plus a few for setup.
    let budget = rounds * 3 + 2 + 2 * total + 10;
    println!("  Job::run thread: {driver} (budget {budget})");

    let spares: Vec<_> = (2..total).map(|n| format!("acr-node-{n}")).collect();
    for spare in &spares {
        let seen: Vec<u64> = (readings.iter())
            .filter(|((name, _), _)| name == spare)
            .map(|(_, &n)| n)
            .collect();
        assert_eq!(seen.len(), 1, "{spare} sampled once: {readings:?}");
        assert!(
            seen[0] <= 5,
            "{spare} woke {} times in {:.2} s: a spare must block until a message",
            seen[0],
            report.duration
        );
    }
    assert!(
        driver <= budget as u64,
        "the policy loop woke {driver} times for {rounds} rounds (budget {budget})"
    );
}

/// Both nodes of the only buddy pair crash within one heartbeat timeout,
/// so neither lives to report the other. The policy loop, asleep until its
/// next deadline, must still wake for the probe's silence window and then
/// its answer window, declare both dead and restart the job, well before
/// `max_duration`.
#[test]
fn a_buddy_pair_that_dies_together_is_found_by_the_probe() {
    let _serial = JOB_SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = JobConfig::builder()
        .ranks(1)
        .tasks_per_rank(1)
        .spares(2)
        .scheme(Scheme::Strong)
        .detection(DetectionMethod::Checksum)
        .checkpoint_interval(Duration::from_millis(50))
        .heartbeat_period(Duration::from_millis(10))
        .heartbeat_timeout(Duration::from_millis(200))
        .max_duration(Duration::from_secs(20))
        .build()
        .expect("valid config");
    let crash = |replica, at| (Duration::from_millis(at), Fault::Crash { replica, rank: 0 });
    let report = Job::new(cfg)
        .with_timed_faults(vec![crash(0, 150), crash(1, 160)])
        .run(|_, _| Box::new(Counter { iter: 0, acc: 0.0 }) as Box<dyn Task>);
    assert!(report.completed, "{:?}\n{:#?}", report.error, report.trace);
    assert_eq!(report.restarts_from_beginning, 1, "{:#?}", report.trace);
    assert!(report.replicas_agree());
}
