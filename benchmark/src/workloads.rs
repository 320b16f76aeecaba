//! The six workloads: what each job is configured as, the tasks it runs,
//! and the same applications as a plain loop with no runtime around them.

use std::path::PathBuf;
use std::time::Duration;

use acr::apps::{Jacobi3d, MiniApp};
use acr::integration::MiniAppTask;
use acr::obs::ObsConfig;
use acr::prelude::*;
use acr::pup::{Pup, PupResult, Puper};
use acr::runtime::AppMsg;

use crate::stats::Rng;

/// Which application a workload steps.
#[derive(Clone, Copy, PartialEq)]
pub enum App {
    /// `acr::apps::Jacobi3d` on an `n³` block: every word changes every step.
    Jacobi(usize),
    /// The benchmark's own [`SparseField`]: a few chunks change per round.
    Sparse,
}

pub struct Workload {
    pub name: &'static str,
    pub app: App,
    pub tasks_per_rank: usize,
    pub tcp: bool,
    pub detection: DetectionMethod,
    pub delta: bool,
    pub chunk_size: usize,
    pub interval_ms: u64,
    /// Store on, default heartbeat, and the crash/SDC script.
    pub durable_faults: bool,
    /// Iterations `time_to_solution_s` is quoted for.
    pub nominal_iters: u64,
    /// Iterations of the pilot job that sizes the measured ones.
    pub pilot_iters: u64,
}

const FINE: Workload = Workload {
    name: "fine_inproc",
    app: App::Jacobi(16),
    tasks_per_rank: 2,
    tcp: false,
    detection: DetectionMethod::Checksum,
    delta: false,
    chunk_size: acr::pup::DEFAULT_CHUNK_SIZE,
    interval_ms: 50,
    durable_faults: false,
    nominal_iters: 8000,
    pilot_iters: 300,
};

pub const ALL: [Workload; 6] = [
    FINE,
    Workload {
        name: "fine_tcp",
        tcp: true,
        ..FINE
    },
    Workload {
        name: "bulk_inproc",
        app: App::Jacobi(64),
        tasks_per_rank: 1,
        detection: DetectionMethod::FullCompare,
        interval_ms: 20,
        nominal_iters: 2000,
        pilot_iters: 100,
        ..FINE
    },
    Workload {
        name: "bulk_tcp",
        app: App::Jacobi(64),
        tasks_per_rank: 1,
        tcp: true,
        detection: DetectionMethod::FullCompare,
        interval_ms: 100,
        nominal_iters: 2000,
        pilot_iters: 100,
        ..FINE
    },
    Workload {
        name: "sparse_tcp_delta",
        app: App::Sparse,
        tasks_per_rank: 1,
        tcp: true,
        detection: DetectionMethod::FullCompare,
        delta: true,
        chunk_size: 4096,
        interval_ms: 100,
        nominal_iters: 5000,
        pilot_iters: 300,
        ..FINE
    },
    Workload {
        name: "durable_faults",
        durable_faults: true,
        ..FINE
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

/// What varies between the jobs one workload run makes.
pub struct JobOpts {
    /// Periodic checkpoint rounds on; off sets the interval beyond any run.
    pub rounds: bool,
    /// Flight recorder on (every run but the traced run's untraced twin).
    pub recorder: bool,
    /// Store directory for `durable_faults`.
    pub persist_dir: Option<PathBuf>,
}

impl Workload {
    pub fn config(&self, opts: &JobOpts) -> JobConfig {
        // Fault-free jobs take the 20/800 ms heartbeat `examples/jacobi_tcp`
        // uses: with the default 10/80 ms one slow pack, ship or fsync is
        // read as a death (README, findings). Where crashes are injected
        // the timeout is their detection time, so it is 300 ms: short
        // enough to fit five crashes, long enough that none is spurious.
        let (hb_period, hb_timeout) = if self.durable_faults {
            (10, 300)
        } else {
            (20, 800)
        };
        let interval = if opts.rounds {
            Duration::from_millis(self.interval_ms)
        } else {
            Duration::from_secs(3600)
        };
        let mut b = JobConfig::builder()
            .ranks(1)
            .tasks_per_rank(self.tasks_per_rank)
            .spares(if self.durable_faults { 8 } else { 2 })
            .scheme(Scheme::Strong)
            .detection(self.detection)
            .chunk_size(self.chunk_size)
            .checkpoint_interval(interval)
            .heartbeat_period(Duration::from_millis(hb_period))
            .heartbeat_timeout(Duration::from_millis(hb_timeout))
            .delta_checkpoints(self.delta)
            .max_duration(Duration::from_secs(150))
            // The default 4096-event ring drops events within seconds;
            // rings grow on demand, so a large cap costs nothing unused.
            .obs(ObsConfig {
                enabled: opts.recorder,
                ring_capacity: 1 << 22,
                job: None,
            });
        if self.tcp {
            b = b.transport(TransportKind::Tcp(TcpConfig::default()));
        }
        if let Some(dir) = &opts.persist_dir {
            b = b.persist_dir(dir.clone());
        }
        b.build().expect("workload configurations are valid")
    }

    /// The task factory handed to `Job::run`.
    pub fn factory(
        &self,
        seed: u64,
        iters: u64,
    ) -> impl Fn(usize, usize) -> Box<dyn Task> + Send + Sync + 'static {
        let app = self.app;
        move |rank, task| PlainApp::new(app, seed, rank, task).task(iters)
    }

    /// The unprotected baseline: the same applications, one per task.
    pub fn plain(&self, seed: u64) -> Vec<PlainApp> {
        (0..self.tasks_per_rank)
            .map(|task| PlainApp::new(self.app, seed, 0, task))
            .collect()
    }
}

/// Crashes and SDCs alternating replicas, evenly spaced over the first
/// 80 % of `expected` seconds with up to ±50 ms of seeded jitter.
pub fn fault_script(seed: u64, expected: f64, count: usize) -> Vec<(Duration, Fault)> {
    let mut rng = Rng::new(seed ^ 0xFA17);
    let spacing = expected * 0.8 / (count + 1) as f64;
    let jitter = 0.05f64.min(spacing / 4.0);
    (0..count)
        .map(|i| {
            let at = spacing * (i + 1) as f64 + (rng.next_f64() * 2.0 - 1.0) * jitter;
            let replica = (i / 2 % 2) as u8;
            let fault = if i % 2 == 0 {
                Fault::Crash { replica, rank: 0 }
            } else {
                Fault::Sdc {
                    replica,
                    rank: 0,
                    seed: rng.next_u64(),
                }
            };
            (Duration::from_secs_f64(at), fault)
        })
        .collect()
}

/// An application outside the runtime.
pub enum PlainApp {
    Jacobi(Jacobi3d),
    Sparse(SparseField),
}

impl PlainApp {
    fn new(app: App, seed: u64, rank: usize, task: usize) -> PlainApp {
        match app {
            App::Jacobi(n) => PlainApp::Jacobi(Jacobi3d::new(n, n, n)),
            App::Sparse => PlainApp::Sparse(SparseField::new(seed, rank, task)),
        }
    }

    pub fn step(&mut self) {
        match self {
            PlainApp::Jacobi(j) => j.step(),
            PlainApp::Sparse(s) => s.step(),
        }
    }

    /// The runtime task around a copy of this application as it stands,
    /// finishing at `iters`.
    pub fn task(&self, iters: u64) -> Box<dyn Task> {
        match self {
            PlainApp::Jacobi(j) => Box::new(MiniAppTask::new(j.clone(), iters)),
            PlainApp::Sparse(s) => Box::new(SparseField {
                total_iters: iters,
                ..s.clone()
            }),
        }
    }

    pub fn iteration(&self) -> u64 {
        match self {
            PlainApp::Jacobi(j) => j.iteration(),
            PlainApp::Sparse(s) => s.iter,
        }
    }
}

/// `Pup` over a boxed task, so `acr::pup::pack` and the layer replays take
/// the very bytes the runtime checkpoints.
pub struct TaskPup(pub Box<dyn Task>);

impl Pup for TaskPup {
    fn pup(&mut self, p: &mut dyn Puper) -> PupResult {
        self.0.pup(p)
    }
}

const SPARSE_WORDS: usize = 64 * 1024;
const SPARSE_WINDOW: usize = 256;
/// Steps the window stays put before it jumps.
const SPARSE_HOLD: u64 = 96;

/// A 512 KiB field of which each step rewrites one 256-word window; the
/// window jumps to a seeded position every [`SPARSE_HOLD`] steps, so a
/// checkpoint round finds only the few 4 KiB chunks the walk visited
/// dirty (about 3 % at today's step rate). No shipped mini-app has a low
/// dirty fraction (HPCCG is matrix-free, the MD apps move every atom),
/// which is why the benchmark owns this one. The field is no larger
/// because a final state that takes the TCP fabric more than 50 ms to
/// deliver is dropped at teardown (README, findings), and the output
/// check needs it.
#[derive(Clone)]
pub struct SparseField {
    seed: u64,
    iter: u64,
    total_iters: u64,
    field: Vec<f64>,
}

impl SparseField {
    fn new(seed: u64, rank: usize, task: usize) -> SparseField {
        let seed = seed ^ ((rank as u64) << 32) ^ ((task as u64) << 48);
        let mut rng = Rng::new(seed);
        SparseField {
            seed,
            iter: 0,
            total_iters: 0,
            field: (0..SPARSE_WORDS).map(|_| rng.next_f64()).collect(),
        }
    }

    fn step(&mut self) {
        let mut walk = Rng::new(self.seed ^ (self.iter / SPARSE_HOLD));
        let start = (walk.next_u64() % (SPARSE_WORDS - SPARSE_WINDOW) as u64) as usize;
        let t = self.iter as f64 * 1e-6;
        for (k, x) in self.field[start..start + SPARSE_WINDOW]
            .iter_mut()
            .enumerate()
        {
            *x = *x * 0.5 + t + k as f64 * 1e-9;
        }
        self.iter += 1;
    }
}

impl Task for SparseField {
    fn try_step(&mut self, _ctx: &mut TaskCtx<'_>) -> bool {
        if self.done() {
            return false;
        }
        self.step();
        true
    }

    fn on_message(&mut self, _msg: AppMsg, _ctx: &mut TaskCtx<'_>) {}

    fn progress(&self) -> u64 {
        self.iter
    }

    fn done(&self) -> bool {
        self.iter >= self.total_iters
    }

    fn pup(&mut self, p: &mut dyn Puper) -> PupResult {
        p.pup_u64(&mut self.seed)?;
        p.pup_u64(&mut self.iter)?;
        p.pup_u64(&mut self.total_iters)?;
        self.field.pup(p)
    }
}
