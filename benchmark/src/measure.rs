//! Running a workload's jobs and its unprotected baseline, reading the
//! round and recovery intervals out of the event log, and checking the
//! outputs against the baseline.

use std::path::PathBuf;
use std::time::Instant;

use acr::obs::{Breakdown, EventKind, RecordedEvent, RunPhase, DRIVER_NODE};
use acr::prelude::*;

use crate::stats::percentile;
use crate::trace::{SpanId, Tracer};
use crate::workloads::{JobOpts, PlainApp, TaskPup, Workload};

/// Operations tried and operations that went wrong, the two counts the
/// result line carries; `notes` says what went wrong.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    /// Jobs whose report held no final state to check (README, finding 5).
    pub final_states_missing: u64,
}

impl Tally {
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(what());
        }
    }
}

/// One finished job.
pub struct JobRun {
    pub report: JobReport,
    pub iters: u64,
    /// Wall seconds of `Job::run` beyond the job clock's duration: task
    /// construction, thread spawn, fabric bind and handshake, store
    /// creation, teardown.
    pub setup_s: f64,
    /// Process CPU seconds (user + system) per wall second of the job.
    pub cpu_cores: f64,
    /// The job's span in the trace.
    pub span: SpanId,
    /// The store a `durable_faults` job wrote, removed with the run.
    pub store: Option<StoreDir>,
}

impl JobRun {
    pub fn iter_s(&self) -> f64 {
        self.report.duration / self.iters as f64
    }
}

/// Where the benchmark keeps what it writes: `benchmark/out` under the
/// checkout the command runs from.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from("benchmark/out");
    std::fs::create_dir_all(&dir).expect("benchmark/out is writable");
    dir
}

/// A store directory of this process, removed when dropped.
pub struct StoreDir(pub PathBuf);

impl StoreDir {
    pub fn new(tag: &str) -> StoreDir {
        let dir = out_dir().join(format!("store-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        StoreDir(dir)
    }
}

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Process CPU seconds so far, from `/proc/self/stat` (fields 14 and 15,
/// in clock ticks of 1/100 s, the fixed `USER_HZ` of Linux).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1000.0)
}

pub struct JobSpec<'a> {
    pub w: &'a Workload,
    pub seed: u64,
    pub iters: u64,
    pub rounds: bool,
    pub recorder: bool,
    pub faults: Vec<(std::time::Duration, Fault)>,
    /// Span name in the trace.
    pub label: &'static str,
}

/// Run one job in this process and time what surrounds its job clock.
/// `durable_faults` jobs get a fresh store directory.
pub fn run_job(spec: JobSpec<'_>, tracer: &mut Tracer) -> JobRun {
    let store = spec.w.durable_faults.then(|| StoreDir::new(spec.label));
    let cfg = spec.w.config(&JobOpts {
        rounds: spec.rounds,
        recorder: spec.recorder,
        persist_dir: store.as_ref().map(|s| s.0.clone()),
    });
    let span = tracer.begin(spec.label, None);
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let report = Job::new(cfg)
        .with_timed_faults(spec.faults)
        .run(spec.w.factory(spec.seed, spec.iters));
    let wall = t0.elapsed().as_secs_f64();
    let cpu = cpu_seconds() - cpu0;
    tracer.end(span);
    JobRun {
        setup_s: wall - report.duration,
        cpu_cores: cpu / wall,
        iters: spec.iters,
        report,
        span,
        store,
    }
}

/// The unprotected baseline: the workload's applications stepped in a
/// plain loop on this thread between the jobs, timed in slices of about
/// 20 ms so that a slow spell of the machine spoils few of them.
pub struct Baseline {
    pub apps: Vec<PlainApp>,
    /// Iterations per timed slice.
    chunk: u64,
    /// Seconds per iteration of each slice.
    pub slice_iter_s: Vec<f64>,
}

impl Baseline {
    /// `iter_s` is a rough seconds-per-iteration that sizes the slices.
    pub fn new(w: &Workload, seed: u64, iter_s: f64) -> Baseline {
        Baseline {
            apps: w.plain(seed),
            chunk: ((0.02 / iter_s) as u64).max(1),
            slice_iter_s: Vec::new(),
        }
    }

    pub fn at(&self) -> u64 {
        self.apps[0].iteration()
    }

    fn slice(&mut self, n: u64) {
        let t0 = Instant::now();
        for _ in 0..n {
            for app in &mut self.apps {
                app.step();
            }
        }
        self.slice_iter_s
            .push(t0.elapsed().as_secs_f64() / n as f64);
    }

    /// Step every task up to iteration `to`.
    pub fn advance(&mut self, to: u64, tracer: &mut Tracer) {
        let span = tracer.begin("baseline", None);
        while self.at() < to {
            self.slice(self.chunk.min(to - self.at()));
        }
        tracer.end(span);
    }

    /// Keep stepping for `secs` seconds: more slices, for the timing only.
    pub fn run_for(&mut self, secs: f64, tracer: &mut Tracer) {
        let span = tracer.begin("baseline", None);
        let t0 = Instant::now();
        while t0.elapsed().as_secs_f64() < secs {
            self.slice(self.chunk);
        }
        tracer.end(span);
    }

    /// The packed state of every task as the runtime would checkpoint it
    /// in a job finishing at `iters`.
    pub fn packed(&self, iters: u64) -> Vec<Vec<u8>> {
        self.apps
            .iter()
            .map(|app| acr::pup::pack(&mut TaskPup(app.task(iters))).expect("baseline state packs"))
            .collect()
    }

    /// Whether both replicas of `run` ended bit-identical to the baseline,
    /// which must stand at the job's last iteration; `None` when the
    /// report holds no final state for some task.
    pub fn matches(&self, run: &JobRun) -> Option<bool> {
        assert_eq!(self.at(), run.iters, "baseline stands at the job's end");
        let mut same = true;
        for (t, want) in self.packed(run.iters).iter().enumerate() {
            for replica in 0..2u8 {
                same &= run.report.task_state(replica, 0, t)?[..] == want[..];
            }
        }
        Some(same)
    }
}

/// Seconds per plain iteration: the fastest slice of `parts`. The sandbox
/// this was written on runs the same loop at anything from full to half
/// speed in spells of a second or so; the floor is the one level every
/// run finds again, where a median lands on whichever spell prevailed.
pub fn plain_iter_s(parts: &[&Baseline]) -> f64 {
    parts
        .iter()
        .flat_map(|b| b.slice_iter_s.iter().copied())
        .fold(f64::INFINITY, f64::min)
}

/// What one job's event log says about its rounds, ships and stores.
#[derive(Default)]
pub struct RoundStats {
    pub opened: u64,
    /// Start and end, on the job clock, of each verified-clean round:
    /// `PhaseEnter{Round}` to the next `PhaseEnter{Forward}`.
    pub clean: Vec<(f64, f64)>,
    /// Round start to the first `CheckpointPack` (stamped when the first
    /// node's pack ends), that to `RoundVerdict`, and that to `Forward`.
    pub consensus_ms: Vec<f64>,
    pub compare_ms: Vec<f64>,
    pub commit_ms: Vec<f64>,
    /// Seconds per iteration of each cycle: from one clean round's end
    /// (or the job's start) to the next one's, over the iterations between
    /// their checkpoints.
    pub cycle_iter_s: Vec<f64>,
    /// How long after it was due (interval after the previous round
    /// ended) each round started.
    pub lateness_ms: Vec<f64>,
    /// Detecting round's start to forward resumed, per SDC rollback.
    pub sdc_rollback_ms: Vec<f64>,
    pub pack_bytes: u64,
    pub ship_bytes: u64,
    /// Packed bytes of the shipping node, summed over the ships.
    pub ship_state_bytes: u64,
    pub deaths: u64,
    /// Journal records (not slot writes) and their bytes.
    pub journal_appends: u64,
    pub journal_bytes: u64,
    phases: Vec<(f64, RunPhase)>,
}

impl RoundStats {
    pub fn from_events(events: &[RecordedEvent], interval_s: f64) -> RoundStats {
        struct Open {
            start: f64,
            first_pack: Option<f64>,
            verdict: Option<(f64, bool, u64)>,
        }
        let mut s = RoundStats::default();
        let mut open: Option<Open> = None;
        // The job starts in Forward with its first round due one interval in.
        let mut due: Option<f64> = Some(interval_s);
        let mut sdc_round_start: Option<f64> = None;
        // Where the running cycle began, and the last verified iteration:
        // a rollback or a recovery returns the job to it.
        let mut cycle_start = events.first().map_or(0.0, |e| e.t);
        let mut verified_iter = 0u64;
        let mut last_pack = std::collections::BTreeMap::new();
        for ev in events {
            match &ev.kind {
                EventKind::PhaseEnter { phase } if ev.node == DRIVER_NODE => {
                    s.phases.push((ev.t, *phase));
                    match phase {
                        RunPhase::Round => {
                            if let Some(due) = due.take() {
                                s.lateness_ms.push((ev.t - due) * 1e3);
                            }
                            open = Some(Open {
                                start: ev.t,
                                first_pack: None,
                                verdict: None,
                            });
                        }
                        RunPhase::Forward => {
                            let closed = open.take();
                            if let Some(start) = sdc_round_start.take() {
                                s.sdc_rollback_ms.push((ev.t - start) * 1e3);
                            }
                            // Only a round that ended re-arms the timer the
                            // lateness is read against.
                            due = closed.is_some().then_some(ev.t + interval_s);
                            if let Some(Open {
                                start,
                                first_pack: Some(pack),
                                verdict: Some((verdict, true, iteration)),
                            }) = closed
                            {
                                s.clean.push((start, ev.t));
                                s.consensus_ms.push((pack - start) * 1e3);
                                s.compare_ms.push((verdict - pack) * 1e3);
                                s.commit_ms.push((ev.t - verdict) * 1e3);
                                if iteration > verified_iter {
                                    let n = (iteration - verified_iter) as f64;
                                    s.cycle_iter_s.push((ev.t - cycle_start) / n);
                                }
                                verified_iter = iteration;
                            }
                            cycle_start = ev.t;
                        }
                        other => {
                            if let (RunPhase::Rollback, Some(o)) = (other, &open) {
                                if matches!(o.verdict, Some((_, false, _))) {
                                    sdc_round_start = Some(o.start);
                                }
                            }
                            open = None;
                            due = None;
                        }
                    }
                }
                EventKind::RoundStart { .. } => s.opened += 1,
                EventKind::CheckpointPack { bytes, .. } => {
                    if let Some(o) = &mut open {
                        o.first_pack.get_or_insert(ev.t);
                    }
                    s.pack_bytes += bytes;
                    last_pack.insert(ev.node, *bytes);
                }
                EventKind::CompareShip { wire_bytes, .. } => {
                    s.ship_bytes += wire_bytes;
                    s.ship_state_bytes += last_pack.get(&ev.node).copied().unwrap_or(0);
                }
                EventKind::RoundVerdict {
                    clean, iteration, ..
                } => {
                    if let Some(o) = &mut open {
                        o.verdict = Some((ev.t, *clean, *iteration));
                    }
                }
                EventKind::NodeDead { .. } => s.deaths += 1,
                EventKind::StoreAppend { kind, bytes } if kind != "slot" => {
                    s.journal_appends += 1;
                    s.journal_bytes += bytes;
                }
                _ => {}
            }
        }
        s
    }

    /// Seconds per iteration of `run`, whose log this is: the tenth
    /// percentile of its cycles, the pace the job keeps while the machine
    /// leaves it alone. The machine's slow spells move the median cycle and
    /// the whole duration by tens of percent from run to run, and this by a
    /// few. A job of few rounds falls back to duration over iterations.
    pub fn iter_s(&self, run: &JobRun) -> f64 {
        if self.cycle_iter_s.len() >= 10 {
            let mut cycles = self.cycle_iter_s.clone();
            cycles.sort_by(f64::total_cmp);
            percentile(&cycles, 0.1)
        } else {
            run.iter_s()
        }
    }

    pub fn round_ms(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.clean.iter().map(|(a, b)| (b - a) * 1e3).collect();
        v.sort_by(f64::total_cmp);
        v
    }

    pub fn round_ms_p50(&self) -> f64 {
        percentile(&self.round_ms(), 0.5)
    }

    /// A round that found the replicas in step and the machine undisturbed;
    /// the median adds the wait for the replica behind, which follows the
    /// machine's spells.
    pub fn round_ms_p10(&self) -> f64 {
        percentile(&self.round_ms(), 0.1)
    }

    /// For each crash that landed at job-clock `at`: milliseconds until the
    /// driver entered `Recovery`, and from there until `Forward`.
    pub fn crash_recoveries(&self, landed: &[f64]) -> Vec<(f64, f64)> {
        landed
            .iter()
            .filter_map(|&at| {
                let i = self
                    .phases
                    .iter()
                    .position(|&(t, p)| t >= at && p == RunPhase::Recovery)?;
                let (detected, _) = self.phases[i];
                let (resumed, _) = *self.phases[i..]
                    .iter()
                    .find(|&&(_, p)| p == RunPhase::Forward)?;
                Some(((detected - at) * 1e3, (resumed - detected) * 1e3))
            })
            .collect()
    }
}

/// A value of the Prometheus text in `JobReport::metrics`.
pub fn prom_value(metrics: &str, name: &str) -> f64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or(0.0)
}

/// Forward, checkpoint, compare and recovery seconds of the job's breakdown.
pub fn rows_sum(report: &JobReport) -> f64 {
    let b = Breakdown::from_events(&report.events);
    b.forward + b.checkpoint + b.compare + b.recovery
}

/// The output checks every job must pass, each one operation in `tally`:
/// completed with agreeing replicas, final state equal to the baseline's,
/// no event dropped, breakdown rows tiling the log from `JobStart`, no
/// restart from the beginning, every crash recovered and, with no fault
/// injected, every round verified and no node declared dead.
pub fn check_job(
    what: &str,
    run: &JobRun,
    rounds: &RoundStats,
    baseline: Option<&Baseline>,
    tally: &mut Tally,
) {
    let r = &run.report;
    tally.op(r.completed && r.replicas_agree(), || {
        format!("{what}: completed={} error={:?}", r.completed, r.error)
    });
    match baseline.map(|b| b.matches(run)) {
        Some(Some(same)) => tally.op(same, || {
            format!("{what}: final state differs from the unprotected baseline")
        }),
        // Teardown stops collecting final states the first time 50 ms pass
        // without one, which a stall of the machine or a slow ship can
        // cause: the program delivered no output to check, which is not a
        // wrong output. Counted and reported, not failed.
        Some(None) => {
            tally.final_states_missing += 1;
            eprintln!("{what}: the report holds no final state (README, finding 5); not checked");
        }
        None => {}
    }
    if !r.events.is_empty() {
        let dropped = prom_value(&r.metrics, "acr_obs_events_dropped_total");
        tally.op(dropped == 0.0, || {
            format!("{what}: {dropped} events dropped")
        });
        // The log still holds `JobStart` (nothing rotated out of the
        // front) and its rows tile the time from its first event on.
        let whole = r
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::JobStart { .. }));
        let gap = (rows_sum(r) - (r.duration - r.events[0].t)).abs();
        tally.op(whole && gap <= 0.01 * r.duration, || {
            format!("{what}: event log truncated or rows {gap} s off its span")
        });
    }
    tally.op(r.restarts_from_beginning == 0, || {
        format!(
            "{what}: {} restarts from the beginning",
            r.restarts_from_beginning
        )
    });
    let crashes = r.crashes_injected_at.len() as u64;
    let faults = crashes + r.sdc_injected_at.len() as u64;
    // Rounds: one operation each. With faults about, a round may be cut
    // short by a death or end in a rollback, which is the fault's doing.
    tally.attempted += rounds.opened;
    if faults == 0 {
        let unverified = rounds.opened.saturating_sub(r.checkpoints_verified as u64);
        if unverified > 0 {
            tally.failed += unverified;
            tally
                .notes
                .push(format!("{what}: {unverified} rounds not verified"));
        }
    }
    // Faults: a crash must be recovered onto a spare; an SDC must be
    // detected or masked, which the final-state check above decides.
    tally.attempted += faults;
    let unrecovered = crashes.saturating_sub(r.hard_errors_recovered as u64);
    let spurious = rounds.deaths.saturating_sub(crashes);
    if unrecovered + spurious > 0 {
        tally.failed += unrecovered + spurious;
        tally.notes.push(format!(
            "{what}: {unrecovered} crashes not recovered, {spurious} nodes declared dead with no fault"
        ));
    }
}
