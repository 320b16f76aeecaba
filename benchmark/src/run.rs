//! One run of one workload: set-up and sizing, then either the end-to-end
//! measurement (spans off) or the traced run with its layer replays.

use std::time::{Duration, Instant};

use acr::prelude::*;

use crate::layers::{replay_layers, LayerInput};
use crate::measure::{
    check_job, out_dir, peak_rss_mb, plain_iter_s, rows_sum, run_job, Baseline, JobRun, JobSpec,
    RoundStats, Tally,
};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{fault_script, Workload};
use crate::Metrics;

pub struct Outcome {
    pub metrics: Metrics,
    pub tally: Tally,
}

/// One run's state: what set-up learns before the measured window opens,
/// and what every job adds to.
struct Run<'a> {
    w: &'a Workload,
    seed: u64,
    tracer: Tracer,
    tally: Tally,
    /// Plain-loop and protected seconds per iteration from set-up, rough:
    /// they only size the measured jobs.
    plain_iter_s: f64,
    protected_iter_s: f64,
    /// `Job::run` wall beyond the job clock of each zero-iteration job.
    setups: Vec<f64>,
}

impl Run<'_> {
    fn job(
        &mut self,
        label: &'static str,
        iters: u64,
        rounds: bool,
        recorder: bool,
        faults: Vec<(Duration, Fault)>,
    ) -> JobRun {
        run_job(
            JobSpec {
                w: self.w,
                seed: self.seed,
                iters,
                rounds,
                recorder,
                faults,
                label,
            },
            &mut self.tracer,
        )
    }

    fn rounds_of(&self, run: &JobRun) -> RoundStats {
        RoundStats::from_events(&run.report.events, self.w.interval_ms as f64 / 1e3)
    }

    /// The measured job's breakdown rows sum to its duration within 1 %:
    /// the job clock starts some milliseconds before the first event, so
    /// only a job of seconds can hold this.
    fn rows_sum_to_duration(&mut self, run: &JobRun) {
        let (sum, duration) = (rows_sum(&run.report), run.report.duration);
        self.tally
            .op((sum - duration).abs() <= 0.01 * duration, || {
                format!("protected: breakdown rows sum to {sum} s, duration {duration} s")
            });
    }

    /// Rounds-off seconds per iteration: the fastest of `repeats` short
    /// jobs of `iters` iterations, each checked against `baseline`, which
    /// is stepped to `iters` after the first.
    fn forward_iter_s(&mut self, iters: u64, repeats: usize, baseline: &mut Baseline) -> f64 {
        let mut rates = Vec::new();
        for _ in 0..repeats {
            let off = self.job("rounds-off", iters, false, true, Vec::new());
            baseline.advance(iters, &mut self.tracer);
            check_job(
                "rounds-off",
                &off,
                &self.rounds_of(&off),
                Some(baseline),
                &mut self.tally,
            );
            rates.push(off.iter_s());
        }
        rates.into_iter().fold(f64::INFINITY, f64::min)
    }

    /// Iterations that take `secs` at the pilot's protected rate.
    fn iters_for(&self, secs: f64) -> u64 {
        ((secs / self.protected_iter_s) as u64).max(10)
    }
}

/// Set-up: a throwaway plain slice and a pilot protected job give the two
/// rates the measured jobs are sized from, and zero-iteration jobs sample
/// what a job costs before and after its clock runs.
fn set_up<'a>(w: &'a Workload, seed: u64, traced: bool) -> Run<'a> {
    let mut run = Run {
        w,
        seed,
        tracer: Tracer::new(traced),
        tally: Tally::default(),
        plain_iter_s: 0.0,
        protected_iter_s: 0.0,
        setups: Vec::new(),
    };
    // Slices of one iteration: nothing is known yet to size them by.
    let mut warm = Baseline::new(w, seed, f64::INFINITY);
    warm.run_for(0.1, &mut Tracer::new(false));
    run.plain_iter_s = plain_iter_s(&[&warm]);
    drop(warm);

    // A pilot too short to time is repeated longer.
    let mut iters = w.pilot_iters;
    for _ in 0..4 {
        let pilot = run.job("pilot", iters, true, true, Vec::new());
        let rounds = run.rounds_of(&pilot);
        check_job("pilot", &pilot, &rounds, None, &mut run.tally);
        run.protected_iter_s = pilot.iter_s();
        if pilot.report.duration >= 0.1 {
            break;
        }
        iters *= 8;
    }
    for _ in 0..21 {
        let probe = run.job("setup-probe", 0, true, true, Vec::new());
        run.tally.op(probe.report.completed, || {
            format!("setup probe: {:?}", probe.report.error)
        });
        run.setups.push(probe.setup_s);
    }
    run
}

/// The end-to-end run: a rounds-off job and the protected job, with the
/// plain baseline stepped before, between and after them.
pub fn end_to_end(w: &Workload, seed: u64, seconds: f64) -> Outcome {
    let mut run = set_up(w, seed, false);
    let window = Instant::now();
    let plain_est = run.plain_iter_s;
    let slowdown = run.protected_iter_s / plain_est;
    let n_off = run.iters_for(0.017 * seconds);
    // The baseline has to reach the protected job's last iteration, which
    // costs the more the lower the slowdown; the two share 70 % of the
    // window.
    let n_on = run
        .iters_for((0.7 / (1.0 + 1.0 / slowdown)).min(0.5) * seconds)
        .max(w.pilot_iters);
    // What of a quarter of the window the baseline's own way to `n_on`
    // leaves goes to three more spells of plain stepping around the jobs.
    let spell_s = (0.25 * seconds - n_on as f64 * plain_est).max(0.1 * seconds) / 3.0;
    let mut baseline = Baseline::new(w, seed, plain_est);
    let mut sampler = Baseline::new(w, seed, plain_est);

    sampler.run_for(spell_s, &mut run.tracer);
    let forward_iter_s = run.forward_iter_s(n_off, 12, &mut baseline);
    sampler.run_for(spell_s, &mut run.tracer);
    let faults = if w.durable_faults {
        fault_script(seed, n_on as f64 * run.protected_iter_s, 10)
    } else {
        Vec::new()
    };
    let on = run.job("protected", n_on, true, true, faults);
    let rss = peak_rss_mb();
    baseline.advance(n_on, &mut run.tracer);
    let rounds = run.rounds_of(&on);
    check_job("protected", &on, &rounds, Some(&baseline), &mut run.tally);
    run.rows_sum_to_duration(&on);
    sampler.run_for(spell_s, &mut run.tracer);

    let plain_iter_s = plain_iter_s(&[&baseline, &sampler]);
    let mut m = Metrics::default();
    m.put("setup_s", median(&mut run.setups), "s");
    let on_iter_s = rounds.iter_s(&on);
    m.put(
        "time_to_solution_s",
        on_iter_s * w.nominal_iters as f64,
        "s",
    );
    m.put("slowdown_x", on_iter_s / plain_iter_s, "x");
    m.put("forward_slowdown_x", forward_iter_s / plain_iter_s, "x");
    m.put("round_ms_p10", rounds.round_ms_p10(), "ms");
    m.put(
        "ship_bytes_per_state_byte",
        rounds.ship_bytes as f64 / rounds.ship_state_bytes.max(1) as f64,
        "B/B",
    );
    m.put("peak_rss_mb", rss, "MB");
    m.put("cpu_cores", on.cpu_cores, "cores");

    // slowdown ≈ forward slowdown + rounds × round time ÷ unprotected time,
    // on the job's whole duration (the metrics above are its fast end).
    let in_rounds: f64 = rounds.clean.iter().map(|(a, b)| b - a).sum();
    eprintln!(
        "{}: {} iterations in {:.3} s, {} clean rounds of {} (p10 {:.3} ms), window {:.1} s",
        w.name,
        n_on,
        on.report.duration,
        rounds.clean.len(),
        rounds.opened,
        rounds.round_ms_p10(),
        window.elapsed().as_secs_f64(),
    );
    eprintln!(
        "{}: whole-duration slowdown {:.3} vs forward_slowdown_x {:.3} + time in rounds / plain time {:.3} = {:.3}",
        w.name,
        on.iter_s() / plain_iter_s,
        forward_iter_s / plain_iter_s,
        in_rounds / (n_on as f64 * plain_iter_s),
        forward_iter_s / plain_iter_s + in_rounds / (n_on as f64 * plain_iter_s),
    );
    Outcome {
        metrics: m,
        tally: run.tally,
    }
}

/// The traced run: the protected job once with spans on and once as an
/// untraced twin with the flight recorder off, then every layer replayed
/// on the state the job ended in.
pub fn traced(w: &Workload, seed: u64, seconds: f64) -> Outcome {
    let mut run = set_up(w, seed, true);
    let slowdown = run.protected_iter_s / run.plain_iter_s;
    let n_off = run.iters_for(0.017 * seconds);
    let n_on = run
        .iters_for(0.55 * seconds / (2.0 + 1.0 / slowdown))
        .max(w.pilot_iters);
    let expected_s = n_on as f64 * run.protected_iter_s;
    let mut baseline = Baseline::new(w, seed, run.plain_iter_s);
    let mut sampler = Baseline::new(w, seed, run.plain_iter_s);

    sampler.run_for(0.03 * seconds, &mut run.tracer);
    let forward_iter_s = run.forward_iter_s(n_off, 6, &mut baseline);
    sampler.run_for(0.03 * seconds, &mut run.tracer);

    let faults = |w: &Workload| {
        if w.durable_faults {
            fault_script(seed, expected_s, 6)
        } else {
            Vec::new()
        }
    };
    let on = run.job("protected", n_on, true, true, faults(w));
    let twin = run.job("untraced-twin", n_on, true, false, faults(w));
    baseline.advance(n_on, &mut run.tracer);
    let rounds = run.rounds_of(&on);
    check_job("protected", &on, &rounds, Some(&baseline), &mut run.tally);
    run.rows_sum_to_duration(&on);
    check_job(
        "untraced twin",
        &twin,
        &RoundStats::default(),
        Some(&baseline),
        &mut run.tally,
    );

    let mut m = Metrics::default();
    m.put("obs.trace_overhead_x", on.iter_s() / twin.iter_s(), "x");
    drop(twin);

    // Recovery is read from the traced job where it has faults, and from
    // a short probe of the same configuration with one crash and one SDC
    // where it has none: what a fault costs at this state size and
    // transport.
    let probe;
    let (faulted, faulted_rounds) = if w.durable_faults {
        (&on, &rounds)
    } else {
        let script = vec![
            (
                Duration::from_millis(600),
                Fault::Crash {
                    replica: 1,
                    rank: 0,
                },
            ),
            (
                Duration::from_millis(1900),
                Fault::Sdc {
                    replica: 0,
                    rank: 0,
                    seed,
                },
            ),
        ];
        let p = run.job("fault-probe", run.iters_for(2.8), true, true, script);
        let r = run.rounds_of(&p);
        check_job("fault probe", &p, &r, None, &mut run.tally);
        probe = (p, r);
        (&probe.0, &probe.1)
    };
    let fr = &faulted.report;
    let recoveries = faulted_rounds.crash_recoveries(&fr.crashes_injected_at);
    let p50 = |v: Vec<f64>| median(&mut { v });
    m.put(
        "recovery.detect_ms_p50",
        p50(recoveries.iter().map(|r| r.0).collect()),
        "ms",
    );
    m.put(
        "recovery.rebuild_ms_p50",
        p50(recoveries.iter().map(|r| r.1).collect()),
        "ms",
    );
    m.put(
        "recovery.crash_ms_p50",
        p50(recoveries.iter().map(|r| r.0 + r.1).collect()),
        "ms",
    );
    m.put(
        "recovery.sdc_rollback_ms_p50",
        p50(faulted_rounds.sdc_rollback_ms.clone()),
        "ms",
    );
    m.put(
        "recovery.crashes_landed",
        fr.crashes_injected_at.len() as f64,
        "count",
    );
    m.put(
        "recovery.crashes_recovered",
        fr.hard_errors_recovered as f64,
        "count",
    );
    m.put(
        "recovery.sdc_landed",
        fr.sdc_injected_at.len() as f64,
        "count",
    );
    m.put(
        "recovery.sdc_detected",
        fr.sdc_rounds_detected as f64,
        "count",
    );
    m.put(
        "recovery.restarts_from_beginning",
        fr.restarts_from_beginning as f64,
        "count",
    );

    sampler.run_for(0.03 * seconds, &mut run.tracer);
    let plain_iter_s = plain_iter_s(&[&baseline, &sampler]);
    let children = replay_layers(
        LayerInput {
            w,
            baseline: &mut baseline,
            plain_iter_s,
            traced: &on,
            rounds: &rounds,
            forward_iter_s,
        },
        &mut m,
        &mut run.tracer,
    );
    eprintln!(
        "{}: one round of {:.3} ms (p50) as the replays price it:",
        w.name,
        rounds.round_ms_p50()
    );
    for (name, ms) in &children {
        eprintln!("  {name:<26} {ms:>10.4} ms");
    }
    let attributed: f64 = children.iter().map(|c| c.1).sum();
    eprintln!(
        "  {:<26} {:>10.4} ms",
        "unattributed (waiting)",
        rounds.round_ms_p50() - attributed
    );

    m.put(
        "driver.final_states_missing",
        run.tally.final_states_missing as f64,
        "count",
    );
    let path = out_dir().join(format!("trace-{}.json", w.name));
    if let Err(e) = run.tracer.write(&path, w.name) {
        run.tally
            .op(false, || format!("trace file {}: {e}", path.display()));
    }
    Outcome {
        metrics: m,
        tally: run.tally,
    }
}
