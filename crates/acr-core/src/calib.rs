//! The measured **calibration artifact** that closes the runtime ×
//! simulator × model triangle.
//!
//! A [`Calibration`] is produced by instrumented runs of the real runtime
//! (`acr-runtime`'s calibrate harness folds `Breakdown` phases and the
//! [`GammaBetaEstimator`](crate::GammaBetaEstimator) stream into per-scheme
//! cost statistics) and consumed by *both* predictors: `acr-model` builds
//! `ModelParams` from it and `acr-sim` builds its `CostProfile`/`Machine`
//! rates from it, so one measured artifact parameterizes the whole §5
//! analysis. Every quantity carries its sample count and min/max spread —
//! a calibration is a measurement, not a constant.
//!
//! Two clock domains exist, tagged by [`Calibration::clock`]:
//!
//! * `"virtual"` — measured under `ExecMode::Virtual`: byte-for-byte
//!   deterministic, ideal for CI gates, but the virtual clock does not
//!   advance during pack, so per-byte rates are floored sentinels and δ is
//!   effectively a fixed per-round cost (`per_byte ≈ 0`).
//! * `"wall"` — real elapsed time: genuine byte rates (pack, wire, store,
//!   γ, β) that make "given your state size" extrapolation meaningful, at
//!   the price of run-to-run noise.
//!
//! The JSON encoding is a flat one-key-per-line object (no nesting, no
//! external dependencies) using Rust's shortest-round-trip float
//! formatting, so `from_json(to_json(c)) == c` exactly.

use acr_obs::json;

use crate::recovery::Scheme;

/// Current `version` field written by [`Calibration::to_json`].
pub const CALIBRATION_VERSION: u32 = 1;

/// Floor used for degenerate per-byte rates under the virtual clock (the
/// clock does not advance during pack, so a measured rate of exactly zero
/// is replaced by this sentinel to keep downstream divisions finite).
pub const VIRTUAL_RATE_FLOOR: f64 = 1e-9;

/// Summary statistics of one measured quantity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleStat {
    /// Mean over the samples.
    pub mean: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Number of samples folded in.
    pub count: u64,
}

impl SampleStat {
    /// Fold a slice of samples; `None` when empty.
    pub fn from_samples(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut sum = 0.0;
        for &s in samples {
            min = min.min(s);
            max = max.max(s);
            sum += s;
        }
        Some(Self {
            mean: sum / samples.len() as f64,
            min,
            max,
            count: samples.len() as u64,
        })
    }

    /// A degenerate single-point statistic (used for sentinel rates).
    pub fn point(v: f64) -> Self {
        Self {
            mean: v,
            min: v,
            max: v,
            count: 1,
        }
    }

    /// Relative spread `(max − min) / mean` — the confidence width a gate
    /// can check before trusting the mean.
    pub fn spread(&self) -> f64 {
        if self.mean.abs() > 0.0 {
            (self.max - self.min) / self.mean.abs()
        } else {
            0.0
        }
    }

    fn validate(&self, name: &str) -> Result<(), String> {
        if !(self.mean.is_finite() && self.min.is_finite() && self.max.is_finite()) {
            return Err(format!("{name}: non-finite statistic"));
        }
        if self.count == 0 {
            return Err(format!("{name}: zero samples"));
        }
        if self.min > self.mean + 1e-12 || self.mean > self.max + 1e-12 {
            return Err(format!(
                "{name}: min {} ≤ mean {} ≤ max {} violated",
                self.min, self.mean, self.max
            ));
        }
        Ok(())
    }
}

/// Measured per-scheme protocol costs at the probe's state size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchemeCosts {
    /// One coordinated checkpoint δ (pack + ship + compare), seconds.
    pub delta: SampleStat,
    /// One hard-error recovery (spare promotion + state transfer), seconds.
    pub hard_restart: SampleStat,
    /// One detected-SDC rollback (reload + reconstruct), seconds.
    pub sdc_restart: SampleStat,
}

impl SchemeCosts {
    fn validate(&self, name: &str) -> Result<(), String> {
        self.delta.validate(&format!("{name}.delta"))?;
        self.hard_restart
            .validate(&format!("{name}.hard_restart"))?;
        self.sdc_restart.validate(&format!("{name}.sdc_restart"))?;
        for (field, stat) in [
            ("delta", &self.delta),
            ("hard_restart", &self.hard_restart),
            ("sdc_restart", &self.sdc_restart),
        ] {
            if stat.mean <= 0.0 {
                return Err(format!("{name}.{field}: non-positive cost"));
            }
        }
        Ok(())
    }
}

/// The *question* put to the calibrated predictors: a target machine and
/// job, in the per-socket units the paper's Table 1 uses.
///
/// Lives here (not in `acr-model`) so the model and the simulator consume
/// the same description without depending on each other.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scenario {
    /// Sockets per replica (the Fig. 7–11 x-axis).
    pub sockets: u64,
    /// Checkpointed state per socket, bytes (each socket packs and ships
    /// its own state in parallel, so δ scales with *per-socket* bytes).
    pub state_bytes_per_socket: f64,
    /// Per-socket hard-error MTBF in years (the paper uses 50).
    pub mtbf_years_per_socket: f64,
    /// Per-socket SDC rate in FIT (the paper uses 100 and 10 000).
    pub sdc_fit_per_socket: f64,
    /// Useful work in the job, seconds.
    pub work_s: f64,
}

impl Scenario {
    /// The paper's headline machine point: 16K sockets/replica, 50-year
    /// per-socket MTBF, 100 FIT, 24 h of work, 1 GiB of state per socket.
    pub fn fig8_default() -> Self {
        Self {
            sockets: 16384,
            state_bytes_per_socket: 1024.0 * 1024.0 * 1024.0,
            mtbf_years_per_socket: 50.0,
            sdc_fit_per_socket: 100.0,
            work_s: 24.0 * 3600.0,
        }
    }

    /// Basic sanity checks.
    pub fn validate(&self) -> Result<(), String> {
        if self.sockets == 0 {
            return Err("scenario: zero sockets".into());
        }
        for (name, v) in [
            ("state_bytes_per_socket", self.state_bytes_per_socket),
            ("mtbf_years_per_socket", self.mtbf_years_per_socket),
            ("work_s", self.work_s),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(format!("scenario: {name} must be positive, got {v}"));
            }
        }
        if !(self.sdc_fit_per_socket.is_finite() && self.sdc_fit_per_socket >= 0.0) {
            return Err(format!(
                "scenario: sdc_fit_per_socket must be ≥ 0, got {}",
                self.sdc_fit_per_socket
            ));
        }
        Ok(())
    }
}

/// A measured calibration of the runtime: the δ/β/γ and rate numbers the
/// §5 model and the simulator both plug in, with provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    /// Schema version ([`CALIBRATION_VERSION`]).
    pub version: u32,
    /// Free-text provenance ("calibration_sweep --seeds 4", hostname, …).
    pub source: String,
    /// Clock domain: `"virtual"` (deterministic) or `"wall"` (real time).
    pub clock: String,
    /// Ranks per replica in the probe job.
    pub probe_ranks: u64,
    /// Packed checkpoint bytes per rank of the *large* probe — the state
    /// size at which the per-scheme costs were measured.
    pub probe_state_bytes: f64,
    /// Fault-free work of the large probe (seconds) — the probe's `W`.
    pub probe_work_s: f64,
    /// Pack + digest throughput, bytes/second.
    pub pack: SampleStat,
    /// Checksum compute rate γ, seconds/byte (§4.2).
    pub gamma: SampleStat,
    /// Buddy transfer rate β, seconds/byte (§4.2).
    pub beta: SampleStat,
    /// Wire throughput `1/β`, bytes/second.
    pub wire: SampleStat,
    /// Durable-store append throughput, bytes/second.
    pub store: SampleStat,
    /// Slope of δ versus per-rank state bytes, seconds/byte (measured from
    /// probes at two state sizes; ≈ 0 under the virtual clock).
    pub per_byte: SampleStat,
    /// Fixed per-round cost of a checkpoint independent of state size,
    /// seconds (consensus + scheduler round trips).
    pub round_overhead: SampleStat,
    /// Injected hard-fault rate the fault probes ran at, faults/second.
    pub hard_fault_rate: SampleStat,
    /// Injected SDC rate the fault probes ran at, faults/second.
    pub sdc_fault_rate: SampleStat,
    /// Whether the measured rates satisfy the §4.2 rule `γ < β/4` (the
    /// runtime's own [`crate::RateEstimate::checksum_wins`] verdict on
    /// this machine).
    pub checksum_wins: bool,
    /// Measured costs under the strong scheme.
    pub strong: SchemeCosts,
    /// Measured costs under the medium scheme.
    pub medium: SchemeCosts,
    /// Measured costs under the weak scheme.
    pub weak: SchemeCosts,
}

impl Calibration {
    /// The per-scheme measured costs.
    pub fn scheme_costs(&self, scheme: Scheme) -> &SchemeCosts {
        match scheme {
            Scheme::Strong => &self.strong,
            Scheme::Medium => &self.medium,
            Scheme::Weak => &self.weak,
        }
    }

    /// Extrapolate δ to a different per-participant state size: the
    /// measured δ at `probe_state_bytes` plus the per-byte slope times the
    /// size difference. Clamped to stay positive (a shrunken state can not
    /// make the round cheaper than its fixed overhead).
    pub fn delta_for_bytes(&self, scheme: Scheme, bytes: f64) -> f64 {
        let c = self.scheme_costs(scheme);
        scale_cost(
            c.delta.mean,
            self.probe_state_bytes,
            self.per_byte.mean,
            bytes,
        )
    }

    /// Extrapolate the hard-restart cost to a different state size (the
    /// restart ships one checkpoint, so it scales with the same slope).
    pub fn hard_restart_for_bytes(&self, scheme: Scheme, bytes: f64) -> f64 {
        let c = self.scheme_costs(scheme);
        scale_cost(
            c.hard_restart.mean,
            self.probe_state_bytes,
            self.per_byte.mean,
            bytes,
        )
    }

    /// Extrapolate the SDC-rollback cost to a different state size.
    pub fn sdc_restart_for_bytes(&self, scheme: Scheme, bytes: f64) -> f64 {
        let c = self.scheme_costs(scheme);
        scale_cost(
            c.sdc_restart.mean,
            self.probe_state_bytes,
            self.per_byte.mean,
            bytes,
        )
    }

    /// Structural validation: finite positive statistics, a known clock
    /// tag, and a version this build understands.
    pub fn validate(&self) -> Result<(), String> {
        if self.version != CALIBRATION_VERSION {
            return Err(format!(
                "calibration version {} (this build reads {})",
                self.version, CALIBRATION_VERSION
            ));
        }
        if self.clock != "virtual" && self.clock != "wall" {
            return Err(format!("unknown clock domain {:?}", self.clock));
        }
        if self.probe_ranks == 0 {
            return Err("probe_ranks is zero".into());
        }
        if !(self.probe_state_bytes.is_finite() && self.probe_state_bytes > 0.0) {
            return Err(format!(
                "probe_state_bytes {} not positive",
                self.probe_state_bytes
            ));
        }
        if !(self.probe_work_s.is_finite() && self.probe_work_s > 0.0) {
            return Err(format!("probe_work_s {} not positive", self.probe_work_s));
        }
        for (name, stat) in [
            ("pack", &self.pack),
            ("gamma", &self.gamma),
            ("beta", &self.beta),
            ("wire", &self.wire),
            ("store", &self.store),
            ("per_byte", &self.per_byte),
            ("round_overhead", &self.round_overhead),
            ("hard_fault_rate", &self.hard_fault_rate),
            ("sdc_fault_rate", &self.sdc_fault_rate),
        ] {
            stat.validate(name)?;
        }
        for (name, stat) in [
            ("pack", &self.pack),
            ("gamma", &self.gamma),
            ("beta", &self.beta),
            ("wire", &self.wire),
            ("store", &self.store),
        ] {
            if stat.mean <= 0.0 {
                return Err(format!("{name}: rate must be positive, got {}", stat.mean));
            }
        }
        self.strong.validate("strong")?;
        self.medium.validate("medium")?;
        self.weak.validate("weak")?;
        Ok(())
    }

    /// Serialize as a flat, pretty-printed JSON object (one key per line).
    /// Floats use Rust's shortest round-trip formatting so
    /// [`Calibration::from_json`] reconstructs this value exactly.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("{\n");
        kv(&mut out, "version", self.version);
        kv_str(&mut out, "source", &self.source);
        kv_str(&mut out, "clock", &self.clock);
        kv(&mut out, "probe_ranks", self.probe_ranks);
        kv(&mut out, "probe_state_bytes", self.probe_state_bytes);
        kv(&mut out, "probe_work_s", self.probe_work_s);
        kv_stat(&mut out, "pack", &self.pack);
        kv_stat(&mut out, "gamma", &self.gamma);
        kv_stat(&mut out, "beta", &self.beta);
        kv_stat(&mut out, "wire", &self.wire);
        kv_stat(&mut out, "store", &self.store);
        kv_stat(&mut out, "per_byte", &self.per_byte);
        kv_stat(&mut out, "round_overhead", &self.round_overhead);
        kv_stat(&mut out, "hard_fault_rate", &self.hard_fault_rate);
        kv_stat(&mut out, "sdc_fault_rate", &self.sdc_fault_rate);
        kv(&mut out, "checksum_wins", self.checksum_wins);
        for (name, costs) in [
            ("strong", &self.strong),
            ("medium", &self.medium),
            ("weak", &self.weak),
        ] {
            kv_stat(&mut out, &format!("{name}_delta"), &costs.delta);
            kv_stat(
                &mut out,
                &format!("{name}_hard_restart"),
                &costs.hard_restart,
            );
            kv_stat(&mut out, &format!("{name}_sdc_restart"), &costs.sdc_restart);
        }
        // Drop the trailing ",\n" so the object is valid JSON.
        out.truncate(out.len() - 2);
        out.push_str("\n}\n");
        out
    }

    /// Parse the flat JSON produced by [`Calibration::to_json`] (newlines
    /// and indentation are tolerated anywhere whitespace is legal).
    pub fn from_json(text: &str) -> Result<Self, String> {
        let f = json::Fields::parse(text).map_err(|e| format!("calibration: {e}"))?;
        let stat = |prefix: &str| -> Result<SampleStat, String> {
            Ok(SampleStat {
                mean: num(&f, &format!("{prefix}_mean"))?,
                min: num(&f, &format!("{prefix}_min"))?,
                max: num(&f, &format!("{prefix}_max"))?,
                count: num(&f, &format!("{prefix}_n"))?,
            })
        };
        let costs = |name: &str| -> Result<SchemeCosts, String> {
            Ok(SchemeCosts {
                delta: stat(&format!("{name}_delta"))?,
                hard_restart: stat(&format!("{name}_hard_restart"))?,
                sdc_restart: stat(&format!("{name}_sdc_restart"))?,
            })
        };
        let str = |key: &str| f.str(key).map(str::to_string).ok_or_else(|| missing(key));
        Ok(Self {
            version: num(&f, "version")?,
            source: str("source")?,
            clock: str("clock")?,
            probe_ranks: num(&f, "probe_ranks")?,
            probe_state_bytes: num(&f, "probe_state_bytes")?,
            probe_work_s: num(&f, "probe_work_s")?,
            pack: stat("pack")?,
            gamma: stat("gamma")?,
            beta: stat("beta")?,
            wire: stat("wire")?,
            store: stat("store")?,
            per_byte: stat("per_byte")?,
            round_overhead: stat("round_overhead")?,
            hard_fault_rate: stat("hard_fault_rate")?,
            sdc_fault_rate: stat("sdc_fault_rate")?,
            checksum_wins: f
                .bool("checksum_wins")
                .ok_or_else(|| missing("checksum_wins"))?,
            strong: costs("strong")?,
            medium: costs("medium")?,
            weak: costs("weak")?,
        })
    }
}

fn scale_cost(measured: f64, probe_bytes: f64, per_byte: f64, bytes: f64) -> f64 {
    (measured + (bytes - probe_bytes) * per_byte).max(measured.min(VIRTUAL_RATE_FLOOR))
}

/// One `  "key": token,` line of the artifact's one-key-per-line layout.
fn kv(out: &mut String, key: &str, token: impl std::fmt::Display) {
    use std::fmt::Write;
    let _ = writeln!(out, "  \"{key}\": {token},");
}

fn kv_str(out: &mut String, key: &str, value: &str) {
    let mut quoted = String::from("\"");
    json::escape_into(&mut quoted, value);
    quoted.push('"');
    kv(out, key, quoted);
}

fn kv_stat(out: &mut String, key: &str, stat: &SampleStat) {
    kv(out, &format!("{key}_mean"), stat.mean);
    kv(out, &format!("{key}_min"), stat.min);
    kv(out, &format!("{key}_max"), stat.max);
    kv(out, &format!("{key}_n"), stat.count);
}

fn missing(key: &str) -> String {
    format!("calibration: key {key:?} is missing or has the wrong type")
}

fn num<T: std::str::FromStr>(f: &json::Fields, key: &str) -> Result<T, String> {
    f.num(key).ok_or_else(|| missing(key))
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_calibration() -> Calibration {
        let stat = |v: f64| SampleStat {
            mean: v,
            min: v * 0.9,
            max: v * 1.1,
            count: 4,
        };
        let costs = |d: f64| SchemeCosts {
            delta: stat(d),
            hard_restart: stat(d * 1.5),
            sdc_restart: stat(d * 1.2),
        };
        Calibration {
            version: CALIBRATION_VERSION,
            source: "unit test \"with quotes\"\nand newline".into(),
            clock: "wall".into(),
            probe_ranks: 2,
            probe_state_bytes: 2.0e6,
            probe_work_s: 1.25,
            pack: stat(60e6),
            gamma: stat(4.0e-8),
            beta: stat(4.5e-7),
            wire: stat(2.2e6),
            store: stat(80e6),
            per_byte: stat(9.0e-7),
            round_overhead: stat(3.0e-3),
            hard_fault_rate: stat(6.7),
            sdc_fault_rate: stat(6.7),
            checksum_wins: true,
            strong: costs(0.010),
            medium: costs(0.011),
            weak: costs(0.009),
        }
    }

    #[test]
    fn json_round_trips_exactly() {
        let cal = sample_calibration();
        let json = cal.to_json();
        let back = Calibration::from_json(&json).expect("parse back");
        assert_eq!(cal, back);
        // And the artifact is genuinely line-per-key flat JSON.
        assert!(json.starts_with("{\n"));
        assert!(json.trim_end().ends_with('}'));
        assert!(!json.contains(",\n}"), "no trailing comma");
    }

    #[test]
    fn validate_accepts_the_sample_and_rejects_mutants() {
        let cal = sample_calibration();
        cal.validate().expect("sample is valid");

        let mut bad = cal.clone();
        bad.version = 99;
        assert!(bad.validate().is_err());

        let mut bad = cal.clone();
        bad.clock = "sundial".into();
        assert!(bad.validate().is_err());

        let mut bad = cal.clone();
        bad.beta.mean = f64::NAN;
        assert!(bad.validate().is_err());

        let mut bad = cal.clone();
        bad.strong.delta.count = 0;
        assert!(bad.validate().is_err());

        let mut bad = cal.clone();
        bad.pack.min = bad.pack.max * 2.0; // min > mean
        assert!(bad.validate().is_err());
    }

    #[test]
    fn delta_scaling_is_linear_with_floor() {
        let cal = sample_calibration();
        let at_probe = cal.delta_for_bytes(Scheme::Strong, cal.probe_state_bytes);
        assert!((at_probe - cal.strong.delta.mean).abs() < 1e-15);
        let double = cal.delta_for_bytes(Scheme::Strong, cal.probe_state_bytes * 2.0);
        let expected = cal.strong.delta.mean + cal.probe_state_bytes * cal.per_byte.mean;
        assert!((double - expected).abs() / expected < 1e-12);
        // Extrapolating to zero bytes never goes negative.
        assert!(cal.delta_for_bytes(Scheme::Strong, 0.0) > 0.0);
        // Restart costs scale the same way.
        let hr = cal.hard_restart_for_bytes(Scheme::Weak, cal.probe_state_bytes);
        assert!((hr - cal.weak.hard_restart.mean).abs() < 1e-15);
        let sr = cal.sdc_restart_for_bytes(Scheme::Medium, cal.probe_state_bytes);
        assert!((sr - cal.medium.sdc_restart.mean).abs() < 1e-15);
    }

    #[test]
    fn sample_stat_folds_and_spreads() {
        let s = SampleStat::from_samples(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(s.count, 3);
        assert_eq!(s.spread(), 1.0);
        assert!(SampleStat::from_samples(&[]).is_none());
        let p = SampleStat::point(5.0);
        assert_eq!(p.spread(), 0.0);
        assert_eq!(p.count, 1);
    }

    #[test]
    fn scenario_validation() {
        let s = Scenario::fig8_default();
        s.validate().expect("default scenario is valid");
        let mut bad = s;
        bad.sockets = 0;
        assert!(bad.validate().is_err());
        let mut bad = s;
        bad.work_s = -1.0;
        assert!(bad.validate().is_err());
        let mut bad = s;
        bad.sdc_fit_per_socket = f64::NAN;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn scheme_costs_lookup_matches_fields() {
        let cal = sample_calibration();
        assert_eq!(cal.scheme_costs(Scheme::Strong), &cal.strong);
        assert_eq!(cal.scheme_costs(Scheme::Medium), &cal.medium);
        assert_eq!(cal.scheme_costs(Scheme::Weak), &cal.weak);
    }

    #[test]
    fn parser_rejects_garbage_and_missing_keys() {
        assert!(Calibration::from_json("not json").is_err());
        assert!(Calibration::from_json("{}").is_err());
        let cal = sample_calibration();
        let json = cal.to_json().replace("\"beta_mean\"", "\"beta_gone\"");
        assert!(Calibration::from_json(&json).is_err());
    }
}
