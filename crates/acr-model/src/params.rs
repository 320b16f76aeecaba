//! Model parameters (Table 1 of the paper), the validating builder that
//! constructs them, and unit helpers.

use acr_core::{Calibration, Scenario};

use crate::schemes::Scheme;

/// Seconds per minute.
pub const MINUTE: f64 = 60.0;
/// Seconds per hour.
pub const HOUR: f64 = 3600.0;
/// Seconds per (Julian) year.
pub const YEAR: f64 = 365.25 * 24.0 * HOUR;
/// One FIT is one failure per 10⁹ device-hours; this is the per-second rate.
pub const FIT_PER_HOUR: f64 = 1.0 / 1e9;

/// The §5 model parameters (Table 1), all times in **seconds**.
///
/// `m_h` and `m_s` are *system-level* mean times between failures: the
/// per-socket rates multiplied by however many sockets the job occupies.
/// Construct with [`ModelParams::builder`], which derives them from
/// per-socket reliability figures the way the paper does, or with
/// [`ModelParams::from_calibration`] to plug in a measured
/// [`Calibration`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelParams {
    /// `W`: total useful computation time of the job.
    pub w: f64,
    /// `δ`: time for one coordinated checkpoint (local write + buddy
    /// exchange + comparison).
    pub delta: f64,
    /// `R_H`: restart time after a hard error.
    pub r_h: f64,
    /// `R_S`: restart time after a detected SDC (local rollback only).
    pub r_s: f64,
    /// `M_H`: system mean time between hard errors.
    pub m_h: f64,
    /// `M_S`: system mean time between silent data corruptions.
    pub m_s: f64,
    /// `S`: sockets per replica (bookkeeping for reports).
    pub sockets_per_replica: u64,
}

/// Why [`ModelParamsBuilder::build`] rejected a configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelParamsError {
    /// A quantity that must be positive and finite was not.
    NonPositive {
        /// Which parameter.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
    /// Sockets per replica must be at least 1.
    ZeroSockets,
    /// The supplied [`Calibration`] failed its own validation.
    BadCalibration(String),
    /// The supplied [`Scenario`] failed its own validation.
    BadScenario(String),
}

impl std::fmt::Display for ModelParamsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NonPositive { name, value } => {
                write!(
                    f,
                    "model parameter {name} must be positive and finite, got {value}"
                )
            }
            Self::ZeroSockets => write!(f, "sockets per replica must be at least 1"),
            Self::BadCalibration(e) => write!(f, "invalid calibration: {e}"),
            Self::BadScenario(e) => write!(f, "invalid scenario: {e}"),
        }
    }
}

impl std::error::Error for ModelParamsError {}

/// Named-setter builder for [`ModelParams`], mirroring the runtime's
/// `JobConfig::builder()`: every knob has a name, `build` validates.
///
/// Defaults are the paper's Fig. 7 baseline: 24 h of work, δ = 15 s,
/// restarts of one checkpoint each, 16K sockets per replica, a 50-year
/// per-socket hard MTBF, and 100 FIT of SDC per socket.
#[derive(Debug, Clone)]
pub struct ModelParamsBuilder {
    work: f64,
    delta: f64,
    r_h: Option<f64>,
    r_s: Option<f64>,
    sockets: u64,
    mtbf_years: f64,
    sdc_fit: f64,
    m_h_override: Option<f64>,
    m_s_override: Option<f64>,
}

impl Default for ModelParamsBuilder {
    fn default() -> Self {
        Self {
            work: 24.0 * HOUR,
            delta: 15.0,
            r_h: None,
            r_s: None,
            sockets: 16384,
            mtbf_years: 50.0,
            sdc_fit: 100.0,
            m_h_override: None,
            m_s_override: None,
        }
    }
}

impl ModelParamsBuilder {
    /// `W`: useful work, seconds.
    pub fn work(mut self, seconds: f64) -> Self {
        self.work = seconds;
        self
    }

    /// `W` in hours (convenience for the paper's "24-hour job" phrasing).
    pub fn work_hours(mut self, hours: f64) -> Self {
        self.work = hours * HOUR;
        self
    }

    /// `δ`: one coordinated checkpoint, seconds. Unless overridden, the
    /// restart costs default to one δ each (the paper's assumption).
    pub fn delta(mut self, seconds: f64) -> Self {
        self.delta = seconds;
        self
    }

    /// Set both restart costs (`R_H` and `R_S`) at once.
    pub fn restart(mut self, seconds: f64) -> Self {
        self.r_h = Some(seconds);
        self.r_s = Some(seconds);
        self
    }

    /// `R_H`: hard-error restart, seconds.
    pub fn hard_restart(mut self, seconds: f64) -> Self {
        self.r_h = Some(seconds);
        self
    }

    /// `R_S`: detected-SDC rollback, seconds.
    pub fn sdc_restart(mut self, seconds: f64) -> Self {
        self.r_s = Some(seconds);
        self
    }

    /// `S`: sockets per replica (the Fig. 7 x-axis). System rates scale
    /// with this **per-replica** count: the model tracks failures as seen
    /// by one replica's execution, and the companion replica's influence
    /// enters through the scheme rework terms, not through a doubled raw
    /// rate. (Scaling by `2S` instead shifts every curve by a constant
    /// factor without changing any ordering.)
    pub fn sockets(mut self, sockets_per_replica: u64) -> Self {
        self.sockets = sockets_per_replica;
        self
    }

    /// Per-socket hard-error MTBF in years (the paper uses Jaguar's 50).
    pub fn mtbf_years(mut self, years: f64) -> Self {
        self.mtbf_years = years;
        self.m_h_override = None;
        self
    }

    /// Per-socket SDC rate in FIT (the paper uses 100 and 10 000). Zero
    /// means no SDC (`M_S = ∞`).
    pub fn sdc_fit(mut self, fit: f64) -> Self {
        self.sdc_fit = fit;
        self.m_s_override = None;
        self
    }

    /// Directly pin the *system* hard-error MTBF in seconds, bypassing the
    /// per-socket derivation (used when the failure rate is measured, e.g.
    /// when matching an injected fault campaign).
    pub fn system_mtbf(mut self, seconds: f64) -> Self {
        self.m_h_override = Some(seconds);
        self
    }

    /// Directly pin the *system* SDC MTBF in seconds (may be
    /// `f64::INFINITY` for an SDC-free scenario).
    pub fn system_sdc_mtbf(mut self, seconds: f64) -> Self {
        self.m_s_override = Some(seconds);
        self
    }

    /// Seed work, δ, restarts, sockets, and reliability from a measured
    /// [`Calibration`] asked about a [`Scenario`]: δ and the restart costs
    /// are the scheme's measured values extrapolated to the scenario's
    /// per-socket state size.
    pub fn calibration(mut self, cal: &Calibration, scheme: Scheme, scenario: &Scenario) -> Self {
        let bytes = scenario.state_bytes_per_socket;
        self.work = scenario.work_s;
        self.delta = cal.delta_for_bytes(scheme, bytes);
        self.r_h = Some(cal.hard_restart_for_bytes(scheme, bytes));
        self.r_s = Some(cal.sdc_restart_for_bytes(scheme, bytes));
        self.sockets = scenario.sockets;
        self.mtbf_years = scenario.mtbf_years_per_socket;
        self.sdc_fit = scenario.sdc_fit_per_socket;
        self.m_h_override = None;
        self.m_s_override = None;
        self
    }

    /// Validate and construct the [`ModelParams`].
    pub fn build(self) -> Result<ModelParams, ModelParamsError> {
        let positive = |name: &'static str, value: f64| -> Result<f64, ModelParamsError> {
            if value.is_finite() && value > 0.0 {
                Ok(value)
            } else {
                Err(ModelParamsError::NonPositive { name, value })
            }
        };
        let w = positive("work", self.work)?;
        let delta = positive("delta", self.delta)?;
        let r_h = positive("hard_restart", self.r_h.unwrap_or(self.delta))?;
        let r_s = positive("sdc_restart", self.r_s.unwrap_or(self.delta))?;
        if self.sockets == 0 {
            return Err(ModelParamsError::ZeroSockets);
        }
        let sockets = self.sockets as f64;
        let m_h = match self.m_h_override {
            Some(m) => positive("system_mtbf", m)?,
            None => positive("mtbf_years", self.mtbf_years)? * YEAR / sockets,
        };
        let m_s = match self.m_s_override {
            Some(m) if m.is_infinite() && m > 0.0 => m,
            Some(m) => positive("system_sdc_mtbf", m)?,
            None => {
                if !(self.sdc_fit.is_finite() && self.sdc_fit >= 0.0) {
                    return Err(ModelParamsError::NonPositive {
                        name: "sdc_fit",
                        value: self.sdc_fit,
                    });
                }
                let rate = self.sdc_fit * FIT_PER_HOUR / HOUR * sockets;
                if rate > 0.0 {
                    1.0 / rate
                } else {
                    f64::INFINITY
                }
            }
        };
        Ok(ModelParams {
            w,
            delta,
            r_h,
            r_s,
            m_h,
            m_s,
            sockets_per_replica: self.sockets,
        })
    }
}

impl ModelParams {
    /// Start a named-setter builder with the paper's Fig. 7 defaults.
    pub fn builder() -> ModelParamsBuilder {
        ModelParamsBuilder::default()
    }

    /// Parameters from a measured [`Calibration`] asked about a
    /// [`Scenario`] — one side of the runtime × simulator × model
    /// triangle. Both inputs are validated first.
    pub fn from_calibration(
        cal: &Calibration,
        scheme: Scheme,
        scenario: &Scenario,
    ) -> Result<Self, ModelParamsError> {
        cal.validate().map_err(ModelParamsError::BadCalibration)?;
        scenario.validate().map_err(ModelParamsError::BadScenario)?;
        Self::builder().calibration(cal, scheme, scenario).build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_sockets_via_builder(
        w: f64,
        delta: f64,
        sockets: u64,
        years: f64,
        fit: f64,
    ) -> ModelParams {
        ModelParams::builder()
            .work(w)
            .delta(delta)
            .restart(delta)
            .sockets(sockets)
            .mtbf_years(years)
            .sdc_fit(fit)
            .build()
            .expect("valid")
    }

    #[test]
    fn system_mtbf_scales_inversely_with_sockets() {
        let a = from_sockets_via_builder(1e5, 15.0, 1024, 50.0, 100.0);
        let b = from_sockets_via_builder(1e5, 15.0, 4096, 50.0, 100.0);
        assert!((a.m_h / b.m_h - 4.0).abs() < 1e-9);
        assert!((a.m_s / b.m_s - 4.0).abs() < 1e-9);
    }

    #[test]
    fn fit_conversion_matches_hand_calculation() {
        // 100 FIT * 1K sockets = 102,400 failures / 1e9 h
        // => M_S = 1e9/102400 h ≈ 9765.6 h
        let p = from_sockets_via_builder(1.0, 1.0, 1024, 50.0, 100.0);
        let expected_hours = 1e9 / (100.0 * 1024.0);
        assert!((p.m_s / HOUR - expected_hours).abs() / expected_hours < 1e-12);
    }

    #[test]
    fn hard_mtbf_example() {
        // 50 years per socket over 16K sockets ≈ 50*365.25*24/16384 h ≈ 26.7 h
        let p = from_sockets_via_builder(1.0, 1.0, 16384, 50.0, 100.0);
        let hours = p.m_h / HOUR;
        assert!((hours - 50.0 * 365.25 * 24.0 / 16384.0).abs() < 1e-9);
    }

    #[test]
    fn zero_fit_means_no_sdc() {
        let p = from_sockets_via_builder(1.0, 1.0, 1024, 50.0, 0.0);
        assert!(p.m_s.is_infinite());
    }

    #[test]
    fn builder_defaults_are_the_fig7_baseline() {
        let p = ModelParams::builder().build().unwrap();
        assert_eq!(p.w, 24.0 * HOUR);
        assert_eq!(p.delta, 15.0);
        assert_eq!(p.r_h, 15.0);
        assert_eq!(p.r_s, 15.0);
        assert_eq!(p.sockets_per_replica, 16384);
    }

    #[test]
    fn builder_restart_defaults_track_delta() {
        let p = ModelParams::builder().delta(42.0).build().unwrap();
        assert_eq!(p.r_h, 42.0);
        assert_eq!(p.r_s, 42.0);
        // An explicit restart overrides the default.
        let p = ModelParams::builder()
            .delta(42.0)
            .hard_restart(7.0)
            .build()
            .unwrap();
        assert_eq!(p.r_h, 7.0);
        assert_eq!(p.r_s, 42.0);
    }

    #[test]
    fn builder_validation_rejects_bad_inputs() {
        assert!(matches!(
            ModelParams::builder().work(-1.0).build(),
            Err(ModelParamsError::NonPositive { name: "work", .. })
        ));
        assert!(matches!(
            ModelParams::builder().delta(f64::NAN).build(),
            Err(ModelParamsError::NonPositive { name: "delta", .. })
        ));
        assert!(matches!(
            ModelParams::builder().sockets(0).build(),
            Err(ModelParamsError::ZeroSockets)
        ));
        assert!(matches!(
            ModelParams::builder().mtbf_years(0.0).build(),
            Err(ModelParamsError::NonPositive {
                name: "mtbf_years",
                ..
            })
        ));
        assert!(matches!(
            ModelParams::builder().sdc_fit(-3.0).build(),
            Err(ModelParamsError::NonPositive {
                name: "sdc_fit",
                ..
            })
        ));
        // Errors render.
        let e = ModelParams::builder().work(-1.0).build().unwrap_err();
        assert!(e.to_string().contains("work"));
    }

    #[test]
    fn system_overrides_pin_the_mtbfs() {
        let p = ModelParams::builder()
            .system_mtbf(1234.0)
            .system_sdc_mtbf(f64::INFINITY)
            .build()
            .unwrap();
        assert_eq!(p.m_h, 1234.0);
        assert!(p.m_s.is_infinite());
        // A later per-socket setter clears the override.
        let p = ModelParams::builder()
            .system_mtbf(1234.0)
            .mtbf_years(50.0)
            .sockets(1024)
            .build()
            .unwrap();
        assert!((p.m_h - 50.0 * YEAR / 1024.0).abs() < 1e-6);
        // Negative overrides are rejected.
        assert!(ModelParams::builder().system_mtbf(-5.0).build().is_err());
        assert!(ModelParams::builder()
            .system_sdc_mtbf(f64::NEG_INFINITY)
            .build()
            .is_err());
    }
}
