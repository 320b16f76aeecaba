//! The §4.2 ship-vs-checksum cost rates.
//!
//! The paper compares two ways of checking a checkpoint against the buddy:
//! ship the payload (network time `β·n`) or ship a Fletcher checksum and
//! compare digests (extra compute `4γ·n`); the checksum wins iff
//! `γ < β/4`.
//!
//! γ and β are *measured*, not assumed: [`GammaBetaEstimator`] folds
//! checksum-rate samples and transfer-rate samples into exponential moving
//! averages. `acr-runtime`'s `calibrate::measure` feeds it from its probe
//! runs and records the verdict in the calibration artifact. The node
//! runtime consults no estimator per round: its delta checkpoints cover
//! clean chunks by digest whenever the payload structure allows, because a
//! β read from each round's compare round trip made the choice feed itself
//! (a delta round ships a tenth of the bytes in about the same time).

/// Measured cost rates, both in seconds per byte.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateEstimate {
    /// Checksum compute rate γ (seconds per byte digested).
    pub gamma: f64,
    /// Network transfer rate β (seconds per byte shipped).
    pub beta: f64,
}

impl RateEstimate {
    /// The paper's §4.2 inequality: checksumming a byte beats shipping it
    /// iff `γ < β/4`.
    pub fn checksum_wins(&self) -> bool {
        self.gamma < self.beta / 4.0
    }
}

/// Rounds without a fresh β sample after which the estimate is stale.
const STALE_AFTER_ROUNDS: u32 = 8;
/// EWMA weight of a new sample.
const EWMA_ALPHA: f64 = 0.3;

/// Exponential-moving-average estimator of γ and β.
///
/// Feed it `observe_gamma` with checksum timings (bytes digested, seconds
/// spent) and `observe_beta` with compare timings (bytes shipped, seconds
/// until the verdict); call [`GammaBetaEstimator::mark_round`] once per
/// sampled checkpoint round so staleness ages. [`GammaBetaEstimator::
/// estimate`] yields `None` until both rates have at least one sample, or
/// again once β goes `STALE_AFTER_ROUNDS` rounds unsampled — the caller
/// must treat `None` as "full ship".
#[derive(Debug, Clone, Default)]
pub struct GammaBetaEstimator {
    gamma: Option<f64>,
    beta: Option<f64>,
    rounds_since_beta: u32,
}

impl GammaBetaEstimator {
    /// Fresh estimator with no samples.
    pub fn new() -> Self {
        Self::default()
    }

    fn fold(slot: &mut Option<f64>, sample: f64) {
        *slot = Some(match *slot {
            None => sample,
            Some(prev) => prev + EWMA_ALPHA * (sample - prev),
        });
    }

    /// Record a checksum-rate sample: `bytes` digested in `secs`.
    /// Non-positive inputs are ignored (virtual clocks can legitimately
    /// measure zero elapsed time; zero would make γ degenerate).
    pub fn observe_gamma(&mut self, bytes: usize, secs: f64) {
        if bytes > 0 && secs > 0.0 {
            Self::fold(&mut self.gamma, secs / bytes as f64);
        }
    }

    /// Record a transfer-rate sample: `bytes` shipped, verdict after
    /// `secs`. Non-positive inputs are ignored.
    pub fn observe_beta(&mut self, bytes: usize, secs: f64) {
        if bytes > 0 && secs > 0.0 {
            Self::fold(&mut self.beta, secs / bytes as f64);
            self.rounds_since_beta = 0;
        }
    }

    /// Age the estimate by one checkpoint round.
    pub fn mark_round(&mut self) {
        self.rounds_since_beta = self.rounds_since_beta.saturating_add(1);
    }

    /// The current estimate, or `None` when unsampled or stale.
    pub fn estimate(&self) -> Option<RateEstimate> {
        if self.rounds_since_beta > STALE_AFTER_ROUNDS {
            return None;
        }
        Some(RateEstimate {
            gamma: self.gamma?,
            beta: self.beta?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_rule_at_the_boundary() {
        let win = RateEstimate {
            gamma: 0.9,
            beta: 4.0,
        };
        assert!(win.checksum_wins());
        let lose = RateEstimate {
            gamma: 1.0,
            beta: 4.0,
        };
        assert!(
            !lose.checksum_wins(),
            "γ = β/4 exactly: shipping ties, ship"
        );
    }

    #[test]
    fn estimator_needs_both_rates() {
        let mut e = GammaBetaEstimator::new();
        assert!(e.estimate().is_none());
        e.observe_gamma(1_000_000, 0.001);
        assert!(e.estimate().is_none(), "β unsampled");
        e.observe_beta(1_000_000, 0.1);
        let est = e.estimate().unwrap();
        assert!((est.gamma - 1e-9).abs() < 1e-15);
        assert!((est.beta - 1e-7).abs() < 1e-13);
        assert!(est.checksum_wins());
    }

    #[test]
    fn estimator_ewma_tracks_new_samples() {
        let mut e = GammaBetaEstimator::new();
        e.observe_gamma(1000, 1.0); // 1e-3 s/B
        e.observe_gamma(1000, 2.0); // sample 2e-3
        let g = e.gamma.unwrap();
        assert!((g - (1e-3 + 0.3 * 1e-3)).abs() < 1e-12);
    }

    #[test]
    fn zero_and_negative_samples_are_ignored() {
        let mut e = GammaBetaEstimator::new();
        e.observe_gamma(0, 1.0);
        e.observe_gamma(100, 0.0);
        e.observe_beta(100, -1.0);
        assert!(e.gamma.is_none());
        assert!(e.beta.is_none());
    }

    #[test]
    fn estimate_goes_stale_without_beta_samples() {
        let mut e = GammaBetaEstimator::new();
        e.observe_gamma(1000, 0.001);
        e.observe_beta(1000, 0.1);
        for _ in 0..STALE_AFTER_ROUNDS {
            e.mark_round();
        }
        assert!(e.estimate().is_some(), "exactly at the limit: still fresh");
        e.mark_round();
        assert!(e.estimate().is_none(), "past the limit: stale");
        // A new β sample revives it.
        e.observe_beta(1000, 0.1);
        assert!(e.estimate().is_some());
    }
}
