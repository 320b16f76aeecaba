//! The machine-readable recovery report: what a resume actually did.
//!
//! The shape follows the acceptance-criteria cases of the recovery
//! battery: C-01 resume from the primary slot, C-02 resume over a damaged
//! log tail (skips counted), C-03 fallback to the rollback slot when the
//! primary is corrupt, C-04 fail closed with a guardrail diagnostic when
//! no slot is usable. The report is flat JSON, written with the
//! workspace's std-only [`acr_obs::json`] helpers.

use std::io::{self, Write};
use std::path::Path;

use acr_obs::json::{escape_into, push_raw, push_str};

/// Summary of one recovery attempt, successful or not.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Which checkpoint source seeded the resumed state: `"primary"`,
    /// `"rollback"`, or `"none"` (no committed epoch yet — the job
    /// restarts from its initial state, driven by the replayed log).
    pub source: String,
    /// The committed epoch (driver round) restored, 0 when `source` is
    /// `"none"`.
    pub epoch: u64,
    /// Iteration of the restored checkpoint, 0 when `source` is `"none"`.
    pub iteration: u64,
    /// Log records replayed into driver state (admission through the
    /// chosen commit, inclusive).
    pub records_replayed: u64,
    /// Valid records after the chosen commit that recovery deliberately
    /// rolled back over (post-commit work is re-executed, not replayed).
    pub records_skipped: u64,
    /// Garbage bytes the self-healing log reader skipped (torn tails,
    /// corruption).
    pub bytes_skipped: u64,
    /// Human-actionable notes: fallbacks taken, slots rejected and why,
    /// guardrail violations.
    pub diagnostics: Vec<String>,
}

impl RecoveryReport {
    /// Render as a single flat JSON object (diagnostics as a string
    /// array), newline-terminated.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        push_str(&mut out, "source", &self.source);
        push_raw(&mut out, "epoch", self.epoch);
        push_raw(&mut out, "iteration", self.iteration);
        push_raw(&mut out, "records_replayed", self.records_replayed);
        push_raw(&mut out, "records_skipped", self.records_skipped);
        push_raw(&mut out, "bytes_skipped", self.bytes_skipped);
        out.push_str("\"diagnostics\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            escape_into(&mut out, d);
            out.push('"');
        }
        out.push_str("]}\n");
        out
    }

    /// Write the JSON rendering to `path`.
    pub fn write_json(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_json().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape() {
        let r = RecoveryReport {
            source: "rollback".into(),
            epoch: 4,
            iteration: 160,
            records_replayed: 12,
            records_skipped: 3,
            bytes_skipped: 17,
            diagnostics: vec!["primary slot corrupt: \"trailer\"".into()],
        };
        let j = r.to_json();
        assert!(j.starts_with('{') && j.ends_with("]}\n"), "{j}");
        assert!(j.contains("\"source\":\"rollback\""));
        assert!(j.contains("\"records_replayed\":12"));
        assert!(j.contains("\\\"trailer\\\""), "quotes escaped: {j}");
    }

    #[test]
    fn empty_diagnostics() {
        let j = RecoveryReport::default().to_json();
        assert!(j.contains("\"diagnostics\":[]"), "{j}");
    }
}
