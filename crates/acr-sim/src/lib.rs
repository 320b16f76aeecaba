//! # acr-sim — at-scale simulation of ACR on a torus machine
//!
//! The paper's evaluation ran on Intrepid (IBM Blue Gene/P) at up to
//! 131 072 cores. This crate reproduces those experiments on a laptop by
//! simulating the machine instead of owning one:
//!
//! * [`Machine`] — a BG/P-class model: 3D torus (the same allocation shapes
//!   Intrepid hands out, so the Fig. 8 "Z-dimension plateau" appears for the
//!   same reason), per-link bandwidth, hop latency, serialization and
//!   comparison rates, per-message software overhead.
//! * [`checkpoint_breakdown`] — the Fig. 8 decomposition of one coordinated
//!   checkpoint into local / transfer / compare components, for every
//!   mapping and detection method.
//! * [`restart_breakdown`] — the Fig. 10 decomposition of one restart into
//!   transfer / reconstruction.
//! * [`Timeline`] — an event-driven simulation of a whole job: periodic or
//!   adaptive checkpoints, hard-error recovery under the three schemes,
//!   SDC detection (and *non*-detection in the schemes' unprotected
//!   windows), rework accounting. Regenerates Figs. 9, 11, 12 and
//!   cross-validates the §5 model.

#![warn(missing_docs)]

mod breakdown;
mod machine;
mod timeline;

pub use breakdown::{
    checkpoint_breakdown, restart_breakdown, CheckpointBreakdown, RestartBreakdown,
};
pub use machine::Machine;
pub use timeline::{CostProfile, SimConfig, SimReport, TauPolicy, Timeline};
