//! # acr-obs — the flight recorder and metrics layer
//!
//! The paper's evaluation (§4, Figs. 6–8) rests on *measuring* where
//! resilience time goes: checkpoint pack/send, SDC comparison, consensus
//! pauses, and per-scheme recovery cost. This crate is the instrumentation
//! substrate that turns every run — real or virtual-clock — into an
//! attributable timeline:
//!
//! * [`Recorder`] — a lock-light flight recorder: fixed-size per-node ring
//!   buffers of timestamped structured events, plus atomic counters and
//!   histograms. When disabled, the emit fast path is a single relaxed
//!   atomic load — no allocation, no formatting, no lock.
//! * [`EventKind`] — the typed event taxonomy covering the whole protocol
//!   surface: consensus phase transitions, checkpoint pack/digest/ship
//!   volume, buddy-compare outcomes with divergence windows, heartbeat and
//!   liveness probes, and per-scheme recovery timelines tagged with the
//!   §2.3 classification.
//! * [`sinks`] — a JSONL event-log writer (one file per run, replayable
//!   byte-for-byte under virtual time), a Prometheus-style text metrics
//!   snapshot, and the human-readable pretty printer behind the `ACR_DEBUG`
//!   live trace.
//! * [`StatusModel`] — a deterministic left-fold of the event stream into
//!   "what is currently true" (per-node phase and buddy assignment, epoch
//!   progress, recovery timeline) serving the driver's `/status` endpoint
//!   and the `acr-top` TUI, live or from a replayed store.
//! * [`report`] — folds an event log into a paper-style overhead breakdown
//!   (forward progress vs. checkpoint vs. compare vs. recovery time, per
//!   scheme) whose rows sum to the run's total duration.
//!
//! Timestamps come from whatever time source the embedder installs — the
//! runtime wires in its job [`Clock`](https://docs.rs/), so virtual-mode
//! traces are deterministic and diffable across runs of the same seed.
//!
//! The crate is dependency-free (std only) so it can sit underneath every
//! other crate in the workspace.

#![warn(missing_docs)]

mod event;
pub mod json;
mod metrics;
mod recorder;
pub mod report;
pub mod sinks;
pub mod status;

pub use event::{EventKind, ObsScope, RecordedEvent, RunPhase};
pub use metrics::{Counter, Histogram};
pub use recorder::{ObsConfig, Recorder, TimeSource, DRIVER_NODE};
pub use report::Breakdown;
pub use status::{JobInfo, NodeRole, NodeStatus, StatusModel, TimelineEntry};
