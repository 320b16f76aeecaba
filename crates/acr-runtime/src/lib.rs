//! # acr-runtime — a replicated, message-driven runtime with ACR built in
//!
//! A real (multithreaded) execution substrate that reproduces the paper's
//! Charm++ adaptation of ACR end to end:
//!
//! * Virtual **nodes** are worker threads running message-driven schedulers;
//!   a job's nodes are split into two **replicas** plus a **spare pool**
//!   (§2.1, [`acr_core::ReplicaLayout`]).
//! * Applications implement [`Task`] — a message handler plus the PUP
//!   description of their checkpoint state and an iteration-progress
//!   report (§2.2's hook).
//! * Checkpoints fire through the **four-phase consensus**
//!   ([`acr_core::ConsensusEngine`]) so every task of *both* replicas
//!   checkpoints at the same iteration without forward-path barriers.
//! * Replica-0 nodes ship their checkpoint (or its Fletcher digest, §4.2)
//!   to their replica-1 **buddies**, which compare and report **silent data
//!   corruption**; a mismatch rolls both replicas back to the last verified
//!   checkpoint — application- and user-obliviously.
//! * Fail-stop crashes are detected by **buddy heartbeats** (§6.1) and
//!   recovered per the configured [`acr_core::Scheme`]: a spare node
//!   assumes the dead node's identity and restarts from the buddy's
//!   checkpoint (strong), or the healthy replica ships a fresh state
//!   (medium/weak).
//! * Faults are injected exactly like the paper's §6.1 methodology: a
//!   random bit flip in PUP-visible user data, and a "no-response" crash.
//! * Every protocol transition lands in the [`acr_obs`] **flight
//!   recorder**: the [`JobReport`] carries the structured event log
//!   (JSONL-serializable, byte-identical across virtual-mode replays) and
//!   a metrics snapshot, foldable into per-phase overhead breakdowns.
//! * An opt-in **operator endpoint**
//!   ([`JobConfigBuilder::http_addr`]) serves the live recorder over
//!   HTTP — `/metrics` (Prometheus text), `/status`
//!   ([`acr_obs::StatusModel`] JSON), `/events?since=` (NDJSON tail) —
//!   and [`StoreView`]/[`fold_store`] replay a dead driver's
//!   `persist_dir` into the same status model offline.
//!
//! The entry point is [`Job`]: validate a configuration with
//! [`JobConfig::builder`], then `Job::new(cfg).with_faults(script).run(factory)`
//! to collect a [`JobReport`].
//!
//! Two execution modes are available ([`ExecMode`]): the threaded mode
//! above, and a **virtual-time** mode that pumps every node on one thread
//! against a simulated [`Clock`] — fully deterministic, the substrate of
//! the [`campaign`] module's scripted fault campaigns.

#![warn(missing_docs)]

pub mod calibrate;
pub mod campaign;
mod clock;
mod driver;
mod http;
mod message;
mod node;
mod persist;
mod poller;
mod service;
pub mod soak;
mod storeview;
mod task;
mod tcp;
mod transport;
pub mod wire;

pub use calibrate::{measure, CalClock, CalibrateOptions};
pub use clock::Clock;
pub use driver::{
    ConfigError, ExecMode, Fault, Job, JobBuilder, JobConfig, JobConfigBuilder, JobReport,
    SdcDetection,
};
pub use http::AddrSlot;
pub use message::{AppMsg, NodeIndex, TaskId};
pub use service::{AdmitError, DriverService, JobHandle, ServiceConfig};
pub use storeview::{fold_store, StoreView};
pub use task::{Task, TaskCtx};
pub use transport::{
    run_node_host, run_node_host_for_job, SharedReactor, TcpConfig, TransportControl, TransportKind,
};
#[doc(hidden)]
pub use wire::WireCodec;

pub use acr_core::{DetectionMethod, Divergence, Scheme};
pub use acr_fault::{FaultAction, FaultScript, ScenarioSpace, ScriptedFault, Trigger};
pub use acr_obs::{ObsConfig, RecordedEvent, Recorder};
pub use acr_store::RecoveryReport;
