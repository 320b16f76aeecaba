//! # acr-core — the ACR protocol as runtime-agnostic state machines
//!
//! The logic of §2 of the paper, factored out of any particular execution
//! substrate so that both the real multithreaded runtime (`acr-runtime`) and
//! the at-scale discrete-event simulator (`acr-sim`) drive the *same* code:
//!
//! * [`ReplicaLayout`] — spare-pool carve-out, replica split, buddy pairing,
//!   and spare promotion when nodes crash (§2.1).
//! * [`ConsensusEngine`] — the four-phase asynchronous checkpoint-iteration
//!   consensus (§2.2, Fig. 3): progress reports, a tree max-reduction, the
//!   decision broadcast, and the ready barrier, with task pausing rules that
//!   make the coordinated checkpoint consistent without global
//!   synchronization on the forward path.
//! * [`CheckpointStore`] — double-buffered local checkpoints: the *verified*
//!   checkpoint survives until its successor passes SDC comparison.
//! * [`SdcDetector`] — full-payload vs. Fletcher-checksum comparison
//!   strategies (§4.2).
//! * [`RecoveryPlanner`] — the strong/medium/weak recovery schemes as
//!   explicit action plans (§2.3, Figs. 4–5), the ones the runtime
//!   executes.
//! * [`HeartbeatMonitor`] — buddy heartbeat bookkeeping used to declare
//!   fail-stopped nodes dead (§6.1).

#![warn(missing_docs)]

mod calib;
mod checkpoint;
mod consensus;
mod detector;
mod heartbeat;
mod layout;
mod policy;
mod recovery;

pub use calib::{
    Calibration, SampleStat, Scenario, SchemeCosts, CALIBRATION_VERSION, VIRTUAL_RATE_FLOOR,
};
pub use checkpoint::{Checkpoint, CheckpointStore, ChunkTable};
pub use consensus::{
    ConsensusAction, ConsensusEngine, ConsensusMsg, ConsensusObserver, ReductionTree,
};
pub use detector::{Detection, DetectionMethod, Divergence, SdcDetector};
pub use heartbeat::HeartbeatMonitor;
pub use layout::{LayoutError, NodeSlot, ReplicaLayout};
pub use policy::{GammaBetaEstimator, RateEstimate};
pub use recovery::{HardError, RecoveryAction, RecoveryPlan, RecoveryPlanner, Scheme};
