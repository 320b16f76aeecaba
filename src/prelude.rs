//! One-line import for the common case: the [`Job`] entry point, its
//! builders, and the configuration/reporting types nearly every embedder
//! touches.
//!
//! ```no_run
//! use acr::prelude::*;
//!
//! let cfg = JobConfig::builder().ranks(2).build().unwrap();
//! let report = Job::new(cfg)
//!     .mode(ExecMode::virtual_default())
//!     .run(|_rank, _task| unimplemented!("task factory"));
//! ```

pub use acr_runtime::{
    ConfigError, DetectionMethod, ExecMode, Fault, FaultAction, FaultScript, Job, JobBuilder,
    JobConfig, JobConfigBuilder, JobReport, Scheme, Task, TaskCtx, TcpConfig, TransportKind,
    Trigger,
};
