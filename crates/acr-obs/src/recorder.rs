//! The flight recorder: per-node ring buffers, a global sequence counter,
//! and a metrics registry behind one shared handle.

use crate::event::{EventKind, RecordedEvent};
use crate::metrics::{Counter, Histogram};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Sentinel node id for driver-side events.
pub const DRIVER_NODE: u32 = u32::MAX;

/// The time source a [`Recorder`] stamps events with.
///
/// The runtime installs its job `Clock` here, so virtual-mode traces carry
/// simulated seconds and are deterministic; embedders without a clock can
/// pass a constant.
pub type TimeSource = Arc<dyn Fn() -> f64 + Send + Sync>;

/// Construction-time knobs for a [`Recorder`].
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// Master switch. When `false`, every emit is a single relaxed atomic
    /// load and returns immediately — no allocation, no lock, no
    /// formatting.
    pub enabled: bool,
    /// Capacity of each per-node ring buffer. When a ring is full the
    /// oldest event is dropped (and counted).
    pub ring_capacity: usize,
    /// Job label for multi-job deployments: when set, every metric family
    /// in [`Recorder::expose`] carries a `job="<name>"` label so scrapes
    /// of different jobs on one host stay distinguishable. `None` (the
    /// default) keeps the label-free single-job exposition byte-identical
    /// to earlier releases.
    pub job: Option<String>,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            enabled: true,
            ring_capacity: 4096,
            job: None,
        }
    }
}

#[derive(Debug, Default)]
struct Ring {
    events: VecDeque<RecordedEvent>,
    dropped: u64,
}

/// The flight recorder.
///
/// One recorder serves a whole job: the driver and every node worker hold
/// an `Arc<Recorder>` and emit into their own ring, so contention between
/// nodes is limited to the shared sequence counter. Events are totally
/// ordered by that counter; [`Recorder::drain`] merges the rings back into
/// emission order.
pub struct Recorder {
    enabled: AtomicBool,
    seq: AtomicU64,
    ring_capacity: usize,
    /// One ring per node plus one for the driver (last index).
    rings: Vec<Mutex<Ring>>,
    time: TimeSource,
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    job: Option<String>,
}

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.is_enabled())
            .field("rings", &self.rings.len())
            .field("seq", &self.seq.load(Ordering::Relaxed))
            .finish()
    }
}

/// Whether `ACR_DEBUG` was set in the environment (read once per process).
fn acr_debug() -> bool {
    static FLAG: OnceLock<bool> = OnceLock::new();
    *FLAG.get_or_init(|| std::env::var_os("ACR_DEBUG").is_some())
}

impl Recorder {
    /// Create a recorder for a job with `nodes` workers (driver included
    /// implicitly). `time` is called at every emission to stamp the event.
    pub fn new(cfg: ObsConfig, nodes: u32, time: TimeSource) -> Arc<Recorder> {
        let rings = (0..=nodes).map(|_| Mutex::new(Ring::default())).collect();
        Arc::new(Recorder {
            enabled: AtomicBool::new(cfg.enabled),
            seq: AtomicU64::new(0),
            ring_capacity: cfg.ring_capacity.max(1),
            rings,
            time,
            counters: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            job: cfg.job,
        })
    }

    /// A permanently disabled recorder (zero-node, constant time source)
    /// for embedders that want instrumentation hooks without a job.
    pub fn disabled() -> Arc<Recorder> {
        Recorder::new(
            ObsConfig {
                enabled: false,
                ring_capacity: 1,
                job: None,
            },
            0,
            Arc::new(|| 0.0),
        )
    }

    /// The job label every exposed metric carries, if one was configured
    /// ([`ObsConfig::job`]).
    pub fn job_label(&self) -> Option<&str> {
        self.job.as_deref()
    }

    /// The disabled-mode fast path: a single relaxed load.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Flip recording on or off at runtime.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether `debug_trace!` sites should format and print. Honors the
    /// `ACR_DEBUG` env-var switch the retired `trace!` macro used.
    #[inline]
    pub fn debug_enabled(&self) -> bool {
        acr_debug()
    }

    /// Record one event for `node` ([`DRIVER_NODE`] for the driver).
    ///
    /// When the recorder is disabled this returns after one relaxed load;
    /// prefer [`Recorder::emit_with`] when building the payload allocates.
    pub fn emit(&self, node: u32, kind: EventKind) {
        if !self.is_enabled() {
            return;
        }
        self.push(node, kind);
    }

    /// Record an event whose payload is built lazily: `make` is not called
    /// (so its arguments are never formatted or allocated) when the
    /// recorder is disabled.
    #[inline]
    pub fn emit_with(&self, node: u32, make: impl FnOnce() -> EventKind) {
        if !self.is_enabled() {
            return;
        }
        self.push(node, make());
    }

    /// Record a free-form debug message and mirror it to stderr.
    ///
    /// Callers guard with [`Recorder::debug_enabled`] (via the
    /// [`debug_trace!`](crate::debug_trace) macro) so the message is never
    /// formatted when `ACR_DEBUG` is unset.
    pub fn emit_debug(&self, node: u32, text: String) {
        let ev = self.stamp(node, EventKind::Debug { text });
        eprintln!("{ev}");
        if self.is_enabled() {
            self.store(ev);
        }
    }

    fn stamp(&self, node: u32, kind: EventKind) -> RecordedEvent {
        RecordedEvent {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            t: (self.time)(),
            node,
            kind,
        }
    }

    fn push(&self, node: u32, kind: EventKind) {
        let ev = self.stamp(node, kind);
        if acr_debug() {
            eprintln!("{ev}");
        }
        self.store(ev);
    }

    fn store(&self, ev: RecordedEvent) {
        let idx = (ev.node as usize).min(self.rings.len() - 1);
        let mut ring = self.rings[idx].lock().expect("obs ring poisoned");
        if ring.events.len() == self.ring_capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(ev);
    }

    /// Copy every buffered event with `seq >= from_seq`, merged into
    /// emission order, **without** consuming the rings.
    ///
    /// This is the read path for live tailing (`GET /events?since=`, the
    /// `/status` fold): pollers remember the highest sequence number they
    /// have seen and ask only for what is new. Unlike [`Recorder::drain`]
    /// the rings stay intact, so the final [`crate::report`] is unaffected
    /// by however many scrapes happened mid-run. Events that rotated out
    /// of a full ring before the caller polled are gone — the
    /// `acr_obs_events_dropped_total` counter is the detector for that.
    pub fn snapshot_since(&self, from_seq: u64) -> Vec<RecordedEvent> {
        let mut all = Vec::new();
        for ring in &self.rings {
            let ring = ring.lock().expect("obs ring poisoned");
            all.extend(ring.events.iter().filter(|ev| ev.seq >= from_seq).cloned());
        }
        all.sort_by_key(|ev| ev.seq);
        all
    }

    /// Take every buffered event, merged back into emission order.
    pub fn drain(&self) -> Vec<RecordedEvent> {
        let mut all = Vec::new();
        for ring in &self.rings {
            let mut ring = ring.lock().expect("obs ring poisoned");
            all.extend(ring.events.drain(..));
        }
        all.sort_by_key(|ev| ev.seq);
        all
    }

    /// Total events discarded to ring wraparound, across all rings.
    pub fn dropped(&self) -> u64 {
        self.rings
            .iter()
            .map(|r| r.lock().expect("obs ring poisoned").dropped)
            .sum()
    }

    /// Get or create the named counter. The handle is cheap to clone and
    /// updates without touching the registry again.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut reg = self.counters.lock().expect("obs registry poisoned");
        reg.entry(name.to_string()).or_default().clone()
    }

    /// Add `by` to the named counter; a no-op (one relaxed load) when the
    /// recorder is disabled.
    pub fn inc_counter(&self, name: &str, by: u64) {
        if !self.is_enabled() {
            return;
        }
        self.counter(name).inc(by);
    }

    /// Get or create the named histogram.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut reg = self.histograms.lock().expect("obs registry poisoned");
        reg.entry(name.to_string()).or_default().clone()
    }

    /// Record an observation in the named histogram; a no-op when the
    /// recorder is disabled.
    pub fn observe(&self, name: &str, v: f64) {
        if !self.is_enabled() {
            return;
        }
        self.histogram(name).observe(v);
    }

    /// Render every registered metric as a Prometheus-style text snapshot.
    ///
    /// Exposition-format guarantees (the `/metrics` endpoint serves this
    /// verbatim, so scrapers rely on them):
    /// - every metric family is preceded by a `# HELP` line and a `# TYPE`
    ///   line, in that order;
    /// - `acr_obs_events_dropped_total` is **always** present (even at 0),
    ///   so the ring-overflow detector does not appear mid-run as a brand
    ///   new series;
    /// - families are emitted in a stable order (counters sorted by name,
    ///   then histograms sorted by name, then the dropped counter).
    ///
    /// A disabled recorder exposes the empty string — there is no scrape
    /// surface when observability is off.
    pub fn expose(&self) -> String {
        use std::fmt::Write;
        if !self.is_enabled() {
            return String::new();
        }
        let mut out = String::new();
        // With a job label configured, every sample line carries
        // `job="<name>"`; without one the exposition stays byte-identical
        // to the label-free single-job format.
        let label = self
            .job
            .as_deref()
            .map(|j| format!("job=\"{}\"", escape_label_value(j)));
        let suffix = match &label {
            Some(l) => format!("{{{l}}}"),
            None => String::new(),
        };
        let counters = self.counters.lock().expect("obs registry poisoned");
        for (name, c) in counters.iter() {
            let _ = writeln!(out, "# HELP {name} {}", metric_help(name));
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name}{suffix} {}", c.get());
        }
        drop(counters);
        let histograms = self.histograms.lock().expect("obs registry poisoned");
        for (name, h) in histograms.iter() {
            let _ = writeln!(out, "# HELP {name} {}", metric_help(name));
            let _ = writeln!(out, "# TYPE {name} histogram");
            h.expose_into(name, label.as_deref(), &mut out);
        }
        drop(histograms);
        let _ = writeln!(
            out,
            "# HELP acr_obs_events_dropped_total {}",
            metric_help("acr_obs_events_dropped_total")
        );
        let _ = writeln!(out, "# TYPE acr_obs_events_dropped_total counter");
        let _ = writeln!(
            out,
            "acr_obs_events_dropped_total{suffix} {}",
            self.dropped()
        );
        out
    }
}

/// Escape a label value per the Prometheus exposition format (backslash,
/// double quote, newline).
fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// One-line `# HELP` text for the metric names the runtime registers.
/// Unknown names (embedder-defined metrics) get a generic line rather
/// than none — the exposition format promises HELP before TYPE for every
/// family.
fn metric_help(name: &str) -> &'static str {
    match name {
        "acr_pack_total" => "Task state captures packed for checkpointing.",
        "acr_pack_bytes_total" => "Bytes of task state packed for checkpointing.",
        "acr_pack_chunks_total" => "Checkpoint chunks produced by packing.",
        "acr_pack_seconds" => "Wall-clock seconds spent packing task state.",
        "acr_compare_wire_bytes_total" => "Bytes shipped between buddies for comparison.",
        "acr_delta_compare_skipped_total" => {
            "Chunks a delta verdict took from the record's digest table."
        }
        "acr_global_restarts_total" => {
            "Whole-job restarts from the newest committed epoch, or from the beginning."
        }
        "acr_heartbeat_expired_total" => "Heartbeat windows that expired on the driver.",
        "acr_nodes_declared_dead_total" => "Nodes the failure detector declared dead.",
        "acr_probe_rounds_total" => "Probe rounds launched against suspect nodes.",
        "acr_send_to_closed_inbox_total" => "Messages dropped on a closed node inbox.",
        "acr_store_appends_total" => "Records appended to the durable driver store.",
        "acr_store_bytes_total" => "Bytes appended to the durable driver store.",
        "acr_store_captures_abandoned_total" => {
            "Verified epochs whose durable capture was dropped before its commit."
        }
        "acr_store_fsyncs_total" => "fsync calls issued by the durable driver store.",
        "acr_transport_connects_total" => "Transport connections established.",
        "acr_transport_probes_total" => "Transport-level liveness probes sent.",
        "acr_transport_retries_total" => "Transport connect/send retries.",
        "acr_transport_stale_total" => "Router links reported detached past the stale window.",
        "acr_buddy_link_attaches_total" => "Direct buddy links attached by the dialing endpoint.",
        "acr_buddy_link_fallbacks_total" => {
            "Buddy links detached past the stale window whose traffic moved to the router."
        }
        "acr_obs_events_dropped_total" => {
            "Events discarded to ring-buffer wraparound (scrape more often or grow ring_capacity)."
        }
        _ => "Embedder-defined metric (no registered help text).",
    }
}

/// Format-and-record a debug message, only evaluating the format arguments
/// when `ACR_DEBUG` is set — the drop-in replacement for the retired
/// `trace!` macro in `acr-runtime`.
///
/// ```
/// # use acr_obs::{debug_trace, Recorder, DRIVER_NODE};
/// # let rec = Recorder::disabled();
/// debug_trace!(rec, DRIVER_NODE, "round {} started", 7);
/// ```
#[macro_export]
macro_rules! debug_trace {
    ($rec:expr, $node:expr, $($arg:tt)*) => {
        if $rec.debug_enabled() {
            $rec.emit_debug($node, format!($($arg)*));
        }
    };
}
