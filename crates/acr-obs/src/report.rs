//! Fold an event log into a paper-style overhead breakdown.
//!
//! The driver's [`PhaseEnter`](crate::EventKind::PhaseEnter) events tile
//! the run's timeline — each marker closes the previous phase at the
//! instant it opens the next — so the per-category times produced here sum
//! to the run's total duration *exactly*, the property the paper's Figs.
//! 6–8 overhead stacks rely on. Within a checkpoint round, time up to the
//! last [`CheckpointPack`](crate::EventKind::CheckpointPack) is attributed
//! to **checkpoint** (pack + digest), and the remainder — shipping the
//! comparison record, the buddy compare, and the consensus drain — to
//! **compare**.

use crate::event::{EventKind, RecordedEvent, RunPhase};
use crate::json::{push_raw, push_str, Fields};

/// Per-run overhead breakdown: where the time went, per category.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Breakdown {
    /// Recovery scheme name from the `job_start` event.
    pub scheme: String,
    /// Detection method label from the `job_start` event.
    pub detection: String,
    /// Whether the run completed (from `job_end`).
    pub completed: bool,
    /// Total run duration in (clock) seconds.
    pub total: f64,
    /// Application forward-progress time.
    pub forward: f64,
    /// Checkpoint pack + digest time inside rounds.
    pub checkpoint: f64,
    /// Buddy-compare + consensus-pause time inside rounds.
    pub compare: f64,
    /// Rollback + rebuild + ship + restart time.
    pub recovery: f64,
    /// Checkpoint rounds started.
    pub rounds: u64,
    /// Rounds whose verdict was clean (checkpoint verified).
    pub verified_rounds: u64,
    /// Recoveries started (hard errors + SDC rollbacks).
    pub recoveries: u64,
    /// Global restarts (double failures).
    pub restarts: u64,
    /// Total checkpoint bytes packed across all nodes.
    pub pack_bytes: u64,
    /// Total comparison-record bytes shipped between buddies.
    pub compare_wire_bytes: u64,
    /// Successful transport connections (TCP backend; handshakes, including
    /// reconnects after a socket drop).
    pub transport_connects: u64,
    /// Failed transport dial attempts (reconnect backoff retries).
    pub transport_retries: u64,
    /// Frames crossing node endpoints, both directions summed.
    pub wire_frames: u64,
    /// Bytes crossing node endpoints, both directions summed.
    pub wire_bytes: u64,
    /// Checkpoint-ship body bytes (Compare/Install frames) summed over
    /// all links' `WireBytes` totals.
    pub wire_ship_raw_bytes: u64,
    /// Wire bytes spent on that ship traffic: the bodies plus their
    /// frames' headers and trailers.
    pub wire_ship_wire_bytes: u64,
    /// Send-side writes assembled from ≥ 2 frames.
    pub wire_batch_flushes: u64,
    /// Full-payload bytes the delta compare records stood in for (what
    /// those compares would have shipped without incremental checkpoints).
    pub wire_delta_raw_bytes: u64,
    /// Body bytes the delta compare records actually occupied.
    pub wire_delta_shipped_bytes: u64,
    /// Dirty chunk windows carried across all delta compare records.
    pub wire_chunks_dirty: u64,
    /// Durable-store writes (journal records + checkpoint slots) the
    /// driver performed.
    pub store_appends: u64,
    /// Bytes those durable writes put on disk, framing included.
    pub store_bytes: u64,
    /// fsyncs the store issued ([`EventKind::store_fsyncs`] per write).
    pub store_fsyncs: u64,
}

/// Round to 6 decimals: phase timings in `BENCH_overhead.json` carry
/// sub-microsecond float noise between otherwise identical runs, which
/// made baseline diffs churn on every regeneration.
fn round6(v: f64) -> f64 {
    (v * 1e6).round() / 1e6
}

impl Breakdown {
    /// Fold a (seq-ordered) event log into a breakdown.
    pub fn from_events(events: &[RecordedEvent]) -> Breakdown {
        let mut b = Breakdown::default();
        let Some(first) = events.first() else {
            return b;
        };
        let start_t = first.t;
        let mut phase = RunPhase::Forward;
        let mut phase_start = start_t;
        let mut last_pack_t: Option<f64> = None;
        let mut end_t = start_t;

        let close = |b: &mut Breakdown, phase: RunPhase, s: f64, e: f64, pack: Option<f64>| {
            let span = (e - s).max(0.0);
            match phase {
                RunPhase::Forward => b.forward += span,
                RunPhase::Round => match pack {
                    Some(p) => {
                        b.checkpoint += (p - s).max(0.0);
                        b.compare += (e - p).max(0.0);
                    }
                    None => b.checkpoint += span,
                },
                RunPhase::Rollback | RunPhase::Recovery | RunPhase::Ship | RunPhase::Restart => {
                    b.recovery += span
                }
            }
        };

        let mut iter = events.iter();
        for ev in iter.by_ref() {
            end_t = ev.t;
            match &ev.kind {
                EventKind::JobStart {
                    scheme, detection, ..
                } => {
                    b.scheme = scheme.clone();
                    b.detection = detection.clone();
                }
                EventKind::PhaseEnter { phase: next } => {
                    close(&mut b, phase, phase_start, ev.t, last_pack_t);
                    phase = *next;
                    phase_start = ev.t;
                    last_pack_t = None;
                }
                EventKind::CheckpointPack { bytes, .. } => {
                    last_pack_t = Some(ev.t);
                    b.pack_bytes += bytes;
                }
                EventKind::CompareShip { wire_bytes, .. } => b.compare_wire_bytes += wire_bytes,
                EventKind::TransportConnect { .. } => b.transport_connects += 1,
                EventKind::TransportRetry { .. } => b.transport_retries += 1,
                kind @ EventKind::WireBytes { .. } => b.fold_wire(kind),
                kind @ EventKind::StoreAppend { bytes, .. } => {
                    b.store_appends += 1;
                    b.store_bytes += bytes;
                    b.store_fsyncs += kind.store_fsyncs();
                }
                EventKind::RoundStart { .. } => b.rounds += 1,
                EventKind::RoundVerdict { clean: true, .. } => b.verified_rounds += 1,
                EventKind::RecoveryStart { .. } => b.recoveries += 1,
                EventKind::GlobalRestart { .. } => b.restarts += 1,
                EventKind::JobEnd { completed } => {
                    b.completed = *completed;
                    break;
                }
                _ => {}
            }
        }
        close(&mut b, phase, phase_start, end_t, last_pack_t);
        b.total = end_t - start_t;
        // The transport's per-link lifetime summaries are emitted at
        // teardown, after `JobEnd`; keep folding those (and only those)
        // without letting teardown timestamps stretch the phase totals.
        for ev in iter {
            b.fold_wire(&ev.kind);
        }
        b
    }

    /// Add one link's lifetime [`EventKind::WireBytes`] summary (any other
    /// kind is ignored). Ship and batching totals come from these
    /// summaries only; per-flush `BatchFlush` events would double-count
    /// them.
    fn fold_wire(&mut self, kind: &EventKind) {
        if let EventKind::WireBytes {
            frames_sent,
            bytes_sent,
            frames_recv,
            bytes_recv,
            ship_raw_bytes,
            ship_wire_bytes,
            batch_flushes,
            delta_raw_bytes,
            delta_shipped_bytes,
            chunks_dirty,
        } = kind
        {
            self.wire_frames += frames_sent + frames_recv;
            self.wire_bytes += bytes_sent + bytes_recv;
            self.wire_ship_raw_bytes += ship_raw_bytes;
            self.wire_ship_wire_bytes += ship_wire_bytes;
            self.wire_batch_flushes += batch_flushes;
            self.wire_delta_raw_bytes += delta_raw_bytes;
            self.wire_delta_shipped_bytes += delta_shipped_bytes;
            self.wire_chunks_dirty += chunks_dirty;
        }
    }

    /// Fraction of the run not spent on forward progress (the paper's
    /// "resilience overhead").
    pub fn overhead_fraction(&self) -> f64 {
        if self.total > 0.0 {
            1.0 - self.forward / self.total
        } else {
            0.0
        }
    }

    /// Fraction of full-ship bytes the delta compares avoided:
    /// `1 - shipped/raw`, or 0 when no delta records were sent.
    pub fn delta_savings_fraction(&self) -> f64 {
        if self.wire_delta_raw_bytes > 0 {
            1.0 - self.wire_delta_shipped_bytes as f64 / self.wire_delta_raw_bytes as f64
        } else {
            0.0
        }
    }

    /// Serialize as a single-line JSON object (for `BENCH_overhead.json`).
    /// Phase timings are rounded to microsecond precision — enough for any
    /// overhead comparison, and it stops float noise from churning the
    /// checked-in baseline on every regeneration.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        push_str(&mut out, "scheme", &self.scheme);
        push_str(&mut out, "detection", &self.detection);
        push_raw(&mut out, "completed", self.completed);
        push_raw(&mut out, "total_s", round6(self.total));
        push_raw(&mut out, "forward_s", round6(self.forward));
        push_raw(&mut out, "checkpoint_s", round6(self.checkpoint));
        push_raw(&mut out, "compare_s", round6(self.compare));
        push_raw(&mut out, "recovery_s", round6(self.recovery));
        push_raw(
            &mut out,
            "overhead_fraction",
            round6(self.overhead_fraction()),
        );
        push_raw(&mut out, "rounds", self.rounds);
        push_raw(&mut out, "verified_rounds", self.verified_rounds);
        push_raw(&mut out, "recoveries", self.recoveries);
        push_raw(&mut out, "restarts", self.restarts);
        push_raw(&mut out, "pack_bytes", self.pack_bytes);
        push_raw(&mut out, "compare_wire_bytes", self.compare_wire_bytes);
        push_raw(&mut out, "transport_connects", self.transport_connects);
        push_raw(&mut out, "transport_retries", self.transport_retries);
        push_raw(&mut out, "wire_frames", self.wire_frames);
        push_raw(&mut out, "wire_bytes", self.wire_bytes);
        push_raw(&mut out, "wire_ship_raw_bytes", self.wire_ship_raw_bytes);
        push_raw(&mut out, "wire_ship_wire_bytes", self.wire_ship_wire_bytes);
        push_raw(&mut out, "wire_batch_flushes", self.wire_batch_flushes);
        push_raw(&mut out, "wire_delta_raw_bytes", self.wire_delta_raw_bytes);
        push_raw(
            &mut out,
            "wire_delta_shipped_bytes",
            self.wire_delta_shipped_bytes,
        );
        push_raw(&mut out, "wire_chunks_dirty", self.wire_chunks_dirty);
        push_raw(&mut out, "store_appends", self.store_appends);
        push_raw(&mut out, "store_bytes", self.store_bytes);
        push_raw(&mut out, "store_fsyncs", self.store_fsyncs);
        out.pop();
        out.push('}');
        out
    }

    /// Parse a [`Breakdown::to_json`] line back. Unknown keys (e.g. the
    /// `scenario` label `BENCH_overhead.json` splices in) are ignored;
    /// missing numeric keys default to zero so older baselines stay
    /// readable after new fields are added.
    pub fn from_json(line: &str) -> Result<Breakdown, String> {
        let f = Fields::parse(line)?;
        Ok(Breakdown {
            scheme: f.str("scheme").unwrap_or_default().to_string(),
            detection: f.str("detection").unwrap_or_default().to_string(),
            completed: f.bool("completed").unwrap_or(false),
            total: f.num("total_s").unwrap_or(0.0),
            forward: f.num("forward_s").unwrap_or(0.0),
            checkpoint: f.num("checkpoint_s").unwrap_or(0.0),
            compare: f.num("compare_s").unwrap_or(0.0),
            recovery: f.num("recovery_s").unwrap_or(0.0),
            rounds: f.num("rounds").unwrap_or(0),
            verified_rounds: f.num("verified_rounds").unwrap_or(0),
            recoveries: f.num("recoveries").unwrap_or(0),
            restarts: f.num("restarts").unwrap_or(0),
            pack_bytes: f.num("pack_bytes").unwrap_or(0),
            compare_wire_bytes: f.num("compare_wire_bytes").unwrap_or(0),
            transport_connects: f.num("transport_connects").unwrap_or(0),
            transport_retries: f.num("transport_retries").unwrap_or(0),
            wire_frames: f.num("wire_frames").unwrap_or(0),
            wire_bytes: f.num("wire_bytes").unwrap_or(0),
            wire_ship_raw_bytes: f.num("wire_ship_raw_bytes").unwrap_or(0),
            wire_ship_wire_bytes: f.num("wire_ship_wire_bytes").unwrap_or(0),
            wire_batch_flushes: f.num("wire_batch_flushes").unwrap_or(0),
            wire_delta_raw_bytes: f.num("wire_delta_raw_bytes").unwrap_or(0),
            wire_delta_shipped_bytes: f.num("wire_delta_shipped_bytes").unwrap_or(0),
            wire_chunks_dirty: f.num("wire_chunks_dirty").unwrap_or(0),
            store_appends: f.num("store_appends").unwrap_or(0),
            store_bytes: f.num("store_bytes").unwrap_or(0),
            store_fsyncs: f.num("store_fsyncs").unwrap_or(0),
        })
    }
}

/// Parse a `BENCH_overhead.json` document — a JSON array of scenario-
/// labeled [`Breakdown`] objects, one per line, as `overhead_report`
/// writes it — into `(scenario, breakdown)` rows.
pub fn parse_bench(text: &str) -> Result<Vec<(String, Breakdown)>, String> {
    let mut rows = Vec::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        if line.is_empty() || line == "[" || line == "]" {
            continue;
        }
        let f = Fields::parse(line)?;
        let scenario = f
            .str("scenario")
            .ok_or_else(|| format!("row without a scenario label: {line}"))?
            .to_string();
        rows.push((scenario, Breakdown::from_json(line)?));
    }
    Ok(rows)
}

/// Render breakdowns as a paper-style text table (one row per run).
pub fn render_table(label_header: &str, rows: &[(String, Breakdown)]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{label_header:<18} {:<8} {:>9}  {:>16}  {:>16}  {:>16}  {:>16}",
        "scheme", "total(s)", "forward", "checkpoint", "compare", "recovery"
    );
    let cell = |secs: f64, total: f64| {
        let pct = if total > 0.0 {
            100.0 * secs / total
        } else {
            0.0
        };
        format!("{secs:>9.4} {pct:>5.1}%")
    };
    for (label, b) in rows {
        let _ = writeln!(
            out,
            "{label:<18} {:<8} {:>9.4}  {}  {}  {}  {}",
            b.scheme,
            b.total,
            cell(b.forward, b.total),
            cell(b.checkpoint, b.total),
            cell(b.compare, b.total),
            cell(b.recovery, b.total),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DRIVER_NODE;

    fn ev(seq: u64, t: f64, node: u32, kind: EventKind) -> RecordedEvent {
        RecordedEvent { seq, t, node, kind }
    }

    #[test]
    fn phases_tile_the_timeline() {
        let events = vec![
            ev(
                0,
                0.0,
                DRIVER_NODE,
                EventKind::JobStart {
                    scheme: "strong".into(),
                    detection: "checksum".into(),
                    ranks: 2,
                    spares: 1,
                },
            ),
            ev(
                1,
                0.0,
                DRIVER_NODE,
                EventKind::PhaseEnter {
                    phase: RunPhase::Forward,
                },
            ),
            ev(
                2,
                1.0,
                DRIVER_NODE,
                EventKind::PhaseEnter {
                    phase: RunPhase::Round,
                },
            ),
            ev(3, 1.0, DRIVER_NODE, EventKind::RoundStart { round: 1 }),
            ev(
                4,
                1.3,
                0,
                EventKind::CheckpointPack {
                    bytes: 100,
                    chunks: 1,
                    chunk_size: 100,
                },
            ),
            ev(
                5,
                1.4,
                1,
                EventKind::CheckpointPack {
                    bytes: 100,
                    chunks: 1,
                    chunk_size: 100,
                },
            ),
            ev(
                6,
                2.0,
                DRIVER_NODE,
                EventKind::PhaseEnter {
                    phase: RunPhase::Forward,
                },
            ),
            ev(
                7,
                3.0,
                DRIVER_NODE,
                EventKind::PhaseEnter {
                    phase: RunPhase::Recovery,
                },
            ),
            ev(
                8,
                3.5,
                DRIVER_NODE,
                EventKind::PhaseEnter {
                    phase: RunPhase::Forward,
                },
            ),
            ev(9, 4.0, DRIVER_NODE, EventKind::JobEnd { completed: true }),
        ];
        let b = Breakdown::from_events(&events);
        assert_eq!(b.scheme, "strong");
        assert!(b.completed);
        assert!((b.total - 4.0).abs() < 1e-12);
        // forward: [0,1) + [2,3) + [3.5,4) = 2.5
        assert!((b.forward - 2.5).abs() < 1e-12, "forward={}", b.forward);
        // checkpoint: [1, 1.4) — up to the last pack.
        assert!((b.checkpoint - 0.4).abs() < 1e-12);
        // compare: [1.4, 2.0).
        assert!((b.compare - 0.6).abs() < 1e-12);
        // recovery: [3.0, 3.5).
        assert!((b.recovery - 0.5).abs() < 1e-12);
        let sum = b.forward + b.checkpoint + b.compare + b.recovery;
        assert!((sum - b.total).abs() < 1e-12, "sum={sum} total={}", b.total);
        assert_eq!(b.rounds, 1);
        assert_eq!(b.pack_bytes, 200);
    }

    #[test]
    fn empty_log_is_zeroed() {
        let b = Breakdown::from_events(&[]);
        assert_eq!(b.total, 0.0);
        assert_eq!(b.overhead_fraction(), 0.0);
    }

    #[test]
    fn json_roundtrip() {
        let b = Breakdown {
            scheme: "strong".into(),
            detection: "chunked_checksum".into(),
            completed: true,
            total: 1.25,
            forward: 1.0,
            checkpoint: 0.125,
            compare: 0.0625,
            recovery: 0.0625,
            rounds: 3,
            verified_rounds: 3,
            recoveries: 1,
            restarts: 0,
            pack_bytes: 4096,
            compare_wire_bytes: 512,
            transport_connects: 7,
            transport_retries: 2,
            wire_frames: 1201,
            wire_bytes: 88210,
            wire_ship_raw_bytes: 51200,
            wire_ship_wire_bytes: 20480,
            wire_batch_flushes: 97,
            wire_delta_raw_bytes: 40960,
            wire_delta_shipped_bytes: 10240,
            wire_chunks_dirty: 21,
            store_appends: 15,
            store_bytes: 2048,
            store_fsyncs: 15,
        };
        let parsed = Breakdown::from_json(&b.to_json()).unwrap();
        assert_eq!(parsed, b);
        // A baseline written before wire v7 carries one more key; it is
        // ignored.
        let old = (b.to_json()).replace(
            "\"wire_frames\"",
            "\"wire_plain_bytes\":91022,\"wire_frames\"",
        );
        assert!(old.contains("wire_plain_bytes"));
        assert_eq!(Breakdown::from_json(&old).unwrap(), b);
        assert!((b.delta_savings_fraction() - 0.75).abs() < 1e-12);
    }

    /// Phase timings serialize at microsecond precision: sub-µs noise must
    /// not survive a JSON round trip (it churned baseline diffs).
    #[test]
    fn json_rounds_phase_timings_to_six_decimals() {
        let b = Breakdown {
            scheme: "strong".into(),
            total: 1.000000123456,
            forward: 0.9999994,
            checkpoint: 1e-9,
            ..Breakdown::default()
        };
        let parsed = Breakdown::from_json(&b.to_json()).unwrap();
        assert_eq!(parsed.total, 1.0);
        assert_eq!(parsed.forward, 0.999999);
        assert_eq!(parsed.checkpoint, 0.0);
    }

    #[test]
    fn bench_document_parses_with_scenario_labels() {
        let b = Breakdown {
            scheme: "medium".into(),
            total: 0.5,
            forward: 0.5,
            completed: true,
            ..Breakdown::default()
        };
        let json = b.to_json();
        let spliced = format!(
            "{{\"scenario\":\"fault_free\",{}",
            json.strip_prefix('{').unwrap()
        );
        let doc = format!("[\n  {spliced},\n  {spliced}\n]\n");
        let rows = parse_bench(&doc).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, "fault_free");
        assert_eq!(rows[0].1, b);
        // A row missing its scenario label is an error, not a skip.
        assert!(parse_bench(&format!("[\n  {json}\n]\n")).is_err());
    }

    /// Wire-transport events fold into the breakdown's wire columns.
    #[test]
    fn wire_events_are_attributed() {
        let events = vec![
            ev(
                0,
                0.0,
                DRIVER_NODE,
                EventKind::JobStart {
                    scheme: "strong".into(),
                    detection: "checksum".into(),
                    ranks: 2,
                    spares: 1,
                },
            ),
            ev(1, 0.001, 2, EventKind::TransportConnect { attempt: 1 }),
            ev(
                2,
                0.002,
                3,
                EventKind::TransportRetry {
                    attempt: 1,
                    delay_us: 1000,
                },
            ),
            ev(3, 0.003, 3, EventKind::TransportConnect { attempt: 2 }),
            ev(
                4,
                0.9,
                2,
                EventKind::WireBytes {
                    frames_sent: 100,
                    bytes_sent: 5000,
                    frames_recv: 90,
                    bytes_recv: 4500,
                    ship_raw_bytes: 3000,
                    ship_wire_bytes: 1200,
                    batch_flushes: 12,
                    delta_raw_bytes: 2000,
                    delta_shipped_bytes: 500,
                    chunks_dirty: 4,
                },
            ),
            ev(5, 1.0, DRIVER_NODE, EventKind::JobEnd { completed: true }),
        ];
        let b = Breakdown::from_events(&events);
        assert_eq!(b.transport_connects, 2);
        assert_eq!(b.transport_retries, 1);
        assert_eq!(b.wire_frames, 190);
        assert_eq!(b.wire_bytes, 9500);
        assert_eq!(b.wire_ship_raw_bytes, 3000);
        assert_eq!(b.wire_ship_wire_bytes, 1200);
        assert_eq!(b.wire_batch_flushes, 12);
        assert_eq!(b.wire_delta_raw_bytes, 2000);
        assert_eq!(b.wire_delta_shipped_bytes, 500);
        assert_eq!(b.wire_chunks_dirty, 4);
        assert!((b.delta_savings_fraction() - 0.75).abs() < 1e-12);
    }

    /// Durable-store events fold into the journal-volume columns; the
    /// `round` record counts its bytes but no fsync.
    #[test]
    fn store_events_are_attributed() {
        let events = vec![
            ev(
                0,
                0.0,
                DRIVER_NODE,
                EventKind::StoreAppend {
                    kind: "admit".into(),
                    bytes: 120,
                },
            ),
            ev(
                1,
                0.4,
                DRIVER_NODE,
                EventKind::StoreAppend {
                    kind: "round".into(),
                    bytes: 25,
                },
            ),
            ev(
                2,
                0.5,
                DRIVER_NODE,
                EventKind::StoreAppend {
                    kind: "slot".into(),
                    bytes: 4096,
                },
            ),
            ev(3, 1.0, DRIVER_NODE, EventKind::JobEnd { completed: true }),
        ];
        let b = Breakdown::from_events(&events);
        assert_eq!(b.store_appends, 3);
        assert_eq!(b.store_bytes, 4241);
        assert_eq!(b.store_fsyncs, 2);
    }
}
