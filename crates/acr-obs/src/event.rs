//! The typed event taxonomy covering the protocol surface.
//!
//! Every event is a [`RecordedEvent`]: a monotone sequence number, a
//! timestamp from the embedder's clock (seconds since job start), the node
//! that emitted it, and a typed [`EventKind`] payload. Events serialize to
//! single-line flat JSON objects and parse back losslessly, so a JSONL log
//! is a replayable record of the run.
//!
//! Payloads carry only *deterministic* quantities — virtual-clock
//! timestamps, byte counts, rounds, digests. Wall-clock latencies (which
//! differ run to run even under virtual time) belong in the metrics
//! registry, never in events; that is what makes two virtual-mode runs of
//! the same seed produce byte-identical logs.

use crate::json::{push_raw, push_str, Fields};
use std::fmt;

/// Which side of the dual-replica protocol an event refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsScope {
    /// The whole job (driver-side events).
    Global,
    /// One replica (0 or 1) of a dual-replicated rank.
    Replica(u8),
}

impl ObsScope {
    fn label(self) -> String {
        match self {
            ObsScope::Global => "global".to_string(),
            ObsScope::Replica(r) => format!("r{r}"),
        }
    }

    fn parse(s: &str) -> Option<ObsScope> {
        match s {
            "global" => Some(ObsScope::Global),
            _ => s.strip_prefix('r')?.parse().ok().map(ObsScope::Replica),
        }
    }
}

/// Driver-level phase of the run, used to partition the timeline.
///
/// [`PhaseEnter`](EventKind::PhaseEnter) events mark the instant the driver
/// switches phase; consecutive markers therefore tile `[0, total]` with no
/// gaps or overlaps, which is what lets the overhead report's rows sum to
/// the run duration exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RunPhase {
    /// Application forward progress between checkpoint rounds.
    Forward,
    /// A four-phase checkpoint consensus round (pack + compare + commit).
    Round,
    /// Waiting for survivors to roll back after a failure.
    Rollback,
    /// Rebuilding the dead replica on a spare.
    Recovery,
    /// The verification ship-round that closes a weak/medium recovery.
    Ship,
    /// Global restart from the last verified checkpoint (double failure).
    Restart,
}

impl RunPhase {
    /// Stable wire label.
    pub fn label(self) -> &'static str {
        match self {
            RunPhase::Forward => "forward",
            RunPhase::Round => "round",
            RunPhase::Rollback => "rollback",
            RunPhase::Recovery => "recovery",
            RunPhase::Ship => "ship",
            RunPhase::Restart => "restart",
        }
    }

    fn parse(s: &str) -> Option<RunPhase> {
        Some(match s {
            "forward" => RunPhase::Forward,
            "round" => RunPhase::Round,
            "rollback" => RunPhase::Rollback,
            "recovery" => RunPhase::Recovery,
            "ship" => RunPhase::Ship,
            "restart" => RunPhase::Restart,
            _ => return None,
        })
    }
}

/// The typed payload of one flight-recorder event.
///
/// Variants map one-to-one onto the protocol surface described in the
/// paper: §2.2 four-phase consensus, §4.2 buddy comparison, §2.3 recovery
/// schemes, §6.1 liveness. String fields use the protocol's own stable
/// names (`Scheme::name()`, detection-method labels) so logs stay readable
/// without this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// The driver started a job.
    JobStart {
        /// Recovery scheme name (`strong` / `medium` / `weak`).
        scheme: String,
        /// SDC detection method label.
        detection: String,
        /// Number of dual-replicated ranks.
        ranks: u32,
        /// Number of spare nodes.
        spares: u32,
    },
    /// The driver finished (or abandoned) the job.
    JobEnd {
        /// Whether every rank reached the iteration target.
        completed: bool,
    },
    /// The driver entered a new [`RunPhase`].
    PhaseEnter {
        /// The phase being entered at this timestamp.
        phase: RunPhase,
    },
    /// A global checkpoint round began (driver broadcast `StartRound`).
    RoundStart {
        /// Monotone round number.
        round: u64,
    },
    /// A checkpoint round completed and its verdict is known.
    RoundVerdict {
        /// Round number the verdict belongs to.
        round: u64,
        /// Application iteration the checkpoint captured.
        iteration: u64,
        /// `true` when both replicas agreed (checkpoint verified).
        clean: bool,
    },
    /// A node's consensus engine moved to a new §2.2 phase.
    ConsensusPhase {
        /// Which replica's engine (engines are per-replica on each node).
        scope: ObsScope,
        /// Round the engine is processing.
        round: u64,
        /// Engine phase ordinal: 0 idle, 1 collecting, 2 await-decision,
        /// 3 draining, 4 await-go.
        phase: u8,
    },
    /// A node packed its local checkpoint (fused pack+digest pipeline).
    CheckpointPack {
        /// Serialized checkpoint payload size in bytes.
        bytes: u64,
        /// Number of chunks in the per-chunk digest table.
        chunks: u32,
        /// Configured chunk size in bytes.
        chunk_size: u32,
    },
    /// A node shipped its comparison record to its buddy.
    CompareShip {
        /// Application iteration being compared.
        iteration: u64,
        /// Bytes placed on the wire by the detection method.
        wire_bytes: u64,
        /// Detection method label.
        method: String,
    },
    /// The buddy comparison for an iteration resolved.
    CompareOutcome {
        /// Application iteration compared.
        iteration: u64,
        /// `true` when the replicas matched.
        clean: bool,
        /// Total bytes inside divergence windows (0 when clean).
        diverged_bytes: u64,
        /// Number of divergence windows localized.
        windows: u32,
    },
    /// A node's buddy heartbeat lapsed past the timeout.
    HeartbeatExpired {
        /// The node declared silent.
        dead: u32,
    },
    /// The driver sent a liveness probe (§6.1 backstop) to a suspect.
    ProbeSent {
        /// The node being probed.
        suspect: u32,
    },
    /// A liveness probe went unanswered; the suspect is dead.
    ProbeDeath {
        /// The node confirmed dead.
        dead: u32,
    },
    /// The driver committed to a node's death and classified the failure.
    NodeDead {
        /// The dead node.
        dead: u32,
        /// Replica index the dead node belonged to.
        replica: u8,
        /// Rank the dead node computed.
        rank: u32,
    },
    /// A scripted fault fired on a node.
    FaultInjected {
        /// Fault label (`crash`, `sdc`, `heartbeat_delay`, …).
        kind: String,
        /// Application iteration at injection time.
        iteration: u64,
    },
    /// Recovery began for a failure, tagged with the §2.3 classification.
    RecoveryStart {
        /// Recovery scheme in force.
        scheme: String,
        /// §2.3 exposure class of the scheme (`verified` /
        /// `unverified-window` / `unverified`).
        class: String,
        /// The dead node being replaced.
        dead: u32,
        /// Spare chosen as the replacement.
        spare: u32,
    },
    /// The planner produced the recovery plan the driver then executes,
    /// action for action.
    RecoveryPlan {
        /// Number of planned actions.
        actions: u32,
        /// Cross-replica checkpoint transfers the plan requires.
        inter_replica_messages: u32,
        /// Whether survivors must recompute from an older checkpoint.
        rework: bool,
    },
    /// Recovery finished and the job resumed.
    RecoveryDone {
        /// `true` when the resumed state is not yet buddy-verified
        /// (weak/medium schemes until the next clean round).
        unverified: bool,
    },
    /// Both members of a buddy pair died; recovery collapsed to restart.
    RecoveryCollapsed {
        /// The second casualty that triggered the collapse.
        dead: u32,
    },
    /// The driver restarted every rank from the newest committed epoch, or
    /// from the beginning.
    GlobalRestart {
        /// Iteration of the epoch being restored (0: the beginning).
        iteration: u64,
    },
    /// (TCP transport) a node's endpoint completed the connect/accept
    /// handshake with the driver's router.
    TransportConnect {
        /// Dial attempts this (re)connection took (1 = first try).
        attempt: u32,
    },
    /// (TCP transport) a dial attempt failed; the endpoint backs off.
    TransportRetry {
        /// Failed attempt number since the last successful connect.
        attempt: u32,
        /// Backoff delay before the next attempt, in microseconds.
        delay_us: u64,
    },
    /// (TCP transport) a node endpoint's lifetime wire-traffic totals,
    /// emitted once at teardown so a [`crate::Breakdown`] can attribute
    /// frame/byte volume per node.
    WireBytes {
        /// Frames successfully written to the socket.
        frames_sent: u64,
        /// Bytes successfully written (headers + trailers included).
        bytes_sent: u64,
        /// Frames received and accepted (replay duplicates excluded).
        frames_recv: u64,
        /// Raw bytes read off the socket.
        bytes_recv: u64,
        /// Body bytes of checkpoint-ship frames (`Net::Compare` /
        /// `Net::Install`) sent on this link.
        ship_raw_bytes: u64,
        /// Wire bytes spent on that ship traffic: the bodies plus their
        /// frames' headers and trailers.
        ship_wire_bytes: u64,
        /// Writes assembled from ≥ 2 frames.
        batch_flushes: u64,
        /// Full-payload bytes the link's delta compare records stood in
        /// for (what a full ship would have cost).
        delta_raw_bytes: u64,
        /// Body bytes those delta records actually occupied.
        delta_shipped_bytes: u64,
        /// Dirty chunk windows carried across all delta records.
        chunks_dirty: u64,
    },
    /// (TCP transport) one write assembled from ≥ 2 frames. Lone frames
    /// emit nothing, so event volume stays bounded by send-side coalescing
    /// opportunities.
    BatchFlush {
        /// Frames assembled into this write.
        frames: u64,
        /// Their body bytes.
        raw_bytes: u64,
        /// Bytes that went on the wire (bodies + headers + trailers).
        wire_bytes: u64,
    },
    /// The driver appended a record to its durable event log (or wrote a
    /// checkpoint slot), followed by an fsync — unless
    /// [`EventKind::store_fsyncs`] says otherwise.
    StoreAppend {
        /// Record kind label (`admit`, `round`, `trigger`, `dead`,
        /// `promote`, `commit`, `closed`, `slot`).
        kind: String,
        /// Bytes this durable write put on disk (framing included).
        bytes: u64,
    },
    /// A resumed driver finished replaying its durable store.
    StoreRecover {
        /// Checkpoint source used: `primary`, `rollback`, or `none`.
        source: String,
        /// Log records replayed into driver state.
        replayed: u64,
        /// Valid post-commit records rolled back over.
        skipped: u64,
    },
    /// A free-form debug message from a `debug_trace!` site.
    Debug {
        /// The formatted message.
        text: String,
    },
}

impl EventKind {
    /// fsyncs the durable store issued for this event: one per
    /// [`EventKind::StoreAppend`], except the `round` record, which is
    /// written without one of its own and becomes durable with the next
    /// record's (a log from before that rule reads one per round short).
    pub fn store_fsyncs(&self) -> u64 {
        match self {
            EventKind::StoreAppend { kind, .. } if kind != "round" => 1,
            _ => 0,
        }
    }

    /// Stable wire name of this event type (the JSON `ev` field).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::JobStart { .. } => "job_start",
            EventKind::JobEnd { .. } => "job_end",
            EventKind::PhaseEnter { .. } => "phase_enter",
            EventKind::RoundStart { .. } => "round_start",
            EventKind::RoundVerdict { .. } => "round_verdict",
            EventKind::ConsensusPhase { .. } => "consensus_phase",
            EventKind::CheckpointPack { .. } => "checkpoint_pack",
            EventKind::CompareShip { .. } => "compare_ship",
            EventKind::CompareOutcome { .. } => "compare_outcome",
            EventKind::HeartbeatExpired { .. } => "heartbeat_expired",
            EventKind::ProbeSent { .. } => "probe_sent",
            EventKind::ProbeDeath { .. } => "probe_death",
            EventKind::NodeDead { .. } => "node_dead",
            EventKind::FaultInjected { .. } => "fault_injected",
            EventKind::RecoveryStart { .. } => "recovery_start",
            EventKind::RecoveryPlan { .. } => "recovery_plan",
            EventKind::RecoveryDone { .. } => "recovery_done",
            EventKind::RecoveryCollapsed { .. } => "recovery_collapsed",
            EventKind::GlobalRestart { .. } => "global_restart",
            EventKind::TransportConnect { .. } => "transport_connect",
            EventKind::TransportRetry { .. } => "transport_retry",
            EventKind::WireBytes { .. } => "wire_bytes",
            EventKind::BatchFlush { .. } => "batch_flush",
            EventKind::StoreAppend { .. } => "store_append",
            EventKind::StoreRecover { .. } => "store_recover",
            EventKind::Debug { .. } => "debug",
        }
    }

    fn write_fields(&self, out: &mut String) {
        match self {
            EventKind::JobStart {
                scheme,
                detection,
                ranks,
                spares,
            } => {
                push_str(out, "scheme", scheme);
                push_str(out, "detection", detection);
                push_raw(out, "ranks", ranks);
                push_raw(out, "spares", spares);
            }
            EventKind::JobEnd { completed } => push_raw(out, "completed", completed),
            EventKind::PhaseEnter { phase } => push_str(out, "phase", phase.label()),
            EventKind::RoundStart { round } => push_raw(out, "round", round),
            EventKind::RoundVerdict {
                round,
                iteration,
                clean,
            } => {
                push_raw(out, "round", round);
                push_raw(out, "iteration", iteration);
                push_raw(out, "clean", clean);
            }
            EventKind::ConsensusPhase {
                scope,
                round,
                phase,
            } => {
                push_str(out, "scope", &scope.label());
                push_raw(out, "round", round);
                push_raw(out, "phase", phase);
            }
            EventKind::CheckpointPack {
                bytes,
                chunks,
                chunk_size,
            } => {
                push_raw(out, "bytes", bytes);
                push_raw(out, "chunks", chunks);
                push_raw(out, "chunk_size", chunk_size);
            }
            EventKind::CompareShip {
                iteration,
                wire_bytes,
                method,
            } => {
                push_raw(out, "iteration", iteration);
                push_raw(out, "wire_bytes", wire_bytes);
                push_str(out, "method", method);
            }
            EventKind::CompareOutcome {
                iteration,
                clean,
                diverged_bytes,
                windows,
            } => {
                push_raw(out, "iteration", iteration);
                push_raw(out, "clean", clean);
                push_raw(out, "diverged_bytes", diverged_bytes);
                push_raw(out, "windows", windows);
            }
            EventKind::HeartbeatExpired { dead } => push_raw(out, "dead", dead),
            EventKind::ProbeSent { suspect } => push_raw(out, "suspect", suspect),
            EventKind::ProbeDeath { dead } => push_raw(out, "dead", dead),
            EventKind::NodeDead {
                dead,
                replica,
                rank,
            } => {
                push_raw(out, "dead", dead);
                push_raw(out, "replica", replica);
                push_raw(out, "rank", rank);
            }
            EventKind::FaultInjected { kind, iteration } => {
                push_str(out, "kind", kind);
                push_raw(out, "iteration", iteration);
            }
            EventKind::RecoveryStart {
                scheme,
                class,
                dead,
                spare,
            } => {
                push_str(out, "scheme", scheme);
                push_str(out, "class", class);
                push_raw(out, "dead", dead);
                push_raw(out, "spare", spare);
            }
            EventKind::RecoveryPlan {
                actions,
                inter_replica_messages,
                rework,
            } => {
                push_raw(out, "actions", actions);
                push_raw(out, "inter_replica_messages", inter_replica_messages);
                push_raw(out, "rework", rework);
            }
            EventKind::RecoveryDone { unverified } => push_raw(out, "unverified", unverified),
            EventKind::RecoveryCollapsed { dead } => push_raw(out, "dead", dead),
            EventKind::GlobalRestart { iteration } => push_raw(out, "iteration", iteration),
            EventKind::TransportConnect { attempt } => push_raw(out, "attempt", attempt),
            EventKind::TransportRetry { attempt, delay_us } => {
                push_raw(out, "attempt", attempt);
                push_raw(out, "delay_us", delay_us);
            }
            EventKind::WireBytes {
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
            } => {
                push_raw(out, "frames_sent", frames_sent);
                push_raw(out, "bytes_sent", bytes_sent);
                push_raw(out, "frames_recv", frames_recv);
                push_raw(out, "bytes_recv", bytes_recv);
                push_raw(out, "ship_raw_bytes", ship_raw_bytes);
                push_raw(out, "ship_wire_bytes", ship_wire_bytes);
                push_raw(out, "batch_flushes", batch_flushes);
                push_raw(out, "delta_raw_bytes", delta_raw_bytes);
                push_raw(out, "delta_shipped_bytes", delta_shipped_bytes);
                push_raw(out, "chunks_dirty", chunks_dirty);
            }
            EventKind::BatchFlush {
                frames,
                raw_bytes,
                wire_bytes,
            } => {
                push_raw(out, "frames", frames);
                push_raw(out, "raw_bytes", raw_bytes);
                push_raw(out, "wire_bytes", wire_bytes);
            }
            EventKind::StoreAppend { kind, bytes } => {
                push_str(out, "kind", kind);
                push_raw(out, "bytes", bytes);
            }
            EventKind::StoreRecover {
                source,
                replayed,
                skipped,
            } => {
                push_str(out, "source", source);
                push_raw(out, "replayed", replayed);
                push_raw(out, "skipped", skipped);
            }
            EventKind::Debug { text } => push_str(out, "text", text),
        }
    }

    fn parse(name: &str, f: &Fields) -> Option<EventKind> {
        Some(match name {
            "job_start" => EventKind::JobStart {
                scheme: f.str("scheme")?.to_string(),
                detection: f.str("detection")?.to_string(),
                ranks: f.num("ranks")?,
                spares: f.num("spares")?,
            },
            "job_end" => EventKind::JobEnd {
                completed: f.bool("completed")?,
            },
            "phase_enter" => EventKind::PhaseEnter {
                phase: RunPhase::parse(f.str("phase")?)?,
            },
            "round_start" => EventKind::RoundStart {
                round: f.num("round")?,
            },
            "round_verdict" => EventKind::RoundVerdict {
                round: f.num("round")?,
                iteration: f.num("iteration")?,
                clean: f.bool("clean")?,
            },
            "consensus_phase" => EventKind::ConsensusPhase {
                scope: ObsScope::parse(f.str("scope")?)?,
                round: f.num("round")?,
                phase: f.num("phase")?,
            },
            "checkpoint_pack" => EventKind::CheckpointPack {
                bytes: f.num("bytes")?,
                chunks: f.num("chunks")?,
                chunk_size: f.num("chunk_size")?,
            },
            "compare_ship" => EventKind::CompareShip {
                iteration: f.num("iteration")?,
                wire_bytes: f.num("wire_bytes")?,
                method: f.str("method")?.to_string(),
            },
            "compare_outcome" => EventKind::CompareOutcome {
                iteration: f.num("iteration")?,
                clean: f.bool("clean")?,
                diverged_bytes: f.num("diverged_bytes")?,
                windows: f.num("windows")?,
            },
            "heartbeat_expired" => EventKind::HeartbeatExpired {
                dead: f.num("dead")?,
            },
            "probe_sent" => EventKind::ProbeSent {
                suspect: f.num("suspect")?,
            },
            "probe_death" => EventKind::ProbeDeath {
                dead: f.num("dead")?,
            },
            "node_dead" => EventKind::NodeDead {
                dead: f.num("dead")?,
                replica: f.num("replica")?,
                rank: f.num("rank")?,
            },
            "fault_injected" => EventKind::FaultInjected {
                kind: f.str("kind")?.to_string(),
                iteration: f.num("iteration")?,
            },
            "recovery_start" => EventKind::RecoveryStart {
                scheme: f.str("scheme")?.to_string(),
                class: f.str("class")?.to_string(),
                dead: f.num("dead")?,
                spare: f.num("spare")?,
            },
            "recovery_plan" => EventKind::RecoveryPlan {
                actions: f.num("actions")?,
                inter_replica_messages: f.num("inter_replica_messages")?,
                rework: f.bool("rework")?,
            },
            "recovery_done" => EventKind::RecoveryDone {
                unverified: f.bool("unverified")?,
            },
            "recovery_collapsed" => EventKind::RecoveryCollapsed {
                dead: f.num("dead")?,
            },
            "global_restart" => EventKind::GlobalRestart {
                iteration: f.num("iteration")?,
            },
            "transport_connect" => EventKind::TransportConnect {
                attempt: f.num("attempt")?,
            },
            "transport_retry" => EventKind::TransportRetry {
                attempt: f.num("attempt")?,
                delay_us: f.num("delay_us")?,
            },
            "wire_bytes" => EventKind::WireBytes {
                frames_sent: f.num("frames_sent")?,
                bytes_sent: f.num("bytes_sent")?,
                frames_recv: f.num("frames_recv")?,
                bytes_recv: f.num("bytes_recv")?,
                // Batching fields default to zero so logs written before
                // the batching layer still parse (and a later log's
                // `plain_bytes` key, dropped with wire v7, is ignored).
                ship_raw_bytes: f.num("ship_raw_bytes").unwrap_or(0),
                ship_wire_bytes: f.num("ship_wire_bytes").unwrap_or(0),
                batch_flushes: f.num("batch_flushes").unwrap_or(0),
                // Delta fields likewise default for pre-delta logs.
                delta_raw_bytes: f.num("delta_raw_bytes").unwrap_or(0),
                delta_shipped_bytes: f.num("delta_shipped_bytes").unwrap_or(0),
                chunks_dirty: f.num("chunks_dirty").unwrap_or(0),
            },
            "batch_flush" => EventKind::BatchFlush {
                frames: f.num("frames")?,
                raw_bytes: f.num("raw_bytes")?,
                wire_bytes: f.num("wire_bytes")?,
            },
            "store_append" => EventKind::StoreAppend {
                kind: f.str("kind")?.to_string(),
                bytes: f.num("bytes")?,
            },
            "store_recover" => EventKind::StoreRecover {
                source: f.str("source")?.to_string(),
                replayed: f.num("replayed")?,
                skipped: f.num("skipped")?,
            },
            "debug" => EventKind::Debug {
                text: f.str("text")?.to_string(),
            },
            _ => return None,
        })
    }
}

/// One timestamped, sequenced flight-recorder event.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordedEvent {
    /// Global emission order (monotone across all nodes).
    pub seq: u64,
    /// Seconds since job start, from the embedder's clock.
    pub t: f64,
    /// Emitting node id, or [`crate::DRIVER_NODE`] for the driver.
    pub node: u32,
    /// Typed payload.
    pub kind: EventKind,
}

impl RecordedEvent {
    /// Serialize to a single-line JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push('{');
        push_raw(&mut out, "seq", self.seq);
        push_raw(&mut out, "t", self.t);
        push_raw(&mut out, "node", self.node);
        push_str(&mut out, "ev", self.kind.name());
        self.kind.write_fields(&mut out);
        out.pop();
        out.push('}');
        out
    }

    /// Parse one JSONL line back into an event.
    pub fn from_json(line: &str) -> Result<RecordedEvent, String> {
        let f = Fields::parse(line)?;
        let name = f.str("ev").ok_or("missing \"ev\" field")?;
        Ok(RecordedEvent {
            seq: f.num("seq").ok_or("missing \"seq\" field")?,
            t: f.num("t").ok_or("missing \"t\" field")?,
            node: f.num("node").ok_or("missing \"node\" field")?,
            kind: EventKind::parse(name, &f)
                .ok_or_else(|| format!("bad fields for event {name:?}"))?,
        })
    }
}

impl fmt::Display for RecordedEvent {
    /// The human-readable form used by the `ACR_DEBUG` pretty printer.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.node == crate::DRIVER_NODE {
            write!(f, "[{:>10.6}s driver ] ", self.t)?;
        } else {
            write!(f, "[{:>10.6}s node {:>2}] ", self.t, self.node)?;
        }
        match &self.kind {
            EventKind::Debug { text } => write!(f, "{text}"),
            kind => {
                let json = RecordedEvent {
                    seq: self.seq,
                    t: self.t,
                    node: self.node,
                    kind: kind.clone(),
                }
                .to_json();
                // Show `name key=val ...` by reusing the JSON body minus
                // the header fields.
                write!(f, "{} ", kind.name())?;
                let body = json
                    .trim_start_matches('{')
                    .trim_end_matches('}')
                    .split(",\"")
                    .skip(4)
                    .map(|kv| kv.replace("\":", "=").replace('"', ""))
                    .collect::<Vec<_>>()
                    .join(" ");
                write!(f, "{body}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(kind: EventKind) {
        let ev = RecordedEvent {
            seq: 7,
            t: 1.25,
            node: 3,
            kind,
        };
        let line = ev.to_json();
        let back = RecordedEvent::from_json(&line).unwrap();
        assert_eq!(ev, back, "line: {line}");
    }

    #[test]
    fn all_kinds_roundtrip() {
        roundtrip(EventKind::JobStart {
            scheme: "strong".into(),
            detection: "chunked-checksum".into(),
            ranks: 4,
            spares: 2,
        });
        roundtrip(EventKind::JobEnd { completed: true });
        roundtrip(EventKind::PhaseEnter {
            phase: RunPhase::Recovery,
        });
        roundtrip(EventKind::RoundStart { round: 12 });
        roundtrip(EventKind::RoundVerdict {
            round: 12,
            iteration: 480,
            clean: false,
        });
        roundtrip(EventKind::ConsensusPhase {
            scope: ObsScope::Replica(1),
            round: 3,
            phase: 4,
        });
        roundtrip(EventKind::CheckpointPack {
            bytes: 1 << 30,
            chunks: 1024,
            chunk_size: 1 << 20,
        });
        roundtrip(EventKind::CompareShip {
            iteration: 9,
            wire_bytes: 8,
            method: "checksum".into(),
        });
        roundtrip(EventKind::CompareOutcome {
            iteration: 9,
            clean: false,
            diverged_bytes: 4096,
            windows: 2,
        });
        roundtrip(EventKind::HeartbeatExpired { dead: 5 });
        roundtrip(EventKind::ProbeSent { suspect: 5 });
        roundtrip(EventKind::ProbeDeath { dead: 5 });
        roundtrip(EventKind::NodeDead {
            dead: 5,
            replica: 1,
            rank: 2,
        });
        roundtrip(EventKind::FaultInjected {
            kind: "sdc".into(),
            iteration: 42,
        });
        roundtrip(EventKind::RecoveryStart {
            scheme: "weak".into(),
            class: "unverified".into(),
            dead: 5,
            spare: 8,
        });
        roundtrip(EventKind::RecoveryPlan {
            actions: 3,
            inter_replica_messages: 1,
            rework: true,
        });
        roundtrip(EventKind::RecoveryDone { unverified: true });
        roundtrip(EventKind::RecoveryCollapsed { dead: 6 });
        roundtrip(EventKind::GlobalRestart { iteration: 400 });
        roundtrip(EventKind::TransportConnect { attempt: 3 });
        roundtrip(EventKind::TransportRetry {
            attempt: 2,
            delay_us: 4000,
        });
        roundtrip(EventKind::WireBytes {
            frames_sent: 1201,
            bytes_sent: 88210,
            frames_recv: 1178,
            bytes_recv: 87555,
            ship_raw_bytes: 51200,
            ship_wire_bytes: 20480,
            batch_flushes: 97,
            delta_raw_bytes: 40960,
            delta_shipped_bytes: 8192,
            chunks_dirty: 13,
        });
        roundtrip(EventKind::BatchFlush {
            frames: 7,
            raw_bytes: 4096,
            wire_bytes: 1210,
        });
        roundtrip(EventKind::StoreAppend {
            kind: "commit".into(),
            bytes: 172,
        });
        roundtrip(EventKind::StoreRecover {
            source: "rollback".into(),
            replayed: 14,
            skipped: 2,
        });
        roundtrip(EventKind::Debug {
            text: "free-form \"quoted\" text\nline 2".into(),
        });
    }

    #[test]
    fn display_is_prefixed_with_time_and_node() {
        let ev = RecordedEvent {
            seq: 0,
            t: 0.5,
            node: crate::DRIVER_NODE,
            kind: EventKind::RoundStart { round: 1 },
        };
        let s = ev.to_string();
        assert!(s.contains("driver"), "{s}");
        assert!(s.contains("round_start"), "{s}");
        assert!(s.contains("round=1"), "{s}");
    }
}
