//! Every layer timed from outside: replays of the public kernels each
//! layer runs in a round, on the workload's own state, plus the counts the
//! traced job's event log holds. Nothing here reaches inside the program.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use acr::obs::{Breakdown, EventKind, ObsConfig, Recorder};
use acr::prelude::JobReport;
use acr::protocol::{
    Checkpoint, ChunkTable, ConsensusAction, ConsensusEngine, ConsensusMsg, Detection, SdcDetector,
};
use acr::pup::{
    apply_delta, compare, diff_tables, extract_delta, fletcher64, pack_digested, pup_vec, unpack,
    ChunkedDigest, Pup, PupResult, Puper,
};
use acr::runtime::soak::{run_reactor_soak, SoakConfig};
use acr::runtime::wire::{encode_batch, encode_compare_body, FrameDecoder};
use acr::runtime::{fold_store, TcpConfig, WireCodec};
use acr::store::{scan_log, EventLog, SlotData, SlotEntry, SlotStore};
use bytes::Bytes;

use crate::measure::{prom_value, Baseline, JobRun, RoundStats, StoreDir};
use crate::stats::{mean, median, percentile, tail};
use crate::trace::{SpanId, Tracer};
use crate::workloads::{TaskPup, Workload};
use crate::{allocated_bytes, Metrics};

/// Median seconds of one call of `f`: each sample times `batch` calls, and
/// samples are taken until `budget_s` is spent (three at least), after one
/// untimed call that warms buffers and caches.
fn time_median(budget_s: f64, batch: u32, mut f: impl FnMut()) -> f64 {
    f();
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || (started.elapsed().as_secs_f64() < budget_s && samples.len() < 2000)
    {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(t0.elapsed().as_secs_f64() / batch as f64);
    }
    median(&mut samples)
}

fn gbps(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / secs / 1e9
}

/// The fields of `leanmd::Atom` (which its crate does not export), packed
/// in its order: array-of-structs state the packer walks field by field.
#[derive(Clone, Default)]
struct Atom {
    pos: [f64; 3],
    vel: [f64; 3],
    force: [f64; 3],
    id: u64,
}

impl Pup for Atom {
    fn pup(&mut self, p: &mut dyn Puper) -> PupResult {
        p.pup_f64_slice(&mut self.pos)?;
        p.pup_f64_slice(&mut self.vel)?;
        p.pup_f64_slice(&mut self.force)?;
        p.pup_u64(&mut self.id)
    }
}

struct Atoms(Vec<Atom>);

impl Pup for Atoms {
    fn pup(&mut self, p: &mut dyn Puper) -> PupResult {
        pup_vec(p, &mut self.0)
    }
}

/// One node's tasks packed through the fused pipeline, concatenated.
fn pack_node(tasks: &mut [TaskPup], chunk_size: usize) -> (Vec<u8>, ChunkedDigest) {
    let mut payload = Vec::new();
    for t in tasks.iter_mut() {
        let (buf, _) = pack_digested(t, chunk_size).expect("task state packs");
        payload.extend_from_slice(&buf);
    }
    let digest = acr::pup::chunk_digests(&payload, chunk_size);
    (payload, digest)
}

/// Write `bytes` to a loopback socket whose far end reads them all and
/// answers one byte: median seconds per transfer.
fn loopback_transfer(bytes: &[u8], budget_s: f64) -> f64 {
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback binds");
    let addr = listener.local_addr().expect("bound address");
    let len = bytes.len();
    let reader = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().expect("loopback accepts");
        let _ = sock.set_nodelay(true);
        let mut buf = vec![0u8; len.clamp(1, 1 << 20)];
        loop {
            let mut left = len;
            while left > 0 {
                let want = left.min(buf.len());
                match sock.read(&mut buf[..want]) {
                    Ok(0) | Err(_) => return,
                    Ok(n) => left -= n,
                }
            }
            if sock.write_all(&[1]).is_err() {
                return;
            }
        }
    });
    let mut sock = TcpStream::connect(addr).expect("loopback connects");
    let _ = sock.set_nodelay(true);
    let mut ack = [0u8; 1];
    let secs = time_median(budget_s, 1, || {
        sock.write_all(bytes).expect("loopback write");
        sock.read_exact(&mut ack).expect("loopback ack");
    });
    drop(sock);
    reader.join().expect("loopback reader exits");
    secs
}

/// One four-phase consensus round over in-memory engines, every task at
/// the same progress; returns the messages exchanged.
fn consensus_round(engines: &mut [ConsensusEngine], round: u64) -> u64 {
    let mut queue: std::collections::VecDeque<(usize, ConsensusMsg)> = (0..engines.len())
        .map(|i| (i, ConsensusMsg::Start { round }))
        .collect();
    let mut sent = 0;
    let mut fired = 0;
    while let Some((to, msg)) = queue.pop_front() {
        for action in engines[to].on_message(msg) {
            match action {
                ConsensusAction::Send { to, msg } => {
                    sent += 1;
                    queue.push_back((to, msg));
                }
                ConsensusAction::Checkpoint { .. } => fired += 1,
            }
        }
    }
    assert_eq!(fired, engines.len(), "every engine reached its checkpoint");
    for e in engines.iter_mut() {
        e.checkpoint_done();
    }
    sent
}

fn consensus_probe(n: usize, tasks: usize) -> (f64, u64) {
    let mut engines: Vec<ConsensusEngine> =
        (0..n).map(|i| ConsensusEngine::new(i, n, tasks)).collect();
    let mut round = 0;
    let msgs = consensus_round(&mut engines, round);
    let secs = time_median(0.03, 20, || {
        round += 1;
        consensus_round(&mut engines, round);
    });
    (secs, msgs)
}

fn cache_kib(index: u32) -> f64 {
    let path = format!("/sys/devices/system/cpu/cpu0/cache/index{index}/size");
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let text = text.trim();
    let (num, mult) = match text.as_bytes().last() {
        Some(b'K') => (&text[..text.len() - 1], 1.0),
        Some(b'M') => (&text[..text.len() - 1], 1024.0),
        _ => (text, 1.0 / 1024.0),
    };
    num.parse::<f64>().map_or(0.0, |v| v * mult)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// This machine's ceilings, which layer rates are read against.
fn machine(m: &mut Metrics, tracer: &mut Tracer, scratch: &StoreDir) {
    let span = tracer.begin("machine", None);
    // 64 MiB each way: beyond L2, though the guide's four-times-LLC rule
    // (1 GiB here) does not fit the time budget; see README.
    let src = vec![1u8; 64 << 20];
    let mut dst = vec![0u8; 64 << 20];
    let secs = time_median(0.15, 1, || {
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&mut dst);
    });
    m.put("machine.memcpy_gbps", gbps(src.len(), secs), "GB/s");
    drop((src, dst));
    let block = vec![7u8; 16 << 20];
    m.put(
        "machine.loopback_gbps",
        gbps(block.len(), loopback_transfer(&block, 0.15)),
        "GB/s",
    );
    std::fs::create_dir_all(&scratch.0).expect("scratch dir");
    let mut file = std::fs::File::create(scratch.0.join("fsync.probe")).expect("probe file");
    let page = [0u8; 4096];
    let secs = time_median(0.05, 1, || {
        file.write_all(&page).expect("probe write");
        file.sync_data().expect("probe fsync");
    });
    m.put("machine.fsync_us", secs * 1e6, "us");
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    m.put("machine.nproc", nproc as f64, "count");
    m.put("machine.l2_kib", cache_kib(2), "KiB");
    m.put("machine.l3_kib", cache_kib(3), "KiB");
    tracer.end(span);
}

pub struct LayerInput<'a> {
    pub w: &'a Workload,
    /// The baseline at the traced job's last iteration; advanced here by
    /// one round's worth of steps to get two consecutive states.
    pub baseline: &'a mut Baseline,
    /// Plain seconds per iteration over the whole run's slices.
    pub plain_iter_s: f64,
    pub traced: &'a JobRun,
    pub rounds: &'a RoundStats,
    /// Rounds-off seconds per iteration, for the scheduler overhead.
    pub forward_iter_s: f64,
}

/// Two states of one node a round apart, as the job would checkpoint them.
struct States {
    iters: u64,
    prev_digests: Vec<u64>,
    now: Bytes,
    digest: ChunkedDigest,
}

struct Replays<'a> {
    w: &'a Workload,
    m: &'a mut Metrics,
    tracer: &'a mut Tracer,
    /// The round of median length: parent of the replays on its chain.
    round: SpanId,
    /// Rounds the traced job opened, the divisor of its per-round counts.
    opened: f64,
    bd: Breakdown,
    /// The blocking chain of one round as the replays price it, in ms.
    chain: Vec<(&'static str, f64)>,
}

impl Replays<'_> {
    /// Median seconds of `f` under a span; the span hangs under the round
    /// when the workload's rounds cross this layer.
    fn timed(
        &mut self,
        on_chain: bool,
        name: &str,
        budget_s: f64,
        batch: u32,
        f: impl FnMut(),
    ) -> f64 {
        let parent = if on_chain { self.round } else { None };
        let span = self.tracer.begin(name, parent);
        let s = time_median(budget_s, batch, f);
        self.tracer.end(span);
        s
    }

    fn pup(&mut self, baseline: &mut Baseline, iters: u64, rounds: &RoundStats) -> States {
        let chunk = self.w.chunk_size;
        let tasks_at = |b: &Baseline, at: u64| -> Vec<TaskPup> {
            b.apps.iter().map(|a| TaskPup(a.task(at))).collect()
        };
        let mut tasks = tasks_at(baseline, iters);
        let (prev, prev_digest) = pack_node(&mut tasks, chunk);
        let state = prev.len();
        self.m.put("apps.state_bytes", state as f64, "bytes");
        let pack_s = self.timed(true, "pup.pack", 0.12, 1, || {
            for t in tasks.iter_mut() {
                std::hint::black_box(pack_digested(t, chunk).expect("packs"));
            }
        });
        self.chain.push(("pup.pack", pack_s * 1e3));
        self.m.put("pup.pack_gbps", gbps(state, pack_s), "GB/s");
        self.m.put("pup.pack_ms_per_round", pack_s * 1e3, "ms");
        let per_round = rounds.pack_bytes as f64 / self.opened;
        self.m.put("pup.pack_bytes_per_round", per_round, "bytes");
        let before = allocated_bytes();
        for t in tasks.iter_mut() {
            std::hint::black_box(pack_digested(t, chunk).expect("packs"));
        }
        let allocated = allocated_bytes() - before;
        self.m
            .put("pup.alloc_bytes_per_pack", allocated as f64, "bytes");
        let mut atoms = Atoms(vec![Atom::default(); state / 80]);
        let s = time_median(0.08, 1, || {
            std::hint::black_box(pack_digested(&mut atoms, chunk).expect("atoms pack"));
        });
        self.m
            .put("pup.pack_gbps_aos", gbps(atoms.0.len() * 80, s), "GB/s");
        drop(atoms);
        let s = time_median(0.06, 1, || {
            std::hint::black_box(fletcher64(std::hint::black_box(&prev)));
        });
        self.m.put("pup.fletcher_gbps", gbps(state, s), "GB/s");
        // Unpack and compare run task by task over that task's own bytes.
        let per_task: Vec<Vec<u8>> = tasks
            .iter_mut()
            .map(|t| acr::pup::pack(t).expect("packs"))
            .collect();
        let s = time_median(0.08, 1, || {
            for (t, bytes) in tasks.iter_mut().zip(&per_task) {
                unpack(bytes, t).expect("unpacks");
            }
        });
        self.m.put("pup.unpack_gbps", gbps(state, s), "GB/s");
        let s = time_median(0.08, 1, || {
            for (t, bytes) in tasks.iter_mut().zip(&per_task) {
                assert!(compare(t, bytes).expect("compares").is_clean());
            }
        });
        self.m.put("pup.compare_gbps", gbps(state, s), "GB/s");
        drop((tasks, per_task));

        // The next state: step on by what one round interval covers.
        let next = iters + (iters as f64 / self.opened).ceil().max(1.0) as u64;
        baseline.advance(next, &mut Tracer::new(false));
        let (now, digest) = pack_node(&mut tasks_at(baseline, next), chunk);
        let plan = diff_tables(&prev_digest.chunk_digests, &digest, now.len())
            .expect("consecutive states share a shape");
        self.m
            .put("pup.dirty_chunk_fraction", plan.dirty_fraction(), "ratio");
        let delta = self.w.delta;
        let diff_s = self.timed(delta, "pup.diff_tables", 0.02, 10, || {
            std::hint::black_box(diff_tables(&prev_digest.chunk_digests, &digest, now.len()));
        });
        self.m.put("pup.diff_tables_us", diff_s * 1e6, "us");
        let extract_s = self.timed(delta, "pup.extract_delta", 0.02, 10, || {
            std::hint::black_box(extract_delta(&now, &plan));
        });
        let dirty_bytes = plan.dirty_bytes().max(1);
        self.m.put(
            "pup.extract_delta_gbps",
            gbps(dirty_bytes, extract_s),
            "GB/s",
        );
        let dirty = extract_delta(&now, &plan);
        let apply_s = self.timed(delta, "pup.apply_delta", 0.06, 1, || {
            std::hint::black_box(apply_delta(&prev, chunk, now.len(), &dirty));
        });
        self.m
            .put("pup.apply_delta_gbps", gbps(state, apply_s), "GB/s");
        if delta {
            self.chain
                .push(("pup.delta", (diff_s + extract_s + apply_s) * 1e3));
        }
        States {
            iters: next,
            prev_digests: prev_digest.chunk_digests,
            now: Bytes::from(now),
            digest,
        }
    }

    /// Consensus and the SDC detector; returns the record the job ships.
    fn core(&mut self, st: &States, deaths: u64, crashes: u64) -> Detection {
        let (secs, msgs) = consensus_probe(2, self.w.tasks_per_rank);
        self.chain.push(("core.consensus", secs * 1e3));
        self.m.put("core.consensus_round_us", secs * 1e6, "us");
        self.m
            .put("core.consensus_msgs_per_round", msgs as f64, "count");
        let (secs, msgs) = consensus_probe(64, self.w.tasks_per_rank);
        self.m.put("core.consensus_round_us_n64", secs * 1e6, "us");
        self.m
            .put("core.consensus_msgs_per_round_n64", msgs as f64, "count");
        let table = ChunkTable {
            chunk_size: self.w.chunk_size as u32,
            digests: st.digest.chunk_digests.clone(),
        };
        let ckpt =
            Checkpoint::with_chunks(st.iters, st.now.clone(), st.digest.digest, table.clone());
        let detector = SdcDetector::new(self.w.detection);
        let s = self.timed(true, "core.detector_outgoing", 0.01, 100, || {
            std::hint::black_box(detector.outgoing(&ckpt));
        });
        self.chain.push(("core.detector_outgoing", s * 1e3));
        self.m.put("core.detector_outgoing_us", s * 1e6, "us");
        // The buddy holds its own copy: equal bytes at another address.
        let buddy = Checkpoint {
            payload: Bytes::copy_from_slice(&st.now),
            ..ckpt.clone()
        };
        let remote = detector.outgoing(&ckpt);
        let s = self.timed(true, "core.detector_diverged", 0.06, 1, || {
            assert!(detector.diverged(&buddy, &remote).is_clean());
        });
        self.chain.push(("core.detector_diverged", s * 1e3));
        self.m
            .put("core.detector_diverged_gbps", gbps(st.now.len(), s), "GB/s");
        let spurious = deaths.saturating_sub(crashes);
        self.m.put("core.spurious_deaths", spurious as f64, "count");

        // With deltas on the job ships the dirty windows over the full
        // chunk table, not the detector's record.
        let plan = diff_tables(&st.prev_digests, &st.digest, st.now.len())
            .expect("consecutive states share a shape");
        if !self.w.delta || plan.is_full() {
            return remote;
        }
        Detection::Delta {
            base_iteration: st.iters,
            payload_len: st.now.len(),
            digest: st.digest.digest,
            table,
            dirty: extract_delta(&st.now, &plan)
                .into_iter()
                .map(|(i, win)| (i, Bytes::copy_from_slice(win)))
                .collect(),
        }
    }

    /// Wire and tcp: the compare record through `encode_batch`, a loopback
    /// socket and `FrameDecoder`; over TCP it crosses the driver star, so
    /// the chain has two hops of each.
    fn wire_tcp(&mut self, iters: u64, detection: &Detection, rounds: &RoundStats) {
        let tcp = self.w.tcp;
        let hops = if tcp { 2.0 } else { 0.0 };
        let codec = TcpConfig::default().codec;
        let body = encode_compare_body(iters, detection);
        let s = self.timed(tcp, "wire.encode_batch", 0.1, 1, || {
            std::hint::black_box(encode_batch(&[(1, 1, &body)], codec));
        });
        self.chain.push(("wire.encode", hops * s * 1e3));
        self.m
            .put("wire.encode_batch_gbps", gbps(body.len(), s), "GB/s");
        let encoded = encode_batch(&[(1, 1, &body)], codec).bytes;
        let span = self
            .tracer
            .begin("tcp.loopback_write", if tcp { self.round } else { None });
        let s = loopback_transfer(&encoded, 0.08);
        self.tracer.end(span);
        self.chain.push(("tcp.loopback_write", hops * s * 1e3));
        self.m.put("tcp.loopback_write_us", s * 1e6, "us");
        let s = self.timed(tcp, "wire.decode", 0.1, 1, || {
            let mut d = FrameDecoder::new();
            d.feed(&encoded);
            while let Some(f) = d.next_frame().expect("replayed frame decodes") {
                std::hint::black_box(f);
            }
        });
        self.chain.push(("wire.decode", hops * s * 1e3));
        self.m.put("wire.decode_gbps", gbps(body.len(), s), "GB/s");
        let plain = encode_batch(&[(1, 1, &body)], WireCodec::None).bytes.len();
        let overhead = plain as f64 / body.len() as f64;
        self.m.put("wire.framing_overhead_ratio", overhead, "ratio");
        let (bd, opened) = (&self.bd, self.opened);
        let ship_ratio = ratio(bd.wire_ship_wire_bytes, bd.wire_ship_raw_bytes);
        self.m.put("wire.ship_ratio", ship_ratio, "ratio");
        self.m.put(
            "wire.frames_per_round",
            bd.wire_frames as f64 / opened,
            "count",
        );
        self.m.put(
            "wire.bytes_per_round",
            bd.wire_bytes as f64 / opened,
            "bytes",
        );
        let flushes = bd.wire_batch_flushes as f64 / opened;
        self.m.put("wire.batch_flushes_per_round", flushes, "count");

        let span = self.tracer.begin("tcp.reactor_soak", None);
        let soak = run_reactor_soak(&SoakConfig {
            jobs: 1,
            links_per_job: 64,
            duration: Duration::from_secs(1),
            bind: None,
        })
        .expect("reactor soak runs");
        self.tracer.end(span);
        self.m
            .put("tcp.tick_p50_us", soak.tick_p50_ns as f64 / 1e3, "us");
        self.m
            .put("tcp.tick_p99_us", soak.tick_p99_ns as f64 / 1e3, "us");
        let compare_s = rounds.compare_ms.iter().sum::<f64>() / 1e3;
        let ship_mbps = rounds.ship_bytes as f64 / 1e6 / compare_s.max(1e-9);
        self.m.put("tcp.ship_mbps", ship_mbps, "MB/s");
        self.m
            .put("tcp.connects", self.bd.transport_connects as f64, "count");
        self.m
            .put("tcp.retries", self.bd.transport_retries as f64, "count");
    }

    /// The store at the sizes the job journals and persists, then the
    /// machine's ceilings while the scratch directory is there.
    fn store(&mut self, st: &States, rounds: &RoundStats, left: Option<&StoreDir>) {
        let durable = self.w.durable_faults;
        let scratch = StoreDir::new("replay");
        std::fs::create_dir_all(&scratch.0).expect("scratch dir");
        let record_len = rounds
            .journal_bytes
            .checked_div(rounds.journal_appends)
            .unwrap_or(64);
        let record = vec![0xA5u8; record_len as usize];
        let mut log = EventLog::create(scratch.0.join("events.log")).expect("replay log");
        let span = self
            .tracer
            .begin("store.append", if durable { self.round } else { None });
        let mut appends: Vec<f64> = (0..40)
            .map(|_| {
                let t0 = Instant::now();
                log.append(&record).expect("replay append");
                t0.elapsed().as_secs_f64()
            })
            .collect();
        self.tracer.end(span);
        let append_s = median(&mut appends);
        self.m.put("store.append_us_p50", append_s * 1e6, "us");
        let slots = SlotStore::new(&scratch.0);
        let data = SlotData {
            epoch: 1,
            entries: (0..2u8)
                .map(|replica| SlotEntry {
                    replica,
                    rank: 0,
                    iteration: st.iters,
                    payload: st.now.to_vec(),
                })
                .collect(),
        };
        let (mut slot, mut written) = (0u8, 0u64);
        let slot_write_s = self.timed(durable, "store.slot_write", 0.1, 1, || {
            slot = 1 - slot;
            written = slots.write(slot, &data).expect("replay slot write");
        });
        let mb = written as f64 / 1e6;
        self.m
            .put("store.slot_write_mbps", mb / slot_write_s, "MB/s");
        let s = time_median(0.05, 1, || {
            std::hint::black_box(slots.read(slot).expect("replay slot reads"));
        });
        self.m.put("store.slot_read_mbps", mb / s, "MB/s");
        drop(data);
        let dir = left.map_or(&scratch.0, |s| &s.0);
        let s = time_median(0.05, 1, || {
            std::hint::black_box(scan_log(dir.join("events.log")).expect("journal scans"));
            std::hint::black_box(SlotStore::new(dir).read(0).is_ok());
            std::hint::black_box(fold_store(dir).is_ok());
        });
        self.m.put("store.reopen_ms", s * 1e3, "ms");
        let fsyncs = self.bd.store_fsyncs as f64 / self.opened;
        self.m.put("store.fsyncs_per_round", fsyncs, "count");
        let bytes = self.bd.store_bytes as f64 / self.opened;
        self.m.put("store.bytes_per_round", bytes, "bytes");
        let per_state_byte = ratio(self.bd.store_bytes, rounds.pack_bytes);
        self.m
            .put("store.bytes_per_state_byte", per_state_byte, "ratio");
        if durable {
            // Per round: the journal records but the slot's own, and the slot.
            let ms = ((fsyncs - 1.0).max(0.0) * append_s + slot_write_s) * 1e3;
            self.chain.push(("store", ms));
        }
        machine(self.m, self.tracer, &scratch);
    }

    fn obs(&mut self, report: &JobReport) {
        for (name, enabled) in [("obs.record_ns", true), ("obs.record_disabled_ns", false)] {
            let t0 = Instant::now();
            let rec = Recorder::new(
                ObsConfig {
                    enabled,
                    ring_capacity: 1 << 16,
                    job: None,
                },
                1,
                Arc::new(move || t0.elapsed().as_secs_f64()),
            );
            let mut round = 0;
            let s = time_median(0.02, 1000, || {
                round += 1;
                rec.emit(0, EventKind::RoundStart { round });
            });
            self.m.put(name, s * 1e9, "ns");
        }
        let per_round = report.events.len() as f64 / self.opened;
        self.m.put("obs.events_per_round", per_round, "count");
        let dropped = prom_value(&report.metrics, "acr_obs_events_dropped_total");
        self.m.put("obs.events_dropped", dropped, "count");
        let s = time_median(0.05, 1, || {
            std::hint::black_box(Breakdown::from_events(&report.events));
        });
        self.m.put("obs.fold_ms", s * 1e3, "ms");
    }

    fn driver(&mut self, rounds: &RoundStats, duration: f64) {
        let round_ms = rounds.round_ms();
        let p50 = percentile(&round_ms, 0.5);
        let (tail_pct, tail_ms) = tail(&round_ms);
        let m = &mut *self.m;
        m.put("driver.rounds", rounds.opened as f64, "count");
        m.put("driver.rounds_clean", rounds.clean.len() as f64, "count");
        m.put("driver.round_ms_p10", percentile(&round_ms, 0.1), "ms");
        m.put("driver.round_ms_p50", p50, "ms");
        m.put("driver.round_ms_mean", mean(&round_ms), "ms");
        m.put("driver.round_ms_tail", tail_ms, "ms");
        m.put("driver.round_tail_percentile", tail_pct * 100.0, "%");
        m.put(
            "driver.consensus_ms_per_round",
            mean(&rounds.consensus_ms),
            "ms",
        );
        m.put(
            "driver.compare_ms_per_round",
            mean(&rounds.compare_ms),
            "ms",
        );
        m.put("driver.commit_ms_per_round", mean(&rounds.commit_ms), "ms");
        let lateness = median(&mut rounds.lateness_ms.clone());
        m.put("driver.trigger_lateness_ms_p50", lateness, "ms");
        // The breakdown rows as shares of the duration they sum to: the
        // run is sized by --seconds, so seconds would only say how long it
        // was asked to be.
        m.put("driver.duration_s", duration, "s");
        for (name, row) in [
            ("driver.forward_share", self.bd.forward),
            ("driver.checkpoint_share", self.bd.checkpoint),
            ("driver.compare_share", self.bd.compare),
            ("driver.recovery_share", self.bd.recovery),
        ] {
            m.put(name, row / duration * 100.0, "%");
        }
        let attributed: f64 = self.chain.iter().map(|c| c.1).sum();
        m.put("driver.round_attributed_ms", attributed, "ms");
        m.put("driver.round_unattributed_ms", p50 - attributed, "ms");
    }
}

/// Replay every layer on the workload's state and fill in the per-layer
/// metrics; returns the blocking chain of one round as the replays price
/// it, `(name, ms)`, for the attribution the caller prints.
pub fn replay_layers(
    inp: LayerInput<'_>,
    m: &mut Metrics,
    tracer: &mut Tracer,
) -> Vec<(&'static str, f64)> {
    let report = &inp.traced.report;
    let rounds = inp.rounds;

    // One span per verified round, read from the event log; the round of
    // median length stands for them as the parent of the replays.
    let job_start = tracer.start_of(inp.traced.span);
    let p50 = rounds.round_ms_p50();
    let mut round = None;
    for &(a, b) in &rounds.clean {
        let id = tracer.add("round", job_start + a, job_start + b, inp.traced.span);
        if round.is_none() && (b - a) * 1e3 >= p50 {
            round = id;
        }
    }

    m.put("apps.step_us", inp.plain_iter_s * 1e6, "us");
    let overhead = inp.forward_iter_s - inp.plain_iter_s;
    m.put("node.step_overhead_us", overhead * 1e6, "us");
    let packs = prom_value(&report.metrics, "acr_pack_seconds_count").max(1.0);
    let pack_ms = prom_value(&report.metrics, "acr_pack_seconds_sum") / packs * 1e3;
    m.put("node.in_round_pack_ms_mean", pack_ms, "ms");

    let mut r = Replays {
        w: inp.w,
        m,
        tracer,
        round,
        opened: rounds.opened.max(1) as f64,
        bd: Breakdown::from_events(&report.events),
        chain: Vec::new(),
    };
    let states = r.pup(inp.baseline, inp.traced.iters, rounds);
    let crashes = report.crashes_injected_at.len() as u64;
    let detection = r.core(&states, rounds.deaths, crashes);
    r.wire_tcp(states.iters, &detection, rounds);
    r.store(&states, rounds, inp.traced.store.as_ref());
    r.obs(report);
    r.driver(rounds, report.duration);
    r.chain
}
