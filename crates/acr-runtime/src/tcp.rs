//! The TCP fabric: a driver-side [`Router`] — a **single-threaded
//! nonblocking reactor** multiplexing every node link — and a node-side
//! [`Endpoint`] (one thread: dialer with capped-exponential reconnect,
//! polled reads, batched writes), exchanging [`wire`](crate::wire)
//! frames over localhost in a star topology — every node↔node message
//! routes through the driver's reactor, mirroring how the in-process
//! backend already centralizes channel construction in the driver.
//!
//! Reliability model: the protocol has no message-level timeouts (a lost
//! consensus contribution would wedge a round forever), so the wire layer
//! must make transient socket drops *lossless* rather than merely
//! survivable. Each link direction carries a monotone frame sequence; the
//! sender keeps a bounded replay ring of frame bodies, the connect/accept
//! handshake exchanges "highest sequence received", and the reattaching
//! side replays everything newer. Receivers drop duplicates by sequence.
//! A socket drop therefore looks, to the protocol, like a brief stall —
//! which is exactly what distinguishes it from node death: the reactor's
//! stale-link scan reports a link detached too long, and the *driver's
//! liveness probe* (not the transport) decides whether the node behind it
//! is dead.
//!
//! Threading: the reactor is O(1) threads regardless of link count. All
//! sockets (and the listener) run nonblocking; the reactor loop drains a
//! command channel (its wake pipe, bounded by a 1ms tick), accepts and
//! progresses handshakes, reads every readable link, dispatches frames,
//! flushes every writable link, and scans for stale links. Writes that
//! would block park in a per-link buffer and resume next tick. Flushes
//! coalesce queued frames into [`wire::encode_batch`](encode_batch)
//! super-frames.

use std::collections::btree_map::Entry;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use acr_obs::{EventKind, Recorder, DRIVER_NODE};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use parking_lot::Mutex;

use crate::message::{Event, Net, NodeIndex};
use crate::wire::{
    decode_event, decode_hello, decode_net, decode_welcome, encode_batch, encode_hello, encode_net,
    encode_welcome, Frame, FrameDecoder, Hello, Welcome, WelcomeCfg, WireCodec, DRIVER_DEST,
    FRAME_HEADER, FRAME_TRAILER, HELLO_LEN, SUPER_RECORD_HEADER, WELCOME_LEN,
};

/// Sent frames kept per link direction for replay after a reconnect.
/// Sized far above what the protocol keeps in flight between two
/// checkpoint rounds; overflow drops the *oldest* frames, trading a
/// possible (loud, probe-visible) wedge for bounded memory.
const REPLAY_RING_FRAMES: usize = 8192;

/// Reactor / endpoint loop tick: the longest either loop sleeps waiting
/// for its command channel before polling sockets. Bounds added message
/// latency per hop.
const REACTOR_TICK: Duration = Duration::from_millis(1);

/// How long backoff sleeps are sliced; bounds shutdown latency.
const POLL_TICK: Duration = Duration::from_millis(5);

/// A dialer that sends no (or a partial) hello is cut off after this.
const HANDSHAKE_DEADLINE: Duration = Duration::from_secs(1);

/// Cap on the raw payload coalesced into one super-frame per flush step
/// (several super-frames may still leave in one tick).
const BATCH_MAX_RAW: usize = 256 * 1024;

/// Cap on frames per super-frame (well under the u16 wire bound).
const BATCH_MAX_FRAMES: usize = 1024;

// ---------------------------------------------------------------------------
// Shared send-side machinery (reactor links and endpoints)
// ---------------------------------------------------------------------------

/// One frame awaiting (re)transmission: destination, link sequence, body.
#[derive(Clone)]
struct OutFrame {
    to: u32,
    seq: u64,
    body: Vec<u8>,
}

/// Partially-written bytes parked until the socket is writable again.
#[derive(Default)]
struct SendBuf {
    buf: Vec<u8>,
    pos: usize,
}

impl SendBuf {
    fn clear(&mut self) {
        self.buf.clear();
        self.pos = 0;
    }
    fn set(&mut self, bytes: Vec<u8>) {
        self.buf = bytes;
        self.pos = 0;
    }
    fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }
}

/// Wire traffic counters for one side of the fabric, reported as a
/// [`EventKind::WireBytes`] event at shutdown. `plain_bytes` is the
/// unbatched-equivalent cost (one plain frame per message) the batching
/// layer is measured against; `ship_*` isolate checkpoint-ship traffic
/// (`Net::Compare` / `Net::Install` bodies).
#[derive(Default)]
struct WireStats {
    frames_sent: u64,
    bytes_sent: u64,
    frames_recv: u64,
    bytes_recv: u64,
    ship_raw_bytes: u64,
    ship_wire_bytes: u64,
    batch_flushes: u64,
    plain_bytes: u64,
    /// Full-payload bytes each delta compare record stood in for (the
    /// denominator of the delta-savings ratio).
    delta_raw_bytes: u64,
    /// Actual body bytes of delta compare records (the numerator).
    delta_shipped_bytes: u64,
    /// Dirty chunk windows carried across all delta compare records.
    chunks_dirty: u64,
}

impl WireStats {
    fn emit(&self, rec: &Recorder, node: u32) {
        let (frames_sent, bytes_sent) = (self.frames_sent, self.bytes_sent);
        let (frames_recv, bytes_recv) = (self.frames_recv, self.bytes_recv);
        let (ship_raw_bytes, ship_wire_bytes) = (self.ship_raw_bytes, self.ship_wire_bytes);
        let (batch_flushes, plain_bytes) = (self.batch_flushes, self.plain_bytes);
        let (delta_raw_bytes, delta_shipped_bytes) =
            (self.delta_raw_bytes, self.delta_shipped_bytes);
        let chunks_dirty = self.chunks_dirty;
        rec.emit_with(node, || EventKind::WireBytes {
            frames_sent,
            bytes_sent,
            frames_recv,
            bytes_recv,
            ship_raw_bytes,
            ship_wire_bytes,
            batch_flushes,
            plain_bytes,
            delta_raw_bytes,
            delta_shipped_bytes,
            chunks_dirty,
        });
    }

    /// Classify one outgoing node-bound frame body for the delta columns.
    /// Field offsets inside a delta `Net::Compare` body are fixed (pinned by
    /// `wire::tests::delta_compare_body_offsets_are_pinned`), so the counters
    /// come from a cheap peek instead of a full decode.
    fn classify_delta(&mut self, to: u32, body: &[u8]) {
        if to == DRIVER_DEST || body.len() < 38 || body[0] != 2 || body[9] != 3 {
            return;
        }
        let payload_len = u64::from_le_bytes(body[18..26].try_into().unwrap());
        let dirty = u32::from_le_bytes(body[34..38].try_into().unwrap());
        self.delta_raw_bytes += payload_len;
        self.delta_shipped_bytes += body.len() as u64;
        self.chunks_dirty += dirty as u64;
    }
}

/// Checkpoint-ship classification by body tag (`Net::Compare` = 2,
/// `Net::Install` = 4). Driver-bound event bodies share the tag space,
/// so only node-bound frames are classified.
fn is_ship(to: u32, body: &[u8]) -> bool {
    to != DRIVER_DEST && matches!(body.first(), Some(&2) | Some(&4))
}

/// Assign the next sequence number and queue `body` for `to` on this
/// link: once into the replay ring (bounded), once onto the send queue.
fn enqueue_frame(
    ring: &mut VecDeque<OutFrame>,
    outq: &mut VecDeque<OutFrame>,
    tx_seq: &mut u64,
    to: u32,
    body: Vec<u8>,
) {
    *tx_seq += 1;
    let f = OutFrame {
        to,
        seq: *tx_seq,
        body,
    };
    ring.push_back(f.clone());
    while ring.len() > REPLAY_RING_FRAMES {
        ring.pop_front();
    }
    outq.push_back(f);
}

/// Write as much parked + queued data as the socket takes without
/// blocking: drain the partial buffer, then repeatedly coalesce the head
/// of the queue into one super-frame (or plain frame) and keep writing.
/// Returns `false` on a fatal socket error — the caller detaches.
fn flush_socket(
    stream: &mut TcpStream,
    out: &mut SendBuf,
    outq: &mut VecDeque<OutFrame>,
    stats: &mut WireStats,
    rec: &Recorder,
    obs_node: u32,
) -> bool {
    loop {
        while !out.is_empty() {
            match stream.write(&out.buf[out.pos..]) {
                Ok(0) => return false,
                Ok(n) => out.pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        out.clear();
        if outq.is_empty() {
            return true;
        }
        // Coalesce the queue head into one flush unit.
        let mut take = 0;
        let mut raw = 0usize;
        while take < outq.len() && take < BATCH_MAX_FRAMES {
            let sz = SUPER_RECORD_HEADER + outq[take].body.len();
            if take > 0 && raw + sz > BATCH_MAX_RAW {
                break;
            }
            raw += sz;
            take += 1;
        }
        let records: Vec<(u32, u64, &[u8])> = outq
            .iter()
            .take(take)
            .map(|f| (f.to, f.seq, f.body.as_slice()))
            .collect();
        let batch = encode_batch(&records, WireCodec::None);
        let wire = batch.bytes.len() as u64;
        let raw_total = batch.raw_payload as u64;
        let plain: u64 = records
            .iter()
            .map(|(_, _, b)| (FRAME_HEADER + b.len() + FRAME_TRAILER) as u64)
            .sum();
        let ship_raw: u64 = records
            .iter()
            .filter(|(to, _, b)| is_ship(*to, b))
            .map(|(_, _, b)| b.len() as u64)
            .sum();
        for (to, _, body) in &records {
            stats.classify_delta(*to, body);
        }
        stats.frames_sent += batch.frames as u64;
        stats.bytes_sent += wire;
        stats.plain_bytes += plain;
        stats.ship_raw_bytes += ship_raw;
        if ship_raw > 0 {
            // Apportion the flush's wire cost (bodies plus framing) to
            // ship traffic by its share of the payload.
            stats.ship_wire_bytes += (wire * ship_raw) / raw_total.max(1);
        }
        if batch.frames >= 2 {
            stats.batch_flushes += 1;
            let frames = batch.frames as u64;
            rec.emit_with(obs_node, || EventKind::BatchFlush {
                frames,
                raw_bytes: raw_total,
                wire_bytes: wire,
            });
        }
        outq.drain(..take);
        out.set(batch.bytes);
    }
}

// ---------------------------------------------------------------------------
// Router (driver side): the reactor
// ---------------------------------------------------------------------------

/// Linear-bucket tick-latency accounting for the reactor loop: how long
/// each loop iteration's *work* portion took (the 1 ms command-channel
/// wait is excluded — an idle reactor records near-zero ticks, not
/// `REACTOR_TICK`). The decade-spaced [`acr_obs::Histogram`] buckets are
/// too coarse to gate a 25% p99 regression, so this keeps its own
/// fixed-size linear buckets: [`TICK_BUCKET_NS`] nanoseconds each, with
/// everything past the last bucket clamped into it (the max still tracks
/// the true worst case).
pub(crate) struct TickStats {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

/// Width of one [`TickStats`] bucket in nanoseconds.
const TICK_BUCKET_NS: u64 = 250;
/// Number of [`TickStats`] buckets: 8192 × 250 ns ≈ 2 ms of linear range.
const TICK_BUCKETS: usize = 8192;

impl TickStats {
    fn new() -> TickStats {
        TickStats {
            buckets: (0..TICK_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }

    fn record(&self, d: Duration) {
        let ns = d.as_nanos() as u64;
        let idx = ((ns / TICK_BUCKET_NS) as usize).min(TICK_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Ticks recorded so far.
    pub(crate) fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean tick duration.
    pub(crate) fn mean(&self) -> Duration {
        let n = self.count();
        if n == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(self.sum_ns.load(Ordering::Relaxed) / n)
    }

    /// Worst tick observed.
    pub(crate) fn max(&self) -> Duration {
        Duration::from_nanos(self.max_ns.load(Ordering::Relaxed))
    }

    /// Upper bound of the bucket holding the `q`-quantile tick
    /// (`0.0 < q <= 1.0`); the true max for the clamped overflow bucket.
    pub(crate) fn percentile(&self, q: f64) -> Duration {
        let n = self.count();
        if n == 0 {
            return Duration::ZERO;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                if i == TICK_BUCKETS - 1 {
                    return self.max();
                }
                return Duration::from_nanos((i as u64 + 1) * TICK_BUCKET_NS);
            }
        }
        self.max()
    }
}

/// Cross-thread view of one link (the reactor owns the rest).
struct LinkShared {
    /// Whether a handshaken socket is currently attached.
    connected: AtomicBool,
    /// Quarantined links refuse re-accept (test hook: transport death).
    quarantined: AtomicBool,
    /// Highest frame sequence received from this node (dedup + handshake).
    last_recv: AtomicU64,
    /// One stale report per outage (reset on attach).
    stale_reported: AtomicBool,
    /// A clone of the attached socket, for severing from other threads.
    conn: Mutex<Option<TcpStream>>,
}

/// Reactor-local per-link state machine.
struct LinkState {
    stream: Option<TcpStream>,
    dec: FrameDecoder,
    tx_seq: u64,
    ring: VecDeque<OutFrame>,
    outq: VecDeque<OutFrame>,
    out: SendBuf,
    /// When the link lost its socket; `None` before the first attach and
    /// while attached. Drives the stale scan.
    detached_since: Option<Instant>,
}

impl LinkState {
    fn new() -> Self {
        Self {
            stream: None,
            dec: FrameDecoder::new(),
            tx_seq: 0,
            ring: VecDeque::new(),
            outq: VecDeque::new(),
            out: SendBuf::default(),
            detached_since: None,
        }
    }
}

/// A freshly-accepted socket still reading its hello. Which job (and
/// link) it belongs to is unknown until the hello decodes.
struct PendingHello {
    stream: TcpStream,
    buf: [u8; HELLO_LEN],
    got: usize,
    since: Instant,
}

enum Cmd {
    /// Encoded body for node `to` of `job` (sequenced and framed by the
    /// reactor within that job's link namespace).
    Send {
        job: u32,
        to: usize,
        body: Vec<u8>,
    },
    /// Detach `job`'s links, emit its wire stats, and drop its reactor
    /// state; `done` acknowledges so the caller can drain the job's
    /// recorder afterwards.
    Deregister {
        job: u32,
        done: Sender<()>,
    },
    Shutdown,
}

/// Everything the reactor shares with other threads about one registered
/// job: the per-link flags/handles, where its driver-bound events go, and
/// the handshake/staleness parameters its links use.
struct JobShared {
    links: Vec<LinkShared>,
    event_tx: Sender<Event>,
    welcome_cfg: WelcomeCfg,
    stale_after: Duration,
    /// The job's flight recorder: batch-flush events, the stale counter,
    /// and the shutdown wire-stats report all land here, so a service
    /// job's transport telemetry stays in its own report.
    rec: Arc<Recorder>,
}

/// The reactor: **one** nonblocking driver-side transport thread serving
/// every link of every registered job. A single-job driver owns a private
/// router (job id 0); the multi-job driver service registers each admitted
/// job into the same reactor, and the hello's job id routes each accepted
/// socket into its job's link namespace — node indices never collide
/// across jobs.
pub(crate) struct Router {
    addr: SocketAddr,
    jobs: parking_lot::RwLock<std::collections::BTreeMap<u32, Arc<JobShared>>>,
    cmd_tx: Sender<Cmd>,
    shutdown: AtomicBool,
    thread: Mutex<Option<JoinHandle<()>>>,
    ticks: TickStats,
}

impl Router {
    /// Bind (an ephemeral localhost port when `addr` is `None`; any
    /// explicit address — including non-loopback ones like
    /// `0.0.0.0:7070` for remote node hosts — otherwise) and start the
    /// reactor with no jobs registered. The thread count is O(1)
    /// regardless of how many jobs and links are later registered.
    pub(crate) fn spawn(addr: Option<SocketAddr>) -> Result<Arc<Router>, String> {
        let listener = match addr {
            Some(a) => TcpListener::bind(a),
            None => TcpListener::bind("127.0.0.1:0"),
        }
        .map_err(|e| format!("bind {addr:?}: {e}"))?;
        let local = listener.local_addr().map_err(|e| e.to_string())?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("nonblocking listener: {e}"))?;

        let (cmd_tx, cmd_rx) = unbounded();
        let router = Arc::new(Router {
            addr: local,
            jobs: parking_lot::RwLock::new(std::collections::BTreeMap::new()),
            cmd_tx,
            shutdown: AtomicBool::new(false),
            thread: Mutex::new(None),
            ticks: TickStats::new(),
        });
        let r = Arc::clone(&router);
        let h = std::thread::Builder::new()
            .name("acr-reactor".into())
            .spawn(move || reactor(r, listener, cmd_rx))
            .map_err(|e| e.to_string())?;
        *router.thread.lock() = Some(h);
        Ok(router)
    }

    /// Register `job`'s link namespace: `total` links, the channel its
    /// driver-bound events feed, and its handshake parameters. Fails on a
    /// duplicate id or a shut-down reactor.
    pub(crate) fn register_job(
        &self,
        job: u32,
        total: usize,
        event_tx: Sender<Event>,
        rec: Arc<Recorder>,
        welcome_cfg: WelcomeCfg,
        stale_after: Duration,
    ) -> Result<(), String> {
        if self.is_shutdown() {
            return Err("reactor is shut down".into());
        }
        let links = (0..total)
            .map(|_| LinkShared {
                connected: AtomicBool::new(false),
                quarantined: AtomicBool::new(false),
                last_recv: AtomicU64::new(0),
                stale_reported: AtomicBool::new(false),
                conn: Mutex::new(None),
            })
            .collect();
        let shared = Arc::new(JobShared {
            links,
            event_tx,
            welcome_cfg,
            stale_after,
            rec,
        });
        let mut jobs = self.jobs.write();
        if jobs.contains_key(&job) {
            return Err(format!("job id {job} is already registered"));
        }
        jobs.insert(job, shared);
        Ok(())
    }

    /// Remove `job` from the reactor: no new accepts, links detached,
    /// wire stats emitted into the job's recorder. Blocks (briefly — the
    /// reactor drains commands every tick) until the reactor acknowledges,
    /// so the caller may drain the job's recorder immediately after.
    pub(crate) fn deregister_job(&self, job: u32) {
        if self.jobs.write().remove(&job).is_none() {
            return;
        }
        let (done_tx, done_rx) = unbounded();
        if self
            .cmd_tx
            .send(Cmd::Deregister { job, done: done_tx })
            .is_ok()
        {
            let _ = done_rx.recv_timeout(Duration::from_secs(5));
        }
    }

    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The address local endpoints should dial: the bound port, with an
    /// unspecified bind IP (`0.0.0.0` / `::`) rewritten to loopback.
    pub(crate) fn dial_addr(&self) -> SocketAddr {
        let mut addr = self.addr;
        if addr.ip().is_unspecified() {
            match addr {
                SocketAddr::V4(_) => addr.set_ip(std::net::Ipv4Addr::LOCALHOST.into()),
                SocketAddr::V6(_) => addr.set_ip(std::net::Ipv6Addr::LOCALHOST.into()),
            }
        }
        addr
    }

    fn job(&self, job: u32) -> Option<Arc<JobShared>> {
        self.jobs.read().get(&job).cloned()
    }

    /// Frame and queue a protocol message for node `to` of `job`.
    pub(crate) fn send_net(&self, job: u32, to: NodeIndex, msg: &Net) {
        let Some(shared) = self.job(job) else {
            return;
        };
        if to < shared.links.len() {
            let _ = self.cmd_tx.send(Cmd::Send {
                job,
                to,
                body: encode_net(msg),
            });
        }
    }

    /// Kill `node`'s current socket (test hook). The endpoint notices
    /// and reconnects; replay makes the drop lossless.
    pub(crate) fn sever(&self, job: u32, node: NodeIndex) -> bool {
        let Some(shared) = self.job(job) else {
            return false;
        };
        let Some(link) = shared.links.get(node) else {
            return false;
        };
        let taken = link.conn.lock().take();
        match taken {
            Some(stream) => {
                let _ = stream.shutdown(Shutdown::Both);
                true
            }
            None => false,
        }
    }

    /// Sever and refuse future re-accepts from `node` (test hook:
    /// transport-level death, distinguishable from a crash only by the
    /// driver's liveness probe).
    pub(crate) fn quarantine(&self, job: u32, node: NodeIndex) -> bool {
        let Some(shared) = self.job(job) else {
            return false;
        };
        let Some(link) = shared.links.get(node) else {
            return false;
        };
        link.quarantined.store(true, Ordering::SeqCst);
        self.sever(job, node);
        true
    }

    /// Wait until every one of `job`'s links has a handshaken socket.
    pub(crate) fn wait_all_connected(&self, job: u32, timeout: Duration) -> Result<(), String> {
        let Some(shared) = self.job(job) else {
            return Err(format!("job {job} is not registered with the reactor"));
        };
        let deadline = Instant::now() + timeout;
        loop {
            let missing: Vec<usize> = shared
                .links
                .iter()
                .enumerate()
                .filter(|(_, l)| !l.connected.load(Ordering::SeqCst))
                .map(|(i, _)| i)
                .collect();
            if missing.is_empty() {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(format!(
                    "transport: nodes {missing:?} did not connect within {timeout:?}"
                ));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Handshaken links right now, across every registered job.
    pub(crate) fn connected_links(&self) -> usize {
        self.jobs
            .read()
            .values()
            .map(|shared| {
                shared
                    .links
                    .iter()
                    .filter(|l| l.connected.load(Ordering::SeqCst))
                    .count()
            })
            .sum()
    }

    /// The reactor loop's tick-latency accounting (work portion only).
    pub(crate) fn tick_stats(&self) -> &TickStats {
        &self.ticks
    }

    /// Stop the reactor and close every socket of every job.
    pub(crate) fn shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        let _ = self.cmd_tx.send(Cmd::Shutdown);
        if let Some(h) = self.thread.lock().take() {
            let _ = h.join();
        }
    }

    fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// Reactor-local state of one registered job: its link state machines and
/// wire-traffic counters, keyed by job id. Created lazily on the first
/// send or accepted hello for the job.
struct JobLinks {
    shared: Arc<JobShared>,
    links: Vec<LinkState>,
    stats: WireStats,
}

impl JobLinks {
    fn new(shared: Arc<JobShared>) -> JobLinks {
        let links = (0..shared.links.len()).map(|_| LinkState::new()).collect();
        JobLinks {
            shared,
            links,
            stats: WireStats::default(),
        }
    }
}

/// Detach one link's socket (reactor side): close it, clear the shared
/// connection handle, and reset the link's transient decode/send state.
fn detach_link(shared: &LinkShared, ls: &mut LinkState) {
    if let Some(s) = ls.stream.take() {
        let _ = s.shutdown(Shutdown::Both);
    }
    *shared.conn.lock() = None;
    shared.connected.store(false, Ordering::SeqCst);
    ls.detached_since = Some(Instant::now());
    ls.out.clear();
    ls.outq.clear();
    ls.dec = FrameDecoder::new();
}

/// Tear one job's reactor state down: close its sockets and emit its wire
/// stats into the job's own recorder.
fn teardown_job(jl: &mut JobLinks) {
    for (node, ls) in jl.links.iter_mut().enumerate() {
        if let Some(s) = ls.stream.take() {
            let _ = s.shutdown(Shutdown::Both);
        }
        *jl.shared.links[node].conn.lock() = None;
        jl.shared.links[node]
            .connected
            .store(false, Ordering::SeqCst);
    }
    jl.stats.emit(&jl.shared.rec, DRIVER_NODE);
}

/// The reactor loop: one thread multiplexing the listener, every pending
/// handshake, and every link of every registered job via nonblocking
/// I/O, woken by the command channel (or its tick).
fn reactor(router: Arc<Router>, listener: TcpListener, cmd_rx: Receiver<Cmd>) {
    let mut jobs: std::collections::BTreeMap<u32, JobLinks> = std::collections::BTreeMap::new();
    let mut pending: Vec<PendingHello> = Vec::new();
    let mut rdbuf = vec![0u8; 64 * 1024];
    let mut inbound: Vec<(u32, usize, Frame)> = Vec::new();

    'main: loop {
        // --- 1. command drain (the wake pipe, bounded by the tick) -----
        let mut next = match cmd_rx.recv_timeout(REACTOR_TICK) {
            Ok(c) => Some(c),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => break 'main,
        };
        // Tick latency measures the work portion of the iteration, from
        // the moment the wait returned; the 1 ms sleep itself is not work.
        let tick_started = Instant::now();
        loop {
            match next {
                Some(Cmd::Shutdown) => break 'main,
                Some(Cmd::Send { job, to, body }) => {
                    // Lazily materialize the job's reactor state (the
                    // registry entry exists from `register_job`).
                    if let Entry::Vacant(slot) = jobs.entry(job) {
                        if let Some(shared) = router.job(job) {
                            slot.insert(JobLinks::new(shared));
                        }
                    }
                    if let Some(jl) = jobs.get_mut(&job) {
                        if let Some(ls) = jl.links.get_mut(to) {
                            enqueue_frame(
                                &mut ls.ring,
                                &mut ls.outq,
                                &mut ls.tx_seq,
                                to as u32,
                                body,
                            );
                        }
                    }
                }
                Some(Cmd::Deregister { job, done }) => {
                    if let Some(mut jl) = jobs.remove(&job) {
                        teardown_job(&mut jl);
                    } else if let Some(shared) = router.job(job) {
                        // Registered but never touched: still report (zero)
                        // wire stats, like a single-job run with no traffic.
                        WireStats::default().emit(&shared.rec, DRIVER_NODE);
                    }
                    let _ = done.send(());
                }
                None => break,
            }
            next = match cmd_rx.try_recv() {
                Ok(c) => Some(c),
                Err(TryRecvError::Empty) => None,
                Err(TryRecvError::Disconnected) => break 'main,
            };
        }
        if router.is_shutdown() {
            break;
        }

        // --- 2. accept fresh sockets ----------------------------------
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nonblocking(true);
                    let _ = stream.set_nodelay(true);
                    pending.push(PendingHello {
                        stream,
                        buf: [0u8; HELLO_LEN],
                        got: 0,
                        since: Instant::now(),
                    });
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }

        // --- 3. progress handshakes -----------------------------------
        let mut i = 0;
        while i < pending.len() {
            let p = &mut pending[i];
            let verdict = loop {
                match p.stream.read(&mut p.buf[p.got..]) {
                    Ok(0) => break Some(None),
                    Ok(k) => {
                        p.got += k;
                        if p.got == HELLO_LEN {
                            break Some(decode_hello(&p.buf).ok());
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        break (p.since.elapsed() >= HANDSHAKE_DEADLINE).then_some(None)
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => break Some(None),
                }
            };
            match verdict {
                None => i += 1, // still reading
                Some(None) => {
                    // Garbage, EOF, or deadline: drop the socket.
                    let p = pending.swap_remove(i);
                    let _ = p.stream.shutdown(Shutdown::Both);
                }
                Some(Some(hello)) => {
                    let p = pending.swap_remove(i);
                    // Route the link into its job's namespace; a hello
                    // for an unregistered job is dropped like garbage.
                    if let Entry::Vacant(slot) = jobs.entry(hello.job) {
                        if let Some(shared) = router.job(hello.job) {
                            slot.insert(JobLinks::new(shared));
                        }
                    }
                    let Some(jl) = jobs.get_mut(&hello.job) else {
                        let _ = p.stream.shutdown(Shutdown::Both);
                        continue;
                    };
                    let node = hello.node as usize;
                    let Some(shared) = jl.shared.links.get(node) else {
                        let _ = p.stream.shutdown(Shutdown::Both);
                        continue;
                    };
                    if shared.quarantined.load(Ordering::SeqCst) {
                        let _ = p.stream.shutdown(Shutdown::Both);
                        continue;
                    }
                    let ls = &mut jl.links[node];
                    // Replace any half-dead predecessor socket.
                    if let Some(old) = ls.stream.take() {
                        let _ = old.shutdown(Shutdown::Both);
                    }
                    ls.dec = FrameDecoder::new();
                    ls.out.clear();
                    ls.out.set(encode_welcome(&Welcome {
                        last_recv_seq: shared.last_recv.load(Ordering::SeqCst),
                        cfg: jl.shared.welcome_cfg,
                    }));
                    // Replay everything the dead socket swallowed: the
                    // ring tail above the peer's receive high-water mark.
                    ls.outq = ls
                        .ring
                        .iter()
                        .filter(|f| f.seq > hello.last_recv_seq)
                        .cloned()
                        .collect();
                    *shared.conn.lock() = p.stream.try_clone().ok();
                    ls.stream = Some(p.stream);
                    shared.connected.store(true, Ordering::SeqCst);
                    shared.stale_reported.store(false, Ordering::SeqCst);
                    ls.detached_since = None;
                }
            }
        }

        // --- 4. read every readable link ------------------------------
        inbound.clear();
        for (&job, jl) in jobs.iter_mut() {
            for (node, (shared, ls)) in jl.shared.links.iter().zip(jl.links.iter_mut()).enumerate()
            {
                let Some(stream) = ls.stream.as_mut() else {
                    continue;
                };
                let mut dead = false;
                'rd: loop {
                    match stream.read(&mut rdbuf) {
                        Ok(0) => {
                            dead = true;
                            break;
                        }
                        Ok(k) => {
                            jl.stats.bytes_recv += k as u64;
                            ls.dec.feed(&rdbuf[..k]);
                            loop {
                                match ls.dec.next_frame() {
                                    Ok(Some(frame)) => {
                                        jl.stats.frames_recv += 1;
                                        inbound.push((job, node, frame));
                                    }
                                    Ok(None) => break,
                                    Err(_) => {
                                        dead = true;
                                        break 'rd;
                                    }
                                }
                            }
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => {}
                        Err(_) => {
                            dead = true;
                            break;
                        }
                    }
                }
                if dead {
                    detach_link(shared, ls);
                }
            }
        }

        // --- 5. dispatch: dedup, then route to the driver or a link ---
        // A frame's `to` is resolved strictly within the namespace of the
        // job its link handshook into; links cannot address other jobs.
        for (job, from, frame) in inbound.drain(..) {
            let Some(jl) = jobs.get_mut(&job) else {
                continue;
            };
            let shared = &jl.shared.links[from];
            let prev = shared.last_recv.fetch_max(frame.seq, Ordering::SeqCst);
            if prev >= frame.seq {
                continue; // replay duplicate
            }
            if frame.to == DRIVER_DEST {
                match decode_event(&frame.body) {
                    Ok(ev) => {
                        let _ = jl.shared.event_tx.send(ev);
                    }
                    Err(_) => detach_link(shared, &mut jl.links[from]),
                }
            } else if (frame.to as usize) < jl.links.len() {
                let dest = frame.to as usize;
                let ls = &mut jl.links[dest];
                enqueue_frame(
                    &mut ls.ring,
                    &mut ls.outq,
                    &mut ls.tx_seq,
                    frame.to,
                    frame.body,
                );
            }
        }

        // --- 6. flush every writable link -----------------------------
        for jl in jobs.values_mut() {
            for (shared, ls) in jl.shared.links.iter().zip(jl.links.iter_mut()) {
                let Some(stream) = ls.stream.as_mut() else {
                    continue;
                };
                if !flush_socket(
                    stream,
                    &mut ls.out,
                    &mut ls.outq,
                    &mut jl.stats,
                    &jl.shared.rec,
                    DRIVER_NODE,
                ) {
                    detach_link(shared, ls);
                }
            }
        }

        // --- 7. stale scan --------------------------------------------
        for jl in jobs.values_mut() {
            for (node, shared) in jl.shared.links.iter().enumerate() {
                if shared.connected.load(Ordering::SeqCst) {
                    continue;
                }
                let stale = jl.links[node]
                    .detached_since
                    .is_some_and(|t| t.elapsed() >= jl.shared.stale_after);
                if stale && !shared.stale_reported.swap(true, Ordering::SeqCst) {
                    jl.shared.rec.inc_counter("acr_transport_stale_total", 1);
                    let _ = jl.shared.event_tx.send(Event::TransportStale { node });
                }
            }
        }

        router.ticks.record(tick_started.elapsed());
    }

    // Teardown: close every socket so endpoint readers see EOF, and emit
    // each job's wire stats into its own recorder. Jobs registered but
    // never touched by the reactor still report (zero) stats.
    let registered: Vec<(u32, Arc<JobShared>)> = router
        .jobs
        .read()
        .iter()
        .map(|(&id, s)| (id, Arc::clone(s)))
        .collect();
    for (id, shared) in registered {
        match jobs.remove(&id) {
            Some(mut jl) => teardown_job(&mut jl),
            None => WireStats::default().emit(&shared.rec, DRIVER_NODE),
        }
    }
    // Jobs deregistered from the registry whose teardown command never
    // drained (shutdown raced deregister) still close their sockets.
    for jl in jobs.values_mut() {
        teardown_job(jl);
    }
    for p in pending.drain(..) {
        let _ = p.stream.shutdown(Shutdown::Both);
    }
}

// ---------------------------------------------------------------------------
// Endpoint (node side)
// ---------------------------------------------------------------------------

enum EpMsg {
    /// Encoded body for `to` (framed/sequenced by the endpoint loop).
    Frame {
        to: u32,
        body: Vec<u8>,
    },
    Shutdown,
}

/// A node's side of the fabric: **one** thread that dials the router
/// (reconnecting with capped exponential backoff), polls the socket for
/// inbound frames, and flushes queued frames in batches — the node-side
/// mirror of the reactor's per-link state machine.
pub(crate) struct Endpoint {
    /// Job namespace this endpoint's hello routes its link into.
    job: u32,
    node: usize,
    tx: Sender<EpMsg>,
    shutdown: AtomicBool,
    /// Set by [`Endpoint::linger`]: a dead socket ends the loop instead of
    /// starting a redial.
    lingering: AtomicBool,
    /// Highest frame sequence received from the router (dedup; sent in
    /// the hello so the router replays what a dropped socket swallowed).
    last_recv: AtomicU64,
    /// A clone of the live socket, for shutdown/sever.
    conn: Mutex<Option<TcpStream>>,
    /// The node's inbox sender; set to `None` at shutdown so a worker
    /// blocked on `inbox.recv()` sees `Disconnected` and exits.
    inbox_tx: Mutex<Option<Sender<Net>>>,
    welcome: Mutex<Option<WelcomeCfg>>,
    rec: Arc<Recorder>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl Endpoint {
    pub(crate) fn spawn(
        job: u32,
        node: usize,
        addr: SocketAddr,
        inbox: Sender<Net>,
        rec: Arc<Recorder>,
        reconnect_initial: Duration,
        reconnect_max: Duration,
    ) -> Arc<Endpoint> {
        let (tx, rx) = unbounded();
        let ep = Arc::new(Endpoint {
            job,
            node,
            tx,
            shutdown: AtomicBool::new(false),
            lingering: AtomicBool::new(false),
            last_recv: AtomicU64::new(0),
            conn: Mutex::new(None),
            inbox_tx: Mutex::new(Some(inbox)),
            welcome: Mutex::new(None),
            rec,
            thread: Mutex::new(None),
        });
        let e = Arc::clone(&ep);
        let h = std::thread::Builder::new()
            .name(format!("acr-ep-{node}"))
            .spawn(move || endpoint_loop(e, addr, rx, reconnect_initial, reconnect_max))
            .expect("spawn endpoint");
        *ep.thread.lock() = Some(h);
        ep
    }

    /// Frame and queue a protocol message for `to` (another node, routed
    /// by the driver's reactor).
    pub(crate) fn send_net(&self, to: NodeIndex, msg: &Net) {
        let _ = self.tx.send(EpMsg::Frame {
            to: to as u32,
            body: encode_net(msg),
        });
    }

    /// Frame and queue a node→driver event.
    pub(crate) fn send_event(&self, ev: &Event) {
        let _ = self.tx.send(EpMsg::Frame {
            to: DRIVER_DEST,
            body: crate::wire::encode_event(ev),
        });
    }

    /// Block until the welcome handshake delivers the job shape (polled;
    /// the first connect normally lands within a few milliseconds).
    pub(crate) fn wait_welcome(&self, timeout: Duration) -> Option<WelcomeCfg> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(w) = *self.welcome.lock() {
                return Some(w);
            }
            if Instant::now() >= deadline || self.is_shutdown() {
                return None;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Graceful close for a node host whose worker has exited: keep the
    /// link up — what the worker queued last (its `FinalState`) flushes,
    /// inbound traffic keeps draining — until the router closes it, as the
    /// driver does once it has collected every final state. Closing first
    /// would race that flush (and a close over unread inbound bytes resets
    /// the connection, discarding what the kernel had not yet sent).
    /// `deadline` bounds the wait; then [`shutdown`](Endpoint::shutdown).
    pub(crate) fn linger(&self, deadline: Instant) {
        self.lingering.store(true, Ordering::SeqCst);
        let finished = || self.thread.lock().as_ref().is_none_or(|h| h.is_finished());
        while !finished() && Instant::now() < deadline {
            std::thread::sleep(POLL_TICK);
        }
        self.shutdown();
    }

    /// Stop the endpoint thread, close the socket, and drop the inbox
    /// sender (unblocking a worker waiting on it).
    pub(crate) fn shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        let _ = self.tx.send(EpMsg::Shutdown);
        if let Some(s) = self.conn.lock().take() {
            let _ = s.shutdown(Shutdown::Both);
        }
        if let Some(h) = self.thread.lock().take() {
            let _ = h.join();
        }
        *self.inbox_tx.lock() = None;
    }

    fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn obs_node(&self) -> u32 {
        self.node as u32
    }
}

/// The endpoint's single-thread loop: dial (with backoff and
/// `TransportRetry`/`TransportConnect` events), replay the ring tail,
/// then alternate command draining, polled reads, and batched flushes
/// until the socket or the endpoint dies.
fn endpoint_loop(
    ep: Arc<Endpoint>,
    addr: SocketAddr,
    rx: Receiver<EpMsg>,
    reconnect_initial: Duration,
    reconnect_max: Duration,
) {
    let mut tx_seq: u64 = 0;
    let mut ring: VecDeque<OutFrame> = VecDeque::new();
    let mut outq: VecDeque<OutFrame> = VecDeque::new();
    let mut out = SendBuf::default();
    let mut dec = FrameDecoder::new();
    let mut stream: Option<TcpStream> = None;
    let mut backoff = reconnect_initial;
    let mut attempt: u32 = 0;
    let mut stats = WireStats::default();
    let mut rdbuf = vec![0u8; 64 * 1024];

    let detach = |stream: &mut Option<TcpStream>, ep: &Endpoint| {
        if let Some(s) = stream.take() {
            let _ = s.shutdown(Shutdown::Both);
        }
        *ep.conn.lock() = None;
    };

    'main: while !ep.is_shutdown() {
        // --- dial until attached --------------------------------------
        if stream.is_none() {
            if ep.lingering.load(Ordering::SeqCst) {
                break;
            }
            attempt += 1;
            match dial(&ep, addr) {
                Ok((s, welcome)) => {
                    let _ = s.set_nonblocking(true);
                    dec = FrameDecoder::new();
                    out.clear();
                    // Replay is driven by the router's view of what it
                    // received; everything newer went down with the old
                    // socket.
                    outq = ring
                        .iter()
                        .filter(|f| f.seq > welcome.last_recv_seq)
                        .cloned()
                        .collect();
                    *ep.conn.lock() = s.try_clone().ok();
                    *ep.welcome.lock() = Some(welcome.cfg);
                    stream = Some(s);
                    let a = attempt;
                    ep.rec.inc_counter("acr_transport_connects_total", 1);
                    let node = ep.obs_node();
                    ep.rec
                        .emit_with(node, || EventKind::TransportConnect { attempt: a });
                    backoff = reconnect_initial;
                    attempt = 0;
                }
                Err(_) => {
                    let delay = backoff;
                    let a = attempt;
                    ep.rec.inc_counter("acr_transport_retries_total", 1);
                    let node = ep.obs_node();
                    ep.rec.emit_with(node, || EventKind::TransportRetry {
                        attempt: a,
                        delay_us: delay.as_micros() as u64,
                    });
                    // Backoff in small slices so shutdown stays prompt.
                    let deadline = Instant::now() + delay;
                    while Instant::now() < deadline {
                        if ep.is_shutdown() {
                            break 'main;
                        }
                        std::thread::sleep(POLL_TICK.min(delay));
                    }
                    backoff = (backoff * 2).min(reconnect_max);
                    continue;
                }
            }
        }

        // --- command drain --------------------------------------------
        let mut next = match rx.recv_timeout(REACTOR_TICK) {
            Ok(m) => Some(m),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => break 'main,
        };
        loop {
            match next {
                Some(EpMsg::Shutdown) => break 'main,
                Some(EpMsg::Frame { to, body }) => {
                    enqueue_frame(&mut ring, &mut outq, &mut tx_seq, to, body);
                }
                None => break,
            }
            next = match rx.try_recv() {
                Ok(m) => Some(m),
                Err(TryRecvError::Empty) => None,
                Err(TryRecvError::Disconnected) => break 'main,
            };
        }

        // --- polled read ----------------------------------------------
        if let Some(s) = stream.as_mut() {
            let mut dead = false;
            'rd: loop {
                match s.read(&mut rdbuf) {
                    Ok(0) => {
                        dead = true;
                        break;
                    }
                    Ok(k) => {
                        stats.bytes_recv += k as u64;
                        dec.feed(&rdbuf[..k]);
                        loop {
                            match dec.next_frame() {
                                Ok(Some(frame)) => {
                                    let prev = ep.last_recv.fetch_max(frame.seq, Ordering::SeqCst);
                                    if prev >= frame.seq {
                                        continue; // replay duplicate
                                    }
                                    stats.frames_recv += 1;
                                    match decode_net(&frame.body) {
                                        Ok(msg) => {
                                            let guard = ep.inbox_tx.lock();
                                            if let Some(tx) = guard.as_ref() {
                                                if tx.send(msg).is_err() {
                                                    // The worker is gone (job
                                                    // tearing down): count the
                                                    // swallowed delivery like
                                                    // the in-process backend
                                                    // does.
                                                    ep.rec.inc_counter(
                                                        "acr_send_to_closed_inbox_total",
                                                        1,
                                                    );
                                                }
                                            } else {
                                                ep.rec.inc_counter(
                                                    "acr_send_to_closed_inbox_total",
                                                    1,
                                                );
                                            }
                                        }
                                        Err(_) => {
                                            dead = true;
                                            break 'rd;
                                        }
                                    }
                                }
                                Ok(None) => break,
                                Err(_) => {
                                    dead = true;
                                    break 'rd;
                                }
                            }
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            if dead {
                detach(&mut stream, &ep);
                continue;
            }
        }

        // --- batched flush --------------------------------------------
        if let Some(s) = stream.as_mut() {
            if !flush_socket(s, &mut out, &mut outq, &mut stats, &ep.rec, ep.obs_node()) {
                detach(&mut stream, &ep);
            }
        }
    }
    stats.emit(&ep.rec, ep.obs_node());
    detach(&mut stream, &ep);
}

/// One dial + handshake: connect, send the hello (with our high-water
/// receive mark), read the welcome. Blocking
/// with timeouts; the socket goes nonblocking after the handshake.
fn dial(ep: &Endpoint, addr: SocketAddr) -> Result<(TcpStream, Welcome), String> {
    let mut stream =
        TcpStream::connect_timeout(&addr, Duration::from_secs(1)).map_err(|e| e.to_string())?;
    let _ = stream.set_nodelay(true);
    let hello = encode_hello(&Hello {
        job: ep.job,
        node: ep.node as u32,
        last_recv_seq: ep.last_recv.load(Ordering::SeqCst),
    });
    stream.write_all(&hello).map_err(|e| e.to_string())?;
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let mut buf = [0u8; WELCOME_LEN];
    stream.read_exact(&mut buf).map_err(|e| e.to_string())?;
    let welcome = decode_welcome(&buf).map_err(|e| e.to_string())?;
    let _ = stream.set_read_timeout(None);
    Ok((stream, welcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use acr_core::DetectionMethod;

    fn thread_count() -> Option<usize> {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        status
            .lines()
            .find(|l| l.starts_with("Threads:"))?
            .split_whitespace()
            .nth(1)?
            .parse()
            .ok()
    }

    fn test_welcome(total: usize) -> WelcomeCfg {
        WelcomeCfg {
            ranks: 1,
            tasks_per_rank: 1,
            spares: 0,
            total: total as u32,
            detection: DetectionMethod::ChunkedChecksum,
            chunk_size: 1024,
            heartbeat_period_ns: 1_000_000_000,
            heartbeat_timeout_ns: 10_000_000_000,
            delta_checkpoints: false,
            delta_anchor_interval: 16,
        }
    }

    /// The acceptance criterion for the reactor design: driver-side
    /// transport threads stay O(1) no matter how many links attach. 300
    /// raw clients handshake against one router; the process thread
    /// count may only grow by the reactor itself (plus scheduler noise).
    #[test]
    fn reactor_multiplexes_hundreds_of_links_on_bounded_threads() {
        const LINKS: usize = 300;
        let before = thread_count();
        let (event_tx, _event_rx) = unbounded();
        let router = Router::spawn(None).expect("router binds");
        router
            .register_job(
                0,
                LINKS,
                event_tx,
                Recorder::disabled(),
                test_welcome(LINKS),
                Duration::from_secs(600),
            )
            .expect("register job");
        let addr = router.local_addr();
        let mut clients = Vec::with_capacity(LINKS);
        for node in 0..LINKS {
            // The accept queue may briefly fill while the reactor drains
            // it once per tick; retry rather than assume infinite backlog.
            let mut s = loop {
                match TcpStream::connect(addr) {
                    Ok(s) => break s,
                    Err(_) => std::thread::sleep(Duration::from_millis(1)),
                }
            };
            s.write_all(&encode_hello(&Hello {
                job: 0,
                node: node as u32,
                last_recv_seq: 0,
            }))
            .expect("hello");
            clients.push(s);
        }
        router
            .wait_all_connected(0, Duration::from_secs(30))
            .expect("all links handshake");
        if let (Some(b), Some(d)) = (before, thread_count()) {
            assert!(
                d <= b + 4,
                "driver transport is not O(1) threads: {b} -> {d} for {LINKS} links"
            );
        }
        router.shutdown();
    }

    /// A v4 dialer (25-byte hello carrying the codec mask, version 4) is
    /// refused at the handshake: the reactor reads the hello at today's
    /// length, fails the version check, and closes the socket — no
    /// welcome, no link.
    #[test]
    fn v4_hello_is_refused_at_the_handshake() {
        let (event_tx, _event_rx) = unbounded();
        let router = Router::spawn(None).expect("router binds");
        router
            .register_job(
                0,
                1,
                event_tx,
                Recorder::disabled(),
                test_welcome(1),
                Duration::from_secs(600),
            )
            .expect("register job");
        let mut v4 = encode_hello(&Hello {
            job: 0,
            node: 0,
            last_recv_seq: 0,
        });
        v4[4..8].copy_from_slice(&4u32.to_le_bytes());
        v4.push(0b111);
        assert_eq!(
            decode_hello(&v4[..HELLO_LEN]),
            Err(crate::wire::WireError::BadVersion(4))
        );
        let mut s = TcpStream::connect(router.local_addr()).expect("connect");
        s.write_all(&v4).expect("hello");
        let _ = s.set_read_timeout(Some(Duration::from_secs(5)));
        let mut one = [0u8; 1];
        assert_eq!(
            s.read(&mut one).unwrap_or(0),
            0,
            "a v4 hello must get no welcome"
        );
        assert_eq!(router.connected_links(), 0);
        router.shutdown();
    }

    /// Job namespaces on one reactor: the same node index handshaken
    /// under two different job ids lands on two different links, frames
    /// route within their own job, a hello for an unregistered job id is
    /// refused, and deregistering one job leaves the other attached.
    #[test]
    fn reactor_isolates_job_link_namespaces() {
        let (tx_a, rx_a) = unbounded();
        let (tx_b, rx_b) = unbounded();
        let router = Router::spawn(None).expect("router binds");
        for (job, tx) in [(1u32, tx_a), (2u32, tx_b)] {
            router
                .register_job(
                    job,
                    2,
                    tx,
                    Recorder::disabled(),
                    test_welcome(2),
                    Duration::from_secs(600),
                )
                .expect("register job");
        }
        let addr = router.local_addr();
        let dial = |job: u32, node: u32| {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(&encode_hello(&Hello {
                job,
                node,
                last_recv_seq: 0,
            }))
            .expect("hello");
            let mut w = [0u8; WELCOME_LEN];
            s.read_exact(&mut w).expect("welcome");
            decode_welcome(&w).expect("welcome decodes");
            s
        };
        let mut a0 = dial(1, 0);
        let _a1 = dial(1, 1);
        let mut b0 = dial(2, 0);
        let _b1 = dial(2, 1);
        router
            .wait_all_connected(1, Duration::from_secs(10))
            .expect("job 1 links");
        router
            .wait_all_connected(2, Duration::from_secs(10))
            .expect("job 2 links");
        assert_eq!(router.connected_links(), 4);

        // A hello for a job nobody registered is dropped: the socket is
        // closed without a welcome.
        let mut ghost = TcpStream::connect(addr).expect("connect");
        ghost
            .write_all(&encode_hello(&Hello {
                job: 99,
                node: 0,
                last_recv_seq: 0,
            }))
            .expect("hello");
        let _ = ghost.set_read_timeout(Some(Duration::from_secs(5)));
        let mut one = [0u8; 1];
        assert_eq!(
            ghost.read(&mut one).unwrap_or(0),
            0,
            "unregistered job id must be refused"
        );

        // Driver-bound events route to their own job's channel.
        let ping = crate::wire::encode_event(&Event::Pong { node: 0, token: 7 });
        a0.write_all(&crate::wire::encode_frame(DRIVER_DEST, 1, &ping))
            .expect("frame");
        let got = rx_a
            .recv_timeout(Duration::from_secs(10))
            .expect("job 1 event arrives");
        assert!(matches!(got, Event::Pong { node: 0, token: 7 }));
        assert!(
            rx_b.try_recv().is_err(),
            "job 2 must not observe job 1 traffic"
        );

        // Node-bound frames route within the sender's job namespace:
        // job 2's node 0 sending to node 1 reaches job 2's node 1 only.
        let body = encode_net(&Net::Ctrl(crate::message::Ctrl::Resume { floor: 0 }));
        b0.write_all(&crate::wire::encode_frame(1, 1, &body))
            .expect("frame");

        router.deregister_job(1);
        assert_eq!(router.connected_links(), 2, "job 2 links survive");
        router.shutdown();
    }
}
