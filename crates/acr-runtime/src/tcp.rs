//! The TCP fabric: a driver-side [`Router`] — a **single-threaded
//! nonblocking reactor** multiplexing every node link — and a node-side
//! [`Endpoint`] (one thread serving the node's two links), exchanging
//! [`wire`](crate::wire) frames. Topology: a star for control, plus one
//! data link per buddy pair. Every node's link to the router carries the
//! control plane and membership — consensus, heartbeats, application
//! messages, events, `Install` — while the round's comparison traffic
//! (`Compare`, `CompareResult`) goes straight from a node's endpoint to its
//! buddy's (§2.1 sends the remote checkpoint *to the buddy*). The buddy
//! link is dialed by the node that ships the first compare record, to the
//! address the router's address book gives for the buddy, and re-pointed
//! when the driver names a new buddy; a job that never ships never opens
//! one.
//!
//! Reliability model: the protocol has no message-level timeouts (a lost
//! consensus contribution would wedge a round forever), so the wire layer
//! must make transient socket drops *lossless* rather than merely
//! survivable. Each link direction carries a monotone frame sequence; the
//! sender keeps every frame in a replay ring until the peer acknowledges
//! it — every frame header carries the highest sequence its sender has
//! received, and a link with nothing to say acknowledges with a bodiless
//! frame after [`ACK_AFTER_BYTES`] — so the ring is the unacknowledged
//! window and nothing more. The handshake exchanges the same high-water
//! mark, and each side replays everything newer. One [`Link`] does this
//! for every link of the fabric: it drops duplicates by sequence and
//! acknowledges what it received, and each link an endpoint dials has one
//! handshake — a bounded `connect`, the hello, the welcome read as it
//! lands — and one redial timer, the buddy link the same as the router
//! link. A socket drop therefore looks, to the protocol, like a brief
//! stall — which is exactly what distinguishes it from node death: the
//! reactor's stale-link timer reports a link detached too long, and the
//! *driver's liveness probe* (not the transport) decides whether the node
//! behind it is dead. A buddy link detached that long is not reported: the
//! router carries that pair's comparison traffic until the link attaches
//! again, so buddies that can reach the driver but not each other finish.
//!
//! Threading: the reactor is O(1) threads regardless of link count, and
//! both it and the endpoint loop are *readiness-driven*: every socket (and
//! the listener) is nonblocking, and the loop parks in one `poll(2)`
//! ([`poller::wait`]) over its sockets plus a wake descriptor that every
//! command sender pokes ([`Waker`]). A byte arriving on a socket, a
//! queued command, or the next timer (a pending handshake's deadline, a
//! redial, a detached link turning stale) ends the wait; nothing else
//! does, so an idle fabric makes no system calls. Per wake-up the reactor
//! drains its commands, accepts and progresses handshakes, takes one
//! bounded read from each link poll reported readable, dispatches the
//! frames, and flushes the links that took frames or were reported
//! writable. An endpoint serves its router link, its listener and its
//! buddy link the same way, but reads a readable link until it would
//! block; while its router link redials, the buddy link, the listener and
//! the commands are served as ever. A write that would block parks the
//! rest in a per-link buffer and the link asks poll for `POLLOUT` until it
//! drains.
//!
//! Nothing large is assembled that is already in memory. A message's body
//! is a short list of shared segments (see [`wire`](crate::wire)), and a
//! flush ([`SendSide::flush`]) turns the head of a link's queue into one
//! vectored write of frames back to back: headers, trailers and body
//! segments under 4 KiB are copied into a contiguous buffer, every larger
//! segment goes in as a part of its own, by reference, and a partial write
//! resumes mid-part. A burst of consensus chatter is therefore one small
//! buffer and one system call, and a packed checkpoint goes from the
//! node's pack buffer to the socket without a copy while the replay ring
//! holds that same allocation; its trailer's checksum is one pass over the
//! body before the first byte leaves. Inbound, a large frame is received
//! straight into the allocation that becomes its body, checksummed as it
//! lands: one pass per end. The reactor relays the bodies it routes from
//! node to node — with the trailer each was verified against — to the
//! destination link as they are, so the destination's check covers the
//! relay's memory as well as both wires.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use acr_obs::{EventKind, Recorder, DRIVER_NODE};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use crate::message::{Ctrl, Event, Net, NodeIndex};
use crate::poller::{self, PollFd, Waker, POLLIN, POLLOUT};
use crate::wire::{
    body_check, body_len, decode_address_book, decode_event, decode_hello, decode_net,
    decode_welcome, encode_address_book, encode_event, encode_frame_acked, encode_hello,
    encode_net, encode_welcome, frame_ends, ship_of, Frame, FrameDecoder, Hello, Ship, Welcome,
    WelcomeCfg, DRIVER_DEST, ENDPOINT_DEST, FRAME_HEADER, FRAME_TRAILER, HELLO_LEN, SEGMENT_MIN,
    WELCOME_LEN,
};

/// Body bytes a *stale* link's replay ring is shed to (see
/// [`ReplayRing::shed`]). An attached link needs no such bound: its ring
/// holds what the peer has not acknowledged, and no more.
const REPLAY_RING_BYTES: usize = 32 << 20;

/// Body bytes a link lets arrive without sending anything before it sends
/// a bodiless frame just to acknowledge them. Any frame acknowledges, so
/// this only matters one-way: it bounds what the *sender's* ring holds on
/// to while the receiver has nothing to say — one shipped checkpoint
/// always crosses it, a round of consensus chatter never does.
const ACK_AFTER_BYTES: usize = 256 << 10;

/// Most parts handed to one vectored write (a flush of small frames around
/// the few segments of a checkpoint record fits; a delta record with more
/// dirty windows than this takes another write).
const MAX_IOV: usize = 16;

/// First redial backoff of an endpoint link after a failed dial; each
/// further failure doubles it up to [`REDIAL_MAX`].
const REDIAL_INITIAL: Duration = Duration::from_millis(1);

/// Largest redial backoff of an endpoint link whose traffic has not fallen
/// back to the router.
const REDIAL_MAX: Duration = Duration::from_millis(50);

/// How long the driver waits for every node to complete the connect/accept
/// handshake before declaring the job failed.
pub(crate) const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

/// The pause of the two error paths that must not spin.
const POLL_TICK: Duration = Duration::from_millis(5);

/// A dialer that sends no (or a partial) hello is cut off after this, and
/// so is a buddy-link dial that gets no (or a partial) welcome.
const HANDSHAKE_DEADLINE: Duration = Duration::from_secs(1);

/// How long an endpoint's `connect` to its buddy may block its loop, whose
/// heartbeats, consensus and events wait behind it (and never longer than
/// the stale window). A buddy's endpoint on the same network accepts well
/// within it; one that cannot be reached, or only slowly, is redialed with
/// backoff until its link falls back to the router.
const BUDDY_CONNECT_TIMEOUT: Duration = Duration::from_millis(10);

/// Largest redial backoff of a buddy link whose traffic has fallen back to
/// the router: a buddy that cannot be reached costs a failed `connect` at
/// most this often, and a link that can attach again still does.
const ROUTED_REDIAL_MAX: Duration = Duration::from_secs(1);

/// Body bytes after which a flush stops taking frames off the queue and
/// writes what it has assembled (the rest follows in the same flush if the
/// socket keeps up). It bounds the buffer a burst of small frames is copied
/// into, and how long a written frame waits to be marked as such; a single
/// larger frame still leaves whole.
const FLUSH_BYTES: u64 = 256 * 1024;

/// Bytes taken per read. The reactor takes one such read from a link per
/// wake-up: level-triggered poll reports the link again while more is
/// waiting, so a bulk sender shares every wake-up with the other links'
/// small consensus frames instead of being drained to the end first. An
/// endpoint reads a readable link until the socket would block or it owes
/// an acknowledgement, this much at a time, and a frame arriving into its
/// own allocation is checksummed read by read, while what just landed is
/// still in cache.
const READ_BUDGET: usize = 64 * 1024;

// ---------------------------------------------------------------------------
// Shared send-side machinery (reactor links and endpoints)
// ---------------------------------------------------------------------------

/// One frame awaiting (re)transmission: destination, link sequence, body.
/// The body's segments are shared, so the replay ring, the send queue and
/// whoever encoded the message hold one allocation between them.
#[derive(Clone)]
struct OutFrame {
    to: u32,
    seq: u64,
    body: Vec<Bytes>,
    /// Total length of `body`.
    len: usize,
    /// The body's Fletcher-64 when it is already known: a relayed frame
    /// keeps the trailer it arrived (and was verified) with.
    check: Option<u64>,
}

/// Bytes on their way into the socket, as a list of shared parts and a
/// cursor; what a write that would block leaves behind waits here until
/// the socket is writable again. No part is empty, and `off` is always
/// inside the first.
#[derive(Default)]
struct SendBuf {
    parts: VecDeque<Bytes>,
    /// Bytes of `parts[0]` already written.
    off: usize,
    /// Highest link sequence among `parts` (0 for a handshake record or a
    /// bodiless acknowledgement).
    last_seq: u64,
}

impl SendBuf {
    fn clear(&mut self) {
        self.set([], 0);
    }
    fn set(&mut self, parts: impl IntoIterator<Item = Bytes>, last_seq: u64) {
        self.parts.clear();
        parts.into_iter().for_each(|p| self.push(p));
        self.off = 0;
        self.last_seq = last_seq;
    }
    fn push(&mut self, part: Bytes) {
        if !part.is_empty() {
            self.parts.push_back(part);
        }
    }
    fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// Write parts, [`MAX_IOV`] to a call, until none are left (`Ok(true)`)
    /// or the socket would block (`Ok(false)`).
    fn write_to(&mut self, w: &mut impl Write) -> std::io::Result<bool> {
        while !self.parts.is_empty() {
            let mut iov = [IoSlice::new(&[]); MAX_IOV];
            let n = self.parts.len().min(MAX_IOV);
            for (slot, part) in iov.iter_mut().zip(&self.parts) {
                *slot = IoSlice::new(part);
            }
            iov[0] = IoSlice::new(&self.parts[0][self.off..]);
            match w.write_vectored(&iov[..n]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(k) => self.advance(k),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// `k` more bytes are written: whole parts go, a partial one moves
    /// the cursor.
    fn advance(&mut self, mut k: usize) {
        while k > 0 {
            let left = self.parts[0].len() - self.off;
            if k < left {
                self.off += k;
                return;
            }
            k -= left;
            self.parts.pop_front();
            self.off = 0;
        }
    }
}

/// Sent frames kept for replay after a reconnect: the link direction's
/// unacknowledged window.
///
/// A frame is *written* once all of its bytes have been handed to the
/// current socket, and leaves when the peer acknowledges it — every frame
/// the peer sends carries the highest sequence it has received, and one
/// that only receives says so every [`ACK_AFTER_BYTES`]. Until then it
/// stays, however large the ring grows: the send queue (and, for a shipped
/// checkpoint, the node's own local copy) holds the same allocation, so
/// this costs nothing extra, and dropping it would lose a frame the peer
/// may never have seen. A peer that stops reading stalls the socket, its
/// frames stay unwritten, and the stale timer below is what ends that. A
/// reconnect handshake is an acknowledgement too: frames at or below the
/// peer's high-water mark are dropped, and everything left counts as
/// unwritten again — the new socket has carried none of it.
///
/// "Until acknowledged" needs a peer to wait for. A link that has been
/// without a socket long enough to be reported stale is
/// [`shed`](Self::shed) to [`REPLAY_RING_BYTES`], newest kept, so frames
/// addressed to a node that is not coming back cannot pile up for the
/// rest of the run.
#[derive(Default)]
struct ReplayRing {
    frames: VecDeque<OutFrame>,
    /// How many frames at the front are written.
    written: usize,
    /// Body bytes held, written or not.
    bytes: usize,
}

impl ReplayRing {
    fn push(&mut self, f: OutFrame) {
        self.bytes += f.len;
        self.frames.push_back(f);
    }

    fn pop(&mut self) {
        if let Some(f) = self.frames.pop_front() {
            self.bytes -= f.len;
            self.written = self.written.saturating_sub(1);
        }
    }

    /// Everything up to and including `seq` is written.
    fn mark_written(&mut self, seq: u64) {
        while (self.frames.get(self.written)).is_some_and(|f| f.seq <= seq) {
            self.written += 1;
        }
    }

    /// The peer holds everything up to `ack`. Only written frames go: an
    /// acknowledgement cannot be for bytes this socket has not carried.
    fn acknowledge(&mut self, ack: u64) {
        while self.written > 0 && self.frames[0].seq <= ack {
            self.pop();
        }
    }

    /// No socket is coming for these soon (the link is stale): keep the
    /// newest [`REPLAY_RING_BYTES`] — and always the newest frame.
    fn shed(&mut self) {
        while self.frames.len() > 1 && self.bytes - self.frames[0].len >= REPLAY_RING_BYTES {
            self.pop();
        }
    }

    /// The peer holds everything up to `peer_last_recv`: forget that, and
    /// return the rest — what the dead socket swallowed — for replay.
    fn reattach(&mut self, peer_last_recv: u64) -> VecDeque<OutFrame> {
        while self.frames.front().is_some_and(|f| f.seq <= peer_last_recv) {
            self.pop();
        }
        self.written = 0;
        self.frames.clone()
    }
}

/// What one link direction's [`ReplayRing`] holds, published by the loop
/// that owns it each time round, for the tests to watch from outside.
#[cfg(test)]
#[derive(Default)]
struct RingGauge {
    frames: std::sync::atomic::AtomicUsize,
    bytes: std::sync::atomic::AtomicUsize,
}

#[cfg(test)]
impl RingGauge {
    fn publish(&self, ring: &ReplayRing) {
        self.frames.store(ring.frames.len(), Ordering::SeqCst);
        self.bytes.store(ring.bytes, Ordering::SeqCst);
    }
    fn frames(&self) -> usize {
        self.frames.load(Ordering::SeqCst)
    }
    fn bytes(&self) -> usize {
        self.bytes.load(Ordering::SeqCst)
    }
}

/// Wire traffic counters for one side of the fabric, reported as a
/// [`EventKind::WireBytes`] event at shutdown. `ship_*` isolate
/// checkpoint-ship traffic (`Net::Compare` / `Net::Install` bodies).
#[derive(Default)]
struct WireStats {
    frames_sent: u64,
    bytes_sent: u64,
    frames_recv: u64,
    bytes_recv: u64,
    ship_raw_bytes: u64,
    ship_wire_bytes: u64,
    /// Writes assembled from two or more frames.
    batch_flushes: u64,
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
        rec.emit_with(node, || EventKind::WireBytes {
            frames_sent: self.frames_sent,
            bytes_sent: self.bytes_sent,
            frames_recv: self.frames_recv,
            bytes_recv: self.bytes_recv,
            ship_raw_bytes: self.ship_raw_bytes,
            ship_wire_bytes: self.ship_wire_bytes,
            batch_flushes: self.batch_flushes,
            delta_raw_bytes: self.delta_raw_bytes,
            delta_shipped_bytes: self.delta_shipped_bytes,
            chunks_dirty: self.chunks_dirty,
        });
    }

    /// Count one frame about to leave, and classify it: checkpoint-ship
    /// traffic as [`ship_of`] tells it from the body's first segment
    /// (driver-bound event bodies share the tag space, so only node-bound
    /// frames are classified).
    fn sending(&mut self, f: &OutFrame) {
        let len = f.len as u64;
        let wire = (FRAME_HEADER + FRAME_TRAILER) as u64 + len;
        self.frames_sent += 1;
        self.bytes_sent += wire;
        let Some(ship) = ship_of(&f.body).filter(|_| f.to != DRIVER_DEST) else {
            return;
        };
        self.ship_raw_bytes += len;
        self.ship_wire_bytes += wire;
        if let Ship::Delta { payload_len, dirty } = ship {
            self.delta_raw_bytes += payload_len;
            self.delta_shipped_bytes += len;
            self.chunks_dirty += dirty as u64;
        }
    }
}

/// The send half of one link direction: sequencing, the replay ring, the
/// frames queued for the current socket and the parts already assembled
/// for it — and, because every frame that leaves acknowledges what came
/// the other way, the count of what has arrived since one last did. The
/// reactor keeps one per link, an endpoint keeps one.
#[derive(Default)]
struct SendSide {
    tx_seq: u64,
    ring: ReplayRing,
    /// Whether a socket is attached; `outq` and `out` are empty otherwise.
    attached: bool,
    outq: VecDeque<OutFrame>,
    out: SendBuf,
    /// Body bytes received on this link since a frame last left it.
    unacked: usize,
}

impl SendSide {
    /// Assign the next sequence number and queue `body` for `to`: into
    /// the replay ring, and onto the send queue if there is a socket to
    /// send it on (the next one is fed from the ring).
    fn enqueue(&mut self, to: u32, body: Vec<Bytes>, check: Option<u64>) {
        self.tx_seq += 1;
        let f = OutFrame {
            to,
            seq: self.tx_seq,
            len: body_len(&body),
            body,
            check,
        };
        if self.attached {
            self.outq.push_back(f.clone());
        }
        self.ring.push(f);
    }

    /// `frame` arrived on this link: what it acknowledges leaves the ring,
    /// and its body counts toward the acknowledgement this side owes.
    fn received(&mut self, frame: &Frame) {
        self.ring.acknowledge(frame.ack);
        self.unacked += frame.body.len();
    }

    /// Enough has arrived unanswered that a flush should acknowledge it
    /// even with nothing else to send.
    fn ack_due(&self) -> bool {
        self.unacked >= ACK_AFTER_BYTES
    }

    /// Something is waiting for the socket. Between wake-ups this means
    /// the last flush stopped at a write that would block, so the link
    /// wants `POLLOUT`.
    fn backlog(&self) -> bool {
        !self.out.is_empty() || !self.outq.is_empty()
    }

    /// A fresh socket attached: `greeting` (the welcome, on the reactor
    /// side) leaves first, then everything the peer has not acknowledged.
    fn reattach(&mut self, peer_last_recv: u64, greeting: Vec<u8>) {
        self.attached = true;
        self.out.set([Bytes::from(greeting)], 0);
        self.outq = self.ring.reattach(peer_last_recv);
    }

    /// The socket is gone: what was queued for it stays in the ring.
    fn detach(&mut self) {
        self.attached = false;
        self.out.clear();
        self.outq.clear();
    }

    /// Write as much parked + queued data as the socket takes without
    /// blocking: drain what is already assembled, then repeatedly assemble
    /// the head of the queue — up to [`FLUSH_BYTES`] of bodies — into one
    /// vectored write and keep writing. The frames' headers, trailers and
    /// segments under [`SEGMENT_MIN`] are copied into a contiguous run; a
    /// larger segment ends the run and follows it as a part of its own, so
    /// a shipped checkpoint is never copied and a burst of small frames is
    /// one buffer. Every frame assembled here carries `ack`, the highest
    /// sequence received on this link; when the queue is empty and an
    /// acknowledgement is [due](Self::ack_due), a bodiless frame carries
    /// it. Returns `false` on a fatal socket error — the caller detaches.
    fn flush(
        &mut self,
        stream: &mut impl Write,
        ack: u64,
        stats: &mut WireStats,
        rec: &Recorder,
        obs_node: u32,
    ) -> bool {
        let (out, outq) = (&mut self.out, &mut self.outq);
        loop {
            match out.write_to(stream) {
                Ok(true) => {}
                Ok(false) => return true,
                Err(_) => return false,
            }
            self.ring.mark_written(out.last_seq);
            out.clear();
            if outq.is_empty() && self.unacked < ACK_AFTER_BYTES {
                return true;
            }
            self.unacked = 0;
            let mut run = Vec::new();
            let (mut frames, mut raw) = (0u64, 0u64);
            while raw < FLUSH_BYTES {
                let Some(f) = outq.pop_front() else {
                    break;
                };
                stats.sending(&f);
                let check = f.check.unwrap_or_else(|| body_check(&f.body));
                let (header, trailer) = frame_ends(f.to, f.seq, ack, f.len, check);
                run.reserve(FRAME_HEADER + f.len.min(SEGMENT_MIN) + FRAME_TRAILER);
                run.extend_from_slice(&header);
                for seg in f.body {
                    if seg.len() < SEGMENT_MIN {
                        run.extend_from_slice(&seg);
                    } else {
                        out.push(Bytes::from(std::mem::take(&mut run)));
                        out.push(seg);
                    }
                }
                run.extend_from_slice(&trailer);
                out.last_seq = f.seq;
                frames += 1;
                raw += f.len as u64;
            }
            if frames == 0 {
                // Nothing was queued: the acknowledgement that is due goes
                // in a bodiless frame.
                run = encode_frame_acked(0, 0, ack, &[]);
                stats.bytes_sent += run.len() as u64;
            }
            out.push(Bytes::from(run));
            if frames >= 2 {
                stats.batch_flushes += 1;
                rec.emit_with(obs_node, || EventKind::BatchFlush {
                    frames,
                    raw_bytes: raw,
                    wire_bytes: raw + frames * (FRAME_HEADER + FRAME_TRAILER) as u64,
                });
            }
        }
    }
}

/// Park a fabric loop in [`poller::wait`]. `poll` itself can fail
/// (`ENOMEM`; `EINVAL` once the set outgrows a lowered `RLIMIT_NOFILE`),
/// and a loop that died of it would leave every link silently dead with
/// nobody told. Pause instead, then report every descriptor ready for what
/// it asked: they are all nonblocking, so a false "ready" costs one call
/// that would block, and the loop limps on at [`POLL_TICK`] until the
/// condition clears. Said once on stderr.
fn wait_ready(fds: &mut [PollFd], timeout: Option<Duration>) {
    static WARNED: std::sync::Once = std::sync::Once::new();
    if let Err(e) = poller::wait(fds, timeout) {
        WARNED.call_once(|| eprintln!("acr transport: poll(2) failed ({e}); sweeping instead"));
        std::thread::sleep(POLL_TICK);
        fds.iter_mut().for_each(PollFd::assume_ready);
    }
}

/// Park a fabric loop whose poll set `fds` opens with `waker`'s entry
/// until a socket, a command on `rx` or the timer `next` needs it; return
/// the first command. Flag first, channel second (see [`Waker`]): a
/// command that slips in after the check is followed by a wake byte. With
/// a command in hand the wait only collects what the sockets have ready.
fn park<T>(
    waker: &Waker,
    rx: &Receiver<T>,
    fds: &mut [PollFd],
    next: Option<Instant>,
) -> Option<T> {
    waker.park();
    let cmd = rx.try_recv().ok();
    let timeout = match (&cmd, next) {
        (Some(_), _) => Some(Duration::ZERO),
        (None, Some(at)) => Some(at.saturating_duration_since(Instant::now())),
        (None, None) => None,
    };
    wait_ready(fds, timeout);
    waker.unpark(fds[0].readable());
    cmd
}

/// One link's own state, the same on every link of the fabric — a
/// reactor link, an endpoint's router link, a buddy link: the socket, the
/// decoder of what arrives on it, the send side, what has arrived, and
/// since when it has been without a socket.
struct Link {
    stream: Option<TcpStream>,
    dec: FrameDecoder,
    tx: SendSide,
    /// Highest frame sequence received, across sockets: what every frame
    /// that leaves acknowledges, what the handshake tells the peer to
    /// replay above, and at or below which a frame is a replayed duplicate.
    last_recv: u64,
    /// When the link lost its socket, or was opened without one; `None`
    /// while attached (and a reactor link's before its first attach).
    /// Drives the stale timers.
    detached_since: Option<Instant>,
}

impl Link {
    fn new(detached_since: Option<Instant>) -> Link {
        Link {
            stream: None,
            dec: FrameDecoder::new(),
            tx: SendSide::default(),
            last_recv: 0,
            detached_since,
        }
    }

    /// A handshaken `stream` takes over from any half-dead predecessor,
    /// with a clone in `conn` for severing it from other threads:
    /// `greeting` leaves first, then everything the peer — which holds up
    /// to `peer_last_recv` — has not acknowledged.
    fn attach(
        &mut self,
        stream: TcpStream,
        conn: &Mutex<Option<TcpStream>>,
        peer_last_recv: u64,
        greeting: Vec<u8>,
    ) {
        *conn.lock() = stream.try_clone().ok();
        if let Some(old) = self.stream.replace(stream) {
            let _ = old.shutdown(Shutdown::Both);
        }
        self.dec = FrameDecoder::new();
        self.tx.reattach(peer_last_recv, greeting);
        self.detached_since = None;
    }

    /// Close the socket; what was queued for it stays in the ring.
    fn detach(&mut self, conn: &Mutex<Option<TcpStream>>) {
        if let Some(s) = self.stream.take() {
            let _ = s.shutdown(Shutdown::Both);
        }
        *conn.lock() = None;
        self.dec = FrameDecoder::new();
        self.tx.detach();
        self.detached_since.get_or_insert_with(Instant::now);
    }

    /// The link has been without a socket for `after` as of `now`; while
    /// it has not yet, that deadline is folded into `next`.
    fn stale(&self, now: Instant, after: Duration, next: &mut Option<Instant>) -> bool {
        let Some(at) = self.detached_since.map(|since| since + after) else {
            return false;
        };
        if now < at {
            earliest(next, at);
        }
        now >= at
    }

    /// The socket's poll entry: `POLLOUT` too while a backlog waits (the
    /// last flush stopped at a write that would block, or a replay was
    /// just queued).
    fn pollfd(&self) -> Option<PollFd> {
        let events = if self.tx.backlog() {
            POLLIN | POLLOUT
        } else {
            POLLIN
        };
        self.stream.as_ref().map(|s| PollFd::new(s, events))
    }

    /// Read the socket poll reported readable: one read of at most
    /// `scratch.len()` bytes, or — with `drain` — reads until it would
    /// block or an acknowledgement comes due. Stopping there lets the pass
    /// flush the acknowledgement (the socket, still readable, wakes the
    /// next pass at once): a sender that answers each delivery with its
    /// next frame would otherwise keep the loop reading, and its ring
    /// growing, a frame per delivery. What each frame acknowledges goes to
    /// the send side; a bodiless frame (sequence 0) ends there, and so does
    /// a replayed duplicate. Every new frame goes to `deliver`, which
    /// answers `false` for a frame that must end the link. Returns whether
    /// the link is still alive (end of stream, a read error or a corrupt
    /// stream end it too).
    fn read(
        &mut self,
        scratch: &mut [u8],
        drain: bool,
        stats: &mut WireStats,
        mut deliver: impl FnMut(Frame) -> bool,
    ) -> bool {
        let Some(stream) = self.stream.as_mut() else {
            return true;
        };
        loop {
            match self.dec.read_from(stream, scratch) {
                Ok(0) => return false,
                Ok(k) => stats.bytes_recv += k as u64,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return e.kind() == ErrorKind::WouldBlock,
            }
            loop {
                match self.dec.next_frame() {
                    Ok(Some(frame)) => {
                        self.tx.received(&frame);
                        if frame.seq <= self.last_recv {
                            continue;
                        }
                        self.last_recv = frame.seq;
                        stats.frames_recv += 1;
                        if !deliver(frame) {
                            return false;
                        }
                    }
                    Ok(None) => break,
                    Err(_) => return false,
                }
            }
            if !drain || self.tx.ack_due() {
                return true;
            }
        }
    }

    /// Flush the send side into the socket, if there is one (see
    /// [`SendSide::flush`]), acknowledging everything received; `false` on
    /// a fatal socket error.
    fn flush(&mut self, stats: &mut WireStats, rec: &Recorder, obs_node: u32) -> bool {
        match self.stream.as_mut() {
            Some(s) => self.tx.flush(s, self.last_recv, stats, rec, obs_node),
            None => true,
        }
    }

    /// Queue `body`, addressed to `to`, for the reactor link at `at`. A
    /// link whose queue was empty needs a flush this wake-up and is noted
    /// in `to_flush`; one that already holds a backlog is waiting for poll
    /// to report it writable, and one without a socket keeps the frame in
    /// its ring only, for the next socket.
    fn enqueue(
        &mut self,
        at: (u32, usize),
        to: u32,
        body: Vec<Bytes>,
        check: Option<u64>,
        to_flush: &mut Vec<(u32, usize)>,
    ) {
        if self.stream.is_some() && !self.tx.backlog() {
            to_flush.push(at);
        }
        self.tx.enqueue(to, body, check);
    }
}

/// A freshly-accepted socket still reading its hello.
struct PendingHello {
    stream: TcpStream,
    buf: [u8; HELLO_LEN],
    got: usize,
    since: Instant,
    /// Poll reported it readable (or it was accepted this wake-up).
    ready: bool,
}

/// Read a handshake record into `buf` as it arrives, `got` bytes of it in
/// already: `None` while more is to come, then whether it is whole
/// (`false`: the socket closed or failed first).
fn read_record(s: &mut TcpStream, buf: &mut [u8], got: &mut usize) -> Option<bool> {
    while *got < buf.len() {
        match s.read(&mut buf[*got..]) {
            Ok(0) => return Some(false),
            Ok(k) => *got += k,
            Err(e) if e.kind() == ErrorKind::WouldBlock => return None,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return Some(false),
        }
    }
    Some(true)
}

/// The sockets accepted on a listener that are still reading their hello;
/// which job (and link) one belongs to is unknown until the hello decodes.
/// The reactor keeps one set, and so does each endpoint, for its buddies.
#[derive(Default)]
struct Hellos(Vec<PendingHello>);

impl Hellos {
    /// Cut off every dialer that has not finished its hello within
    /// [`HANDSHAKE_DEADLINE`], fold the next such deadline into `next`, and
    /// put the rest on the end of the poll set. Returns where they start.
    fn watch(&mut self, now: Instant, next: &mut Option<Instant>, fds: &mut Vec<PollFd>) -> usize {
        self.0.retain(|p| now < p.since + HANDSHAKE_DEADLINE);
        for p in &self.0 {
            earliest(next, p.since + HANDSHAKE_DEADLINE);
            fds.push(PollFd::new(&p.stream, POLLIN));
        }
        fds.len() - self.0.len()
    }

    /// After the wait: accept every connection waiting on `listener`, if
    /// poll reported it, then read each hello that poll reported (`fds`,
    /// as [`watch`](Self::watch) laid them out) or that rode in with its
    /// connect. Hands back every socket that is done, with its hello —
    /// `None` for garbage or a socket that closed first.
    fn arrived(
        &mut self,
        fds: &[PollFd],
        listener: Option<&TcpListener>,
    ) -> Vec<(TcpStream, Option<Hello>)> {
        for (p, fd) in self.0.iter_mut().zip(fds) {
            p.ready = fd.readable();
        }
        if let Some(l) = listener {
            loop {
                match l.accept() {
                    Ok((stream, _)) => {
                        let _ = stream.set_nonblocking(true);
                        let _ = stream.set_nodelay(true);
                        self.0.push(PendingHello {
                            stream,
                            buf: [0u8; HELLO_LEN],
                            got: 0,
                            since: Instant::now(),
                            // The hello usually rides in with the connect.
                            ready: true,
                        });
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => {
                        // Out of descriptors, most likely. The listener stays
                        // readable, so pause rather than spin on it.
                        std::thread::sleep(POLL_TICK);
                        break;
                    }
                }
            }
        }
        let done = |p: &mut PendingHello| read_record(&mut p.stream, &mut p.buf, &mut p.got);
        (self
            .0
            .extract_if(.., |p| std::mem::take(&mut p.ready) && done(p).is_some()))
        .map(|p| {
            let hello = (p.got == HELLO_LEN).then(|| decode_hello(&p.buf).ok());
            (p.stream, hello.flatten())
        })
        .collect()
    }
}

// ---------------------------------------------------------------------------
// Router (driver side): the reactor
// ---------------------------------------------------------------------------

/// Linear-bucket tick-latency accounting for the reactor loop. A *tick*
/// is one wake-up: the work the loop does from the moment `poll` returns
/// until it parks again (commands, handshakes, reads, dispatch, flushes,
/// timers, rebuilding the poll set). Time parked is not part of it, and an
/// idle reactor records no ticks at all, so [`count`](TickStats::count) is
/// also the number of wake-ups. The decade-spaced [`acr_obs::Histogram`] buckets are
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

    /// Ticks (wake-ups) recorded so far.
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
    /// One stale report per outage (reset on attach).
    stale_reported: AtomicBool,
    /// A clone of the attached socket, for severing from other threads.
    conn: Mutex<Option<TcpStream>>,
    /// Where the node accepts its buddy's link: the address the router
    /// sees it at, with the port its hello announced.
    listen: Mutex<Option<SocketAddr>>,
    /// The reactor → node direction's replay ring, as of the last wake-up.
    #[cfg(test)]
    ring: RingGauge,
    /// The highest sequence received from the node, as of the last read.
    #[cfg(test)]
    received: AtomicU64,
}

enum Cmd {
    /// Encoded body for node `to` of `job` (sequenced and framed by the
    /// reactor within that job's link namespace).
    Send {
        job: u32,
        to: usize,
        body: Vec<Bytes>,
    },
    /// Send every link of `job` the job's address book.
    AddressBook {
        job: u32,
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
    /// Notified whenever one of the job's links attaches, for
    /// [`Router::wait_all_connected`].
    attach_lock: std::sync::Mutex<()>,
    attached: Condvar,
}

/// The reactor: **one** nonblocking driver-side transport thread serving
/// every link of every registered job. A single-job driver owns a private
/// router (job id 0); the multi-job driver service registers each admitted
/// job into the same reactor, and the hello's job id routes each accepted
/// socket into its job's link namespace — node indices never collide
/// across jobs.
pub(crate) struct Router {
    addr: SocketAddr,
    jobs: parking_lot::RwLock<BTreeMap<u32, Arc<JobShared>>>,
    cmd_tx: Sender<Cmd>,
    /// Ends the reactor's `poll`; every command goes through
    /// [`Router::post`], which pokes it.
    waker: Waker,
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
            jobs: parking_lot::RwLock::new(BTreeMap::new()),
            cmd_tx,
            waker: Waker::new().map_err(|e| format!("reactor wake pipe: {e}"))?,
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
                stale_reported: AtomicBool::new(false),
                conn: Mutex::new(None),
                listen: Mutex::new(None),
                #[cfg(test)]
                ring: RingGauge::default(),
                #[cfg(test)]
                received: AtomicU64::new(0),
            })
            .collect();
        let shared = Arc::new(JobShared {
            links,
            event_tx,
            welcome_cfg,
            stale_after,
            rec,
            attach_lock: std::sync::Mutex::new(()),
            attached: Condvar::new(),
        });
        let mut jobs = self.jobs.write();
        if jobs.contains_key(&job) {
            return Err(format!("job id {job} is already registered"));
        }
        jobs.insert(job, shared);
        Ok(())
    }

    /// Queue `cmd` for the reactor and end its wait. The one way in:
    /// a command sent past this would sit unseen until a socket stirred.
    fn post(&self, cmd: Cmd) -> bool {
        let queued = self.cmd_tx.send(cmd).is_ok();
        self.waker.wake();
        queued
    }

    /// Remove `job` from the reactor: no new accepts, links detached,
    /// wire stats emitted into the job's recorder. Blocks (briefly — the
    /// command wakes the reactor, which acts on it at once) until the
    /// reactor acknowledges, so the caller may drain the job's recorder
    /// immediately after.
    pub(crate) fn deregister_job(&self, job: u32) {
        if self.jobs.write().remove(&job).is_none() {
            return;
        }
        let (done_tx, done_rx) = unbounded();
        if self.post(Cmd::Deregister { job, done: done_tx }) {
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
            self.post(Cmd::Send {
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

    /// Wait until every one of `job`'s links has a handshaken socket; the
    /// reactor wakes the wait as each link attaches.
    pub(crate) fn wait_all_connected(&self, job: u32, timeout: Duration) -> Result<(), String> {
        let Some(shared) = self.job(job) else {
            return Err(format!("job {job} is not registered with the reactor"));
        };
        let deadline = Instant::now() + timeout;
        let mut guard = lock(&shared.attach_lock);
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
            let left = deadline.saturating_duration_since(Instant::now());
            guard = (shared.attached.wait_timeout(guard, left))
                .map_or_else(|e| e.into_inner().0, |(g, _)| g);
        }
    }

    /// Send every node of `job` the job's address book: where each node's
    /// endpoint accepts its buddy's link, as announced in its hello.
    pub(crate) fn publish_address_book(&self, job: u32) {
        self.post(Cmd::AddressBook { job });
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

    /// The reactor loop's per-wake-up accounting (see [`TickStats`]).
    pub(crate) fn tick_stats(&self) -> &TickStats {
        &self.ticks
    }

    /// Stop the reactor and close every socket of every job.
    pub(crate) fn shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.post(Cmd::Shutdown);
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
    links: Vec<Link>,
    stats: WireStats,
}

impl JobLinks {
    fn new(shared: Arc<JobShared>) -> JobLinks {
        let links = (0..shared.links.len()).map(|_| Link::new(None)).collect();
        JobLinks {
            shared,
            links,
            stats: WireStats::default(),
        }
    }
}

/// Detach one reactor link's socket and say so to other threads.
fn detach_link(shared: &LinkShared, ls: &mut Link) {
    ls.detach(&shared.conn);
    shared.connected.store(false, Ordering::SeqCst);
}

/// Tear one job's reactor state down: close its sockets and emit its wire
/// stats into the job's own recorder.
fn teardown_job(jl: &mut JobLinks) {
    for (shared, ls) in jl.shared.links.iter().zip(&mut jl.links) {
        detach_link(shared, ls);
    }
    jl.stats.emit(&jl.shared.rec, DRIVER_NODE);
}

/// The reactor loop: one thread multiplexing the listener, every pending
/// handshake, and every link of every registered job via nonblocking
/// I/O, parked in `poll` until a socket, a command or a timer needs it.
fn reactor(router: Arc<Router>, listener: TcpListener, cmd_rx: Receiver<Cmd>) {
    let mut jobs: BTreeMap<u32, JobLinks> = BTreeMap::new();
    let mut hellos = Hellos::default();
    let mut rdbuf = vec![0u8; READ_BUDGET];
    let mut inbound: Vec<(u32, usize, Frame)> = Vec::new();
    // The poll set: the wake descriptor, the listener, one entry per
    // pending handshake (see `Hellos::watch`), then one per attached link
    // (`polled_links` says which).
    let mut fds: Vec<PollFd> = Vec::new();
    let mut polled_links: Vec<(u32, usize)> = Vec::new();
    // Links owed a flush this wake-up: they took their first frame since
    // draining, attached, or were reported writable.
    let mut to_flush: Vec<(u32, usize)> = Vec::new();
    let mut woke = Instant::now();

    'main: loop {
        // --- 1. timers, and the poll set for the next wait ------------
        // A timer that is due fires here; one that is not bounds the wait.
        let now = Instant::now();
        let mut next_timer: Option<Instant> = None;
        fds.clear();
        fds.push(router.waker.pollfd());
        fds.push(PollFd::new(&listener, POLLIN));
        hellos.watch(now, &mut next_timer, &mut fds);
        let links_at = fds.len();
        polled_links.clear();
        for (&job, jl) in jobs.iter_mut() {
            let links = jl.shared.links.iter().zip(&mut jl.links);
            for (node, (shared, ls)) in links.enumerate() {
                #[cfg(test)]
                shared.ring.publish(&ls.tx.ring);
                if let Some(fd) = ls.pollfd() {
                    fds.push(fd);
                    polled_links.push((job, node));
                } else if shared.stale_reported.load(Ordering::SeqCst) {
                    ls.tx.ring.shed();
                } else if ls.stale(now, jl.shared.stale_after, &mut next_timer) {
                    // Detached too long: tell the driver, once per outage,
                    // and from then on hold no more for the node than an
                    // attached link would (see `ReplayRing::shed`).
                    shared.stale_reported.store(true, Ordering::SeqCst);
                    jl.shared.rec.inc_counter("acr_transport_stale_total", 1);
                    let _ = jl.shared.event_tx.send(Event::TransportStale { node });
                    ls.tx.ring.shed();
                }
            }
        }
        router.ticks.record(woke.elapsed());

        // --- 2. park until a socket, a command or a timer -------------
        // (The channel cannot disconnect: this thread's `Arc<Router>`
        // holds a sender.)
        let mut next = park(&router.waker, &cmd_rx, &mut fds, next_timer);
        woke = Instant::now();

        // --- 3. command drain -----------------------------------------
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
                    if let Some(ls) = jobs.get_mut(&job).and_then(|jl| jl.links.get_mut(to)) {
                        ls.enqueue((job, to), to as u32, body, None, &mut to_flush);
                    }
                }
                Some(Cmd::AddressBook { job }) => {
                    if let Some(jl) = jobs.get_mut(&job) {
                        let book: Vec<_> =
                            jl.shared.links.iter().map(|l| *l.listen.lock()).collect();
                        let body = encode_address_book(&book);
                        for (node, ls) in jl.links.iter_mut().enumerate() {
                            let at = (job, node);
                            ls.enqueue(at, ENDPOINT_DEST, body.clone(), None, &mut to_flush);
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
            next = cmd_rx.try_recv().ok();
        }
        if router.is_shutdown() {
            break;
        }

        // --- 4. accept fresh sockets, attach the hellos that are whole -
        // A socket with a garbled hello, or one for a job or node the
        // reactor does not have or a quarantined node, is dropped, which
        // closes it.
        let accepting = fds[1].readable().then_some(&listener);
        for (stream, hello) in hellos.arrived(&fds[2..links_at], accepting) {
            let Some(hello) = hello else {
                continue;
            };
            // Route the link into its job's namespace.
            if let Entry::Vacant(slot) = jobs.entry(hello.job) {
                if let Some(shared) = router.job(hello.job) {
                    slot.insert(JobLinks::new(shared));
                }
            }
            let node = hello.node as usize;
            let Some(jl) = jobs.get_mut(&hello.job).filter(|jl| {
                (jl.shared.links.get(node)).is_some_and(|l| !l.quarantined.load(Ordering::SeqCst))
            }) else {
                continue;
            };
            let shared = &jl.shared.links[node];
            *shared.listen.lock() = (hello.listen_port != 0)
                .then(|| stream.peer_addr().ok())
                .flatten()
                .map(|peer| SocketAddr::new(peer.ip(), hello.listen_port));
            // The welcome, then everything the dead socket swallowed: the
            // ring above the peer's high-water mark.
            let ls = &mut jl.links[node];
            let welcome = encode_welcome(&Welcome {
                last_recv_seq: ls.last_recv,
                cfg: jl.shared.welcome_cfg,
            });
            ls.attach(stream, &shared.conn, hello.last_recv_seq, welcome);
            to_flush.push((hello.job, node));
            shared.connected.store(true, Ordering::SeqCst);
            shared.stale_reported.store(false, Ordering::SeqCst);
            let _attach = lock(&jl.shared.attach_lock);
            jl.shared.attached.notify_all();
        }

        // --- 5. one bounded read from each link poll reported ---------
        // A hang-up or error polls readable, so a severed socket or a
        // closed peer detaches here at once. (A socket replaced in step 4
        // is read in its predecessor's name; it is nonblocking, so the
        // worst case is a read that would block.)
        inbound.clear();
        for (&(job, node), fd) in polled_links.iter().zip(&fds[links_at..]) {
            if fd.writable() {
                to_flush.push((job, node));
            }
            if !fd.readable() {
                continue;
            }
            let Some(jl) = jobs.get_mut(&job) else {
                continue; // deregistered in step 3
            };
            let (shared, ls) = (&jl.shared.links[node], &mut jl.links[node]);
            let alive = ls.read(&mut rdbuf, false, &mut jl.stats, |f| {
                inbound.push((job, node, f));
                true
            });
            #[cfg(test)]
            shared.received.store(ls.last_recv, Ordering::SeqCst);
            if !alive {
                detach_link(shared, ls);
            } else if ls.tx.ack_due() && !ls.tx.backlog() {
                // An idle link owes the sender word that this much arrived.
                to_flush.push((job, node));
            }
        }

        // --- 6. dispatch: route to the driver or a link ---------------
        // A frame's `to` is resolved strictly within the namespace of the
        // job its link handshook into; links cannot address other jobs.
        for (job, from, frame) in inbound.drain(..) {
            let Some(jl) = jobs.get_mut(&job) else {
                continue;
            };
            let (shared, rx) = (&jl.shared.links[from], &mut jl.links[from]);
            if frame.to == DRIVER_DEST {
                match decode_event(&frame.body) {
                    Ok(ev) => {
                        let _ = jl.shared.event_tx.send(ev);
                    }
                    Err(_) => detach_link(shared, rx),
                }
            } else if let Some(ls) = jl.links.get_mut(frame.to as usize) {
                // Relayed as verified: the same allocation, the same trailer.
                let at = (job, frame.to as usize);
                let body = vec![frame.body];
                ls.enqueue(at, frame.to, body, Some(frame.check), &mut to_flush);
            }
        }

        // --- 7. flush the links that have something new to say --------
        for (job, node) in to_flush.drain(..) {
            let Some(jl) = jobs.get_mut(&job) else {
                continue;
            };
            let (shared, ls) = (&jl.shared.links[node], &mut jl.links[node]);
            if !ls.flush(&mut jl.stats, &jl.shared.rec, DRIVER_NODE) {
                detach_link(shared, ls);
            }
        }
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
}

// ---------------------------------------------------------------------------
// Endpoint (node side)
// ---------------------------------------------------------------------------

enum EpMsg {
    /// Encoded body for `to`, through the router (framed/sequenced by the
    /// endpoint loop).
    Frame {
        to: u32,
        body: Vec<Bytes>,
    },
    /// Encoded comparison record for the buddy `to`, over the buddy link.
    /// With no link to `to`, `open` (a `Compare`) opens one; anything else
    /// goes through the router.
    Buddy {
        to: u32,
        body: Vec<Bytes>,
        open: bool,
    },
    Shutdown,
}

/// A node's side of the fabric: **one** thread serving the node's link to
/// the router, the direct link to its buddy's endpoint and the listener
/// buddies dial in on — the node-side mirror of the reactor (see
/// [`endpoint_loop`]).
pub(crate) struct Endpoint {
    /// Job namespace this endpoint's hello routes its link into.
    job: u32,
    node: usize,
    tx: Sender<EpMsg>,
    /// Ends the loop's `poll`; every message goes through
    /// [`Endpoint::post`], which pokes it.
    waker: Waker,
    /// How long the buddy link may stay without a socket before its
    /// traffic moves onto the router link (it reports nothing: a buddy
    /// that is gone is the router's to report); also the cap on the buddy
    /// dial's connect timeout.
    stale_after: Duration,
    /// Times the attached loop woke from `poll` — the endpoint's
    /// counterpart of [`TickStats::count`], kept for the tests only.
    #[cfg(test)]
    wakeups: AtomicU64,
    /// The node → reactor direction's replay ring, as of the last wake-up.
    #[cfg(test)]
    ring: RingGauge,
    /// The buddy link's outbound replay ring, as of the last wake-up.
    #[cfg(test)]
    buddy_ring: RingGauge,
    shutdown: AtomicBool,
    /// Set by [`Endpoint::linger`]: a dead socket ends the loop instead of
    /// starting a redial.
    lingering: AtomicBool,
    /// Set by [`Endpoint::quarantine`]: no buddy link is dialed or accepted.
    quarantined: AtomicBool,
    /// A clone of the live router socket, for shutdown/sever.
    conn: Mutex<Option<TcpStream>>,
    /// A clone of the buddy link's live socket, for sever/quarantine.
    buddy_conn: Mutex<Option<TcpStream>>,
    /// The node's inbox sender; set to `None` at shutdown so a worker
    /// blocked on `inbox.recv()` sees `Disconnected` and exits.
    inbox_tx: Mutex<Option<Sender<Net>>>,
    welcome: std::sync::Mutex<Option<WelcomeCfg>>,
    /// Notified when the welcome arrives and at shutdown.
    welcomed: Condvar,
    /// Set as the endpoint thread's loop returns.
    exited: std::sync::Mutex<bool>,
    /// Notified when `exited` is set.
    exit: Condvar,
    rec: Arc<Recorder>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl Endpoint {
    /// Start `node`'s endpoint for `job`, dialing the router at `addr`, with
    /// `tcp`'s stale window.
    pub(crate) fn spawn(
        job: u32,
        node: usize,
        addr: SocketAddr,
        inbox: Sender<Net>,
        rec: Arc<Recorder>,
        tcp: &crate::transport::TcpConfig,
    ) -> Arc<Endpoint> {
        let (tx, rx) = unbounded();
        let ep = Arc::new(Endpoint {
            job,
            node,
            tx,
            waker: Waker::new().expect("endpoint wake pipe"),
            stale_after: tcp.stale_after,
            #[cfg(test)]
            wakeups: AtomicU64::new(0),
            #[cfg(test)]
            ring: RingGauge::default(),
            #[cfg(test)]
            buddy_ring: RingGauge::default(),
            shutdown: AtomicBool::new(false),
            lingering: AtomicBool::new(false),
            quarantined: AtomicBool::new(false),
            conn: Mutex::new(None),
            buddy_conn: Mutex::new(None),
            inbox_tx: Mutex::new(Some(inbox)),
            welcome: std::sync::Mutex::new(None),
            welcomed: Condvar::new(),
            exited: std::sync::Mutex::new(false),
            exit: Condvar::new(),
            rec,
            thread: Mutex::new(None),
        });
        let e = Arc::clone(&ep);
        let h = std::thread::Builder::new()
            .name(format!("acr-ep-{node}"))
            .spawn(move || {
                endpoint_loop(Arc::clone(&e), addr, rx);
                *lock(&e.exited) = true;
                e.exit.notify_all();
            })
            .expect("spawn endpoint");
        *ep.thread.lock() = Some(h);
        ep
    }

    /// Queue `msg` for the endpoint loop and end its wait (the one way
    /// in, like [`Router::post`]).
    fn post(&self, msg: EpMsg) {
        let _ = self.tx.send(msg);
        self.waker.wake();
    }

    /// Frame and queue a protocol message for `to` (another node, routed
    /// by the driver's reactor).
    pub(crate) fn send_net(&self, to: NodeIndex, msg: &Net) {
        self.post(EpMsg::Frame {
            to: to as u32,
            body: encode_net(msg),
        });
    }

    /// Frame and queue a comparison record (`Compare`, `CompareResult`)
    /// for the buddy `to`, over the direct buddy link; a `Compare` opens
    /// the link if there is none to `to` yet.
    pub(crate) fn send_to_buddy(&self, to: NodeIndex, msg: &Net) {
        self.post(EpMsg::Buddy {
            to: to as u32,
            body: encode_net(msg),
            open: matches!(msg, Net::Compare { .. }),
        });
    }

    /// Frame and queue a node→driver event.
    pub(crate) fn send_event(&self, ev: &Event) {
        self.post(EpMsg::Frame {
            to: DRIVER_DEST,
            body: encode_event(ev),
        });
    }

    /// Block until the welcome handshake delivers the job shape; the loop
    /// wakes the wait as the welcome lands.
    pub(crate) fn wait_welcome(&self, timeout: Duration) -> Option<WelcomeCfg> {
        let deadline = Instant::now() + timeout;
        *wait_for(&self.welcome, &self.welcomed, deadline, |w| {
            w.is_some() || self.is_shutdown()
        })
    }

    /// Kill the buddy link's current socket (test hook). The dialing side
    /// redials; replay makes the drop lossless.
    pub(crate) fn sever_buddy_link(&self) -> bool {
        let taken = self.buddy_conn.lock().take();
        taken.is_some_and(|s| s.shutdown(Shutdown::Both).is_ok())
    }

    /// Sever the buddy link and neither dial nor accept another (test
    /// hook: a node host its buddies cannot reach; with the router
    /// refusing the node too, the node is unreachable on every path —
    /// transport-level death).
    pub(crate) fn quarantine(&self) {
        self.quarantined.store(true, Ordering::SeqCst);
        self.sever_buddy_link();
        self.waker.wake();
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
        drop(wait_for(&self.exited, &self.exit, deadline, |&exited| {
            exited
        }));
        self.shutdown();
    }

    /// Stop the endpoint thread, close the sockets, and drop the inbox
    /// sender (unblocking a worker waiting on it).
    pub(crate) fn shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.post(EpMsg::Shutdown);
        if let Some(s) = self.conn.lock().take() {
            let _ = s.shutdown(Shutdown::Both);
        }
        {
            let _welcome = lock(&self.welcome);
            self.welcomed.notify_all();
        }
        if let Some(h) = self.thread.lock().take() {
            let _ = h.join();
        }
        *self.inbox_tx.lock() = None;
    }

    fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn is_quarantined(&self) -> bool {
        self.quarantined.load(Ordering::SeqCst)
    }

    fn obs_node(&self) -> u32 {
        self.node as u32
    }

    /// Hand a decoded message to the node's inbox. A worker that is gone
    /// (job tearing down) swallows it: count it like the in-process
    /// backend does.
    fn deliver(&self, msg: Net) {
        let delivered = (self.inbox_tx.lock().as_ref()).is_some_and(|tx| tx.send(msg).is_ok());
        if !delivered {
            self.rec.inc_counter("acr_send_to_closed_inbox_total", 1);
        }
    }
}

/// One of an endpoint's two links: to the router, or to its buddy's
/// endpoint. Both dial the same way — a `connect` with a timeout, the
/// hello, then the welcome read as it lands, under [`HANDSHAKE_DEADLINE`],
/// so the loop never blocks on a peer — and redial on one timer: a link
/// that was attached redials at once, a dial that failed waits out a
/// backoff. The router link is always dialed; a buddy link by the node
/// that ships the first compare record, to the address in the router's
/// address book, and accepted by the other side.
struct EpLink {
    /// The buddy at the other end; [`DRIVER_DEST`] for the router link.
    peer: u32,
    /// This side dialed the link; only the dialer redials.
    dialer: bool,
    link: Link,
    /// A dialed socket waiting for its whole welcome: the bytes so far,
    /// and when the hello went out.
    greeting: Option<(TcpStream, [u8; WELCOME_LEN], usize, Instant)>,
    /// The link has been without a socket for the stale window: its
    /// traffic takes the router until it attaches again.
    routed: bool,
    /// Dials since the link last attached, and how long the redial after
    /// the next failed one waits.
    attempts: u32,
    backoff: Duration,
    next_dial: Instant,
}

impl EpLink {
    fn new(peer: u32, dialer: bool) -> EpLink {
        let now = Instant::now();
        EpLink {
            peer,
            dialer,
            link: Link::new(Some(now)),
            greeting: None,
            routed: false,
            attempts: 0,
            backoff: REDIAL_INITIAL,
            next_dial: now,
        }
    }

    /// Where the attached socket's clone is kept, for sever and shutdown.
    fn conn<'a>(&self, ep: &'a Endpoint) -> &'a Mutex<Option<TcpStream>> {
        match self.peer {
            DRIVER_DEST => &ep.conn,
            _ => &ep.buddy_conn,
        }
    }

    /// The socket to poll: the dialed one until its welcome is whole.
    fn pollfd(&self) -> Option<PollFd> {
        match &self.greeting {
            Some((s, ..)) => Some(PollFd::new(s, POLLIN)),
            None => self.link.pollfd(),
        }
    }

    /// When the dialer needs the loop next: the welcome's deadline, or the
    /// redial while the link has no socket.
    fn deadline(&self) -> Option<Instant> {
        match &self.greeting {
            Some(g) => Some(g.3 + HANDSHAKE_DEADLINE),
            None => self.link.stream.is_none().then_some(self.next_dial),
        }
    }

    /// The dialer's timers as of `now`: an overdue welcome fails the dial,
    /// and so does a redial that came due when `dial` cannot connect. The
    /// next deadline is folded into `next`.
    fn tick(
        &mut self,
        ep: &Endpoint,
        now: Instant,
        next: &mut Option<Instant>,
        dial: impl FnOnce(&mut EpLink) -> std::io::Result<()>,
    ) {
        if self.deadline().is_some_and(|at| now >= at)
            && (self.greeting.is_some() || dial(self).is_err())
        {
            self.detach(ep);
        }
        if let Some(at) = self.deadline() {
            earliest(next, at);
        }
    }

    /// Connect to `addr` within `timeout` and send the hello: who this
    /// side is, what it holds, and the port `listen_port` names once the
    /// socket is connected. [`serve`](Self::serve) reads the welcome.
    fn dial(
        &mut self,
        ep: &Endpoint,
        addr: SocketAddr,
        timeout: Duration,
        listen_port: impl FnOnce(&TcpStream) -> u16,
    ) -> std::io::Result<()> {
        self.attempts += 1;
        let mut s = TcpStream::connect_timeout(&addr, timeout)?;
        let _ = s.set_nodelay(true);
        s.write_all(&encode_hello(&Hello {
            job: ep.job,
            node: ep.node as u32,
            last_recv_seq: self.link.last_recv,
            listen_port: listen_port(&s),
        }))?;
        s.set_nonblocking(true)?;
        self.greeting = Some((s, [0; WELCOME_LEN], 0, Instant::now()));
        Ok(())
    }

    /// Serve what poll reported readable: the welcome of the dial in
    /// flight, or frames until the socket would block, each new one handed
    /// to `deliver` (see [`Link::read`]). A whole welcome attaches the
    /// link, which replays what the peer has not acknowledged; the router
    /// link's also releases [`Endpoint::wait_welcome`]. A refused, closed
    /// or garbled socket is detached.
    fn serve(
        &mut self,
        ep: &Endpoint,
        scratch: &mut [u8],
        stats: &mut WireStats,
        deliver: impl FnMut(Frame) -> bool,
    ) {
        let Some((s, buf, got, _)) = self.greeting.as_mut() else {
            if !self.link.read(scratch, true, stats, deliver) {
                self.detach(ep);
            }
            return;
        };
        let Some(whole) = read_record(s, buf, got) else {
            return;
        };
        let welcome = whole.then(|| decode_welcome(buf).ok()).flatten();
        let (Some(welcome), Some((s, ..))) = (welcome, self.greeting.take()) else {
            self.detach(ep);
            return;
        };
        let conn = self.conn(ep);
        self.link.attach(s, conn, welcome.last_recv_seq, Vec::new());
        self.routed = false;
        self.backoff = REDIAL_INITIAL;
        if self.peer == DRIVER_DEST {
            *lock(&ep.welcome) = Some(welcome.cfg);
            ep.welcomed.notify_all();
            let attempt = std::mem::take(&mut self.attempts);
            ep.rec.inc_counter("acr_transport_connects_total", 1);
            (ep.rec).emit_with(ep.obs_node(), || EventKind::TransportConnect { attempt });
        } else {
            ep.rec.inc_counter("acr_buddy_link_attaches_total", 1);
        }
    }

    /// Attach an accepted socket whose hello came from the peer: the
    /// welcome leaves first, then everything the peer has not acknowledged.
    fn accept(&mut self, ep: &Endpoint, stream: TcpStream, hello: &Hello, cfg: WelcomeCfg) {
        let welcome = encode_welcome(&Welcome {
            last_recv_seq: self.link.last_recv,
            cfg,
        });
        (self.link).attach(stream, &ep.buddy_conn, hello.last_recv_seq, welcome);
        self.routed = false;
    }

    /// Flush the link if it owes it — poll reported it writable, or it
    /// parked with nothing waiting and now has something to say: new
    /// frames, or an acknowledgement that came due. A fatal socket error
    /// detaches it.
    fn flush(&mut self, ep: &Endpoint, stats: &mut WireStats, writable: bool, had_backlog: bool) {
        let tx = &self.link.tx;
        if (writable || (!had_backlog && (tx.backlog() || tx.ack_due())))
            && !self.link.flush(stats, &ep.rec, ep.obs_node())
        {
            self.detach(ep);
        }
    }

    /// Close the socket, dialed or attached; what was queued for it stays
    /// in the ring. A link that was attached redials at once. After a dial
    /// that failed — on the router link, a `TransportRetry` — the redial
    /// waits out the backoff, which then doubles up to [`REDIAL_MAX`],
    /// or [`ROUTED_REDIAL_MAX`] once the router carries the link's traffic.
    fn detach(&mut self, ep: &Endpoint) {
        let mut wait = Duration::ZERO;
        if self.link.stream.is_none() {
            let cap = if self.routed {
                ROUTED_REDIAL_MAX
            } else {
                REDIAL_MAX
            };
            wait = self.backoff;
            self.backoff = (wait * 2).min(cap);
            if self.peer == DRIVER_DEST {
                let attempt = self.attempts;
                ep.rec.inc_counter("acr_transport_retries_total", 1);
                ep.rec
                    .emit_with(ep.obs_node(), || EventKind::TransportRetry {
                        attempt,
                        delay_us: wait.as_micros() as u64,
                    });
            }
        }
        self.greeting = None;
        let conn = self.conn(ep);
        self.link.detach(conn);
        self.next_dial = Instant::now() + wait;
    }
}

/// Lock a mutex a waiter shares with a [`Condvar`]; a panic elsewhere does
/// not poison the flag or welcome it guards.
fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Wait on `cv` until `done` holds for what `m` guards or `deadline`
/// passes; whoever changes what `done` reads notifies `cv` under `m`.
fn wait_for<'a, T>(
    m: &'a std::sync::Mutex<T>,
    cv: &Condvar,
    deadline: Instant,
    done: impl Fn(&T) -> bool,
) -> std::sync::MutexGuard<'a, T> {
    let mut guard = lock(m);
    while !done(&guard) {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            break;
        }
        guard = (cv.wait_timeout(guard, left)).map_or_else(|e| e.into_inner().0, |(g, _)| g);
    }
    guard
}

/// `at` is a deadline of interest: fold it into the earliest one so far.
fn earliest(next: &mut Option<Instant>, at: Instant) {
    *next = Some(next.map_or(at, |t| t.min(at)));
}

/// Add `fd`, if there is one, to the poll set; its index there.
fn polled(fds: &mut Vec<PollFd>, fd: Option<PollFd>) -> Option<usize> {
    fd.map(|fd| {
        fds.push(fd);
        fds.len() - 1
    })
}

/// The endpoint's single-thread loop: park in `poll` on its two links (or
/// the dial in flight of either), the buddy listener, the hellos arriving
/// on it and the wake descriptor — draining commands, reading each
/// readable link until it would block, flushing in batches, and dialing
/// on timers — until shutdown, or until a lingering endpoint's router
/// link is gone. While the router link redials, the buddy link, the
/// listener and the commands are served as ever.
fn endpoint_loop(ep: Arc<Endpoint>, addr: SocketAddr, rx: Receiver<EpMsg>) {
    let mut router = EpLink::new(DRIVER_DEST, true);
    let mut stats = WireStats::default();
    let mut rdbuf = vec![0u8; READ_BUDGET];
    let mut fds: Vec<PollFd> = Vec::new();
    // The buddy side: where buddies dial in, the hellos still arriving,
    // the link itself, the job's address book, and the buddy the driver
    // last named (until it names one, any node of the job may dial in).
    let mut listener: Option<TcpListener> = None;
    let mut hellos = Hellos::default();
    let mut buddy: Option<EpLink> = None;
    let mut book: Vec<Option<SocketAddr>> = Vec::new();
    let mut expected: Option<u32> = None;
    // The buddy link goes, closing its socket, unless it is to `peer`.
    let repoint = |buddy: &mut Option<EpLink>, peer: u32| {
        if let Some(mut old) = buddy.take_if(|l| l.peer != peer) {
            old.detach(&ep);
        }
    };

    'main: while !ep.is_shutdown() {
        // --- timers, and the poll set ---------------------------------
        // A due timer fires here; one that is not bounds the wait. A
        // lingering endpoint ends where the router link would redial; the
        // first connect binds the buddy listener, on the interface the
        // router is reached through.
        let now = Instant::now();
        let mut next_timer: Option<Instant> = None;
        let idle = router.greeting.is_none() && router.link.stream.is_none();
        if idle && ep.lingering.load(Ordering::SeqCst) {
            break;
        }
        router.tick(&ep, now, &mut next_timer, |l| {
            l.dial(&ep, addr, Duration::from_secs(1), |s| {
                if listener.is_none() {
                    let bind = s.local_addr().and_then(|a| TcpListener::bind((a.ip(), 0)));
                    listener = bind.ok().filter(|l| l.set_nonblocking(true).is_ok());
                }
                (listener.as_ref())
                    .and_then(|l| l.local_addr().ok())
                    .map_or(0, |a| a.port())
            })
        });
        // A buddy link without a socket for the stale window — the buddy's
        // host cannot be reached directly, or the peer gave the link up —
        // falls back to the router until it attaches again: what it has
        // not had acknowledged moves onto the router link, in order, and
        // so does every comparison record for the peer from then on, while
        // the dialer keeps redialing (at most once a second). Both sides
        // keep the link's sequence state, so a reattach picks up where the
        // link left off. A record the buddy took off the dead socket
        // without acknowledging it arrives twice, which the node ignores:
        // compare records are matched by iteration. A buddy that is gone
        // is the router's to report, like any other node.
        if let Some(l) = buddy.as_mut().filter(|l| !l.routed) {
            if l.link.stale(now, ep.stale_after, &mut next_timer) {
                l.routed = true;
                for f in std::mem::take(&mut l.link.tx.ring).frames {
                    router.link.tx.enqueue(f.to, f.body, None);
                }
                ep.rec.inc_counter("acr_buddy_link_fallbacks_total", 1);
            }
        }
        // A quarantined endpoint dials no buddy (a dial in flight still
        // runs out its deadline).
        let dials = |l: &&mut EpLink| l.dialer && (l.greeting.is_some() || !ep.is_quarantined());
        if let Some(l) = buddy.as_mut().filter(dials) {
            let at = book.get(l.peer as usize).copied().flatten();
            let timeout = BUDDY_CONNECT_TIMEOUT.min(ep.stale_after);
            l.tick(&ep, now, &mut next_timer, |l| match at {
                Some(at) => l.dial(&ep, at, timeout, |_| 0),
                None => Err(ErrorKind::AddrNotAvailable.into()),
            });
        }
        let had_backlog = router.link.tx.backlog();
        let buddy_had_backlog = buddy.as_ref().is_some_and(|l| l.link.tx.backlog());
        fds.clear();
        fds.push(ep.waker.pollfd());
        let router_fd = polled(&mut fds, router.pollfd());
        let buddy_fd = polled(&mut fds, buddy.as_ref().and_then(EpLink::pollfd));
        let listener_fd = polled(&mut fds, listener.as_ref().map(|l| PollFd::new(l, POLLIN)));
        let hellos_at = hellos.watch(now, &mut next_timer, &mut fds);

        // --- park until a socket, a command or a timer ----------------
        // `POLLOUT` only while a backlog waits (the last flush stopped at
        // a write that would block, or a replay was just queued).
        let mut next = park(&ep.waker, &rx, &mut fds, next_timer);
        #[cfg(test)]
        ep.wakeups.fetch_add(1, Ordering::Relaxed);
        let readable = |at: Option<usize>| at.is_some_and(|i| fds[i].readable());
        let writable = |at: Option<usize>| at.is_some_and(|i| fds[i].writable());

        // --- command drain --------------------------------------------
        loop {
            match next {
                Some(EpMsg::Shutdown) => break 'main,
                Some(EpMsg::Frame { to, body }) => router.link.tx.enqueue(to, body, None),
                Some(EpMsg::Buddy { to, body, open }) => {
                    match buddy.as_mut().filter(|l| l.peer == to) {
                        Some(l) if !l.routed => l.link.tx.enqueue(to, body, None),
                        None if open
                            && !ep.is_quarantined()
                            && book.get(to as usize).is_some_and(Option::is_some) =>
                        {
                            // Open (or re-point) the link; the top of the next
                            // pass dials it.
                            repoint(&mut buddy, to);
                            let l = buddy.insert(EpLink::new(to, true));
                            l.link.tx.enqueue(to, body, None);
                        }
                        // No link to `to` that can carry it, and none to open:
                        // the router carries it like any other message.
                        _ => router.link.tx.enqueue(to, body, None),
                    }
                }
                None => break,
            }
            next = rx.try_recv().ok();
        }

        // --- the router link: its welcome, or frames until it would block
        // (A hang-up or error polls readable: shutdown, sever and a
        // closed router all land here at once. Replay is driven by the
        // router's view of what it received.)
        if readable(router_fd) {
            router.serve(&ep, &mut rdbuf, &mut stats, |frame| {
                if frame.to == ENDPOINT_DEST {
                    return decode_address_book(&frame.body).map(|b| book = b).is_ok();
                }
                let Ok(msg) = decode_net(&frame.body) else {
                    return false;
                };
                // The driver names a new buddy: the link re-points, and
                // only that buddy may dial in from now on.
                if let Net::Ctrl(
                    Ctrl::BuddyChanged { buddy: named } | Ctrl::AssumeIdentity { buddy: named, .. },
                ) = &msg
                {
                    expected = Some(*named as u32);
                    repoint(&mut buddy, *named as u32);
                }
                ep.deliver(msg);
                true
            });
        }

        // --- buddies dialing in ---------------------------------------
        // Only the job's nodes, only the buddy the driver named (if it
        // has), never over a link this side dialed, and not before the
        // router's welcome; anyone else's socket is dropped.
        let accepting = listener.as_ref().filter(|_| readable(listener_fd));
        for (stream, hello) in hellos.arrived(&fds[hellos_at..], accepting) {
            let cfg = *lock(&ep.welcome);
            let (Some(hello), Some(cfg)) = (hello, cfg) else {
                continue;
            };
            if hello.job != ep.job
                || hello.node == ep.node as u32
                || ep.is_quarantined()
                || expected.is_some_and(|b| b != hello.node)
                || buddy
                    .as_ref()
                    .is_some_and(|l| l.peer == hello.node && l.dialer)
            {
                continue;
            }
            repoint(&mut buddy, hello.node);
            let l = buddy.get_or_insert_with(|| EpLink::new(hello.node, false));
            l.accept(&ep, stream, &hello, cfg);
        }

        // --- the buddy link: its welcome, or frames until it would block
        if let Some(l) = buddy.as_mut().filter(|_| readable(buddy_fd)) {
            l.serve(&ep, &mut rdbuf, &mut stats, |frame| {
                decode_net(&frame.body).map(|msg| ep.deliver(msg)).is_ok()
            });
        }

        // --- flush: writable, or an idle link with something to say ---
        // (new frames, or an acknowledgement that has come due).
        router.flush(&ep, &mut stats, writable(router_fd), had_backlog);
        if let Some(l) = buddy.as_mut() {
            l.flush(&ep, &mut stats, writable(buddy_fd), buddy_had_backlog);
        }
        #[cfg(test)]
        {
            ep.ring.publish(&router.link.tx.ring);
            if let Some(l) = &buddy {
                ep.buddy_ring.publish(&l.link.tx.ring);
            }
        }
    }
    stats.emit(&ep.rec, ep.obs_node());
    router.link.detach(&ep.conn);
    if let Some(l) = buddy.as_mut() {
        l.link.detach(&ep.buddy_conn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soak::thread_count;
    use acr_core::DetectionMethod;

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
        }
    }

    /// A router with one job (id 0) of `total` links, and the channel its
    /// driver-bound events land on.
    fn router_with_job(total: usize, stale_after: Duration) -> (Arc<Router>, Receiver<Event>) {
        let (event_tx, event_rx) = unbounded();
        let router = Router::spawn(None).expect("router binds");
        router
            .register_job(
                0,
                total,
                event_tx,
                Recorder::disabled(),
                test_welcome(total),
                stale_after,
            )
            .expect("register job");
        (router, event_rx)
    }

    /// Dial and handshake as `node` of job 0 the way a node host would,
    /// with a plain blocking socket the test then drives by hand.
    fn raw_link(router: &Router, node: u32) -> TcpStream {
        let mut s = TcpStream::connect(router.local_addr()).expect("connect");
        s.write_all(&encode_hello(&Hello {
            job: 0,
            node,
            last_recv_seq: 0,
            listen_port: 0,
        }))
        .expect("hello");
        let mut w = [0u8; WELCOME_LEN];
        s.read_exact(&mut w).expect("welcome");
        decode_welcome(&w).expect("welcome decodes");
        s
    }

    /// A real endpoint for `node` of job 0 and the inbox it feeds.
    fn endpoint(router: &Router, node: usize) -> (Arc<Endpoint>, Receiver<Net>) {
        let (tx, rx) = unbounded();
        let ep = Endpoint::spawn(
            0,
            node,
            router.local_addr(),
            tx,
            Recorder::disabled(),
            &crate::transport::TcpConfig::default(),
        );
        ep.wait_welcome(Duration::from_secs(10)).expect("welcome");
        (ep, rx)
    }

    fn app_msg(tag: u64, data: Vec<u8>) -> Net {
        Net::App {
            to_task: 0,
            epoch: 0,
            msg: crate::message::AppMsg {
                from: crate::message::TaskId { rank: 0, task: 0 },
                tag,
                data,
            },
        }
    }

    /// A record whose body is three segments — a run, the shared payload,
    /// a run — so its frame leaves as five parts.
    fn install_msg(iteration: u64, payload: Vec<u8>) -> Net {
        let checkpoint = acr_core::Checkpoint::new(iteration, Bytes::from(payload), iteration);
        assert_eq!(
            encode_net(&Net::Install {
                checkpoint: checkpoint.clone()
            })
            .len(),
            3
        );
        Net::Install { checkpoint }
    }

    /// A socket stand-in that takes at most `per_call` bytes a call and
    /// records what it was offered.
    #[derive(Default)]
    struct Sink {
        per_call: usize,
        calls: usize,
        parts: Vec<(*const u8, usize)>,
        got: Vec<u8>,
    }

    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            assert!(bufs.len() <= MAX_IOV);
            assert!(bufs.iter().all(|b| !b.is_empty()), "an empty part");
            self.calls += 1;
            let mut k = 0;
            for b in bufs {
                self.parts.push((b.as_ptr(), b.len()));
                let n = b.len().min(self.per_call - k);
                self.got.extend_from_slice(&b[..n]);
                k += n;
            }
            Ok(k)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Poll `cond` until it holds (the loops publish their state a
    /// wake-up after the fact).
    fn eventually(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "never happened: {what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Wake-ups the reactor records over `window` of doing nothing.
    fn idle_wakeups(router: &Router, window: Duration) -> u64 {
        let before = router.tick_stats().count();
        std::thread::sleep(window);
        router.tick_stats().count() - before
    }

    const QUIET: Duration = Duration::from_millis(300);

    /// (a) Idle burns nothing: with every link handshaken and silent, no
    /// timer pending and no command queued, both loops stay parked in
    /// `poll`. (A 1 ms tick woke each of them ~300 times in this window.)
    #[test]
    fn idle_loops_do_not_wake() {
        let (router, _events) = router_with_job(9, Duration::from_secs(600));
        let _links: Vec<TcpStream> = (0..8).map(|n| raw_link(&router, n)).collect();
        let (ep, _inbox) = endpoint(&router, 8);
        router
            .wait_all_connected(0, Duration::from_secs(10))
            .expect("links attach");
        std::thread::sleep(Duration::from_millis(50)); // handshake flushes settle
        let ep_before = ep.wakeups.load(Ordering::Relaxed);
        let reactor_wakeups = idle_wakeups(&router, QUIET);
        let ep_wakeups = ep.wakeups.load(Ordering::Relaxed) - ep_before;
        println!("idle {QUIET:?}: reactor woke {reactor_wakeups}x, endpoint {ep_wakeups}x");
        assert!(
            reactor_wakeups <= 5,
            "idle reactor woke {reactor_wakeups} times in {QUIET:?}"
        );
        assert!(
            ep_wakeups <= 5,
            "idle endpoint woke {ep_wakeups} times in {QUIET:?}"
        );
        ep.shutdown();
        router.shutdown();
    }

    /// (b) A send wakes a parked loop: each ping/pong crosses four parked
    /// waits (reactor command, endpoint socket, endpoint command, reactor
    /// socket). Judged on the median, which a scheduler hiccup cannot
    /// move; a tick-driven fabric cannot get under two ticks.
    #[test]
    fn a_send_wakes_a_parked_loop() {
        const TRIPS: usize = 500;
        let (router, events) = router_with_job(1, Duration::from_secs(600));
        let (ep, inbox) = endpoint(&router, 0);
        let mut trips: Vec<Duration> = Vec::with_capacity(TRIPS);
        for token in 0..TRIPS as u64 {
            let t = Instant::now();
            router.send_net(0, 0, &Net::Ctrl(crate::message::Ctrl::Ping { token }));
            match inbox.recv_timeout(Duration::from_secs(10)).expect("ping") {
                Net::Ctrl(crate::message::Ctrl::Ping { token: got }) => assert_eq!(got, token),
                other => panic!("unexpected delivery {other:?}"),
            }
            ep.send_event(&Event::Pong { node: 0, token });
            match events.recv_timeout(Duration::from_secs(10)).expect("pong") {
                Event::Pong { token: got, .. } => assert_eq!(got, token),
                other => panic!("unexpected event {other:?}"),
            }
            trips.push(t.elapsed());
        }
        trips.sort();
        let median = trips[TRIPS / 2];
        println!(
            "ping/pong: median {median:?}, p10 {:?}, max {:?}",
            trips[TRIPS / 10],
            trips[TRIPS - 1]
        );
        assert!(
            median < Duration::from_micros(500),
            "median round trip {median:?} (fastest {:?}, slowest {:?})",
            trips[0],
            trips[TRIPS - 1]
        );
        ep.shutdown();
        router.shutdown();
    }

    /// (c) Backpressure without spinning: 64 MiB, each frame a body of three
    /// segments, pushed at a peer that takes 64 KiB every 2 ms — so nearly
    /// every vectored write is partial and resumes mid-segment. Every byte
    /// arrives in order; the reactor
    /// wakes when the socket has room again — a small multiple of the
    /// peer's reads, not a busy loop on `POLLOUT` — and once the backlog
    /// is gone it stops asking for `POLLOUT` and goes idle.
    #[test]
    fn backpressure_parks_on_pollout_and_goes_idle_when_drained() {
        const FRAMES: u64 = 64;
        const FRAME_BYTES: usize = 1 << 20;
        let (router, _events) = router_with_job(1, Duration::from_secs(600));
        let mut peer = raw_link(&router, 0);
        let before = router.tick_stats().count();
        for tag in 0..FRAMES {
            router.send_net(0, 0, &install_msg(tag, vec![tag as u8; FRAME_BYTES]));
        }
        let mut dec = FrameDecoder::new();
        let mut buf = vec![0u8; 64 * 1024];
        let (mut reads, mut got) = (0u64, 0u64);
        while got < FRAMES {
            let k = peer.read(&mut buf).expect("read");
            assert!(k > 0, "router closed the link mid-transfer");
            reads += 1;
            dec.feed(&buf[..k]);
            while let Some(frame) = dec.next_frame().expect("clean stream") {
                got += 1;
                assert_eq!(frame.seq, got, "frames arrive in sequence");
                match decode_net(&frame.body).expect("decodes") {
                    Net::Install { checkpoint: c } => {
                        assert_eq!((c.iteration, c.digest), (got - 1, got - 1));
                        assert_eq!(c.payload.len(), FRAME_BYTES);
                        assert!(c.payload.iter().all(|&b| b == c.iteration as u8));
                    }
                    other => panic!("unexpected record {other:?}"),
                }
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let wakeups = router.tick_stats().count() - before;
        println!("backpressure: {wakeups} reactor wake-ups for {reads} peer reads");
        assert!(
            wakeups <= 4 * reads,
            "{wakeups} reactor wake-ups for {reads} peer reads"
        );
        let after = idle_wakeups(&router, QUIET);
        assert!(after <= 5, "drained link still wakes the reactor: {after}");
        router.shutdown();
    }

    /// `poll` failing must not take a loop down: a set larger than the
    /// descriptor limit is `EINVAL`, and `wait_ready` answers with a pause
    /// and "try them all" instead of an error.
    #[test]
    fn a_failing_poll_degrades_to_a_sweep() {
        let limits = std::fs::read_to_string("/proc/self/limits").unwrap_or_default();
        let soft = limits
            .lines()
            .find_map(|l| l.strip_prefix("Max open files"))
            .and_then(|rest| rest.split_whitespace().next()?.parse::<usize>().ok());
        let Some(soft) = soft.filter(|&n| n < 1 << 20) else {
            return; // no (readable, finite) limit to exceed on this box
        };
        let waker = Waker::new().expect("socket pair");
        let mut fds: Vec<PollFd> = (0..=soft).map(|_| waker.pollfd()).collect();
        assert!(poller::wait(&mut fds, Some(Duration::ZERO)).is_err());
        let t = Instant::now();
        wait_ready(&mut fds, None);
        assert!(t.elapsed() >= POLL_TICK, "a failing poll must not spin");
        assert!(fds.iter().all(|fd| fd.readable() && !fd.writable()));
    }

    /// (d) Timers fire with no traffic: the poll timeout is the next
    /// deadline, so a dialer stuck mid-hello is cut after
    /// `HANDSHAKE_DEADLINE` and a detached link is reported stale after
    /// `stale_after`, each from a reactor that is otherwise parked.
    #[test]
    fn timers_fire_from_a_parked_reactor() {
        let stale_after = Duration::from_millis(150);
        let (router, events) = router_with_job(1, stale_after);

        let mut half = TcpStream::connect(router.local_addr()).expect("connect");
        let hello = encode_hello(&Hello {
            job: 0,
            node: 0,
            last_recv_seq: 0,
            listen_port: 0,
        });
        let t = Instant::now();
        half.write_all(&hello[..HELLO_LEN / 2]).expect("half hello");
        std::thread::sleep(Duration::from_millis(50));
        let before = router.tick_stats().count();
        let _ = half.set_read_timeout(Some(Duration::from_secs(10)));
        assert_eq!(half.read(&mut [0u8; 1]).unwrap_or(0), 0, "cut, no welcome");
        assert!(
            t.elapsed() >= HANDSHAKE_DEADLINE,
            "cut early: {:?}",
            t.elapsed()
        );
        let wakeups = router.tick_stats().count() - before;
        assert!(wakeups <= 5, "{wakeups} wake-ups waiting out one deadline");
        assert_eq!(router.connected_links(), 0);

        let link = raw_link(&router, 0);
        router
            .wait_all_connected(0, Duration::from_secs(10))
            .expect("link attaches");
        let t = Instant::now();
        let before = router.tick_stats().count();
        drop(link);
        match events.recv_timeout(Duration::from_secs(10)) {
            Ok(Event::TransportStale { node: 0 }) => {}
            other => panic!("expected a stale report for node 0, got {other:?}"),
        }
        assert!(t.elapsed() >= stale_after, "stale early: {:?}", t.elapsed());
        let wakeups = router.tick_stats().count() - before;
        assert!(wakeups <= 5, "{wakeups} wake-ups waiting out stale_after");
        router.shutdown();
    }

    /// (e) Control calls reach a parked loop at once: nothing waits for a
    /// tick or a timeout.
    #[test]
    fn control_calls_return_promptly_from_parked_loops() {
        let prompt = Duration::from_millis(100);
        let timed = |what: &str, f: &mut dyn FnMut()| {
            std::thread::sleep(Duration::from_millis(30)); // let the loops park
            let t = Instant::now();
            f();
            assert!(t.elapsed() < prompt, "{what} took {:?}", t.elapsed());
        };
        let (event_tx, _events) = unbounded();
        let (router, _events0) = router_with_job(2, Duration::from_secs(600));
        router
            .register_job(
                1,
                1,
                event_tx,
                Recorder::disabled(),
                test_welcome(1),
                Duration::from_secs(600),
            )
            .expect("register job 1");
        let (ep0, _inbox0) = endpoint(&router, 0);
        let (ep1, _inbox1) = endpoint(&router, 1);
        let _other = {
            let mut s = TcpStream::connect(router.local_addr()).expect("connect");
            s.write_all(&encode_hello(&Hello {
                job: 1,
                node: 0,
                last_recv_seq: 0,
                listen_port: 0,
            }))
            .expect("hello");
            s
        };
        router
            .wait_all_connected(1, Duration::from_secs(10))
            .expect("job 1 attaches");
        timed("deregister_job", &mut || router.deregister_job(1));
        timed("Endpoint::shutdown", &mut || ep0.shutdown());
        // `linger` ends when the router closes the link, which shutting
        // the router down does.
        let closer = {
            let router = Arc::clone(&router);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                let t = Instant::now();
                router.shutdown();
                t.elapsed()
            })
        };
        let t = Instant::now();
        ep1.linger(Instant::now() + Duration::from_secs(10));
        let lingered = t.elapsed();
        let shutdown_took = closer.join().expect("closer thread");
        assert!(
            shutdown_took < prompt,
            "Router::shutdown took {shutdown_took:?}"
        );
        assert!(
            lingered < Duration::from_millis(30) + prompt,
            "linger outlasted the router by {:?}",
            lingered.saturating_sub(Duration::from_millis(30))
        );
    }

    /// An endpoint whose router takes the connection but never answers
    /// the hello shuts down at once: the welcome is read as it lands, by
    /// the loop that also takes commands, not by a read that blocks it.
    #[test]
    fn shutdown_is_prompt_while_the_welcome_never_comes() {
        let mute = TcpListener::bind("127.0.0.1:0").expect("bind");
        let (tx, _inbox) = unbounded();
        let ep = Endpoint::spawn(
            0,
            0,
            mute.local_addr().expect("bound address"),
            tx,
            Recorder::disabled(),
            &crate::transport::TcpConfig::default(),
        );
        let (mut dialed, _) = mute.accept().expect("the endpoint dials");
        let mut hello = [0u8; HELLO_LEN];
        dialed.read_exact(&mut hello).expect("the endpoint's hello");
        let t = Instant::now();
        ep.shutdown();
        assert!(
            t.elapsed() < Duration::from_millis(100),
            "Endpoint::shutdown took {:?}",
            t.elapsed()
        );
    }

    /// (f) A socket severed while both loops are parked: the endpoint
    /// redials and nothing is lost or repeated in either direction —
    /// including a frame larger than `REPLAY_RING_BYTES`, its body three
    /// segments, cut mid-write: it arrives once, intact, in its place.
    #[test]
    fn sever_while_parked_replays_losslessly_even_an_oversized_frame() {
        const BIG: usize = REPLAY_RING_BYTES + (1 << 20);
        let (router, events) = router_with_job(1, Duration::from_secs(600));
        let (ep, inbox) = endpoint(&router, 0);
        router
            .wait_all_connected(0, Duration::from_secs(10))
            .expect("link attaches");
        std::thread::sleep(Duration::from_millis(30)); // both loops parked

        assert!(router.sever(0, 0), "a live link to sever");
        router.send_net(0, 0, &app_msg(1, vec![1]));
        ep.send_event(&Event::Pong { node: 0, token: 1 });
        // The big frame takes many writes; sever again in the middle.
        router.send_net(0, 0, &install_msg(2, vec![0xB5; BIG]));
        std::thread::sleep(Duration::from_millis(5));
        router.sever(0, 0);
        router.send_net(0, 0, &app_msg(3, vec![3]));
        ep.send_event(&Event::Pong { node: 0, token: 2 });

        for tag in [1u64, 2, 3] {
            match inbox
                .recv_timeout(Duration::from_secs(30))
                .expect("delivery")
            {
                Net::App { msg, .. } => {
                    assert_eq!((msg.tag, &msg.data[..]), (tag, &[tag as u8][..]))
                }
                Net::Install { checkpoint: c } => {
                    assert_eq!((tag, c.iteration, c.payload.len()), (2, 2, BIG));
                    assert!(c.payload.iter().all(|&b| b == 0xB5));
                }
                other => panic!("unexpected delivery {other:?}"),
            }
        }
        for token in [1u64, 2] {
            match events.recv_timeout(Duration::from_secs(30)).expect("event") {
                Event::Pong { token: got, .. } => assert_eq!(got, token),
                other => panic!("unexpected event {other:?}"),
            }
        }
        std::thread::sleep(Duration::from_millis(50));
        assert!(
            inbox.try_recv().is_err(),
            "a replayed frame was delivered twice"
        );
        assert!(
            events.try_recv().is_err(),
            "a replayed event was delivered twice"
        );
        ep.shutdown();
        router.shutdown();
    }

    /// (g) The replay ring is the unacknowledged window: acknowledged frames
    /// leave, and only those; unwritten frames never do while a socket may
    /// still carry them; a reconnect's high-water mark drops what the peer
    /// holds and un-writes the rest; `shed` bounds a stale link.
    #[test]
    fn replay_ring_evicts_written_frames_only() {
        let frame = |seq: u64, len: usize| OutFrame {
            to: 0,
            seq,
            body: vec![Bytes::from(vec![0u8; len])],
            len,
            check: None,
        };
        const MIB: usize = 1 << 20;
        let cap = REPLAY_RING_BYTES / MIB;

        // Writing evicts nothing, however much is written: only the peer's
        // word does.
        let mut ring = ReplayRing::default();
        for seq in 1..=2 * cap as u64 {
            ring.push(frame(seq, MIB));
        }
        ring.mark_written(2 * cap as u64);
        assert_eq!((ring.frames.len(), ring.written), (2 * cap, 2 * cap));
        assert_eq!(ring.bytes, 2 * REPLAY_RING_BYTES);
        // Acknowledged frames leave, oldest first, and nothing newer.
        ring.acknowledge(8);
        assert_eq!(ring.frames.front().map(|f| f.seq), Some(9));
        assert_eq!(
            (ring.frames.len(), ring.written),
            (2 * cap - 8, 2 * cap - 8)
        );
        ring.acknowledge(8);
        assert_eq!(ring.frames.len(), 2 * cap - 8, "a repeated ack is a no-op");
        ring.acknowledge(u64::MAX);
        assert_eq!((ring.frames.len(), ring.written, ring.bytes), (0, 0, 0));

        // An unwritten frame is never acknowledged away: whatever the
        // header claimed, this socket has not carried it.
        let mut ring = ReplayRing::default();
        for seq in 1..=10 {
            ring.push(frame(seq, 8));
        }
        ring.mark_written(4);
        ring.acknowledge(7);
        assert_eq!(ring.frames.front().map(|f| f.seq), Some(5));
        assert_eq!((ring.frames.len(), ring.written), (6, 0));

        // Reattach: acknowledged frames go, the rest replays as unwritten.
        ring.mark_written(8);
        let replay = ring.reattach(6);
        assert_eq!(
            replay.iter().map(|f| f.seq).collect::<Vec<_>>(),
            [7, 8, 9, 10]
        );
        assert_eq!((ring.frames.len(), ring.written, ring.bytes), (4, 0, 32));

        // A bodiless frame acknowledges, and is owed nothing in return.
        let mut tx = SendSide {
            attached: true,
            ..SendSide::default()
        };
        tx.enqueue(0, vec![Bytes::from(vec![0u8; MIB])], None);
        tx.ring.mark_written(1);
        let bodiless = Frame {
            to: 0,
            seq: 0,
            ack: 1,
            body: Bytes::new(),
            check: body_check(&[]),
        };
        for _ in 0..4 {
            tx.received(&bodiless);
        }
        assert_eq!((tx.ring.frames.len(), tx.unacked), (0, 0));
        assert!(!tx.ack_due());

        // A link without a socket queues into its ring only (the next
        // socket is fed from there), and keeps everything...
        let mut tx = SendSide::default();
        for _ in 0..2 * cap {
            tx.enqueue(0, vec![Bytes::from(vec![0u8; MIB])], None);
        }
        assert!(
            !tx.backlog(),
            "nothing is queued for a socket that is not there"
        );
        assert_eq!(tx.ring.frames.len(), 2 * cap);
        // ...until it is reported stale: then the byte bound applies to all
        // of it, newest kept, and a late reconnect replays what is left.
        tx.ring.shed();
        assert_eq!(
            (tx.ring.frames.len(), tx.ring.bytes),
            (cap, REPLAY_RING_BYTES)
        );
        tx.enqueue(0, vec![Bytes::from(vec![0u8; MIB])], None);
        tx.ring.shed();
        assert_eq!(tx.ring.frames.len(), cap);
        assert_eq!(
            tx.ring.frames.back().map(|f| f.seq),
            Some(2 * cap as u64 + 1)
        );
        tx.reattach(0, Vec::new());
        assert_eq!(tx.outq.len(), cap);
        assert_eq!(tx.ring.written, 0);
        // One frame larger than the whole bound survives a shed on its own.
        let mut ring = ReplayRing::default();
        ring.push(frame(1, MIB));
        ring.push(frame(2, REPLAY_RING_BYTES + MIB));
        ring.shed();
        assert_eq!(ring.frames.iter().map(|f| f.seq).collect::<Vec<_>>(), [2]);
        ring.shed();
        assert_eq!(ring.frames.len(), 1);
    }

    /// (h) Parts leave in order whatever the socket takes per call: a
    /// writer that accepts `n` bytes at a time, for every `n`, sees exactly
    /// the concatenation — partial writes resume mid-part, more parts than
    /// one `writev` takes go in several, empty parts are never offered.
    #[test]
    fn send_buf_resumes_mid_part_at_every_split() {
        let sizes = [28usize, 0, 18, 300, 1, 0, 45, 8];
        let parts: Vec<Bytes> = (sizes.iter().cycle().take(3 * MAX_IOV).enumerate())
            .map(|(i, &n)| Bytes::from(vec![i as u8; n]))
            .collect();
        let whole: Vec<u8> = parts.iter().flat_map(|p| p.iter().copied()).collect();
        for per_call in (1..=64).chain([299, 300, 301, whole.len()]) {
            let mut out = SendBuf::default();
            out.set(parts.iter().cloned(), 7);
            let mut w = Sink {
                per_call,
                ..Sink::default()
            };
            assert!(out.write_to(&mut w).expect("no error"), "drained");
            assert!(out.is_empty());
            assert_eq!(w.got, whole, "{per_call} bytes per call");
        }
        // A socket that would block leaves the cursor where it stopped.
        struct Full;
        impl Write for Full {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(ErrorKind::WouldBlock.into())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut out = SendBuf::default();
        out.set(parts.iter().cloned(), 7);
        out.advance(30);
        assert!(!out
            .write_to(&mut Full)
            .expect("would block is not an error"));
        assert_eq!((out.off, out.last_seq), (2, 7));
    }

    /// A flush is one vectored write of frames back to back: 64 small
    /// frames queued ahead of a checkpoint-sized one (three segments) are
    /// assembled into three parts — the small frames with the big one's
    /// header and first run, its payload by reference, its last run and
    /// trailer — and leave in one call. They arrive in order, every frame
    /// with a trailer of its own that verifies, and the payload the socket
    /// was offered is the allocation that was enqueued.
    #[test]
    fn a_flush_is_one_vectored_write_of_frames_and_copies_no_large_segment() {
        const SMALL: u64 = 64;
        const STATE: usize = 1 << 20;
        let mut tx = SendSide {
            attached: true,
            ..SendSide::default()
        };
        for tag in 0..SMALL {
            tx.enqueue(1, encode_net(&app_msg(tag, vec![tag as u8; 24])), None);
        }
        let payload = Bytes::from(vec![0xC7; STATE]);
        let checkpoint = acr_core::Checkpoint::new(9, payload.clone(), 9);
        tx.enqueue(1, encode_net(&Net::Install { checkpoint }), None);

        let mut w = Sink {
            per_call: usize::MAX,
            ..Sink::default()
        };
        let mut stats = WireStats::default();
        assert!(tx.flush(&mut w, 17, &mut stats, &Recorder::disabled(), 0));
        assert!(!tx.backlog());
        assert_eq!(tx.ring.written, SMALL as usize + 1, "all marked written");
        assert_eq!(w.parts.len(), 3, "run, payload, run");
        assert!(w.calls <= w.parts.len().div_ceil(MAX_IOV));
        assert_eq!(w.parts[1], (payload.as_ptr(), STATE), "by reference");
        assert_eq!(
            (stats.frames_sent, stats.batch_flushes, stats.bytes_sent),
            (SMALL + 1, 1, w.got.len() as u64)
        );

        let mut dec = FrameDecoder::new();
        dec.feed(&w.got);
        for seq in 1..=SMALL + 1 {
            let f = dec.next_frame().expect("clean stream").expect("a frame");
            assert_eq!((f.to, f.seq, f.ack), (1, seq, 17));
            assert_eq!(f.check, acr_pup::fletcher64(&f.body), "its own trailer");
            match decode_net(&f.body).expect("decodes") {
                Net::App { msg, .. } => assert_eq!(msg.tag, seq - 1),
                Net::Install { checkpoint: c } => {
                    assert_eq!((seq, c.iteration), (SMALL + 1, 9));
                    assert_eq!(c.payload, payload);
                }
                other => panic!("unexpected record {other:?}"),
            }
        }
        assert_eq!(dec.next_frame(), Ok(None));
    }

    /// (i) Acknowledgements empty the rings: after one Compare /
    /// CompareResult round trip sent through the router, neither sender of the
    /// shipped megabyte — the node's endpoint, the router's link to the
    /// buddy — holds a frame (the receivers said so with bodiless frames);
    /// the small frames that flowed back are released by the next thing
    /// their receivers send, as the round's closing control traffic does.
    #[test]
    fn a_round_trip_leaves_the_rings_empty() {
        const STATE: usize = 1 << 20;
        let (router, events) = router_with_job(2, Duration::from_secs(600));
        let (ep0, inbox0) = endpoint(&router, 0);
        let (ep1, inbox1) = endpoint(&router, 1);
        let links = &router.job(0).expect("registered").links;

        let payload = Bytes::from(vec![0x5A; STATE]);
        ep0.send_net(
            1,
            &Net::Compare {
                iteration: 7,
                detection: acr_core::Detection::Payload(payload.clone()),
            },
        );
        match inbox1
            .recv_timeout(Duration::from_secs(10))
            .expect("compare")
        {
            Net::Compare {
                iteration: 7,
                detection: acr_core::Detection::Payload(got),
            } => assert_eq!(got, payload),
            other => panic!("unexpected delivery {other:?}"),
        }
        ep1.send_net(
            0,
            &Net::CompareResult {
                iteration: 7,
                clean: true,
            },
        );
        match inbox0
            .recv_timeout(Duration::from_secs(10))
            .expect("verdict")
        {
            Net::CompareResult {
                iteration: 7,
                clean: true,
            } => {}
            other => panic!("unexpected delivery {other:?}"),
        }
        eventually("the shipping endpoint's ring is acknowledged empty", || {
            ep0.ring.frames() == 0
        });
        eventually(
            "the router's ring toward the buddy is acknowledged empty",
            || links[1].ring.frames() == 0,
        );
        // The verdict crosses the router in two legs of a few bytes each:
        // they wait for the next frame the other way, which closing a round
        // provides — the driver's word to each node, then each node's
        // report back.
        for (node, ep, inbox) in [(0, &ep0, &inbox0), (1, &ep1, &inbox1)] {
            router.send_net(0, node, &Net::Ctrl(crate::message::Ctrl::RoundComplete));
            inbox.recv_timeout(Duration::from_secs(10)).expect("ctrl");
            ep.send_event(&Event::Pong { node, token: 0 });
            events.recv_timeout(Duration::from_secs(10)).expect("pong");
        }
        eventually("everything the router sent is acknowledged", || {
            links[0].ring.frames() == 0 && links[1].ring.frames() == 0
        });
        // Only the two pongs still wait for the router's next word.
        eventually("each endpoint holds just its pong", || {
            (ep0.ring.frames(), ep1.ring.frames()) == (1, 1)
        });
        assert!(ep0.ring.bytes() + ep1.ring.bytes() < 64);
        ep0.shutdown();
        ep1.shutdown();
        router.shutdown();
    }

    /// Two endpoints of job 0 with the job's address book in hand, as a
    /// job's fabric sets them up: each has seen a ping the router sent
    /// after the book, down the same link.
    fn buddies(router: &Router) -> [(Arc<Endpoint>, Receiver<Net>); 2] {
        let pair = [endpoint(router, 0), endpoint(router, 1)];
        router
            .wait_all_connected(0, Duration::from_secs(10))
            .expect("links attach");
        hand_out_book(router, &pair);
        pair
    }

    /// Publish job 0's address book and wait until each endpoint has it.
    fn hand_out_book(router: &Router, pair: &[(Arc<Endpoint>, Receiver<Net>)]) {
        router.publish_address_book(0);
        for (node, (_, inbox)) in pair.iter().enumerate() {
            router.send_net(0, node, &Net::Ctrl(Ctrl::Ping { token: 0 }));
            match inbox.recv_timeout(Duration::from_secs(10)).expect("ping") {
                Net::Ctrl(Ctrl::Ping { .. }) => {}
                other => panic!("unexpected delivery {other:?}"),
            }
        }
    }

    fn compare(iteration: u64, payload: Vec<u8>) -> Net {
        Net::Compare {
            iteration,
            detection: acr_core::Detection::Payload(Bytes::from(payload)),
        }
    }

    /// The verdict for `iteration`, as the buddy sends it.
    fn verdict(iteration: u64) -> Net {
        Net::CompareResult {
            iteration,
            clean: true,
        }
    }

    /// The payload of the `Compare` `inbox` delivers next, by iteration.
    fn compared(inbox: &Receiver<Net>) -> (u64, Bytes) {
        match inbox.recv_timeout(Duration::from_secs(30)) {
            Ok(Net::Compare {
                iteration,
                detection: acr_core::Detection::Payload(p),
            }) => (iteration, p),
            other => panic!("expected a compare, got {other:?}"),
        }
    }

    /// Nothing has crossed the router from either node: the round's
    /// traffic took the buddy link.
    fn router_carried_nothing_from(router: &Router) -> bool {
        let links = &router.job(0).expect("registered").links;
        links.iter().all(|l| l.received.load(Ordering::SeqCst) == 0)
    }

    /// (i') The same over the buddy link: after one Compare /
    /// CompareResult round trip between the buddies, the shipping endpoint
    /// holds none of the megabyte it sent (the buddy said so with bodiless
    /// frames), and the verdict that flowed back is released by the next
    /// record the other way — the next round's compare — which in turn
    /// waits for the verdict after it. None of it crossed the router.
    #[test]
    fn a_buddy_round_trip_leaves_the_rings_empty() {
        const STATE: usize = 1 << 20;
        let (router, _events) = router_with_job(2, Duration::from_secs(600));
        let [(ep0, inbox0), (ep1, inbox1)] = buddies(&router);

        ep0.send_to_buddy(1, &compare(7, vec![0x5A; STATE]));
        let (iteration, payload) = compared(&inbox1);
        assert_eq!((iteration, payload.len()), (7, STATE));
        assert!(payload.iter().all(|&b| b == 0x5A));
        ep1.send_to_buddy(0, &verdict(7));
        match inbox0
            .recv_timeout(Duration::from_secs(10))
            .expect("verdict")
        {
            Net::CompareResult { iteration: 7, .. } => {}
            other => panic!("unexpected delivery {other:?}"),
        }
        eventually("the shipped megabyte is acknowledged", || {
            ep0.buddy_ring.frames() == 0
        });
        eventually("the verdict waits for the next compare", || {
            ep1.buddy_ring.frames() == 1
        });
        ep0.send_to_buddy(1, &compare(8, vec![8; 16]));
        assert_eq!(compared(&inbox1).0, 8);
        eventually("the next compare acknowledges the verdict", || {
            (ep0.buddy_ring.frames(), ep1.buddy_ring.frames()) == (1, 0)
        });
        assert!(ep0.buddy_ring.bytes() < 64);
        assert!(router_carried_nothing_from(&router));
        ep0.shutdown();
        ep1.shutdown();
        router.shutdown();
    }

    /// (k) The buddy link cut in the middle of a frame larger than
    /// `REPLAY_RING_BYTES`, from the accepting side: the shipping endpoint
    /// redials, and the big compare, the small one queued behind it and
    /// the verdict coming back each arrive once, intact, in order — and
    /// none of it through the router.
    #[test]
    fn a_buddy_link_cut_mid_frame_replays_losslessly() {
        const BIG: usize = REPLAY_RING_BYTES + (1 << 20);
        let (router, _events) = router_with_job(2, Duration::from_secs(600));
        let [(ep0, inbox0), (ep1, inbox1)] = buddies(&router);
        ep0.send_to_buddy(1, &compare(1, vec![1; 64]));
        assert_eq!(compared(&inbox1).0, 1, "the first compare opens the link");

        ep0.send_to_buddy(1, &compare(2, vec![0xB5; BIG]));
        std::thread::sleep(Duration::from_millis(5));
        assert!(ep1.sever_buddy_link(), "a live buddy link to sever");
        ep0.send_to_buddy(1, &compare(3, vec![3; 64]));
        let (iteration, payload) = compared(&inbox1);
        assert_eq!((iteration, payload.len()), (2, BIG));
        assert!(payload.iter().all(|&b| b == 0xB5));
        assert_eq!(compared(&inbox1), (3, Bytes::from(vec![3; 64])));
        ep1.send_to_buddy(0, &verdict(3));
        match inbox0.recv_timeout(Duration::from_secs(10)) {
            Ok(Net::CompareResult { iteration: 3, .. }) => {}
            other => panic!("expected the verdict, got {other:?}"),
        }
        std::thread::sleep(Duration::from_millis(50));
        assert!(
            inbox0.try_recv().is_err() && inbox1.try_recv().is_err(),
            "a replayed frame was delivered twice"
        );
        assert!(router_carried_nothing_from(&router));
        ep0.shutdown();
        ep1.shutdown();
        router.shutdown();
    }

    /// (l) A buddy the shipping endpoint cannot reach — the book gives a
    /// port nothing listens on — is reached through the router: the link
    /// falls back after the stale window, the compare queued on it
    /// crosses the router, the verdict comes back the same way, and so
    /// does the next compare, each delivered once. Once the book gives
    /// the right port, a later redial attaches the link, and the round
    /// after that takes it again.
    #[test]
    fn an_unreachable_buddy_is_reached_through_the_router() {
        let (router, _events) = router_with_job(2, Duration::from_secs(600));
        let pair = [endpoint(&router, 0), endpoint(&router, 1)];
        router
            .wait_all_connected(0, Duration::from_secs(10))
            .expect("links attach");
        let closed = (TcpListener::bind("127.0.0.1:0").and_then(|l| l.local_addr()))
            .expect("a port to close");
        let links = &router.job(0).expect("registered").links;
        let open = links[1].listen.lock().replace(closed);
        hand_out_book(&router, &pair);
        let [(ep0, inbox0), (ep1, inbox1)] = &pair;

        ep0.send_to_buddy(1, &compare(1, vec![1; 64]));
        assert_eq!(compared(inbox1), (1, Bytes::from(vec![1; 64])));
        ep1.send_to_buddy(0, &verdict(1));
        match inbox0.recv_timeout(Duration::from_secs(10)) {
            Ok(Net::CompareResult { iteration: 1, .. }) => {}
            other => panic!("expected the verdict, got {other:?}"),
        }
        ep0.send_to_buddy(1, &compare(2, vec![2; 64]));
        assert_eq!(compared(inbox1).0, 2);
        let from = |node: usize| links[node].received.load(Ordering::SeqCst);
        assert_eq!(
            (from(0), from(1)),
            (2, 1),
            "every record crossed the router"
        );
        std::thread::sleep(Duration::from_millis(50));
        assert!(
            inbox0.try_recv().is_err() && inbox1.try_recv().is_err(),
            "a record was delivered twice"
        );

        *links[1].listen.lock() = open;
        hand_out_book(&router, &pair);
        eventually("the link attaches", || ep0.buddy_conn.lock().is_some());
        ep0.send_to_buddy(1, &compare(3, vec![3; 64]));
        assert_eq!(compared(inbox1).0, 3);
        ep1.send_to_buddy(0, &verdict(3));
        match inbox0.recv_timeout(Duration::from_secs(10)) {
            Ok(Net::CompareResult { iteration: 3, .. }) => {}
            other => panic!("expected the verdict, got {other:?}"),
        }
        assert_eq!((from(0), from(1)), (2, 1), "round 3 took the buddy link");
        ep0.shutdown();
        ep1.shutdown();
        router.shutdown();
    }

    /// (m) A router link that redials holds up nothing else: with node 0
    /// refused at the router, a compare on its attached buddy link still
    /// reaches node 1, at once.
    #[test]
    fn a_buddy_link_flows_while_the_router_link_redials() {
        let (router, _events) = router_with_job(2, Duration::from_secs(600));
        let [(ep0, _inbox0), (ep1, inbox1)] = buddies(&router);
        ep0.send_to_buddy(1, &compare(1, vec![1; 64]));
        assert_eq!(compared(&inbox1).0, 1, "the first compare opens the link");

        assert!(router.quarantine(0, 0), "a router link to cut");
        eventually("node 0 loses its router link", || ep0.conn.lock().is_none());
        ep0.send_to_buddy(1, &compare(2, vec![2; 64]));
        match inbox1.recv_timeout(Duration::from_secs(1)) {
            Ok(Net::Compare { iteration: 2, .. }) => {}
            other => panic!("expected the compare over the buddy link, got {other:?}"),
        }
        assert_eq!(router.connected_links(), 1, "node 0 is still refused");
        ep0.shutdown();
        ep1.shutdown();
        router.shutdown();
    }

    /// Nothing polls for a handshake: `wait_welcome` and
    /// `wait_all_connected` return as the link attaches, not at the next
    /// tick of a timer. (A 2 ms and a 5 ms sleep between checks put both
    /// behind a local handshake, which takes well under a millisecond.)
    #[test]
    fn waiters_wake_as_the_link_attaches() {
        let mut best = Duration::MAX;
        for _ in 0..5 {
            let (router, _events) = router_with_job(1, Duration::from_secs(600));
            let t = Instant::now();
            let waiter = {
                let router = Arc::clone(&router);
                std::thread::spawn(move || router.wait_all_connected(0, Duration::from_secs(10)))
            };
            let (ep, _inbox) = endpoint(&router, 0);
            waiter.join().expect("waiter").expect("the link attaches");
            best = best.min(t.elapsed());
            ep.shutdown();
            router.shutdown();
        }
        println!("endpoint spawn to every waiter released: best {best:?}");
        assert!(best < Duration::from_millis(2), "best of five: {best:?}");
    }

    /// (j) One-way bulk is acknowledged by bodiless frames: 64 MiB pushed
    /// at an endpoint that never sends a message keeps the sender's ring at
    /// a frame or two in flight, not 32 MiB, and leaves it empty — and a
    /// bodiless frame is never answered with one, so both loops go idle
    /// once the transfer is through.
    #[test]
    fn one_way_bulk_is_acknowledged_by_bodiless_frames() {
        const FRAMES: u64 = 64;
        const FRAME_BYTES: usize = 1 << 20;
        let (router, _events) = router_with_job(1, Duration::from_secs(600));
        let (ep, inbox) = endpoint(&router, 0);
        let ring = &router.job(0).expect("registered").links[0].ring;
        let mut peak = 0;
        for tag in 0..FRAMES {
            router.send_net(0, 0, &install_msg(tag, vec![tag as u8; FRAME_BYTES]));
            match inbox.recv_timeout(Duration::from_secs(10)).expect("frame") {
                Net::Install { checkpoint: c } => assert_eq!(c.iteration, tag),
                other => panic!("unexpected delivery {other:?}"),
            }
            peak = peak.max(ring.bytes());
        }
        eventually("the last frame is acknowledged", || ring.frames() == 0);
        println!("one-way bulk: sender's ring peaked at {peak} bytes");
        assert!(peak < 4 * FRAME_BYTES, "ring held {peak} bytes");
        assert_eq!(ep.ring.frames(), 0, "the receiver sent no message");
        let ep_before = ep.wakeups.load(Ordering::Relaxed);
        let reactor_wakeups = idle_wakeups(&router, QUIET);
        let ep_wakeups = ep.wakeups.load(Ordering::Relaxed) - ep_before;
        assert!(
            reactor_wakeups <= 5 && ep_wakeups <= 5,
            "acknowledgements echo: reactor woke {reactor_wakeups}x, endpoint {ep_wakeups}x"
        );
        ep.shutdown();
        router.shutdown();
    }

    /// The scaling claim of the reactor design: driver-side
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
            // A burst of dialers can fill the accept queue faster than the
            // reactor empties it; retry rather than assume infinite backlog.
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
                listen_port: 0,
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

    /// An older dialer — v8 (no listen port, so no buddy link), v6 (it
    /// would batch into `"ACRS"` super-frames) or v5 (no `ack` in its
    /// frame headers) — is refused at the handshake: the reactor fails the
    /// version check and closes the socket — no welcome, no link.
    #[test]
    fn v5_hello_is_refused_at_the_handshake() {
        let (router, _events) = router_with_job(1, Duration::from_secs(600));
        for old in [8u32, 6, 5] {
            let mut hello = encode_hello(&Hello {
                job: 0,
                node: 0,
                last_recv_seq: 0,
                listen_port: 0,
            });
            hello[4..8].copy_from_slice(&old.to_le_bytes());
            assert_eq!(
                decode_hello(&hello),
                Err(crate::wire::WireError::BadVersion(old))
            );
            let mut s = TcpStream::connect(router.local_addr()).expect("connect");
            s.write_all(&hello).expect("hello");
            let _ = s.set_read_timeout(Some(Duration::from_secs(5)));
            let mut one = [0u8; 1];
            assert_eq!(
                s.read(&mut one).unwrap_or(0),
                0,
                "a v{old} hello must get no welcome"
            );
            assert_eq!(router.connected_links(), 0);
        }
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
                listen_port: 0,
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
                listen_port: 0,
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
        let ping = crate::wire::flatten(&crate::wire::encode_event(&Event::Pong {
            node: 0,
            token: 7,
        }));
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
        b0.write_all(&crate::wire::encode_frame(1, 1, &body[0]))
            .expect("frame");

        router.deregister_job(1);
        assert_eq!(router.connected_links(), 2, "job 2 links survive");
        router.shutdown();
    }
}
