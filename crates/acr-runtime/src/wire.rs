//! Wire serialization for the TCP transport: length-prefixed frames with a
//! Fletcher-64 body trailer, tag-byte codecs for the `message.rs` protocol
//! enums, the connect/accept handshake records, and the address book that
//! lets a node dial its buddy.
//!
//! This is also the crate's one binary record codec: the `put_*` writers
//! and `Reader` serve frames, handshakes and the driver journal's
//! records (`persist.rs`) alike, each configuration enum has one tag table
//! (`Tagged`), and only this file knows a body's layout — the transport
//! classifies checkpoint-ship traffic through `ship_of`.
//!
//! ## Frame format (wire version 10)
//!
//! Every message crossing a socket travels in one frame, and a frame is the
//! only thing a socket carries after the handshake (all integers
//! little-endian):
//!
//! ```text
//! magic   u32   0x41435246 ("ACRF")
//! len     u32   body length in bytes (≤ MAX_FRAME_BODY)
//! to      u32   destination node index; DRIVER_DEST for the driver;
//!               ENDPOINT_DEST for the receiving endpoint itself
//! seq     u64   per-link-direction sequence number, starting at 1
//! ack     u64   highest seq the sender has received on this link
//! body    [u8; len]   tag-byte-encoded Net or Event
//! check   u64   fletcher64(body)
//! ```
//!
//! `seq` is what makes a transient socket drop lossless: each side keeps a
//! replay ring of sent frames and, on reconnect, the handshake exchanges the
//! highest `seq` each side has *received* so the peer can replay exactly the
//! frames the dead socket swallowed. Receivers drop `seq` values they have
//! already seen (replayed duplicates).
//!
//! `ack` is the same high-water mark, carried on every frame instead of
//! only at the handshake: the frames at or below it have arrived and been
//! handed on, so the peer's replay ring lets go of them. It is read when
//! the frame is assembled for the socket, not when the message was queued,
//! and like `to` and `seq` it sits outside the checksum (a relayed body
//! keeps its trailer while its header is rewritten per link).
//!
//! The router sends each node one frame addressed to `ENDPOINT_DEST` once
//! every link of the job is up: its body is the job's address book (where
//! each node's endpoint accepts its buddy's link, learned from the version-9
//! hello's listen port), which the endpoint keeps and does not hand on.
//!
//! A link that receives but has nothing to say sends a *bodiless* frame:
//! `len 0`, `seq 0`, `to 0`, only the `ack` meaningful. Sequence 0 is never
//! assigned to a message, so such a frame is not kept for replay, not
//! deduplicated, not dispatched, and — having no body — never owed an
//! acknowledgement itself.
//!
//! Frames headed for the same socket in one flush leave back to back in one
//! vectored write (`tcp.rs` assembles them); on the wire that is nothing
//! but a run of frames, each with its own trailer, so the decoder — and a
//! relay, which passes body and trailer on as they came — knows one layout.
//! A body is stored verbatim — there is no byte compression on the wire
//! (checkpoint-ship volume is cut by the §4.2 checksum and by delta
//! checkpoints, both above this layer).
//!
//! ## Bodies are lists of shared segments
//!
//! The body codec is deliberately hand-rolled (no serde in the dependency
//! tree): one tag byte per enum variant, fixed little-endian scalars,
//! `u64`-length-prefixed byte strings. What it produces is not one buffer
//! but a short list of [`Bytes`] *segments* whose concatenation is the
//! body: small encoded runs, and every shared byte string of
//! 4 KiB (`SEGMENT_MIN`) or more — a packed checkpoint, a delta window, a
//! final task state — as a reference to the caller's own allocation. The
//! checksum streams over the segments (for a large body, in `tcp.rs`, as the
//! socket takes them) and the socket takes them in one vectored write, so a
//! shipped checkpoint is never copied on its way out. On the way in,
//! [`FrameDecoder::read_from`] reads a large frame's body into an
//! allocation reserved for its size, checksumming each read as it lands,
//! and the body decoders return those byte strings as slices of it.

use acr_core::{Checkpoint, ChunkTable, ConsensusMsg, Detection, DetectionMethod, Scheme};
use acr_pup::{fletcher64, Fletcher64};
use bytes::Bytes;
use std::io::Read;
use std::net::{IpAddr, Ipv6Addr, SocketAddr};

use crate::message::{AppMsg, Ctrl, Event, Net, NodeFault, Scope, TaskId};

/// Frame magic: `"ACRF"` little-endian.
pub const FRAME_MAGIC: u32 = u32::from_le_bytes(*b"ACRF");
/// Handshake (client hello) magic: `"ACRH"`.
pub const HELLO_MAGIC: u32 = u32::from_le_bytes(*b"ACRH");
/// Handshake (server welcome) magic: `"ACRW"`.
pub const WELCOME_MAGIC: u32 = u32::from_le_bytes(*b"ACRW");
/// Wire protocol version carried by the handshake. Version 2 added
/// super-frames; version 3 added the delta detection record and the
/// welcome's delta-checkpoint knobs; version 4 added the hello's job id,
/// which a multi-job reactor uses to route the link into its job's
/// namespace; version 5 removed the payload codecs (the hello's codec mask,
/// the welcome's codec byte, the super-frame header's codec and raw-length
/// fields); version 6 added the `ack` field to the frame headers; version 7
/// removed the `"ACRS"` super-frame, leaving the plain frame as the only
/// thing on a socket; version 8 removed the welcome's delta anchor interval
/// and added a byte to `CompareResult` acknowledging the buddy's delta
/// base; version 9 added the hello's listen port and the router's address
/// book (`ENDPOINT_DEST`), which let a node open a direct link to its
/// buddy; version 10 removed that acknowledgement again (the buddy keeps no
/// delta base). Peers of any other version are refused at the handshake.
pub const WIRE_VERSION: u32 = 10;
/// `to` value addressing the driver rather than a node.
pub const DRIVER_DEST: u32 = u32::MAX;
/// `to` value of a frame the router sends a node's endpoint itself rather
/// than the node: its body is the job's address book (where each node
/// accepts its buddy's link), not a message.
pub const ENDPOINT_DEST: u32 = u32::MAX - 1;
/// Upper bound on a frame body; anything larger is a corrupt length field.
pub const MAX_FRAME_BODY: usize = 256 << 20;

/// Frame header bytes ahead of the body (magic + len + to + seq + ack).
pub const FRAME_HEADER: usize = 4 + 4 + 4 + 8 + 8;
/// Trailer bytes after the body (the Fletcher-64 checksum).
pub const FRAME_TRAILER: usize = 8;
/// Encoded hello length (fixed): magic, version, job, node, last_recv,
/// listen port. The job id (added in wire version 4) scopes the link: node
/// indices are per-job namespaces, so a service reactor hosting several jobs
/// routes a frame's `to` within the job its link handshook into. The listen
/// port (version 9) is where the dialing endpoint accepts its buddy's link.
pub const HELLO_LEN: usize = 4 + 4 + 4 + 4 + 8 + 2;
/// Encoded welcome length (fixed). The final byte is the delta-checkpoint
/// enable flag.
pub const WELCOME_LEN: usize = 4 + 4 + 8 + 4 * 4 + 1 + 8 + 8 + 8 + 1;

/// Shortest shared byte string that becomes a body segment of its own (a
/// reference to the caller's allocation); anything shorter is copied into
/// the encoded run around it. Below a page the copy is cheaper than another
/// entry in the vectored write, and delta windows — one 4 KiB chunk each by
/// default — are the smallest strings worth sharing. A flush draws the same
/// line: segments below it are copied into the buffer it assembles.
pub(crate) const SEGMENT_MIN: usize = 4096;

/// Shortest frame body that [`FrameDecoder`] receives into an
/// allocation of its own, which then becomes the body, instead of copying
/// it out of the stream buffer once complete. At one socket read
/// (`tcp.rs` takes 64 KiB or more at a time) a smaller body has usually arrived
/// whole, and copying it out keeps the stream buffer small.
const OWN_ALLOC_MIN: usize = 64 << 10;

/// A decoding failure. `Truncated` is only returned by the fixed-size
/// handshake parsers and the body codecs; the incremental [`FrameDecoder`]
/// reports an incomplete frame as `Ok(None)` instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The stream does not start with the expected magic — garbage, or a
    /// desynchronized peer. The connection must be dropped.
    BadMagic(u32),
    /// The length field exceeds [`MAX_FRAME_BODY`].
    TooLarge(usize),
    /// The body's Fletcher-64 trailer does not match.
    Checksum {
        /// Checksum computed over the received body.
        expected: u64,
        /// Checksum carried in the frame trailer.
        found: u64,
    },
    /// An unknown enum tag inside a frame body.
    BadTag {
        /// Which type was being decoded.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// The buffer ended mid-record.
    Truncated,
    /// Handshake version mismatch.
    BadVersion(u32),
    /// Bytes after the record's end, or a string that is not UTF-8.
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            WireError::TooLarge(n) => write!(f, "frame body of {n} bytes exceeds the cap"),
            WireError::Checksum { expected, found } => {
                write!(
                    f,
                    "frame checksum mismatch: body {expected:#x}, trailer {found:#x}"
                )
            }
            WireError::BadTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            WireError::Truncated => write!(f, "record truncated"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::Malformed(what) => write!(f, "malformed record: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Compile shim, no behaviour: `benchmark/src/layers.rs` (which this
/// repository's changes may not edit) names `WireCodec::None`,
/// `TcpConfig::default().codec` and a second argument to [`encode_batch`].
/// The wire has no payload codecs; the next `benchmark` issue deletes this
/// enum, that field and that parameter together with the two lines that
/// use them.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireCodec {
    #[default]
    None,
}

// ---------------------------------------------------------------------------
// Primitive writers / reader: the crate's one binary record codec
// ---------------------------------------------------------------------------

pub(crate) fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}
pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}
pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}
pub(crate) fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}
fn put_usize(buf: &mut Vec<u8>, v: usize) {
    put_u64(buf, v as u64);
}
fn put_bytes(buf: &mut Vec<u8>, v: &[u8]) {
    put_u64(buf, v.len() as u64);
    buf.extend_from_slice(v);
}
/// A `u32`-counted list of `f64`s.
pub(crate) fn put_f64s(buf: &mut Vec<u8>, vs: &[f64]) {
    put_u32(buf, vs.len() as u32);
    for &v in vs {
        put_f64(buf, v);
    }
}
/// A `u32`-length-prefixed UTF-8 string.
pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// A configuration enum with a stable one-byte tag: its index in `TAGS`,
/// the only place the tags are written down. Encoding is total (every
/// variant is listed); decoding refuses a byte past the table.
pub(crate) trait Tagged: Copy + PartialEq + 'static {
    const WHAT: &'static str;
    const TAGS: &'static [Self];
}

impl Tagged for Scheme {
    const WHAT: &'static str = "Scheme";
    const TAGS: &'static [Self] = &[Self::Strong, Self::Medium, Self::Weak];
}

/// `Event::CheckpointDone.verified`: no verdict, dirty, clean.
impl Tagged for Option<bool> {
    const WHAT: &'static str = "CheckpointDone.verified";
    const TAGS: &'static [Self] = &[None, Some(false), Some(true)];
}

impl Tagged for DetectionMethod {
    const WHAT: &'static str = "DetectionMethod";
    const TAGS: &'static [Self] = &[Self::FullCompare, Self::Checksum, Self::ChunkedChecksum];
}

/// The error of a tag byte outside its table.
pub(crate) fn unknown<T>(what: &'static str, tag: u8) -> Result<T, WireError> {
    Err(WireError::BadTag { what, tag })
}

pub(crate) fn put_tag<T: Tagged>(buf: &mut Vec<u8>, v: T) {
    let tag = T::TAGS.iter().position(|&t| t == v);
    put_u8(buf, tag.expect("every variant has a tag") as u8);
}

/// A frame body under construction: the encoded run being written, and the
/// segments finished so far. The `put_*` writers take `&mut w.run`.
#[derive(Default)]
struct BodyWriter {
    segs: Vec<Bytes>,
    run: Vec<u8>,
}

impl BodyWriter {
    /// A length-prefixed shared byte string: by reference from
    /// [`SEGMENT_MIN`] bytes up, copied into the run below that.
    fn shared(&mut self, v: &Bytes) {
        put_u64(&mut self.run, v.len() as u64);
        if v.len() < SEGMENT_MIN {
            self.run.extend_from_slice(v);
        } else {
            self.end_run();
            self.segs.push(v.clone());
        }
    }

    fn end_run(&mut self) {
        if !self.run.is_empty() {
            self.segs.push(Bytes::from(std::mem::take(&mut self.run)));
        }
    }

    fn finish(mut self) -> Vec<Bytes> {
        self.end_run();
        self.segs
    }
}

/// Total length of a segmented body.
pub(crate) fn body_len(segs: &[Bytes]) -> usize {
    segs.iter().map(Bytes::len).sum()
}

/// The frame checksum of a segmented body: Fletcher-64 streamed over the
/// segments, equal to [`fletcher64`] of their concatenation.
pub fn body_check(segs: &[Bytes]) -> u64 {
    let mut f = Fletcher64::new();
    for seg in segs {
        f.update(seg);
    }
    f.digest()
}

/// A segmented body as one contiguous buffer, for the callers that want a
/// `&[u8]` ([`encode_frame`], [`encode_batch`], the public compare-body
/// pair). The runtime's own send path never flattens.
pub(crate) fn flatten(segs: &[Bytes]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(body_len(segs));
    for seg in segs {
        buf.extend_from_slice(seg);
    }
    buf
}

/// Cursor over a received record: frame headers and bodies, handshake
/// records and the driver journal's records (`persist.rs`), which the
/// `put_*` above write, all read through it. So every record meets the same
/// rules: one that ends early or runs on is refused, a count may not claim
/// more elements than the bytes left can hold, and a tag or flag byte
/// outside its table is [`WireError::BadTag`]. Scalars are little-endian
/// and fixed-width; a wire byte string has a `u64` length, a journal list
/// or string a `u32` count.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// The shared buffer `buf` is a view of, when there is one: byte
    /// strings then come back as slices of it instead of copies.
    backing: Option<&'a Bytes>,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self {
            buf,
            pos: 0,
            backing: None,
        }
    }
    /// Over a received frame body, which [`shared`](Self::shared) slices.
    fn over(body: &'a Bytes) -> Self {
        Self {
            buf: body,
            pos: 0,
            backing: Some(body),
        }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() - self.pos < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    pub(crate) fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }
    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        Ok(self.take(N)?.try_into().expect("take(N) returns N bytes"))
    }
    pub(crate) fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.array()?))
    }
    pub(crate) fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.array()?))
    }
    pub(crate) fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }
    /// A handshake record's `magic` and [`WIRE_VERSION`], both checked.
    fn preamble(&mut self, magic: u32) -> Result<(), WireError> {
        match (self.u32()?, self.u32()?) {
            (m, _) if m != magic => Err(WireError::BadMagic(m)),
            (_, v) if v != WIRE_VERSION => Err(WireError::BadVersion(v)),
            _ => Ok(()),
        }
    }
    fn usize(&mut self) -> Result<usize, WireError> {
        Ok(self.u64()? as usize)
    }
    /// A bool, or the tag of an `Option`: 0 or 1, `what` naming it.
    pub(crate) fn flag(&mut self, what: &'static str) -> Result<bool, WireError> {
        match self.u8()? {
            t @ 0..=1 => Ok(t == 1),
            tag => unknown(what, tag),
        }
    }
    /// A [`Tagged`] enum.
    pub(crate) fn tag<T: Tagged>(&mut self) -> Result<T, WireError> {
        let tag = self.u8()?;
        (T::TAGS.get(tag as usize).copied()).ok_or(WireError::BadTag { what: T::WHAT, tag })
    }
    /// `n` elements of at least `each` bytes follow: refused before
    /// anything is sized by it if the bytes left cannot hold them.
    fn count(&self, n: u64, each: usize) -> Result<usize, WireError> {
        if n > ((self.buf.len() - self.pos) / each) as u64 {
            return Err(WireError::Truncated);
        }
        Ok(n as usize)
    }
    fn count64(&mut self, each: usize) -> Result<usize, WireError> {
        let n = self.u64()?;
        self.count(n, each)
    }
    fn count32(&mut self, each: usize) -> Result<usize, WireError> {
        let n = self.u32()?;
        self.count(n.into(), each)
    }
    fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.usize()?;
        self.take(n)
    }
    /// A length-prefixed byte string the message keeps as [`Bytes`].
    fn shared(&mut self) -> Result<Bytes, WireError> {
        let s = self.bytes()?;
        Ok(match self.backing {
            Some(body) => body.slice(self.pos - s.len()..self.pos),
            None => Bytes::copy_from_slice(s),
        })
    }
    /// A [`put_f64s`] list.
    pub(crate) fn f64s(&mut self) -> Result<Vec<f64>, WireError> {
        (0..self.count32(8)?).map(|_| self.f64()).collect()
    }
    /// A [`put_str`] string.
    pub(crate) fn str(&mut self) -> Result<String, WireError> {
        let n = self.u32()? as usize;
        let s = self.take(n)?.to_vec();
        String::from_utf8(s).map_err(|_| WireError::Malformed("invalid UTF-8"))
    }
    pub(crate) fn finish(self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes"))
        }
    }
}

// ---------------------------------------------------------------------------
// Frame layer
// ---------------------------------------------------------------------------

/// One decoded frame: destination, link sequence number, the sender's
/// acknowledgement, opaque body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Destination node index, or [`DRIVER_DEST`].
    pub to: u32,
    /// Per-link-direction sequence number (starts at 1); 0 on a bodiless
    /// acknowledgement frame.
    pub seq: u64,
    /// Highest sequence the sender had received on this link when the
    /// frame left.
    pub ack: u64,
    /// Tag-byte-encoded message body.
    pub body: Bytes,
    /// The body's Fletcher-64 as the trailer carried (and the decoder
    /// verified) it. A relay passes it on with the body instead of
    /// recomputing it.
    pub check: u64,
}

/// The fixed-size ends of a frame around a body of `len` bytes whose
/// Fletcher-64 is `check` — the one place the layout is written.
pub(crate) fn frame_ends(
    to: u32,
    seq: u64,
    ack: u64,
    len: usize,
    check: u64,
) -> ([u8; FRAME_HEADER], [u8; FRAME_TRAILER]) {
    let mut h = [0u8; FRAME_HEADER];
    h[0..4].copy_from_slice(&FRAME_MAGIC.to_le_bytes());
    h[4..8].copy_from_slice(&(len as u32).to_le_bytes());
    h[8..12].copy_from_slice(&to.to_le_bytes());
    h[12..20].copy_from_slice(&seq.to_le_bytes());
    h[20..28].copy_from_slice(&ack.to_le_bytes());
    (h, check.to_le_bytes())
}

/// Append one frame to `buf`.
fn put_frame(buf: &mut Vec<u8>, to: u32, seq: u64, ack: u64, body: &[u8]) {
    let (header, trailer) = frame_ends(to, seq, ack, body.len(), fletcher64(body));
    buf.reserve(FRAME_HEADER + body.len() + FRAME_TRAILER);
    buf.extend_from_slice(&header);
    buf.extend_from_slice(body);
    buf.extend_from_slice(&trailer);
}

/// Encode one frame, contiguous and ready for the socket, acknowledging
/// everything up to `ack`.
pub fn encode_frame_acked(to: u32, seq: u64, ack: u64, body: &[u8]) -> Vec<u8> {
    let mut buf = Vec::new();
    put_frame(&mut buf, to, seq, ack, body);
    buf
}

/// [`encode_frame_acked`] acknowledging nothing (`ack` 0).
pub fn encode_frame(to: u32, seq: u64, body: &[u8]) -> Vec<u8> {
    encode_frame_acked(to, seq, 0, body)
}

/// What [`encode_batch`] returns.
#[derive(Debug, Clone)]
pub struct EncodedBatch {
    /// Exactly what goes on the socket: the records' frames, back to back.
    pub bytes: Vec<u8>,
}

/// The `(to, seq, body)` records as one contiguous run of frames, each
/// acknowledging nothing — what a flush of them puts on the socket. The
/// second parameter is ignored (see [`WireCodec`]).
pub fn encode_batch(records: &[(u32, u64, &[u8])], _codec: WireCodec) -> EncodedBatch {
    let mut bytes = Vec::new();
    for &(to, seq, body) in records {
        put_frame(&mut bytes, to, seq, 0, body);
    }
    EncodedBatch { bytes }
}

/// A frame of [`OWN_ALLOC_MIN`] bytes or more whose body is still
/// arriving: `buf` is the body plus its trailer as far as it has landed, in
/// an allocation reserved for all of it, and `check` the body's Fletcher-64
/// over what has landed.
#[derive(Debug)]
struct Arriving {
    to: u32,
    seq: u64,
    ack: u64,
    /// Body length; the trailer follows it in `buf`.
    len: usize,
    buf: Vec<u8>,
    check: Fletcher64,
}

impl Arriving {
    /// Bytes of body and trailer still to come.
    fn missing(&self) -> usize {
        self.len + FRAME_TRAILER - self.buf.len()
    }

    /// `buf` grew from `from` bytes: run the checksum over the body bytes
    /// that just landed, while they are still in cache.
    fn landed(&mut self, from: usize) {
        let end = self.buf.len().min(self.len);
        if from < end {
            self.check.update(&self.buf[from..end]);
        }
    }
}

/// Incremental frame decoder for a byte stream delivered in arbitrary
/// chunks (partial reads, coalesced writes). Hand it bytes as they arrive —
/// [`feed`](Self::feed) a slice, or let it [`read_from`](Self::read_from)
/// the socket — then pull complete frames one at a time. Any error is fatal
/// for the stream: the decoder stays poisoned and the connection should be
/// dropped (a fresh connection starts a fresh decoder).
///
/// A frame of 64 KiB (`OWN_ALLOC_MIN`) or more that is met before its
/// body has fully arrived gets an allocation reserved for exactly its size
/// and never zero-filled; the rest of the body is read straight into it,
/// the trailer's checksum is updated over each read as it lands, and once
/// the trailer verifies that allocation *is* [`Frame::body`]. Every smaller
/// body is copied out of the stream buffer into a buffer of its own, so a
/// few bytes of heartbeat never keep a larger buffer alive. The frames
/// yielded are the same either way.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    pos: usize,
    arriving: Option<Arriving>,
    /// The arriving frame, complete and verified, until it is pulled.
    arrived: Option<Frame>,
    poisoned: Option<WireError>,
}

impl FrameDecoder {
    /// Fresh decoder for a new connection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append received bytes.
    pub fn feed(&mut self, mut data: &[u8]) {
        if let Some(a) = &mut self.arriving {
            let k = data.len().min(a.missing());
            let from = a.buf.len();
            a.buf.extend_from_slice(&data[..k]);
            a.landed(from);
            data = &data[k..];
        }
        self.finish_arriving();
        // Compact lazily: drop consumed prefix once it dominates the buffer.
        if self.pos > 4096 && self.pos * 2 > self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(data);
    }

    /// Read at most `scratch.len()` bytes from `r`: straight into the
    /// arriving frame's reserved allocation when there is one (as many
    /// reads as it takes, stopping early when `r` would block), through
    /// `scratch` into the stream buffer otherwise (one read). Returns how
    /// many bytes landed — `Ok(0)` is end of stream — or the error of a
    /// read that landed none.
    pub fn read_from(&mut self, r: &mut impl Read, scratch: &mut [u8]) -> std::io::Result<usize> {
        let Some(a) = &mut self.arriving else {
            let k = r.read(scratch)?;
            self.feed(&scratch[..k]);
            return Ok(k);
        };
        let from = a.buf.len();
        let want = a.missing().min(scratch.len().max(1));
        // `read_to_end` reads into the reserved capacity without zeroing
        // it first; the limit keeps it from growing the allocation.
        let res = r.by_ref().take(want as u64).read_to_end(&mut a.buf);
        a.landed(from);
        let k = a.buf.len() - from;
        self.finish_arriving();
        match res {
            Err(e) if k == 0 => Err(e),
            _ => Ok(k),
        }
    }

    /// If the arriving frame is complete: verify it and hold it for the
    /// next [`next_frame`](Self::next_frame).
    fn finish_arriving(&mut self) {
        let Some(mut a) = self.arriving.take_if(|a| a.missing() == 0) else {
            return;
        };
        let found = u64::from_le_bytes(a.buf[a.len..].try_into().unwrap());
        let expected = a.check.digest();
        if expected != found {
            self.poisoned = Some(WireError::Checksum { expected, found });
            return;
        }
        a.buf.truncate(a.len);
        self.arrived = Some(Frame {
            to: a.to,
            seq: a.seq,
            ack: a.ack,
            body: Bytes::from(a.buf),
            check: found,
        });
    }

    fn poison<T>(&mut self, e: WireError) -> Result<T, WireError> {
        self.poisoned = Some(e.clone());
        Err(e)
    }

    /// Next complete frame, `Ok(None)` if more bytes are needed.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        if let Some(f) = self.arrived.take() {
            return Ok(Some(f));
        }
        if let Some(e) = &self.poisoned {
            return Err(e.clone());
        }
        if self.arriving.is_some() {
            return Ok(None);
        }
        let avail = &self.buf[self.pos..];
        let mut h = Reader::new(avail);
        let Ok(magic) = h.u32() else {
            return Ok(None);
        };
        if magic != FRAME_MAGIC {
            return self.poison(WireError::BadMagic(magic));
        }
        let (Ok(len), Ok(to), Ok(seq), Ok(ack)) = (h.u32(), h.u32(), h.u64(), h.u64()) else {
            return Ok(None);
        };
        let len = len as usize;
        if len > MAX_FRAME_BODY {
            return self.poison(WireError::TooLarge(len));
        }
        let total = FRAME_HEADER + len + FRAME_TRAILER;
        if avail.len() < total {
            if len >= OWN_ALLOC_MIN {
                // Everything past the header is this frame's: move it to
                // the frame's own allocation, where the rest will land.
                let mut a = Arriving {
                    to,
                    seq,
                    ack,
                    len,
                    buf: Vec::with_capacity(len + FRAME_TRAILER),
                    check: Fletcher64::new(),
                };
                a.buf.extend_from_slice(&avail[FRAME_HEADER..]);
                a.landed(0);
                self.arriving = Some(a);
                self.buf.clear();
                self.pos = 0;
            }
            return Ok(None);
        }
        let body = &avail[FRAME_HEADER..FRAME_HEADER + len];
        let found = u64::from_le_bytes(avail[FRAME_HEADER + len..total].try_into().unwrap());
        let expected = fletcher64(body);
        if expected != found {
            return self.poison(WireError::Checksum { expected, found });
        }
        let body = Bytes::copy_from_slice(body);
        self.pos += total;
        Ok(Some(Frame {
            to,
            seq,
            ack,
            body,
            check: found,
        }))
    }
}

// ---------------------------------------------------------------------------
// Handshake
// ---------------------------------------------------------------------------

/// Client hello: which job the link belongs to, the connecting node's
/// identity within that job, the highest frame sequence it has received
/// from the peer (so the peer can replay the tail a dropped socket
/// swallowed), and — to the router — the port the node accepts its buddy's
/// link on (0 when it has none, and on a buddy link itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Hello {
    pub job: u32,
    pub node: u32,
    pub last_recv_seq: u64,
    pub listen_port: u16,
}

pub(crate) fn encode_hello(h: &Hello) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HELLO_LEN);
    put_u32(&mut buf, HELLO_MAGIC);
    put_u32(&mut buf, WIRE_VERSION);
    put_u32(&mut buf, h.job);
    put_u32(&mut buf, h.node);
    put_u64(&mut buf, h.last_recv_seq);
    buf.extend_from_slice(&h.listen_port.to_le_bytes());
    debug_assert_eq!(buf.len(), HELLO_LEN);
    buf
}

pub(crate) fn decode_hello(buf: &[u8]) -> Result<Hello, WireError> {
    let mut r = Reader::new(buf);
    r.preamble(HELLO_MAGIC)?;
    let h = Hello {
        job: r.u32()?,
        node: r.u32()?,
        last_recv_seq: r.u64()?,
        listen_port: u16::from_le_bytes(r.array()?),
    };
    r.finish()?;
    Ok(h)
}

/// Bytes per entry of an address book: an IPv6 address (IPv4 mapped into
/// it) and a port, 0 for a node whose address is not known.
const BOOK_ENTRY: usize = 16 + 2;

/// The job's address book, node by node: where each node's endpoint
/// accepts its buddy's link (`None` where unknown). The router sends it to
/// every endpoint in a frame addressed to [`ENDPOINT_DEST`] once all links
/// are up; layout `count u32`, then per node an IPv6 address (an IPv4
/// address mapped into it) and a `u16` port, port 0 meaning unknown.
pub(crate) fn encode_address_book(book: &[Option<SocketAddr>]) -> Vec<Bytes> {
    let mut buf = Vec::with_capacity(4 + book.len() * BOOK_ENTRY);
    put_u32(&mut buf, book.len() as u32);
    for addr in book {
        let (ip, port) = match addr {
            Some(SocketAddr::V4(a)) => (a.ip().to_ipv6_mapped(), a.port()),
            Some(SocketAddr::V6(a)) => (*a.ip(), a.port()),
            None => (Ipv6Addr::UNSPECIFIED, 0),
        };
        buf.extend_from_slice(&ip.octets());
        buf.extend_from_slice(&port.to_le_bytes());
    }
    vec![Bytes::from(buf)]
}

/// Decode an [`encode_address_book`] body.
pub(crate) fn decode_address_book(body: &[u8]) -> Result<Vec<Option<SocketAddr>>, WireError> {
    let mut r = Reader::new(body);
    let n = r.count32(BOOK_ENTRY)?;
    let mut book = Vec::with_capacity(n);
    for _ in 0..n {
        let entry = r.take(BOOK_ENTRY)?;
        let ip = Ipv6Addr::from(<[u8; 16]>::try_from(&entry[..16]).unwrap());
        let port = u16::from_le_bytes([entry[16], entry[17]]);
        let ip = match ip.to_ipv4_mapped() {
            Some(v4) => IpAddr::V4(v4),
            None => IpAddr::V6(ip),
        };
        book.push((port != 0).then_some(SocketAddr::new(ip, port)));
    }
    r.finish()?;
    Ok(book)
}

/// The job's shape and node settings. Every node is built from one
/// (`NodeWorker::new`, with its own replica layout): a node host takes it
/// from the router's welcome, a local node from the driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WelcomeCfg {
    pub ranks: u32,
    pub tasks_per_rank: u32,
    pub spares: u32,
    pub total: u32,
    pub detection: DetectionMethod,
    pub chunk_size: u64,
    pub heartbeat_period_ns: u64,
    pub heartbeat_timeout_ns: u64,
    pub delta_checkpoints: bool,
}

/// Server welcome: the router's highest received sequence from this node
/// (the node replays everything above it) and the job shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Welcome {
    pub last_recv_seq: u64,
    pub cfg: WelcomeCfg,
}

pub(crate) fn encode_welcome(w: &Welcome) -> Vec<u8> {
    let mut buf = Vec::with_capacity(WELCOME_LEN);
    put_u32(&mut buf, WELCOME_MAGIC);
    put_u32(&mut buf, WIRE_VERSION);
    put_u64(&mut buf, w.last_recv_seq);
    put_u32(&mut buf, w.cfg.ranks);
    put_u32(&mut buf, w.cfg.tasks_per_rank);
    put_u32(&mut buf, w.cfg.spares);
    put_u32(&mut buf, w.cfg.total);
    put_tag(&mut buf, w.cfg.detection);
    put_u64(&mut buf, w.cfg.chunk_size);
    put_u64(&mut buf, w.cfg.heartbeat_period_ns);
    put_u64(&mut buf, w.cfg.heartbeat_timeout_ns);
    put_u8(&mut buf, w.cfg.delta_checkpoints as u8);
    debug_assert_eq!(buf.len(), WELCOME_LEN);
    buf
}

pub(crate) fn decode_welcome(buf: &[u8]) -> Result<Welcome, WireError> {
    let mut r = Reader::new(buf);
    r.preamble(WELCOME_MAGIC)?;
    let last_recv_seq = r.u64()?;
    let cfg = WelcomeCfg {
        ranks: r.u32()?,
        tasks_per_rank: r.u32()?,
        spares: r.u32()?,
        total: r.u32()?,
        detection: r.tag()?,
        chunk_size: r.u64()?,
        heartbeat_period_ns: r.u64()?,
        heartbeat_timeout_ns: r.u64()?,
        delta_checkpoints: r.flag("delta_checkpoints")?,
    };
    r.finish()?;
    Ok(Welcome { last_recv_seq, cfg })
}

// ---------------------------------------------------------------------------
// Body codec: shared pieces
// ---------------------------------------------------------------------------

fn put_scope(buf: &mut Vec<u8>, s: Scope) {
    match s {
        Scope::Global => put_u8(buf, 0),
        Scope::Replica(r) => {
            put_u8(buf, 1);
            put_u8(buf, r);
        }
    }
}

fn get_scope(r: &mut Reader<'_>) -> Result<Scope, WireError> {
    Ok(match r.u8()? {
        0 => Scope::Global,
        1 => Scope::Replica(r.u8()?),
        t => return unknown("Scope", t),
    })
}

fn put_consensus(buf: &mut Vec<u8>, m: &ConsensusMsg) {
    match *m {
        ConsensusMsg::Start { round } => {
            put_u8(buf, 0);
            put_u64(buf, round);
        }
        ConsensusMsg::Contribute { round, max } => {
            put_u8(buf, 1);
            put_u64(buf, round);
            put_u64(buf, max);
        }
        ConsensusMsg::Decide { round, iteration } => {
            put_u8(buf, 2);
            put_u64(buf, round);
            put_u64(buf, iteration);
        }
        ConsensusMsg::ReadyUp { round } => {
            put_u8(buf, 3);
            put_u64(buf, round);
        }
        ConsensusMsg::Go { round } => {
            put_u8(buf, 4);
            put_u64(buf, round);
        }
    }
}

fn get_consensus(r: &mut Reader<'_>) -> Result<ConsensusMsg, WireError> {
    Ok(match r.u8()? {
        0 => ConsensusMsg::Start { round: r.u64()? },
        1 => ConsensusMsg::Contribute {
            round: r.u64()?,
            max: r.u64()?,
        },
        2 => ConsensusMsg::Decide {
            round: r.u64()?,
            iteration: r.u64()?,
        },
        3 => ConsensusMsg::ReadyUp { round: r.u64()? },
        4 => ConsensusMsg::Go { round: r.u64()? },
        t => return unknown("ConsensusMsg", t),
    })
}

fn put_chunk_table(buf: &mut Vec<u8>, t: &ChunkTable) {
    put_u32(buf, t.chunk_size);
    put_u64(buf, t.digests.len() as u64);
    for &d in &t.digests {
        put_u64(buf, d);
    }
}

fn get_chunk_table(r: &mut Reader<'_>) -> Result<ChunkTable, WireError> {
    let chunk_size = r.u32()?;
    let n = r.count64(8)?;
    let mut digests = Vec::with_capacity(n);
    for _ in 0..n {
        digests.push(r.u64()?);
    }
    Ok(ChunkTable {
        chunk_size,
        digests,
    })
}

fn put_detection(w: &mut BodyWriter, d: &Detection) {
    let buf = &mut w.run;
    match d {
        Detection::Payload(p) => {
            put_u8(buf, 0);
            w.shared(p);
        }
        Detection::Digest(x) => {
            put_u8(buf, 1);
            put_u64(buf, *x);
        }
        Detection::DigestTable { digest, table } => {
            put_u8(buf, 2);
            put_u64(buf, *digest);
            put_chunk_table(buf, table);
        }
        Detection::Delta {
            base_iteration,
            payload_len,
            digest,
            table,
            dirty,
        } => {
            // Fixed prefix layout ([`ship_of`] reads it without a full
            // decode — see the `delta_compare_body_offsets_are_pinned`
            // test):
            //   [0]      detection tag 3
            //   [1..9]   base_iteration u64
            //   [9..17]  payload_len u64
            //   [17..25] digest u64
            //   [25..29] dirty chunk count u32
            put_u8(buf, 3);
            put_u64(buf, *base_iteration);
            put_usize(buf, *payload_len);
            put_u64(buf, *digest);
            put_u32(buf, dirty.len() as u32);
            put_chunk_table(buf, table);
            for (index, window) in dirty {
                put_u32(&mut w.run, *index);
                w.shared(window);
            }
        }
    }
}

/// Checkpoint-ship traffic, as a node-bound body shows it.
pub(crate) enum Ship {
    /// A `Net::Install`, or a `Net::Compare` of anything but a delta.
    Full,
    /// A delta `Net::Compare`: the full payload it stands in for, and how
    /// many dirty windows it carries.
    Delta { payload_len: u64, dirty: u32 },
}

/// Classify a node-bound body by its first segment, without decoding it:
/// `Net::Compare` (tag 2) and `Net::Install` (tag 4) are ships, anything
/// else is not, and a delta `Compare` states its payload length and dirty
/// count at the fixed offsets [`put_detection`] writes, all inside the
/// first segment. Event bodies share the tag space, so they must not be
/// asked.
pub(crate) fn ship_of(body: &[Bytes]) -> Option<Ship> {
    let mut r = Reader::new(body.first()?);
    match r.u8().ok()? {
        2 => {}
        4 => return Some(Ship::Full),
        _ => return None,
    }
    match (
        r.u64(), // iteration
        r.u8(),  // detection tag
        r.u64(), // base_iteration
        r.u64(), // payload_len
        r.u64(), // digest
        r.u32(), // dirty count
    ) {
        (Ok(_), Ok(3), Ok(_), Ok(payload_len), Ok(_), Ok(dirty)) => {
            Some(Ship::Delta { payload_len, dirty })
        }
        _ => Some(Ship::Full),
    }
}

fn get_detection(r: &mut Reader<'_>) -> Result<Detection, WireError> {
    Ok(match r.u8()? {
        0 => Detection::Payload(r.shared()?),
        1 => Detection::Digest(r.u64()?),
        2 => Detection::DigestTable {
            digest: r.u64()?,
            table: get_chunk_table(r)?,
        },
        3 => {
            let base_iteration = r.u64()?;
            let payload_len = r.usize()?;
            if payload_len > MAX_FRAME_BODY {
                return Err(WireError::TooLarge(payload_len));
            }
            let digest = r.u64()?;
            let n = r.count32(4 + 8)?;
            let table = get_chunk_table(r)?;
            let chunk_size = table.chunk_size as usize;
            let total_chunks = if chunk_size == 0 {
                0
            } else {
                payload_len.div_ceil(chunk_size)
            };
            // Strict structural validation: the table must cover the whole
            // payload and every window must be a real chunk span, indices
            // strictly increasing. A record that fails here poisons the
            // frame rather than reaching the protocol layer malformed.
            if (chunk_size == 0 && payload_len > 0)
                || table.digests.len() != total_chunks
                || n > total_chunks
            {
                return Err(WireError::Truncated);
            }
            let mut dirty = Vec::with_capacity(n);
            let mut prev: Option<u32> = None;
            for _ in 0..n {
                let index = r.u32()?;
                let window = r.shared()?;
                if (index as usize) >= total_chunks || prev.is_some_and(|p| index <= p) {
                    return Err(WireError::Truncated);
                }
                let span = acr_pup::chunk_span(chunk_size, payload_len, index);
                if window.len() != span.len() {
                    return Err(WireError::Truncated);
                }
                prev = Some(index);
                dirty.push((index, window));
            }
            Detection::Delta {
                base_iteration,
                payload_len,
                digest,
                table,
                dirty,
            }
        }
        t => return unknown("Detection", t),
    })
}

fn put_checkpoint(w: &mut BodyWriter, c: &Checkpoint) {
    put_u64(&mut w.run, c.iteration);
    w.shared(&c.payload);
    let buf = &mut w.run;
    put_u64(buf, c.digest);
    match &c.chunks {
        None => put_u8(buf, 0),
        Some(t) => {
            put_u8(buf, 1);
            put_chunk_table(buf, t);
        }
    }
}

fn get_checkpoint(r: &mut Reader<'_>) -> Result<Checkpoint, WireError> {
    let iteration = r.u64()?;
    let payload = r.shared()?;
    let digest = r.u64()?;
    Ok(if r.flag("Checkpoint.chunks")? {
        Checkpoint::with_chunks(iteration, payload, digest, get_chunk_table(r)?)
    } else {
        Checkpoint::new(iteration, payload, digest)
    })
}

fn put_app_msg(buf: &mut Vec<u8>, m: &AppMsg) {
    put_usize(buf, m.from.rank);
    put_usize(buf, m.from.task);
    put_u64(buf, m.tag);
    put_bytes(buf, &m.data);
}

fn get_app_msg(r: &mut Reader<'_>) -> Result<AppMsg, WireError> {
    Ok(AppMsg {
        from: TaskId {
            rank: r.usize()?,
            task: r.usize()?,
        },
        tag: r.u64()?,
        data: r.bytes()?.to_vec(),
    })
}

fn put_node_fault(buf: &mut Vec<u8>, f: NodeFault) {
    match f {
        NodeFault::Crash => put_u8(buf, 0),
        NodeFault::Sdc { seed, bits } => {
            put_u8(buf, 1);
            put_u64(buf, seed);
            put_u32(buf, bits);
        }
    }
}

fn get_node_fault(r: &mut Reader<'_>) -> Result<NodeFault, WireError> {
    Ok(match r.u8()? {
        0 => NodeFault::Crash,
        1 => NodeFault::Sdc {
            seed: r.u64()?,
            bits: r.u32()?,
        },
        t => return unknown("NodeFault", t),
    })
}

// ---------------------------------------------------------------------------
// Net codec
// ---------------------------------------------------------------------------

fn put_ctrl(buf: &mut Vec<u8>, c: &Ctrl) {
    match *c {
        Ctrl::StartRound { scope, round } => {
            put_u8(buf, 0);
            put_scope(buf, scope);
            put_u64(buf, round);
        }
        Ctrl::AbortRound { floor } => {
            put_u8(buf, 1);
            put_u64(buf, floor);
        }
        Ctrl::Rollback { floor } => {
            put_u8(buf, 2);
            put_u64(buf, floor);
        }
        Ctrl::SendVerifiedTo { to } => {
            put_u8(buf, 3);
            put_usize(buf, to);
        }
        Ctrl::AssumeIdentity {
            replica,
            rank,
            buddy,
            floor,
        } => {
            put_u8(buf, 4);
            put_u8(buf, replica);
            put_usize(buf, rank);
            put_usize(buf, buddy);
            put_u64(buf, floor);
        }
        Ctrl::BuddyChanged { buddy } => {
            put_u8(buf, 5);
            put_usize(buf, buddy);
        }
        Ctrl::RoundComplete => put_u8(buf, 6),
        Ctrl::Park => put_u8(buf, 7),
        Ctrl::Resume { floor } => {
            put_u8(buf, 8);
            put_u64(buf, floor);
        }
        Ctrl::HardRestart { floor } => {
            put_u8(buf, 9);
            put_u64(buf, floor);
        }
        Ctrl::InjectCrash => put_u8(buf, 10),
        Ctrl::InjectSdc { seed, bits } => {
            put_u8(buf, 11);
            put_u64(buf, seed);
            put_u32(buf, bits);
        }
        Ctrl::ScheduleFault {
            at_iteration,
            fault,
        } => {
            put_u8(buf, 12);
            put_u64(buf, at_iteration);
            put_node_fault(buf, fault);
        }
        Ctrl::MuteHeartbeats { secs } => {
            put_u8(buf, 13);
            put_f64(buf, secs);
        }
        Ctrl::Ping { token } => {
            put_u8(buf, 14);
            put_u64(buf, token);
        }
        Ctrl::Shutdown => put_u8(buf, 15),
        Ctrl::LayoutChanged { dead } => {
            put_u8(buf, 16);
            put_usize(buf, dead);
        }
        Ctrl::ReportVerified { round } => {
            put_u8(buf, 17);
            put_u64(buf, round);
        }
        Ctrl::Halt => put_u8(buf, 18),
    }
}

fn get_ctrl(r: &mut Reader<'_>) -> Result<Ctrl, WireError> {
    Ok(match r.u8()? {
        0 => Ctrl::StartRound {
            scope: get_scope(r)?,
            round: r.u64()?,
        },
        1 => Ctrl::AbortRound { floor: r.u64()? },
        2 => Ctrl::Rollback { floor: r.u64()? },
        3 => Ctrl::SendVerifiedTo { to: r.usize()? },
        4 => Ctrl::AssumeIdentity {
            replica: r.u8()?,
            rank: r.usize()?,
            buddy: r.usize()?,
            floor: r.u64()?,
        },
        5 => Ctrl::BuddyChanged { buddy: r.usize()? },
        6 => Ctrl::RoundComplete,
        7 => Ctrl::Park,
        8 => Ctrl::Resume { floor: r.u64()? },
        9 => Ctrl::HardRestart { floor: r.u64()? },
        10 => Ctrl::InjectCrash,
        11 => Ctrl::InjectSdc {
            seed: r.u64()?,
            bits: r.u32()?,
        },
        12 => Ctrl::ScheduleFault {
            at_iteration: r.u64()?,
            fault: get_node_fault(r)?,
        },
        13 => Ctrl::MuteHeartbeats { secs: r.f64()? },
        14 => Ctrl::Ping { token: r.u64()? },
        15 => Ctrl::Shutdown,
        16 => Ctrl::LayoutChanged { dead: r.usize()? },
        17 => Ctrl::ReportVerified { round: r.u64()? },
        18 => Ctrl::Halt,
        t => return unknown("Ctrl", t),
    })
}

/// Encode a node-bound protocol message into a frame body (its segments).
pub(crate) fn encode_net(msg: &Net) -> Vec<Bytes> {
    let mut w = BodyWriter::default();
    let buf = &mut w.run;
    match msg {
        Net::App {
            to_task,
            epoch,
            msg,
        } => {
            put_u8(buf, 0);
            put_usize(buf, *to_task);
            put_u64(buf, *epoch);
            put_app_msg(buf, msg);
        }
        Net::Consensus { scope, msg } => {
            put_u8(buf, 1);
            put_scope(buf, *scope);
            put_consensus(buf, msg);
        }
        Net::Compare {
            iteration,
            detection,
        } => {
            put_u8(buf, 2);
            put_u64(buf, *iteration);
            put_detection(&mut w, detection);
        }
        Net::CompareResult { iteration, clean } => {
            put_u8(buf, 3);
            put_u64(buf, *iteration);
            put_u8(buf, *clean as u8);
        }
        Net::Install { checkpoint } => {
            put_u8(buf, 4);
            put_checkpoint(&mut w, checkpoint);
        }
        Net::Heartbeat { from } => {
            put_u8(buf, 5);
            put_usize(buf, *from);
        }
        Net::Ctrl(c) => {
            put_u8(buf, 6);
            put_ctrl(buf, c);
        }
    }
    w.finish()
}

/// Decode a frame body into a node-bound protocol message; its large byte
/// strings are slices of `body`.
pub(crate) fn decode_net(body: &Bytes) -> Result<Net, WireError> {
    net_from(Reader::over(body))
}

fn net_from(mut r: Reader<'_>) -> Result<Net, WireError> {
    let msg = match r.u8()? {
        0 => Net::App {
            to_task: r.usize()?,
            epoch: r.u64()?,
            msg: get_app_msg(&mut r)?,
        },
        1 => Net::Consensus {
            scope: get_scope(&mut r)?,
            msg: get_consensus(&mut r)?,
        },
        2 => Net::Compare {
            iteration: r.u64()?,
            detection: get_detection(&mut r)?,
        },
        3 => Net::CompareResult {
            iteration: r.u64()?,
            clean: r.flag("CompareResult.clean")?,
        },
        4 => Net::Install {
            checkpoint: get_checkpoint(&mut r)?,
        },
        5 => Net::Heartbeat { from: r.usize()? },
        6 => Net::Ctrl(get_ctrl(&mut r)?),
        t => return unknown("Net", t),
    };
    r.finish()?;
    Ok(msg)
}

/// Encode a `Compare` record exactly as it crosses the wire as a frame
/// body — the public surface behind the pinned compare-body offsets.
/// Property tests and diagnostic tooling build and inspect delta records
/// through this pair without reaching into the crate-private `Net` codec.
pub fn encode_compare_body(iteration: u64, detection: &Detection) -> Vec<u8> {
    flatten(&encode_net(&Net::Compare {
        iteration,
        detection: detection.clone(),
    }))
}

/// Decode a frame body produced by [`encode_compare_body`], applying the
/// same strict structural validation the transport does (the record's byte
/// strings are copied out of `buf`).
pub fn decode_compare_body(buf: &[u8]) -> Result<(u64, Detection), WireError> {
    match net_from(Reader::new(buf))? {
        Net::Compare {
            iteration,
            detection,
        } => Ok((iteration, detection)),
        _ => Err(WireError::BadTag {
            what: "Net::Compare",
            tag: buf.first().copied().unwrap_or(u8::MAX),
        }),
    }
}

// ---------------------------------------------------------------------------
// Event codec
// ---------------------------------------------------------------------------

/// Encode a driver-bound event into a frame body (its segments).
pub(crate) fn encode_event(ev: &Event) -> Vec<Bytes> {
    let mut w = BodyWriter::default();
    let buf = &mut w.run;
    match ev {
        Event::BuddyDead { reporter, dead } => {
            put_u8(buf, 0);
            put_usize(buf, *reporter);
            put_usize(buf, *dead);
        }
        Event::CheckpointDone {
            node,
            round,
            iteration,
            verified,
        } => {
            put_u8(buf, 1);
            put_usize(buf, *node);
            put_u64(buf, *round);
            put_u64(buf, *iteration);
            put_tag(buf, *verified);
        }
        Event::SdcDetected {
            node,
            iteration,
            diverged,
            payload_len,
            fields_flagged,
        } => {
            put_u8(buf, 2);
            put_usize(buf, *node);
            put_u64(buf, *iteration);
            put_u64(buf, diverged.len() as u64);
            for range in diverged {
                put_usize(buf, range.start);
                put_usize(buf, range.end);
            }
            put_usize(buf, *payload_len);
            put_usize(buf, *fields_flagged);
        }
        Event::FaultInjected { node, at, fault } => {
            put_u8(buf, 3);
            put_usize(buf, *node);
            put_f64(buf, *at);
            put_node_fault(buf, *fault);
        }
        Event::RolledBack { node } => {
            put_u8(buf, 4);
            put_usize(buf, *node);
        }
        Event::Installed { node } => {
            put_u8(buf, 5);
            put_usize(buf, *node);
        }
        Event::AllTasksDone { node } => {
            put_u8(buf, 6);
            put_usize(buf, *node);
        }
        Event::Pong { node, token } => {
            put_u8(buf, 7);
            put_usize(buf, *node);
            put_u64(buf, *token);
        }
        Event::FinalState {
            node,
            identity,
            tasks,
        } => {
            put_u8(buf, 8);
            put_usize(buf, *node);
            match identity {
                None => put_u8(buf, 0),
                Some((replica, rank)) => {
                    put_u8(buf, 1);
                    put_u8(buf, *replica);
                    put_usize(buf, *rank);
                }
            }
            put_u64(buf, tasks.len() as u64);
            for t in tasks {
                w.shared(t);
            }
        }
        Event::TransportStale { node } => {
            put_u8(buf, 9);
            put_usize(buf, *node);
        }
        Event::VerifiedState {
            node,
            round,
            iteration,
            digest,
            payload,
        } => {
            put_u8(buf, 10);
            put_usize(buf, *node);
            put_u64(buf, *round);
            put_u64(buf, *iteration);
            put_u64(buf, *digest);
            w.shared(payload);
        }
    }
    w.finish()
}

/// Decode a frame body into a driver-bound event; its large byte strings
/// are slices of `body`.
pub(crate) fn decode_event(body: &Bytes) -> Result<Event, WireError> {
    let mut r = Reader::over(body);
    let ev = match r.u8()? {
        0 => Event::BuddyDead {
            reporter: r.usize()?,
            dead: r.usize()?,
        },
        1 => Event::CheckpointDone {
            node: r.usize()?,
            round: r.u64()?,
            iteration: r.u64()?,
            verified: r.tag()?,
        },
        2 => {
            let node = r.usize()?;
            let iteration = r.u64()?;
            let n = r.count64(16)?;
            let mut diverged = Vec::with_capacity(n);
            for _ in 0..n {
                let start = r.usize()?;
                let end = r.usize()?;
                diverged.push(start..end);
            }
            Event::SdcDetected {
                node,
                iteration,
                diverged,
                payload_len: r.usize()?,
                fields_flagged: r.usize()?,
            }
        }
        3 => Event::FaultInjected {
            node: r.usize()?,
            at: r.f64()?,
            fault: get_node_fault(&mut r)?,
        },
        4 => Event::RolledBack { node: r.usize()? },
        5 => Event::Installed { node: r.usize()? },
        6 => Event::AllTasksDone { node: r.usize()? },
        7 => Event::Pong {
            node: r.usize()?,
            token: r.u64()?,
        },
        8 => {
            let node = r.usize()?;
            let identity = if r.flag("FinalState.identity")? {
                Some((r.u8()?, r.usize()?))
            } else {
                None
            };
            let n = r.count64(8)?;
            let mut tasks = Vec::with_capacity(n);
            for _ in 0..n {
                tasks.push(r.shared()?);
            }
            Event::FinalState {
                node,
                identity,
                tasks,
            }
        }
        9 => Event::TransportStale { node: r.usize()? },
        10 => Event::VerifiedState {
            node: r.usize()?,
            round: r.u64()?,
            iteration: r.u64()?,
            digest: r.u64()?,
            payload: r.shared()?,
        },
        t => return unknown("Event", t),
    };
    r.finish()?;
    Ok(ev)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_nets() -> Vec<Net> {
        vec![
            Net::App {
                to_task: 3,
                epoch: 7,
                msg: AppMsg {
                    from: TaskId { rank: 1, task: 2 },
                    tag: 99,
                    data: vec![1, 2, 3, 255],
                },
            },
            Net::Consensus {
                scope: Scope::Global,
                msg: ConsensusMsg::Start { round: 5 },
            },
            Net::Consensus {
                scope: Scope::Replica(1),
                msg: ConsensusMsg::Contribute { round: 5, max: 42 },
            },
            Net::Consensus {
                scope: Scope::Global,
                msg: ConsensusMsg::Decide {
                    round: 5,
                    iteration: 40,
                },
            },
            Net::Consensus {
                scope: Scope::Global,
                msg: ConsensusMsg::ReadyUp { round: 5 },
            },
            Net::Consensus {
                scope: Scope::Replica(0),
                msg: ConsensusMsg::Go { round: 5 },
            },
            Net::Compare {
                iteration: 40,
                detection: Detection::Payload(Bytes::from_static(b"payload")),
            },
            Net::Compare {
                iteration: 40,
                detection: Detection::Digest(0xdead_beef),
            },
            Net::Compare {
                iteration: 40,
                detection: Detection::DigestTable {
                    digest: 0xfeed,
                    table: ChunkTable {
                        chunk_size: 64,
                        digests: vec![1, 2, 3],
                    },
                },
            },
            Net::Compare {
                iteration: 42,
                detection: Detection::Delta {
                    base_iteration: 40,
                    payload_len: 10,
                    digest: 0xabcd,
                    table: ChunkTable {
                        chunk_size: 4,
                        digests: vec![11, 22, 33],
                    },
                    dirty: vec![
                        (0, Bytes::from_static(b"abcd")),
                        (2, Bytes::from_static(b"xy")),
                    ],
                },
            },
            Net::Compare {
                iteration: 43,
                detection: Detection::Delta {
                    base_iteration: 41,
                    payload_len: 0,
                    digest: 0,
                    table: ChunkTable {
                        chunk_size: 4,
                        digests: vec![],
                    },
                    dirty: vec![],
                },
            },
            Net::CompareResult {
                iteration: 40,
                clean: true,
            },
            Net::CompareResult {
                iteration: 41,
                clean: false,
            },
            Net::Install {
                checkpoint: Checkpoint::new(9, Bytes::from_static(b"state"), 0xabc),
            },
            Net::Install {
                checkpoint: Checkpoint::with_chunks(
                    9,
                    Bytes::from_static(b"statestate"),
                    0xabc,
                    ChunkTable {
                        chunk_size: 4,
                        digests: vec![7, 8, 9],
                    },
                ),
            },
            Net::Heartbeat { from: 4 },
            Net::Ctrl(Ctrl::StartRound {
                scope: Scope::Global,
                round: 2,
            }),
            Net::Ctrl(Ctrl::AbortRound { floor: 3 }),
            Net::Ctrl(Ctrl::Rollback { floor: 4 }),
            Net::Ctrl(Ctrl::SendVerifiedTo { to: 6 }),
            Net::Ctrl(Ctrl::AssumeIdentity {
                replica: 1,
                rank: 3,
                buddy: 2,
                floor: 11,
            }),
            Net::Ctrl(Ctrl::BuddyChanged { buddy: 5 }),
            Net::Ctrl(Ctrl::RoundComplete),
            Net::Ctrl(Ctrl::Park),
            Net::Ctrl(Ctrl::Resume { floor: 12 }),
            Net::Ctrl(Ctrl::HardRestart { floor: 13 }),
            Net::Ctrl(Ctrl::InjectCrash),
            Net::Ctrl(Ctrl::InjectSdc { seed: 77, bits: 3 }),
            Net::Ctrl(Ctrl::ScheduleFault {
                at_iteration: 100,
                fault: NodeFault::Sdc { seed: 5, bits: 2 },
            }),
            Net::Ctrl(Ctrl::ScheduleFault {
                at_iteration: 101,
                fault: NodeFault::Crash,
            }),
            Net::Ctrl(Ctrl::MuteHeartbeats { secs: 0.125 }),
            Net::Ctrl(Ctrl::Ping { token: 31 }),
            Net::Ctrl(Ctrl::Shutdown),
            Net::Ctrl(Ctrl::LayoutChanged { dead: 3 }),
            Net::Ctrl(Ctrl::ReportVerified { round: 17 }),
            Net::Ctrl(Ctrl::Halt),
        ]
    }

    fn all_events() -> Vec<Event> {
        vec![
            Event::BuddyDead {
                reporter: 1,
                dead: 2,
            },
            Event::CheckpointDone {
                node: 0,
                round: 3,
                iteration: 40,
                verified: None,
            },
            Event::CheckpointDone {
                node: 0,
                round: 3,
                iteration: 40,
                verified: Some(false),
            },
            Event::CheckpointDone {
                node: 0,
                round: 3,
                iteration: 40,
                verified: Some(true),
            },
            Event::SdcDetected {
                node: 2,
                iteration: 40,
                diverged: vec![0..8, 64..72],
                payload_len: 128,
                fields_flagged: 1,
            },
            Event::FaultInjected {
                node: 1,
                at: 0.25,
                fault: NodeFault::Crash,
            },
            Event::FaultInjected {
                node: 1,
                at: 0.5,
                fault: NodeFault::Sdc { seed: 9, bits: 1 },
            },
            Event::RolledBack { node: 3 },
            Event::Installed { node: 4 },
            Event::AllTasksDone { node: 5 },
            Event::Pong { node: 6, token: 8 },
            Event::FinalState {
                node: 7,
                identity: Some((1, 3)),
                tasks: vec![Bytes::from_static(b"a"), Bytes::from_static(b"bb")],
            },
            Event::FinalState {
                node: 8,
                identity: None,
                tasks: vec![],
            },
            Event::TransportStale { node: 9 },
            Event::VerifiedState {
                node: 10,
                round: 4,
                iteration: 80,
                digest: 0xfeed,
                payload: Bytes::from_static(b"ckpt"),
            },
        ]
    }

    /// A message's body as it arrives: one contiguous buffer.
    fn net_body(msg: &Net) -> Bytes {
        Bytes::from(flatten(&encode_net(msg)))
    }

    /// Debug-format equality stands in for PartialEq (Net/Event carry types
    /// without Eq); the codec round-trip must preserve every field.
    #[test]
    fn net_codec_round_trips_every_variant() {
        for msg in all_nets() {
            let back = decode_net(&net_body(&msg)).expect("decodes");
            assert_eq!(format!("{msg:?}"), format!("{back:?}"));
        }
    }

    #[test]
    fn event_codec_round_trips_every_variant() {
        for ev in all_events() {
            let body = Bytes::from(flatten(&encode_event(&ev)));
            let back = decode_event(&body).expect("decodes");
            assert_eq!(format!("{ev:?}"), format!("{back:?}"));
        }
    }

    /// Shared byte strings of `SEGMENT_MIN` bytes or more leave as
    /// references to the caller's allocation and come back as slices of
    /// the received body; shorter ones are copied into the run around
    /// them. Either way the concatenation is the same record.
    #[test]
    fn large_byte_strings_are_shared_not_copied() {
        let inside = |outer: &Bytes, inner: &Bytes| {
            let (o, i) = (outer.as_ptr() as usize, inner.as_ptr() as usize);
            o <= i && i + inner.len() <= o + outer.len()
        };
        let big = Bytes::from(vec![0xA5u8; SEGMENT_MIN]);
        let small = Bytes::from(vec![0x5Au8; SEGMENT_MIN - 1]);

        let install = Net::Install {
            checkpoint: Checkpoint::new(9, big.clone(), 0xabc),
        };
        let segs = encode_net(&install);
        assert_eq!(segs.len(), 3, "run, payload, run");
        assert_eq!(segs[1].as_ptr(), big.as_ptr(), "the payload is not copied");
        assert_eq!(body_check(&segs), fletcher64(&flatten(&segs)));
        let body = net_body(&install);
        match decode_net(&body).expect("decodes") {
            Net::Install { checkpoint } => {
                assert_eq!(checkpoint.payload, big);
                assert!(inside(&body, &checkpoint.payload), "a slice of the body");
            }
            other => panic!("unexpected {other:?}"),
        }

        let compare = |payload: &Bytes| Net::Compare {
            iteration: 1,
            detection: Detection::Payload(payload.clone()),
        };
        assert_eq!(encode_net(&compare(&big)).len(), 2, "run, payload");
        assert_eq!(encode_net(&compare(&small)).len(), 1, "one run");

        let finals = Event::FinalState {
            node: 0,
            identity: Some((1, 0)),
            tasks: vec![big.clone(), small.clone(), big.clone()],
        };
        let segs = encode_event(&finals);
        assert_eq!(segs.len(), 4, "run, task, run (with the small task), task");
        assert_eq!(segs[3].as_ptr(), big.as_ptr());
        let body = Bytes::from(flatten(&segs));
        match decode_event(&body).expect("decodes") {
            Event::FinalState { tasks, .. } => {
                assert_eq!(tasks, vec![big.clone(), small, big]);
                assert!(tasks.iter().all(|t| inside(&body, t)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn frame_round_trips_through_incremental_decoder() {
        let bodies: Vec<Vec<u8>> = all_nets().iter().map(|m| flatten(&encode_net(m))).collect();
        let mut stream = Vec::new();
        for (i, body) in bodies.iter().enumerate() {
            stream.extend_from_slice(&encode_frame(i as u32, i as u64 + 1, body));
        }
        // Feed one byte at a time: the decoder must handle any split.
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        for b in &stream {
            dec.feed(std::slice::from_ref(b));
            while let Some(f) = dec.next_frame().expect("clean stream") {
                out.push(f);
            }
        }
        assert_eq!(out.len(), bodies.len());
        for (i, f) in out.iter().enumerate() {
            assert_eq!(f.to, i as u32);
            assert_eq!(f.seq, i as u64 + 1);
            assert_eq!(f.body, bodies[i]);
        }
    }

    #[test]
    fn decoder_rejects_garbage_prefix_and_corrupt_body() {
        let mut dec = FrameDecoder::new();
        dec.feed(b"GETS / HTTP/1.1\r\n\r\n__");
        assert!(matches!(dec.next_frame(), Err(WireError::BadMagic(_))));

        let mut frame = encode_frame(1, 1, b"hello world body");
        let flip = FRAME_HEADER + 3;
        frame[flip] ^= 0x40;
        let mut dec = FrameDecoder::new();
        dec.feed(&frame);
        assert!(matches!(dec.next_frame(), Err(WireError::Checksum { .. })));
    }

    fn sample_welcome() -> Welcome {
        Welcome {
            last_recv_seq: 456,
            cfg: WelcomeCfg {
                ranks: 4,
                tasks_per_rank: 1,
                spares: 2,
                total: 10,
                detection: DetectionMethod::ChunkedChecksum,
                chunk_size: 2048,
                heartbeat_period_ns: 5_000_000,
                heartbeat_timeout_ns: 40_000_000,
                delta_checkpoints: true,
            },
        }
    }

    #[test]
    fn hello_and_welcome_round_trip() {
        let h = Hello {
            job: 7,
            node: 5,
            last_recv_seq: 123,
            listen_port: 40_123,
        };
        let buf = encode_hello(&h);
        assert_eq!(buf.len(), HELLO_LEN);
        assert_eq!(decode_hello(&buf).unwrap(), h);

        let v4: SocketAddr = "127.0.0.1:7070".parse().unwrap();
        let v6: SocketAddr = "[fe80::1]:9".parse().unwrap();
        let book = vec![Some(v4), None, Some(v6)];
        let body = flatten(&encode_address_book(&book));
        assert_eq!(decode_address_book(&body), Ok(book));
        assert_eq!(
            decode_address_book(&body[..body.len() - 1]),
            Err(WireError::Truncated)
        );

        let w = sample_welcome();
        let buf = encode_welcome(&w);
        assert_eq!(buf.len(), WELCOME_LEN);
        assert_eq!(decode_welcome(&buf).unwrap(), w);
    }

    fn le32(b: &[u8], at: usize) -> u32 {
        u32::from_le_bytes(b[at..at + 4].try_into().unwrap())
    }
    fn le64(b: &[u8], at: usize) -> u64 {
        u64::from_le_bytes(b[at..at + 8].try_into().unwrap())
    }

    /// The v10 handshake records, the address book, the frame layout and
    /// the compare verdict, byte for byte: a peer written against this
    /// layout interoperates, and any reshuffle must bump [`WIRE_VERSION`].
    #[test]
    fn v10_handshake_and_frame_layouts_are_pinned() {
        assert_eq!(WIRE_VERSION, 10);
        assert_eq!((HELLO_LEN, WELCOME_LEN), (26, 58));
        assert_eq!((FRAME_HEADER, FRAME_TRAILER), (28, 8));
        assert_eq!((DRIVER_DEST, ENDPOINT_DEST), (u32::MAX, u32::MAX - 1));

        let h = encode_hello(&Hello {
            job: 7,
            node: 5,
            last_recv_seq: 123,
            listen_port: 0xBEEF,
        });
        assert_eq!(&h[0..4], b"ACRH");
        assert_eq!((le32(&h, 4), le32(&h, 8), le32(&h, 12)), (10, 7, 5));
        assert_eq!(le64(&h, 16), 123);
        assert_eq!(&h[24..26], &0xBEEFu16.to_le_bytes(), "listen port");

        // Count, then per node a v4-mapped IPv6 address and a port (0:
        // unknown).
        let book = flatten(&encode_address_book(&[
            Some("10.1.2.3:4660".parse().unwrap()),
            None,
        ]));
        assert_eq!((book.len(), le32(&book, 0)), (4 + 2 * 18, 2));
        assert_eq!(
            &book[4..20],
            &[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 255, 255, 10, 1, 2, 3]
        );
        assert_eq!(&book[20..22], &0x1234u16.to_le_bytes());
        assert_eq!(&book[22..40], &[0u8; 18]);

        let w = encode_welcome(&sample_welcome());
        assert_eq!(&w[0..4], b"ACRW");
        assert_eq!((le32(&w, 4), le64(&w, 8)), (10, 456));
        assert_eq!(
            (le32(&w, 16), le32(&w, 20), le32(&w, 24), le32(&w, 28)),
            (4, 1, 2, 10),
            "ranks, tasks_per_rank, spares, total"
        );
        assert_eq!(w[32], 2, "DetectionMethod::ChunkedChecksum tag");
        assert_eq!(
            (le64(&w, 33), le64(&w, 41), le64(&w, 49)),
            (2048, 5_000_000, 40_000_000),
            "chunk_size, heartbeat period, heartbeat timeout"
        );
        assert_eq!(w[57], 1, "delta on");

        // Tag, iteration, verdict.
        let v = flatten(&encode_net(&Net::CompareResult {
            iteration: 40,
            clean: true,
        }));
        assert_eq!((v.len(), v[0], le64(&v, 1), v[9]), (10, 3, 40, 1));

        // magic, len, to, seq, ack, body, check — and the segmented send
        // path's two ends are those same bytes.
        let p = encode_frame_acked(3, 9, 77, b"body");
        assert_eq!(p.len(), FRAME_HEADER + 4 + FRAME_TRAILER);
        assert_eq!(&p[0..4], b"ACRF");
        assert_eq!((le32(&p, 4), le32(&p, 8)), (4, 3), "len, to");
        assert_eq!((le64(&p, 12), le64(&p, 20)), (9, 77), "seq, ack");
        assert_eq!(&p[28..32], b"body");
        assert_eq!(le64(&p, 32), fletcher64(b"body"));
        let (header, trailer) = frame_ends(3, 9, 77, 4, fletcher64(b"body"));
        assert_eq!((&p[..28], &p[32..]), (&header[..], &trailer[..]));
        assert_eq!(encode_frame(3, 9, b"body")[20..28], [0u8; 8], "ack 0");

        // Several records are that layout repeated, nothing around it.
        let recs: Vec<(u32, u64, &[u8])> = vec![(1, 9, b"ab"), (2, 10, b"c")];
        let run = encode_batch(&recs, WireCodec::None).bytes;
        assert_eq!(
            run,
            [encode_frame(1, 9, b"ab"), encode_frame(2, 10, b"c")].concat()
        );
    }

    /// The acknowledgement survives every frame of a run, each with its own
    /// trailer, and the bodiless frame that carries nothing else.
    #[test]
    fn ack_round_trips_on_a_run_of_frames_and_a_bodiless_one() {
        let (header, trailer) = frame_ends(0, 0, 43, 0, body_check(&[]));
        let stream = [
            &encode_frame_acked(1, 5, 41, b"plain")[..],
            &encode_frame_acked(2, 6, 42, b"bb"),
            &encode_frame_acked(3, 7, 42, b"ccc"),
            &header,
            &trailer,
        ]
        .concat();
        let got: Vec<(u64, u64, usize, u64)> = decode_all(&stream)
            .iter()
            .map(|f| (f.seq, f.ack, f.body.len(), f.check))
            .collect();
        assert_eq!(
            got,
            vec![
                (5, 41, 5, fletcher64(b"plain")),
                (6, 42, 2, fletcher64(b"bb")),
                (7, 42, 3, fletcher64(b"ccc")),
                (0, 43, 0, fletcher64(b""))
            ]
        );
    }

    /// Older peers are refused, never misparsed: the version field is read
    /// before anything else, so a v9 peer (whose handshake is this one's
    /// layout, but whose verdicts carry one byte more), a v8–v5 hello (two
    /// bytes shorter, without the listen port) or welcome (v7's is four
    /// bytes longer, with the anchor interval) and a v4 hello (a codec-mask
    /// byte where v10 has the port) fail on it whatever their length.
    #[test]
    fn v9_to_v4_handshake_records_are_refused_with_a_version_error() {
        let hello = encode_hello(&Hello {
            job: 0,
            node: 1,
            last_recv_seq: 0,
            listen_port: 0,
        });
        let welcome = encode_welcome(&sample_welcome());
        for old in [9u32, 8, 7, 6, 5, 4] {
            let (mut h, mut w) = (hello.clone(), welcome.clone());
            h[4..8].copy_from_slice(&old.to_le_bytes());
            w[4..8].copy_from_slice(&old.to_le_bytes());
            assert_eq!(decode_hello(&h), Err(WireError::BadVersion(old)));
            assert_eq!(decode_welcome(&w), Err(WireError::BadVersion(old)));
        }
        let mut v8_hello = hello;
        v8_hello[4..8].copy_from_slice(&8u32.to_le_bytes());
        v8_hello.truncate(24);
        assert_eq!(decode_hello(&v8_hello), Err(WireError::BadVersion(8)));
        let mut v4_hello = v8_hello;
        v4_hello[4..8].copy_from_slice(&4u32.to_le_bytes());
        v4_hello.push(0b111);
        assert_eq!(v4_hello.len(), 25);
        assert_eq!(decode_hello(&v4_hello), Err(WireError::BadVersion(4)));
    }

    fn delta_compare(dirty: Vec<(u32, Bytes)>) -> Net {
        Net::Compare {
            iteration: 42,
            detection: Detection::Delta {
                base_iteration: 41,
                payload_len: 10,
                digest: 0xfeed_f00d,
                table: ChunkTable {
                    chunk_size: 4,
                    digests: vec![1, 2, 3],
                },
                dirty,
            },
        }
    }

    /// The transport classifies delta ship traffic by peeking at fixed
    /// offsets in the Compare body instead of running the full decoder;
    /// this test pins those offsets so a codec reshuffle cannot silently
    /// break the accounting.
    #[test]
    fn delta_compare_body_offsets_are_pinned() {
        let body = net_body(&delta_compare(vec![(1, Bytes::from_static(b"abcd"))]));
        assert_eq!(body[0], 2, "Net::Compare tag");
        assert_eq!(u64::from_le_bytes(body[1..9].try_into().unwrap()), 42);
        assert_eq!(body[9], 3, "Detection::Delta tag");
        assert_eq!(
            u64::from_le_bytes(body[10..18].try_into().unwrap()),
            41,
            "base_iteration"
        );
        assert_eq!(
            u64::from_le_bytes(body[18..26].try_into().unwrap()),
            10,
            "payload_len"
        );
        assert_eq!(
            u64::from_le_bytes(body[26..34].try_into().unwrap()),
            0xfeed_f00d,
            "digest"
        );
        assert_eq!(
            u32::from_le_bytes(body[34..38].try_into().unwrap()),
            1,
            "dirty count"
        );
    }

    /// [`ship_of`] reads the offsets pinned above: a delta compare states
    /// its payload length and dirty count, any other compare and an
    /// install are full ships, every other message is none.
    #[test]
    fn ship_of_classifies_by_the_pinned_offsets() {
        let kind = |ship: Option<Ship>| {
            ship.map(|s| match s {
                Ship::Full => None,
                Ship::Delta { payload_len, dirty } => Some((payload_len, dirty)),
            })
        };
        let mut msgs = all_nets();
        msgs.push(delta_compare(vec![(1, Bytes::from_static(b"abcd"))]));
        for msg in msgs {
            let want = match &msg {
                Net::Compare {
                    detection:
                        Detection::Delta {
                            payload_len, dirty, ..
                        },
                    ..
                } => Some(Some((*payload_len as u64, dirty.len() as u32))),
                Net::Compare { .. } | Net::Install { .. } => Some(None),
                _ => None,
            };
            assert_eq!(kind(ship_of(&encode_net(&msg))), want, "{msg:?}");
        }
    }

    /// Each enum's one tag table: every variant encodes to its index and
    /// back, and a byte past the table is refused; a flag is 0 or 1.
    #[test]
    fn tag_tables_and_flags_fail_closed() {
        fn check<T: Tagged + std::fmt::Debug>(all: &[T]) {
            for (i, &v) in all.iter().enumerate() {
                let mut b = Vec::new();
                put_tag(&mut b, v);
                assert_eq!(b, [i as u8]);
                assert_eq!(Reader::new(&b).tag::<T>(), Ok(v));
            }
            let past = all.len() as u8;
            let bad = WireError::BadTag {
                what: T::WHAT,
                tag: past,
            };
            assert_eq!(Reader::new(&[past]).tag::<T>(), Err(bad));
        }
        check(&Scheme::ALL);
        check(&[
            DetectionMethod::FullCompare,
            DetectionMethod::Checksum,
            DetectionMethod::ChunkedChecksum,
        ]);
        check(&[None, Some(false), Some(true)]);

        assert_eq!(Reader::new(&[1]).flag("f"), Ok(true));
        let mut w = encode_welcome(&sample_welcome());
        w[57] = 2;
        let bad = WireError::BadTag {
            what: "delta_checkpoints",
            tag: 2,
        };
        assert_eq!(decode_welcome(&w), Err(bad));
        let mut v = flatten(&encode_net(&Net::CompareResult {
            iteration: 40,
            clean: true,
        }));
        v[9] = 2;
        assert!(decode_net(&Bytes::from(v)).is_err());
    }

    #[test]
    fn malformed_delta_records_are_rejected() {
        let w4 = Bytes::from_static(b"abcd");
        let w2 = Bytes::from_static(b"xy");
        // Well-formed baselines decode.
        assert!(decode_net(&net_body(&delta_compare(vec![]))).is_ok());
        let two = delta_compare(vec![(0, w4.clone()), (2, w2.clone())]);
        assert!(decode_net(&net_body(&two)).is_ok());
        let bad = vec![
            // Out-of-bounds chunk index (3 chunks: 0..=2).
            delta_compare(vec![(3, w2.clone())]),
            // Non-increasing indices.
            delta_compare(vec![(1, w4.clone()), (1, w4.clone())]),
            delta_compare(vec![(2, w2.clone()), (0, w4.clone())]),
            // Window length disagrees with the chunk span (tail is 2 bytes).
            delta_compare(vec![(2, w4.clone())]),
            delta_compare(vec![(0, w2.clone())]),
        ];
        for msg in bad {
            assert!(
                decode_net(&net_body(&msg)).is_err(),
                "{msg:?} must be rejected"
            );
        }
        // Truncation anywhere in the record is rejected.
        let body = net_body(&two);
        for cut in 1..body.len() {
            assert!(decode_net(&body.slice(..cut)).is_err(), "cut at {cut}");
        }
    }

    fn decode_all(bytes: &[u8]) -> Vec<Frame> {
        let mut dec = FrameDecoder::new();
        dec.feed(bytes);
        let mut out = Vec::new();
        while let Some(f) = dec.next_frame().expect("clean stream") {
            out.push(f);
        }
        out
    }

    /// What a v6 peer batched with: the `"ACRS"` super-frame magic is not a
    /// frame, wherever in the stream it shows up, and the decoder stays
    /// down after it.
    #[test]
    fn a_super_frame_magic_is_bad_magic_and_poisons_the_decoder() {
        let acrs = u32::from_le_bytes(*b"ACRS");
        // A v6 super-frame header (magic, len, count, ack) over two records.
        let mut v6 = b"ACRS".to_vec();
        v6.extend_from_slice(&35u32.to_le_bytes());
        v6.extend_from_slice(&2u16.to_le_bytes());
        v6.extend_from_slice(&[0u8; 8 + 35 + 8]);
        for ahead in [vec![], encode_frame(1, 1, b"ahead")] {
            let mut dec = FrameDecoder::new();
            dec.feed(&ahead);
            dec.feed(&v6);
            if !ahead.is_empty() {
                assert_eq!(dec.next_frame().map(|f| f.map(|f| f.seq)), Ok(Some(1)));
            }
            assert_eq!(dec.next_frame(), Err(WireError::BadMagic(acrs)));
            dec.feed(&encode_frame(2, 2, b"behind"));
            assert_eq!(dec.next_frame(), Err(WireError::BadMagic(acrs)));
        }
    }
}
