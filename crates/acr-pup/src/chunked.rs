//! Fused pack+digest pipeline: chunked Fletcher-64 digesting that runs
//! *while* the checkpoint bytes are being packed, instead of as a second
//! pass over the finished buffer.
//!
//! The packed payload is divided into fixed-size chunks (default 64 KiB).
//! Each chunk gets its own Fletcher-64 digest, and the per-chunk states
//! merge — via [`Fletcher64::merge`] — into the exact whole-payload digest,
//! so the fused path produces byte-identical results to packing first and
//! calling [`crate::fletcher64`] afterwards, for half the memory traffic.
//!
//! The chunk table is what makes SDC divergence *localizable*: when buddy
//! replicas disagree, comparing two chunk tables names the diverged byte
//! ranges, and the expensive field-level [`crate::Checker`] walk can be
//! restricted to just those windows instead of the whole checkpoint.
//!
//! Two producers cooperate:
//!
//! * [`ChunkDigester`] — the splitting engine: feed it payload bytes at a
//!   known global offset and it emits per-chunk [`ChunkPiece`] states,
//!   which [`assemble_chunks`] merges into the table.
//! * [`DigestingPacker`] — a [`Puper`] that packs into a growable buffer
//!   and digests in the same pass (the runtime's checkpoint packer).

use crate::error::PupResult;
use crate::fletcher::Fletcher64;
use crate::puper::{Dir, Puper};

/// Default payload chunk size for per-chunk digests (64 KiB).
///
/// Must be a multiple of 4 so every chunk boundary is 32-bit-word aligned,
/// which is what makes per-chunk Fletcher states mergeable.
pub const DEFAULT_CHUNK_SIZE: usize = 64 * 1024;

/// The in-progress Fletcher state of one chunk's bytes (or a contiguous
/// piece of them, when a chunk spans two separately digested segments).
#[derive(Debug, Clone)]
pub struct ChunkPiece {
    /// Index of the chunk this piece belongs to (`offset / chunk_size`).
    pub chunk: usize,
    /// Fletcher state over just this piece's bytes.
    pub state: Fletcher64,
}

/// Splits a byte stream at chunk boundaries, producing one [`ChunkPiece`]
/// per chunk touched.
///
/// Constructed at a global payload offset so digesters over different
/// segments of the same payload agree on where chunks fall.
#[derive(Debug)]
pub struct ChunkDigester {
    chunk_size: usize,
    chunk: usize,
    filled: usize,
    piece: Fletcher64,
    pieces: Vec<ChunkPiece>,
}

impl ChunkDigester {
    /// A digester for bytes starting at `global_offset` within the payload.
    ///
    /// `chunk_size` must be a positive multiple of 4 (see
    /// [`DEFAULT_CHUNK_SIZE`]); `global_offset` must be a multiple of 4 so
    /// this segment's pieces stay mergeable with its predecessors'.
    pub fn new(chunk_size: usize, global_offset: usize) -> Self {
        assert!(
            chunk_size > 0 && chunk_size.is_multiple_of(4),
            "chunk_size must be a positive multiple of 4"
        );
        assert!(
            global_offset.is_multiple_of(4),
            "global_offset must be 4-byte aligned"
        );
        Self {
            chunk_size,
            chunk: global_offset / chunk_size,
            filled: global_offset % chunk_size,
            piece: Fletcher64::new(),
            pieces: Vec::new(),
        }
    }

    /// Feed the next run of payload bytes.
    pub fn feed(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let room = self.chunk_size - self.filled;
            let take = room.min(bytes.len());
            self.piece.update(&bytes[..take]);
            self.filled += take;
            bytes = &bytes[take..];
            if self.filled == self.chunk_size {
                let state = std::mem::take(&mut self.piece);
                self.pieces.push(ChunkPiece {
                    chunk: self.chunk,
                    state,
                });
                self.chunk += 1;
                self.filled = 0;
            }
        }
    }

    /// Feed the next run of payload bytes while copying them into `dst`
    /// (same length) in the same register pass — the fused pipeline's
    /// copy+digest kernel (see [`Fletcher64::update_copying`]), split at
    /// chunk boundaries exactly like [`ChunkDigester::feed`].
    pub fn feed_copy(&mut self, src: &[u8], dst: &mut [u8]) {
        assert_eq!(
            src.len(),
            dst.len(),
            "copy-digest source/destination length mismatch"
        );
        let mut off = 0;
        while off < src.len() {
            let room = self.chunk_size - self.filled;
            let take = room.min(src.len() - off);
            self.piece
                .update_copying(&src[off..off + take], &mut dst[off..off + take]);
            self.filled += take;
            off += take;
            if self.filled == self.chunk_size {
                let state = std::mem::take(&mut self.piece);
                self.pieces.push(ChunkPiece {
                    chunk: self.chunk,
                    state,
                });
                self.chunk += 1;
                self.filled = 0;
            }
        }
    }

    /// Flush the trailing partial chunk (if any) and return all pieces in
    /// payload order.
    pub fn finish(mut self) -> Vec<ChunkPiece> {
        if !self.piece.is_empty() {
            let state = std::mem::take(&mut self.piece);
            self.pieces.push(ChunkPiece {
                chunk: self.chunk,
                state,
            });
        }
        self.pieces
    }
}

/// A payload's complete chunked digest: the per-chunk table plus the
/// whole-payload digest they merge into.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkedDigest {
    /// Chunk size the table was computed with.
    pub chunk_size: usize,
    /// One Fletcher-64 digest per `chunk_size` run of payload bytes (the
    /// last chunk may be short).
    pub chunk_digests: Vec<u64>,
    /// Digest of the entire payload — identical to
    /// [`crate::fletcher64`] over the same bytes.
    pub digest: u64,
}

/// Merge an ordered sequence of [`ChunkPiece`]s — e.g. the concatenation of
/// every segment's [`ChunkDigester::finish`] output, in payload order —
/// into the chunk digest table and whole-payload digest.
///
/// Pieces of the same chunk must be adjacent and in offset order; chunk
/// indices must be contiguous from 0 (the natural result of segments
/// covering a payload left to right).
pub fn assemble_chunks(
    chunk_size: usize,
    pieces: impl IntoIterator<Item = ChunkPiece>,
) -> ChunkedDigest {
    let mut chunk_digests = Vec::new();
    let mut total = Fletcher64::new();
    let mut current: Option<(usize, Fletcher64)> = None;
    for piece in pieces {
        match &mut current {
            Some((idx, state)) if *idx == piece.chunk => state.merge(&piece.state),
            _ => {
                if let Some((idx, state)) = current.take() {
                    debug_assert_eq!(idx, chunk_digests.len(), "chunk indices must be contiguous");
                    chunk_digests.push(state.digest());
                    total.merge(&state);
                }
                current = Some((piece.chunk, piece.state));
            }
        }
    }
    if let Some((idx, state)) = current {
        debug_assert_eq!(idx, chunk_digests.len(), "chunk indices must be contiguous");
        chunk_digests.push(state.digest());
        total.merge(&state);
    }
    ChunkedDigest {
        chunk_size,
        chunk_digests,
        digest: total.digest(),
    }
}

/// Chunk digest table of an already-materialized buffer (the two-pass
/// reference the fused packers are verified against, and the recovery path
/// for payloads received without a table).
pub fn chunk_digests(bytes: &[u8], chunk_size: usize) -> ChunkedDigest {
    let mut d = ChunkDigester::new(chunk_size, 0);
    d.feed(bytes);
    assemble_chunks(chunk_size, d.finish())
}

/// Flight-recorder bookkeeping for one completed pack through the fused
/// pipeline: emits a `checkpoint_pack` event attributed to `node` carrying
/// the deterministic pack shape (bytes, chunk count, chunk size), and feeds
/// the wall-clock latency `wall_secs` into the `acr_pack_seconds` histogram
/// plus the pack volume counters.
///
/// The latency goes **only** into the metrics registry — never into the
/// event — so virtual-mode event logs stay byte-identical across runs.
pub fn record_pack(
    rec: &acr_obs::Recorder,
    node: u32,
    digest: &ChunkedDigest,
    payload_bytes: usize,
    wall_secs: f64,
) {
    if !rec.is_enabled() {
        return;
    }
    rec.emit(
        node,
        acr_obs::EventKind::CheckpointPack {
            bytes: payload_bytes as u64,
            chunks: digest.chunk_digests.len() as u32,
            chunk_size: digest.chunk_size as u32,
        },
    );
    rec.inc_counter("acr_pack_total", 1);
    rec.inc_counter("acr_pack_bytes_total", payload_bytes as u64);
    rec.inc_counter("acr_pack_chunks_total", digest.chunk_digests.len() as u64);
    rec.observe("acr_pack_seconds", wall_secs);
}

macro_rules! fused_pack_scalar {
    ($name:ident, $ty:ty) => {
        fn $name(&mut self, v: &mut $ty) -> PupResult {
            self.put(&v.to_le_bytes())
        }
    };
}

macro_rules! fused_pack_slice {
    ($name:ident, $ty:ty) => {
        fn $name(&mut self, v: &mut [$ty]) -> PupResult {
            if cfg!(target_endian = "little") {
                // SAFETY: numeric primitives have no padding or invalid bit
                // patterns; reinterpreting their storage as bytes is sound.
                let bytes = unsafe {
                    std::slice::from_raw_parts(v.as_ptr() as *const u8, std::mem::size_of_val(v))
                };
                self.put(bytes)
            } else {
                for x in v {
                    self.put(&x.to_le_bytes())?;
                }
                Ok(())
            }
        }
    };
}

macro_rules! fused_puper_impl {
    () => {
        fused_pack_scalar!(pup_u8, u8);
        fused_pack_scalar!(pup_u16, u16);
        fused_pack_scalar!(pup_u32, u32);
        fused_pack_scalar!(pup_u64, u64);
        fused_pack_scalar!(pup_i8, i8);
        fused_pack_scalar!(pup_i16, i16);
        fused_pack_scalar!(pup_i32, i32);
        fused_pack_scalar!(pup_i64, i64);
        fused_pack_scalar!(pup_f32, f32);
        fused_pack_scalar!(pup_f64, f64);

        fn pup_bool(&mut self, v: &mut bool) -> PupResult {
            self.put(&[*v as u8])
        }

        fn pup_usize(&mut self, v: &mut usize) -> PupResult {
            self.put(&(*v as u64).to_le_bytes())
        }

        fn pup_len(&mut self, live: usize) -> PupResult<usize> {
            self.put(&(live as u64).to_le_bytes())?;
            Ok(live)
        }

        fused_pack_slice!(pup_u8_slice, u8);
        fused_pack_slice!(pup_u16_slice, u16);
        fused_pack_slice!(pup_u32_slice, u32);
        fused_pack_slice!(pup_u64_slice, u64);
        fused_pack_slice!(pup_i32_slice, i32);
        fused_pack_slice!(pup_i64_slice, i64);
        fused_pack_slice!(pup_f32_slice, f32);
        fused_pack_slice!(pup_f64_slice, f64);
    };
}

/// A [`Puper`] that packs into a growable buffer and digests the bytes in
/// the same pass — the checkpoint pipeline's packer. Pair it with
/// [`crate::Sizer`] and [`DigestingPacker::with_capacity`] for one
/// exactly-sized allocation.
///
/// Equivalent to running [`crate::Packer`] and then [`crate::fletcher64`]
/// over the result, but the payload crosses the memory bus once instead of
/// twice: bytes are digested while still hot in cache from being written.
#[derive(Debug)]
pub struct DigestingPacker {
    buf: Vec<u8>,
    digester: ChunkDigester,
}

impl DigestingPacker {
    /// A fused packer with [`DEFAULT_CHUNK_SIZE`] chunks.
    pub fn new() -> Self {
        Self::with_chunk_size(DEFAULT_CHUNK_SIZE)
    }

    /// A fused packer with an explicit chunk size (multiple of 4).
    pub fn with_chunk_size(chunk_size: usize) -> Self {
        Self {
            buf: Vec::new(),
            digester: ChunkDigester::new(chunk_size, 0),
        }
    }

    /// Pre-reserve `cap` buffer bytes (pair with [`crate::Sizer`]).
    pub fn with_capacity(cap: usize, chunk_size: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap),
            digester: ChunkDigester::new(chunk_size, 0),
        }
    }

    /// Recycle a previous checkpoint's payload buffer: `buf` is cleared
    /// but its allocation is kept, so a steady-state checkpoint loop pays
    /// no allocator round-trip (or first-touch page faults) per epoch.
    pub fn reusing(mut buf: Vec<u8>, chunk_size: usize) -> Self {
        buf.clear();
        Self {
            buf,
            digester: ChunkDigester::new(chunk_size, 0),
        }
    }

    /// Finish: the packed payload and its chunked digest.
    pub fn finish(self) -> (Vec<u8>, ChunkedDigest) {
        let chunk_size = self.digester.chunk_size;
        (
            self.buf,
            assemble_chunks(chunk_size, self.digester.finish()),
        )
    }

    #[inline]
    fn put(&mut self, bytes: &[u8]) -> PupResult {
        // Copy and digest in one register pass: the payload crosses the
        // memory bus once in each direction instead of copy-then-re-read.
        self.buf.reserve(bytes.len());
        let len = self.buf.len();
        // SAFETY: `reserve` guarantees `bytes.len()` bytes of spare
        // capacity; `feed_copy` writes every one of them (it only writes,
        // never reads, its destination), after which `set_len` exposes
        // exactly the initialized prefix.
        unsafe {
            let spare = std::slice::from_raw_parts_mut(self.buf.as_mut_ptr().add(len), bytes.len());
            self.digester.feed_copy(bytes, spare);
            self.buf.set_len(len + bytes.len());
        }
        Ok(())
    }
}

impl Default for DigestingPacker {
    fn default() -> Self {
        Self::new()
    }
}

impl Puper for DigestingPacker {
    fn dir(&self) -> Dir {
        Dir::Packing
    }

    fn offset(&self) -> usize {
        self.buf.len()
    }

    fused_puper_impl!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fletcher::fletcher64;
    use crate::packer::Packer;
    use crate::puper::Pup;

    struct Grid {
        cells: Vec<f64>,
        step: u64,
        flag: bool,
    }

    impl Pup for Grid {
        fn pup(&mut self, p: &mut dyn Puper) -> PupResult {
            let n = p.pup_len(self.cells.len())?;
            self.cells.resize(n, 0.0);
            p.pup_f64_slice(&mut self.cells)?;
            p.pup_u64(&mut self.step)?;
            p.pup_bool(&mut self.flag)
        }
    }

    fn grid(n: usize) -> Grid {
        Grid {
            cells: (0..n).map(|i| i as f64 * 0.5 - 3.0).collect(),
            step: 7,
            flag: true,
        }
    }

    #[test]
    fn fused_matches_pack_then_digest() {
        // Payload large enough to span many chunks with a partial tail.
        let mut g = grid(40_000); // ~320 KB
        let mut packer = Packer::new();
        g.pup(&mut packer).unwrap();
        let reference = packer.finish();

        let mut fused = DigestingPacker::new();
        g.pup(&mut fused).unwrap();
        let (bytes, digest) = fused.finish();

        assert_eq!(bytes, reference);
        assert_eq!(digest.digest, fletcher64(&reference));
        assert_eq!(digest.chunk_size, DEFAULT_CHUNK_SIZE);
        let expect_chunks = reference.len().div_ceil(DEFAULT_CHUNK_SIZE);
        assert_eq!(digest.chunk_digests.len(), expect_chunks);
        assert_eq!(digest, chunk_digests(&reference, DEFAULT_CHUNK_SIZE));
    }

    #[test]
    fn per_chunk_digests_localize_a_flip() {
        let mut g = grid(40_000);
        let mut fused = DigestingPacker::new();
        g.pup(&mut fused).unwrap();
        let (mut bytes, clean) = fused.finish();

        let victim = 2 * DEFAULT_CHUNK_SIZE + 12_345;
        bytes[victim] ^= 0x10;
        let dirty = chunk_digests(&bytes, DEFAULT_CHUNK_SIZE);

        assert_ne!(dirty.digest, clean.digest);
        let diff: Vec<usize> = clean
            .chunk_digests
            .iter()
            .zip(&dirty.chunk_digests)
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(diff, vec![2], "exactly the chunk holding the flipped byte");
    }

    #[test]
    fn small_payload_has_single_chunk() {
        let mut g = grid(4);
        let mut fused = DigestingPacker::new();
        g.pup(&mut fused).unwrap();
        let (bytes, digest) = fused.finish();
        assert_eq!(digest.chunk_digests.len(), 1);
        assert_eq!(digest.chunk_digests[0], fletcher64(&bytes));
        assert_eq!(digest.digest, fletcher64(&bytes));
    }

    #[test]
    fn empty_payload_has_empty_table() {
        let d = chunk_digests(&[], DEFAULT_CHUNK_SIZE);
        assert!(d.chunk_digests.is_empty());
        assert_eq!(d.digest, fletcher64(&[]));
    }

    #[test]
    #[should_panic(expected = "multiple of 4")]
    fn unaligned_chunk_size_rejected() {
        ChunkDigester::new(10, 0);
    }

    #[test]
    fn record_pack_emits_event_and_metrics() {
        let rec = acr_obs::Recorder::new(Default::default(), 1, std::sync::Arc::new(|| 2.5));
        let d = chunk_digests(&[7u8; 100], 16);
        record_pack(&rec, 0, &d, 100, 0.002);
        let events = rec.drain();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].t, 2.5);
        assert!(matches!(
            events[0].kind,
            acr_obs::EventKind::CheckpointPack {
                bytes: 100,
                chunks: 7,
                chunk_size: 16
            }
        ));
        assert_eq!(rec.counter("acr_pack_bytes_total").get(), 100);
        assert_eq!(rec.histogram("acr_pack_seconds").count(), 1);
        // The wall-clock latency lives only in the histogram, never in the
        // serialized event.
        assert!(!events[0].to_json().contains("0.002"));
    }
}
