//! SDC detection strategies (§2.1 detection, §4.2 checksum optimization).
//!
//! Replica 1 sends its full checkpoint payload, its 8-byte Fletcher-64
//! digest, or its per-chunk digest table to the buddy in replica 2, which
//! compares against its own local checkpoint. The cost trade-off (§4.2):
//! the full transfer costs `β · n` network time, the checksum costs
//! `4γ · n` extra compute — the checksum wins iff `γ < β/4`. The chunked
//! table adds 8 bytes per 64 KiB chunk on the wire (~0.012% of the
//! payload) and in exchange localizes any divergence to chunk-sized byte
//! ranges instead of a single yes/no.

use crate::checkpoint::{Checkpoint, ChunkTable};
use std::ops::Range;

/// Chunk granularity used to localize a full-payload comparison when the
/// local checkpoint carries no chunk table.
const FALLBACK_COMPARE_CHUNK: usize = 64 * 1024;

/// Which §4.2 detection method the job runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DetectionMethod {
    /// Ship the full checkpoint to the buddy and compare payloads (enables
    /// tolerant, field-aware comparison via the PUP checker).
    FullCompare,
    /// Ship only the position-dependent Fletcher-64 digest (§4.2).
    Checksum,
    /// Ship the per-chunk digest table: barely more wire traffic than
    /// `Checksum`, but a mismatch names the diverged chunks.
    ChunkedChecksum,
}

impl DetectionMethod {
    /// Stable lowercase label, used in event logs and reports.
    pub fn name(self) -> &'static str {
        match self {
            DetectionMethod::FullCompare => "full-compare",
            DetectionMethod::Checksum => "checksum",
            DetectionMethod::ChunkedChecksum => "chunked-checksum",
        }
    }
}

/// What the buddy sends for comparison under a given method.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Detection {
    /// The full remote payload (FullCompare).
    Payload(bytes::Bytes),
    /// Only the digest (Checksum).
    Digest(u64),
    /// The whole-payload digest plus the per-chunk table (ChunkedChecksum).
    DigestTable {
        /// Whole-payload Fletcher-64 digest (fast equality path).
        digest: u64,
        /// Per-chunk digests for localization on mismatch.
        table: ChunkTable,
    },
    /// Incremental ship (FullCompare with delta checkpoints enabled): only
    /// the chunks that changed since `base_iteration` travel as bytes; the
    /// rest are covered by the full per-chunk digest table. The buddy keeps
    /// no copy of an earlier ship: it byte-compares each dirty window
    /// against the same span of its own checkpoint and every other chunk's
    /// digest against its own table, which names the same diverged ranges
    /// a full-payload compare does. The verdict is a function of the record
    /// and the buddy's checkpoint alone, whatever the buddy held before.
    Delta {
        /// Iteration of the base checkpoint the dirty windows apply to.
        base_iteration: u64,
        /// Full payload length after applying the delta.
        payload_len: usize,
        /// Whole-payload Fletcher-64 digest of the *reconstructed* payload.
        digest: u64,
        /// Complete per-chunk digest table of the reconstructed payload.
        table: ChunkTable,
        /// Dirty chunk windows `(chunk index, bytes)`, indices strictly
        /// increasing; each window spans its full chunk (the last chunk
        /// may be short).
        dirty: Vec<(u32, bytes::Bytes)>,
    },
}

impl Detection {
    /// Bytes this detection message puts on the wire — the quantity the
    /// Fig. 8 "checkpoint transfer" bars measure.
    pub fn wire_bytes(&self) -> usize {
        match self {
            Detection::Payload(p) => p.len(),
            Detection::Digest(_) => std::mem::size_of::<u64>(),
            Detection::DigestTable { table, .. } => std::mem::size_of::<u64>() + table.wire_bytes(),
            Detection::Delta { table, dirty, .. } => {
                // base_iteration + payload_len + digest + dirty count, the
                // full table, then each window's index + length + bytes.
                8 + 8
                    + std::mem::size_of::<u64>()
                    + 4
                    + table.wire_bytes()
                    + dirty.iter().map(|(_, b)| 4 + 8 + b.len()).sum::<usize>()
            }
        }
    }

    /// Payload bytes a delta record carries (0 for the other variants) —
    /// the numerator of the delta-savings ratio.
    pub fn delta_payload_bytes(&self) -> usize {
        match self {
            Detection::Delta { dirty, .. } => dirty.iter().map(|(_, b)| b.len()).sum(),
            _ => 0,
        }
    }
}

/// Outcome of a buddy comparison: which payload byte ranges diverged.
///
/// An empty range list means the replicas agree. How precisely a divergence
/// is localized depends on the method: `Checksum` can only name the whole
/// payload, `ChunkedChecksum` and `FullCompare` name chunk-granular ranges.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Divergence {
    /// Diverged payload byte ranges, sorted and coalesced.
    pub ranges: Vec<Range<usize>>,
}

impl Divergence {
    /// No divergence: the replicas agree.
    pub fn clean() -> Self {
        Self::default()
    }

    /// The whole payload is suspect (no localization available).
    pub fn whole(payload_len: usize) -> Self {
        #[allow(clippy::single_range_in_vec_init)] // one window spanning the whole payload
        Self {
            ranges: vec![0..payload_len],
        }
    }

    /// True when the replicas agree.
    pub fn is_clean(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Total bytes across all diverged ranges.
    pub fn diverged_bytes(&self) -> usize {
        self.ranges.iter().map(|r| r.end - r.start).sum()
    }
}

/// Stateless comparison engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SdcDetector {
    method: DetectionMethod,
}

impl SdcDetector {
    /// Detector using `method`.
    pub fn new(method: DetectionMethod) -> Self {
        Self { method }
    }

    /// The configured method.
    pub fn method(&self) -> DetectionMethod {
        self.method
    }

    /// Build the message a node sends to its buddy for its checkpoint.
    pub fn outgoing(&self, local: &Checkpoint) -> Detection {
        match self.method {
            DetectionMethod::FullCompare => Detection::Payload(local.payload.clone()),
            DetectionMethod::Checksum => Detection::Digest(local.digest),
            DetectionMethod::ChunkedChecksum => Detection::DigestTable {
                digest: local.digest,
                // A checkpoint taken outside the chunked pipeline has no
                // table; the empty table degrades the buddy's comparison
                // to whole-payload granularity rather than failing.
                table: local.chunks.clone().unwrap_or_default(),
            },
        }
    }

    /// Compare the buddy's message against the local checkpoint. A
    /// non-clean [`Divergence`] means **corruption detected**, with the
    /// diverged payload ranges localized as precisely as the method allows.
    ///
    /// A length mismatch under FullCompare is corruption too: a flipped bit
    /// in a length field changes the packed size.
    pub fn diverged(&self, local: &Checkpoint, remote: &Detection) -> Divergence {
        match remote {
            Detection::Payload(p) => {
                if local.payload.len() != p.len() {
                    return Divergence::whole(local.len().max(p.len()));
                }
                if local.payload == *p {
                    return Divergence::clean();
                }
                Divergence {
                    ranges: diff_ranges(&local.payload, p, self.compare_chunk(local)),
                }
            }
            Detection::Digest(d) => {
                if local.digest == *d {
                    Divergence::clean()
                } else {
                    Divergence::whole(local.len())
                }
            }
            Detection::DigestTable { digest, table } => {
                if local.digest == *digest {
                    return Divergence::clean();
                }
                match &local.chunks {
                    Some(mine) => {
                        let ranges = mine.diverged_ranges(table, local.len());
                        if ranges.is_empty() {
                            // Total digests disagree but every chunk digest
                            // matches — only reachable through a corrupted
                            // message; stay conservative.
                            Divergence::whole(local.len())
                        } else {
                            Divergence { ranges }
                        }
                    }
                    None => Divergence::whole(local.len()),
                }
            }
            Detection::Delta {
                payload_len,
                digest,
                table,
                dirty,
                ..
            } => delta_diverged(local, *payload_len, *digest, table, dirty).0,
        }
    }

    /// [`SdcDetector::outgoing`] plus flight-recorder bookkeeping: emits a
    /// `compare_ship` event attributed to `node` and counts the wire bytes.
    pub fn outgoing_recorded(
        &self,
        local: &Checkpoint,
        rec: &acr_obs::Recorder,
        node: u32,
        iteration: u64,
    ) -> Detection {
        let msg = self.outgoing(local);
        self.record_ship(&msg, rec, node, iteration);
        msg
    }

    /// Flight-recorder bookkeeping for a detection message assembled outside
    /// [`SdcDetector::outgoing`] (the incremental-delta path builds its
    /// own): emits the same `compare_ship` event and wire-byte counter.
    /// Delta records are labeled distinctly so reports can separate thin
    /// ships from full ones.
    pub fn record_ship(&self, msg: &Detection, rec: &acr_obs::Recorder, node: u32, iteration: u64) {
        let wire = msg.wire_bytes() as u64;
        let method = match msg {
            Detection::Delta { .. } => "full-compare-delta".to_string(),
            _ => self.method.name().to_string(),
        };
        rec.emit_with(node, || acr_obs::EventKind::CompareShip {
            iteration,
            wire_bytes: wire,
            method,
        });
        rec.inc_counter("acr_compare_wire_bytes_total", wire);
    }

    /// [`SdcDetector::diverged`] plus flight-recorder bookkeeping: emits a
    /// `compare_outcome` event with the divergence-window summary and bumps
    /// the clean/SDC counters. A delta verdict also counts the chunks it
    /// took from the record's digest table.
    pub fn diverged_recorded(
        &self,
        local: &Checkpoint,
        remote: &Detection,
        rec: &acr_obs::Recorder,
        node: u32,
        iteration: u64,
    ) -> Divergence {
        let (div, by_digest) = match remote {
            Detection::Delta {
                payload_len,
                digest,
                table,
                dirty,
                ..
            } => delta_diverged(local, *payload_len, *digest, table, dirty),
            _ => (self.diverged(local, remote), 0),
        };
        if by_digest > 0 {
            rec.inc_counter("acr_delta_compare_skipped_total", by_digest);
        }
        self.record_outcome(&div, rec, node, iteration);
        div
    }

    /// Shared flight-recorder bookkeeping for a comparison outcome.
    fn record_outcome(&self, div: &Divergence, rec: &acr_obs::Recorder, node: u32, iteration: u64) {
        let (clean, bytes, windows) = (
            div.is_clean(),
            div.diverged_bytes() as u64,
            div.ranges.len() as u32,
        );
        rec.emit_with(node, || acr_obs::EventKind::CompareOutcome {
            iteration,
            clean,
            diverged_bytes: bytes,
            windows,
        });
        let counter = if clean {
            "acr_compare_clean_total"
        } else {
            "acr_compare_sdc_total"
        };
        rec.inc_counter(counter, 1);
    }

    fn compare_chunk(&self, local: &Checkpoint) -> usize {
        local
            .chunks
            .as_ref()
            .map(|t| t.chunk_size as usize)
            .filter(|&c| c > 0)
            .unwrap_or(FALLBACK_COMPARE_CHUNK)
    }
}

/// The verdict on a [`Detection::Delta`] record, and how many chunks it
/// judged by digest alone.
///
/// Each dirty window is byte-compared against the same span of `local`;
/// every other chunk's digest in the record's table is compared against
/// `local`'s own (§4.2: the digest stands in for the bytes). A clean
/// chunk's digest on the sender is unchanged since the base both buddies
/// verified, so a flip on the buddy escapes only by a Fletcher-64
/// collision with it. A length change is
/// whole-payload corruption; a local checkpoint without a table of the
/// record's geometry falls back to the whole-payload digest.
fn delta_diverged(
    local: &Checkpoint,
    payload_len: usize,
    digest: u64,
    table: &ChunkTable,
    dirty: &[(u32, bytes::Bytes)],
) -> (Divergence, u64) {
    if local.len() != payload_len {
        return (Divergence::whole(local.len().max(payload_len)), 0);
    }
    let Some(mine) = local.chunks.as_ref().filter(|mine| {
        mine.chunk_size == table.chunk_size
            && mine.chunk_size > 0
            && mine.digests.len() == table.digests.len()
            && mine.digests.len() == payload_len.div_ceil(mine.chunk_size as usize)
    }) else {
        // No chunk-for-chunk correspondence: judge by the whole digest.
        let div = if local.digest == digest {
            Divergence::clean()
        } else {
            Divergence::whole(local.len())
        };
        return (div, 0);
    };
    let chunk = mine.chunk_size as usize;
    let mut windows = dirty.iter().peekable();
    let mut ranges: Vec<Range<usize>> = Vec::new();
    let mut by_digest = 0;
    for (i, (own, theirs)) in mine.digests.iter().zip(&table.digests).enumerate() {
        let span = i * chunk..((i + 1) * chunk).min(local.len());
        let same = match windows.next_if(|(index, _)| *index as usize == i) {
            Some((_, window)) => local.payload.get(span.clone()) == Some(&window[..]),
            None => {
                by_digest += 1;
                own == theirs
            }
        };
        if !same {
            match ranges.last_mut() {
                Some(last) if last.end == span.start => last.end = span.end,
                _ => ranges.push(span),
            }
        }
    }
    if windows.next().is_some() || (ranges.is_empty() && local.digest != digest) {
        // A window out of range or out of order, or every chunk agreeing
        // while the whole digests do not — only reachable through a
        // corrupted message; stay conservative.
        return (Divergence::whole(local.len()), by_digest);
    }
    (Divergence { ranges }, by_digest)
}

/// Chunk-granular diff of two equal-length buffers, coalesced.
fn diff_ranges(a: &[u8], b: &[u8], chunk: usize) -> Vec<Range<usize>> {
    debug_assert_eq!(a.len(), b.len());
    let mut ranges: Vec<Range<usize>> = Vec::new();
    let mut start = 0;
    while start < a.len() {
        let end = (start + chunk).min(a.len());
        if a[start..end] != b[start..end] {
            match ranges.last_mut() {
                Some(last) if last.end == start => last.end = end,
                _ => ranges.push(start..end),
            }
        }
        start = end;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn ckpt(data: &[u8]) -> Checkpoint {
        // Digest stands in for the real Fletcher-64 the runtime computes.
        let digest = data
            .iter()
            .fold(0u64, |a, &b| a.wrapping_mul(131).wrapping_add(b as u64));
        Checkpoint::new(1, Bytes::copy_from_slice(data), digest)
    }

    /// A checkpoint with a 16-byte-chunk table (digests via the same
    /// stand-in hash, per chunk).
    fn chunked_ckpt(data: &[u8]) -> Checkpoint {
        let digests = data
            .chunks(16)
            .map(|c| {
                c.iter()
                    .fold(0u64, |a, &b| a.wrapping_mul(131).wrapping_add(b as u64))
            })
            .collect();
        let digest = data
            .iter()
            .fold(0u64, |a, &b| a.wrapping_mul(131).wrapping_add(b as u64));
        Checkpoint::with_chunks(
            1,
            Bytes::copy_from_slice(data),
            digest,
            ChunkTable {
                chunk_size: 16,
                digests,
            },
        )
    }

    #[test]
    fn full_compare_detects_and_passes() {
        let d = SdcDetector::new(DetectionMethod::FullCompare);
        let a = ckpt(b"identical state");
        let msg = d.outgoing(&a);
        assert!(d.diverged(&a, &msg).is_clean());
        let b = ckpt(b"identicaX state");
        assert!(!d.diverged(&b, &msg).is_clean());
        assert_eq!(msg.wire_bytes(), 15);
    }

    #[test]
    fn checksum_detects_and_is_cheap_on_the_wire() {
        let d = SdcDetector::new(DetectionMethod::Checksum);
        let a = ckpt(b"some big checkpoint payload .......");
        let msg = d.outgoing(&a);
        assert_eq!(msg.wire_bytes(), 8, "only the digest travels");
        assert!(d.diverged(&a, &msg).is_clean());
        let b = ckpt(b"some big checkpoint payload ......X");
        let div = d.diverged(&b, &msg);
        assert!(!div.is_clean());
        assert_eq!(div.ranges, vec![0..35], "checksum cannot localize");
    }

    #[test]
    fn length_divergence_is_detected() {
        let d = SdcDetector::new(DetectionMethod::FullCompare);
        let a = ckpt(b"abc");
        let b = ckpt(b"abcd");
        let div = d.diverged(&b, &d.outgoing(&a));
        assert!(!div.is_clean());
        assert_eq!(div.ranges, vec![0..4]);
    }

    #[test]
    fn full_compare_localizes_with_local_chunk_table() {
        let mut data = vec![0u8; 100];
        for (i, x) in data.iter_mut().enumerate() {
            *x = i as u8;
        }
        let d = SdcDetector::new(DetectionMethod::FullCompare);
        let clean = chunked_ckpt(&data);
        let msg = d.outgoing(&clean);
        // Flip one byte in chunk 3 (bytes 48..64).
        data[50] ^= 0xFF;
        let dirty = chunked_ckpt(&data);
        let div = d.diverged(&dirty, &msg);
        assert_eq!(div.ranges, vec![48..64]);
        assert_eq!(div.diverged_bytes(), 16);
    }

    #[test]
    fn chunked_checksum_localizes_on_the_wire() {
        let mut data = vec![7u8; 100];
        let d = SdcDetector::new(DetectionMethod::ChunkedChecksum);
        let clean = chunked_ckpt(&data);
        let msg = d.outgoing(&clean);
        // Wire: 8 (digest) + 12 (table header) + 8 * ceil(100/16 = 7 chunks).
        assert_eq!(msg.wire_bytes(), 8 + 12 + 8 * 7);

        assert!(d.diverged(&clean, &msg).is_clean());

        // Corrupt chunks 1 and 2 (adjacent: coalesce) and the short tail
        // chunk 6 (bytes 96..100).
        data[20] = 0;
        data[40] = 0;
        data[99] = 0;
        let dirty = chunked_ckpt(&data);
        let div = d.diverged(&dirty, &msg);
        assert_eq!(div.ranges, vec![16..48, 96..100]);
    }

    #[test]
    fn chunked_checksum_without_local_table_degrades_to_whole() {
        let d = SdcDetector::new(DetectionMethod::ChunkedChecksum);
        let plain = ckpt(b"0123456789abcdef0123456789abcdef0123");
        let msg = d.outgoing(&plain);
        assert!(matches!(&msg, Detection::DigestTable { table, .. } if table.is_empty()));
        let mut corrupted = plain.clone();
        corrupted.digest ^= 1;
        let div = d.diverged(&corrupted, &msg);
        assert_eq!(div.ranges, vec![0..36]);
    }

    #[test]
    fn digest_table_wire_bytes_scale_with_chunk_count() {
        for n_chunks in [1usize, 4, 64, 1024] {
            let msg = Detection::DigestTable {
                digest: 1,
                table: ChunkTable {
                    chunk_size: 65_536,
                    digests: vec![0; n_chunks],
                },
            };
            assert_eq!(msg.wire_bytes(), 8 + 12 + 8 * n_chunks);
        }
    }

    /// A delta record's detection payload for `data` against itself-with-
    /// edits, dirty windows included.
    fn delta_msg(data: &[u8], dirty: Vec<(u32, &[u8])>) -> Detection {
        let c = chunked_ckpt(data);
        Detection::Delta {
            base_iteration: 1,
            payload_len: data.len(),
            digest: c.digest,
            table: c.chunks.clone().unwrap(),
            dirty: dirty
                .into_iter()
                .map(|(i, b)| (i, Bytes::copy_from_slice(b)))
                .collect(),
        }
    }

    #[test]
    fn delta_compares_dirty_windows_by_bytes_and_clean_chunks_by_digest() {
        let d = SdcDetector::new(DetectionMethod::FullCompare);
        // The sender rewrote chunk 0 since the base; 7 chunks of 16 bytes.
        let mut sender = vec![3u8; 100];
        sender[..16].fill(9);
        let msg = delta_msg(&sender, vec![(0, &sender[..16])]);
        assert!(d.diverged(&chunked_ckpt(&sender), &msg).is_clean());

        // A flip in a clean chunk is caught by the record's digest table.
        let mut buddy = sender.clone();
        buddy[40] ^= 0xFF;
        assert_eq!(d.diverged(&chunked_ckpt(&buddy), &msg).ranges, vec![32..48]);

        // A flip inside the dirty window is caught by its bytes, even where
        // the record's digest for that chunk would have let it through.
        let mut buddy = sender.clone();
        buddy[5] ^= 0x01;
        let mut lying = msg.clone();
        if let Detection::Delta { table, .. } = &mut lying {
            table.digests[0] = chunked_ckpt(&buddy).chunks.unwrap().digests[0];
        }
        assert_eq!(
            d.diverged(&chunked_ckpt(&buddy), &lying).ranges,
            vec![0..16]
        );

        // Diverged dirty and clean chunks coalesce as a byte compare does.
        buddy[20] ^= 0x01;
        let local = chunked_ckpt(&buddy);
        let by_delta = d.diverged(&local, &msg);
        assert_eq!(by_delta.ranges, vec![0..32]);
        let full = Detection::Payload(Bytes::from(sender));
        assert_eq!(by_delta, d.diverged(&local, &full));
    }

    #[test]
    fn delta_wire_bytes_count_windows_table_and_header() {
        let data = vec![5u8; 100]; // 7 chunks of 16
        let msg = delta_msg(&data, vec![(1, &[0u8; 16]), (6, &[0u8; 4])]);
        let header = 8 + 8 + 8 + 4;
        let table = 12 + 8 * 7;
        let windows = (4 + 8 + 16) + (4 + 8 + 4);
        assert_eq!(msg.wire_bytes(), header + table + windows);
        assert_eq!(msg.delta_payload_bytes(), 20);
        assert_eq!(delta_msg(&data, vec![]).delta_payload_bytes(), 0);
        assert_eq!(Detection::Digest(1).delta_payload_bytes(), 0);
    }
}
