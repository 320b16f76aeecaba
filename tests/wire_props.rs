//! Property tests for the TCP transport's frame layer
//! (`acr::runtime::wire`): any sequence of frames survives the stream —
//! whole, byte by byte, or in arbitrary short reads — and the decoder
//! rejects garbage prefixes and corrupted bodies instead of
//! desynchronizing. The flush section covers what one write of several
//! frames puts on a socket: however a frame list is split into flushes, the
//! receiver sees the same frames in the same order, each with its own
//! trailer; a truncated run is incomplete, not an error; a corrupt byte
//! anywhere poisons the stream. The v6 section covers what wire version 6
//! added: the acknowledgement in the header, the streamed checksum over
//! body segments, and `read_from` — whose own-allocation path for large
//! frames must yield exactly what `feed` does, whatever the reads.

use acr::protocol::{Checkpoint, ChunkTable, Detection, DetectionMethod, SdcDetector};
use acr::pup::{chunk_digests, chunk_span, diff_tables, extract_delta};
use acr::runtime::wire::{
    body_check, decode_compare_body, encode_batch, encode_compare_body, encode_frame,
    encode_frame_acked, Frame, FrameDecoder, WireCodec, WireError, FRAME_HEADER, FRAME_MAGIC,
    FRAME_TRAILER,
};
use bytes::Bytes;
use proptest::prelude::*;

/// A frame as `encode_frame` of it decodes: acknowledging nothing, its
/// trailer kept.
fn frame_strategy() -> impl Strategy<Value = Frame> {
    (
        prop::collection::vec(any::<u8>(), 0..200),
        any::<u32>(),
        any::<u64>(),
    )
        .prop_map(|(body, to, seq)| Frame {
            to,
            seq,
            ack: 0,
            check: acr::pup::fletcher64(&body),
            body: Bytes::from(body),
        })
}

/// Split `stream` into chunks whose sizes cycle through `cuts` (1-based so
/// a chunk is never empty), modelling arbitrary partial reads.
fn feed_chunked(dec: &mut FrameDecoder, stream: &[u8], cuts: &[usize]) -> Vec<Frame> {
    let mut out = Vec::new();
    let mut pos = 0;
    let mut i = 0;
    while pos < stream.len() {
        let take = if cuts.is_empty() {
            stream.len()
        } else {
            1 + cuts[i % cuts.len()] % 97
        };
        let end = (pos + take).min(stream.len());
        dec.feed(&stream[pos..end]);
        pos = end;
        i += 1;
        while let Some(f) = dec.next_frame().expect("clean stream must decode") {
            out.push(f);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Whatever the read sizes, the decoder yields exactly the encoded
    /// frames, in order, and ends wanting more — never mid-frame garbage.
    #[test]
    fn frames_roundtrip_under_arbitrary_chunking(
        frames in prop::collection::vec(frame_strategy(), 1..8),
        cuts in prop::collection::vec(0usize..97, 0..12),
    ) {
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&encode_frame(f.to, f.seq, &f.body));
        }
        let mut dec = FrameDecoder::new();
        let decoded = feed_chunked(&mut dec, &stream, &cuts);
        prop_assert_eq!(decoded, frames);
        prop_assert_eq!(dec.next_frame(), Ok(None));
    }

    /// A truncated tail is an incomplete frame, not an error: the decoder
    /// reports `Ok(None)` and waits for the rest.
    #[test]
    fn truncated_frame_is_incomplete_not_an_error(
        frame in frame_strategy(),
        cut_seed in any::<u64>(),
    ) {
        let encoded = encode_frame(frame.to, frame.seq, &frame.body);
        // Keep 1..len-1 bytes — always missing at least the last byte.
        let keep = 1 + (cut_seed as usize) % (encoded.len() - 1);
        let mut dec = FrameDecoder::new();
        dec.feed(&encoded[..keep]);
        prop_assert_eq!(dec.next_frame(), Ok(None));
        // Feeding the remainder completes the frame.
        dec.feed(&encoded[keep..]);
        prop_assert_eq!(dec.next_frame(), Ok(Some(frame)));
    }

    /// A stream that does not open with the frame magic is rejected on the
    /// first complete header — the connection must drop, not resync.
    #[test]
    fn garbage_prefix_is_rejected(
        mut junk in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut prefix = Vec::new();
        // Any first-4-bytes that are not the magic.
        let bad = FRAME_MAGIC.wrapping_add(1 + (junk.len() as u32));
        prefix.extend_from_slice(&bad.to_le_bytes());
        prefix.append(&mut junk);
        // Pad so at least one full header is buffered.
        prefix.resize(prefix.len().max(FRAME_HEADER), 0);
        let mut dec = FrameDecoder::new();
        dec.feed(&prefix);
        prop_assert!(dec.next_frame().is_err(), "garbage prefix accepted");
    }

    /// Any single corrupted body byte trips the Fletcher-64 trailer.
    #[test]
    fn corrupted_body_byte_fails_checksum(
        frame in frame_strategy(),
        pick in any::<u64>(),
    ) {
        prop_assume!(!frame.body.is_empty());
        let mut encoded = encode_frame(frame.to, frame.seq, &frame.body);
        let body_at = FRAME_HEADER + (pick as usize) % frame.body.len();
        let flip = 1u8 << (pick % 8);
        encoded[body_at] ^= flip;
        // A flip that Fletcher-64 cannot see does not exist for single
        // bytes, but guard against the degenerate 0 xor anyway.
        prop_assume!(flip != 0);
        let mut dec = FrameDecoder::new();
        dec.feed(&encoded);
        prop_assert!(
            dec.next_frame().is_err(),
            "corrupted body decoded cleanly"
        );
    }

    /// Corrupting the length field can never make the decoder read past a
    /// sane bound: it either errors (magic/size/checksum) or waits for
    /// bytes that will never come — it does not fabricate a frame.
    #[test]
    fn corrupted_header_never_yields_a_frame(
        frame in frame_strategy(),
        byte in 0usize..FRAME_HEADER,
        flip in 1u8..255,
    ) {
        let mut encoded = encode_frame(frame.to, frame.seq, &frame.body);
        encoded[byte] ^= flip;
        let mut dec = FrameDecoder::new();
        dec.feed(&encoded);
        match dec.next_frame() {
            Err(_) => {}
            Ok(None) => {} // longer length field: waits for more bytes
            Ok(Some(got)) => {
                // The flip landed in `to` or `seq`: payload integrity is
                // still intact, only addressing changed (the trailer does
                // not cover the header by design — seq is rewritten per
                // link on replay).
                prop_assert_eq!(got.body, frame.body);
                let total = FRAME_HEADER + frame.body.len() + FRAME_TRAILER;
                prop_assert_eq!(encoded.len(), total);
            }
        }
    }
}

// --------------------------------------------------------------------------
// Flushes: several frames in one write
// --------------------------------------------------------------------------

fn as_records(frames: &[Frame]) -> Vec<(u32, u64, &[u8])> {
    frames.iter().map(|f| (f.to, f.seq, &f.body[..])).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Split/merge round-trip: however the sender partitions a frame list
    /// into flushes, the stream is the same bytes, and the receiver
    /// reassembles the exact frame sequence — every frame with its own
    /// trailer — from arbitrary partial reads.
    #[test]
    fn flushes_roundtrip_whatever_the_split(
        frames in prop::collection::vec(frame_strategy(), 1..20),
        splits in prop::collection::vec(1usize..6, 0..10),
        cuts in prop::collection::vec(0usize..97, 0..12),
    ) {
        let mut stream = Vec::new();
        let (mut i, mut s) = (0, 0);
        while i < frames.len() {
            let take = if splits.is_empty() {
                frames.len()
            } else {
                splits[s % splits.len()]
            }
            .min(frames.len() - i);
            let flush = encode_batch(&as_records(&frames[i..i + take]), WireCodec::None);
            stream.extend_from_slice(&flush.bytes);
            i += take;
            s += 1;
        }
        prop_assert_eq!(&stream, &encode_batch(&as_records(&frames), WireCodec::None).bytes);
        let mut dec = FrameDecoder::new();
        let decoded = feed_chunked(&mut dec, &stream, &cuts);
        prop_assert_eq!(decoded, frames);
        prop_assert_eq!(dec.next_frame(), Ok(None));
    }

    /// A flush cut anywhere is an incomplete read, not an error: some of
    /// its leading frames decode, then the decoder waits, and the remainder
    /// completes the rest.
    #[test]
    fn truncated_flush_is_incomplete_not_an_error(
        frames in prop::collection::vec(frame_strategy(), 2..6),
        cut_seed in any::<u64>(),
    ) {
        let flush = encode_batch(&as_records(&frames), WireCodec::None).bytes;
        let keep = 1 + (cut_seed as usize) % (flush.len() - 1);
        let mut dec = FrameDecoder::new();
        dec.feed(&flush[..keep]);
        let mut out = Vec::new();
        while let Some(f) = dec.next_frame().expect("a cut flush is not an error") {
            out.push(f);
        }
        prop_assert!(out.len() < frames.len(), "the last byte is still missing");
        dec.feed(&flush[keep..]);
        while let Some(f) = dec.next_frame().expect("completed flush must decode") {
            out.push(f);
        }
        prop_assert_eq!(out, frames);
    }

    /// Any corrupted body or trailer byte of any frame in a flush trips
    /// that frame's Fletcher-64: the frames ahead of it decode, nothing at
    /// or behind it does, and the poisoned decoder stays down.
    #[test]
    fn corrupted_flush_payload_fails_checksum(
        frames in prop::collection::vec(frame_strategy(), 2..6),
        pick in any::<u64>(),
    ) {
        let mut bytes = encode_batch(&as_records(&frames), WireCodec::None).bytes;
        // Some byte under some frame's checksum (body or trailer).
        let wire_len = |f: &Frame| FRAME_HEADER + f.body.len() + FRAME_TRAILER;
        let victim = (pick as usize) % frames.len();
        let at = frames[..victim].iter().map(wire_len).sum::<usize>() + FRAME_HEADER;
        let nth = (pick >> 8) as usize % (wire_len(&frames[victim]) - FRAME_HEADER);
        bytes[at + nth] ^= 1 << (pick % 8);
        let mut dec = FrameDecoder::new();
        dec.feed(&bytes);
        for f in &frames[..victim] {
            prop_assert_eq!(dec.next_frame(), Ok(Some(f.clone())));
        }
        prop_assert!(
            matches!(dec.next_frame(), Err(WireError::Checksum { .. })),
            "corrupted frame decoded"
        );
        prop_assert!(dec.next_frame().is_err(), "decoder resynced after poison");
    }
}

// --------------------------------------------------------------------------
// Wire version 6: acknowledgements, segmented bodies, `read_from`
// --------------------------------------------------------------------------

/// A reader that hands out `stream` in reads whose sizes cycle through
/// `cuts` (never more than the caller's buffer takes), and — like a
/// nonblocking socket the sender has not caught up with — says it would
/// block on every `stall`-th call (never when `stall` is 0).
struct ChunkedReader<'a> {
    stream: &'a [u8],
    cuts: &'a [usize],
    reads: usize,
    stall: usize,
}

impl std::io::Read for ChunkedReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.reads += 1;
        if self.stall > 0 && self.reads.is_multiple_of(self.stall) && !self.stream.is_empty() {
            return Err(std::io::ErrorKind::WouldBlock.into());
        }
        let cut = self.cuts[self.reads % self.cuts.len()].max(1);
        let k = cut.min(buf.len()).min(self.stream.len());
        buf[..k].copy_from_slice(&self.stream[..k]);
        self.stream = &self.stream[k..];
        Ok(k)
    }
}

/// Drain `stream` through `read_from` with the given read sizes and
/// stalls, pulling frames into `out` after every read as the transport
/// loops do (a read that would block is tried again); stops at the first
/// error, and a decoder that erred must stay down.
fn read_all(
    stream: &[u8],
    (cuts, stall): (&[usize], usize),
    scratch: usize,
    out: &mut Vec<Frame>,
) -> Result<(), WireError> {
    let mut r = ChunkedReader {
        stream,
        cuts,
        reads: 0,
        stall,
    };
    let mut dec = FrameDecoder::new();
    let mut scratch = vec![0u8; scratch];
    loop {
        match dec.read_from(&mut r, &mut scratch) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => continue,
            Err(e) => panic!("reads cannot fail: {e}"),
        }
        loop {
            match dec.next_frame() {
                Ok(Some(f)) => out.push(f),
                Ok(None) => break,
                Err(e) => {
                    assert!(dec.next_frame().is_err(), "decoder resynced after poison");
                    return Err(e);
                }
            }
        }
    }
    assert_eq!(
        dec.next_frame(),
        Ok(None),
        "the stream ended between frames"
    );
    Ok(())
}

/// Bodies on both sides of the 64 KiB own-allocation threshold, up to
/// 512 KiB: mostly small, a few large, content a cheap function of a seed.
fn mixed_bodies() -> impl Strategy<Value = Vec<Vec<u8>>> {
    let body = (0usize..8, 0usize..(64 << 10), any::<u8>()).prop_map(|(class, n, seed)| {
        let len = match class {
            0 => (64 << 10) + n * 7,      // 64 KiB ..= 512 KiB: own allocation
            1 => (64 << 10) - 1 - n % 64, // just under the threshold
            2 => 0,
            _ => n % 300,
        };
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31) ^ seed)
            .collect()
    });
    prop::collection::vec(body, 1..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `read_from` ≡ `feed`: for bodies of 0–512 KiB — large frames taking
    /// the own-allocation path (read into reserved, never-zeroed capacity
    /// and checksummed read by read), small ones the copy-out path, in any
    /// order, a large frame followed by small ones in the same read
    /// included — every split of the stream into reads, with reads that
    /// would block between them, yields the frames one `feed` of the whole
    /// stream does.
    #[test]
    fn read_from_yields_what_feed_does_whatever_the_reads(
        bodies in mixed_bodies(),
        cuts in prop::collection::vec(1usize..(96 << 10), 1..8),
        scratch in (1usize..(80 << 10)),
        stall in 0usize..4,
        ack in any::<u64>(),
    ) {
        let mut stream = Vec::new();
        for (j, body) in bodies.iter().enumerate() {
            stream.extend_from_slice(&encode_frame_acked(j as u32, j as u64 + 1, ack, body));
        }
        // No stall, or one on every second to fourth read.
        let stall = if stall == 0 { 0 } else { stall + 1 };
        let mut dec = FrameDecoder::new();
        let fed = feed_chunked(&mut dec, &stream, &[]);
        prop_assert_eq!(fed.len(), bodies.len());
        for (j, f) in fed.iter().enumerate() {
            prop_assert_eq!((f.to, f.seq, f.ack), (j as u32, j as u64 + 1, ack));
            prop_assert_eq!(&f.body[..], &bodies[j][..]);
        }
        // The drawn reads, then byte-sized and page-sized ones whatever
        // the strategy drew.
        for (cuts, scratch) in [(&cuts[..], scratch), (&[4096, 1, 28, 36], 64 << 10)] {
            let mut read = Vec::new();
            read_all(&stream, (cuts, stall), scratch, &mut read).expect("clean stream");
            prop_assert_eq!(&read, &fed);
        }
    }

    /// A flipped byte anywhere in a large frame's body or trailer poisons
    /// the decoder before that frame — or anything behind it — is yielded,
    /// on the own-allocation path as on the copy-out path.
    #[test]
    fn flipped_byte_in_a_big_frame_poisons_before_it_is_yielded(
        len in (64usize << 10)..(192 << 10),
        pick in any::<u64>(),
        cuts in prop::collection::vec(1usize..(96 << 10), 1..6),
    ) {
        let body: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(13)).collect();
        let mut stream = encode_frame(1, 1, b"ahead");
        let big_at = stream.len();
        stream.extend_from_slice(&encode_frame(2, 2, &body));
        stream.extend_from_slice(&encode_frame(3, 3, b"behind"));
        let at = big_at + FRAME_HEADER + (pick as usize) % (len + FRAME_TRAILER);
        stream[at] ^= 1 << (pick % 8);

        let mut dec = FrameDecoder::new();
        dec.feed(&stream);
        prop_assert_eq!(dec.next_frame().map(|f| f.map(|f| f.seq)), Ok(Some(1)));
        prop_assert!(matches!(dec.next_frame(), Err(WireError::Checksum { .. })));

        let mut yielded = Vec::new();
        let verdict = read_all(&stream, (&cuts, 2), 64 << 10, &mut yielded);
        prop_assert!(matches!(verdict, Err(WireError::Checksum { .. })), "{verdict:?}");
        prop_assert_eq!(yielded.iter().map(|f| f.seq).collect::<Vec<_>>(), vec![1]);
    }

    /// The streamed checksum over any segmentation of a body equals
    /// `fletcher64` of the concatenation — what lets a frame's trailer be
    /// computed over shared segments that are never assembled.
    #[test]
    fn streamed_checksum_is_segmentation_independent(
        body in prop::collection::vec(any::<u8>(), 0..5000),
        cuts in prop::collection::vec(0usize..700, 0..12),
    ) {
        let whole = Bytes::from(body.clone());
        let mut segs = Vec::new();
        let mut pos = 0;
        for cut in cuts {
            let end = (pos + cut).min(whole.len());
            segs.push(whole.slice(pos..end)); // empty segments included
            pos = end;
        }
        segs.push(whole.slice(pos..));
        prop_assert_eq!(body_check(&segs), acr::pup::fletcher64(&body));
    }

    /// The acknowledgement rides every frame — a lone one, each frame of a
    /// flush assembled under one value, and a bodiless sequence-0 frame —
    /// and comes back unchanged.
    #[test]
    fn ack_survives_single_flushed_and_bodiless_frames(
        frames in prop::collection::vec(frame_strategy(), 2..6),
        acks in (any::<u64>(), any::<u64>(), any::<u64>()),
        cuts in prop::collection::vec(0usize..97, 0..12),
    ) {
        let acked = |f: &Frame, ack| encode_frame_acked(f.to, f.seq, ack, &f.body);
        let mut stream = acked(&frames[0], acks.0);
        for f in &frames {
            stream.extend_from_slice(&acked(f, acks.1));
        }
        stream.extend_from_slice(&encode_frame_acked(0, 0, acks.2, &[]));
        let mut dec = FrameDecoder::new();
        let got = feed_chunked(&mut dec, &stream, &cuts);
        let mut expected = vec![Frame { ack: acks.0, ..frames[0].clone() }];
        expected.extend(frames.iter().map(|f| Frame { ack: acks.1, ..f.clone() }));
        expected.push(Frame {
            to: 0,
            seq: 0,
            ack: acks.2,
            body: Bytes::new(),
            check: body_check(&[]),
        });
        prop_assert_eq!(got, expected);
    }
}

// --------------------------------------------------------------------------
// Delta compare records
// --------------------------------------------------------------------------

/// A structurally valid delta record plus its compare iteration: a random
/// chunking of a random payload length, a strictly increasing dirty subset
/// with correctly sized windows, and a full digest table.
fn delta_record_strategy() -> impl Strategy<Value = (u64, Detection)> {
    (
        any::<u64>(), // compare iteration
        any::<u64>(), // base iteration
        1usize..48,   // chunk size
        0usize..1200, // payload length
        any::<u64>(), // seed: dirty selection + window bytes
    )
        .prop_map(
            |(iteration, base_iteration, chunk_size, payload_len, seed)| {
                let total = payload_len.div_ceil(chunk_size);
                let digests = (0..total as u64)
                    .map(|i| seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(i))
                    .collect();
                let table = ChunkTable {
                    chunk_size: chunk_size as u32,
                    digests,
                };
                let dirty = (0..total as u32)
                    .filter(|i| (seed >> (i % 61)) & 1 == 1)
                    .map(|i| {
                        let window: Vec<u8> = chunk_span(chunk_size, payload_len, i)
                            .map(|b| (b as u8).wrapping_add(seed as u8))
                            .collect();
                        (i, Bytes::from(window))
                    })
                    .collect();
                let record = Detection::Delta {
                    base_iteration,
                    payload_len,
                    digest: seed.rotate_left(17),
                    table,
                    dirty,
                };
                (iteration, record)
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A well-formed delta record survives the compare-body codec
    /// byte-for-byte: decoding reproduces the record exactly and
    /// re-encoding reproduces the exact wire bytes.
    #[test]
    fn delta_records_roundtrip_byte_for_byte(
        (iteration, record) in delta_record_strategy(),
    ) {
        let body = encode_compare_body(iteration, &record);
        let (got_iter, got) =
            decode_compare_body(&body).expect("valid delta record must decode");
        prop_assert_eq!(got_iter, iteration);
        prop_assert_eq!(&got, &record);
        prop_assert_eq!(encode_compare_body(got_iter, &got), body);
    }

    /// Any proper prefix of a delta compare body is rejected — the strict
    /// structural validation never fabricates a shorter record from a
    /// truncated read.
    #[test]
    fn truncated_delta_record_is_rejected(
        (iteration, record) in delta_record_strategy(),
        cut_seed in any::<u64>(),
    ) {
        let body = encode_compare_body(iteration, &record);
        let keep = (cut_seed as usize) % (body.len() - 1);
        prop_assert!(
            decode_compare_body(&body[..keep]).is_err(),
            "truncated delta record decoded at {keep}/{} bytes",
            body.len()
        );
    }

    /// A delta record is judged without any base on the receiver, so
    /// whatever base it names, its verdict on a record whose dirty window
    /// matches its own table is the full digest-table record's, clean
    /// exactly when the underlying payloads agree.
    #[test]
    fn base_epoch_mismatch_falls_back_verdict_identically(
        payload in prop::collection::vec(any::<u8>(), 1..800),
        // The digest pipeline requires 4-byte-aligned chunk sizes.
        chunk_size in (1usize..12).prop_map(|k| k * 4),
        base_iteration in any::<u64>(),
        flip in any::<u64>(),
        mutate in any::<bool>(),
    ) {
        let mut remote = payload.clone();
        if mutate {
            let at = (flip as usize) % remote.len();
            remote[at] ^= 1 | (flip >> 32) as u8;
        }
        let local_chunked = chunk_digests(&payload, chunk_size);
        let local = Checkpoint::with_chunks(
            7,
            Bytes::from(payload.clone()),
            local_chunked.digest,
            ChunkTable {
                chunk_size: chunk_size as u32,
                digests: local_chunked.chunk_digests.clone(),
            },
        );
        let remote_chunked = chunk_digests(&remote, chunk_size);
        let table = ChunkTable {
            chunk_size: chunk_size as u32,
            digests: remote_chunked.chunk_digests.clone(),
        };
        let digest = remote_chunked.digest;
        // One real window: chunk 0 of the remote payload, so comparing its
        // bytes agrees with comparing its digest.
        let span = chunk_span(chunk_size, remote.len(), 0);
        let delta = Detection::Delta {
            base_iteration,
            payload_len: remote.len(),
            digest,
            table: table.clone(),
            dirty: vec![(0, Bytes::from(remote[span].to_vec()))],
        };
        let det = SdcDetector::new(DetectionMethod::FullCompare);
        let via_delta = det.diverged(&local, &delta);
        let via_table = det.diverged(&local, &Detection::DigestTable { digest, table });
        prop_assert_eq!(via_delta.is_clean(), remote == payload);
        prop_assert_eq!(via_delta, via_table);
    }

    /// Flipping any bit of a shipped dirty window poisons the whole frame:
    /// the Fletcher-64 trailer catches it before the record reaches the
    /// protocol layer.
    #[test]
    fn corrupted_delta_window_poisons_frame(
        (iteration, record) in delta_record_strategy(),
        seq in any::<u64>(),
    ) {
        let dirty_len = match &record {
            Detection::Delta { dirty, .. } => dirty.len(),
            _ => 0,
        };
        prop_assume!(dirty_len > 0);
        let body = encode_compare_body(iteration, &record);
        let mut framed = encode_frame(3, seq, &body);
        // The body's final byte is the last byte of the last dirty window.
        let at = FRAME_HEADER + body.len() - 1;
        framed[at] ^= 0x40;
        let mut dec = FrameDecoder::new();
        dec.feed(&framed);
        prop_assert!(
            dec.next_frame().is_err(),
            "flipped delta window decoded cleanly"
        );
    }

    /// Structural corruption the frame checksum was never asked about —
    /// out-of-range chunk indices, non-increasing indices, or a window
    /// whose size does not match its chunk span — is rejected by the body
    /// decoder, never surfaced as a mangled record.
    #[test]
    fn malformed_delta_structure_is_rejected(
        (iteration, record) in delta_record_strategy(),
        which in 0u8..3,
    ) {
        let Detection::Delta { base_iteration, payload_len, digest, table, mut dirty } = record
        else {
            unreachable!("strategy yields Delta records only")
        };
        prop_assume!(!dirty.is_empty());
        let total = table.digests.len() as u32;
        match which {
            0 => dirty[0].0 = total, // out-of-range index
            1 => {
                // Duplicate first index: indices must strictly increase.
                let first = dirty[0].clone();
                dirty.insert(0, first);
            }
            _ => {
                // Window one byte short of its chunk span.
                let mut v = dirty[0].1.to_vec();
                v.pop();
                dirty[0].1 = Bytes::from(v);
            }
        }
        let bad = Detection::Delta { base_iteration, payload_len, digest, table, dirty };
        let body = encode_compare_body(iteration, &bad);
        prop_assert!(
            decode_compare_body(&body).is_err(),
            "structurally malformed delta record decoded"
        );
    }

    /// A buddy judging a delta record names exactly the ranges it would
    /// name if the sender had shipped its whole payload: dirty windows are
    /// compared by bytes, every other chunk by its digest, and flips on
    /// either side — in dirty chunks or clean ones — land in the same
    /// coalesced chunk ranges.
    #[test]
    fn delta_verdict_matches_the_full_payload_compare(
        state in prop::collection::vec(any::<u8>(), 1..800),
        chunk_size in (1usize..12).prop_map(|k| k * 4),
        base_edits in prop::collection::vec((any::<usize>(), any::<u8>()), 0..6),
        sender_flips in prop::collection::vec((any::<usize>(), any::<u8>()), 0..4),
        buddy_flips in prop::collection::vec((any::<usize>(), any::<u8>()), 0..4),
    ) {
        let edited = |edits: &[(usize, u8)]| {
            let mut out = state.clone();
            for &(at, bits) in edits {
                let at = at % out.len();
                out[at] ^= bits | 1;
            }
            out
        };
        let (base, sender, buddy) =
            (edited(&base_edits), edited(&sender_flips), edited(&buddy_flips));
        let record = delta_of(&base, &sender, chunk_size);
        let local = chunked(&buddy, chunk_size);
        let det = SdcDetector::new(DetectionMethod::FullCompare);
        let full = Detection::Payload(Bytes::from(sender.clone()));
        prop_assert_eq!(det.diverged(&local, &record), det.diverged(&local, &full));
        prop_assert_eq!(det.diverged(&local, &record).is_clean(), buddy == sender);
    }
}

/// `payload` as a checkpoint carrying its chunk table.
fn chunked(payload: &[u8], chunk_size: usize) -> Checkpoint {
    let c = chunk_digests(payload, chunk_size);
    Checkpoint::with_chunks(
        2,
        Bytes::copy_from_slice(payload),
        c.digest,
        ChunkTable {
            chunk_size: chunk_size as u32,
            digests: c.chunk_digests,
        },
    )
}

/// The delta record a sender at `current` ships against its `base`.
fn delta_of(base: &[u8], current: &[u8], chunk_size: usize) -> Detection {
    let (was, now) = (
        chunk_digests(base, chunk_size),
        chunk_digests(current, chunk_size),
    );
    let plan = diff_tables(&was.chunk_digests, &now, current.len()).expect("same geometry");
    let dirty = extract_delta(current, &plan)
        .into_iter()
        .map(|(i, w)| (i, Bytes::copy_from_slice(w)))
        .collect();
    Detection::Delta {
        base_iteration: 1,
        payload_len: current.len(),
        digest: now.digest,
        table: ChunkTable {
            chunk_size: chunk_size as u32,
            digests: now.chunk_digests,
        },
        dirty,
    }
}

/// A delta of another length than the buddy's checkpoint is whole-payload
/// corruption, as a full payload of another length is.
#[test]
fn a_resized_delta_is_whole_payload_corruption() {
    let det = SdcDetector::new(DetectionMethod::FullCompare);
    let sender = vec![7u8; 100];
    let record = delta_of(&sender, &sender, 16);
    let local = chunked(&[7u8; 96], 16);
    assert_eq!(det.diverged(&local, &record).ranges, vec![0..100]);
    let full = Detection::Payload(Bytes::from(sender));
    assert_eq!(det.diverged(&local, &record), det.diverged(&local, &full));
}

/// A buddy whose chunk table has another geometry than the record's cannot
/// match chunks one to one: it judges by the whole-payload digest, clean or
/// all of it.
#[test]
fn a_delta_of_another_chunk_size_falls_back_to_the_whole_digest() {
    let det = SdcDetector::new(DetectionMethod::FullCompare);
    let sender: Vec<u8> = (0..100u8).collect();
    let mut base = sender.clone();
    base[3] ^= 1;
    let record = delta_of(&base, &sender, 16);
    assert!(det.diverged(&chunked(&sender, 32), &record).is_clean());
    let mut buddy = sender.clone();
    buddy[70] ^= 1;
    assert_eq!(
        det.diverged(&chunked(&buddy, 32), &record).ranges,
        vec![0..100]
    );
}
