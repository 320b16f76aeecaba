//! Property-based tests for the PUP framework invariants the ACR protocol
//! relies on:
//!
//! 1. `unpack ∘ pack = identity` for arbitrary state,
//! 2. `Sizer` agrees with `Packer` byte-for-byte,
//! 3. the `Checker` is clean exactly on identical state,
//! 4. any single flipped bit in packed state is detected — by the full
//!    comparison *and* by the Fletcher-64 digest,
//! 5. the streaming digest is split-invariant.

use acr_pup::{
    compare, fletcher64, fletcher64_of, pack, packed_size, pup_vec, unpack, Pup, PupResult, Puper,
};
use proptest::prelude::*;

/// An application-state stand-in that exercises every scalar width, the bulk
/// slice paths, nested structs, strings, and optionals.
#[derive(Debug, Clone, Default, PartialEq)]
struct TaskState {
    id: u64,
    step: u32,
    active: bool,
    label: String,
    grid: Vec<f64>,
    counts: Vec<u32>,
    particles: Vec<Particle>,
    aux: Option<f64>,
    temp: i16,
}

#[derive(Debug, Clone, Default, PartialEq)]
struct Particle {
    pos: [f64; 3],
    charge: f32,
    kind: u8,
}

impl Pup for Particle {
    fn pup(&mut self, p: &mut dyn Puper) -> PupResult {
        p.pup_f64_slice(&mut self.pos)?;
        p.pup_f32(&mut self.charge)?;
        p.pup_u8(&mut self.kind)
    }
}

impl Pup for TaskState {
    fn pup(&mut self, p: &mut dyn Puper) -> PupResult {
        p.pup_u64(&mut self.id)?;
        p.pup_u32(&mut self.step)?;
        p.pup_bool(&mut self.active)?;
        self.label.pup(p)?;
        self.grid.pup(p)?;
        self.counts.pup(p)?;
        pup_vec(p, &mut self.particles)?;
        self.aux.pup(p)?;
        p.pup_i16(&mut self.temp)
    }
}

fn particle_strategy() -> impl Strategy<Value = Particle> {
    (
        prop::array::uniform3(prop::num::f64::ANY),
        prop::num::f32::ANY,
        any::<u8>(),
    )
        .prop_map(|(pos, charge, kind)| Particle { pos, charge, kind })
}

fn state_strategy() -> impl Strategy<Value = TaskState> {
    (
        any::<u64>(),
        any::<u32>(),
        any::<bool>(),
        "[a-zA-Z0-9 _-]{0,24}",
        prop::collection::vec(prop::num::f64::ANY, 0..64),
        prop::collection::vec(any::<u32>(), 0..32),
        prop::collection::vec(particle_strategy(), 0..8),
        prop::option::of(prop::num::f64::ANY),
        any::<i16>(),
    )
        .prop_map(
            |(id, step, active, label, grid, counts, particles, aux, temp)| TaskState {
                id,
                step,
                active,
                label,
                grid,
                counts,
                particles,
                aux,
                temp,
            },
        )
}

/// Bitwise equality (PartialEq treats NaN != NaN; checkpoints are bytes).
fn bitwise_eq(a: &mut TaskState, b: &mut TaskState) -> bool {
    pack(a).unwrap() == pack(b).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn pack_unpack_roundtrip(mut s in state_strategy()) {
        let bytes = pack(&mut s).unwrap();
        let mut out = TaskState::default();
        unpack(&bytes, &mut out).unwrap();
        prop_assert!(bitwise_eq(&mut s, &mut out));
        // and repacking is byte-identical (canonical encoding)
        prop_assert_eq!(pack(&mut out).unwrap(), bytes);
    }

    #[test]
    fn sizer_agrees_with_packer(mut s in state_strategy()) {
        prop_assert_eq!(packed_size(&mut s).unwrap(), pack(&mut s).unwrap().len());
    }

    #[test]
    fn checker_clean_on_self(mut s in state_strategy()) {
        let bytes = pack(&mut s).unwrap();
        let report = compare(&mut s, &bytes).unwrap();
        prop_assert!(report.is_clean());
        prop_assert_eq!(report.bytes_compared, bytes.len());
    }

    #[test]
    fn any_single_bit_flip_is_detected(
        mut s in state_strategy(),
        bit_seed in any::<u64>(),
    ) {
        let clean = pack(&mut s).unwrap();
        prop_assume!(!clean.is_empty());
        let bit = (bit_seed % (clean.len() as u64 * 8)) as usize;

        // Corrupt the *reference* checkpoint (equivalently, the buddy's
        // state was corrupted after packing).
        let mut corrupt = clean.clone();
        corrupt[bit / 8] ^= 1 << (bit % 8);

        // Full comparison detects it (either as a field mismatch or as a
        // structural error when the flip hits a length/tag field).
        // (a structural Err is also a detection)
        if let Ok(report) = compare(&mut s, &corrupt) {
            prop_assert!(!report.is_clean(), "flip at bit {bit} missed");
        }

        // The checksum detects it too.
        prop_assert_ne!(fletcher64(&clean), fletcher64(&corrupt), "digest collision at bit {}", bit);
    }

    #[test]
    fn digest_of_object_equals_digest_of_packed_bytes(mut s in state_strategy()) {
        let bytes = pack(&mut s).unwrap();
        prop_assert_eq!(fletcher64_of(&mut s).unwrap(), fletcher64(&bytes));
    }

    #[test]
    fn streaming_digest_is_split_invariant(
        data in prop::collection::vec(any::<u8>(), 0..2048),
        splits in prop::collection::vec(1usize..128, 0..8),
    ) {
        let oneshot = fletcher64(&data);
        let mut f = acr_pup::Fletcher64::new();
        let mut rest: &[u8] = &data;
        for s in splits {
            let k = s.min(rest.len());
            f.update(&rest[..k]);
            rest = &rest[k..];
        }
        f.update(rest);
        prop_assert_eq!(f.digest(), oneshot);
    }

    #[test]
    fn unpack_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        // Robustness: a corrupted checkpoint must produce an error, not UB
        // or a panic (the runtime falls back to an older checkpoint on
        // failure).
        let mut out = TaskState::default();
        let _ = unpack(&bytes, &mut out);
    }

    #[test]
    fn truncated_checkpoint_always_errors(mut s in state_strategy(), cut_seed in any::<u64>()) {
        let bytes = pack(&mut s).unwrap();
        prop_assume!(bytes.len() > 1);
        let cut = 1 + (cut_seed % (bytes.len() as u64 - 1)) as usize;
        let mut out = TaskState::default();
        prop_assert!(unpack(&bytes[..cut], &mut out).is_err());
    }

    /// The chunk pipeline's mergeability invariant: split a payload into
    /// arbitrary 4-byte-aligned segments, digest each with its own
    /// offset-aware [`ChunkDigester`], and the concatenated pieces must
    /// assemble into exactly the single-pass whole-payload table and
    /// Fletcher-64 digest — regardless of where the cuts fall relative to
    /// chunk boundaries.
    #[test]
    fn parallel_segment_pieces_merge_to_single_pass_digest(
        data in prop::collection::vec(any::<u8>(), 0..4096),
        chunk_pow in 0u32..7,
        cut_seeds in prop::collection::vec(any::<u32>(), 0..6),
    ) {
        let chunk_size = 4usize << chunk_pow;
        // Aligned, sorted, deduplicated interior cut points.
        let mut cuts: Vec<usize> = cut_seeds
            .iter()
            .map(|&c| (c as usize % (data.len() + 1)) & !3)
            .collect();
        cuts.push(0);
        cuts.push(data.len());
        cuts.sort_unstable();
        cuts.dedup();
        // The final cut may be unaligned (payload tails are); interior cuts
        // are aligned by construction above, except a possibly-unaligned
        // data.len() which is fine because nothing starts after it.
        let mut pieces = Vec::new();
        for w in cuts.windows(2) {
            let (start, end) = (w[0], w[1]);
            let mut d = acr_pup::ChunkDigester::new(chunk_size, start);
            d.feed(&data[start..end]);
            pieces.extend(d.finish());
        }
        let merged = acr_pup::assemble_chunks(chunk_size, pieces);
        let reference = acr_pup::chunk_digests(&data, chunk_size);
        prop_assert_eq!(&merged, &reference);
        prop_assert_eq!(merged.digest, fletcher64(&data), "whole-payload digest mismatch");
        prop_assert_eq!(merged.chunk_digests.len(), data.len().div_ceil(chunk_size));
    }

    /// Same invariant through the fused copy+digest kernel: `feed_copy`
    /// must both reproduce the bytes verbatim and yield mergeable pieces.
    #[test]
    fn fused_copy_digest_segments_match_plain_feed(
        data in prop::collection::vec(any::<u8>(), 1..2048),
        chunk_pow in 0u32..6,
        cut_seed in any::<u32>(),
    ) {
        let chunk_size = 4usize << chunk_pow;
        let cut = (cut_seed as usize % (data.len() + 1)) & !3;
        let mut dst = vec![0u8; data.len()];
        let (head, tail) = dst.split_at_mut(cut);
        let mut pieces = Vec::new();
        let mut d0 = acr_pup::ChunkDigester::new(chunk_size, 0);
        d0.feed_copy(&data[..cut], head);
        pieces.extend(d0.finish());
        let mut d1 = acr_pup::ChunkDigester::new(chunk_size, cut);
        d1.feed_copy(&data[cut..], tail);
        pieces.extend(d1.finish());
        prop_assert_eq!(&dst, &data, "fused copy corrupted the payload");
        let merged = acr_pup::assemble_chunks(chunk_size, pieces);
        prop_assert_eq!(merged, acr_pup::chunk_digests(&data, chunk_size));
    }
}
