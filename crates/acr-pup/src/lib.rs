//! # acr-pup — Pack/UnPack serialization framework
//!
//! A Rust re-imagination of the Charm++ **PUP** (Pack/UnPack) framework that
//! ACR (Ni et al., SC '13) uses for checkpointing, restart, and silent data
//! corruption (SDC) detection.
//!
//! A type describes its checkpoint-relevant state once, by implementing
//! [`Pup`]; every *direction* of traversal is then derived from that single
//! description:
//!
//! * [`Sizer`] — compute the exact packed size without writing anything.
//! * [`Packer`] — serialize the state into a byte buffer (a checkpoint).
//! * [`DigestingPacker`] — the fused checkpoint pipeline:
//!   pack and Fletcher-digest in one pass, emitting a per-chunk digest table
//!   that localizes SDC divergence to 64 KiB windows.
//! * [`Unpacker`] — restore the state from a checkpoint (restart).
//! * [`Checker`] — compare live state against a *buddy replica's* checkpoint
//!   byte-for-byte (or with a relative tolerance for floats) to detect SDC.
//!   This is the `PUPer::checker` the paper adds in §4.1.
//! * [`FletcherPuper`] — stream the state through a position-dependent
//!   Fletcher-64 checksum without materializing the packed bytes (§4.2).
//!
//! ## Example
//!
//! ```
//! use acr_pup::{Pup, Puper, PupResult, pack, unpack, compare, fletcher64_of};
//!
//! struct Particle { pos: [f64; 3], vel: [f64; 3], id: u64 }
//!
//! impl Pup for Particle {
//!     fn pup(&mut self, p: &mut dyn Puper) -> PupResult {
//!         p.pup_f64_slice(&mut self.pos)?;
//!         p.pup_f64_slice(&mut self.vel)?;
//!         p.pup_u64(&mut self.id)
//!     }
//! }
//!
//! let mut a = Particle { pos: [0.0, 1.0, 2.0], vel: [0.1; 3], id: 42 };
//! let ckpt = pack(&mut a).unwrap();
//!
//! // Restart path: rebuild state from the checkpoint.
//! let mut b = Particle { pos: [0.0; 3], vel: [0.0; 3], id: 0 };
//! unpack(&ckpt, &mut b).unwrap();
//! assert_eq!(b.id, 42);
//!
//! // SDC-detection path: compare live state against the buddy's checkpoint.
//! let report = compare(&mut b, &ckpt).unwrap();
//! assert!(report.is_clean());
//!
//! // Checksum path: 8 bytes on the wire instead of the full checkpoint.
//! assert_eq!(fletcher64_of(&mut a).unwrap(), fletcher64_of(&mut b).unwrap());
//! ```

#![warn(missing_docs)]

mod api;
mod checker;
mod chunked;
mod delta;
mod error;
mod fletcher;
mod impls;
mod packer;
mod puper;
mod regions;
mod sizer;
mod unpacker;

pub use api::{
    compare, compare_windows, compare_with_policy, fletcher64_of, pack, pack_digested, pack_into,
    packed_size, unpack,
};
pub use checker::{CheckFailure, CheckReport, Checker};
pub use chunked::{
    assemble_chunks, chunk_digests, record_pack, ChunkDigester, ChunkPiece, ChunkedDigest,
    DigestingPacker, DEFAULT_CHUNK_SIZE,
};
pub use delta::{apply_delta, chunk_span, diff_tables, extract_delta, DeltaPlan};
pub use error::{PupError, PupResult};
pub use fletcher::{fletcher64, Fletcher64, FletcherPuper};
pub use impls::{pup_btree_map, pup_vec};
pub use packer::Packer;
pub use puper::{CheckPolicy, Dir, Pup, Puper};
pub use regions::RegionMapper;
pub use sizer::Sizer;
pub use unpacker::Unpacker;
