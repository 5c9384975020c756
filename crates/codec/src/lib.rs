#![warn(missing_docs)]
//! # dcode-codec
//!
//! The byte-level erasure-coding engine of the D-Code reproduction — the
//! workspace's stand-in for the Jerasure 1.2 library the paper builds on.
//! Generic over any [`dcode_core::layout::CodeLayout`]:
//!
//! * [`xor`] — `u64`-lane XOR kernels with set-form (overwrite) and up to
//!   8-wide fold tiers;
//! * [`stripe`] — in-memory stripe storage ([`Stripe`]);
//! * [`mod@encode`] — full-stripe encoding ([`encode`] and the
//!   [`encode_naive`] test oracle), plus the `verify_parities` consistency
//!   check;
//! * [`bulk`] — many stripes at once: [`encode_stripes`] and the
//!   payload-level [`encode_payload`] / [`payload_of`];
//! * [`schedule`] — the plan compiler and its one executor: layouts and
//!   recovery plans lower to flat [`XorProgram`]s (contiguous index
//!   arrays, dependency levels, no per-op allocation).
//!   [`XorProgram::run`] replays one stripe tile-major, so each source
//!   block's tile is fetched once per stripe, and
//!   [`XorProgram::run_batch`] replays many stripes over the persistent
//!   worker pool;
//! * [`tile`] — runtime tile-size selection for the executor
//!   (`DCODE_TILE_BYTES` override or a one-shot calibration probe);
//! * [`cache`] — the [`ScheduleCache`]: memoized compiled programs and
//!   recovery subprograms keyed by layout fingerprint, so steady-state
//!   encode/recover paths never recompile;
//! * [`decode`] — replay of symbolic [`dcode_core::decoder::RecoveryPlan`]s
//!   over real blocks;
//! * [`update`] — read-modify-write partial-stripe writes with cascading
//!   delta propagation (the I/O behaviour Figures 4–5 measure);
//! * [`bitmatrix`] — the Jerasure-style GF(2) generator-matrix backend,
//!   cross-checked against the equation-driven encoder;
//! * [`gf256`] / [`rs`] — a GF(2⁸) field and the classic Reed–Solomon P+Q
//!   RAID-6, the Galois-field baseline the paper's XOR-only design
//!   competes with (see the `xor_vs_rs` bench).
//!
//! ## Quick example
//!
//! ```
//! use dcode_core::dcode::dcode;
//! use dcode_codec::{Stripe, encode::encode, decode::recover_columns};
//!
//! let code = dcode(7).unwrap();
//! let payload: Vec<u8> = (0..code.data_len() * 16).map(|i| i as u8).collect();
//! let mut stripe = Stripe::from_data(&code, 16, &payload);
//! encode(&code, &mut stripe);
//!
//! // Lose two disks, rebuild, and the payload is intact.
//! recover_columns(&code, &mut stripe, &[2, 3]).unwrap();
//! assert_eq!(stripe.data_bytes(&code), payload);
//! ```

pub mod bitmatrix;
pub mod bulk;
pub mod cache;
pub mod decode;
pub mod encode;
pub mod gf256;
pub mod opt;
pub mod rs;
pub mod schedule;
pub mod stripe;
pub mod tile;
pub mod update;
pub mod xor;

pub use bitmatrix::{encode_with_matrix, generator_matrix, BitMatrix};
pub use bulk::{encode_payload, encode_stripes, payload_of};
pub use cache::{schedule_stats, CacheStats, CompiledRecovery, ScheduleCache};
pub use decode::{apply_plan, apply_plan_naive, recover_columns};
pub use encode::{encode, encode_naive, verify_parities};
pub use opt::{optimize, CostSummary, OptCertificate, OptConfig, OptPass, Optimized, PassRun};
pub use schedule::XorProgram;
pub use stripe::Stripe;
pub use tile::fused_tile_bytes;
pub use update::{reconstruct_write_ios, write_logical, write_logical_reconstruct, WriteReceipt};
