//! Bulk payload encoding: split a large payload into stripes and encode
//! them with one batch replay of the layout's cached program.
//!
//! Stripes are independent, so this is embarrassingly parallel. The work
//! itself is [`XorProgram::run_batch`](crate::schedule::XorProgram::run_batch):
//! chunks of stripes move by ownership into jobs on the persistent
//! [`minipool::global`] pool, and each stripe replays tile-major, so every
//! source block streams through cache once per stripe rather than once per
//! parity equation that reads it. These functions only add the global
//! schedule cache and the host-parallelism clamp.

use crate::cache;
use crate::stripe::Stripe;
use dcode_core::layout::CodeLayout;

/// Split `payload` into as many stripes as needed (tail zero-padded) and
/// encode each. `threads = 1` runs inline; more fan out over the
/// persistent pool, clamped to the host's available parallelism.
pub fn encode_payload(
    layout: &CodeLayout,
    block_size: usize,
    payload: &[u8],
    threads: usize,
) -> Vec<Stripe> {
    let per_stripe = layout.data_len() * block_size;
    let n_stripes = payload.len().div_ceil(per_stripe).max(1);
    let mut stripes: Vec<Stripe> = (0..n_stripes)
        .map(|k| {
            let lo = k * per_stripe;
            let hi = ((k + 1) * per_stripe).min(payload.len());
            let chunk = if lo < payload.len() {
                &payload[lo..hi]
            } else {
                &[]
            };
            Stripe::from_data(layout, block_size, chunk)
        })
        .collect();
    encode_stripes(layout, &mut stripes, threads);
    stripes
}

/// Encode a slice of stripes in place. The compiled program comes from
/// the global schedule cache (no per-call compile) and replays through
/// [`XorProgram::run_batch`](crate::schedule::XorProgram::run_batch) on
/// the global persistent pool (no per-call spawns). The requested
/// `threads` is clamped to the host's available parallelism; call
/// `run_batch` directly for an unclamped fan-out.
pub fn encode_stripes(layout: &CodeLayout, stripes: &mut [Stripe], threads: usize) {
    let program = cache::global().encode_program(layout);
    program.run_batch(stripes, minipool::effective_parallelism(threads));
}

/// Reassemble the payload from encoded stripes (inverse of
/// [`encode_payload`], minus the padding).
pub fn payload_of(layout: &CodeLayout, stripes: &[Stripe], payload_len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload_len);
    for s in stripes {
        out.extend_from_slice(&s.data_bytes(layout));
    }
    out.truncate(payload_len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{encode_naive, verify_parities};
    use dcode_core::dcode::dcode;

    fn payload(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect()
    }

    #[test]
    fn parallel_matches_sequential() {
        let layout = dcode(7).unwrap();
        let data = payload(layout.data_len() * 64 * 5 + 123); // 5.x stripes
        let seq = encode_payload(&layout, 64, &data, 1);
        for threads in [2usize, 4, 8] {
            let par = encode_payload(&layout, 64, &data, threads);
            assert_eq!(par, seq, "threads={threads}");
        }
        assert_eq!(seq.len(), 6);
        assert!(seq.iter().all(|s| verify_parities(&layout, s)));
        assert_eq!(payload_of(&layout, &seq, data.len()), data);
    }

    #[test]
    fn encode_stripes_matches_the_naive_oracle() {
        let layout = dcode(7).unwrap();
        let per = layout.data_len() * 32;
        let data = payload(per * 7 + 5);
        let fresh = || -> Vec<Stripe> {
            data.chunks(per)
                .map(|c| Stripe::from_data(&layout, 32, c))
                .collect()
        };
        let mut expect = fresh();
        for s in &mut expect {
            encode_naive(&layout, s);
        }
        for threads in [1usize, 2, 4, 16] {
            let mut stripes = fresh();
            encode_stripes(&layout, &mut stripes, threads);
            assert_eq!(stripes, expect, "threads={threads}");
        }
    }

    #[test]
    fn empty_payload_yields_one_zero_stripe() {
        let layout = dcode(5).unwrap();
        let stripes = encode_payload(&layout, 16, &[], 4);
        assert_eq!(stripes.len(), 1);
        assert!(verify_parities(&layout, &stripes[0]));
        assert!(payload_of(&layout, &stripes, 0).is_empty());
    }

    #[test]
    fn exact_multiple_has_no_extra_stripe() {
        let layout = dcode(5).unwrap();
        let per = layout.data_len() * 16;
        let stripes = encode_payload(&layout, 16, &payload(per * 3), 2);
        assert_eq!(stripes.len(), 3);
    }
}
