//! Property-based tests for the batch entry: `XorProgram::run_batch`
//! (tile-major replay of each stripe, chunks fanned out over the worker
//! pool) must be byte-identical to the naive interpreters for every
//! payload, block size, batch shape, fan-out, and tile size — and a batch
//! holding a foreign-grid stripe must panic without leaving a placeholder
//! behind.

use dcode_codec::{apply_plan_naive, encode_naive, encode_stripes, verify_parities};
use dcode_codec::{Stripe, XorProgram};
use dcode_core::dcode::dcode;
use dcode_core::decoder::plan_column_recovery;
use dcode_core::layout::CodeLayout;
use proptest::prelude::*;
use std::sync::Arc;

fn payload(len: usize, seed: u64) -> Vec<u8> {
    (0..len)
        .map(|i| (seed.wrapping_mul(i as u64 | 1) >> 11) as u8)
        .collect()
}

fn stripes_for(layout: &CodeLayout, block_size: usize, batch: usize, seed: u64) -> Vec<Stripe> {
    let per = layout.data_len() * block_size;
    (0..batch)
        .map(|k| Stripe::from_data(layout, block_size, &payload(per, seed ^ (k as u64) << 7)))
        .collect()
}

fn naive_encoded(layout: &CodeLayout, stripes: &[Stripe]) -> Vec<Stripe> {
    let mut out = stripes.to_vec();
    for s in &mut out {
        encode_naive(layout, s);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Batch replay == the naive oracle, across odd block sizes, primes,
    /// batch shapes, fan-outs, and tile sizes.
    #[test]
    fn run_batch_matches_naive_everywhere(
        p_idx in 0usize..2,
        block_size in 1usize..200,
        batch_idx in 0usize..4,
        threads in 1usize..5,
        tile in prop::sample::select(vec![1usize, 8, 63, 64, 100, 1024, 16 * 1024]),
        seed in any::<u64>(),
    ) {
        let p = [5usize, 7][p_idx];
        let batch = [1usize, 2, 3, 16][batch_idx];
        let layout = dcode(p).unwrap();
        let program = Arc::new(XorProgram::compile_encode(&layout));
        let mut stripes = stripes_for(&layout, block_size, batch, seed);
        let expect = naive_encoded(&layout, &stripes);
        program.run_batch_tiled(&mut stripes, threads, tile);
        prop_assert_eq!(&stripes, &expect);
        for s in &stripes {
            prop_assert!(verify_parities(&layout, s));
        }
    }

    /// Batch replay of a *recovery* program == the naive plan replay, and
    /// both restore the batch to its pre-erasure bytes, across primes, odd
    /// block sizes, batch shapes {1, 3, 16}, fan-outs, and tile sizes.
    #[test]
    fn column_recovery_through_run_batch_restores(
        p_idx in 0usize..2,
        block_size in 1usize..160,
        batch_idx in 0usize..3,
        threads in 1usize..4,
        tile in prop::sample::select(vec![8usize, 63, 1024]),
        seed in any::<u64>(),
    ) {
        let p = [5usize, 7][p_idx];
        let batch = [1usize, 3, 16][batch_idx];
        let layout = dcode(p).unwrap();
        let cols = [0usize, 2];
        let plan = plan_column_recovery(&layout, &cols).unwrap();
        let program = Arc::new(XorProgram::compile_plan(layout.grid(), &plan));
        let golden = naive_encoded(&layout, &stripes_for(&layout, block_size, batch, seed));
        let mut degraded = golden.clone();
        for s in &mut degraded {
            s.erase_columns(&cols);
        }
        let mut expect = degraded.clone();
        for s in &mut expect {
            apply_plan_naive(s, &plan);
        }
        program.run_batch_tiled(&mut degraded, threads, tile);
        prop_assert_eq!(&degraded, &expect);
        prop_assert_eq!(&degraded, &golden);
    }

    /// The public bulk entry (global cache, clamped fan-out, calibrated
    /// tile) agrees with the oracle, and repeated calls stay identical.
    #[test]
    fn encode_stripes_matches_naive(
        block_size in 1usize..96,
        batch in 1usize..10,
        threads in 1usize..6,
        seed in any::<u64>(),
    ) {
        let layout = dcode(7).unwrap();
        let expect = naive_encoded(&layout, &stripes_for(&layout, block_size, batch, seed));
        for _ in 0..2 {
            let mut stripes = stripes_for(&layout, block_size, batch, seed);
            encode_stripes(&layout, &mut stripes, threads);
            prop_assert_eq!(&stripes, &expect);
        }
    }

    /// A batch whose stripes have *different* block sizes replays each
    /// stripe over its own size and stays correct.
    #[test]
    fn mixed_block_sizes_in_one_batch(
        sizes in prop::collection::vec(1usize..130, 1..6),
        threads in 1usize..4,
        tile in prop::sample::select(vec![8usize, 100, 16 * 1024]),
        seed in any::<u64>(),
    ) {
        let layout = dcode(5).unwrap();
        let program = Arc::new(XorProgram::compile_encode(&layout));
        let mut stripes: Vec<Stripe> = sizes
            .iter()
            .enumerate()
            .map(|(k, &bs)| {
                Stripe::from_data(
                    &layout,
                    bs,
                    &payload(layout.data_len() * bs, seed ^ k as u64),
                )
            })
            .collect();
        let expect = naive_encoded(&layout, &stripes);
        program.run_batch_tiled(&mut stripes, threads, tile);
        prop_assert_eq!(&stripes, &expect);
    }

    /// A batch with a foreign-grid stripe panics on that stripe's shape
    /// check — and the unwind leaves every healthy stripe's data intact
    /// (fully encoded outside the panicking chunk), never a placeholder.
    #[test]
    fn mixed_grid_batch_leaves_healthy_stripes_correct_after_unwind(
        block_size in 1usize..64,
        poison_pos in 0usize..4,
        seed in any::<u64>(),
    ) {
        let layout = dcode(7).unwrap();
        let small = dcode(5).unwrap();
        let program = Arc::new(XorProgram::compile_encode(&layout));
        let mut stripes = stripes_for(&layout, block_size, 4, seed);
        let expect = naive_encoded(&layout, &stripes);
        let poison_payload = payload(small.data_len() * block_size, seed ^ 0xDEAD);
        let poison = Stripe::from_data(&small, block_size, &poison_payload);
        stripes[poison_pos] = poison.clone();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            program.run_batch(&mut stripes, 2);
        }));
        prop_assert!(caught.is_err(), "foreign-grid stripe must panic the replay");
        for (i, s) in stripes.iter().enumerate() {
            if i == poison_pos {
                // Rejected before any block was touched.
                prop_assert_eq!(s, &poison);
            } else if i / 2 == poison_pos / 2 {
                prop_assert_eq!(
                    s.data_bytes(&layout),
                    expect[i].data_bytes(&layout),
                    "stripe {} lost data across the unwind",
                    i
                );
            } else {
                prop_assert_eq!(s, &expect[i], "stripe {} not encoded", i);
            }
        }
    }
}
