//! Differential properties for the schedule compiler: a compiled
//! [`XorProgram`] must be byte-identical to the naive interpreters for
//! every registry code, random block sizes (odd lengths hit the kernels'
//! scalar tails), and every 2-column erasure.

use dcode_baselines::registry::all_codes;
use dcode_codec::schedule::XorProgram;
use dcode_codec::{apply_plan_naive, encode_naive, verify_parities, Stripe};
use dcode_core::decoder::plan_column_recovery;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

fn payload(len: usize, seed: u64) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 51) as u8
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Compiled encode (one stripe, and a batch over several workers)
    /// equals the naive interpreter for every code in the registry.
    #[test]
    fn compiled_encode_matches_naive(p in prop::sample::select(vec![5usize, 7, 11, 13]),
                                     block in 1usize..40,
                                     threads in 2usize..6,
                                     seed in any::<u64>()) {
        for layout in all_codes(p) {
            let data = payload(layout.data_len() * block, seed);
            let base = Stripe::from_data(&layout, block, &data);

            let mut naive = base.clone();
            encode_naive(&layout, &mut naive);

            let program = XorProgram::compile_encode(&layout);
            let mut compiled = base.clone();
            program.run(&mut compiled);
            prop_assert_eq!(&compiled, &naive, "{} p={} block={}", layout.name(), p, block);
            prop_assert!(verify_parities(&layout, &compiled));

            let program = Arc::new(program);
            let mut batch = vec![base.clone(); threads + 1];
            program.run_batch(&mut batch, threads);
            for got in &batch {
                prop_assert_eq!(got, &naive, "{} p={} threads={}", layout.name(), p, threads);
            }
        }
    }

    /// Compiled plan replay equals naive replay for every 2-column erasure
    /// of every registry code.
    #[test]
    fn compiled_decode_matches_naive_for_all_double_erasures(
            p in prop::sample::select(vec![5usize, 7, 11, 13]),
            block in 1usize..24,
            seed in any::<u64>()) {
        for layout in all_codes(p) {
            let data = payload(layout.data_len() * block, seed ^ p as u64);
            let mut golden = Stripe::from_data(&layout, block, &data);
            encode_naive(&layout, &mut golden);
            for c1 in 0..layout.disks() {
                for c2 in c1 + 1..layout.disks() {
                    let plan = plan_column_recovery(&layout, &[c1, c2])
                        .expect("RAID-6 codes tolerate any double failure");

                    let mut naive = golden.clone();
                    naive.erase_columns(&[c1, c2]);
                    apply_plan_naive(&mut naive, &plan);

                    let program = XorProgram::compile_plan(layout.grid(), &plan);
                    let mut compiled = golden.clone();
                    compiled.erase_columns(&[c1, c2]);
                    program.run(&mut compiled);

                    prop_assert_eq!(&compiled, &naive,
                        "{} p={} cols=({},{})", layout.name(), p, c1, c2);
                    prop_assert_eq!(&compiled, &golden,
                        "{} p={} cols=({},{}) lost data", layout.name(), p, c1, c2);
                }
            }
        }
    }
}

/// Replaying a `subplan_for` through a compiled schedule reconstructs
/// exactly the wanted cells: wanted cells match the original stripe, and
/// erased cells outside the subplan's reach stay zeroed.
#[test]
fn subplan_replay_reconstructs_exactly_wanted_cells() {
    for layout in all_codes(7) {
        let block = 17; // odd: scalar tail in play
        let data = payload(layout.data_len() * block, 0xD0C0DE);
        let mut golden = Stripe::from_data(&layout, block, &data);
        encode_naive(&layout, &mut golden);

        let cols = [1usize, 3];
        let plan = plan_column_recovery(&layout, &cols).unwrap();
        // Want only the erased cells of the first failed column.
        let wanted: BTreeSet<_> = plan
            .erased
            .iter()
            .copied()
            .filter(|c| c.col == cols[0])
            .collect();
        assert!(!wanted.is_empty());
        let sub = plan.subplan_for(&wanted);

        let mut stripe = golden.clone();
        stripe.erase_columns(&cols);
        XorProgram::compile_plan(layout.grid(), &sub).run(&mut stripe);

        let targets: BTreeSet<_> = sub.steps.iter().map(|s| s.target).collect();
        assert!(
            targets.is_superset(&wanted),
            "{}: subplan missing wanted targets",
            layout.name()
        );
        for &cell in &wanted {
            assert_eq!(
                stripe.block(cell),
                golden.block(cell),
                "{}: wanted cell {:?} not reconstructed",
                layout.name(),
                cell
            );
        }
        // Erased cells the subplan never targeted must still be zero.
        for &cell in &plan.erased {
            if !targets.contains(&cell) {
                assert!(
                    stripe.block(cell).iter().all(|&b| b == 0),
                    "{}: untargeted cell {:?} was written",
                    layout.name(),
                    cell
                );
            }
        }
    }
}
