//! Layer timings taken on their own, on the shards' geometry: the block
//! checksum and the codec's cached programs. Each is the median of
//! several timed batches, and each checks its output.

use crate::stats::median;
use crate::workload::value_for;
use dcode_codec::{encode_stripes, ScheduleCache, Stripe};
use dcode_core::layout::CodeLayout;
use dcode_server::ShardConfig;
use std::hint::black_box;
use std::time::Instant;

const BATCHES: usize = 7;

/// Median seconds per call of `f`, over batches of `calls`.
fn per_call(calls: usize, mut f: impl FnMut()) -> f64 {
    let mut secs: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..calls {
                f();
            }
            #[allow(clippy::cast_precision_loss)]
            let s = t0.elapsed().as_secs_f64() / calls as f64;
            s
        })
        .collect();
    median(&mut secs)
}

fn geometry() -> (CodeLayout, usize) {
    let cfg = ShardConfig::default();
    (cfg.layout, cfg.block_size)
}

fn stripe(layout: &CodeLayout, block: usize, seed: u64, n: usize) -> Stripe {
    Stripe::from_data(
        layout,
        block,
        &value_for(seed, 0, n, 0, layout.data_len() * block),
    )
}

fn same(a: &Stripe, b: &Stripe) -> bool {
    a.grid().cells().all(|c| a.block(c) == b.block(c))
}

pub struct Micro {
    pub crc_mib_s: f64,
    pub encode_stripe_us: f64,
    pub fused_encode_gib_s: f64,
    pub recover_column_us: f64,
    /// Outputs that disagreed with the reference.
    pub failed: u64,
    pub attempted: u64,
}

pub fn measure(seed: u64) -> Micro {
    let (layout, block) = geometry();
    let mut failed = 0;

    let buf = value_for(seed, 0, 0, 1, block);
    #[allow(clippy::cast_precision_loss)]
    let crc_mib_s = block as f64
        / (1 << 20) as f64
        / per_call(2000, || {
            black_box(dcode_faults::crc32(black_box(&buf)));
        });
    failed += u64::from(dcode_faults::crc32(b"123456789") != 0xCBF4_3926);

    let cache = ScheduleCache::new();
    let program = cache.encode_program(&layout);
    let mut one = stripe(&layout, block, seed, 0);
    let encode_stripe_us = 1e6 * per_call(500, || program.run(black_box(&mut one)));

    let mut batch: Vec<Stripe> = (0..3).map(|n| stripe(&layout, block, seed, n)).collect();
    let fused_s = per_call(200, || encode_stripes(&layout, black_box(&mut batch), 1));
    #[allow(clippy::cast_precision_loss)]
    let fused_encode_gib_s = (3 * layout.data_len() * block) as f64 / (1u64 << 30) as f64 / fused_s;
    for (n, got) in batch.iter().enumerate() {
        let mut want = stripe(&layout, block, seed, n);
        program.run(&mut want);
        failed += u64::from(!same(got, &want));
    }

    let col = usize::try_from(seed % layout.disks() as u64).expect("small");
    let recovery = cache
        .column_program(&layout, &[col])
        .expect("one lost column is recoverable");
    let mut lost = one;
    let recover_column_us = 1e6 * per_call(500, || recovery.program.run(black_box(&mut lost)));
    let mut want = stripe(&layout, block, seed, 0);
    program.run(&mut want);
    lost.erase_columns(&[col]);
    recovery.program.run(&mut lost);
    failed += u64::from(!same(&lost, &want));

    Micro {
        crc_mib_s,
        encode_stripe_us,
        fused_encode_gib_s,
        recover_column_us,
        failed,
        attempted: 6,
    }
}
