//! Tile-size sweep for the tile-major executor, at the same shape the
//! `parallel` bench measures (p = 13, 64 KiB blocks, 16-stripe batches):
//! for every registry code, time one-thread `run_batch` replay with the
//! process's calibrated tile and then across a sweep of explicit tile
//! sizes, printing GiB/s per point. This is the measurement
//! behind the calibration probe's candidate set
//! ([`dcode_codec::tile::TILE_CANDIDATES`]) and behind the tile the
//! committed `BENCH_parallel.json` was generated with — rerun it when
//! moving to a new host.
//!
//! Usage: `fused_tile_study [p] [block_bytes] [batch]`

use dcode_baselines::registry::{build, EVALUATED_CODES};
use dcode_codec::{fused_tile_bytes, Stripe, XorProgram};
use std::sync::Arc;
use std::time::Instant;

const TILES: [usize; 6] = [
    4 * 1024,
    8 * 1024,
    16 * 1024,
    32 * 1024,
    64 * 1024,
    128 * 1024,
];
const REPS: usize = 5;

fn payload(len: usize) -> Vec<u8> {
    let mut x = 0x9E3779B97F4A7C15u64;
    (0..len)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as u8
        })
        .collect()
}

fn gib_per_s(bytes: usize, elapsed_ns: u128) -> f64 {
    bytes as f64 / elapsed_ns as f64 * 1e9 / (1024.0 * 1024.0 * 1024.0)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let p: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(13);
    let block: usize = args
        .next()
        .and_then(|a| a.parse().ok())
        .unwrap_or(64 * 1024);
    let batch: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(16);

    println!(
        "tile sweep: p={p} block={block} batch={batch} reps={REPS} calibrated={}",
        fused_tile_bytes()
    );
    println!(
        "{:<10} {:>10} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "code", "calibrated", "4K", "8K", "16K", "32K", "64K", "128K"
    );
    for &code in &EVALUATED_CODES {
        let layout = build(code, p).unwrap();
        let program = Arc::new(XorProgram::compile_encode(&layout));
        let data = payload(layout.data_len() * block);
        let stripe = Stripe::from_data(&layout, block, &data);
        let batch_stripes: Vec<Stripe> = (0..batch).map(|_| stripe.clone()).collect();
        let bytes = layout.data_len() * block * batch;

        // Best-of-REPS replay in place: encode overwrites only parity, so
        // re-running on the same batch is idempotent and measures the
        // steady-state encode rather than the cache eviction a fresh
        // 146 MB clone causes.
        let mut ss = batch_stripes.clone();
        let mut calibrated_ns = u128::MAX;
        for _ in 0..REPS {
            let t0 = Instant::now();
            program.run_batch(&mut ss, 1);
            calibrated_ns = calibrated_ns.min(t0.elapsed().as_nanos());
        }

        let mut row = format!(
            "{:<10} {:>10.3}",
            code.name(),
            gib_per_s(bytes, calibrated_ns)
        );
        for &tile in &TILES {
            let mut best = u128::MAX;
            for _ in 0..REPS {
                let t0 = Instant::now();
                program.run_batch_tiled(&mut ss, 1, tile);
                best = best.min(t0.elapsed().as_nanos());
            }
            row.push_str(&format!(" {:>9.3}", gib_per_s(bytes, best)));
        }
        println!("{row}");
    }
}
