//! Criterion: op-major vs tile-major encode replay, and thread-scaling of
//! the batch entry, emitting `BENCH_parallel.json` at the repository root.
//!
//! Three shapes are measured per code:
//!
//! * `level/…/t1` — one stripe replayed **op-major**: each op XORs its
//!   whole source blocks before the next op starts. This is a bench-local
//!   reference built from `XorProgram`'s public op accessors and the
//!   `xor_many_into_unrolled` kernel, kept so the tile-major executor has a
//!   fixed bar to clear;
//! * `bulk/…/tN` — the same op-major replay per stripe over a batch, with
//!   chunks of stripes fanned out over a dedicated N-worker
//!   [`minipool::WorkerPool`]: every source block streams from memory once
//!   per parity equation that reads it;
//! * `batch/…/tN` — the shipping path, [`XorProgram::run_batch`]: each
//!   stripe replays tile-major (every op over one tile before the tile
//!   advances), so each source block streams through cache once per
//!   stripe, and chunks of stripes fan out over the global pool.
//!
//! All three families measure **steady-state in-place** encode over the
//! **same working set** — a `bulk_stripes()`-deep stripe set, cloned once
//! per benchmark and re-encoded in place each iteration (encoding only
//! overwrites parity cells, so re-running is idempotent). The `level`
//! rows rotate through the set one stripe per iteration; the bulk and
//! batch rows encode the whole set per iteration. Keeping the working set
//! identical matters more than it looks: a clone-per-iteration scheme
//! hands the single-stripe rows a cache-warm input (the clone *is* the
//! warmup) while a 16-stripe batch evicts itself before each timed run —
//! so the ratios would measure cache capacity, not the encoder.
//!
//! The JSON records `host_parallelism` alongside the medians: on a
//! single-core host the t2/t4/t8 rows measure pool overhead, not speedup,
//! and downstream tooling needs that context to read the numbers honestly.
//!
//! * `DCODE_BENCH_FAST=1` shrinks blocks and sample counts for CI smoke.
//! * `DCODE_BENCH_ASSERT=1` asserts, per code at t1: in full mode, batch
//!   throughput is at least 90% of the op-major `level` single-stripe
//!   throughput. In fast mode that bar is structurally unreachable (a
//!   ~570 KiB stripe is L2-resident and clocks 26-31 GiB/s; any
//!   multi-stripe batch exceeds L2), so the smoke asserts a
//!   catastrophic-regression canary instead: batch ≥ 70% of the op-major
//!   bulk replay (70%, not ~100%, because five samples at µs scale on a
//!   shared vCPU jitter by ±30%).

use criterion::{BenchmarkId, Criterion, Throughput};
use dcode_baselines::registry::{build, EVALUATED_CODES};
use dcode_codec::schedule::XorProgram;
use dcode_codec::xor::xor_many_into_unrolled;
use dcode_codec::{cache, Stripe};
use minipool::WorkerPool;
use std::io::Write;
use std::sync::Arc;

const P: usize = 13;
const THREADS: [usize; 4] = [1, 2, 4, 8];

fn fast() -> bool {
    std::env::var("DCODE_BENCH_FAST").is_ok_and(|v| v == "1")
}

fn block_bytes() -> usize {
    if fast() {
        4 * 1024
    } else {
        64 * 1024
    }
}

fn bulk_stripes() -> usize {
    if fast() {
        4
    } else {
        16
    }
}

fn payload(len: usize) -> Vec<u8> {
    let mut x = 0x243F6A8885A308D3u64;
    (0..len)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 29) as u8
        })
        .collect()
}

/// One stripe's blocks in linear grid-index order — the op-major
/// reference's own storage, so it can detach a target block while reading
/// the others.
type Blocks = Vec<Box<[u8]>>;

fn blocks_of(stripe: &Stripe) -> Blocks {
    let grid = stripe.grid();
    (0..grid.len())
        .map(|i| stripe.block(grid.cell_at(i)).into())
        .collect()
}

/// Op-major replay: each op XORs its whole source blocks into its target
/// before the next op starts (the executor's order before it went
/// tile-major), through the same 16 KiB-tiled kernel the op-major
/// executor used.
fn run_op_major(program: &XorProgram, blocks: &mut Blocks) {
    for op in 0..program.op_count() {
        let target = program.op_target(op);
        let mut out = std::mem::take(&mut blocks[target]);
        let sources: Vec<&[u8]> = program
            .op_sources(op)
            .iter()
            .map(|&i| &*blocks[i as usize])
            .collect();
        xor_many_into_unrolled(&mut out, &sources);
        blocks[target] = out;
    }
}

/// The op-major bulk reference: chunk the batch across `threads` jobs of
/// `pool`, each replaying op-major per stripe. Chunks move through the
/// pool by ownership (jobs need `'static`) and are reassembled in order.
fn bulk_op_major(
    program: &Arc<XorProgram>,
    batch: &mut Vec<Blocks>,
    pool: &WorkerPool,
    threads: usize,
) {
    let threads = threads.max(1).min(batch.len().max(1));
    if threads <= 1 {
        for b in batch.iter_mut() {
            run_op_major(program, b);
        }
        return;
    }
    let chunk = batch.len().div_ceil(threads);
    let mut jobs = Vec::with_capacity(threads);
    let mut rest = std::mem::take(batch);
    while !rest.is_empty() {
        let tail = rest.split_off(chunk.min(rest.len()));
        let mut owned = std::mem::replace(&mut rest, tail);
        let prog = Arc::clone(program);
        jobs.push(move || {
            for b in &mut owned {
                run_op_major(&prog, b);
            }
            owned
        });
    }
    batch.extend(pool.run(jobs).into_iter().flatten());
}

fn bench_parallel(c: &mut Criterion) {
    let block = block_bytes();
    let mut group = c.benchmark_group("parallel");
    if fast() {
        group.sample_size(5);
    }
    for &code in &EVALUATED_CODES {
        let layout = build(code, P).unwrap();
        let program: Arc<XorProgram> = cache::global().encode_program(&layout);
        let data = payload(layout.data_len() * block);
        let stripe = Stripe::from_data(&layout, block, &data);
        let batch: Vec<Stripe> = (0..bulk_stripes()).map(|_| stripe.clone()).collect();
        let blocks: Vec<Blocks> = batch.iter().map(blocks_of).collect();
        let stripe_bytes = (layout.data_len() * block) as u64;
        group.throughput(Throughput::Bytes(stripe_bytes));
        group.bench_function(
            BenchmarkId::new(format!("level/{}", code.name()), "t1"),
            |b| {
                let mut set = blocks.clone();
                let mut k = 0;
                b.iter(|| {
                    run_op_major(&program, &mut set[k]);
                    k = (k + 1) % set.len();
                });
            },
        );
        group.throughput(Throughput::Bytes(stripe_bytes * batch.len() as u64));
        for &t in &THREADS {
            let pool = WorkerPool::with_workers(t);
            group.bench_function(
                BenchmarkId::new(format!("bulk/{}", code.name()), format!("t{t}")),
                |b| {
                    let mut set = blocks.clone();
                    b.iter(|| bulk_op_major(&program, &mut set, &pool, t));
                },
            );
            group.bench_function(
                BenchmarkId::new(format!("batch/{}", code.name()), format!("t{t}")),
                |b| {
                    let mut ss = batch.clone();
                    b.iter(|| program.run_batch(&mut ss, t));
                },
            );
        }
    }
    group.finish();
}

fn gib(median_ns: f64, bytes: u64) -> f64 {
    if median_ns <= 0.0 {
        return 0.0;
    }
    bytes as f64 / median_ns * 1e9 / (1024.0 * 1024.0 * 1024.0)
}

/// Write `BENCH_parallel.json`: every measurement plus the host context a
/// reader needs to interpret thread-scaling on this machine.
fn emit_trajectory_point(c: &Criterion) {
    let results = c.results();
    let mut entries = String::new();
    for r in results {
        let bytes = match r.throughput {
            Some(criterion::Throughput::Bytes(b)) => b,
            _ => 0,
        };
        entries.push_str(&format!(
            "    {{\"id\": \"{}\", \"median_ns\": {:.1}, \"gib_per_s\": {:.4}}},\n",
            r.id,
            r.median_ns,
            gib(r.median_ns, bytes)
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"parallel\",\n  \"p\": {P},\n  \"block_bytes\": {},\n  \
         \"bulk_stripes\": {},\n  \"threads\": [1, 2, 4, 8],\n  \
         \"host_parallelism\": {},\n  \"fused_tile_bytes\": {},\n  \"results\": [\n{}  ]\n}}\n",
        block_bytes(),
        bulk_stripes(),
        minipool::host_parallelism(),
        dcode_codec::fused_tile_bytes(),
        entries.trim_end_matches(",\n").to_string() + "\n",
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_parallel.json");
    match std::fs::File::create(path).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// `DCODE_BENCH_ASSERT=1`: per code at t1, the batch entry must clear
/// the regime-appropriate bar. Full mode: ≥ 90% of the op-major
/// single-stripe `level` throughput (op-major bulk replay historically sat
/// at ~half of `level`; tile-major replay closes that gap). Fast mode:
/// ≥ 70% of the op-major bulk replay — the level bar is a cache-capacity
/// artifact at smoke shapes (see the module docs), so CI only checks that
/// tile-major replay never catastrophically regresses against op-major.
fn assert_batch_closes_the_gap(c: &Criterion) {
    if std::env::var("DCODE_BENCH_ASSERT").map(|v| v == "1") != Ok(true) {
        return;
    }
    let results = c.results();
    let gib_of = |id: String| {
        results.iter().find(|r| r.id == id).map(|r| {
            let bytes = match r.throughput {
                Some(criterion::Throughput::Bytes(b)) => b,
                _ => 0,
            };
            gib(r.median_ns, bytes)
        })
    };
    for &code in &EVALUATED_CODES {
        let batch = gib_of(format!("parallel/batch/{}/t1", code.name()))
            .expect("batch t1 row was measured");
        let (baseline, frac, what) = if fast() {
            let bulk = gib_of(format!("parallel/bulk/{}/t1", code.name()))
                .expect("bulk t1 row was measured");
            (bulk, 0.7, "op-major bulk")
        } else {
            let level = gib_of(format!("parallel/level/{}/t1", code.name()))
                .expect("level t1 row was measured");
            (level, 0.9, "op-major level")
        };
        assert!(
            batch >= frac * baseline,
            "{}: batch {batch:.3} GiB/s < {:.0}% of {what} {baseline:.3} GiB/s — \
             tile-major batch replay regressed below the gap-closing bar",
            code.name(),
            frac * 100.0
        );
        println!(
            "bench assert ok: {} batch {batch:.3} GiB/s >= {:.0}% of {what} {baseline:.3} GiB/s",
            code.name(),
            frac * 100.0
        );
    }
}

fn main() {
    let mut c = Criterion::default();
    bench_parallel(&mut c);
    emit_trajectory_point(&c);
    assert_batch_closes_the_gap(&c);
}
