//! Criterion: full-stripe encode throughput for every code, all backends —
//! the naive equation interpreter, the compiled `XorProgram` schedule
//! (one stripe, from the global schedule cache), the public batch entry
//! `encode_stripes` on an 8-stripe batch at 1 thread (`batch`) and at a
//! requested 4 threads (`batch_parallel4`), both measured steady-state in
//! place, and the GF(2) bit-matrix — plus a `BENCH_encode.json`
//! trajectory point comparing naive vs compiled.
//!
//! Environment knobs (used by the CI `bench-smoke` job):
//!
//! * `DCODE_BENCH_FAST=1` — tiny blocks and few samples; exercises every
//!   code path in seconds instead of minutes.
//! * `DCODE_BENCH_ASSERT=1` — after measuring, assert that the batch
//!   encode at a (host-clamped) 4 threads is at least as fast as the same
//!   batch at 1 thread on at least one code.

use criterion::{BenchmarkId, Criterion, Throughput};
use dcode_baselines::registry::{build, EVALUATED_CODES};
use dcode_codec::{
    cache, encode_naive, encode_stripes, encode_with_matrix, generator_matrix, Stripe,
};
use std::io::Write;

const P: usize = 13;

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

/// Stripes per batch in the `batch` rows.
const BULK: usize = 8;

/// True when a 4-thread request collapses to the sequential path on this
/// host — `encode_stripes(…, 4)` and `encode_stripes(…, 1)` are then the
/// same code.
fn clamped_to_sequential() -> bool {
    minipool::effective_parallelism(4) == 1
}

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

fn bench_encode(c: &mut Criterion) {
    let block = block_bytes();
    let mut group = c.benchmark_group("encode");
    if fast() {
        group.sample_size(5);
    } else {
        // Medians over more samples: the 4-thread-vs-1-thread comparison
        // below can be a small margin on a busy host, inside 15-sample
        // noise.
        group.sample_size(41);
    }
    for &code in &EVALUATED_CODES {
        let layout = build(code, P).unwrap();
        let data = payload(layout.data_len() * block);
        let stripe = Stripe::from_data(&layout, block, &data);
        // The cached compile — what `encode` and `encode_stripes` replay.
        let program = cache::global().encode_program(&layout);
        group.throughput(Throughput::Bytes((layout.data_len() * block) as u64));
        group.bench_with_input(BenchmarkId::new("naive", code.name()), &stripe, |b, s| {
            b.iter_batched(
                || s.clone(),
                |mut s| encode_naive(&layout, &mut s),
                criterion::BatchSize::LargeInput,
            );
        });
        group.bench_with_input(
            BenchmarkId::new("compiled", code.name()),
            &stripe,
            |b, s| {
                b.iter_batched(
                    || s.clone(),
                    |mut s| program.run(&mut s),
                    criterion::BatchSize::LargeInput,
                );
            },
        );
        // The public batch entry on an 8-stripe batch, in place: encode
        // only overwrites parity, so re-encoding the same batch each
        // iteration is idempotent and measures the steady-state replay
        // rather than per-iteration clone eviction. Throughput is per
        // batch (8 × the single-stripe byte count). The 4-thread request is
        // clamped to the host's parallelism; when the clamp collapses it to
        // one thread it is the 1-thread row's code path, so it is measured
        // under a `_measured` id and the comparison row is aliased from
        // `batch` (see `emit_trajectory_point`) — timing the identical code
        // path twice and diffing the noise would be the dishonest option.
        let parallel_id = if clamped_to_sequential() {
            "batch_parallel4_measured"
        } else {
            "batch_parallel4"
        };
        group.throughput(Throughput::Bytes((layout.data_len() * block * BULK) as u64));
        for (id, threads) in [("batch", 1), (parallel_id, 4)] {
            group.bench_function(BenchmarkId::new(id, code.name()), |b| {
                let mut ss: Vec<Stripe> = (0..BULK).map(|_| stripe.clone()).collect();
                b.iter(|| encode_stripes(&layout, &mut ss, threads));
            });
        }
        group.throughput(Throughput::Bytes((layout.data_len() * block) as u64));
        let matrix = generator_matrix(&layout);
        group.bench_with_input(
            BenchmarkId::new("bitmatrix", code.name()),
            &stripe,
            |b, s| {
                b.iter_batched(
                    || s.clone(),
                    |mut s| encode_with_matrix(&layout, &matrix, &mut s),
                    criterion::BatchSize::LargeInput,
                );
            },
        );
    }
    group.finish();
}

/// Serialize the encode measurements as one JSON trajectory point at the
/// repository root (`BENCH_encode.json`), including the compiled-vs-naive
/// speedup per code.
fn emit_trajectory_point(c: &Criterion) {
    let results = c.results();
    let gib = |median_ns: f64, bytes: u64| -> f64 {
        if median_ns <= 0.0 {
            return 0.0;
        }
        bytes as f64 / median_ns * 1e9 / (1024.0 * 1024.0 * 1024.0)
    };
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
        // Clamped host: the comparison row is the 1-thread measurement
        // under the parallel id — the code paths are identical, and two
        // timings of the same path differ only by scheduler noise.
        if clamped_to_sequential() && r.id.starts_with("encode/batch/") {
            let code = r.id.rsplit('/').next().expect("id has segments");
            entries.push_str(&format!(
                "    {{\"id\": \"encode/batch_parallel4/{code}\", \"median_ns\": {:.1}, \
                 \"gib_per_s\": {:.4}, \"aliased_from\": \"encode/batch/{code}\"}},\n",
                r.median_ns,
                gib(r.median_ns, bytes)
            ));
        }
    }
    let mut speedups = String::new();
    for &code in &EVALUATED_CODES {
        let find = |backend: &str| {
            results
                .iter()
                .find(|r| r.id == format!("encode/{}/{}", backend, code.name()))
                .map(|r| r.median_ns)
        };
        if let (Some(naive), Some(compiled)) = (find("naive"), find("compiled")) {
            if compiled > 0.0 {
                speedups.push_str(&format!(
                    "    {{\"code\": \"{}\", \"speedup\": {:.3}}},\n",
                    code.name(),
                    naive / compiled
                ));
            }
        }
    }
    let json = format!(
        "{{\n  \"bench\": \"encode\",\n  \"p\": {P},\n  \"block_bytes\": {},\n  \
         \"host_parallelism\": {},\n  \"parallel4_clamped_to_sequential\": {},\n  \
         \"results\": [\n{}  ],\n  \"compiled_vs_naive\": [\n{}  ]\n}}\n",
        block_bytes(),
        minipool::host_parallelism(),
        clamped_to_sequential(),
        entries.trim_end_matches(",\n").to_string() + "\n",
        speedups.trim_end_matches(",\n").to_string() + "\n",
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_encode.json");
    match std::fs::File::create(path).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// `DCODE_BENCH_ASSERT=1`: the clamped 4-thread batch encode must not
/// lose to the 1-thread batch encode on every code — i.e. at least one
/// code has `batch_parallel4` throughput >= `batch`.
fn assert_parallel_not_slower(c: &Criterion) {
    if std::env::var("DCODE_BENCH_ASSERT").map(|v| v == "1") != Ok(true) {
        return;
    }
    let results = c.results();
    let median = |id: String| results.iter().find(|r| r.id == id).map(|r| r.median_ns);
    let ok = clamped_to_sequential()
        || EVALUATED_CODES.iter().any(|code| {
            let seq = median(format!("encode/batch/{}", code.name()));
            let par = median(format!("encode/batch_parallel4/{}", code.name()));
            matches!((seq, par), (Some(s), Some(p)) if p <= s)
        });
    assert!(
        ok,
        "batch_parallel4 slower than batch on every code — the \
         pool-parallel batch encode regressed"
    );
    if clamped_to_sequential() {
        println!(
            "bench assert ok: host clamps 4 threads to sequential; \
             batch_parallel4 is the 1-thread batch path by construction"
        );
    } else {
        println!("bench assert ok: batch_parallel4 >= batch on at least one code");
    }
}

fn main() {
    let mut c = Criterion::default();
    bench_encode(&mut c);
    emit_trajectory_point(&c);
    assert_parallel_not_slower(&c);
}
