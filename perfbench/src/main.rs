//! The repository benchmark: the D-Code object server (`dcode serve`
//! defaults: dcode(7), 4 KiB blocks, 64 stripes, 4 shards, queue cap 128,
//! one `MemBackend` per shard) started in-process and driven by two
//! client connections, then each shard's medium rebuilt after a disk
//! loss.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload small_overwrite --seed 1 --seconds 24 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, measured with no wrappers
//! around any layer: both connections send back to back (a closed loop),
//! over several independent server starts. `--trace 1` prints the
//! per-layer metrics, from a separate run with counting wrappers, `STAT`
//! snapshots around a closed- and an open-loop phase, a single-threaded
//! span-traced replay of the same op stream, and the layer timings of
//! `micro`.
//!
//! End-to-end latencies come from the closed loop because on a small
//! shared host an open loop at a fixed rate is not repeatable: when the
//! host slows down, the backlog behind each stall multiplies latency
//! several-fold, while closed-loop latencies move with the host's speed
//! only. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! A record of the run (host, toolchain, sample counts, spans) is
//! written to `perfbench/out/`.
//!
//! `MemBackend`'s flush is a no-op, so flushes show up only as counts.

mod layers;
mod load;
mod micro;
mod rebuild;
mod replay;
mod stats;
mod workload;

use load::{Running, Stat, Tally};
use replay::OpCost;
use stats::{median, percentile, ratio};
use std::fmt::Write as _;
use std::process::Command;
use workload::Workload;

/// Independent server starts per untraced run, each running its share of
/// `--seconds` and a rebuild of its shards. On a small host the latency
/// of one start depends on where the scheduler first placed the server's
/// threads, and stays there; pooling several starts, and taking the
/// median of their tails, is what makes a run repeat.
const SEGMENTS: usize = 4;
/// Shortest run whose server starts still each draw the 1000 samples a
/// p99 needs, at the slowest workload's rate.
const MIN_SECONDS: f64 = 20.0;
/// Untraced and traced server starts each, alternated, that the tracing
/// overhead is taken over.
const OVERHEAD_STARTS: usize = 2;
/// Fewest open-loop samples the traced run takes, so its lag p99 has ten
/// samples beyond it.
const MIN_OPEN_SAMPLES: f64 = 1100.0;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .ok_or_else(|| format!("missing {name}"))
    };
    let workload = flag("--workload")?;
    Ok(Args {
        workload: workload::by_name(workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?,
        seed: flag("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: flag("--seconds")?
            .parse()
            .ok()
            .filter(|&s| s >= MIN_SECONDS)
            .ok_or_else(|| format!("--seconds must be a number of at least {MIN_SECONDS}"))?,
        trace: match flag("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

/// Metrics in print order, with the run's outcome counts.
#[derive(Default)]
struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    /// Extra lines for the run record.
    notes: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn count(&mut self, tally: &Tally) {
        self.attempted += tally.attempted;
        self.failed += tally.failed;
    }

    fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                metrics,
                "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed
        )
    }
}

#[allow(clippy::cast_precision_loss)]
fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn mean_us(ns: &[u64]) -> f64 {
    ratio(ns.iter().sum(), ns.len() as u64) / 1e3
}

/// Mean of `f` over the replayed requests `ops`.
fn per_op(ops: &[&OpCost], f: impl Fn(&OpCost) -> u64) -> f64 {
    ratio(ops.iter().map(|o| f(o)).sum(), ops.len() as u64)
}

/// A percentile that has ten samples beyond it, or an error naming it.
fn pct(samples: &mut [u64], q: f64, what: &str) -> Result<u64, String> {
    percentile(samples, q).ok_or_else(|| format!("{what}: {} samples are too few", samples.len()))
}

fn end_to_end(a: &Args, r: &mut Report) -> Result<(), String> {
    let w = a.workload;
    #[allow(clippy::cast_precision_loss)]
    let share = a.seconds / SEGMENTS as f64;
    let (mut setups, mut rates, mut rebuilds) = (Vec::new(), Vec::new(), Vec::new());
    let (mut puts, mut gets, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..SEGMENTS {
        let mut run = Running::start(w, a.seed, false)?;
        setups.push(run.setup_s);
        r.count(&run.setup_tally);
        let closed = run.closed(share);
        rates.extend(closed.window_rates());
        let mut all: Vec<u64> = closed
            .put_ns
            .iter()
            .chain(&closed.get_ns)
            .copied()
            .collect();
        p99s.extend(percentile(&mut all, 0.99).map(ms));
        puts.extend(&closed.put_ns);
        gets.extend(&closed.get_ns);
        r.count(&closed);
        r.count(&run.verify());
        let objects = run.acked_objects();
        let mut media = run.stop()?;
        let rebuilt = rebuild::rebuild_all(&mut media, &objects, a.seed, false)?;
        r.attempted += rebuilt.attempted;
        r.failed += rebuilt.failed;
        rebuilds.extend(rebuilt.mib_s);
    }
    if p99s.len() * 2 < SEGMENTS {
        return Err(format!(
            "only {} server starts had the samples for a p99",
            p99s.len()
        ));
    }
    r.notes.push(format!(
        "\"samples\":{{\"puts\":{},\"gets\":{},\"windows\":{},\"rebuilds\":{}}},\"segment_p99_ms\":{p99s:?}",
        puts.len(),
        gets.len(),
        rates.len(),
        rebuilds.len()
    ));
    // Per-class tails go to the record only where the class has the
    // samples for them.
    for (class, samples) in [("put", &mut puts), ("get", &mut gets)] {
        if let Some(p99) = percentile(samples, 0.99) {
            r.notes.push(format!("\"{class}_p99_ms\":{}", ms(p99)));
        }
    }
    r.metric("setup_s", median(&mut setups), "s");
    r.metric("ops_per_s", median(&mut rates), "1/s");
    r.metric("put_p50_ms", ms(pct(&mut puts, 0.5, "PUT p50")?), "ms");
    r.metric("get_p50_ms", ms(pct(&mut gets, 0.5, "GET p50")?), "ms");
    r.metric("p99_ms", median(&mut p99s), "ms");
    r.metric("rebuild_mib_s", median(&mut rebuilds), "MiB/s");
    Ok(())
}

#[allow(clippy::cast_precision_loss, clippy::too_many_lines)]
fn per_layer(a: &Args, r: &mut Report) -> Result<Vec<layers::Span>, String> {
    let w = a.workload;
    let phase = a.seconds / 4.0;

    // Untraced and traced closed loops, alternated over several server
    // starts: the tracing overhead is the ratio of their per-start median
    // rates, so the placement luck of one start does not decide it.
    let (mut base_rates, mut traced_rates) = (Vec::new(), Vec::new());
    for _ in 0..OVERHEAD_STARTS {
        for (counted, rates) in [(false, &mut base_rates), (true, &mut traced_rates)] {
            let mut run = Running::start(w, a.seed, counted)?;
            let closed = run.closed(phase / 2.0);
            rates.push(median(&mut closed.window_rates()));
            r.count(&run.setup_tally);
            r.count(&closed);
            r.count(&run.verify());
        }
    }

    let mut run = Running::start(w, a.seed, true)?;
    r.count(&run.setup_tally);
    let io0: Vec<_> = run.io.iter().map(|c| c.get()).collect();
    let s0 = Stat::read(&run.server)?;
    let closed = run.closed(phase);
    let s1 = Stat::read(&run.server)?;
    let io1: Vec<_> = run.io.iter().map(|c| c.get()).collect();
    let mut open = run.open(phase.max(MIN_OPEN_SAMPLES / w.open_rate), w.open_rate);
    let s2 = Stat::read(&run.server)?;
    let verify = run.verify();
    for t in [&closed, &open, &verify] {
        r.count(t);
    }
    let objects = run.acked_objects();
    let mut media = run.stop()?;
    let rebuilt = rebuild::rebuild_all(&mut media, &objects, a.seed, true)?;
    r.attempted += rebuilt.attempted;
    r.failed += rebuilt.failed;

    let replay = replay::replay(w, a.seed)?;
    r.attempted += replay.attempted;
    r.failed += replay.failed;
    let micro = micro::measure(a.seed);
    r.attempted += micro.attempted;
    r.failed += micro.failed;

    let puts: Vec<&OpCost> = replay.ops.iter().filter(|o| o.put).collect();
    let gets: Vec<&OpCost> = replay.ops.iter().filter(|o| !o.put).collect();
    let phase_stat = s1.since(&s0);
    let both_phases = s2.since(&s0);
    let server_put_us = phase_stat.put_sum_us / phase_stat.put_count;
    let server_get_us = phase_stat.get_sum_us / phase_stat.get_count;
    let upsert_us = per_op(&puts, |o| o.objstore_ns) / 1e3;
    let get_us = per_op(&gets, |o| o.objstore_ns) / 1e3;
    let server_reads: u64 = io1.iter().zip(&io0).map(|(b, a)| b.reads - a.reads).sum();
    let hits = both_phases.schedule_hits;
    let closed_ops = closed.ops() as f64;
    #[rustfmt::skip]
    let metrics = [
        ("crc.mib_s", micro.crc_mib_s, "MiB/s"),
        ("backend.reads_per_put", per_op(&puts, |o| o.io.reads), "count"),
        ("backend.writes_per_put", per_op(&puts, |o| o.io.writes), "count"),
        ("backend.flushes_per_put", per_op(&puts, |o| o.io.flushes), "count"),
        ("backend.busy_us_per_put", per_op(&puts, |o| o.io.busy_ns) / 1e3, "us"),
        ("objstore.array_calls_per_upsert", per_op(&puts, |o| o.array_calls), "count"),
        ("objstore.upsert_us", upsert_us, "us"),
        ("objstore.self_upsert_us", per_op(&puts, OpCost::self_objstore_ns) / 1e3, "us"),
        ("resilient.write_us", per_op(&puts, |o| o.array_ns) / 1e3, "us"),
        ("resilient.self_write_us", per_op(&puts, OpCost::self_array_ns) / 1e3, "us"),
        ("resilient.element_writes_per_put", phase_stat.element_writes / phase_stat.put_count, "count"),
        ("journal.records_per_put", phase_stat.journal_records / phase_stat.put_count, "count"),
        ("server.frontend_put_us", mean_us(&closed.put_ns) - server_put_us, "us"),
        ("server.frontend_get_us", mean_us(&closed.get_ns) - server_get_us, "us"),
        ("shard.put_us", server_put_us, "us"),
        ("shard.get_us", server_get_us, "us"),
        ("shard.wait_put_us", server_put_us - upsert_us, "us"),
        ("shard.wait_get_us", server_get_us - get_us, "us"),
        ("objstore.get_us", get_us, "us"),
        ("resilient.read_us", per_op(&gets, |o| o.array_ns) / 1e3, "us"),
        ("resilient.self_read_us", per_op(&gets, OpCost::self_array_ns) / 1e3, "us"),
        ("backend.reads_per_get", per_op(&gets, |o| o.io.reads), "count"),
        ("backend.busy_us_per_get", per_op(&gets, |o| o.io.busy_ns) / 1e3, "us"),
        ("resilient.degraded_reads_per_get", per_op(&gets, |o| o.degraded_reads), "count"),
        ("backend.reads_per_op", server_reads as f64 / closed_ops, "count"),
        ("codec.encode_stripe_us", micro.encode_stripe_us, "us"),
        ("codec.fused_encode_gib_s", micro.fused_encode_gib_s, "GiB/s"),
        ("codec.recover_column_us", micro.recover_column_us, "us"),
        ("codec.schedule_hit_rate", hits / (hits + both_phases.schedule_misses), "ratio"),
        ("resilient.rebuild_reads_per_block", ratio(rebuilt.io.reads, rebuilt.blocks), "count"),
        ("resilient.rebuild_us_per_block", ratio(rebuilt.wall_ns, rebuilt.blocks) / 1e3, "us"),
        ("backend.busy_us_per_block", ratio(rebuilt.io.busy_ns, rebuilt.blocks) / 1e3, "us"),
        ("loadgen.lag_p99_ms", ms(pct(&mut open.lag_ns, 0.99, "open-loop lag p99")?), "ms"),
        ("trace.overhead", median(&mut traced_rates) / median(&mut base_rates) - 1.0, "ratio"),
    ];
    for (name, value, unit) in metrics {
        r.metric(name, value, unit);
    }
    r.notes.push(format!(
        "\"samples\":{{\"replay_puts\":{},\"replay_gets\":{},\"closed_ops\":{},\"open_ops\":{}}},\
         \"overhead_rates\":{{\"untraced\":{base_rates:?},\"traced\":{traced_rates:?}}}",
        puts.len(),
        gets.len(),
        closed.ops(),
        open.ops()
    ));
    Ok(replay.spans)
}

/// The first line a command prints, or "unknown".
fn probe(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn write_record(a: &Args, r: &Report, spans: &[layers::Span]) -> Result<(), String> {
    let mut doc = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"git_rev\":\"{}\",\"nproc\":{},\"rustc\":\"{}\",\
         \"backend\":\"MemBackend (flush is a no-op)\",\"result\":{}",
        a.workload.name,
        a.seed,
        a.seconds,
        u8::from(a.trace),
        probe("git", &["rev-parse", "HEAD"]),
        std::thread::available_parallelism().map_or(0, usize::from),
        probe("rustc", &["--version"]),
        r.json(),
    );
    for note in &r.notes {
        let _ = write!(doc, ",{note}");
    }
    doc.push_str(",\"spans\":[");
    for (i, s) in spans.iter().enumerate() {
        let _ = write!(
            doc,
            "{}{{\"req\":{},\"layer\":\"{}\",\"op\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
             \"backend\":{{\"reads\":{},\"writes\":{},\"flushes\":{},\"busy_ns\":{}}}}}",
            if i == 0 { "" } else { "," },
            s.req,
            match s.layer {
                layers::Layer::ObjStore => "objstore",
                layers::Layer::Array => "resilient",
            },
            if s.write { "write" } else { "read" },
            s.start_ns,
            s.end_ns,
            s.io.reads,
            s.io.writes,
            s.io.flushes,
            s.io.busy_ns
        );
    }
    doc.push_str("]}\n");
    let dir = std::path::Path::new("perfbench/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        a.workload.name,
        a.seed,
        u8::from(a.trace)
    ));
    std::fs::write(&path, doc).map_err(|e| format!("{}: {e}", path.display()))
}

fn main() {
    let result = parse_args().and_then(|a| {
        let mut r = Report::default();
        let spans = if a.trace {
            per_layer(&a, &mut r)?
        } else {
            end_to_end(&a, &mut r)?;
            Vec::new()
        };
        write_record(&a, &r, &spans)?;
        if let Some((name, value, _)) = r.metrics.iter().find(|m| !m.1.is_finite()) {
            return Err(format!("metric {name} is {value}"));
        }
        Ok(r)
    });
    match result {
        Ok(r) => println!("{}", r.json()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
