//! The traced replay: a workload's seeded op stream run single-threaded
//! straight into `ObjectStore<TimedIo<ResilientArray<Counted<..>>>>`, one
//! store per shard as the server routes them, so every block operation
//! and every array call is attributed to exactly one request.

use crate::layers::{Counted, IoCount, IoCounters, Layer, Medium, Span, Spans, TimedIo};
use crate::workload::{key_name, value_for, victim_disk, OpStream, Workload, CONNS};
use dcode_array::{ObjectStore, ResilientArray};
use dcode_faults::MemBackend;
use dcode_server::{shard_blocks, shard_of, ServerConfig, ShardBackend};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

type Store = ObjectStore<TimedIo<ResilientArray<ShardBackend>>>;

/// What one replayed request cost, layer by layer.
#[derive(Clone, Copy, Debug)]
pub struct OpCost {
    pub put: bool,
    pub objstore_ns: u64,
    pub array_calls: u64,
    pub array_ns: u64,
    /// Block work of the whole request.
    pub io: IoCount,
    pub degraded_reads: u64,
}

impl OpCost {
    pub fn self_objstore_ns(&self) -> u64 {
        self.objstore_ns - self.array_ns
    }

    /// Array time not spent in the backend.
    pub fn self_array_ns(&self) -> u64 {
        self.array_ns - self.io.busy_ns
    }
}

pub struct Replay {
    pub ops: Vec<OpCost>,
    pub spans: Vec<Span>,
    pub attempted: u64,
    pub failed: u64,
}

struct Shards {
    stores: Vec<Store>,
    io: Vec<Arc<IoCounters>>,
    spans: Rc<RefCell<Spans>>,
}

impl Shards {
    fn new(seed: u64, fail: &Arc<AtomicBool>) -> Result<Shards, String> {
        let config = ServerConfig::default();
        let cfg = &config.shard;
        let disks = cfg.layout.disks();
        let spans = Spans::new();
        let (mut stores, mut io) = (Vec::new(), Vec::new());
        for shard in 0..config.shards {
            let counters = Arc::new(IoCounters::default());
            let mem = MemBackend::new(disks, shard_blocks(cfg), cfg.block_size);
            let medium = Medium::new(
                mem,
                shard,
                victim_disk(seed, shard, disks),
                Arc::clone(fail),
                None,
            );
            let backend: ShardBackend = Box::new(Counted::new(medium, Arc::clone(&counters)));
            let array = ResilientArray::format_journaled(
                cfg.layout.clone(),
                cfg.block_size,
                cfg.stripes,
                cfg.rotation,
                backend,
                cfg.policy,
                cfg.fail_threshold,
            );
            let timed = TimedIo::new(array, Rc::clone(&spans), Arc::clone(&counters));
            stores.push(ObjectStore::format(timed, cfg.meta_elements).map_err(|e| e.to_string())?);
            io.push(counters);
        }
        Ok(Shards { stores, io, spans })
    }

    /// Run one request as request `req`; the flag is whether the outcome
    /// agrees with the ledger.
    fn run(
        &mut self,
        req: u32,
        name: &str,
        put: Option<&[u8]>,
        expect: Option<&[u8]>,
    ) -> (bool, OpCost) {
        let shard = shard_of(name, self.stores.len());
        let store = &mut self.stores[shard];
        let degraded0 = store.array().inner().stats().degraded_reads;
        let io0 = self.io[shard].get();
        let first = {
            let mut spans = self.spans.borrow_mut();
            spans.req = req;
            spans.spans.len()
        };
        let start_ns = self.spans.borrow().now_ns();
        let ok = match put {
            Some(value) => store.upsert(name, value).is_ok(),
            None => store.get(name).ok().as_deref() == expect,
        };
        let mut spans = self.spans.borrow_mut();
        let end_ns = spans.now_ns();
        let objstore_ns = end_ns - start_ns;
        let io = self.io[shard].get() - io0;
        let children = &spans.spans[first..];
        let cost = OpCost {
            put: put.is_some(),
            objstore_ns,
            array_calls: children.len() as u64,
            array_ns: children.iter().map(Span::ns).sum(),
            io,
            degraded_reads: store.array().inner().stats().degraded_reads - degraded0,
        };
        spans.spans.push(Span {
            req,
            layer: Layer::ObjStore,
            write: put.is_some(),
            start_ns,
            end_ns,
            io,
        });
        (ok, cost)
    }

    fn failed_shards(&self) -> usize {
        self.stores
            .iter()
            .filter(|s| !s.array().inner().failed_slots().is_empty())
            .count()
    }
}

/// One connection's ledger in the replay.
struct Ledger {
    stream: OpStream,
    version: Vec<u64>,
}

/// Replay preload, warm-up and `w.replay_ops` ops per connection, with
/// the connections' ops interleaved one by one.
pub fn replay(w: &Workload, seed: u64) -> Result<Replay, String> {
    let fail = Arc::new(AtomicBool::new(false));
    let mut shards = Shards::new(seed, &fail)?;
    let mut conns: Vec<Ledger> = (0..CONNS)
        .map(|c| Ledger {
            stream: OpStream::new(w, seed, c),
            version: vec![0; w.keys_per_conn],
        })
        .collect();
    let mut out = Replay {
        ops: Vec::new(),
        spans: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let mut req = 0u32;
    let mut step = |shards: &mut Shards,
                    conns: &mut [Ledger],
                    (c, is_put, key): (usize, bool, usize),
                    record: bool| {
        let name = key_name(c, key);
        let ledger = &mut conns[c];
        let (ok, cost) = if is_put {
            ledger.version[key] += 1;
            let value = value_for(seed, c, key, ledger.version[key], w.value_bytes);
            shards.run(req, &name, Some(&value), None)
        } else {
            let expect = value_for(seed, c, key, ledger.version[key], w.value_bytes);
            shards.run(req, &name, None, Some(&expect))
        };
        req += 1;
        out.attempted += 1;
        out.failed += u64::from(!ok);
        if record {
            out.ops.push(cost);
        }
    };
    for key in 0..w.keys_per_conn {
        for c in 0..CONNS {
            step(&mut shards, &mut conns, (c, true, key), false);
        }
    }
    fail.store(w.degraded, Ordering::Relaxed);
    let mut rounds = 0;
    loop {
        for _ in 0..w.keys_per_conn {
            for c in 0..CONNS {
                let (is_put, key) = conns[c].stream.next_op();
                step(&mut shards, &mut conns, (c, is_put, key), false);
            }
        }
        rounds += 1;
        if !w.degraded || shards.failed_shards() == shards.stores.len() {
            break;
        }
        if rounds == 20 {
            return Err("replay warm-up never reached every failed disk".into());
        }
    }
    shards.spans.borrow_mut().spans.clear();
    for _ in 0..w.replay_ops {
        for c in 0..CONNS {
            let (is_put, key) = conns[c].stream.next_op();
            step(&mut shards, &mut conns, (c, is_put, key), true);
        }
    }
    out.spans = std::mem::take(&mut shards.spans.borrow_mut().spans);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rebuild::rebuild_all;
    use crate::workload::by_name;

    fn counts(w: &Workload, seed: u64, put: bool) -> Vec<(u64, u64, u64, u64)> {
        let short = Workload {
            replay_ops: 20,
            ..*w
        };
        let r = replay(&short, seed).expect("replay runs");
        assert_eq!(r.failed, 0, "replay disagreed with its ledger");
        r.ops
            .iter()
            .filter(|o| o.put == put)
            .map(|o| (o.io.reads, o.io.writes, o.io.flushes, o.array_calls))
            .collect()
    }

    /// The per-request I/O counts later changes may claim against. Every
    /// request must repeat them exactly, across runs and seeds.
    #[test]
    fn pinned_io_counts_repeat_exactly() {
        let small = by_name("small_overwrite").expect("workload");
        let read = by_name("read_mostly").expect("workload");
        for seed in [1, 2] {
            for _ in 0..2 {
                let puts = counts(small, seed, true);
                assert!(!puts.is_empty());
                assert!(
                    puts.iter().all(|&c| c == (105, 107, 27, 3)),
                    "1 KiB overwrite upsert (reads, writes, flushes, array calls): {puts:?}"
                );
                let gets = counts(read, seed, false);
                assert!(!gets.is_empty());
                assert!(
                    gets.iter()
                        .all(|&(reads, writes, _, _)| (reads, writes) == (1, 0)),
                    "healthy 1-block GET: {gets:?}"
                );
            }
        }
    }

    /// Every `rebuild_step` call rebuilds one stripe's column of the
    /// victim disk and must read exactly five blocks per rebuilt block,
    /// on media filled with seeded data, across runs and seeds.
    #[test]
    fn rebuild_reads_five_blocks_per_rebuilt_block() {
        let config = ServerConfig::default();
        let cfg = &config.shard;
        let media = |seed: u64, shard: usize| {
            let mut array = ResilientArray::format_journaled(
                cfg.layout.clone(),
                cfg.block_size,
                cfg.stripes,
                cfg.rotation,
                MemBackend::new(cfg.layout.disks(), shard_blocks(cfg), cfg.block_size),
                cfg.policy,
                cfg.fail_threshold,
            );
            // Fill the data region; the object index stays empty.
            let bytes = (array.capacity_elements() - cfg.meta_elements) * cfg.block_size;
            array
                .write(cfg.meta_elements, &value_for(seed, shard, 0, 1, bytes))
                .expect("fill");
            array.into_backend()
        };
        for seed in [1, 2] {
            for _ in 0..2 {
                let mut shards: Vec<MemBackend> =
                    (0..config.shards).map(|shard| media(seed, shard)).collect();
                let rebuilt = rebuild_all(&mut shards, &[], seed, true).expect("rebuild");
                assert_eq!(rebuilt.failed, 0);
                assert_eq!(
                    rebuilt.steps.len(),
                    config.shards * cfg.stripes,
                    "one step per stripe"
                );
                assert!(
                    rebuilt
                        .steps
                        .iter()
                        .all(|&(reads, blocks)| blocks == cfg.layout.rows() as u64
                            && reads == 5 * blocks),
                    "(reads, rebuilt blocks) per stripe: {:?}",
                    rebuilt.steps
                );
            }
        }
    }
}
