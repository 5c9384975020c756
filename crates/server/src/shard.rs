//! One shard: a bounded work queue in front of a worker thread that owns
//! an [`ObjectStore`] over a [`ResilientArray`].
//!
//! All array state is single-threaded inside the worker — no locks on the
//! I/O path, no sharing of the schedule cache across shards (each array
//! embeds its own, so its hit rate measures *that shard's* steady state).
//! Concurrency comes from sharding: requests are routed by [`shard_of`]
//! (FNV-1a of the object name, modulo shard count), so independent
//! objects land on independent arrays and proceed in parallel.
//!
//! The queue is **bounded**. `try_push` on a full queue fails immediately
//! with the current depth, which the front end converts into a typed
//! `Busy` response — backpressure the client can see and pace against,
//! instead of an unbounded queue that converts overload into latency and
//! then into memory exhaustion. A test hook ([`ShardQueue::set_stalled`])
//! parks the worker without touching the store, making queue-full
//! behaviour deterministic to test.
//!
//! The worker drains the queue in **batches** ([`ShardQueue`]'s
//! `pop_batch`): it blocks for the first job, then greedily takes
//! whatever else is already queued (up to a cap) without waiting. Every
//! op in the batch executes, then ONE snapshot is published covering all
//! of them, then the replies go out in arrival order — so a loaded shard
//! pays one snapshot/publish per drain instead of one per op, while the
//! ack-after-durable and publish-before-reply orderings dcode-race
//! model-checks are preserved verbatim (each ack still follows a publish
//! that reflects its op). Large multi-stripe writes inside each PUT batch
//! further in `ResilientArray::write` (one `run_batch` re-encode per
//! write, chunked over the worker pool), so a busy server keeps the pool
//! warm without the shard layer knowing anything about stripes.

use crate::metrics::{json_escape, ServerMetrics};
use crate::protocol::Response;
use dcode_array::{
    journal_blocks_per_disk, ObjectStore, ReplaySummary, ResilientArray, ResilientStats,
    RetryPolicy, RotationScheme, StoreError,
};
use dcode_codec::CacheStats;
use dcode_core::layout::CodeLayout;
use dcode_core::Fnv1a;
use dcode_faults::{DiskBackend, DiskError};
use minisim::sync::{mpsc, Arc, Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::PoisonError;
use std::time::Instant;

/// The backend type shards store behind: any [`DiskBackend`] that can move
/// to the worker thread (file-backed, in-memory, fault-injected…).
pub type ShardBackend = Box<dyn DiskBackend + Send>;

/// The store a shard worker owns.
pub type ShardStore = ObjectStore<ResilientArray<ShardBackend>>;

/// Route an object name to a shard: FNV-1a over the name bytes, modulo
/// the shard count. Stable across runs and processes (the hasher is
/// pinned, unlike `DefaultHasher`), so a restarted server finds every
/// object where the previous process put it.
pub fn shard_of(name: &str, shards: usize) -> usize {
    assert!(shards > 0);
    let mut h = Fnv1a::new();
    h.bytes(name.as_bytes());
    (h.finish() % shards as u64) as usize
}

/// Geometry and policy for every shard's array.
#[derive(Clone, Debug)]
pub struct ShardConfig {
    /// The RAID-6 code each shard runs.
    pub layout: CodeLayout,
    /// Bytes per element block.
    pub block_size: usize,
    /// Stripes per shard array.
    pub stripes: usize,
    /// Logical→physical column rotation.
    pub rotation: RotationScheme,
    /// Elements reserved for each store's index.
    pub meta_elements: usize,
    /// Transient-error retry policy.
    pub policy: RetryPolicy,
    /// Hard errors on one slot before it is auto-failed.
    pub fail_threshold: usize,
    /// Bounded queue capacity per shard.
    pub queue_cap: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            layout: dcode_core::dcode::dcode(7).expect("7 is prime"),
            block_size: 4096,
            stripes: 64,
            rotation: RotationScheme::PerStripe,
            meta_elements: 8,
            policy: RetryPolicy::default(),
            fail_threshold: 8,
            queue_cap: 128,
        }
    }
}

/// Blocks each backend disk must provide for this geometry: the data
/// region plus the parity-intent journal tail. Size every shard backend
/// with this, not `stripes * rows` — the journal lives past the stripes.
pub fn shard_blocks(cfg: &ShardConfig) -> usize {
    cfg.stripes * cfg.layout.rows() + journal_blocks_per_disk(&cfg.layout, cfg.block_size)
}

/// Build a shard's store over `backend`: `fresh` formats a new journaled
/// array and store; otherwise the array is attached to the existing
/// medium — which **replays any committed parity-intent records first**
/// (closing the write hole from a previous crash), then seeds CRCs from
/// disk content — and the store index is read back from it. Either way
/// the shard only starts accepting ops over a consistent array.
pub fn build_store(
    cfg: &ShardConfig,
    backend: ShardBackend,
    fresh: bool,
) -> Result<ShardStore, String> {
    if fresh {
        let array = ResilientArray::format_journaled(
            cfg.layout.clone(),
            cfg.block_size,
            cfg.stripes,
            cfg.rotation,
            backend,
            cfg.policy,
            cfg.fail_threshold,
        );
        ObjectStore::format(array, cfg.meta_elements).map_err(|e| format!("format store: {e}"))
    } else {
        let array = ResilientArray::attach_journaled(
            cfg.layout.clone(),
            cfg.block_size,
            cfg.stripes,
            cfg.rotation,
            backend,
            cfg.policy,
            cfg.fail_threshold,
        )
        .map_err(|e: DiskError| format!("attach array: {e}"))?;
        ObjectStore::open(array, cfg.meta_elements).map_err(|e| format!("open store: {e}"))
    }
}

/// One queued operation (`Stat` never enters a queue — it is served from
/// published snapshots so an overloaded shard cannot block observability).
#[allow(missing_docs)]
pub enum ShardOp {
    Put { name: String, value: Vec<u8> },
    Get { name: String },
    Delete { name: String },
    Scrub,
}

/// A queued operation plus its reply channel and enqueue timestamp (the
/// latency histograms measure enqueue → completion, so queueing delay is
/// part of the reported number — that is the latency a client feels).
pub struct ShardJob {
    /// The operation to run on the shard's store.
    pub op: ShardOp,
    /// When the job entered the queue.
    pub queued_at: Instant,
    /// Where the worker sends the response.
    pub reply: mpsc::Sender<Response>,
}

struct QueueInner {
    jobs: VecDeque<ShardJob>,
    stalled: bool,
    shutdown: bool,
}

/// The bounded MPSC queue between connection handlers and one shard
/// worker.
///
/// Built on the `minisim` facade so `dcode-race` model-checks this exact
/// code. The locks recover from poisoning (`PoisonError::into_inner`): a
/// panicking worker must not take queue-depth sampling — part of the
/// STAT observability path — down with it.
pub struct ShardQueue {
    inner: Mutex<QueueInner>,
    ready: Condvar,
    cap: usize,
}

impl ShardQueue {
    /// A queue admitting at most `cap` jobs.
    ///
    /// # Panics
    /// Panics if `cap` is zero (a queue that can never admit a job).
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0);
        ShardQueue {
            inner: Mutex::named(
                "server.shard.queue",
                QueueInner {
                    jobs: VecDeque::new(),
                    stalled: false,
                    shutdown: false,
                },
            ),
            ready: Condvar::named("server.shard.ready"),
            cap,
        }
    }

    fn lock(&self) -> minisim::sync::MutexGuard<'_, QueueInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueue if there is room; on a full queue return the depth at
    /// rejection instead of blocking.
    ///
    /// # Errors
    /// Returns the depth observed at rejection when the queue is full or
    /// shutting down.
    pub fn try_push(&self, job: ShardJob) -> Result<(), usize> {
        let mut inner = self.lock();
        if inner.shutdown || inner.jobs.len() >= self.cap {
            return Err(inner.jobs.len());
        }
        inner.jobs.push_back(job);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Current queue depth.
    pub fn depth(&self) -> usize {
        self.lock().jobs.len()
    }

    /// Park (or release) the worker without touching the store — the test
    /// hook that makes `Busy` deterministic: stall, fill the queue past
    /// `cap`, observe the rejection, release.
    pub fn set_stalled(&self, stalled: bool) {
        self.lock().stalled = stalled;
        self.ready.notify_all();
    }

    /// Wake the worker and make it exit once the flag is seen. Pending
    /// jobs are dropped; their reply channels close, and waiting handlers
    /// report the shutdown. Nothing already acknowledged is affected.
    pub fn shutdown(&self) {
        self.lock().shutdown = true;
        self.ready.notify_all();
    }

    /// Blocking batch pop into `into` (which must be empty): waits for
    /// the first job, then greedily drains up to `max` already-queued
    /// jobs without waiting for more. Returns `false` on shutdown.
    /// Draining in arrival order keeps replies FIFO per connection; the
    /// caller-owned buffer means a busy worker loop never allocates a
    /// batch vector in steady state.
    fn pop_batch(&self, into: &mut Vec<ShardJob>, max: usize) -> bool {
        debug_assert!(into.is_empty());
        let mut inner = self.lock();
        loop {
            if inner.shutdown {
                return false;
            }
            if !inner.stalled && !inner.jobs.is_empty() {
                let take = inner.jobs.len().min(max);
                into.extend(inner.jobs.drain(..take));
                return true;
            }
            inner = self
                .ready
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A point-in-time copy of one shard's observable state, refreshed by the
/// worker after every operation and read lock-free of the store by `STAT`.
#[derive(Clone, Debug)]
pub struct ShardSnapshot {
    /// Objects resident in the store.
    pub objects: usize,
    /// Operations the worker has completed.
    pub ops_done: u64,
    /// Resilient-layer counters (retries, degraded reads, repairs…).
    pub stats: ResilientStats,
    /// Schedule-cache hit/miss counters.
    pub cache: CacheStats,
    /// Slots currently failed.
    pub failed_slots: Vec<usize>,
    /// Hot spares not yet attached.
    pub spares_remaining: usize,
    /// What mount-time journal replay did (None before the first attach).
    pub last_replay: Option<ReplaySummary>,
}

impl Default for ShardSnapshot {
    fn default() -> Self {
        ShardSnapshot {
            objects: 0,
            ops_done: 0,
            stats: ResilientStats::default(),
            cache: CacheStats { hits: 0, misses: 0 },
            failed_slots: Vec::new(),
            spares_remaining: 0,
            last_replay: None,
        }
    }
}

impl ShardSnapshot {
    /// This shard's entry in the stat document; `queue_depth` is sampled
    /// live at render time.
    pub fn to_json(&self, queue_depth: usize) -> String {
        let failed: Vec<String> = self.failed_slots.iter().map(usize::to_string).collect();
        let (replay_outcome, replay_replayed) = match self.last_replay {
            Some(summary) => (summary.outcome.name(), summary.replayed),
            None => ("none", 0),
        };
        format!(
            "{{\"queue_depth\":{queue_depth},\"objects\":{},\"ops_done\":{},\
             \"schedule_hits\":{},\"schedule_misses\":{},\
             \"element_reads\":{},\"element_writes\":{},\"retries\":{},\
             \"degraded_reads\":{},\"checksum_catches\":{},\"read_repairs\":{},\
             \"auto_fails\":{},\"rebuilds_completed\":{},\
             \"journal_records\":{},\"journal_retires\":{},\
             \"journal_replays\":{},\"journal_last_replay\":\"{}\",\
             \"journal_last_replayed\":{},\
             \"failed_slots\":[{}],\"spares_remaining\":{}}}",
            self.objects,
            self.ops_done,
            self.cache.hits,
            self.cache.misses,
            self.stats.element_reads,
            self.stats.element_writes,
            self.stats.retries,
            self.stats.degraded_reads,
            self.stats.checksum_catches,
            self.stats.read_repairs,
            self.stats.auto_fails,
            self.stats.rebuilds_completed,
            self.stats.journal_records,
            self.stats.journal_retires,
            self.stats.journal_replays,
            replay_outcome,
            replay_replayed,
            failed.join(","),
            self.spares_remaining,
        )
    }
}

/// A running shard: its queue, its published snapshot, and the worker's
/// join handle.
pub(crate) struct Shard {
    pub queue: Arc<ShardQueue>,
    pub snapshot: Arc<Mutex<ShardSnapshot>>,
    pub worker: minisim::thread::JoinHandle<()>,
}

/// What a shard worker runs: the storage half of the worker loop,
/// separated from the concurrency skeleton so the *real* loop — pop,
/// execute, metrics, publish-before-reply, shutdown drain — is generic
/// and model-checkable by `dcode-race` with a stub engine, while
/// production uses [`StoreEngine`] over a `ResilientArray`-backed store.
pub trait ShardEngine: Send + 'static {
    /// Run one operation to completion against the shard's storage.
    fn execute(&mut self, op: &ShardOp) -> Response;
    /// A fresh observable-state snapshot after `ops_done` completed ops.
    fn snapshot(&self, ops_done: u64) -> ShardSnapshot;
}

/// The production engine: a [`ShardStore`] plus the shard id used in
/// scrub reports.
pub struct StoreEngine {
    id: usize,
    store: ShardStore,
}

impl StoreEngine {
    /// Wrap a store as shard `id`'s engine.
    pub fn new(id: usize, store: ShardStore) -> Self {
        StoreEngine { id, store }
    }
}

fn store_error_response(e: &StoreError) -> Response {
    match e {
        StoreError::NotFound(_) => Response::NotFound,
        other => Response::Err(other.to_string()),
    }
}

impl ShardEngine for StoreEngine {
    fn execute(&mut self, op: &ShardOp) -> Response {
        match op {
            ShardOp::Put { name, value } => match self.store.upsert(name, value) {
                Ok(()) => Response::Ok,
                Err(e) => store_error_response(&e),
            },
            ShardOp::Get { name } => match self.store.get(name) {
                Ok(bytes) => Response::Value(bytes),
                Err(StoreError::NotFound(_)) => Response::NotFound,
                Err(e) => Response::Err(e.to_string()),
            },
            ShardOp::Delete { name } => match self.store.delete(name) {
                Ok(()) => Response::Ok,
                Err(StoreError::NotFound(_)) => Response::NotFound,
                Err(e) => Response::Err(e.to_string()),
            },
            ShardOp::Scrub => match self.store.array_mut().scrub_pass() {
                Ok(summary) => Response::Report(format!(
                    "{{\"shard\":{},\"stripes\":{},\"checksum_catches\":{},\
                     \"degraded_reads\":{},\"read_repairs\":{},\
                     \"parity_checked\":{},\"parity_mismatches\":{},\
                     \"parity_repairs\":{}}}",
                    self.id,
                    summary.stripes,
                    summary.checksum_catches,
                    summary.degraded_reads,
                    summary.read_repairs,
                    summary.parity_checked,
                    summary.parity_mismatches,
                    summary.parity_repairs,
                )),
                Err(e) => Response::Err(format!(
                    "shard {} scrub: {}",
                    self.id,
                    json_escape(&e.to_string())
                )),
            },
        }
    }

    fn snapshot(&self, ops_done: u64) -> ShardSnapshot {
        let array = self.store.array();
        ShardSnapshot {
            objects: self.store.list().len(),
            ops_done,
            stats: array.stats().clone(),
            cache: array.schedule_stats(),
            failed_slots: array.failed_slots(),
            spares_remaining: array.spares_remaining(),
            last_replay: array.last_replay(),
        }
    }
}

/// Spawn the worker thread for one shard over the production engine.
pub(crate) fn spawn_shard(
    id: usize,
    store: ShardStore,
    queue_cap: usize,
    metrics: Arc<ServerMetrics>,
) -> Shard {
    let queue = Arc::new(ShardQueue::new(queue_cap));
    let snapshot = Arc::new(Mutex::named(
        "server.shard.snapshot",
        ShardSnapshot::default(),
    ));
    let engine = StoreEngine::new(id, store);
    let worker = spawn_engine_worker(
        format!("dcode-shard-{id}"),
        engine,
        Arc::clone(&queue),
        Arc::clone(&snapshot),
        metrics,
    );
    Shard {
        queue,
        snapshot,
        worker,
    }
}

/// Spawn a shard worker over any [`ShardEngine`]. Publishes an initial
/// snapshot before the first pop so STAT never observes a default
/// snapshot from a live shard.
pub fn spawn_engine_worker<E: ShardEngine>(
    name: String,
    engine: E,
    queue: Arc<ShardQueue>,
    snapshot: Arc<Mutex<ShardSnapshot>>,
    metrics: Arc<ServerMetrics>,
) -> minisim::thread::JoinHandle<()> {
    publish(&snapshot, engine.snapshot(0));
    minisim::thread::Builder::new()
        .name(name)
        .spawn(move || worker_loop(engine, &queue, &snapshot, &metrics))
        .expect("spawn shard worker")
}

fn publish(snapshot: &Mutex<ShardSnapshot>, snap: ShardSnapshot) {
    // The engine snapshot is computed by the caller, so this lock is
    // never held across storage code — a panicking engine cannot poison
    // it. If something else poisoned it, recover: STAT must survive.
    *snapshot.lock().unwrap_or_else(PoisonError::into_inner) = snap;
}

/// Update op counters from the (request, response) pair. Centralized so
/// the stub engines used by the model checker account identically to
/// production.
fn record_op_metrics(metrics: &ServerMetrics, op: &ShardOp, response: &Response) {
    use std::sync::atomic::Ordering::Relaxed;
    match (op, response) {
        (ShardOp::Put { .. }, Response::Ok) => metrics.ops.puts.fetch_add(1, Relaxed),
        (ShardOp::Put { .. }, _) => metrics.ops.errors.fetch_add(1, Relaxed),
        (ShardOp::Get { .. }, Response::Value(_)) => metrics.ops.gets.fetch_add(1, Relaxed),
        (ShardOp::Get { .. }, Response::NotFound) => metrics.ops.not_found.fetch_add(1, Relaxed),
        (ShardOp::Get { .. }, _) => metrics.ops.errors.fetch_add(1, Relaxed),
        (ShardOp::Delete { .. }, Response::Ok) => metrics.ops.deletes.fetch_add(1, Relaxed),
        (ShardOp::Delete { .. }, Response::NotFound) => metrics.ops.not_found.fetch_add(1, Relaxed),
        (ShardOp::Delete { .. }, _) => metrics.ops.errors.fetch_add(1, Relaxed),
        (ShardOp::Scrub, Response::Report(_)) => 0,
        (ShardOp::Scrub, _) => metrics.ops.errors.fetch_add(1, Relaxed),
    };
}

/// Most jobs one queue drain hands the worker. Bounds reply latency for
/// the batch's first op while amortizing the snapshot/publish cost — a
/// saturated queue pays one publish per `MAX_DRAIN` ops, not per op.
const MAX_DRAIN: usize = 32;

fn worker_loop<E: ShardEngine>(
    mut engine: E,
    queue: &ShardQueue,
    snapshot: &Mutex<ShardSnapshot>,
    metrics: &ServerMetrics,
) {
    let mut ops_done = 0u64;
    // Both buffers are reused across drains: a saturated worker allocates
    // nothing per batch.
    let mut batch: Vec<ShardJob> = Vec::new();
    let mut replies: Vec<(mpsc::Sender<Response>, Response)> = Vec::new();
    while queue.pop_batch(&mut batch, MAX_DRAIN) {
        for job in batch.drain(..) {
            let response = engine.execute(&job.op);
            record_op_metrics(metrics, &job.op, &response);
            #[allow(clippy::cast_possible_truncation)]
            let us = job.queued_at.elapsed().as_micros() as u64;
            match &job.op {
                ShardOp::Put { .. } => metrics.put_latency.record(us),
                ShardOp::Get { .. } => metrics.get_latency.record(us),
                ShardOp::Delete { .. } => metrics.delete_latency.record(us),
                ShardOp::Scrub => {}
            }
            ops_done += 1;
            replies.push((job.reply, response));
        }
        // Publish before replying, so anything observable after an ack
        // (snapshot included) already reflects the acked operation; the
        // ack itself comes after the store completed it — an acknowledged
        // PUT is durable in the array before the client sees OK. One
        // publish covers the whole drained batch: it runs after every op
        // in the batch executed and before any reply goes out, so each
        // individual ack still follows a publish reflecting its op. This
        // ordering is the ack-after-durable invariant dcode-race
        // model-checks.
        publish(snapshot, engine.snapshot(ops_done));
        for (reply, response) in replies.drain(..) {
            let _ = reply.send(response);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcode_faults::MemBackend;

    fn mem_store(cfg: &ShardConfig) -> ShardStore {
        let backend = MemBackend::new(cfg.layout.disks(), shard_blocks(cfg), cfg.block_size);
        build_store(cfg, Box::new(backend), true).unwrap()
    }

    fn small_cfg() -> ShardConfig {
        ShardConfig {
            block_size: 64,
            stripes: 8,
            meta_elements: 4,
            queue_cap: 4,
            ..ShardConfig::default()
        }
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        for shards in [1usize, 2, 4, 7] {
            for name in ["a", "obj-17", "c3-k200", ""] {
                let s = shard_of(name, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(name, shards), "deterministic");
            }
        }
        // FNV-1a("a") = 0xaf63dc4c8601ec8c → known value pins the routing
        // so a future hasher change cannot silently strand stored objects.
        assert_eq!(shard_of("a", 4), (0xaf63_dc4c_8601_ec8c_u64 % 4) as usize);
    }

    #[test]
    fn worker_serves_put_get_delete_and_scrub() {
        let shard = spawn_shard(
            0,
            mem_store(&small_cfg()),
            16,
            Arc::new(ServerMetrics::new()),
        );
        let ask = |op: ShardOp| {
            let (tx, rx) = mpsc::channel();
            shard
                .queue
                .try_push(ShardJob {
                    op,
                    queued_at: Instant::now(),
                    reply: tx,
                })
                .unwrap();
            rx.recv().unwrap()
        };
        assert_eq!(
            ask(ShardOp::Put {
                name: "k".into(),
                value: vec![1, 2, 3],
            }),
            Response::Ok
        );
        assert_eq!(
            ask(ShardOp::Get { name: "k".into() }),
            Response::Value(vec![1, 2, 3])
        );
        let Response::Report(json) = ask(ShardOp::Scrub) else {
            panic!("scrub must report");
        };
        assert!(json.contains("\"shard\":0"));
        assert_eq!(ask(ShardOp::Delete { name: "k".into() }), Response::Ok);
        assert_eq!(ask(ShardOp::Get { name: "k".into() }), Response::NotFound);
        shard.queue.shutdown();
        shard.worker.join().unwrap();
    }

    #[test]
    fn stalled_queue_fills_to_cap_and_rejects_with_depth() {
        let cfg = small_cfg();
        let shard = spawn_shard(
            1,
            mem_store(&cfg),
            cfg.queue_cap,
            Arc::new(ServerMetrics::new()),
        );
        shard.queue.set_stalled(true);
        let mut receivers = Vec::new();
        for i in 0..cfg.queue_cap {
            let (tx, rx) = mpsc::channel();
            shard
                .queue
                .try_push(ShardJob {
                    op: ShardOp::Put {
                        name: format!("k{i}"),
                        value: vec![i as u8],
                    },
                    queued_at: Instant::now(),
                    reply: tx,
                })
                .expect("below cap");
            receivers.push(rx);
        }
        let (tx, _rx) = mpsc::channel();
        let depth = shard
            .queue
            .try_push(ShardJob {
                op: ShardOp::Get { name: "k0".into() },
                queued_at: Instant::now(),
                reply: tx,
            })
            .expect_err("queue full");
        assert_eq!(depth, cfg.queue_cap);
        // Release the worker: every queued put completes and is acked.
        shard.queue.set_stalled(false);
        for rx in receivers {
            assert_eq!(rx.recv().unwrap(), Response::Ok);
        }
        shard.queue.shutdown();
        shard.worker.join().unwrap();
    }

    #[test]
    fn batched_drain_acks_every_queued_put_and_publishes_once_after() {
        // Stall the worker, queue a burst, release: the worker drains the
        // burst as one batch — every put is acked, and the published
        // snapshot reflects the whole batch (not just the first op) by
        // the time the last ack is observed.
        let cfg = small_cfg();
        let shard = spawn_shard(
            3,
            mem_store(&cfg),
            cfg.queue_cap,
            Arc::new(ServerMetrics::new()),
        );
        shard.queue.set_stalled(true);
        let mut receivers = Vec::new();
        for i in 0..cfg.queue_cap {
            let (tx, rx) = mpsc::channel();
            shard
                .queue
                .try_push(ShardJob {
                    op: ShardOp::Put {
                        name: format!("burst{i}"),
                        value: vec![i as u8; 100],
                    },
                    queued_at: Instant::now(),
                    reply: tx,
                })
                .expect("below cap");
            receivers.push(rx);
        }
        shard.queue.set_stalled(false);
        for rx in receivers {
            assert_eq!(rx.recv().unwrap(), Response::Ok);
        }
        let snap = shard.snapshot.lock().unwrap().clone();
        assert_eq!(snap.ops_done, cfg.queue_cap as u64);
        assert_eq!(snap.objects, cfg.queue_cap);
        shard.queue.shutdown();
        shard.worker.join().unwrap();
    }

    #[test]
    fn snapshot_tracks_store_state() {
        let shard = spawn_shard(
            2,
            mem_store(&small_cfg()),
            16,
            Arc::new(ServerMetrics::new()),
        );
        let (tx, rx) = mpsc::channel();
        shard
            .queue
            .try_push(ShardJob {
                op: ShardOp::Put {
                    name: "seen".into(),
                    value: vec![9; 200],
                },
                queued_at: Instant::now(),
                reply: tx,
            })
            .unwrap();
        assert_eq!(rx.recv().unwrap(), Response::Ok);
        let snap = shard.snapshot.lock().unwrap().clone();
        assert_eq!(snap.objects, 1);
        assert_eq!(snap.ops_done, 1);
        assert!(snap.stats.element_writes > 0);
        let json = snap.to_json(shard.queue.depth());
        assert!(json.contains("\"objects\":1"), "{json}");
        shard.queue.shutdown();
        shard.worker.join().unwrap();
    }

    #[test]
    fn build_store_reattaches_existing_content() {
        // Fresh store on a mem backend, write, tear down, re-attach over
        // the same medium bytes.
        let cfg = small_cfg();
        let mut store = mem_store(&cfg);
        store.put("persist", &[5u8; 300]).unwrap();
        // Steal the medium back out of the array (journal region
        // included — reattach replays it).
        let disks = cfg.layout.disks();
        let blocks = shard_blocks(&cfg);
        let mut medium = MemBackend::new(disks, blocks, cfg.block_size);
        for d in 0..disks {
            let mut buf = vec![0u8; cfg.block_size];
            for b in 0..blocks {
                store
                    .array_mut()
                    .backend_mut()
                    .read_block(d, b, &mut buf)
                    .unwrap();
                medium.write_block(d, b, &buf).unwrap();
            }
        }
        let mut reopened = build_store(&cfg, Box::new(medium), false).unwrap();
        assert_eq!(reopened.get("persist").unwrap(), vec![5u8; 300]);
    }
}
