//! The in-process server and the two client connections that drive it:
//! set-up (start, format, preload, warm-up), the closed- and open-loop
//! phases, and the read-back of every acknowledged write.

use crate::layers::{nanos, Counted, IoCounters, Medium};
use crate::stats::{after, field, fields};
use crate::workload::{key_name, value_for, victim_disk, OpStream, Workload, CONNS};
use dcode_faults::MemBackend;
use dcode_server::{shard_blocks, Client, Response, Server, ServerConfig, ShardBackend};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

/// Width of the windows closed-loop throughput is taken over.
const RATE_WINDOW_S: f64 = 0.5;

/// Outcomes and latencies from one phase, summed over connections.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub put_ns: Vec<u64>,
    pub get_ns: Vec<u64>,
    /// Open loop only: how late each request left its schedule.
    pub lag_ns: Vec<u64>,
    /// Closed loop only: when each op completed.
    pub done: Vec<Instant>,
    /// When the connections started the phase.
    pub start: Option<Instant>,
}

impl Tally {
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.put_ns.extend(other.put_ns);
        self.get_ns.extend(other.get_ns);
        self.lag_ns.extend(other.lag_ns);
        self.done.extend(other.done);
    }

    pub fn ops(&self) -> u64 {
        (self.put_ns.len() + self.get_ns.len()) as u64
    }

    /// Throughput in each whole [`RATE_WINDOW_S`] window of the phase.
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    pub fn window_rates(&self) -> Vec<f64> {
        let start = self.start.expect("phase ran");
        let wall = self
            .done
            .iter()
            .max()
            .map_or(0.0, |end| end.duration_since(start).as_secs_f64());
        let windows = (wall / RATE_WINDOW_S) as usize;
        let mut counts = vec![0u64; windows];
        for done in &self.done {
            let w = (done.duration_since(start).as_secs_f64() / RATE_WINDOW_S) as usize;
            if let Some(c) = counts.get_mut(w) {
                *c += 1;
            }
        }
        counts.iter().map(|&c| c as f64 / RATE_WINDOW_S).collect()
    }
}

/// One client connection with its op stream and acked ledger.
pub struct Conn {
    id: usize,
    seed: u64,
    value_bytes: usize,
    client: Client,
    stream: OpStream,
    /// Last acknowledged version per key (0: never acknowledged).
    acked: Vec<u64>,
    /// Last version sent per key.
    sent: Vec<u64>,
}

struct Prepared {
    key: usize,
    name: String,
    /// `Some((version, value))` for a PUT.
    put: Option<(u64, Vec<u8>)>,
}

impl Conn {
    fn connect(w: &Workload, seed: u64, id: usize, port: u16) -> Result<Conn, String> {
        Ok(Conn {
            id,
            seed,
            value_bytes: w.value_bytes,
            client: Client::connect(("127.0.0.1", port)).map_err(|e| format!("connect: {e}"))?,
            stream: OpStream::new(w, seed, id),
            acked: vec![0; w.keys_per_conn],
            sent: vec![0; w.keys_per_conn],
        })
    }

    fn prepare(&mut self, is_put: bool, key: usize) -> Prepared {
        let put = is_put.then(|| {
            self.sent[key] += 1;
            let version = self.sent[key];
            (
                version,
                value_for(self.seed, self.id, key, version, self.value_bytes),
            )
        });
        Prepared {
            key,
            name: key_name(self.id, key),
            put,
        }
    }

    /// Send one prepared op; its latency runs from `clock`. Two
    /// synchronous connections never fill a shard queue, so a Busy reply
    /// is a failure like any other.
    fn send(&mut self, op: Prepared, clock: Instant, tally: &mut Tally) {
        tally.attempted += 1;
        let response = match &op.put {
            Some((_, value)) => self.client.put(&op.name, value),
            None => self.client.get(&op.name),
        }
        .ok();
        let ns = nanos(clock);
        let ok = match (&op.put, response) {
            (Some((version, _)), Some(Response::Ok)) => {
                self.acked[op.key] = *version;
                true
            }
            (None, Some(response)) => self.check_get(op.key, &response),
            _ => false,
        };
        if op.put.is_some() {
            tally.put_ns.push(ns);
        } else {
            tally.get_ns.push(ns);
        }
        if !ok {
            tally.failed += 1;
        }
    }

    /// Whether a GET reply agrees with the acked ledger.
    fn check_get(&self, key: usize, response: &Response) -> bool {
        match (self.acked[key], response) {
            (0, Response::NotFound) => true,
            (0, _) => false,
            (v, Response::Value(bytes)) => {
                *bytes == value_for(self.seed, self.id, key, v, self.value_bytes)
            }
            _ => false,
        }
    }

    fn next(&mut self) -> Prepared {
        let (is_put, key) = self.stream.next_op();
        self.prepare(is_put, key)
    }

    fn preload(&mut self, tally: &mut Tally) {
        for key in 0..self.acked.len() {
            let op = self.prepare(true, key);
            self.send(op, Instant::now(), tally);
        }
    }

    fn warm_up(&mut self, tally: &mut Tally) {
        for _ in 0..self.acked.len() {
            let op = self.next();
            self.send(op, Instant::now(), tally);
        }
    }

    fn closed(&mut self, deadline: Instant, tally: &mut Tally) {
        while Instant::now() < deadline {
            let op = self.next();
            self.send(op, Instant::now(), tally);
            tally.done.push(Instant::now());
        }
    }

    fn open(&mut self, start: Instant, deadline: Instant, rate: f64, tally: &mut Tally) {
        #[allow(clippy::cast_precision_loss)]
        let gap = Duration::from_secs_f64(CONNS as f64 / rate);
        let mut intended = start + gap * u32::try_from(self.id).expect("few conns") / CONNS as u32;
        while intended < deadline {
            let op = self.next();
            let now = Instant::now();
            if now < intended {
                std::thread::sleep(intended - now);
            }
            tally.lag_ns.push(nanos(intended));
            self.send(op, intended, tally);
            intended += gap;
        }
    }

    /// Read back every acknowledged key.
    fn verify(&mut self, tally: &mut Tally) {
        for key in 0..self.acked.len() {
            let op = self.prepare(false, key);
            self.send(op, Instant::now(), tally);
        }
    }

    /// Every acknowledged `(name, value)` of this connection.
    pub fn acked_objects(&self) -> impl Iterator<Item = (String, Vec<u8>)> + '_ {
        self.acked
            .iter()
            .enumerate()
            .filter(|(_, &v)| v > 0)
            .map(|(key, &v)| {
                (
                    key_name(self.id, key),
                    value_for(self.seed, self.id, key, v, self.value_bytes),
                )
            })
    }
}

/// Run `f` on every connection at once, from a common start.
fn on_all(conns: &mut [Conn], f: impl Fn(&mut Conn, Instant, &mut Tally) + Sync) -> Tally {
    let barrier = Barrier::new(conns.len());
    let results: Vec<(Tally, Instant)> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                let (f, barrier) = (&f, &barrier);
                s.spawn(move || {
                    let mut tally = Tally::default();
                    barrier.wait();
                    let start = Instant::now();
                    f(conn, start, &mut tally);
                    (tally, start)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut total = Tally {
        start: results.iter().map(|r| r.1).min(),
        ..Tally::default()
    };
    for (t, _) in results {
        total.absorb(t);
    }
    total
}

/// Server counters read from `STAT`, using only `mean_us` for latency
/// (its log2 percentiles are bucket bounds).
#[derive(Clone, Copy, Debug, Default)]
pub struct Stat {
    pub put_count: f64,
    pub put_sum_us: f64,
    pub get_count: f64,
    pub get_sum_us: f64,
    pub element_writes: f64,
    pub journal_records: f64,
    pub schedule_hits: f64,
    pub schedule_misses: f64,
    /// Shards reporting at least one failed slot.
    pub failed_shards: usize,
}

impl Stat {
    pub fn read(server: &Server) -> Result<Stat, String> {
        let doc = server.stat_json();
        let latency = after(&doc, "latency_us")?;
        // STAT truncates the mean to whole microseconds; half a
        // microsecond per sample is the unbiased correction.
        let sum = |class: &str| -> Result<(f64, f64), String> {
            let summary = after(latency, class)?;
            let count = field(summary, "count")?;
            Ok((count, (field(summary, "mean_us")? + 0.5) * count))
        };
        let (put_count, put_sum_us) = sum("put")?;
        let (get_count, get_sum_us) = sum("get")?;
        let shards = field(&doc, "shards")?;
        // Per-shard counters, summed over the shards.
        let total = |name: &str| -> Result<f64, String> {
            let values = fields(&doc, name);
            #[allow(clippy::cast_precision_loss)]
            let found = values.len() as f64;
            if found == shards {
                Ok(values.iter().sum())
            } else {
                Err(format!("STAT has {found} of {shards} shards' \"{name}\""))
            }
        };
        Ok(Stat {
            put_count,
            put_sum_us,
            get_count,
            get_sum_us,
            element_writes: total("element_writes")?,
            journal_records: total("journal_records")?,
            schedule_hits: total("schedule_hits")?,
            schedule_misses: total("schedule_misses")?,
            failed_shards: doc
                .match_indices("\"failed_slots\":[")
                .filter(|(i, m)| !doc[i + m.len()..].starts_with(']'))
                .count(),
        })
    }

    pub fn since(&self, b: &Stat) -> Stat {
        Stat {
            put_count: self.put_count - b.put_count,
            put_sum_us: self.put_sum_us - b.put_sum_us,
            get_count: self.get_count - b.get_count,
            get_sum_us: self.get_sum_us - b.get_sum_us,
            element_writes: self.element_writes - b.element_writes,
            journal_records: self.journal_records - b.journal_records,
            schedule_hits: self.schedule_hits - b.schedule_hits,
            schedule_misses: self.schedule_misses - b.schedule_misses,
            failed_shards: self.failed_shards,
        }
    }
}

/// A started, preloaded and warmed-up server with its connections.
pub struct Running {
    pub server: Server,
    pub conns: Vec<Conn>,
    /// Each shard's medium comes back here when the server shuts down.
    media: mpsc::Receiver<(usize, MemBackend)>,
    /// Per-shard block counters, when the backends are counted.
    pub io: Vec<Arc<IoCounters>>,
    pub setup_s: f64,
    /// Ops sent during preload and warm-up.
    pub setup_tally: Tally,
}

impl Running {
    /// Start the server with `dcode serve` defaults over one
    /// [`MemBackend`] per shard, preload every key, fail the victim disks
    /// for a degraded workload, and warm up.
    pub fn start(w: &Workload, seed: u64, counted: bool) -> Result<Running, String> {
        let t0 = Instant::now();
        let config = ServerConfig::default();
        let disks = config.shard.layout.disks();
        let (back, media) = mpsc::channel();
        let fail = Arc::new(AtomicBool::new(false));
        let mut io = Vec::new();
        let backends: Vec<ShardBackend> = (0..config.shards)
            .map(|shard| {
                let mem =
                    MemBackend::new(disks, shard_blocks(&config.shard), config.shard.block_size);
                let medium = Medium::new(
                    mem,
                    shard,
                    victim_disk(seed, shard, disks),
                    Arc::clone(&fail),
                    Some(back.clone()),
                );
                if counted {
                    let counters = Arc::new(IoCounters::default());
                    io.push(Arc::clone(&counters));
                    Box::new(Counted::new(medium, counters)) as ShardBackend
                } else {
                    Box::new(medium) as ShardBackend
                }
            })
            .collect();
        let server = Server::start(&config, backends, true)?;
        let mut conns = (0..CONNS)
            .map(|id| Conn::connect(w, seed, id, server.port()))
            .collect::<Result<Vec<_>, _>>()?;
        let mut setup_tally = on_all(&mut conns, |c, _, t| c.preload(t));
        if w.degraded {
            fail.store(true, Ordering::Relaxed);
        }
        // Warm up until every shard of a degraded workload has seen its
        // disk fail, so the failure and the recovery-program compiles
        // fall in set-up.
        for _ in 0..20 {
            setup_tally.absorb(on_all(&mut conns, |c, _, t| c.warm_up(t)));
            if !w.degraded || Stat::read(&server)?.failed_shards == config.shards {
                return Ok(Running {
                    server,
                    conns,
                    media,
                    io,
                    setup_s: t0.elapsed().as_secs_f64(),
                    setup_tally,
                });
            }
        }
        Err("warm-up never reached the failed disk of every shard".into())
    }

    pub fn closed(&mut self, secs: f64) -> Tally {
        let dur = Duration::from_secs_f64(secs);
        on_all(&mut self.conns, |c, s, t| c.closed(s + dur, t))
    }

    pub fn open(&mut self, secs: f64, rate: f64) -> Tally {
        let dur = Duration::from_secs_f64(secs);
        on_all(&mut self.conns, |c, s, t| c.open(s, s + dur, rate, t))
    }

    pub fn verify(&mut self) -> Tally {
        on_all(&mut self.conns, |c, _, t| c.verify(t))
    }

    /// Every acknowledged object, by name.
    pub fn acked_objects(&self) -> Vec<(String, Vec<u8>)> {
        self.conns.iter().flat_map(Conn::acked_objects).collect()
    }

    /// Shut the server down and take back every shard's medium, in shard
    /// order.
    pub fn stop(self) -> Result<Vec<MemBackend>, String> {
        let Running {
            server,
            conns,
            media,
            ..
        } = self;
        drop(conns);
        drop(server);
        let mut got: Vec<(usize, MemBackend)> = media.try_iter().collect();
        got.sort_by_key(|(shard, _)| *shard);
        if got.len() != ServerConfig::default().shards {
            return Err(format!("{} shard media came back", got.len()));
        }
        Ok(got.into_iter().map(|(_, m)| m).collect())
    }
}
