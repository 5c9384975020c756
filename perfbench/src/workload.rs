//! The workloads, and the seeded op stream every phase draws from.

use dcode_core::Fnv1a;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Client connections driving the server in every workload.
pub const CONNS: usize = 2;

/// One traffic mix.
pub struct Workload {
    pub name: &'static str,
    pub value_bytes: usize,
    pub keys_per_conn: usize,
    pub put_fraction: f64,
    /// Fail one disk of every shard after preload, with no spare.
    pub degraded: bool,
    /// Offered rate of the traced run's open-loop phase, across both
    /// connections, ops/s: about a third of the closed-loop `ops_per_s`
    /// this workload reached when the benchmark was defined (dcode(7),
    /// 4 KiB blocks, 2 vCPUs). Fixed, so later commits are offered the
    /// same load.
    pub open_rate: f64,
    /// Ops per connection the single-threaded traced replay runs.
    pub replay_ops: usize,
}

pub const WORKLOADS: [Workload; 3] = [
    // Almost all work is the array write path: full-stripe
    // read-modify-write, intent journal, CRCs, two index persists.
    Workload {
        name: "small_overwrite",
        value_bytes: 1024,
        keys_per_conn: 64,
        put_fraction: 0.9,
        degraded: false,
        open_rate: 150.0,
        replay_ops: 120,
    },
    // A healthy GET is one block read, so the front end dominates;
    // the GET tail is GETs queued behind PUTs on the same shard.
    Workload {
        name: "read_mostly",
        value_bytes: 4096,
        keys_per_conn: 256,
        put_fraction: 0.05,
        degraded: false,
        open_rate: 1500.0,
        replay_ops: 800,
    },
    // Multi-stripe PUTs run the fused batch encoder; GETs touch stripes
    // with a lost column and run degraded fetch and recovery programs.
    Workload {
        name: "large_degraded",
        value_bytes: 256 * 1024,
        keys_per_conn: 16,
        put_fraction: 0.5,
        degraded: true,
        open_rate: 120.0,
        replay_ops: 60,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn key_name(conn: usize, key: usize) -> String {
    format!("c{conn}-k{key}")
}

/// The value of `key` at `version`: recomputed on every check, so the
/// acked ledger stores versions only.
pub fn value_for(seed: u64, conn: usize, key: usize, version: u64, len: usize) -> Vec<u8> {
    let mut h = Fnv1a::new();
    h.word(seed);
    h.word(conn as u64);
    h.word(key as u64);
    h.word(version);
    let mut state = h.finish() | 1;
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        out.extend_from_slice(&state.to_le_bytes());
    }
    out.truncate(len);
    out
}

/// One connection's op stream: after preloading every key once, ops are
/// drawn from this generator in order, by the server phases and by the
/// traced replay alike.
pub struct OpStream {
    rng: StdRng,
    keys: usize,
    put_fraction: f64,
}

impl OpStream {
    pub fn new(w: &Workload, seed: u64, conn: usize) -> Self {
        OpStream {
            rng: StdRng::seed_from_u64(
                seed ^ 0x9e37_79b9_7f4a_7c15_u64.wrapping_mul(conn as u64 + 1),
            ),
            keys: w.keys_per_conn,
            put_fraction: w.put_fraction,
        }
    }

    /// `(is_put, key)`.
    pub fn next_op(&mut self) -> (bool, usize) {
        let key = self.rng.gen_range(0..self.keys);
        (self.rng.gen_bool(self.put_fraction), key)
    }
}

/// The disk each shard loses in `large_degraded` and rebuilds afterwards
/// in every workload. Never disk 0, which holds the journal state block.
pub fn victim_disk(seed: u64, shard: usize, disks: usize) -> usize {
    let mut h = Fnv1a::new();
    h.word(seed);
    h.word(shard as u64);
    1 + (h.finish() % (disks as u64 - 1)) as usize
}
