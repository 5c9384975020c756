//! Rebuild of each shard's medium after the server stopped: the victim
//! disk is replaced by a spare and `ResilientArray::rebuild_step` runs
//! until the array is healthy. Every element is then read back against
//! what the degraded array served before the rebuild, and every
//! acknowledged object against its acked value.

use crate::layers::{nanos, Counted, IoCount, IoCounters};
use crate::workload::victim_disk;
use dcode_array::resilient::AttachTopology;
use dcode_array::{ObjectStore, ResilientArray};
use dcode_faults::{DiskBackend, MemBackend};
use dcode_server::{shard_blocks, shard_of, ShardConfig};
use std::sync::Arc;
use std::time::Instant;

#[derive(Default)]
pub struct Rebuilt {
    /// Rebuild throughput of each rebuilt disk, MiB/s.
    pub mib_s: Vec<f64>,
    pub blocks: u64,
    pub wall_ns: u64,
    /// Block work inside the rebuild loops (counted runs only).
    pub io: IoCount,
    /// Block reads and rebuilt blocks of each `rebuild_step` call, one
    /// stripe's column each (counted runs only).
    pub steps: Vec<(u64, u64)>,
    pub attempted: u64,
    pub failed: u64,
}

/// Rebuild the victim disk of every shard medium, each on a fresh copy.
pub fn rebuild_all(
    media: &mut [MemBackend],
    objects: &[(String, Vec<u8>)],
    seed: u64,
    counted: bool,
) -> Result<Rebuilt, String> {
    let cfg = ShardConfig::default();
    let disks = cfg.layout.disks();
    let shards = media.len();
    let mut out = Rebuilt::default();
    for (shard, src) in media.iter_mut().enumerate() {
        // One spare past the code's disks.
        let mut mem = MemBackend::new(disks + 1, shard_blocks(&cfg), cfg.block_size);
        for d in 0..disks {
            mem.disk_bytes_mut(d).copy_from_slice(src.disk_bytes_mut(d));
        }
        let mine: Vec<&(String, Vec<u8>)> = objects
            .iter()
            .filter(|(name, _)| shard_of(name, shards) == shard)
            .collect();
        let victim = victim_disk(seed, shard, disks);
        if counted {
            let io = Arc::new(IoCounters::default());
            rebuild_one(
                &cfg,
                Counted::new(mem, Arc::clone(&io)),
                victim,
                &mine,
                Some(&io),
                &mut out,
            )?;
        } else {
            rebuild_one(&cfg, mem, victim, &mine, None, &mut out)?;
        }
    }
    Ok(out)
}

fn rebuild_one<B: DiskBackend>(
    cfg: &ShardConfig,
    backend: B,
    victim: usize,
    objects: &[&(String, Vec<u8>)],
    io: Option<&IoCounters>,
    out: &mut Rebuilt,
) -> Result<(), String> {
    let disks = cfg.layout.disks();
    let mut array = ResilientArray::attach_journaled_as(
        cfg.layout.clone(),
        cfg.block_size,
        cfg.stripes,
        cfg.rotation,
        backend,
        cfg.policy,
        cfg.fail_threshold,
        AttachTopology {
            slot_to_disk: (0..disks).collect(),
            failed_slots: vec![victim],
            spares: vec![disks],
        },
    )
    .map_err(|e| format!("attach: {e}"))?;
    if array.try_attach_spare() != Some(victim) {
        return Err("spare did not attach to the victim slot".into());
    }
    let elements = array.capacity_elements();
    let expected = array
        .read(0, elements)
        .map_err(|e| format!("degraded read: {e}"))?;
    let io0 = io.map(IoCounters::get).unwrap_or_default();
    let t0 = Instant::now();
    loop {
        let (reads0, blocks0) = (
            io.map_or(0, |io| io.get().reads),
            array.stats().rebuilt_blocks,
        );
        let done = array
            .rebuild_step(cfg.layout.rows())
            .map_err(|e| format!("rebuild: {e}"))?;
        if let Some(io) = io {
            out.steps.push((
                io.get().reads - reads0,
                array.stats().rebuilt_blocks - blocks0,
            ));
        }
        if done {
            break;
        }
    }
    let ns = nanos(t0);
    if let Some(io) = io {
        out.io = out.io + (io.get() - io0);
    }
    let blocks = array.stats().rebuilt_blocks;
    out.blocks += blocks;
    out.wall_ns += ns;
    #[allow(clippy::cast_precision_loss)]
    out.mib_s
        .push((blocks as f64 * cfg.block_size as f64 / (1 << 20) as f64) / (ns as f64 / 1e9));
    if !array.failed_slots().is_empty() {
        return Err("array still degraded after rebuild".into());
    }

    let got = array
        .read(0, elements)
        .map_err(|e| format!("read-back: {e}"))?;
    out.attempted += elements as u64;
    out.failed += expected
        .chunks(cfg.block_size)
        .zip(got.chunks(cfg.block_size))
        .filter(|(a, b)| a != b)
        .count() as u64;
    let mut store =
        ObjectStore::open(array, cfg.meta_elements).map_err(|e| format!("open store: {e}"))?;
    for (name, value) in objects {
        out.attempted += 1;
        if store.get(name).ok().as_ref() != Some(value) {
            out.failed += 1;
        }
    }
    Ok(())
}
