//! [`ScheduleCache`] — memoized compiled XOR schedules.
//!
//! Compiling an [`XorProgram`] from a layout or a [`RecoveryPlan`] walks
//! `BTreeMap`s, allocates index arrays, and (for recovery) may run the
//! GF(2) planner's Gaussian fallback. None of that belongs on a
//! steady-state path: an array encoding a stream of stripes, or serving
//! degraded reads off the same dead disk ten thousand times, uses the
//! *same* program every time. The cache memoizes:
//!
//! * the full-stripe **encode** program per layout;
//! * the full **column-recovery** program (and its symbolic plan) per
//!   `(layout, erased column set)`;
//! * **subprograms** per `(layout, erased column set, missing cell set)` —
//!   the unit `ResilientArray` replays for partial degraded reads — along
//!   with the sorted list of surviving cells each one reads.
//!
//! Keys use [`CodeLayout::fingerprint`] (a structural hash computed once at
//! build time), so lookups never deep-compare equation lists. Entries live
//! in small linear-scan vectors: with a handful of codes and at most
//! `C(p, 2)` erasure patterns, scanning a short `Vec` beats hashing, and —
//! more importantly — a cache *hit allocates nothing*. Programs and read
//! lists are handed out as [`Arc`]s; two hits for the same key return
//! pointer-identical programs (`Arc::ptr_eq`), which the regression tests
//! use as a deterministic "did not recompile" proof.
//!
//! Compilation happens *outside* the cache lock, so a panic in the
//! compiler (or a poisoned-free miss racing another thread) can never
//! poison the cache; the loser of an insert race simply adopts the
//! winner's entry. Compiled programs still run the compiler's
//! `debug_assertions` hazard check at compile time — caching reuses the
//! checked artifact, it does not bypass the check — and `dcode-verify`
//! proves cached programs equivalent to their generator matrices in CI.
//!
//! Every program the cache emits flows through the verified optimizer
//! pipeline ([`crate::opt`]) on its compile miss and carries the
//! resulting [`OptCertificate`] — the machine-checkable proof that the
//! shipped program is GF(2)-equivalent to the direct compile and no cost
//! metric regressed (delta 0 for the registry codes, which are already
//! at the paper's closed-form optimum). Cache keys include the
//! pipeline's [`OptConfig::fingerprint`], so changing the pass pipeline
//! via [`ScheduleCache::set_pipeline`] invalidates memoized programs:
//! stale entries are not evicted, they simply stop matching — switching
//! back to a previous pipeline re-hits its old entries. The pipeline
//! config lives behind its own named mutex (`codec.cache.optcfg`) that
//! is released before `entries` is taken, so the lock-order discipline
//! model-checked by `dcode-race` is unchanged.

use crate::opt::{optimize, OptCertificate, OptConfig};
use crate::schedule::XorProgram;
use dcode_core::decoder::{plan_recovery, RecoveryPlan, Unrecoverable};
use dcode_core::grid::{Cell, Grid};
use dcode_core::layout::CodeLayout;
use minisim::sync::{Mutex, MutexGuard};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Upper bound on distinct missing-cell subprograms cached per erasure
/// pattern. Partial degraded reads generate one subprogram per distinct
/// wanted-cell subset; a pathological access pattern could mint
/// exponentially many, so past the cap the subprogram is compiled and
/// returned uncached (correct, just not memoized).
pub const MAX_SUBPROGRAMS_PER_ERASURE: usize = 64;

/// Hit/miss counters for one [`ScheduleCache`]. A "hit" is a lookup served
/// entirely from memoized state; a "miss" compiled something.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct CacheStats {
    /// Lookups served without compiling.
    pub hits: u64,
    /// Lookups that compiled (and usually inserted) a program.
    pub misses: u64,
}

/// A compiled recovery handed out by the cache: the program to replay, the
/// symbolic plan it was lowered from (for I/O accounting), and the sorted
/// surviving cells the program reads (the disk-read footprint).
#[derive(Clone, Debug)]
pub struct CompiledRecovery {
    /// The lowered XOR program; replay with [`XorProgram::run`] or, over
    /// many stripes, [`XorProgram::run_batch`].
    pub program: Arc<XorProgram>,
    /// The symbolic plan the program was compiled from.
    pub plan: Arc<RecoveryPlan>,
    /// Surviving cells the program reads, ascending. Equals
    /// `plan.surviving_reads()` without the per-call `BTreeSet`.
    pub reads: Arc<Vec<Cell>>,
    /// Cost-delta certificate from the optimizer pipeline run on the
    /// compile miss that produced `program`.
    pub certificate: Arc<OptCertificate>,
}

/// One cached missing-cell subprogram under an erasure pattern.
struct SubEntry {
    /// The missing cells this subprogram reconstructs, ascending.
    missing: Vec<Cell>,
    compiled: CompiledRecovery,
}

/// Everything cached for one erased-column set of one layout.
struct ErasureEntry {
    /// Erased columns, ascending.
    cols: Vec<usize>,
    /// The full column-recovery plan (all cells of all erased columns).
    plan: Arc<RecoveryPlan>,
    /// The full plan compiled, built on first demand.
    full: Option<CompiledRecovery>,
    subs: Vec<SubEntry>,
}

/// Everything cached for one layout under one optimizer pipeline.
struct LayoutEntry {
    fingerprint: u64,
    grid: Grid,
    /// [`OptConfig::fingerprint`] of the pipeline the entry's programs
    /// went through — part of the key, so a pipeline change invalidates.
    opt_fp: u64,
    encode: Option<(Arc<XorProgram>, Arc<OptCertificate>)>,
    erasures: Vec<ErasureEntry>,
}

/// Memoized compiled schedules; see the module docs. Cheap to construct —
/// embed one per long-lived object (as `ResilientArray` does) or share the
/// process-wide [`global`] instance.
///
/// The entries mutex is a named `minisim` facade lock: production calls
/// go straight to `std::sync`, while `dcode-race` model-checks the
/// compile-outside-lock race-adopt protocol on the same code.
pub struct ScheduleCache {
    entries: Mutex<Vec<LayoutEntry>>,
    /// The optimizer pipeline every compile miss runs. Read (and the
    /// guard dropped) *before* `entries` is locked — the two locks never
    /// nest, keeping the race-checked lock discipline flat.
    opt: Mutex<Arc<OptConfig>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for ScheduleCache {
    fn default() -> Self {
        ScheduleCache::new()
    }
}

impl ScheduleCache {
    /// An empty cache.
    pub fn new() -> Self {
        ScheduleCache {
            entries: Mutex::named("codec.cache.entries", Vec::new()),
            opt: Mutex::named("codec.cache.optcfg", Arc::new(OptConfig::default())),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The optimizer pipeline currently applied to compile misses.
    pub fn pipeline(&self) -> Arc<OptConfig> {
        match self.opt.lock() {
            Ok(g) => g.clone(),
            Err(poisoned) => poisoned.into_inner().clone(),
        }
    }

    /// Replace the optimizer pipeline. Memoized programs are keyed by the
    /// pipeline fingerprint, so entries compiled under a different
    /// pipeline stop matching (they are not evicted: switching back to a
    /// previous pipeline re-hits its old entries).
    pub fn set_pipeline(&self, config: OptConfig) {
        let config = Arc::new(config);
        match self.opt.lock() {
            Ok(mut g) => *g = config,
            Err(poisoned) => *poisoned.into_inner() = config,
        }
    }

    /// Counters since construction.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Saturating counter bump: a chaos soak (or any process hot enough to
    /// wrap a `u64`) pins the counter at `u64::MAX` instead of silently
    /// restarting the statistics from zero.
    fn bump(counter: &AtomicU64) {
        let _ = counter.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
            Some(v.saturating_add(1))
        });
    }

    /// The compiled (and certified-optimized) full-stripe encode program
    /// for `layout`. First call per layout compiles; every later call
    /// returns the same `Arc` (verify with [`Arc::ptr_eq`]).
    pub fn encode_program(&self, layout: &CodeLayout) -> Arc<XorProgram> {
        self.encode_program_certified(layout).0
    }

    /// [`ScheduleCache::encode_program`] together with its cost-delta
    /// certificate.
    pub fn encode_program_certified(
        &self,
        layout: &CodeLayout,
    ) -> (Arc<XorProgram>, Arc<OptCertificate>) {
        let config = self.pipeline();
        let opt_fp = config.fingerprint();
        let (fp, grid) = (layout.fingerprint(), layout.grid());
        {
            let entries = self.lock();
            if let Some(pair) =
                find_layout(&entries, fp, grid, opt_fp).and_then(|e| e.encode.clone())
            {
                Self::bump(&self.hits);
                return pair;
            }
        }
        Self::bump(&self.misses);
        let optimized = optimize(&XorProgram::compile_encode(layout), None, &config);
        let pair = (Arc::new(optimized.program), Arc::new(optimized.certificate));
        let mut entries = self.lock();
        let entry = find_or_insert_layout(&mut entries, fp, grid, opt_fp);
        entry.encode.get_or_insert(pair).clone()
    }

    /// The full column-recovery plan for erasing `cols` (ascending) of
    /// `layout`, memoized. Errors (three or more columns) are not cached.
    pub fn column_plan(
        &self,
        layout: &CodeLayout,
        cols: &[usize],
    ) -> Result<Arc<RecoveryPlan>, Unrecoverable> {
        let opt_fp = self.pipeline().fingerprint();
        self.erasure_plan(layout, cols.iter().copied(), opt_fp)
    }

    /// The compiled full column-recovery program for erasing `cols`
    /// (ascending) of `layout`, with its plan, read footprint, and
    /// cost-delta certificate. All erased cells are outputs, so the
    /// optimizer must certify delta 0 here for registry codes.
    pub fn column_program(
        &self,
        layout: &CodeLayout,
        cols: &[usize],
    ) -> Result<CompiledRecovery, Unrecoverable> {
        let config = self.pipeline();
        let opt_fp = config.fingerprint();
        let (fp, grid) = (layout.fingerprint(), layout.grid());
        let cols_iter = cols.iter().copied();
        {
            let entries = self.lock();
            if let Some(compiled) = find_erasure(&entries, fp, grid, opt_fp, cols_iter.clone())
                .and_then(|e| e.full.clone())
            {
                Self::bump(&self.hits);
                return Ok(compiled);
            }
        }
        let plan = self.erasure_plan(layout, cols_iter.clone(), opt_fp)?;
        Self::bump(&self.misses);
        let compiled = compile_recovery(grid, &plan, None, &config);
        let mut entries = self.lock();
        let entry = find_erasure_mut(&mut entries, fp, grid, opt_fp, cols_iter)
            .expect("erasure_plan inserted the entry");
        Ok(entry.full.get_or_insert(compiled).clone())
    }

    /// The compiled subprogram reconstructing exactly `missing` under the
    /// erasure of `erased_cols` (an ascending iterator of column indices;
    /// pass a slice's `iter().copied()` or iterate a `BTreeSet` directly).
    /// `missing` must be a subset of the erased columns' cells. Steady-state
    /// hits allocate nothing and return pointer-identical programs.
    pub fn recovery_subprogram<I>(
        &self,
        layout: &CodeLayout,
        erased_cols: I,
        missing: &BTreeSet<Cell>,
    ) -> Result<CompiledRecovery, Unrecoverable>
    where
        I: Iterator<Item = usize> + Clone,
    {
        let config = self.pipeline();
        let opt_fp = config.fingerprint();
        let (fp, grid) = (layout.fingerprint(), layout.grid());
        {
            let entries = self.lock();
            if let Some(entry) = find_erasure(&entries, fp, grid, opt_fp, erased_cols.clone()) {
                if let Some(sub) = entry
                    .subs
                    .iter()
                    .find(|s| s.missing.iter().eq(missing.iter()))
                {
                    Self::bump(&self.hits);
                    return Ok(sub.compiled.clone());
                }
            }
        }
        let plan = self.erasure_plan(layout, erased_cols.clone(), opt_fp)?;
        Self::bump(&self.misses);
        // Only the wanted cells are observable outputs of a subprogram:
        // the remaining recovered intermediates are scratch the optimizer
        // may renumber or eliminate.
        let outputs: BTreeSet<usize> = missing.iter().map(|&c| grid.index(c)).collect();
        let compiled = compile_recovery(
            grid,
            &Arc::new(plan.subplan_for(missing)),
            Some(&outputs),
            &config,
        );
        let mut entries = self.lock();
        let entry = find_erasure_mut(&mut entries, fp, grid, opt_fp, erased_cols)
            .expect("erasure_plan inserted the entry");
        if let Some(sub) = entry
            .subs
            .iter()
            .find(|s| s.missing.iter().eq(missing.iter()))
        {
            return Ok(sub.compiled.clone()); // lost an insert race; adopt
        }
        if entry.subs.len() < MAX_SUBPROGRAMS_PER_ERASURE {
            entry.subs.push(SubEntry {
                missing: missing.iter().copied().collect(),
                compiled: compiled.clone(),
            });
        }
        Ok(compiled)
    }

    /// Memoized symbolic plan for an ascending erased-column iterator;
    /// ensures the `ErasureEntry` exists on success.
    fn erasure_plan<I>(
        &self,
        layout: &CodeLayout,
        cols: I,
        opt_fp: u64,
    ) -> Result<Arc<RecoveryPlan>, Unrecoverable>
    where
        I: Iterator<Item = usize> + Clone,
    {
        let (fp, grid) = (layout.fingerprint(), layout.grid());
        {
            let entries = self.lock();
            if let Some(entry) = find_erasure(&entries, fp, grid, opt_fp, cols.clone()) {
                return Ok(entry.plan.clone());
            }
        }
        let col_vec: Vec<usize> = cols.collect();
        debug_assert!(
            col_vec.windows(2).all(|w| w[0] < w[1]),
            "erased columns must be strictly ascending"
        );
        let erased: BTreeSet<Cell> = col_vec.iter().flat_map(|&c| grid.column(c)).collect();
        let plan = Arc::new(plan_recovery(layout, &erased)?);
        let mut entries = self.lock();
        let entry = find_or_insert_layout(&mut entries, fp, grid, opt_fp);
        if let Some(existing) = entry
            .erasures
            .iter()
            .find(|e| e.cols.iter().copied().eq(col_vec.iter().copied()))
        {
            return Ok(existing.plan.clone());
        }
        entry.erasures.push(ErasureEntry {
            cols: col_vec,
            plan: plan.clone(),
            full: None,
            subs: Vec::new(),
        });
        Ok(plan)
    }

    fn lock(&self) -> MutexGuard<'_, Vec<LayoutEntry>> {
        // The lock is only ever held for lookups and inserts — never across
        // compilation or user code — so a poisoned mutex is unreachable
        // without a panic inside `Vec`/`Arc` themselves. Recover the guard
        // rather than poisoning every future encode on the array.
        match self.entries.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// Process-wide shared cache: the default for free functions like
/// [`encode`](crate::encode::encode) that have no object to hang a cache
/// off. Never dropped.
pub fn global() -> &'static ScheduleCache {
    static GLOBAL: OnceLock<ScheduleCache> = OnceLock::new();
    GLOBAL.get_or_init(ScheduleCache::new)
}

/// Hit/miss counters of the process-wide [`global`] cache — the number the
/// `dcode status` command surfaces.
pub fn schedule_stats() -> CacheStats {
    global().stats()
}

fn find_layout(entries: &[LayoutEntry], fp: u64, grid: Grid, opt_fp: u64) -> Option<&LayoutEntry> {
    entries
        .iter()
        .find(|e| e.fingerprint == fp && e.grid == grid && e.opt_fp == opt_fp)
}

fn find_or_insert_layout(
    entries: &mut Vec<LayoutEntry>,
    fp: u64,
    grid: Grid,
    opt_fp: u64,
) -> &mut LayoutEntry {
    if let Some(i) = entries
        .iter()
        .position(|e| e.fingerprint == fp && e.grid == grid && e.opt_fp == opt_fp)
    {
        return &mut entries[i];
    }
    entries.push(LayoutEntry {
        fingerprint: fp,
        grid,
        opt_fp,
        encode: None,
        erasures: Vec::new(),
    });
    entries.last_mut().expect("just pushed")
}

fn find_erasure<I>(
    entries: &[LayoutEntry],
    fp: u64,
    grid: Grid,
    opt_fp: u64,
    cols: I,
) -> Option<&ErasureEntry>
where
    I: Iterator<Item = usize> + Clone,
{
    find_layout(entries, fp, grid, opt_fp)?
        .erasures
        .iter()
        .find(|e| e.cols.iter().copied().eq(cols.clone()))
}

fn find_erasure_mut<I>(
    entries: &mut [LayoutEntry],
    fp: u64,
    grid: Grid,
    opt_fp: u64,
    cols: I,
) -> Option<&mut ErasureEntry>
where
    I: Iterator<Item = usize> + Clone,
{
    entries
        .iter_mut()
        .find(|e| e.fingerprint == fp && e.grid == grid && e.opt_fp == opt_fp)?
        .erasures
        .iter_mut()
        .find(|e| e.cols.iter().copied().eq(cols.clone()))
}

/// Lower a plan through the optimizer pipeline and precompute its sorted
/// surviving-read list. `outputs` designates the observable blocks
/// (`None` = every target, the right choice for full column recoveries).
fn compile_recovery(
    grid: Grid,
    plan: &Arc<RecoveryPlan>,
    outputs: Option<&BTreeSet<usize>>,
    config: &OptConfig,
) -> CompiledRecovery {
    let optimized = optimize(&XorProgram::compile_plan(grid, plan), outputs, config);
    let reads: Vec<Cell> = plan.surviving_reads().into_iter().collect();
    CompiledRecovery {
        program: Arc::new(optimized.program),
        plan: plan.clone(),
        reads: Arc::new(reads),
        certificate: Arc::new(optimized.certificate),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode_naive;
    use crate::stripe::Stripe;
    use dcode_baselines::registry::all_codes;
    use dcode_core::dcode::dcode;

    #[test]
    fn encode_program_is_compiled_once() {
        let cache = ScheduleCache::new();
        let layout = dcode(7).unwrap();
        let a = cache.encode_program(&layout);
        let b = cache.encode_program(&layout);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must not recompile");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // A structurally different layout gets its own program.
        let other = dcode(5).unwrap();
        let c = cache.encode_program(&other);
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn rebuilt_equal_layout_shares_the_cached_program() {
        // The fingerprint, not object identity, keys the cache: an
        // independently-built but identical layout hits.
        let cache = ScheduleCache::new();
        let a = cache.encode_program(&dcode(7).unwrap());
        let b = cache.encode_program(&dcode(7).unwrap());
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn column_program_hits_and_matches_direct_compile() {
        let cache = ScheduleCache::new();
        for layout in all_codes(7) {
            let cols = [1usize, 3];
            let first = cache.column_program(&layout, &cols).unwrap();
            let second = cache.column_program(&layout, &cols).unwrap();
            assert!(Arc::ptr_eq(&first.program, &second.program));
            assert!(Arc::ptr_eq(&first.plan, &second.plan));
            // Cached artifacts equal a from-scratch compile.
            let plan = dcode_core::decoder::plan_column_recovery(&layout, &cols).unwrap();
            let direct = XorProgram::compile_plan(layout.grid(), &plan);
            assert_eq!(*first.program, direct, "{}", layout.name());
            let direct_reads: Vec<Cell> = plan.surviving_reads().into_iter().collect();
            assert_eq!(*first.reads, direct_reads, "{}", layout.name());
        }
    }

    #[test]
    fn subprogram_steady_state_is_pointer_identical() {
        let cache = ScheduleCache::new();
        let layout = dcode(7).unwrap();
        let grid = layout.grid();
        let missing: BTreeSet<Cell> = [grid.column(2).next().unwrap()].into_iter().collect();
        let cols = BTreeSet::from([2usize, 4]);
        let a = cache
            .recovery_subprogram(&layout, cols.iter().copied(), &missing)
            .unwrap();
        let hits_before = cache.stats().hits;
        let b = cache
            .recovery_subprogram(&layout, cols.iter().copied(), &missing)
            .unwrap();
        assert!(Arc::ptr_eq(&a.program, &b.program));
        assert!(Arc::ptr_eq(&a.reads, &b.reads));
        assert_eq!(cache.stats().hits, hits_before + 1);
        // The subprogram actually recovers the missing cell.
        let data: Vec<u8> = (0..layout.data_len() * 8).map(|i| (i * 37) as u8).collect();
        let mut stripe = Stripe::from_data(&layout, 8, &data);
        encode_naive(&layout, &mut stripe);
        let golden = stripe.clone();
        stripe.erase_columns(&[2, 4]);
        a.program.run(&mut stripe);
        for &cell in &missing {
            assert_eq!(stripe.snapshot(cell), golden.snapshot(cell));
        }
    }

    #[test]
    fn distinct_missing_sets_get_distinct_subprograms() {
        let cache = ScheduleCache::new();
        let layout = dcode(7).unwrap();
        let grid = layout.grid();
        let cols = [0usize, 1];
        let mut col_cells = grid.column(0);
        let m1: BTreeSet<Cell> = [col_cells.next().unwrap()].into_iter().collect();
        let m2: BTreeSet<Cell> = [col_cells.next().unwrap()].into_iter().collect();
        let a = cache
            .recovery_subprogram(&layout, cols.iter().copied(), &m1)
            .unwrap();
        let b = cache
            .recovery_subprogram(&layout, cols.iter().copied(), &m2)
            .unwrap();
        assert!(!Arc::ptr_eq(&a.program, &b.program));
    }

    #[test]
    fn subprogram_cap_still_returns_correct_programs() {
        let cache = ScheduleCache::new();
        let layout = dcode(13).unwrap();
        let grid = layout.grid();
        let cols = [0usize, 1];
        // Mint more distinct missing sets than the cap by taking every
        // prefix of the erased cells.
        let erased: Vec<Cell> = grid.column(0).chain(grid.column(1)).collect();
        let mut minted = 0usize;
        let mut missing = BTreeSet::new();
        for &cell in &erased {
            missing.insert(cell);
            let compiled = cache
                .recovery_subprogram(&layout, cols.iter().copied(), &missing)
                .unwrap();
            assert!(compiled.program.op_count() >= missing.len());
            minted += 1;
        }
        assert!(minted > 1);
    }

    #[test]
    fn unrecoverable_erasures_error_and_are_not_cached() {
        let cache = ScheduleCache::new();
        let layout = dcode(5).unwrap();
        let cols = [0usize, 1, 2];
        assert!(cache.column_plan(&layout, &cols).is_err());
        assert!(cache.column_program(&layout, &cols).is_err());
        let missing: BTreeSet<Cell> = layout.grid().column(0).collect();
        assert!(cache
            .recovery_subprogram(&layout, cols.iter().copied(), &missing)
            .is_err());
    }

    #[test]
    fn counters_saturate_instead_of_wrapping() {
        let cache = ScheduleCache::new();
        let layout = dcode(5).unwrap();
        let _ = cache.encode_program(&layout); // miss
        cache.hits.store(u64::MAX, Ordering::Relaxed);
        let _ = cache.encode_program(&layout); // hit at the ceiling
        let _ = cache.encode_program(&layout); // and again
        assert_eq!(cache.stats().hits, u64::MAX, "hit counter must saturate");
        cache.misses.store(u64::MAX, Ordering::Relaxed);
        let _ = cache.encode_program(&dcode(7).unwrap()); // miss at the ceiling
        assert_eq!(cache.stats().misses, u64::MAX, "miss counter must saturate");
    }

    #[test]
    fn global_cache_is_shared() {
        let a = global().encode_program(&dcode(5).unwrap());
        let b = global().encode_program(&dcode(5).unwrap());
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn every_cache_artifact_carries_a_holding_certificate() {
        let cache = ScheduleCache::new();
        for layout in all_codes(7) {
            let (_, cert) = cache.encode_program_certified(&layout);
            assert!(cert.holds(), "{} encode", layout.name());
            assert!(
                cert.zero_delta(),
                "{} encode must be delta 0",
                layout.name()
            );
            let full = cache.column_program(&layout, &[0, 1]).unwrap();
            assert!(full.certificate.holds(), "{} recovery", layout.name());
            assert!(
                full.certificate.zero_delta(),
                "{} recovery must be delta 0",
                layout.name()
            );
            let missing: BTreeSet<Cell> = [layout.grid().column(0).next().unwrap()]
                .into_iter()
                .collect();
            let sub = cache
                .recovery_subprogram(&layout, [0usize, 1].iter().copied(), &missing)
                .unwrap();
            assert!(sub.certificate.holds(), "{} subprogram", layout.name());
        }
    }

    #[test]
    fn pipeline_change_invalidates_and_switching_back_rehits() {
        let cache = ScheduleCache::new();
        let layout = dcode(7).unwrap();
        let default_fp = cache.pipeline().fingerprint();
        let (a, cert_a) = cache.encode_program_certified(&layout);
        assert_eq!(cert_a.pipeline_fingerprint, default_fp);
        let full_a = cache.column_program(&layout, &[0, 1]).unwrap();

        // A different pipeline is a different key: both lookups recompile.
        cache.set_pipeline(OptConfig::empty());
        let empty_fp = cache.pipeline().fingerprint();
        assert_ne!(default_fp, empty_fp);
        let (b, cert_b) = cache.encode_program_certified(&layout);
        assert!(!Arc::ptr_eq(&a, &b), "pipeline change must recompile");
        assert_eq!(cert_b.pipeline_fingerprint, empty_fp);
        assert!(
            cert_b.holds(),
            "empty pipeline is a trivially-held identity"
        );
        let full_b = cache.column_program(&layout, &[0, 1]).unwrap();
        assert!(!Arc::ptr_eq(&full_a.program, &full_b.program));

        // Stale entries are not evicted: switching back re-hits them.
        cache.set_pipeline(OptConfig::full());
        let (c, cert_c) = cache.encode_program_certified(&layout);
        assert!(Arc::ptr_eq(&a, &c), "old pipeline entries must survive");
        assert_eq!(cert_c.pipeline_fingerprint, default_fp);
        let full_c = cache.column_program(&layout, &[0, 1]).unwrap();
        assert!(Arc::ptr_eq(&full_a.program, &full_c.program));
    }

    #[test]
    fn subprogram_outputs_free_intermediates_for_the_optimizer() {
        // A single wanted cell under a two-column erasure leaves every
        // other recovered cell as scratch; the certificate must still
        // hold (≤ on every metric) and the subprogram must reproduce the
        // wanted bytes exactly.
        let cache = ScheduleCache::new();
        for layout in all_codes(11) {
            let grid = layout.grid();
            let missing: BTreeSet<Cell> = [grid.column(0).nth(2).unwrap()].into_iter().collect();
            let sub = cache
                .recovery_subprogram(&layout, [0usize, 1].iter().copied(), &missing)
                .unwrap();
            assert!(sub.certificate.holds(), "{}", layout.name());
            let data: Vec<u8> = (0..layout.data_len() * 8)
                .map(|i| (i * 131) as u8)
                .collect();
            let mut stripe = Stripe::from_data(&layout, 8, &data);
            encode_naive(&layout, &mut stripe);
            let golden = stripe.clone();
            stripe.erase_columns(&[0, 1]);
            sub.program.run(&mut stripe);
            for &cell in &missing {
                assert_eq!(
                    stripe.snapshot(cell),
                    golden.snapshot(cell),
                    "{}",
                    layout.name()
                );
            }
        }
    }
}
