//! The CLI's operations, as library functions so they are directly
//! testable. Each takes the array directory and returns a human-readable
//! summary on success.

use crate::diskio::{
    disk_blocks, disk_path, layout_of, probe_disks, read_disks, write_disks, write_one_disk,
};
use crate::meta::ArrayMeta;
use dcode_array::chaos::{soak, ChaosConfig};
use dcode_array::crashsim::{sweep, CrashSimConfig};
use dcode_array::scrub::{scrub_stripe, scrub_stripe_dry, ScrubReport};
use dcode_array::{journal_blocks_per_disk, scan_journal, JournalMutation, JournalSpec};
use dcode_baselines::registry::CodeId;
use dcode_codec::{apply_plan, encode_payload, verify_parities, Stripe};
use dcode_core::decoder::plan_column_recovery;
use dcode_core::layout::CodeLayout;
use std::fmt;
use std::path::Path;

/// CLI operation errors.
#[derive(Debug)]
pub enum CliError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Metadata problems.
    Meta(crate::meta::MetaError),
    /// The requested operation is impossible in the array's current state.
    State(String),
    /// Bad user input.
    Usage(String),
    /// Scrub found corruption it cannot localize to one cell or one
    /// unique pair — operator intervention needed (restore from fetch +
    /// store).
    Ambiguous(String),
    /// A dry-run scrub found corruption it was not allowed to repair.
    Corrupt(String),
}

impl CliError {
    /// Process exit code: scripts can branch on *why* the CLI failed.
    /// 1 = I/O or metadata, 2 = usage, 3 = array state, 4 = ambiguous
    /// corruption, 5 = corruption found in dry-run mode.
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Io(_) | CliError::Meta(_) => 1,
            CliError::Usage(_) => 2,
            CliError::State(_) => 3,
            CliError::Ambiguous(_) => 4,
            CliError::Corrupt(_) => 5,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Io(e) => write!(f, "I/O error: {e}"),
            CliError::Meta(e) => write!(f, "{e}"),
            CliError::State(s) | CliError::Usage(s) | CliError::Corrupt(s) => f.write_str(s),
            CliError::Ambiguous(s) => write!(
                f,
                "{s}
the syndrome does not localize the corruption; nothing was modified —                  restore the payload with `fetch` and re-`store` it"
            ),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<crate::meta::MetaError> for CliError {
    fn from(e: crate::meta::MetaError) -> Self {
        CliError::Meta(e)
    }
}

/// `store`: stripe `input` across disk files in `dir` with the given code.
pub fn store(
    input: &Path,
    dir: &Path,
    code: CodeId,
    p: usize,
    block: usize,
) -> Result<String, CliError> {
    let payload = std::fs::read(input)?;
    let layout = dcode_baselines::registry::build(code, p)
        .map_err(|e| CliError::Usage(format!("cannot build {} at p={p}: {e}", code.name())))?;
    if block == 0 {
        return Err(CliError::Usage("block size must be positive".into()));
    }
    let per_stripe = layout.data_len() * block;
    let stripes_needed = payload.len().div_ceil(per_stripe).max(1);
    std::fs::create_dir_all(dir)?;

    let meta = ArrayMeta {
        code,
        p,
        block,
        stripes: stripes_needed,
        payload_len: payload.len(),
        // Reserve a journal region so the array's geometry matches the
        // journaled mount path; blocks below the record-header minimum
        // get none. The region starts zeroed (all slots empty).
        journal: if block >= 32 {
            journal_blocks_per_disk(&layout, block)
        } else {
            0
        },
    };
    // One cached compile + the persistent pool for the whole batch, instead
    // of a schedule compile (or even a cache lookup) per stripe.
    let stripes = encode_payload(&layout, block, &payload, 8);
    write_disks(dir, &meta, &layout, &stripes)?;
    meta.save(dir)?;
    Ok(format!(
        "stored {} bytes as {} stripe(s) of {} over {} disks ({} + 2 parity rows each)",
        payload.len(),
        stripes_needed,
        code.name(),
        layout.disks(),
        layout.rows() - 2
    ))
}

/// Load the array, reconstructing up to two dead disks in memory.
/// Returns `(meta, layout, stripes, alive)` with every stripe fully intact.
fn load_recovered(
    dir: &Path,
) -> Result<
    (
        ArrayMeta,
        dcode_core::layout::CodeLayout,
        Vec<Stripe>,
        Vec<bool>,
    ),
    CliError,
> {
    let meta = ArrayMeta::load(dir)?;
    let layout = layout_of(&meta);
    let (mut stripes, alive) = read_disks(dir, &meta, &layout)?;
    let dead: Vec<usize> = alive
        .iter()
        .enumerate()
        .filter(|&(_, &a)| !a)
        .map(|(d, _)| d)
        .collect();
    if dead.len() > 2 {
        return Err(CliError::State(format!(
            "{} disks are dead ({dead:?}); RAID-6 tolerates at most 2",
            dead.len()
        )));
    }
    if !dead.is_empty() {
        let plan = plan_column_recovery(&layout, &dead)
            .map_err(|e| CliError::State(format!("unrecoverable: {e}")))?;
        for s in &mut stripes {
            apply_plan(s, &plan);
        }
    }
    Ok((meta, layout, stripes, alive))
}

/// `fetch`: reassemble the payload (through up to two dead disks) into
/// `output`.
pub fn fetch(dir: &Path, output: &Path) -> Result<String, CliError> {
    let (meta, layout, stripes, alive) = load_recovered(dir)?;
    let mut payload = Vec::with_capacity(meta.payload_len);
    for s in &stripes {
        payload.extend_from_slice(&s.data_bytes(&layout));
    }
    payload.truncate(meta.payload_len);
    std::fs::write(output, &payload)?;
    let dead = alive.iter().filter(|&&a| !a).count();
    Ok(format!(
        "fetched {} bytes{}",
        payload.len(),
        if dead > 0 {
            format!(" (reconstructed through {dead} dead disk(s))")
        } else {
            String::new()
        }
    ))
}

/// `status`: health and consistency summary.
pub fn status(dir: &Path) -> Result<String, CliError> {
    let meta = ArrayMeta::load(dir)?;
    let layout = layout_of(&meta);
    let probes = probe_disks(dir, &meta, &layout);
    let (stripes, alive) = read_disks(dir, &meta, &layout)?;
    let dead: Vec<usize> = alive
        .iter()
        .enumerate()
        .filter(|&(_, &a)| !a)
        .map(|(d, _)| d)
        .collect();
    let mut out = String::new();
    out.push_str(&format!(
        "code: {} (p={}, {} disks, {} rows)\nblock: {} bytes, stripes: {}, payload: {} bytes\n",
        meta.code.name(),
        meta.p,
        layout.disks(),
        layout.rows(),
        meta.block,
        meta.stripes,
        meta.payload_len
    ));
    if dead.is_empty() {
        let consistent = stripes.iter().all(|s| verify_parities(&layout, s));
        out.push_str(&format!(
            "disks: all {} healthy; parity {}\n",
            layout.disks(),
            if consistent {
                "consistent"
            } else {
                "INCONSISTENT (run scrub)"
            }
        ));
    } else {
        out.push_str(&format!(
            "disks: {} healthy, DEAD: {dead:?} ({})\n",
            layout.disks() - dead.len(),
            if dead.len() <= 2 {
                "recoverable — run rebuild"
            } else {
                "DATA LOSS"
            }
        ));
    }
    for (d, probe) in probes.iter().enumerate() {
        out.push_str(&format!("  disk {d}: {probe}\n"));
    }
    out.push_str(&journal_status(dir, &meta, &layout, &dead));
    let cache = dcode_codec::schedule_stats();
    out.push_str(&format!(
        "schedule cache: {} hit(s) / {} miss(es) (this process)\n",
        cache.hits, cache.misses
    ));
    Ok(out)
}

/// The parity-intent-journal lines of `status`: region geometry, a live
/// scan of the record slots, and the persisted mount state (mount count,
/// last replay outcome). Read-only — the scan never modifies the medium.
fn journal_status(dir: &Path, meta: &ArrayMeta, layout: &CodeLayout, dead: &[usize]) -> String {
    if meta.journal == 0 {
        return "journal: none (array predates journaling or block too small)\n".into();
    }
    let region_bytes = meta.journal * meta.block;
    let mut out = format!(
        "journal: {} block(s)/disk ({} bytes/disk, {} bytes total)\n",
        meta.journal,
        region_bytes,
        region_bytes * layout.disks()
    );
    if !dead.is_empty() {
        out.push_str("  not scanned: dead disks present (rebuild first)\n");
        return out;
    }
    let spec = JournalSpec::for_geometry(layout, meta.block, meta.stripes);
    let mut backend = match dcode_faults::FileBackend::open(
        dir,
        layout.disks(),
        disk_blocks(meta, layout),
        meta.block,
    ) {
        Ok(b) => b,
        Err(e) => {
            out.push_str(&format!("  not scanned: {e}\n"));
            return out;
        }
    };
    let scan = scan_journal(&mut backend, &spec);
    out.push_str(&format!(
        "  records: {} live, {} retired, {} torn, {} empty slot(s)\n",
        scan.live.len(),
        scan.tombstones,
        scan.torn,
        scan.empty
    ));
    for &(disk, seq, stripe) in &scan.live {
        out.push_str(&format!(
            "    LIVE record seq {seq} on disk {disk} (stripe {stripe}) — will replay on attach\n"
        ));
    }
    match scan.state {
        Some(state) => out.push_str(&format!(
            "  mounts: {}, last replay: {} ({} scanned, {} replayed, {} discarded)\n",
            state.mounts,
            state.last.outcome.name(),
            state.last.scanned,
            state.last.replayed,
            state.last.discarded
        )),
        None => out.push_str("  mounts: never mounted through the journaled path\n"),
    }
    out
}

/// `kill`: make a disk fail by deleting its file.
pub fn kill(dir: &Path, disk: usize) -> Result<String, CliError> {
    let meta = ArrayMeta::load(dir)?;
    let layout = layout_of(&meta);
    if disk >= layout.disks() {
        return Err(CliError::Usage(format!(
            "disk {disk} out of range (array has {} disks)",
            layout.disks()
        )));
    }
    let path = disk_path(dir, disk);
    if !path.exists() {
        return Err(CliError::State(format!("disk {disk} is already dead")));
    }
    std::fs::remove_file(path)?;
    Ok(format!("disk {disk} killed"))
}

/// `rebuild`: reconstruct every dead disk and rewrite its file.
pub fn rebuild(dir: &Path) -> Result<String, CliError> {
    let (meta, layout, stripes, alive) = load_recovered(dir)?;
    let dead: Vec<usize> = alive
        .iter()
        .enumerate()
        .filter(|&(_, &a)| !a)
        .map(|(d, _)| d)
        .collect();
    if dead.is_empty() {
        return Ok("all disks healthy; nothing to rebuild".into());
    }
    for &d in &dead {
        write_one_disk(dir, &meta, &layout, &stripes, d)?;
    }
    Ok(format!(
        "rebuilt disk(s) {dead:?} across {} stripe(s)",
        meta.stripes
    ))
}

/// `layout`: print a code's element map, complexity metrics, and textual
/// spec (parseable back via `dcode_core::spec::parse_spec`).
pub fn layout(code: CodeId, p: usize) -> Result<String, CliError> {
    let l = dcode_baselines::registry::build(code, p)
        .map_err(|e| CliError::Usage(format!("cannot build {} at p={p}: {e}", code.name())))?;
    let m = dcode_core::metrics::measure(&l);
    let mut out = dcode_core::render::render_kinds_map(&l);
    out.push_str(&format!(
        "\n{} disks · {} data + {} parity elements · rate {:.3}\n\
         encode {:.3} XOR/element · decode {:.3} XOR/lost · update avg {:.2}\n\n",
        m.disks,
        m.data_elements,
        m.parity_elements,
        m.storage_rate,
        m.encode_xors_per_data_element,
        m.decode_xors_per_lost_element,
        m.avg_update_complexity
    ));
    out.push_str(&dcode_core::spec::format_spec(&l));
    Ok(out)
}

/// Primes the `verify` command sweeps under `--all` (the paper's set plus
/// one beyond, matching the static-verification issue's bar).
const VERIFY_PRIMES: [usize; 5] = [5, 7, 11, 13, 17];

/// `verify`: statically prove the compiled schedules of one code (or the
/// whole registry) correct — MDS by GF(2) rank, symbolic encode
/// equivalence, hazard-free dependency levels, symbolically-correct
/// recovery for every 2-column erasure, and optimizer output proved
/// equivalent to its input on every output block. Batch replay runs the
/// same single-stripe programs over each stripe's own blocks, so it needs
/// no separate proof. Any diagnostic is a hard failure, which is how the
/// CI `verify` job uses it.
pub fn verify(code: Option<CodeId>, p: Option<usize>, all: bool) -> Result<String, CliError> {
    let targets: Vec<(CodeId, usize)> = if all {
        dcode_baselines::registry::ALL_CODES
            .iter()
            .flat_map(|&id| VERIFY_PRIMES.iter().map(move |&p| (id, p)))
            .collect()
    } else {
        let code = code.ok_or_else(|| {
            CliError::Usage("verify needs --code NAME (or --all for the whole registry)".into())
        })?;
        vec![(code, p.unwrap_or(7))]
    };

    let mut out = String::new();
    let mut failing = 0usize;
    for (id, p) in targets {
        let layout = dcode_baselines::registry::build(id, p)
            .map_err(|e| CliError::Usage(format!("cannot build {} at p={p}: {e}", id.name())))?;
        let report = dcode_verify::verify_layout(&layout);
        out.push_str(&report.to_string());
        out.push('\n');
        for d in &report.diagnostics {
            out.push_str(&format!("  {d}\n"));
        }
        if !report.is_clean() {
            failing += 1;
        }
    }
    if failing > 0 {
        return Err(CliError::State(format!(
            "{out}verification FAILED for {failing} code/prime combination(s)"
        )));
    }
    out.push_str(
        "all programs verified: symbolically equivalent (optimized pairs included), hazard-free, lint-clean",
    );
    Ok(out)
}

/// `analyze`: static cost, I/O-footprint, critical-path, and peephole
/// analysis of the compiled schedules of one code (or the whole registry
/// over [`VERIFY_PRIMES`]), with the measurements checked against the
/// paper's closed-form claims. With `--assert-claims` any claim miss or
/// lint finding is a hard failure (exit code 3) — how the CI `analyze`
/// job uses it. With `--json` the reports render as a JSON array; on an
/// asserted failure the JSON still goes to stdout so a piped CI artifact
/// survives the failing exit.
///
/// With `--opt-delta` every target also gets the optimizer's per-scope
/// cost-delta certificate table ([`dcode_analyze::opt_delta`]). A
/// violated certificate — an equivalence miss, a regressed metric, or a
/// nonzero delta on a registry code — is *always* a hard failure (exit
/// code 3), with or without `--assert-claims`: the certificates are the
/// optimizer's standing regression tripwire, not an opt-in claim. Under
/// `--json` the output becomes `{"reports": [...], "opt_delta": [...]}`.
pub fn analyze(
    code: Option<CodeId>,
    p: Option<usize>,
    all: bool,
    assert_claims: bool,
    json: bool,
    opt_delta: bool,
) -> Result<String, CliError> {
    let targets: Vec<(CodeId, usize)> = if all {
        dcode_baselines::registry::ALL_CODES
            .iter()
            .flat_map(|&id| VERIFY_PRIMES.iter().map(move |&p| (id, p)))
            .collect()
    } else {
        let code = code.ok_or_else(|| {
            CliError::Usage("analyze needs --code NAME (or --all for the whole registry)".into())
        })?;
        vec![(code, p.unwrap_or(7))]
    };

    let mut reports = Vec::new();
    let mut deltas = Vec::new();
    for (id, p) in targets {
        let layout = dcode_baselines::registry::build(id, p)
            .map_err(|e| CliError::Usage(format!("cannot build {} at p={p}: {e}", id.name())))?;
        reports.push(dcode_analyze::analyze_layout(&layout));
        if opt_delta {
            deltas.push(dcode_analyze::opt_delta(&layout));
        }
    }
    let dirty: Vec<String> = reports
        .iter()
        .filter(|r| !r.is_clean())
        .map(|r| format!("{} p={}", r.code, r.p))
        .collect();
    let delta_dirty: Vec<String> = deltas
        .iter()
        .filter(|d| !d.is_clean())
        .map(|d| format!("{} p={}", d.code, d.p))
        .collect();

    let body = if json {
        let items: Vec<String> = reports
            .iter()
            .map(dcode_analyze::AnalysisReport::to_json)
            .collect();
        let reports_json = format!("[{}]", items.join(",\n "));
        if opt_delta {
            let items: Vec<String> = deltas
                .iter()
                .map(dcode_analyze::OptDeltaReport::to_json)
                .collect();
            format!(
                "{{\"reports\": {reports_json}, \"opt_delta\": [{}]}}",
                items.join(",\n ")
            )
        } else {
            reports_json
        }
    } else {
        let mut s = reports
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n");
        for d in &deltas {
            s.push('\n');
            s.push_str(&d.to_string());
        }
        s.push_str(&format!(
            "\n{} report(s): {} clean, {} not clean",
            reports.len(),
            reports.len() - dirty.len(),
            dirty.len()
        ));
        if opt_delta {
            s.push_str(&format!(
                "; {} opt-delta table(s): {} certified, {} violated",
                deltas.len(),
                deltas.len() - delta_dirty.len(),
                delta_dirty.len()
            ));
        }
        s
    };
    // A violated optimizer certificate fails the run unconditionally —
    // the delta-0 tripwire is not an opt-in claim.
    if !delta_dirty.is_empty() {
        if json {
            println!("{body}");
        }
        return Err(CliError::State(format!(
            "{}optimizer certificates VIOLATED for {} report(s): {}",
            if json {
                String::new()
            } else {
                format!("{body}\n")
            },
            delta_dirty.len(),
            delta_dirty.join(", ")
        )));
    }
    if assert_claims && !dirty.is_empty() {
        if json {
            println!("{body}");
        }
        return Err(CliError::State(format!(
            "{}analysis FAILED for {} report(s): {}",
            if json {
                String::new()
            } else {
                format!("{body}\n")
            },
            dirty.len(),
            dirty.join(", ")
        )));
    }
    Ok(body)
}

/// `race`: model-check the workspace's concurrency invariants (worker
/// pool, schedule cache, shard queue/worker) under minisim's
/// deterministic scheduler, run the mutation self-tests that prove the
/// checker catches seeded bugs, and report the lock-order discipline
/// observed by the registry. `all` switches to the deep exploration
/// budget (every invariant must clear the interleaving floor); `json`
/// emits the machine-readable report. A violation, an uncaught
/// mutation, or a lock-order cycle exits 3.
pub fn race(all: bool, json: bool) -> Result<String, CliError> {
    let report = dcode_race::run_all(all);
    let body = if json {
        report.to_json()
    } else {
        report.to_string()
    };
    if report.passed() {
        return Ok(body);
    }
    if json {
        // Machine consumers still get the full report on stdout; the
        // failure summary goes to stderr via the error path.
        println!("{body}");
    }
    Err(CliError::State(format!(
        "{}race check FAILED: {}",
        if json {
            String::new()
        } else {
            format!("{body}\n")
        },
        report.failures().join("; ")
    )))
}

/// `scrub`: verify every stripe's parities, localizing and repairing
/// single- and pair-element silent corruption. With `repair` off nothing
/// is written — the diagnosis reports what a repairing scrub *would* do,
/// and finding corruption is itself an error (exit code 5) so scripted
/// health checks can branch on it. Unlocalizable corruption is an
/// [`CliError::Ambiguous`] error (exit code 4) in both modes.
pub fn scrub(dir: &Path, repair: bool) -> Result<String, CliError> {
    let meta = ArrayMeta::load(dir)?;
    let layout = layout_of(&meta);
    let (mut stripes, alive) = read_disks(dir, &meta, &layout)?;
    if alive.iter().any(|&a| !a) {
        return Err(CliError::State(
            "scrub requires all disks present; rebuild first".into(),
        ));
    }
    let mut clean = 0usize;
    let mut repaired = Vec::new();
    let mut ambiguous = Vec::new();
    for (idx, s) in stripes.iter_mut().enumerate() {
        let report = if repair {
            scrub_stripe(&layout, s)
        } else {
            scrub_stripe_dry(&layout, s)
        };
        match report {
            ScrubReport::Clean => clean += 1,
            ScrubReport::Repaired { cell } => repaired.push((idx, cell)),
            ScrubReport::RepairedPair { cells } => {
                repaired.push((idx, cells[0]));
                repaired.push((idx, cells[1]));
            }
            ScrubReport::Ambiguous { .. } => ambiguous.push(idx),
        }
    }
    if repair && !repaired.is_empty() {
        write_disks(dir, &meta, &layout, &stripes)?;
    }
    let mut out = format!("{clean}/{} stripes clean", meta.stripes);
    if !repaired.is_empty() {
        out.push_str(&if repair {
            format!("; repaired {repaired:?}")
        } else {
            format!("; would repair {repaired:?} (dry run, nothing written)")
        });
    }
    if !ambiguous.is_empty() {
        return Err(CliError::Ambiguous(format!(
            "{out}; stripes {ambiguous:?} have multi-element corruption"
        )));
    }
    if !repair && !repaired.is_empty() {
        return Err(CliError::Corrupt(format!(
            "{out} — re-run with --repair on to fix"
        )));
    }
    Ok(out)
}

/// Codes the `chaos` command soaks when none is named: the paper's code
/// plus the two classic horizontal baselines.
const CHAOS_CODES: [(CodeId, usize); 3] =
    [(CodeId::DCode, 7), (CodeId::Rdp, 7), (CodeId::EvenOdd, 7)];

/// `chaos`: replay a seeded randomized op/fault schedule against an
/// in-memory array mirrored by an oracle, asserting zero data loss within
/// RAID-6 tolerance. Every run exercises retries, checksum catches,
/// degraded reads, an auto-failed slot, hot-spare attach, and a completed
/// rebuild; the counters are printed per code.
pub fn chaos(seed: u64, ops: usize, target: Option<(CodeId, usize)>) -> Result<String, CliError> {
    if ops < 100 {
        return Err(CliError::Usage(
            "chaos needs --ops >= 100 to fit the scheduled fault events".into(),
        ));
    }
    let targets: Vec<(CodeId, usize)> = match target {
        Some(t) => vec![t],
        None => CHAOS_CODES.to_vec(),
    };
    let mut out = String::new();
    let mut failed = 0usize;
    for (id, p) in targets {
        let layout = dcode_baselines::registry::build(id, p)
            .map_err(|e| CliError::Usage(format!("cannot build {} at p={p}: {e}", id.name())))?;
        let report = soak(layout, &ChaosConfig::new(seed, ops));
        if !report.passed() {
            failed += 1;
        }
        out.push_str(&report.to_string());
        out.push('\n');
    }
    if failed > 0 {
        return Err(CliError::State(format!(
            "{out}chaos soak FAILED for {failed} code(s)"
        )));
    }
    out.push_str("chaos soak passed: zero data loss, all headline fault paths exercised");
    Ok(out)
}

/// Codes the `crash-sim` sweep covers under `--all`: the paper's code and
/// the two classic horizontal baselines, each at both sweep primes.
const CRASH_SIM_CODES: [CodeId; 3] = [CodeId::DCode, CodeId::Rdp, CodeId::EvenOdd];

/// Primes the `--all` crash sweep runs each code at.
const CRASH_SIM_PRIMES: [usize; 2] = [5, 7];

/// `crash-sim`: the exhaustive write-hole crash sweep. Every write-path
/// operation is crashed at every backend-write index, power-cycled
/// (dropping un-flushed volatile-cache writes), remounted through the
/// journaled attach, and verified: no acknowledged write lost, no
/// parity-inconsistent stripe. Any failure is replayable from
/// `(op, crash index, seed)` and exits 3. `--all` sweeps the registry
/// codes at p ∈ {5, 7}; `--mutate` plants a retire-before-parity ordering
/// bug and *requires* the sweep to catch it (the harness's self-test);
/// `--json` emits the CI artifact format (printed even on failure so a
/// piped artifact survives the failing exit).
pub fn crash_sim(seed: u64, all: bool, json: bool, mutate: bool) -> Result<String, CliError> {
    let targets: Vec<(CodeId, usize)> = if all {
        CRASH_SIM_CODES
            .iter()
            .flat_map(|&id| CRASH_SIM_PRIMES.iter().map(move |&p| (id, p)))
            .collect()
    } else {
        vec![(CodeId::DCode, 5)]
    };
    let mut items = Vec::new();
    let mut lines = String::new();
    let mut failed = Vec::new();
    for (id, p) in targets {
        let layout = dcode_baselines::registry::build(id, p)
            .map_err(|e| CliError::Usage(format!("cannot build {} at p={p}: {e}", id.name())))?;
        let mut cfg = CrashSimConfig::new(layout, seed);
        if mutate {
            cfg.mutation = Some(JournalMutation::RetireBeforeParity);
        }
        let report = sweep(&cfg);
        if !report.passed() {
            failed.push(format!("{} p={p}", id.name()));
        }
        lines.push_str(&format!(
            "{} p={p}: {} crash point(s), {} replay(s), {} failure(s) — {}\n",
            id.name(),
            report.crash_points,
            report.replays,
            report.failures.len(),
            if report.passed() { "ok" } else { "FAILED" }
        ));
        for f in &report.failures {
            lines.push_str(&format!(
                "  {} crashed at write {} (seed {}): {}\n",
                f.op, f.crash_at, f.seed, f.detail
            ));
        }
        items.push(format!(
            "{{\"code\":\"{}\",\"p\":{p},\"report\":{}}}",
            id.name(),
            report.to_json()
        ));
    }
    let body = if json {
        format!("[{}]", items.join(",\n "))
    } else {
        let verdict = if mutate {
            "mutated sweep caught the planted write hole"
        } else {
            "crash sweep clean: every crash point remounts with zero acked-write \
             loss and zero parity-inconsistent stripes"
        };
        format!("{lines}{verdict}")
    };
    if !failed.is_empty() {
        if json {
            println!("{body}");
        }
        return Err(CliError::State(format!(
            "{}crash sweep FAILED for {}: {}",
            if json {
                String::new()
            } else {
                format!("{lines}\n")
            },
            failed.len(),
            failed.join(", ")
        )));
    }
    Ok(body)
}

/// Options for the `serve` command (bundled: the flag surface is wide).
pub struct ServeOpts {
    /// Code each shard runs.
    pub code: CodeId,
    /// The code's prime parameter.
    pub p: usize,
    /// Number of shards (subdirectories `shard_<i>` under the array dir).
    pub shards: usize,
    /// TCP port (0 = ephemeral, printed on startup).
    pub port: u16,
    /// Bytes per element block.
    pub block: usize,
    /// Stripes per shard.
    pub stripes: usize,
    /// Bounded queue capacity per shard.
    pub queue_cap: usize,
    /// Concurrent-connection cap.
    pub conns: usize,
}

/// `serve`: run the sharded TCP object server over file-backed shard
/// directories under `dir`, then block until the process is killed. A
/// fresh directory is formatted; an existing one (every `shard_<i>`
/// present) is re-attached, so a restarted server finds its objects.
pub fn serve(dir: &Path, opts: &ServeOpts) -> Result<String, CliError> {
    use dcode_server::{Server, ServerConfig, ShardBackend, ShardConfig};

    let layout = dcode_baselines::registry::build(opts.code, opts.p).map_err(|e| {
        CliError::Usage(format!(
            "cannot build {} at p={}: {e}",
            opts.code.name(),
            opts.p
        ))
    })?;
    if opts.shards == 0 || opts.block == 0 || opts.stripes == 0 {
        return Err(CliError::Usage(
            "--shards, --block and --stripes must be positive".into(),
        ));
    }
    std::fs::create_dir_all(dir)?;
    let shard_cfg = ShardConfig {
        layout,
        block_size: opts.block,
        stripes: opts.stripes,
        queue_cap: opts.queue_cap,
        ..ShardConfig::default()
    };
    // Data region plus the parity-intent journal tail each shard's
    // journaled array expects.
    let blocks = dcode_server::shard_blocks(&shard_cfg);
    let existing = (0..opts.shards)
        .filter(|i| {
            dir.join(format!("shard_{i}"))
                .join(dcode_faults::disk_file_name(0))
                .exists()
        })
        .count();
    let fresh = match existing {
        0 => true,
        n if n == opts.shards => false,
        n => {
            return Err(CliError::State(format!(
                "{n} of {} shard dirs exist under {} — refusing to mix fresh and existing shards",
                opts.shards,
                dir.display()
            )))
        }
    };
    let disks = shard_cfg.layout.disks();
    let mut backends: Vec<ShardBackend> = Vec::with_capacity(opts.shards);
    for i in 0..opts.shards {
        let shard_dir = dir.join(format!("shard_{i}"));
        std::fs::create_dir_all(&shard_dir)?;
        let backend = if fresh {
            dcode_faults::FileBackend::create(&shard_dir, disks, blocks, opts.block)?
        } else {
            dcode_faults::FileBackend::open(&shard_dir, disks, blocks, opts.block)?
        };
        backends.push(Box::new(backend));
    }
    let config = ServerConfig {
        port: opts.port,
        shards: opts.shards,
        max_conns: opts.conns,
        shard: shard_cfg,
    };
    let server = Server::start(&config, backends, fresh).map_err(CliError::State)?;
    println!(
        "dcode-server listening on 127.0.0.1:{} ({} shard(s) × {} p={}, {} stripes × {}-byte blocks, {}; queue cap {}, {} connection slot(s))",
        server.port(),
        opts.shards,
        opts.code.name(),
        opts.p,
        opts.stripes,
        opts.block,
        if fresh { "formatted fresh" } else { "re-attached" },
        opts.queue_cap,
        opts.conns,
    );
    // CI greps this line through a pipe; don't leave it in the buffer.
    use std::io::Write;
    let _ = std::io::stdout().flush();
    loop {
        std::thread::park();
    }
}

/// Options for the `loadgen` command.
pub struct LoadgenOpts {
    /// Server host.
    pub host: String,
    /// Server port.
    pub port: u16,
    /// Total operations across all connections.
    pub ops: u64,
    /// Concurrent connections.
    pub conns: usize,
    /// PUT value size, bytes.
    pub value: usize,
    /// Distinct keys per connection.
    pub keys: usize,
    /// Fraction of ops that are PUTs.
    pub put_fraction: f64,
    /// Offered load, ops/s (0 = closed loop).
    pub rate: u64,
    /// RNG seed.
    pub seed: u64,
    /// Where to write the JSON report.
    pub out: std::path::PathBuf,
}

/// `loadgen`: drive a running server with an open-loop workload, verify
/// every acknowledged write reads back, and write the latency report
/// (plus the server's own stat document) to a JSON file. Any lost ack or
/// mid-run mismatch is a hard failure (exit code 3).
pub fn loadgen(opts: &LoadgenOpts) -> Result<String, CliError> {
    use dcode_server::{Client, LoadgenConfig, Response};

    let cfg = LoadgenConfig {
        host: opts.host.clone(),
        port: opts.port,
        conns: opts.conns,
        ops: opts.ops,
        value_bytes: opts.value,
        keys_per_conn: opts.keys,
        put_fraction: opts.put_fraction,
        rate_ops_s: opts.rate,
        seed: opts.seed,
    };
    let report = dcode_server::loadgen::run(&cfg)?;
    let server_stat = Client::connect((opts.host.as_str(), opts.port))
        .and_then(|mut c| c.stat())
        .ok()
        .and_then(|resp| match resp {
            Response::Report(json) => Some(json),
            _ => None,
        });
    std::fs::write(&opts.out, report.to_json(&cfg, server_stat.as_deref()))?;
    // p999 is unresolvable below 1000 samples; the report carries null
    // and the summary shows a dash.
    let p999 = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |us| us.to_string());
    let summary = format!(
        "{} ops in {:.2}s ({:.0} ops/s) · put p50/p99/p999 {}/{}/{}µs · get p50/p99/p999 {}/{}/{}µs\n\
         busy retries {} · errors {} · mismatches {} · verified {} acked key(s), {} lost\n\
         report written to {}",
        report.ops,
        report.elapsed_s,
        report.achieved_ops_s,
        report.put_us.p50,
        report.put_us.p99,
        p999(report.put_us.p999),
        report.get_us.p50,
        report.get_us.p99,
        p999(report.get_us.p999),
        report.busy_retries,
        report.errors,
        report.mismatches,
        report.verify_checked,
        report.verify_lost,
        opts.out.display(),
    );
    if report.verify_lost > 0 || report.mismatches > 0 {
        return Err(CliError::State(format!(
            "{summary}\nDATA LOSS: acknowledged writes did not read back"
        )));
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn setup(tag: &str) -> (PathBuf, PathBuf, Vec<u8>) {
        let root = std::env::temp_dir().join(format!("dcode-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        let input = root.join("input.bin");
        let payload: Vec<u8> = (0..100_000u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 24) as u8)
            .collect();
        std::fs::write(&input, &payload).unwrap();
        (root.clone(), input, payload)
    }

    #[test]
    fn store_kill_two_fetch_rebuild() {
        let (root, input, payload) = setup("e2e");
        let dir = root.join("array");
        store(&input, &dir, CodeId::DCode, 7, 1024).unwrap();
        assert!(status(&dir).unwrap().contains("all 7 healthy"));

        kill(&dir, 1).unwrap();
        kill(&dir, 5).unwrap();
        assert!(status(&dir).unwrap().contains("DEAD: [1, 5]"));

        // Fetch still works through two dead disks.
        let out = root.join("out.bin");
        let msg = fetch(&dir, &out).unwrap();
        assert!(msg.contains("reconstructed through 2"));
        assert_eq!(std::fs::read(&out).unwrap(), payload);

        // Rebuild restores the files; array is healthy and consistent again.
        rebuild(&dir).unwrap();
        assert!(status(&dir).unwrap().contains("all 7 healthy"));
        fetch(&dir, &out).unwrap();
        assert_eq!(std::fs::read(&out).unwrap(), payload);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn loadgen_against_an_in_process_server_is_lossless() {
        use dcode_server::{Server, ServerConfig, ShardBackend, ShardConfig};
        let (root, _input, _payload) = setup("loadgen");
        let config = ServerConfig {
            shards: 2,
            max_conns: 8,
            shard: ShardConfig {
                block_size: 64,
                stripes: 16,
                meta_elements: 4,
                ..ShardConfig::default()
            },
            ..ServerConfig::default()
        };
        let backends: Vec<ShardBackend> = (0..2)
            .map(|_| {
                Box::new(dcode_faults::MemBackend::new(
                    config.shard.layout.disks(),
                    dcode_server::shard_blocks(&config.shard),
                    config.shard.block_size,
                )) as ShardBackend
            })
            .collect();
        let server = Server::start(&config, backends, true).unwrap();
        let out = root.join("BENCH_server.json");
        let opts = LoadgenOpts {
            host: "127.0.0.1".into(),
            port: server.port(),
            ops: 400,
            conns: 2,
            value: 200,
            keys: 8,
            put_fraction: 0.5,
            rate: 0,
            seed: 7,
            out: out.clone(),
        };
        let summary = loadgen(&opts).unwrap();
        assert!(summary.contains("0 lost"), "{summary}");
        let json = std::fs::read_to_string(&out).unwrap();
        assert!(json.contains("\"verify_lost\":0"), "{json}");
        assert!(json.contains("\"server_stat\":{"), "{json}");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn three_dead_disks_is_data_loss() {
        let (root, input, _) = setup("loss");
        let dir = root.join("array");
        store(&input, &dir, CodeId::XCode, 5, 512).unwrap();
        for d in [0, 2, 4] {
            kill(&dir, d).unwrap();
        }
        let out = root.join("out.bin");
        assert!(matches!(fetch(&dir, &out), Err(CliError::State(_))));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn scrub_repairs_flipped_bits() {
        let (root, input, payload) = setup("scrub");
        let dir = root.join("array");
        store(&input, &dir, CodeId::DCode, 5, 512).unwrap();

        // Flip a byte in the middle of disk 2's file (silent corruption).
        let dpath = crate::diskio::disk_path(&dir, 2);
        let mut bytes = std::fs::read(&dpath).unwrap();
        bytes[700] ^= 0x55;
        std::fs::write(&dpath, &bytes).unwrap();

        let report = scrub(&dir, true).unwrap();
        assert!(report.contains("repaired"), "{report}");
        let out = root.join("out.bin");
        fetch(&dir, &out).unwrap();
        assert_eq!(std::fs::read(&out).unwrap(), payload);
        // Second scrub: everything clean.
        assert!(!scrub(&dir, true).unwrap().contains("repaired"));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn layout_command_renders_every_code() {
        for code in [CodeId::DCode, CodeId::Rdp, CodeId::Hdp, CodeId::PCode] {
            let out = layout(code, 7).unwrap();
            assert!(out.contains(code.name()), "{}", code.name());
            assert!(out.contains("XOR/element"));
            assert!(out.contains("prime = 7"));
        }
        // Non-prime rejected with a usage error.
        assert!(matches!(layout(CodeId::DCode, 9), Err(CliError::Usage(_))));
    }

    #[test]
    fn verify_command_proves_single_code_and_rejects_bad_input() {
        let out = verify(Some(CodeId::DCode), Some(7), false).unwrap();
        assert!(out.contains("D-Code p=7"), "{out}");
        assert!(out.contains("verified"), "{out}");
        // No code and no --all is a usage error; non-prime p fails to build.
        assert!(matches!(verify(None, None, false), Err(CliError::Usage(_))));
        assert!(matches!(
            verify(Some(CodeId::DCode), Some(9), false),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn analyze_command_checks_claims_and_rejects_bad_input() {
        let out = analyze(Some(CodeId::DCode), Some(7), false, true, false, false).unwrap();
        assert!(out.contains("D-Code p=7"), "{out}");
        assert!(out.contains("verdict:  clean"), "{out}");
        assert!(out.contains("encode XORs per data element"), "{out}");
        assert!(out.contains("1 report(s): 1 clean, 0 not clean"), "{out}");
        // JSON mode: one object per report, machine-checkable fields.
        let json = analyze(Some(CodeId::Rdp), Some(7), false, true, true, false).unwrap();
        assert!(json.starts_with('[') && json.ends_with(']'), "{json}");
        assert!(json.contains("\"clean\": true"), "{json}");
        assert!(json.contains("\"write_lf\": \"inf\""), "{json}");
        // No code and no --all is a usage error; non-prime p fails to build.
        assert!(matches!(
            analyze(None, None, false, false, false, false),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            analyze(Some(CodeId::DCode), Some(9), false, false, false, false),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn analyze_opt_delta_certifies_the_pipeline() {
        let out = analyze(Some(CodeId::DCode), Some(5), false, false, false, true).unwrap();
        assert!(out.contains("opt-delta (pipeline"), "{out}");
        assert!(out.contains("verdict:  certified"), "{out}");
        assert!(out.contains("1 certified, 0 violated"), "{out}");
        let json = analyze(Some(CodeId::DCode), Some(5), false, false, true, true).unwrap();
        assert!(json.contains("\"opt_delta\""), "{json}");
        assert!(json.contains("\"clean\": true"), "{json}");
    }

    #[test]
    fn status_reports_schedule_cache_counters() {
        let (root, input, _) = setup("cachestats");
        let dir = root.join("array");
        store(&input, &dir, CodeId::DCode, 5, 512).unwrap();
        let out = status(&dir).unwrap();
        assert!(out.contains("schedule cache:"), "{out}");
        assert!(out.contains("miss(es) (this process)"), "{out}");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn operations_on_missing_arrays_fail_cleanly() {
        let missing = std::env::temp_dir().join("dcode-definitely-not-here");
        let _ = std::fs::remove_dir_all(&missing);
        assert!(matches!(status(&missing), Err(CliError::Meta(_))));
        assert!(matches!(rebuild(&missing), Err(CliError::Meta(_))));
        assert!(matches!(kill(&missing, 0), Err(CliError::Meta(_))));
        let out = missing.join("x.bin");
        assert!(matches!(fetch(&missing, &out), Err(CliError::Meta(_))));
    }

    #[test]
    fn kill_rejects_out_of_range_and_double_kill() {
        let (root, input, _) = setup("killerr");
        let dir = root.join("array");
        store(&input, &dir, CodeId::DCode, 5, 256).unwrap();
        assert!(matches!(kill(&dir, 99), Err(CliError::Usage(_))));
        kill(&dir, 1).unwrap();
        assert!(matches!(kill(&dir, 1), Err(CliError::State(_))));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn scrub_requires_all_disks() {
        let (root, input, _) = setup("scrubdeg");
        let dir = root.join("array");
        store(&input, &dir, CodeId::DCode, 5, 256).unwrap();
        kill(&dir, 0).unwrap();
        assert!(matches!(scrub(&dir, true), Err(CliError::State(_))));
        rebuild(&dir).unwrap();
        assert!(scrub(&dir, true).unwrap().contains("clean"));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn status_diagnoses_truncated_and_missing_disks() {
        let (root, input, _) = setup("probe");
        let dir = root.join("array");
        store(&input, &dir, CodeId::DCode, 5, 512).unwrap();
        // Truncate one disk mid-file, delete another.
        let d1 = crate::diskio::disk_path(&dir, 1);
        let bytes = std::fs::read(&d1).unwrap();
        std::fs::write(&d1, &bytes[..bytes.len() / 2]).unwrap();
        std::fs::remove_file(crate::diskio::disk_path(&dir, 3)).unwrap();

        let out = status(&dir).unwrap();
        assert!(out.contains("DEAD: [1, 3]"), "{out}");
        assert!(out.contains("disk 1: TRUNCATED"), "{out}");
        assert!(out.contains("disk 3: missing"), "{out}");
        assert!(out.contains("disk 0: ok"), "{out}");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn scrub_dry_run_reports_without_writing() {
        let (root, input, _) = setup("scrubdry");
        let dir = root.join("array");
        store(&input, &dir, CodeId::DCode, 5, 512).unwrap();
        let dpath = crate::diskio::disk_path(&dir, 2);
        let mut bytes = std::fs::read(&dpath).unwrap();
        bytes[700] ^= 0x55;
        std::fs::write(&dpath, &bytes).unwrap();

        // Dry run: corruption found is exit code 5, and nothing changes.
        let err = scrub(&dir, false).unwrap_err();
        assert_eq!(err.exit_code(), 5, "{err}");
        assert!(err.to_string().contains("would repair"), "{err}");
        assert_eq!(std::fs::read(&dpath).unwrap(), bytes, "dry run wrote!");

        // Repairing run fixes it; a second dry run is clean (exit 0).
        scrub(&dir, true).unwrap();
        assert!(scrub(&dir, false).unwrap().contains("clean"));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn scrub_ambiguous_corruption_is_a_distinct_error() {
        let (root, input, _) = setup("scrubamb");
        let dir = root.join("array");
        store(&input, &dir, CodeId::DCode, 5, 512).unwrap();
        // Corrupt three cells of stripe 0 in distinct columns — beyond
        // pair localization.
        for d in [0, 2, 4] {
            let dpath = crate::diskio::disk_path(&dir, d);
            let mut bytes = std::fs::read(&dpath).unwrap();
            bytes[10 + d] ^= 0xFF;
            std::fs::write(&dpath, &bytes).unwrap();
        }
        let err = scrub(&dir, true).unwrap_err();
        assert_eq!(err.exit_code(), 4, "{err}");
        assert!(err.to_string().contains("multi-element"), "{err}");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn exit_codes_are_distinct_per_failure_class() {
        assert_eq!(CliError::Io(std::io::Error::other("x")).exit_code(), 1);
        assert_eq!(CliError::Usage("u".into()).exit_code(), 2);
        assert_eq!(CliError::State("s".into()).exit_code(), 3);
        assert_eq!(CliError::Ambiguous("a".into()).exit_code(), 4);
        assert_eq!(CliError::Corrupt("c".into()).exit_code(), 5);
    }

    #[test]
    fn status_reports_journal_region_and_scan() {
        let (root, input, _) = setup("journalstat");
        let dir = root.join("array");
        store(&input, &dir, CodeId::DCode, 5, 512).unwrap();
        let out = status(&dir).unwrap();
        assert!(
            out.contains("journal:") && out.contains("block(s)/disk"),
            "{out}"
        );
        assert!(out.contains("0 live"), "{out}");
        assert!(out.contains("never mounted"), "{out}");
        // With a dead disk the scan is skipped but the region is reported.
        kill(&dir, 1).unwrap();
        let out = status(&dir).unwrap();
        assert!(out.contains("not scanned: dead disks"), "{out}");
        // Rebuild restores the geometry, journal tail included.
        rebuild(&dir).unwrap();
        assert!(status(&dir).unwrap().contains("0 live"));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn crash_sim_default_sweep_is_clean() {
        let out = crash_sim(1, false, false, false).unwrap();
        assert!(out.contains("crash sweep clean"), "{out}");
        assert!(out.contains("D-Code p=5"), "{out}");
        let json = crash_sim(1, false, true, false).unwrap();
        assert!(json.starts_with('[') && json.ends_with(']'), "{json}");
        assert!(json.contains("\"passed\":true"), "{json}");
    }

    #[test]
    fn crash_sim_mutated_catches_the_planted_hole() {
        let out = crash_sim(2, false, false, true).unwrap();
        assert!(out.contains("caught the planted write hole"), "{out}");
        assert!(out.contains("crashed at write"), "{out}");
    }

    #[test]
    fn chaos_smoke_single_code() {
        let out = chaos(1, 400, Some((CodeId::DCode, 5))).unwrap();
        assert!(out.contains("chaos soak passed"), "{out}");
        assert!(out.contains("checksum catches"), "{out}");
        assert!(out.contains("rebuilds completed"), "{out}");
        // Too few ops to fit the schedule is a usage error.
        assert!(matches!(chaos(1, 50, None), Err(CliError::Usage(_))));
    }

    #[test]
    fn every_code_stores_and_fetches() {
        let (root, input, payload) = setup("codes");
        for (i, code) in [
            CodeId::DCode,
            CodeId::XCode,
            CodeId::Rdp,
            CodeId::HCode,
            CodeId::Hdp,
            CodeId::EvenOdd,
            CodeId::PCode,
        ]
        .into_iter()
        .enumerate()
        {
            let dir = root.join(format!("array{i}"));
            store(&input, &dir, code, 7, 256).unwrap();
            kill(&dir, 3).unwrap();
            let out = root.join(format!("out{i}.bin"));
            fetch(&dir, &out).unwrap();
            assert_eq!(std::fs::read(&out).unwrap(), payload, "{}", code.name());
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}
