//! Verified optimizer tier for the XOR schedule IR.
//!
//! D-Code's headline property is *static*: the registry schedules already
//! sit at the paper's §III-D closed-form optimum for XOR count and I/O
//! load. This module adds the machinery to *prove* that, and to keep it
//! true as new program families (degraded-read subprograms, rebuild
//! schedules) flow through the compiler:
//!
//! * [`dataflow`] — def-use chains, reaching definitions, and liveness
//!   over [`XorProgram`]s;
//! * a pass pipeline ([`OptPass`], [`OptConfig`]) of verified rewrites:
//!   dead-op elimination, XOR common-subexpression factoring, level
//!   repacking, and scratch-slot liveness coloring;
//! * [`optimize`] — the driver. Every run discharges its proof
//!   obligation *before* the result is shipped: the optimized program is
//!   replayed symbolically against the original over a **fully generic
//!   initial state** (block *i* starts as the formal symbol *eᵢ*), and
//!   the output blocks must carry identical GF(2) combinations; costs
//!   must be monotonically no worse. If either check fails the driver
//!   reverts to the original program and records the failure in the
//!   certificate, so a pipeline bug can cause a loud red certificate but
//!   never a wrong stripe.
//! * [`OptCertificate`] — the machine-checkable cost-delta certificate
//!   attached to every program the [`crate::cache::ScheduleCache`]
//!   emits. For registry codes the certificate must show delta = 0
//!   (`dcode analyze --opt-delta` enforces this as a standing
//!   regression tripwire).

pub mod dataflow;
mod passes;

use crate::schedule::XorProgram;
use dcode_core::fnv::Fnv1a;
use std::collections::BTreeSet;

/// One rewrite pass of the optimizer pipeline.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum OptPass {
    /// Remove ops whose result cannot flow into an output block.
    DeadOpElim,
    /// Factor repeated XOR source sets into copies of the first holder.
    CommonSubexpression,
    /// Hoist ops to their earliest legal level; merge underfull levels.
    LevelRepack,
    /// Renumber scratch blocks down to the minimal slot count.
    ScratchColor,
}

impl OptPass {
    /// The full pipeline, in the order [`OptConfig::full`] runs it.
    /// Coloring runs last so lifetime intervals are measured against the
    /// final (repacked) levels.
    pub const ALL: [OptPass; 4] = [
        OptPass::DeadOpElim,
        OptPass::CommonSubexpression,
        OptPass::LevelRepack,
        OptPass::ScratchColor,
    ];

    /// Stable human-readable pass name (used in reports and JSON).
    pub fn name(self) -> &'static str {
        match self {
            OptPass::DeadOpElim => "dead-op-elim",
            OptPass::CommonSubexpression => "common-subexpression",
            OptPass::LevelRepack => "level-repack",
            OptPass::ScratchColor => "scratch-color",
        }
    }

    // Bumped whenever a pass's rewrite logic changes, so cached programs
    // and report fingerprints invalidate even though the name does not.
    const fn version(self) -> u64 {
        match self {
            OptPass::DeadOpElim
            | OptPass::CommonSubexpression
            | OptPass::LevelRepack
            | OptPass::ScratchColor => 1,
        }
    }

    /// Fingerprint of this pass's identity + implementation version.
    pub fn fingerprint(self) -> u64 {
        let mut h = Fnv1a::new();
        h.bytes(self.name().as_bytes());
        h.word(self.version());
        h.finish()
    }
}

/// An ordered optimizer pipeline. The default is [`OptConfig::full`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct OptConfig {
    passes: Vec<OptPass>,
}

impl Default for OptConfig {
    fn default() -> Self {
        OptConfig::full()
    }
}

impl OptConfig {
    /// Every pass, in canonical order.
    pub fn full() -> Self {
        OptConfig {
            passes: OptPass::ALL.to_vec(),
        }
    }

    /// No passes at all — [`optimize`] becomes the identity (still
    /// emitting a trivially-holding certificate).
    pub fn empty() -> Self {
        OptConfig { passes: Vec::new() }
    }

    /// A custom pipeline; passes run in the given order.
    pub fn with_passes(passes: Vec<OptPass>) -> Self {
        OptConfig { passes }
    }

    /// The passes, in execution order.
    pub fn passes(&self) -> &[OptPass] {
        &self.passes
    }

    /// Order-sensitive fingerprint over pass identities + versions.
    /// Cached programs and analysis reports key on this so they
    /// invalidate when the pipeline composition changes.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.word(self.passes.len() as u64);
        for p in &self.passes {
            h.word(p.fingerprint());
        }
        h.finish()
    }
}

/// Static cost metrics of one program, the quantities the §III-D closed
/// forms bound. `scratch_blocks` counts distinct written blocks outside
/// the output set — the per-tile working-set overhead of the executor.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct CostSummary {
    /// Total op count (XOR folds + copies).
    pub ops: usize,
    /// Total XOR block operations: Σ over ops of (sources − 1).
    pub xors: usize,
    /// Total block reads: Σ over ops of sources.
    pub reads: usize,
    /// Dependency levels (barrier count for the parallel executors).
    pub levels: usize,
    /// Distinct written blocks that are not outputs.
    pub scratch_blocks: usize,
}

impl CostSummary {
    /// Measure `program` against the given output-block set.
    pub fn measure(program: &XorProgram, outputs: &BTreeSet<u32>) -> Self {
        let ops = program.op_count();
        let mut xors = 0usize;
        let mut scratch = BTreeSet::new();
        for op in 0..ops {
            xors += program.op_sources(op).len().saturating_sub(1);
            let t = program.op_target(op) as u32;
            if !outputs.contains(&t) {
                scratch.insert(t);
            }
        }
        CostSummary {
            ops,
            xors,
            reads: program.source_count(),
            levels: program.level_count(),
            scratch_blocks: scratch.len(),
        }
    }

    /// Whether `self` is no worse than `before` on every metric.
    pub fn no_worse_than(&self, before: &CostSummary) -> bool {
        self.ops <= before.ops
            && self.xors <= before.xors
            && self.reads <= before.reads
            && self.levels <= before.levels
            && self.scratch_blocks <= before.scratch_blocks
    }
}

/// Record of one pass execution inside a pipeline run.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct PassRun {
    /// Which pass ran.
    pub pass: OptPass,
    /// That pass's identity fingerprint at run time.
    pub fingerprint: u64,
    /// Whether the pass rewrote anything.
    pub changed: bool,
}

/// The cost-delta certificate attached to every optimized program. [`OptCertificate::holds`] is the proof obligation: the
/// equivalence check passed and no cost metric regressed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct OptCertificate {
    /// Fingerprint of the program the pipeline started from.
    pub original_fingerprint: u64,
    /// Fingerprint of the shipped program (equals the original when the
    /// pipeline was the identity or was reverted).
    pub optimized_fingerprint: u64,
    /// [`OptConfig::fingerprint`] of the pipeline that ran.
    pub pipeline_fingerprint: u64,
    /// Per-pass execution record, in order.
    pub passes: Vec<PassRun>,
    /// Costs before the pipeline.
    pub before: CostSummary,
    /// Costs of the shipped program.
    pub after: CostSummary,
    /// Whether the proof obligation was discharged: the shipped program
    /// is GF(2)-equivalent to the original on every output block over a
    /// fully generic initial state. Cleared (and the rewrite reverted)
    /// if the internal check ever fails.
    pub equivalent: bool,
}

impl OptCertificate {
    /// The certificate's proof obligation: equivalence discharged and
    /// every cost metric ≤ its pre-pipeline value.
    pub fn holds(&self) -> bool {
        self.equivalent && self.after.no_worse_than(&self.before)
    }

    /// Whether the pipeline changed no cost at all — required for the
    /// registry codes, which are certified already at the closed-form
    /// optimum.
    pub fn zero_delta(&self) -> bool {
        self.before == self.after
    }
}

/// An optimized program together with its certificate.
#[derive(Clone, Debug)]
pub struct Optimized {
    /// The shipped program (the original, untouched, when the pipeline
    /// was the identity).
    pub program: XorProgram,
    /// The cost-delta certificate for this run.
    pub certificate: OptCertificate,
}

/// Run the pass pipeline in `config` over `program` and certify the
/// result.
///
/// `outputs` is the set of linear block indices whose final contents are
/// observable; `None` means every written block is an output (true for
/// encode programs and full recovery plans, whose targets are exactly
/// the blocks being produced). Degraded-read subprograms pass the wanted
/// cell set, freeing the remaining targets to be treated as scratch.
///
/// The returned certificate always describes the shipped program: if the
/// internal equivalence or cost check fails, the original program is
/// shipped and `certificate.equivalent` is `false` so the failure is
/// loud downstream (`debug_assertions` builds assert it immediately).
pub fn optimize(
    program: &XorProgram,
    outputs: Option<&BTreeSet<usize>>,
    config: &OptConfig,
) -> Optimized {
    let out_set: BTreeSet<u32> = match outputs {
        Some(o) => o.iter().map(|&i| i as u32).collect(),
        None => (0..program.op_count())
            .map(|op| program.op_target(op) as u32)
            .collect(),
    };
    let before = CostSummary::measure(program, &out_set);
    let mut passes = Vec::with_capacity(config.passes().len());
    let mut current: Option<XorProgram> = None;
    if well_formed(program) {
        for &pass in config.passes() {
            let input = current.as_ref().unwrap_or(program);
            let next = match pass {
                OptPass::DeadOpElim => passes::dead_op_elim(input, &out_set),
                OptPass::CommonSubexpression => passes::common_subexpression(input),
                OptPass::LevelRepack => passes::level_repack(input),
                OptPass::ScratchColor => passes::scratch_coloring(input, &out_set),
            };
            let changed = next.is_some();
            if let Some(p) = next {
                current = Some(p);
            }
            passes.push(PassRun {
                pass,
                fingerprint: pass.fingerprint(),
                changed,
            });
        }
    } else {
        // Out-of-range block indices: leave the program alone (the
        // executors and verifier report such programs on their own).
        for &pass in config.passes() {
            passes.push(PassRun {
                pass,
                fingerprint: pass.fingerprint(),
                changed: false,
            });
        }
    }
    let (shipped, equivalent) = match current {
        Some(candidate) => {
            let after = CostSummary::measure(&candidate, &out_set);
            if outputs_equivalent(program, &candidate, &out_set) && after.no_worse_than(&before) {
                (candidate, true)
            } else {
                // Proof obligation failed: never ship an unproven
                // rewrite. The false `equivalent` makes the certificate
                // fail `holds()` so the pipeline bug surfaces in
                // analyze/CI instead of hiding behind the revert.
                (program.clone(), false)
            }
        }
        None => (program.clone(), true),
    };
    let after = CostSummary::measure(&shipped, &out_set);
    let certificate = OptCertificate {
        original_fingerprint: program.fingerprint(),
        optimized_fingerprint: shipped.fingerprint(),
        pipeline_fingerprint: config.fingerprint(),
        passes,
        before,
        after,
        equivalent,
    };
    Optimized {
        program: shipped,
        certificate,
    }
}

fn well_formed(program: &XorProgram) -> bool {
    let n = program.grid().len();
    (0..program.op_count()).all(|op| {
        program.op_target(op) < n && program.op_sources(op).iter().all(|&s| (s as usize) < n)
    })
}

/// Symbolic GF(2) replay over a fully generic initial state: block *i*
/// starts as the singleton bitset {*i*}, each op XORs its sources'
/// bitsets into its target. Comparing the final bitsets of the output
/// blocks is sound *and complete* for equivalence over every possible
/// starting stripe content (XOR programs are linear over GF(2)).
fn final_state(program: &XorProgram) -> Vec<Vec<u64>> {
    let n = program.grid().len();
    let words = n.div_ceil(64);
    let mut state: Vec<Vec<u64>> = (0..n)
        .map(|i| {
            let mut w = vec![0u64; words];
            w[i / 64] |= 1 << (i % 64);
            w
        })
        .collect();
    for op in 0..program.op_count() {
        let mut acc = vec![0u64; words];
        for &s in program.op_sources(op) {
            for (a, b) in acc.iter_mut().zip(&state[s as usize]) {
                *a ^= *b;
            }
        }
        state[program.op_target(op)] = acc;
    }
    state
}

fn outputs_equivalent(a: &XorProgram, b: &XorProgram, outputs: &BTreeSet<u32>) -> bool {
    if a.grid() != b.grid() {
        return false;
    }
    let sa = final_state(a);
    let sb = final_state(b);
    outputs.iter().all(|&o| sa[o as usize] == sb[o as usize])
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcode_baselines::registry::all_codes;
    use dcode_core::grid::Grid;

    fn toy(targets: Vec<u32>, srcs: Vec<Vec<u32>>, level_off: Vec<u32>) -> XorProgram {
        let mut src_off = vec![0u32];
        let mut sources = Vec::new();
        for s in srcs {
            sources.extend_from_slice(&s);
            src_off.push(sources.len() as u32);
        }
        XorProgram::from_raw_parts(Grid::new(4, 4), targets, src_off, sources, level_off)
    }

    #[test]
    fn pipeline_is_certified_identity_on_every_registry_program() {
        let config = OptConfig::full();
        for p in [5usize, 7, 11, 13, 17] {
            for layout in all_codes(p) {
                let encode = XorProgram::compile_encode(&layout);
                let opt = optimize(&encode, None, &config);
                assert!(
                    opt.certificate.holds(),
                    "{} p={p}: certificate",
                    layout.name()
                );
                assert!(
                    opt.certificate.zero_delta(),
                    "{} p={p}: registry encode must certify delta 0",
                    layout.name()
                );
                assert_eq!(
                    opt.program,
                    encode,
                    "{} p={p}: identity pipeline must return the program unchanged",
                    layout.name()
                );
                assert!(opt.certificate.passes.iter().all(|r| !r.changed));
            }
        }
    }

    #[test]
    fn full_pipeline_cleans_a_padded_program() {
        // Dead op + duplicate expression + late level + two scratch slots
        // with disjoint lifetimes, all in one program.
        let p = toy(
            vec![5, 11, 12, 6, 13],
            vec![vec![0, 1], vec![2, 3], vec![5, 2], vec![0, 3], vec![6, 1]],
            vec![0, 2, 3, 4, 5],
        );
        let opt = optimize(&p, Some(&BTreeSet::from([12, 13])), &OptConfig::full());
        assert!(opt.certificate.holds());
        assert!(opt.certificate.after.ops < opt.certificate.before.ops);
        // Repacking parallelizes the two scratch chains (4 levels → 2),
        // which makes their lifetimes overlap — so both slots stay.
        assert!(opt.certificate.after.levels < opt.certificate.before.levels);
        assert!(opt.certificate.after.scratch_blocks <= opt.certificate.before.scratch_blocks);
        assert!(opt.certificate.passes.iter().any(|r| r.changed));
    }

    #[test]
    fn failed_obligation_reverts_and_reports() {
        // An empty pipeline trivially holds; a certificate constructed by
        // a changing pipeline must tie optimized_fingerprint to the
        // shipped program.
        let p = toy(vec![12, 13], vec![vec![0, 1], vec![0, 1]], vec![0, 1, 2]);
        let opt = optimize(&p, None, &OptConfig::full());
        assert!(opt.certificate.holds());
        assert_eq!(
            opt.certificate.optimized_fingerprint,
            opt.program.fingerprint()
        );
        assert_eq!(opt.certificate.original_fingerprint, p.fingerprint());
    }

    #[test]
    fn config_fingerprint_is_order_and_version_sensitive() {
        let full = OptConfig::full().fingerprint();
        let reversed = OptConfig::with_passes(vec![
            OptPass::ScratchColor,
            OptPass::LevelRepack,
            OptPass::CommonSubexpression,
            OptPass::DeadOpElim,
        ])
        .fingerprint();
        assert_ne!(full, reversed);
        assert_ne!(full, OptConfig::empty().fingerprint());
        assert_eq!(full, OptConfig::full().fingerprint());
    }
}
