//! The optimizer's standing regression tripwire: per-scope cost-delta
//! certificates for everything the codec compiles for a layout.
//!
//! The registry codes are compiled *optimally* by construction — their
//! schedule compiler emits no dead ops, no duplicate subexpressions, no
//! slack levels — so the optimizer pipeline must be the **identity** on
//! them: every cost metric's delta must be exactly zero. A nonzero delta
//! on a registry code means one of two bugs: the compiler regressed (it
//! now emits removable work) or an optimizer pass regressed (it claims
//! wins that do not exist). Either way `dcode analyze --opt-delta` turns
//! red. Degraded-read *subprograms* are the exception: their outputs are
//! a strict subset of their targets, so scratch coloring may legitimately
//! tighten them — those entries only require `after ≤ before`.

use crate::claims::closed_forms;
use dcode_codec::opt::{optimize, CostSummary, OptCertificate, OptConfig};
use dcode_codec::XorProgram;
use dcode_core::decoder::plan_column_recovery;
use dcode_core::layout::CodeLayout;
use std::collections::BTreeSet;
use std::fmt;

/// One scope's cost-delta certificate.
#[derive(Clone, Debug)]
pub struct OptEntry {
    /// What was optimized (e.g. `"encode"`, `"recovery plans (21 pairs)"`).
    pub scope: String,
    /// Aggregate cost before the pipeline (sums across the scope's
    /// programs; levels and scratch blocks sum too — deltas, not shapes,
    /// are what this table tracks).
    pub before: CostSummary,
    /// Aggregate cost after.
    pub after: CostSummary,
    /// Whether every program in the scope passed its equivalence check.
    pub equivalent: bool,
    /// Whether this scope demands delta = 0 (registry codes compile
    /// optimally, so any motion is a regression somewhere).
    pub require_zero: bool,
}

impl OptEntry {
    /// The proof obligation for this scope: equivalence held, no metric
    /// regressed, and — where required — nothing moved at all.
    pub fn holds(&self) -> bool {
        self.equivalent
            && self.after.no_worse_than(&self.before)
            && (!self.require_zero || self.before == self.after)
    }

    fn from_certificate(scope: &str, cert: &OptCertificate, require_zero: bool) -> Self {
        OptEntry {
            scope: scope.to_string(),
            before: cert.before,
            after: cert.after,
            equivalent: cert.equivalent,
            require_zero,
        }
    }
}

/// The per-layout opt-delta table `dcode analyze --opt-delta` renders.
#[derive(Clone, Debug)]
pub struct OptDeltaReport {
    /// Code display name.
    pub code: String,
    /// The construction prime.
    pub p: usize,
    /// Fingerprint of the pipeline the deltas were measured under.
    pub pipeline_fingerprint: u64,
    /// One entry per scope, in compilation order.
    pub entries: Vec<OptEntry>,
}

impl OptDeltaReport {
    /// `true` when every entry's obligation holds — the CI bar.
    pub fn is_clean(&self) -> bool {
        self.entries.iter().all(OptEntry::holds)
    }

    /// Render as a single JSON object (hand-rolled like
    /// [`crate::report::AnalysisReport::to_json`]).
    pub fn to_json(&self) -> String {
        let entries: Vec<String> = self
            .entries
            .iter()
            .map(|e| {
                format!(
                    concat!(
                        "{{\"scope\": \"{}\", \"before\": {}, \"after\": {}, ",
                        "\"equivalent\": {}, \"require_zero\": {}, \"holds\": {}}}"
                    ),
                    esc(&e.scope),
                    cost_json(&e.before),
                    cost_json(&e.after),
                    e.equivalent,
                    e.require_zero,
                    e.holds(),
                )
            })
            .collect();
        format!(
            concat!(
                "{{\"code\": \"{}\", \"p\": {}, ",
                "\"pipeline_fingerprint\": \"{:#018x}\", ",
                "\"entries\": [{}], \"clean\": {}}}"
            ),
            esc(&self.code),
            self.p,
            self.pipeline_fingerprint,
            entries.join(", "),
            self.is_clean(),
        )
    }
}

fn cost_json(c: &CostSummary) -> String {
    format!(
        concat!(
            "{{\"ops\": {}, \"xors\": {}, \"reads\": {}, ",
            "\"levels\": {}, \"scratch_blocks\": {}}}"
        ),
        c.ops, c.xors, c.reads, c.levels, c.scratch_blocks
    )
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

impl fmt::Display for OptDeltaReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} p={} opt-delta (pipeline {:#018x})",
            self.code, self.p, self.pipeline_fingerprint
        )?;
        for e in &self.entries {
            writeln!(
                f,
                "  {:<38} ops {}->{}, xors {}->{}, reads {}->{}, levels {}->{}, scratch {}->{} {}{}",
                e.scope,
                e.before.ops,
                e.after.ops,
                e.before.xors,
                e.after.xors,
                e.before.reads,
                e.after.reads,
                e.before.levels,
                e.after.levels,
                e.before.scratch_blocks,
                e.after.scratch_blocks,
                if e.require_zero { "[delta must be 0] " } else { "" },
                if e.holds() { "ok" } else { "VIOLATED" },
            )?;
        }
        write!(
            f,
            "  verdict:  {}",
            if self.is_clean() {
                "certified"
            } else {
                "NOT CERTIFIED"
            }
        )
    }
}

fn add(a: CostSummary, b: CostSummary) -> CostSummary {
    CostSummary {
        ops: a.ops + b.ops,
        xors: a.xors + b.xors,
        reads: a.reads + b.reads,
        levels: a.levels + b.levels,
        scratch_blocks: a.scratch_blocks + b.scratch_blocks,
    }
}

const ZERO: CostSummary = CostSummary {
    ops: 0,
    xors: 0,
    reads: 0,
    levels: 0,
    scratch_blocks: 0,
};

/// Build the full opt-delta table for `layout` under the default
/// pipeline: the encode program, every 2-column recovery program
/// (aggregated), and a sample of degraded-read subprograms (aggregated,
/// `≤` only). Batches need no scope of their own: `run_batch` replays
/// these same programs stripe by stripe.
///
/// # Panics
/// Like [`crate::analyze_layout`], assumes a verified-MDS layout.
pub fn opt_delta(layout: &CodeLayout) -> OptDeltaReport {
    let grid = layout.grid();
    let config = OptConfig::default();
    let pipeline_fingerprint = config.fingerprint();
    // Registry codes compile optimally; demand exact zero on them. A
    // custom spec outside the registry only has to not regress.
    let require_zero = closed_forms(layout.name(), layout.prime()).is_some();
    let mut entries = Vec::new();

    // Scope 1: the encode program.
    let encode = XorProgram::compile_encode(layout);
    let opt_encode = optimize(&encode, None, &config);
    entries.push(OptEntry::from_certificate(
        "encode",
        &opt_encode.certificate,
        require_zero,
    ));

    // Scope 2: every 2-column recovery program, aggregated.
    let disks = layout.disks();
    let mut rec = OptEntry {
        scope: String::new(),
        before: ZERO,
        after: ZERO,
        equivalent: true,
        require_zero,
    };
    let mut pairs = 0usize;
    for c1 in 0..disks {
        for c2 in c1 + 1..disks {
            let plan = plan_column_recovery(layout, &[c1, c2])
                .expect("opt_delta assumes a verified-MDS layout");
            let prog = XorProgram::compile_plan(grid, &plan);
            let outputs: BTreeSet<usize> = plan.erased.iter().map(|&c| grid.index(c)).collect();
            let opt = optimize(&prog, Some(&outputs), &config);
            rec.before = add(rec.before, opt.certificate.before);
            rec.after = add(rec.after, opt.certificate.after);
            rec.equivalent &= opt.certificate.equivalent;
            pairs += 1;
        }
    }
    rec.scope = format!("recovery plans ({pairs} pairs)");
    entries.push(rec);

    // Scope 3: degraded-read subprograms — one wanted column per
    // 2-column erasure involving disk 0, aggregated. Outputs are a
    // strict subset of targets here, so the optimizer may legitimately
    // shrink them: no zero-delta demand, only monotonicity.
    let mut sub = OptEntry {
        scope: String::new(),
        before: ZERO,
        after: ZERO,
        equivalent: true,
        require_zero: false,
    };
    let mut samples = 0usize;
    for partner in 1..disks {
        let plan = plan_column_recovery(layout, &[0, partner])
            .expect("opt_delta assumes a verified-MDS layout");
        let missing: BTreeSet<_> = grid.column(0).collect();
        let subprog = XorProgram::compile_plan(grid, &plan.subplan_for(&missing));
        let outputs: BTreeSet<usize> = missing.iter().map(|&c| grid.index(c)).collect();
        let opt = optimize(&subprog, Some(&outputs), &config);
        sub.before = add(sub.before, opt.certificate.before);
        sub.after = add(sub.after, opt.certificate.after);
        sub.equivalent &= opt.certificate.equivalent;
        samples += 1;
    }
    sub.scope = format!("degraded-read subprograms ({samples} sampled)");
    entries.push(sub);

    OptDeltaReport {
        code: layout.name().to_string(),
        p: layout.prime(),
        pipeline_fingerprint,
        entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcode_baselines::registry::all_codes;

    #[test]
    fn every_registry_code_certifies_zero_delta_at_every_sweep_prime() {
        // The standing tripwire: registry codes × p ∈ {5,7,11,13,17} must
        // certify delta = 0 on every zero-demand scope. A failure here
        // means either the schedule compiler started emitting removable
        // work or an optimizer pass started claiming phantom wins.
        for p in [5usize, 7, 11, 13, 17] {
            for layout in all_codes(p) {
                let report = opt_delta(&layout);
                assert!(report.is_clean(), "{} p={p}:\n{report}", layout.name());
                assert_eq!(report.entries.len(), 3, "{} p={p}", layout.name());
                for e in &report.entries {
                    assert!(e.equivalent, "{} p={p} {}", layout.name(), e.scope);
                    if e.require_zero {
                        assert_eq!(e.before, e.after, "{} p={p} {}", layout.name(), e.scope);
                    }
                }
            }
        }
    }

    #[test]
    fn json_and_display_are_structurally_sound() {
        let report = opt_delta(&dcode_core::dcode::dcode(7).unwrap());
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"clean\": true"));
        assert!(json.contains("\"scope\": \"encode\""));
        assert!(json.contains("\"require_zero\": false")); // subprogram scope
        let text = report.to_string();
        assert!(text.contains("opt-delta"));
        assert!(text.ends_with("certified"));
    }

    #[test]
    fn a_planted_regression_is_not_clean() {
        // Flip an entry's `after` upward: the obligation must fail even
        // though equivalence held.
        let mut report = opt_delta(&dcode_core::dcode::dcode(5).unwrap());
        report.entries[0].after.xors += 1;
        assert!(!report.is_clean());
        assert!(report.to_string().contains("VIOLATED"));
    }
}
