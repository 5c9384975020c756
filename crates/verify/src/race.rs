//! Static race checking for dependency levels.
//!
//! A program's dependency levels claim that the ops of one level are
//! mutually independent: they could run in any order, or at once, with the
//! same result. The optimizer's level repacking and the analyzer's
//! critical-path and speedup bounds both build on that claim. It holds
//! under exactly two conditions, both decidable from the program text
//! alone:
//!
//! 1. no two ops of one level write the same block (write/write), and
//! 2. no op reads a block another op of the same level writes
//!    (read/write).
//!
//! [`check_levels`] proves both, plus index bounds, for any program that
//! passes.

use crate::diag::{DiagKind, Diagnostic};
use dcode_codec::XorProgram;
use std::collections::BTreeMap;

/// Prove every dependency level of `program` hazard-free. Returns one
/// diagnostic per violation; an empty vector is the proof.
pub fn check_levels(program: &XorProgram) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let n_blocks = program.grid().len();
    for lv in 0..program.level_count() {
        let ops = program.level_ops(lv);
        // Who writes what in this level (first writer wins the map slot).
        let mut writer_of: BTreeMap<usize, usize> = BTreeMap::new();
        for op in ops.clone() {
            let t = program.op_target(op);
            if t >= n_blocks {
                out.push(Diagnostic::error(DiagKind::OutOfRange { op, block: t }));
                continue;
            }
            if let Some(&first_op) = writer_of.get(&t) {
                out.push(Diagnostic::error(DiagKind::WriteWriteHazard {
                    level: lv,
                    first_op,
                    second_op: op,
                    block: t,
                }));
            } else {
                writer_of.insert(t, op);
            }
        }
        for op in ops {
            for &s in program.op_sources(op) {
                let s = s as usize;
                if s >= n_blocks {
                    out.push(Diagnostic::error(DiagKind::OutOfRange { op, block: s }));
                    continue;
                }
                match writer_of.get(&s) {
                    // A read of the op's own target is reported by the
                    // linter as a self-reference; here we flag only
                    // cross-op hazards.
                    Some(&writer_op) if writer_op != op => {
                        out.push(Diagnostic::error(DiagKind::ReadWriteHazard {
                            level: lv,
                            reader_op: op,
                            writer_op,
                            block: s,
                        }));
                    }
                    _ => {}
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcode_baselines::registry::all_codes;
    use dcode_core::decoder::plan_column_recovery;

    #[test]
    fn compiled_programs_are_hazard_free() {
        for p in [5usize, 7, 11] {
            for layout in all_codes(p) {
                let prog = XorProgram::compile_encode(&layout);
                assert!(check_levels(&prog).is_empty(), "{} p={p}", layout.name());
                for c1 in 0..layout.disks() {
                    for c2 in c1 + 1..layout.disks() {
                        let plan = plan_column_recovery(&layout, &[c1, c2]).unwrap();
                        let prog = XorProgram::compile_plan(layout.grid(), &plan);
                        assert!(
                            check_levels(&prog).is_empty(),
                            "{} p={p} cols=({c1},{c2})",
                            layout.name()
                        );
                    }
                }
            }
        }
    }
}
