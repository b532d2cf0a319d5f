//! Basic-block frequency vectors over a captured committed stream.
//!
//! Each interval of the stream is summarized by how often execution sat in
//! each static basic block (per-instruction occupancy, which equals block
//! execution count × block size — the SimPoint weighting). The block ids
//! are the program's own [`Program::blocks`] table, i.e. exactly the ids
//! `parrot-analysis` reports from `block_at(pc)`, so phase boundaries line
//! up with the CFG/loop analysis. The high-dimensional vectors are then
//! pushed through a seeded ±1 random projection: the projection matrix is a
//! pure function of `(seed, block id, output dim)`, so features are
//! deterministic and independent of interval order.

use crate::Interval;
use parrot_telemetry::rng::Xorshift64Star;
use parrot_workloads::tracefmt::{ReplayCursor, TraceError, TraceFile};
use parrot_workloads::{BlockId, Program, Workload};
use std::sync::Arc;

/// Map every instruction id to the id of its containing basic block.
/// Blocks tile the instruction table contiguously, so this is a flat fill.
pub fn inst_block_table(prog: &Program) -> Vec<BlockId> {
    let mut table = vec![0 as BlockId; prog.num_insts()];
    for (b, blk) in prog.blocks.iter().enumerate() {
        for slot in &mut table[blk.first_inst as usize..(blk.first_inst + blk.num_insts) as usize] {
            *slot = b as BlockId;
        }
    }
    table
}

/// Decode `intervals` (which must be contiguous from stream position 0, as
/// [`crate::intervals_for`] produces) out of the capture and return one
/// normalized block-frequency vector per interval. Each vector has one slot
/// per program basic block and sums to 1.
pub fn interval_vectors(
    trace: &Arc<TraceFile>,
    wl: &Workload,
    intervals: &[Interval],
) -> Result<Vec<Vec<f64>>, TraceError> {
    let table = inst_block_table(&wl.program);
    let mut cur = ReplayCursor::new(Arc::clone(trace), wl)?;
    let mut out = Vec::with_capacity(intervals.len());
    let mut counts = vec![0u64; wl.program.blocks.len()];
    for iv in intervals {
        debug_assert_eq!(cur.read(), iv.start, "intervals must be contiguous");
        counts.iter_mut().for_each(|c| *c = 0);
        for _ in 0..iv.len {
            let d = cur.try_next()?;
            counts[table[d.inst as usize] as usize] += 1;
        }
        let inv = 1.0 / iv.len as f64;
        out.push(counts.iter().map(|c| *c as f64 * inv).collect());
    }
    Ok(out)
}

/// Project block-frequency vectors down to `dims` dimensions with a seeded
/// ±1 matrix (Achlioptas-style). Each matrix entry depends only on
/// `(seed, block id, dim)`, so the projection of a vector never depends on
/// which other vectors are present or in what order.
pub fn project(bbvs: &[Vec<f64>], dims: usize, seed: u64) -> Vec<Vec<f64>> {
    let full = bbvs.first().map_or(0, Vec::len);
    let scale = 1.0 / (dims.max(1) as f64).sqrt();
    let signs: Vec<Vec<f64>> = (0..full)
        .map(|b| {
            let mut r = Xorshift64Star::seed_from_u64(
                seed ^ (b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            (0..dims)
                .map(|_| {
                    if r.next_u64() >> 63 == 1 {
                        scale
                    } else {
                        -scale
                    }
                })
                .collect()
        })
        .collect();
    bbvs.iter()
        .map(|v| {
            let mut out = vec![0.0; dims];
            for (x, row) in v.iter().zip(&signs) {
                if *x != 0.0 {
                    for (o, s) in out.iter_mut().zip(row) {
                        *o += *x * *s;
                    }
                }
            }
            out
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intervals_for;
    use parrot_workloads::app_by_name;
    use parrot_workloads::tracefmt::capture;

    fn workload(name: &str) -> Workload {
        Workload::build(&app_by_name(name).expect("registered"))
    }

    #[test]
    fn block_table_tiles_the_program() {
        let wl = workload("twolf");
        let table = inst_block_table(&wl.program);
        assert_eq!(table.len(), wl.program.num_insts());
        // Every block's range maps to its own id, and ids are nondecreasing.
        for (b, blk) in wl.program.blocks.iter().enumerate() {
            for i in blk.inst_ids() {
                assert_eq!(table[i as usize], b as BlockId);
            }
        }
    }

    #[test]
    fn interval_vectors_are_normalized_frequencies() {
        let wl = workload("vpr");
        let budget = 6_000;
        let trace = Arc::new(capture(&wl, budget, 512).expect("encodable"));
        let ivs = intervals_for(budget, 2_500);
        let bbvs = interval_vectors(&trace, &wl, &ivs).expect("decodes");
        assert_eq!(bbvs.len(), 3);
        for v in &bbvs {
            assert_eq!(v.len(), wl.program.blocks.len());
            let sum: f64 = v.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "frequencies sum to 1, got {sum}");
            assert!(v.iter().all(|x| *x >= 0.0));
        }
    }

    #[test]
    fn projection_is_order_independent_and_seeded() {
        let wl = workload("ammp");
        let budget = 8_000;
        let trace = Arc::new(capture(&wl, budget, 1_024).expect("encodable"));
        let ivs = intervals_for(budget, 2_000);
        let bbvs = interval_vectors(&trace, &wl, &ivs).expect("decodes");
        let fwd = project(&bbvs, 16, 7);
        // Projecting a reversed slice gives the reversed projections,
        // bitwise: each row depends only on its own vector and the seed.
        let rev: Vec<Vec<f64>> = bbvs.iter().rev().cloned().collect();
        let back = project(&rev, 16, 7);
        let unrev: Vec<Vec<f64>> = back.into_iter().rev().collect();
        assert_eq!(fwd, unrev);
        // A different seed yields different features.
        assert_ne!(fwd, project(&bbvs, 16, 8));
        for row in &fwd {
            assert_eq!(row.len(), 16);
        }
    }
}
