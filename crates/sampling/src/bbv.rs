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

use crate::{Interval, SampleError};
use parrot_telemetry::rng::Xorshift64Star;
use parrot_workloads::tracefmt::{RunWalker, TraceFile};
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

/// Walk the capture's control events over `intervals` (which must be
/// contiguous from stream position 0, as [`crate::intervals_for`] produces)
/// and return one normalized block-frequency vector per interval. Each
/// vector has one slot per program basic block and sums to 1.
///
/// Only instruction ids are needed, so the walk reads the capture as runs
/// of sequential ids ([`RunWalker`]) and decodes no address; a run that
/// straddles an interval boundary is split there. The walk stops at the end
/// of the last interval, wherever the capture ends. Fails with
/// [`SampleError::Intervals`] on intervals that are not contiguous, and
/// with [`SampleError::Trace`] if the capture does not bind to `wl` or
/// ends before the last interval.
pub fn interval_vectors(
    trace: &Arc<TraceFile>,
    wl: &Workload,
    intervals: &[Interval],
) -> Result<Vec<Vec<f64>>, SampleError> {
    let table = inst_block_table(&wl.program);
    let mut runs = RunWalker::new(trace, wl)?;
    let mut out = Vec::with_capacity(intervals.len());
    let mut counts = vec![0u64; wl.program.blocks.len()];
    // Stream position, and the part of the current run not yet charged.
    let mut pos = 0u64;
    let (mut first, mut left) = (0u32, 0u32);
    for (k, iv) in intervals.iter().enumerate() {
        if iv.start != pos {
            return Err(SampleError::Intervals(format!(
                "interval {k} starts at {}, but the intervals before it end at {pos}",
                iv.start
            )));
        }
        counts.iter_mut().for_each(|c| *c = 0);
        let mut need = iv.len;
        while need > 0 {
            if left == 0 {
                (first, left) = runs.next_run()?;
            }
            let take = u64::from(left).min(need) as u32;
            for &b in &table[first as usize..(first + take) as usize] {
                counts[b as usize] += 1;
            }
            (first, left) = (first + take, left - take);
            need -= u64::from(take);
        }
        pos += iv.len;
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
    use parrot_workloads::tracefmt::{capture, decode_all, TraceError};

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

    /// Block-frequency vectors built the direct way, as a reference for
    /// [`interval_vectors`]: the whole capture decoded into instructions,
    /// then each interval's instructions charged one by one.
    fn reference_vectors(
        trace: &Arc<TraceFile>,
        wl: &Workload,
        intervals: &[Interval],
    ) -> Vec<Vec<f64>> {
        let table = inst_block_table(&wl.program);
        let stream = decode_all(trace, wl).expect("decodes");
        intervals
            .iter()
            .map(|iv| {
                let mut counts = vec![0u64; wl.program.blocks.len()];
                for d in &stream[iv.start as usize..(iv.start + iv.len) as usize] {
                    counts[table[d.inst as usize] as usize] += 1;
                }
                let inv = 1.0 / iv.len as f64;
                counts.iter().map(|c| *c as f64 * inv).collect()
            })
            .collect()
    }

    fn bits(vs: &[Vec<f64>]) -> Vec<Vec<u64>> {
        vs.iter()
            .map(|v| v.iter().map(|x| x.to_bits()).collect())
            .collect()
    }

    #[test]
    fn event_walk_vectors_equal_the_per_instruction_reference_bitwise() {
        // Slice sizes that do and do not divide the interval lengths, a
        // budget shorter than the capture, and a final partial interval.
        let captured = 21_000;
        for app in ["gcc", "swim", "eon", "vpr"] {
            let wl = workload(app);
            for slice in [97, 1_024, 8_192] {
                let trace = Arc::new(capture(&wl, captured, slice).expect("encodable"));
                for (budget, interval) in [(20_000, 3_001), (captured, 5_000), (9_999, 1_000)] {
                    let ivs = intervals_for(budget, interval);
                    assert!(ivs.last().expect("nonempty").len < interval, "partial tail");
                    let got = interval_vectors(&trace, &wl, &ivs).expect("walks");
                    assert_eq!(
                        bits(&got),
                        bits(&reference_vectors(&trace, &wl, &ivs)),
                        "{app}, slice {slice}, budget {budget}, interval {interval}"
                    );
                }
            }
        }
    }

    #[test]
    fn non_contiguous_intervals_and_short_captures_are_errors() {
        let wl = workload("gzip");
        let trace = Arc::new(capture(&wl, 4_000, 512).expect("encodable"));
        let gap = [
            Interval {
                start: 0,
                len: 1_000,
            },
            Interval {
                start: 1_500,
                len: 1_000,
            },
        ];
        match interval_vectors(&trace, &wl, &gap) {
            Err(SampleError::Intervals(why)) => assert!(why.contains("interval 1"), "{why}"),
            other => panic!("a gap must be refused, got {other:?}"),
        }
        let late = [Interval {
            start: 10,
            len: 100,
        }];
        assert!(matches!(
            interval_vectors(&trace, &wl, &late),
            Err(SampleError::Intervals(_))
        ));
        // Past the end of the capture: the cursor's error, unchanged.
        assert!(matches!(
            interval_vectors(&trace, &wl, &intervals_for(5_000, 1_000)),
            Err(SampleError::Trace(TraceError::TooShort {
                captured: 4_000,
                requested: 4_001
            }))
        ));
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
