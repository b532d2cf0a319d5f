//! A `.ptrace` file never panics the reader (DESIGN.md §16.7): fixed-seed
//! mutants of a small capture — payload bytes, slice-index fields, header
//! fields, truncations and splices, each resealed so the checksums hold —
//! are either refused with a structured [`TraceError`] by `parse` or
//! `check_source`, or replay to the end without a panic. Phase sampling's
//! planner builds a plan from exactly the mutants that decode.

use parrot_sampling::{build_plan, SamplingSpec};
use parrot_workloads::tracefmt::{
    capture, decode_all, ReplayCursor, TraceError, TraceFile, HEADER_LEN, INDEX_ENTRY_LEN,
    TRAILER_LEN,
};
use parrot_workloads::{app_by_name, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

const MUTANTS: u64 = 10_000;
/// Header fields as (offset, width): version, header length, source
/// fingerprint, instruction count, slice length, slice count, index offset.
const HEADER_FIELDS: [(usize, usize); 7] = [
    (0x08, 4),
    (0x0c, 4),
    (0x28, 8),
    (0x30, 8),
    (0x38, 4),
    (0x3c, 4),
    (0x40, 8),
];
/// Slice-index fields as (offset in the entry, width): payload offset,
/// length, first instruction, start depth.
const INDEX_FIELDS: [(usize, usize); 4] = [(0x00, 8), (0x08, 4), (0x0c, 4), (0x10, 4)];

struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn rd(b: &[u8], off: usize, width: usize) -> u64 {
    let mut v = [0u8; 8];
    v[..width].copy_from_slice(&b[off..off + width]);
    u64::from_le_bytes(v)
}

fn wr(b: &mut [u8], off: usize, width: usize, v: u64) {
    b[off..off + width].copy_from_slice(&v.to_le_bytes()[..width]);
}

/// Add a small or an arbitrary amount to a field.
fn nudge(b: &mut [u8], off: usize, width: usize, rng: &mut SplitMix) {
    let v = rd(b, off, width);
    let v = match rng.below(3) {
        0 => v.wrapping_add(1),
        1 => v.wrapping_sub(1 + rng.below(8) as u64),
        _ => rng.next(),
    };
    wr(b, off, width, v);
}

/// Recompute every slice checksum the index can locate and the whole-file
/// checksum, as DESIGN.md §16.5 specifies, so only the content is wrong.
fn reseal(b: &mut [u8]) {
    if b.len() < HEADER_LEN + TRAILER_LEN {
        return;
    }
    let (count, index) = (rd(b, 0x3c, 4) as usize, rd(b, 0x40, 8) as usize);
    for i in 0..count.min(4096) {
        let e = index.saturating_add(i * INDEX_ENTRY_LEN);
        if e.saturating_add(INDEX_ENTRY_LEN) > b.len() - TRAILER_LEN {
            break;
        }
        let (off, len) = (rd(b, e, 8) as usize, rd(b, e + 8, 4) as usize);
        if off.checked_add(len).is_some_and(|end| end <= b.len()) {
            let fp = fnv1a(&b[off..off + len]);
            wr(b, e + 0x18, 8, fp);
        }
    }
    let trailer = b.len() - TRAILER_LEN;
    let fp = fnv1a(&b[..trailer]);
    wr(b, trailer, 8, fp);
}

/// One mutant of `base`, by kind: a payload byte, an index field, a header
/// field, a truncation, or a splice (a copied run of bytes, in place or
/// inserted).
fn mutate(base: &[u8], payload_end: usize, slices: usize, rng: &mut SplitMix) -> Vec<u8> {
    let mut b = base.to_vec();
    let payload = HEADER_LEN..payload_end;
    match rng.below(5) {
        0 => {
            let at = payload.start + rng.below(payload.len());
            b[at] = match rng.below(2) {
                0 => b[at] ^ (1 << rng.below(8)),
                _ => rng.next() as u8,
            };
        }
        1 => {
            let (off, width) = INDEX_FIELDS[rng.below(INDEX_FIELDS.len())];
            nudge(
                &mut b,
                payload_end + rng.below(slices) * INDEX_ENTRY_LEN + off,
                width,
                rng,
            );
        }
        2 => {
            let (off, width) = HEADER_FIELDS[rng.below(HEADER_FIELDS.len())];
            nudge(&mut b, off, width, rng);
        }
        3 => b.truncate(rng.below(base.len())),
        _ => {
            let len = 1 + rng.below(64);
            let from = payload.start + rng.below(payload.len() - len);
            let run = b[from..from + len].to_vec();
            let to = payload.start + rng.below(payload.len() - len);
            if rng.below(2) == 0 {
                b[to..to + len].copy_from_slice(&run);
            } else {
                b.splice(to..to, run);
            }
        }
    }
    reseal(&mut b);
    b
}

/// What a replay does with a parsed file: bind it, then read the whole
/// stream in order and jump to every slice.
fn replay(trace: Arc<TraceFile>, wl: &Workload) -> Result<(), TraceError> {
    trace.check_source(wl)?;
    let mut cur = ReplayCursor::new(Arc::clone(&trace), wl).expect("checked file opens");
    for _ in 0..trace.inst_count() {
        cur.next_inst();
    }
    for i in 0..trace.slices().len() {
        cur.at_slice(i).expect("checked file seeks");
    }
    assert_eq!(
        decode_all(&trace, wl).map(|d| d.len() as u64),
        Ok(trace.inst_count())
    );
    Ok(())
}

/// What phase sampling does with a parsed file: plan the capture (up to
/// `budget` instructions) in intervals that split slices and leave a
/// partial tail. Returns whether a plan was built.
///
/// The planner walks control events without decoding addresses, so on its
/// own it would accept a file whose address section is corrupt. It agrees
/// with `decode_all` because `RunWalker::new` first runs `check_source`,
/// which decodes every slice; this check pins that call, and fails if the
/// planner opens a file without it.
fn plan(trace: &Arc<TraceFile>, wl: &Workload, budget: u64) -> bool {
    let spec = SamplingSpec {
        interval: 333,
        max_k: 3,
        ..SamplingSpec::default()
    };
    let planned = build_plan(trace, wl, trace.inst_count().min(budget), &spec).is_ok();
    assert!(
        !planned || decode_all(trace, wl).is_ok(),
        "a plan was built from a file that does not decode"
    );
    planned
}

#[test]
fn resealed_mutants_never_panic_the_reader() {
    let wl = Workload::build(&app_by_name("gcc").expect("registered"));
    let trace = capture(&wl, 1_500, 200).expect("encodable");
    let base = trace.bytes().to_vec();
    let payload_end = trace.slices().last().map_or(HEADER_LEN, |e| e.off + e.len);
    let mut rng = SplitMix(0x005e_ed0f_7ace);
    // Mutants refused by `parse`, refused by `check_source`, replayed.
    let mut outcomes = [0u64; 3];
    let mut panics = Vec::new();
    for n in 0..MUTANTS {
        let mutant = mutate(&base, payload_end, trace.slices().len(), &mut rng);
        let outcome = catch_unwind(AssertUnwindSafe(|| match TraceFile::parse(mutant) {
            Err(_) => 0,
            Ok(t) => {
                let t = Arc::new(t);
                let planned = plan(&t, &wl, trace.inst_count());
                let replayed = replay(t, &wl).is_ok();
                assert_eq!(
                    planned, replayed,
                    "plans are built from the files that replay"
                );
                1 + usize::from(replayed)
            }
        }));
        match outcome {
            Ok(i) => outcomes[i] += 1,
            Err(_) => panics.push(n),
        }
    }
    assert!(panics.is_empty(), "mutants {panics:?} panicked");
    // Every outcome occurs often: resealed mutants get past the container
    // checks to the decoder, and some decode to a different valid stream,
    // which only `parrot replay --verify` can tell from the capture.
    assert!(
        outcomes.iter().all(|n| *n > MUTANTS / 20),
        "parse refused, check_source refused, replayed: {outcomes:?}"
    );
}
