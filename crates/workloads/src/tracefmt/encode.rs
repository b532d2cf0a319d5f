//! Capture side of the trace format: runs a workload's engine, verifies
//! every derivability invariant the decoder depends on, and assembles the
//! DESIGN.md §16 container.
//!
//! The encoder is deliberately paranoid: rather than trusting that the
//! committed stream obeys the invariants the compact encoding exploits
//! (contiguous layout, textual fall-through, stack-address discipline), it
//! checks each one per instruction and fails with
//! [`TraceError::Unencodable`] on the first violation. A capture that
//! succeeds is therefore *guaranteed* to replay byte-identically.

use std::collections::BTreeMap;

use parrot_isa::InstKind;
use parrot_telemetry::metrics;

use super::varint::{write_varint, zigzag};
use super::{
    fnv1a_bytes, source_fingerprint, TraceError, TraceFile, END_MAGIC, FORMAT_VERSION, HEADER_LEN,
    INDEX_ENTRY_LEN, MAGIC, NAME_LEN,
};
use crate::{DynInst, Workload};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// A control event: `run` textually-sequential instructions followed by one
/// control transfer whose successor id is `cti_id + 1 + delta`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    run: u64,
    ctl: u8,
    delta: i64,
}

/// Maximum dictionary entries per slice; token bytes `0x00..=0xEF` are
/// dictionary references, `0xF0`/`0xF1` are the literal/trailing-run tokens.
const DICT_MAX: usize = 0xF0;
/// Literal (non-dictionary) event token.
pub(super) const TOK_LITERAL: u8 = 0xF0;
/// Trailing sequential run token (slice ends mid-run).
pub(super) const TOK_RUN: u8 = 0xF1;

/// Capture the first `insts` committed instructions of `wl` into an
/// in-memory trace file with `slice_insts` instructions per slice (pass
/// [`super::DEFAULT_SLICE_INSTS`] absent a preference). Sets the
/// `capture:written` telemetry counter to `insts` on success.
///
/// ```
/// use parrot_workloads::tracefmt::{capture, DEFAULT_SLICE_INSTS};
/// use parrot_workloads::{app_by_name, Workload};
///
/// let wl = Workload::build(&app_by_name("twolf").expect("registered"));
/// let trace = capture(&wl, 4_000, DEFAULT_SLICE_INSTS).expect("encodable");
/// assert_eq!(trace.inst_count(), 4_000);
/// assert_eq!(trace.slices().len(), 1);
/// trace.check_source(&wl).expect("fingerprint binds trace to workload");
/// ```
pub fn capture(wl: &Workload, insts: u64, slice_insts: u32) -> Result<TraceFile, TraceError> {
    if insts == 0 {
        return Err(TraceError::Unencodable(
            "cannot capture 0 instructions".into(),
        ));
    }
    if slice_insts == 0 {
        return Err(TraceError::Unencodable(
            "slice size must be positive".into(),
        ));
    }
    let name = wl.profile.name;
    if name.len() > NAME_LEN {
        return Err(TraceError::Unencodable(format!(
            "app name {name:?} exceeds {NAME_LEN} bytes"
        )));
    }
    let prog = &wl.program;
    let mut eng = wl.engine();
    let mut cur = eng.next().expect("engine streams are infinite");
    let mut depth: u64 = 0;

    let slice_count = insts.div_ceil(u64::from(slice_insts)) as usize;
    let mut payloads: Vec<u8> = Vec::new();
    let mut index: Vec<u8> = Vec::with_capacity(slice_count * INDEX_ENTRY_LEN);
    let mut done: u64 = 0;

    for _ in 0..slice_count {
        let take = u64::from(slice_insts).min(insts - done);
        let first_inst = cur.inst;
        let start_depth = depth;

        // Pass 1 over the slice: verify invariants, collect control events
        // and per-stream address deltas.
        let mut events: Vec<Event> = Vec::new();
        let mut run: u64 = 0;
        let mut addrs: Vec<u8> = Vec::new();
        let mut last_addr: Vec<u64> = vec![0; prog.addr_streams.len()];
        for _ in 0..take {
            let next = eng.next().expect("engine streams are infinite");
            verify_static(&cur, wl)?;
            depth = verify_memory(&cur, wl, depth, &mut last_addr, &mut addrs)?;
            if cur.taken {
                let delta = i64::from(next.inst) - (i64::from(cur.inst) + 1);
                if cur.next_pc != prog.inst(next.inst).addr {
                    return Err(TraceError::Unencodable(format!(
                        "inst {}: next_pc {:#x} is not the address of successor {}",
                        cur.inst, cur.next_pc, next.inst
                    )));
                }
                events.push(Event { run, ctl: 1, delta });
                run = 0;
            } else {
                // Not-taken commits must be textually sequential or the
                // run-length encoding cannot represent them.
                if next.inst != cur.inst + 1 || cur.next_pc != cur.pc + u64::from(cur.len) {
                    return Err(TraceError::Unencodable(format!(
                        "inst {}: not-taken but successor {} is not textually next",
                        cur.inst, next.inst
                    )));
                }
                run += 1;
            }
            cur = next;
        }

        // Pass 2: deterministic dictionary over this slice's events (most
        // frequent first, ties broken by field order so captures of the
        // same stream are byte-identical regardless of allocator state).
        let mut freq: BTreeMap<Event, u64> = BTreeMap::new();
        for e in &events {
            *freq.entry(*e).or_insert(0) += 1;
        }
        let mut by_count: Vec<(Event, u64)> = freq.into_iter().filter(|(_, c)| *c >= 2).collect();
        by_count.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        by_count.truncate(DICT_MAX);
        let dict: Vec<Event> = by_count.into_iter().map(|(e, _)| e).collect();
        let dict_of = |e: &Event| dict.iter().position(|d| d == e);

        // Pass 3: token stream.
        let mut toks: Vec<u8> = Vec::new();
        for e in &events {
            match dict_of(e) {
                Some(i) => toks.push(i as u8),
                None => {
                    toks.push(TOK_LITERAL);
                    toks.push(e.ctl);
                    write_varint(&mut toks, e.run);
                    write_varint(&mut toks, zigzag(e.delta));
                }
            }
        }
        if run > 0 {
            toks.push(TOK_RUN);
            write_varint(&mut toks, run);
        }

        // Slice payload: dictionary, token section, address section.
        let off = HEADER_LEN + payloads.len();
        let mut pl: Vec<u8> = Vec::with_capacity(toks.len() + addrs.len() + 64);
        pl.push(dict.len() as u8);
        for e in &dict {
            pl.push(e.ctl);
            write_varint(&mut pl, e.run);
            write_varint(&mut pl, zigzag(e.delta));
        }
        write_varint(&mut pl, toks.len() as u64);
        pl.extend_from_slice(&toks);
        write_varint(&mut pl, addrs.len() as u64);
        pl.extend_from_slice(&addrs);

        index.extend_from_slice(&(off as u64).to_le_bytes());
        index.extend_from_slice(&(pl.len() as u32).to_le_bytes());
        index.extend_from_slice(&first_inst.to_le_bytes());
        index.extend_from_slice(&(start_depth as u32).to_le_bytes());
        index.extend_from_slice(&0u32.to_le_bytes());
        index.extend_from_slice(&fnv1a_bytes(FNV_OFFSET, &pl).to_le_bytes());
        payloads.extend_from_slice(&pl);
        done += take;
    }

    // Container: header, payloads, index, trailer.
    let index_off = HEADER_LEN + payloads.len();
    let total = index_off + index.len() + super::TRAILER_LEN;
    let mut out: Vec<u8> = Vec::with_capacity(total);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(HEADER_LEN as u32).to_le_bytes());
    let mut name_field = [0u8; NAME_LEN];
    name_field[..name.len()].copy_from_slice(name.as_bytes());
    out.extend_from_slice(&name_field);
    out.extend_from_slice(&source_fingerprint(&wl.profile, prog).to_le_bytes());
    out.extend_from_slice(&insts.to_le_bytes());
    out.extend_from_slice(&slice_insts.to_le_bytes());
    out.extend_from_slice(&(slice_count as u32).to_le_bytes());
    out.extend_from_slice(&(index_off as u64).to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes()); // flags
    out.resize(HEADER_LEN, 0); // reserved
    out.extend_from_slice(&payloads);
    out.extend_from_slice(&index);
    out.extend_from_slice(&fnv1a_bytes(FNV_OFFSET, &out).to_le_bytes());
    out.extend_from_slice(&END_MAGIC);
    debug_assert_eq!(out.len(), total);

    let file = TraceFile::parse(out).expect("encoder output must self-validate");
    // The payloads were encoded from the live stream and verified against
    // the program above, so they decode: check_source need not decode them.
    let _ = file.decodes.set(Ok(()));
    metrics::counter_set("capture:written", insts);
    Ok(file)
}

/// Check the fields the decoder derives from the static program.
fn verify_static(d: &DynInst, wl: &Workload) -> Result<(), TraceError> {
    let inst = wl.program.inst(d.inst);
    if d.pc != inst.addr || d.len != inst.len {
        return Err(TraceError::Unencodable(format!(
            "inst {}: committed pc/len {:#x}/{} disagree with layout {:#x}/{}",
            d.inst, d.pc, d.len, inst.addr, inst.len
        )));
    }
    Ok(())
}

/// Check the memory fields, appending explicit address deltas for stream
/// references and verifying stack discipline for calls/returns. Returns the
/// call depth after this instruction.
fn verify_memory(
    d: &DynInst,
    wl: &Workload,
    depth: u64,
    last_addr: &mut [u64],
    addrs: &mut Vec<u8>,
) -> Result<u64, TraceError> {
    let kind = &wl.program.inst(d.inst).kind;
    if let Some(m) = kind.mem_ref() {
        if !d.has_mem {
            return Err(TraceError::Unencodable(format!(
                "inst {}: memory op committed without an address",
                d.inst
            )));
        }
        let sid = m.stream as usize;
        let delta = d.eff_addr.wrapping_sub(last_addr[sid]) as i64;
        write_varint(addrs, zigzag(delta));
        last_addr[sid] = d.eff_addr;
        return Ok(depth);
    }
    match kind {
        InstKind::Call => {
            let want = wl.program.stack_base - 8 * (depth + 1);
            if !d.has_mem || d.eff_addr != want {
                return Err(TraceError::Unencodable(format!(
                    "inst {}: call at depth {depth} pushed at {:#x}, expected {want:#x}",
                    d.inst, d.eff_addr
                )));
            }
            Ok(depth + 1)
        }
        InstKind::Return => {
            let want = wl.program.stack_base - 8 * depth.max(1);
            if !d.has_mem || d.eff_addr != want {
                return Err(TraceError::Unencodable(format!(
                    "inst {}: return at depth {depth} popped at {:#x}, expected {want:#x}",
                    d.inst, d.eff_addr
                )));
            }
            Ok(depth.saturating_sub(1))
        }
        _ => {
            if d.has_mem || d.eff_addr != 0 {
                return Err(TraceError::Unencodable(format!(
                    "inst {}: non-memory op committed with an address",
                    d.inst
                )));
            }
            Ok(depth)
        }
    }
}
