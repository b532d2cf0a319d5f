//! Replay side of the trace format: a streaming cursor that re-materializes
//! the committed [`DynInst`] stream from a parsed [`TraceFile`] plus the
//! static [`crate::Program`] it was captured from.
//!
//! Slices are self-contained (DESIGN.md §16.4): [`ReplayCursor::at_slice`]
//! jumps to any slice boundary using only that slice's index entry, which
//! is what phase-sampled simulation will build on.

use std::sync::Arc;

use parrot_isa::InstKind;

use super::encode::{TOK_LITERAL, TOK_RUN};
use super::varint::{read_varint, unzigzag};
use super::{TraceError, TraceFile};
use crate::program::Program;
use crate::{DynInst, Workload};

/// An event pulled from the dictionary or a literal token: `run` sequential
/// instructions, then one control transfer (`ctl` bit 0 = taken) whose
/// successor id is `cti_id + 1 + delta`.
#[derive(Clone, Copy)]
struct Event {
    run: u64,
    ctl: u8,
    delta: i64,
}

/// Streaming decoder over a captured trace.
///
/// Construction runs [`TraceFile::check_source`], which binds the trace to
/// the workload and decodes the whole file once, so a cursor can only exist
/// for a file that decodes against the exact program that was captured.
/// Past that point no slice can fail to decode, and the hot-path
/// [`ReplayCursor::next_inst`] fails only past the end of the capture;
/// [`ReplayCursor::try_next`] reports that as a structured [`TraceError`].
///
/// ```
/// use parrot_workloads::tracefmt::{capture, ReplayCursor};
/// use parrot_workloads::{app_by_name, Workload};
/// use std::sync::Arc;
///
/// let wl = Workload::build(&app_by_name("vpr").expect("registered"));
/// let trace = Arc::new(capture(&wl, 1_500, 300).expect("encodable"));
/// let mut cur = ReplayCursor::new(trace, &wl).expect("source matches");
/// let live = wl.engine().nth(0).expect("infinite stream");
/// assert_eq!(cur.next_inst(), live);
/// assert_eq!(cur.read(), 1);
/// ```
pub struct ReplayCursor<'p> {
    trace: Arc<TraceFile>,
    prog: &'p Program,
    /// Slice currently buffered.
    slice: usize,
    /// The current slice, fully decoded. Batch-decoding one slice at a
    /// time keeps the per-instruction hot path a plain buffer read while
    /// bounding memory at one slice regardless of capture length.
    buf: Vec<DynInst>,
    buf_pos: usize,
    /// Per-stream previous effective address (reset per slice).
    last_addr: Vec<u64>,
    /// Total instructions emitted.
    read: u64,
}

impl<'p> ReplayCursor<'p> {
    /// Open a cursor at the start of the capture. Fails with the error of
    /// [`TraceFile::check_source`]: [`TraceError::SourceMismatch`] if the
    /// trace was not captured from `wl`, or [`TraceError::Malformed`] if
    /// some slice does not decode.
    pub fn new(trace: Arc<TraceFile>, wl: &'p Workload) -> Result<ReplayCursor<'p>, TraceError> {
        trace.check_source(wl)?;
        let mut c = ReplayCursor {
            trace,
            prog: &wl.program,
            slice: 0,
            buf: Vec::new(),
            buf_pos: 0,
            last_addr: vec![0; wl.program.addr_streams.len()],
            read: 0,
        };
        c.load_slice(0)?;
        Ok(c)
    }

    /// Total instructions emitted so far (the `replay:read` counter value).
    pub fn read(&self) -> u64 {
        self.read
    }

    /// The trace being replayed.
    pub fn trace(&self) -> &TraceFile {
        &self.trace
    }

    /// Reposition at the start of slice `i`, using only that slice's index
    /// entry (random access). `read()` restarts from the slice's global
    /// position.
    pub fn at_slice(&mut self, i: usize) -> Result<(), TraceError> {
        self.load_slice(i)?;
        self.read = i as u64 * u64::from(self.trace.slice_insts());
        Ok(())
    }

    /// Batch-decode slice `i` into the instruction buffer.
    fn load_slice(&mut self, i: usize) -> Result<(), TraceError> {
        self.slice = i;
        self.buf_pos = 0;
        decode_slice(
            &self.trace,
            self.prog,
            i,
            &mut self.buf,
            &mut self.last_addr,
        )?;
        Ok(())
    }

    /// Reposition at absolute stream position `pos` (instructions from the
    /// start of the capture), so the next decode returns instruction `pos`.
    /// Random access: jumps to the enclosing slice through its index entry
    /// ([`ReplayCursor::at_slice`]) and decodes at most one slice's worth of
    /// instructions to land mid-slice. Fails with [`TraceError::TooShort`]
    /// when the capture does not extend past `pos`.
    pub fn seek(&mut self, pos: u64) -> Result<(), TraceError> {
        if pos >= self.trace.inst_count() {
            return Err(TraceError::TooShort {
                captured: self.trace.inst_count(),
                requested: pos + 1,
            });
        }
        let per = u64::from(self.trace.slice_insts());
        self.at_slice((pos / per) as usize)?;
        for _ in 0..pos % per {
            self.try_next()?;
        }
        Ok(())
    }

    /// Decode the next committed instruction, or [`TraceError::TooShort`]
    /// past the end of the capture.
    pub fn try_next(&mut self) -> Result<DynInst, TraceError> {
        if self.buf_pos == self.buf.len() {
            if self.read >= self.trace.inst_count() {
                return Err(TraceError::TooShort {
                    captured: self.trace.inst_count(),
                    requested: self.read + 1,
                });
            }
            self.load_slice(self.slice + 1)?;
        }
        let d = self.buf[self.buf_pos];
        self.buf_pos += 1;
        self.read += 1;
        Ok(d)
    }

    /// Infallible hot-path decode for the simulator's oracle stream: a
    /// buffer read, with a batch decode of the next slice every
    /// [`TraceFile::slice_insts`] calls.
    ///
    /// # Panics
    ///
    /// Panics if the cursor is advanced past [`TraceFile::inst_count`],
    /// which an instruction budget validated against the capture rules
    /// out. A payload that does not decode cannot reach this point:
    /// [`ReplayCursor::new`] ran [`TraceFile::check_source`], which decoded
    /// the whole file. [`ReplayCursor::try_next`] is the fallible form.
    #[inline]
    pub fn next_inst(&mut self) -> DynInst {
        if self.buf_pos < self.buf.len() {
            let d = self.buf[self.buf_pos];
            self.buf_pos += 1;
            self.read += 1;
            return d;
        }
        match self.try_next() {
            Ok(d) => d,
            Err(e) => panic!("trace replay past the checked capture: {e}"),
        }
    }
}

/// One event of a slice's token stream: `run` sequential instructions
/// from id `first`, then, unless the event is the slice's trailing run, the
/// control transfer at id `first + run`.
#[derive(Clone, Copy)]
struct Step {
    first: u32,
    run: u64,
    /// The closing control transfer: taken, and the successor's id.
    cti: Option<(bool, u32)>,
}

/// The token stream of one slice, parsed event by event: section framing,
/// dictionary and literal tokens and the trailing run, with every framing
/// and id bound checked as it goes. [`decode_slice`] materializes
/// instructions from it, [`RunWalker`] only the id runs; neither decodes a
/// token itself. The address section is located but not read.
struct SliceEvents<'a> {
    slice: usize,
    pl: &'a [u8],
    dict: Vec<Event>,
    tok_pos: usize,
    tok_end: usize,
    /// The address section, `pl[addr.0..addr.1]`.
    addr: (usize, usize),
    /// Id of the next instruction the stream emits.
    id: u32,
    /// Instructions of the slice not yet emitted.
    left: u64,
    num_insts: usize,
}

impl<'a> SliceEvents<'a> {
    /// Frame slice `i` of `trace` for a program of `num_insts`
    /// instructions.
    fn open(trace: &'a TraceFile, i: usize, num_insts: usize) -> Result<Self, TraceError> {
        let entries = trace.slices();
        let entry = *entries.get(i).ok_or_else(|| {
            TraceError::Malformed(format!("slice {i} out of range ({})", entries.len()))
        })?;
        let per = u64::from(trace.slice_insts());
        let slice_len = per.min(trace.inst_count() - i as u64 * per);

        // Section framing.
        let pl = &trace.bytes()[entry.off..entry.off + entry.len];
        let mut pos = 0usize;
        let dict_count = *pl
            .first()
            .ok_or_else(|| TraceError::Malformed(format!("slice {i}: empty payload")))?
            as usize;
        pos += 1;
        if dict_count >= TOK_LITERAL as usize {
            return Err(TraceError::Malformed(format!(
                "slice {i}: dictionary of {dict_count} entries exceeds the token space"
            )));
        }
        let mut dict: Vec<Event> = Vec::with_capacity(dict_count);
        for _ in 0..dict_count {
            let (ev, used) = read_event(&pl[pos..])
                .ok_or_else(|| TraceError::Malformed(format!("slice {i}: truncated dictionary")))?;
            dict.push(ev);
            pos += used;
        }
        let (tok_len, used) = read_varint(&pl[pos..])
            .ok_or_else(|| TraceError::Malformed(format!("slice {i}: missing token length")))?;
        pos += used;
        let tok_pos = pos;
        pos = pos
            .checked_add(tok_len as usize)
            .filter(|p| *p <= pl.len())
            .ok_or_else(|| TraceError::Malformed(format!("slice {i}: token section overruns")))?;
        let tok_end = pos;
        let (addr_len, used) = read_varint(&pl[pos..])
            .ok_or_else(|| TraceError::Malformed(format!("slice {i}: missing address length")))?;
        pos += used;
        let addr_pos = pos;
        pos = pos
            .checked_add(addr_len as usize)
            .filter(|p| *p == pl.len())
            .ok_or_else(|| {
                TraceError::Malformed(format!("slice {i}: address section does not end the slice"))
            })?;
        Ok(SliceEvents {
            slice: i,
            pl,
            dict,
            tok_pos,
            tok_end,
            addr: (addr_pos, pos),
            id: entry.first_inst,
            left: slice_len,
            num_insts,
        })
    }

    /// The next event, or `None` once the slice's instructions are all
    /// emitted and the token section is consumed exactly. Every event makes
    /// progress (a CTI, or a nonempty trailing run), so a slice ends after
    /// at most its length in events.
    #[inline]
    fn next_step(&mut self) -> Result<Option<Step>, TraceError> {
        let i = self.slice;
        let (pl, tok_end) = (self.pl, self.tok_end);
        if self.left == 0 {
            if self.tok_pos != tok_end {
                return Err(TraceError::Malformed(format!(
                    "slice {i}: token stream overruns the slice"
                )));
            }
            return Ok(None);
        }
        if self.tok_pos >= tok_end {
            return Err(TraceError::Malformed(format!(
                "slice {i}: token stream ends {} instructions early",
                self.left
            )));
        }
        let tok = pl[self.tok_pos];
        self.tok_pos += 1;
        let first = self.id;
        let ev = match tok {
            TOK_RUN => {
                let (run, used) = read_varint(&pl[self.tok_pos..tok_end]).ok_or_else(|| {
                    TraceError::Malformed(format!("slice {i}: truncated trailing run"))
                })?;
                self.tok_pos += used;
                // A trailing run has no CTI: it must cover exactly the
                // rest of the slice.
                if run != self.left {
                    return Err(TraceError::Malformed(format!(
                        "slice {i}: trailing run of {run} does not close the slice"
                    )));
                }
                self.id = self.bound_ids(run)?;
                self.left = 0;
                return Ok(Some(Step {
                    first,
                    run,
                    cti: None,
                }));
            }
            TOK_LITERAL => {
                let (ev, used) = read_event(&pl[self.tok_pos..tok_end]).ok_or_else(|| {
                    TraceError::Malformed(format!("slice {i}: truncated literal event"))
                })?;
                self.tok_pos += used;
                ev
            }
            d => *self.dict.get(d as usize).ok_or_else(|| {
                TraceError::Malformed(format!(
                    "slice {i}: dictionary reference {d} out of range ({})",
                    self.dict.len()
                ))
            })?,
        };
        // Saturating: a hand-made run length may be any 64-bit value.
        let emitted = ev.run.saturating_add(1);
        if emitted > self.left {
            return Err(TraceError::Malformed(format!(
                "slice {i}: token stream overruns the slice"
            )));
        }
        self.bound_ids(emitted)?;
        self.left -= emitted;
        let cti_id = first + ev.run as u32;
        let next_id = (i64::from(cti_id) + 1).wrapping_add(ev.delta) as u32;
        if (next_id as usize) >= self.num_insts {
            return Err(TraceError::Malformed(format!(
                "slice {i}: control transfer to id {next_id} outside the program"
            )));
        }
        self.id = next_id;
        Ok(Some(Step {
            first,
            run: ev.run,
            cti: Some((ev.ctl & 1 != 0, next_id)),
        }))
    }

    /// Check that the `n` sequential ids from the next one lie inside the
    /// program (bounded once per event, not per instruction), and return
    /// the id after them.
    fn bound_ids(&self, n: u64) -> Result<u32, TraceError> {
        let end = u64::from(self.id).saturating_add(n);
        if end > self.num_insts as u64 {
            return Err(TraceError::Malformed(format!(
                "slice {}: instruction id {} outside the program",
                self.slice,
                end - 1
            )));
        }
        Ok(end as u32)
    }
}

/// Batch-decode slice `i` of `trace` into `buf`, validating the whole
/// payload (section framing, dictionary references, id bounds, token and
/// address sections consumed exactly) as it goes. Returns the decoder state
/// after the slice: the next instruction id and the call depth.
fn decode_slice(
    trace: &TraceFile,
    prog: &Program,
    i: usize,
    buf: &mut Vec<DynInst>,
    last_addr: &mut [u64],
) -> Result<(u32, u64), TraceError> {
    let mut events = SliceEvents::open(trace, i, prog.num_insts())?;
    buf.clear();
    buf.reserve(events.left as usize);
    last_addr.iter_mut().for_each(|a| *a = 0);
    let pl = events.pl;
    let (mut addr_pos, addr_end) = events.addr;
    let mut depth = u64::from(trace.slices()[i].start_depth);
    while let Some(step) = events.next_step()? {
        // The event's id range is bounds-checked, so the run can iterate
        // the instruction table slice directly.
        let mut id = step.first;
        for inst in &prog.insts[id as usize..id as usize + step.run as usize] {
            let (eff_addr, has_mem) = eff_addr(
                prog,
                &inst.kind,
                pl,
                &mut addr_pos,
                addr_end,
                last_addr,
                &mut depth,
                i,
            )?;
            buf.push(DynInst {
                inst: id,
                pc: inst.addr,
                len: inst.len,
                taken: false,
                next_pc: inst.addr + u64::from(inst.len),
                eff_addr,
                has_mem,
            });
            id += 1;
        }
        let Some((taken, next_id)) = step.cti else {
            continue;
        };
        let inst = prog.inst(id);
        let (ea, has_mem) = eff_addr(
            prog,
            &inst.kind,
            pl,
            &mut addr_pos,
            addr_end,
            last_addr,
            &mut depth,
            i,
        )?;
        buf.push(DynInst {
            inst: id,
            pc: inst.addr,
            len: inst.len,
            taken,
            next_pc: prog.inst(next_id).addr,
            eff_addr: ea,
            has_mem,
        });
    }
    if addr_pos != addr_end {
        return Err(TraceError::Malformed(format!(
            "slice {i}: {} unconsumed address bytes",
            addr_end - addr_pos
        )));
    }
    Ok((events.id, depth))
}

/// Walks a capture's control events from its start and yields the
/// committed stream as runs of sequential instruction ids, decoding no
/// address: the form a consumer that only needs *which* instructions ran
/// (phase vectors) reads.
///
/// Construction runs [`TraceFile::check_source`], as [`ReplayCursor::new`]
/// does, so the runs are exactly the ids [`ReplayCursor`] would emit.
///
/// ```
/// use parrot_workloads::tracefmt::{capture, RunWalker};
/// use parrot_workloads::{app_by_name, Workload};
///
/// let wl = Workload::build(&app_by_name("gcc").expect("registered"));
/// let trace = capture(&wl, 1_000, 256).expect("encodable");
/// let mut runs = RunWalker::new(&trace, &wl).expect("source matches");
/// let mut ids = Vec::new();
/// while ids.len() < 1_000 {
///     let (first, count) = runs.next_run().expect("inside the capture");
///     ids.extend(first..first + count);
/// }
/// let live: Vec<u32> = wl.engine().take(1_000).map(|d| d.inst).collect();
/// assert_eq!(ids, live);
/// assert!(runs.next_run().is_err(), "the capture ends at 1,000");
/// ```
pub struct RunWalker<'a> {
    trace: &'a TraceFile,
    events: SliceEvents<'a>,
    /// Instructions yielded so far.
    read: u64,
}

impl<'a> RunWalker<'a> {
    /// Open a walker at the start of the capture. Fails as
    /// [`ReplayCursor::new`] does.
    pub fn new(trace: &'a TraceFile, wl: &Workload) -> Result<RunWalker<'a>, TraceError> {
        trace.check_source(wl)?;
        Ok(RunWalker {
            trace,
            events: SliceEvents::open(trace, 0, wl.program.num_insts())?,
            read: 0,
        })
    }

    /// The next run as `(first id, count)`: `count ≥ 1` instructions with
    /// ids `first, first + 1, …` in stream order. A run never crosses a
    /// slice boundary. Fails with [`TraceError::TooShort`] past the end of
    /// the capture.
    #[inline]
    pub fn next_run(&mut self) -> Result<(u32, u32), TraceError> {
        loop {
            if let Some(step) = self.events.next_step()? {
                // Nonempty: a trailing run covers the rest of a slice.
                let count = step.run + u64::from(step.cti.is_some());
                self.read += count;
                return Ok((step.first, count as u32));
            }
            let next = self.events.slice + 1;
            if next >= self.trace.slices().len() {
                return Err(TraceError::TooShort {
                    captured: self.trace.inst_count(),
                    requested: self.read + 1,
                });
            }
            self.events = SliceEvents::open(self.trace, next, self.events.num_insts)?;
        }
    }
}

/// Decode every slice of `trace` against `prog` and check that each
/// slice's index restart state (first instruction, call depth) is where
/// the slice before it ended. A file that passes decodes without error
/// from any slice on. [`TraceFile::check_source`] runs this once per file.
pub(super) fn check_stream(trace: &TraceFile, prog: &Program) -> Result<(), TraceError> {
    let mut buf = Vec::new();
    let mut last_addr = vec![0; prog.addr_streams.len()];
    let mut end = None;
    for (i, entry) in trace.slices().iter().enumerate() {
        if let Some((id, depth)) = end {
            if entry.first_inst != id || u64::from(entry.start_depth) != depth {
                return Err(TraceError::Malformed(format!(
                    "slice {i}: index restart (inst {}, depth {}) disagrees with \
                     the decoded stream (inst {id}, depth {depth})",
                    entry.first_inst, entry.start_depth
                )));
            }
        }
        end = Some(decode_slice(trace, prog, i, &mut buf, &mut last_addr)?);
    }
    Ok(())
}

/// Effective-address reconstruction for one instruction: memory ops read a
/// per-stream zigzag delta from the address section, calls/returns derive
/// the stack slot from the tracked depth, everything else has none.
#[allow(clippy::too_many_arguments)]
fn eff_addr(
    prog: &Program,
    kind: &InstKind,
    pl: &[u8],
    addr_pos: &mut usize,
    addr_end: usize,
    last_addr: &mut [u64],
    depth: &mut u64,
    slice: usize,
) -> Result<(u64, bool), TraceError> {
    if let Some(m) = kind.mem_ref() {
        let (zz, used) = read_varint(&pl[*addr_pos..addr_end]).ok_or_else(|| {
            TraceError::Malformed(format!("slice {slice}: address section exhausted"))
        })?;
        *addr_pos += used;
        let sid = m.stream as usize;
        let addr = last_addr[sid].wrapping_add(unzigzag(zz) as u64);
        last_addr[sid] = addr;
        return Ok((addr, true));
    }
    match kind {
        InstKind::Call | InstKind::Return => {
            let call = matches!(kind, InstKind::Call);
            let slot = if call { *depth + 1 } else { (*depth).max(1) };
            // A hand-made start depth can put the slot below address 0.
            let addr = prog.stack_base.checked_sub(8 * slot).ok_or_else(|| {
                TraceError::Malformed(format!(
                    "slice {slice}: call depth {depth} overruns the stack"
                ))
            })?;
            *depth = if call { slot } else { depth.saturating_sub(1) };
            Ok((addr, true))
        }
        _ => Ok((0, false)),
    }
}

impl std::fmt::Debug for ReplayCursor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplayCursor")
            .field("app", &self.trace.app_name())
            .field("slice", &self.slice)
            .field("read", &self.read)
            .finish()
    }
}

fn read_event(buf: &[u8]) -> Option<(Event, usize)> {
    let ctl = *buf.first()?;
    let mut pos = 1usize;
    let (run, used) = read_varint(&buf[pos..])?;
    pos += used;
    let (zz, used) = read_varint(&buf[pos..])?;
    pos += used;
    Some((
        Event {
            run,
            ctl,
            delta: unzigzag(zz),
        },
        pos,
    ))
}

/// Decode an entire capture fallibly — the validation path used by
/// `parrot replay --verify` and by tests on untrusted files. Returns the
/// full committed stream or the first structural error.
///
/// ```
/// use parrot_workloads::tracefmt::{capture, decode_all};
/// use parrot_workloads::{app_by_name, Workload};
/// use std::sync::Arc;
///
/// let wl = Workload::build(&app_by_name("art").expect("registered"));
/// let trace = Arc::new(capture(&wl, 800, 128).expect("encodable"));
/// let stream = decode_all(&trace, &wl).expect("decodes");
/// assert_eq!(stream.len(), 800);
/// ```
pub fn decode_all(trace: &Arc<TraceFile>, wl: &Workload) -> Result<Vec<DynInst>, TraceError> {
    let mut cur = ReplayCursor::new(Arc::clone(trace), wl)?;
    let n = trace.inst_count() as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(cur.try_next()?);
    }
    Ok(out)
}
