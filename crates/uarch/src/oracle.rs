//! A lookahead buffer over the committed instruction stream.
//!
//! Trace-driven simulation consumes the architectural (oracle) stream in
//! order, and PARROT also *peeks ahead*: the fetch selector matches a
//! predicted trace's recorded path against the upcoming instructions, and
//! the cold front end decides how many instructions one fetch cycle takes.
//! Nothing is consumed before that decision, so an aborted atomic trace
//! never rewinds: its instructions are still ahead of the cursor, and the
//! cold pipeline fetches them next. [`OracleStream`] buffers only what has
//! been peeked and not yet popped.

use parrot_workloads::{DynInst, ExecutionEngine, StreamSource};
use std::collections::VecDeque;

/// Lookahead buffer over a [`StreamSource`]'s output (live engine or trace
/// replay), bounded by an instruction budget.
#[derive(Debug)]
pub struct OracleStream<'p> {
    src: StreamSource<'p>,
    /// Pulled but not yet consumed; `ahead[0]` has sequence `cursor`.
    ahead: VecDeque<DynInst>,
    /// Next sequence number to be consumed.
    cursor: u64,
    /// Total instructions the stream will supply.
    limit: u64,
}

impl<'p> OracleStream<'p> {
    /// Wrap a live engine, capping the stream at `limit` instructions.
    pub fn new(engine: ExecutionEngine<'p>, limit: u64) -> OracleStream<'p> {
        Self::from_source(StreamSource::Live(engine), limit)
    }

    /// Wrap any committed-stream source, capping at `limit` instructions.
    /// For a replay source the caller must have validated that the capture
    /// holds at least `limit` instructions (`SimRequest` does).
    pub fn from_source(src: StreamSource<'p>, limit: u64) -> OracleStream<'p> {
        OracleStream {
            src,
            ahead: VecDeque::with_capacity(128),
            cursor: 0,
            limit,
        }
    }

    /// Total instructions pulled from the underlying source so far (the
    /// basis of the `replay:read` reconciliation counter).
    pub fn pulled(&self) -> u64 {
        self.cursor + self.ahead.len() as u64
    }

    /// Is the underlying source a trace replay?
    pub fn is_replay(&self) -> bool {
        self.src.is_replay()
    }

    /// The next sequence number to be consumed.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Instructions remaining before the budget is exhausted.
    pub fn remaining(&self) -> u64 {
        self.limit.saturating_sub(self.cursor)
    }

    /// Has the budget been exhausted?
    pub fn exhausted(&self) -> bool {
        self.cursor >= self.limit
    }

    /// Peek `ahead` instructions past the cursor (0 = next to consume),
    /// if within budget.
    pub fn peek(&mut self, ahead: u64) -> Option<DynInst> {
        if ahead >= self.remaining() {
            return None;
        }
        let k = ahead as usize;
        while self.ahead.len() <= k {
            let d = self.src.next_inst();
            self.ahead.push_back(d);
        }
        Some(self.ahead[k])
    }

    /// Consume and return the instruction at the cursor.
    pub fn pop(&mut self) -> Option<DynInst> {
        let d = self.peek(0)?;
        self.ahead.pop_front();
        self.cursor += 1;
        Some(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parrot_workloads::{generate_program, AppProfile, Suite};

    #[test]
    fn respects_budget() {
        let prog = generate_program(&AppProfile::suite_base(Suite::SpecInt));
        let mut o = OracleStream::new(ExecutionEngine::new(&prog), 100);
        let mut n = 0;
        while o.pop().is_some() {
            n += 1;
        }
        assert_eq!(n, 100);
        assert!(o.exhausted());
        assert_eq!(o.remaining(), 0);
        assert_eq!(o.peek(0), None);
        assert_eq!(o.pulled(), 100);
    }
}
