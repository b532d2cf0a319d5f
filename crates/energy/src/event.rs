/// A microarchitectural unit, for energy breakdown reporting (paper Fig 4.11).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Unit {
    /// Instruction cache + fetch datapath.
    Fetch,
    /// Variable-length CISC decoders.
    Decode,
    /// Branch predictor, BTB and RAS.
    Bpred,
    /// Register rename tables and allocation.
    Rename,
    /// Scheduler window (issue queue) + reorder buffer.
    Window,
    /// Register files (read/write ports).
    RegFile,
    /// Integer/FP/SIMD execution units and AGUs.
    Exec,
    /// Load/store queue and L1 data cache.
    Lsu,
    /// Unified L2 cache.
    L2,
    /// In-order commit and retirement bookkeeping.
    Commit,
    /// Decoded/optimized trace cache (reads, writes, tags).
    TraceCache,
    /// Next-trace (TID) predictor.
    TracePred,
    /// Hot and blazing filters + TID selection logic.
    Filters,
    /// The dynamic trace optimizer.
    Optimizer,
    /// Split-core register state-switch synchronization.
    StateSwitch,
    /// Global clock distribution and per-cycle idle overhead.
    Clock,
    /// Static leakage (paper's `LE` formula).
    Leakage,
}

impl Unit {
    /// All units, in breakdown display order.
    pub const ALL: [Unit; 17] = [
        Unit::Fetch,
        Unit::Decode,
        Unit::Bpred,
        Unit::Rename,
        Unit::Window,
        Unit::RegFile,
        Unit::Exec,
        Unit::Lsu,
        Unit::L2,
        Unit::Commit,
        Unit::TraceCache,
        Unit::TracePred,
        Unit::Filters,
        Unit::Optimizer,
        Unit::StateSwitch,
        Unit::Clock,
        Unit::Leakage,
    ];

    /// Dense index for table storage: the declaration order, which is
    /// also the order of [`Unit::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            Unit::Fetch => "fetch",
            Unit::Decode => "decode",
            Unit::Bpred => "bpred",
            Unit::Rename => "rename",
            Unit::Window => "window",
            Unit::RegFile => "regfile",
            Unit::Exec => "exec",
            Unit::Lsu => "lsu",
            Unit::L2 => "l2",
            Unit::Commit => "commit",
            Unit::TraceCache => "tcache",
            Unit::TracePred => "tpred",
            Unit::Filters => "filters",
            Unit::Optimizer => "optimizer",
            Unit::StateSwitch => "switch",
            Unit::Clock => "clock",
            Unit::Leakage => "leakage",
        }
    }
}

/// A countable microarchitectural activity with an energy cost.
///
/// Timing models emit these as they simulate; the [`crate::EnergyModel`]
/// prices each one according to the machine configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Event {
    // --- front end (cold pipeline) ---
    /// One I-cache line read.
    IcacheAccess,
    /// An I-cache miss serviced from L2.
    IcacheMiss,
    /// Decode of a single-uop macro-instruction.
    DecodeSimple,
    /// Decode of a multi-uop (CISC) macro-instruction.
    DecodeComplex,
    /// Conditional-branch predictor lookup.
    BpredLookup,
    /// Predictor training update.
    BpredUpdate,
    /// Branch target buffer access.
    BtbAccess,
    /// Return address stack push/pop.
    RasAccess,

    // --- rename / window ---
    /// Rename table lookup + allocation for one uop.
    RenameUop,
    /// ROB entry allocation/write.
    RobWrite,
    /// ROB read at retirement.
    RobRead,
    /// Issue-queue insertion.
    IqInsert,
    /// Tag broadcast/wakeup activity for one completing uop.
    IqWakeup,
    /// Select logic activity for one issued uop.
    IqSelect,

    // --- register file / execution ---
    /// One register file read port access.
    RegRead,
    /// One register file write port access.
    RegWrite,
    /// Integer ALU operation.
    ExecAlu,
    /// Integer multiply.
    ExecMul,
    /// Integer divide.
    ExecDiv,
    /// FP add/sub/move.
    ExecFpAdd,
    /// FP multiply.
    ExecFpMul,
    /// FP divide.
    ExecFpDiv,
    /// One lane of a packed (SIMDified) operation.
    ExecSimdLane,
    /// Address generation for a memory uop.
    AguCalc,

    // --- memory hierarchy ---
    /// L1 data cache access.
    L1dAccess,
    /// L1 data miss (fill + request).
    L1dMiss,
    /// L2 access.
    L2Access,
    /// L2 miss / bus + DRAM activity.
    MemAccess,

    // --- retirement / recovery ---
    /// One uop committed.
    CommitUop,
    /// One macro-instruction architecturally retired.
    CommitInst,
    /// One in-flight uop squashed by a flush (mispredict or trace abort).
    FlushUop,

    // --- PARROT additions ---
    /// One uop read from the trace cache data array.
    TcRead,
    /// Trace cache tag/TID lookup.
    TcTagAccess,
    /// One uop written into the trace cache (construction or optimized
    /// write-back).
    TcWrite,
    /// Next-TID predictor lookup.
    TpredLookup,
    /// Next-TID predictor update.
    TpredUpdate,
    /// Hot-filter counter access.
    HotFilterAccess,
    /// Blazing-filter counter access.
    BlazingFilterAccess,
    /// TID selection logic processing one committed instruction.
    SelectorStep,
    /// Optimizer work: one uop analyzed in one pass.
    OptimizerUop,
    /// One live register communicated across a split-core state switch.
    StateSwitchReg,
}

impl Event {
    /// All events (dense enumeration for tables).
    pub const ALL: [Event; 41] = [
        Event::IcacheAccess,
        Event::IcacheMiss,
        Event::DecodeSimple,
        Event::DecodeComplex,
        Event::BpredLookup,
        Event::BpredUpdate,
        Event::BtbAccess,
        Event::RasAccess,
        Event::RenameUop,
        Event::RobWrite,
        Event::RobRead,
        Event::IqInsert,
        Event::IqWakeup,
        Event::IqSelect,
        Event::RegRead,
        Event::RegWrite,
        Event::ExecAlu,
        Event::ExecMul,
        Event::ExecDiv,
        Event::ExecFpAdd,
        Event::ExecFpMul,
        Event::ExecFpDiv,
        Event::ExecSimdLane,
        Event::AguCalc,
        Event::L1dAccess,
        Event::L1dMiss,
        Event::L2Access,
        Event::MemAccess,
        Event::CommitUop,
        Event::CommitInst,
        Event::FlushUop,
        Event::TcRead,
        Event::TcTagAccess,
        Event::TcWrite,
        Event::TpredLookup,
        Event::TpredUpdate,
        Event::HotFilterAccess,
        Event::BlazingFilterAccess,
        Event::SelectorStep,
        Event::OptimizerUop,
        Event::StateSwitchReg,
    ];

    /// Number of distinct events.
    pub const COUNT: usize = Self::ALL.len();

    /// Dense index for cost tables.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The unit this event's energy is attributed to.
    pub fn unit(self) -> Unit {
        use Event::*;
        match self {
            IcacheAccess | IcacheMiss => Unit::Fetch,
            DecodeSimple | DecodeComplex => Unit::Decode,
            BpredLookup | BpredUpdate | BtbAccess | RasAccess => Unit::Bpred,
            RenameUop => Unit::Rename,
            RobWrite | RobRead | IqInsert | IqWakeup | IqSelect => Unit::Window,
            RegRead | RegWrite => Unit::RegFile,
            ExecAlu | ExecMul | ExecDiv | ExecFpAdd | ExecFpMul | ExecFpDiv | ExecSimdLane
            | AguCalc => Unit::Exec,
            L1dAccess | L1dMiss => Unit::Lsu,
            L2Access | MemAccess => Unit::L2,
            CommitUop | CommitInst | FlushUop => Unit::Commit,
            TcRead | TcTagAccess | TcWrite => Unit::TraceCache,
            TpredLookup | TpredUpdate => Unit::TracePred,
            HotFilterAccess | BlazingFilterAccess | SelectorStep => Unit::Filters,
            OptimizerUop => Unit::Optimizer,
            StateSwitchReg => Unit::StateSwitch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_indices_are_dense_and_unique() {
        for (i, e) in Event::ALL.iter().enumerate() {
            assert_eq!(e.index(), i, "{e:?}");
        }
    }

    #[test]
    fn every_event_has_a_unit() {
        for e in Event::ALL {
            let _ = e.unit(); // must not panic
        }
    }

    #[test]
    fn unit_indices_are_dense() {
        for (i, u) in Unit::ALL.iter().enumerate() {
            assert_eq!(u.index(), i);
            assert!(!u.label().is_empty());
        }
    }
}
