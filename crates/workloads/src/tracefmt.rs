//! Compact binary capture/replay of committed instruction streams.
//!
//! Every simulation is driven by the deterministic committed stream of a
//! [`crate::Workload`]. Regenerating that stream through the synthetic
//! engine on every run is pure overhead for sweeps and makes corpora
//! unshareable between machines. This module defines the `.ptrace` on-disk
//! format — versioned, checksummed, seekable — plus the encoder
//! ([`capture`]) and decoder ([`ReplayCursor`]) for it. The byte-level
//! layout is specified in DESIGN.md §16; the reader here is intentionally
//! self-describing and rejects corrupt, truncated, or version-skewed files
//! with a structured [`TraceError`] instead of panicking.
//!
//! The format stores none of the static program: instruction identity is an
//! index into the workload's [`crate::Program`] (recovered from the
//! [`AppProfile`] fingerprint in the header), control flow is run-length +
//! dictionary coded per slice, and memory addresses are per-stream deltas.
//! A per-slice index makes any window of the stream decodable without
//! touching the rest of the file.
//!
//! ```
//! use parrot_workloads::tracefmt::{capture, ReplayCursor};
//! use parrot_workloads::{app_by_name, Workload};
//! use std::sync::Arc;
//!
//! let wl = Workload::build(&app_by_name("gcc").expect("registered"));
//! let trace = Arc::new(capture(&wl, 2_000, 512).expect("encodable"));
//! let mut cursor = ReplayCursor::new(trace, &wl).expect("matching source");
//! let replayed: Vec<_> = (0..2_000).map(|_| cursor.next_inst()).collect();
//! let live: Vec<_> = wl.engine().take(2_000).collect();
//! assert_eq!(replayed, live, "replay is byte-identical to the engine");
//! ```

pub mod varint;

mod encode;
mod reader;

pub use encode::capture;
pub use reader::{decode_all, ReplayCursor, RunWalker};

use std::sync::OnceLock;

use crate::profile::AppProfile;
use crate::program::Program;
use crate::Workload;

/// Leading file magic: ASCII `PRTRACE` plus a NUL byte.
pub const MAGIC: [u8; 8] = *b"PRTRACE\0";
/// Trailing end-of-file magic: ASCII `PTRCEND` plus a NUL byte.
pub const END_MAGIC: [u8; 8] = *b"PTRCEND\0";
/// Current (and only) version of the on-disk layout. Readers must reject
/// any other value; see DESIGN.md §16.6 for the compatibility rules.
pub const FORMAT_VERSION: u32 = 1;
/// Fixed byte length of the file header.
pub const HEADER_LEN: usize = 96;
/// Byte length of one slice-index entry.
pub const INDEX_ENTRY_LEN: usize = 32;
/// Byte length of the file trailer (checksum + end magic).
pub const TRAILER_LEN: usize = 16;
/// Byte length of the NUL-padded application-name field in the header.
pub const NAME_LEN: usize = 24;
/// Default instructions per slice used by [`capture`] when callers have no
/// preference. Small enough for fine-grained random access, large enough to
/// amortize the per-slice dictionary.
pub const DEFAULT_SLICE_INSTS: u32 = 8192;
/// Conventional file extension for captures (`corpus/<app>.ptrace`).
pub const FILE_EXT: &str = "ptrace";

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over a byte slice, continuing from `h`.
pub(crate) fn fnv1a_bytes(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Everything that can go wrong opening, validating, or decoding a trace
/// file. Every reader entry point returns this instead of panicking — a
/// corrupt corpus must never take the simulator down.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// The file does not start with [`MAGIC`]: not a trace file at all.
    BadMagic,
    /// The file's format version is not [`FORMAT_VERSION`]. Holds the
    /// version found; readers never guess at future layouts.
    UnsupportedVersion {
        /// Version number stored in the header.
        found: u32,
    },
    /// The file is shorter than its own header/index claims.
    Truncated {
        /// Bytes the layout requires.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// A structural invariant of the layout is violated (bad header field,
    /// non-contiguous slice index, trailing garbage, undecodable section).
    Malformed(String),
    /// A stored checksum does not match the bytes it covers.
    ChecksumMismatch {
        /// Which checksum failed (`"file"` or `"slice"`).
        region: &'static str,
    },
    /// The trace was captured from a different application or program shape
    /// than the one it is being replayed against.
    SourceMismatch {
        /// Fingerprint the replay workload expects.
        expected: u64,
        /// Fingerprint stored in the trace header.
        found: u64,
    },
    /// The capture holds fewer instructions than the replay requested.
    TooShort {
        /// Instructions stored in the capture.
        captured: u64,
        /// Instructions the caller asked to replay.
        requested: u64,
    },
    /// The committed stream violated an invariant the encoder relies on
    /// (derived PC/length/stack-address mismatch). Capture-side only.
    Unencodable(String),
    /// The underlying file could not be read.
    Io(String),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::BadMagic => write!(f, "not a parrot trace file (bad magic)"),
            TraceError::UnsupportedVersion { found } => write!(
                f,
                "unsupported trace format version {found} (this reader supports {FORMAT_VERSION})"
            ),
            TraceError::Truncated { expected, actual } => {
                write!(
                    f,
                    "truncated trace file: need {expected} bytes, have {actual}"
                )
            }
            TraceError::Malformed(why) => write!(f, "malformed trace file: {why}"),
            TraceError::ChecksumMismatch { region } => {
                write!(f, "corrupt trace file: {region} checksum mismatch")
            }
            TraceError::SourceMismatch { expected, found } => write!(
                f,
                "trace was captured from a different source \
                 (workload fingerprint {expected:016x}, trace carries {found:016x})"
            ),
            TraceError::TooShort {
                captured,
                requested,
            } => write!(
                f,
                "capture holds {captured} instructions but {requested} were requested"
            ),
            TraceError::Unencodable(why) => write!(f, "stream not encodable: {why}"),
            TraceError::Io(why) => write!(f, "cannot read trace file: {why}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// Fingerprint binding a capture to the exact source that produced it: the
/// format version, the full [`AppProfile`] (every generation parameter),
/// and the generated program's shape. Replaying against any other workload
/// fails with [`TraceError::SourceMismatch`]; sweep caches fold this in so
/// replayed and generated results can never alias.
pub fn source_fingerprint(profile: &AppProfile, prog: &Program) -> u64 {
    let mut h = fnv1a_bytes(FNV_OFFSET, b"ptrc-v1;");
    h = fnv1a_bytes(h, profile.name.as_bytes());
    h = fnv1a_bytes(h, format!("{profile:?}").as_bytes());
    h = fnv1a_bytes(h, &(prog.num_insts() as u64).to_le_bytes());
    fnv1a_bytes(h, &prog.code_bytes.to_le_bytes())
}

/// One entry of the slice index: where a slice's payload lives and the
/// decoder state needed to start decoding there without reading anything
/// that precedes it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SliceEntry {
    /// Absolute file offset of the slice payload.
    pub off: usize,
    /// Payload length in bytes.
    pub len: usize,
    /// Static instruction id of the slice's first committed instruction.
    pub first_inst: u32,
    /// Call depth of the engine at the slice's first instruction (seeds the
    /// stack-address reconstruction for `Call`/`Return`).
    pub start_depth: u32,
    /// FNV-1a checksum of the payload bytes.
    pub payload_fp: u64,
}

/// A parsed, validated trace file held in memory.
///
/// Construction ([`TraceFile::parse`] / [`TraceFile::open`]) validates the
/// whole container: magic, version, structural layout, slice-index
/// contiguity, every slice checksum, and the trailing whole-file checksum.
/// A value of this type is therefore always internally consistent as a
/// container. Whether its payloads decode against a concrete workload is
/// what [`TraceFile::check_source`] checks, once per file.
///
/// ```
/// use parrot_workloads::tracefmt::{capture, TraceFile};
/// use parrot_workloads::{app_by_name, Workload};
///
/// let wl = Workload::build(&app_by_name("swim").expect("registered"));
/// let trace = capture(&wl, 1_000, 256).expect("encodable");
/// let reparsed = TraceFile::parse(trace.bytes().to_vec()).expect("valid");
/// assert_eq!(reparsed.inst_count(), 1_000);
/// assert_eq!(reparsed.app_name(), "swim");
/// assert!(reparsed.bits_per_inst() < 64.0);
/// ```
pub struct TraceFile {
    data: Vec<u8>,
    name: String,
    source_fp: u64,
    inst_count: u64,
    slice_insts: u32,
    slices: Vec<SliceEntry>,
    file_fp: u64,
    /// [`TraceFile::check_source`]'s decode verdict, once computed; set at
    /// construction by [`capture`], whose output decodes by construction.
    decodes: OnceLock<Result<(), TraceError>>,
}

impl std::fmt::Debug for TraceFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceFile")
            .field("app", &self.name)
            .field("insts", &self.inst_count)
            .field("slices", &self.slices.len())
            .field("bytes", &self.data.len())
            .field("source_fp", &format_args!("{:016x}", self.source_fp))
            .finish()
    }
}

fn rd_u32(b: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(b[off..off + 4].try_into().expect("bounds pre-checked"))
}

fn rd_u64(b: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(b[off..off + 8].try_into().expect("bounds pre-checked"))
}

impl TraceFile {
    /// Read and [`TraceFile::parse`] a `.ptrace` file from disk.
    pub fn open(path: impl AsRef<std::path::Path>) -> Result<TraceFile, TraceError> {
        let path = path.as_ref();
        let data =
            std::fs::read(path).map_err(|e| TraceError::Io(format!("{}: {e}", path.display())))?;
        Self::parse(data)
    }

    /// Validate a byte buffer as a version-[`FORMAT_VERSION`] trace file.
    ///
    /// The full validation pass documented in DESIGN.md §16.5 runs here:
    /// structured errors are returned for anything from a foreign file
    /// ([`TraceError::BadMagic`]) to a single flipped payload bit
    /// ([`TraceError::ChecksumMismatch`]).
    pub fn parse(data: Vec<u8>) -> Result<TraceFile, TraceError> {
        let min = HEADER_LEN + TRAILER_LEN;
        if data.len() < min {
            return Err(TraceError::Truncated {
                expected: min,
                actual: data.len(),
            });
        }
        if data[0..8] != MAGIC {
            return Err(TraceError::BadMagic);
        }
        let version = rd_u32(&data, 0x08);
        if version != FORMAT_VERSION {
            return Err(TraceError::UnsupportedVersion { found: version });
        }
        let header_len = rd_u32(&data, 0x0c) as usize;
        if header_len != HEADER_LEN {
            return Err(TraceError::Malformed(format!(
                "header length {header_len}, expected {HEADER_LEN}"
            )));
        }
        let name_raw = &data[0x10..0x10 + NAME_LEN];
        let name_end = name_raw.iter().position(|&b| b == 0).unwrap_or(NAME_LEN);
        let name = std::str::from_utf8(&name_raw[..name_end])
            .map_err(|_| TraceError::Malformed("app name is not UTF-8".into()))?
            .to_string();
        let source_fp = rd_u64(&data, 0x28);
        let inst_count = rd_u64(&data, 0x30);
        let slice_insts = rd_u32(&data, 0x38);
        let slice_count = rd_u32(&data, 0x3c) as usize;
        let index_off = rd_u64(&data, 0x40) as usize;
        if inst_count == 0 || slice_insts == 0 {
            return Err(TraceError::Malformed("empty capture".into()));
        }
        let want_slices = inst_count.div_ceil(u64::from(slice_insts));
        if want_slices != slice_count as u64 {
            return Err(TraceError::Malformed(format!(
                "{slice_count} slices cannot cover {inst_count} instructions \
                 at {slice_insts} per slice"
            )));
        }
        let expected_len = index_off
            .checked_add(slice_count * INDEX_ENTRY_LEN)
            .and_then(|n| n.checked_add(TRAILER_LEN))
            .ok_or_else(|| TraceError::Malformed("index offset overflows".into()))?;
        if data.len() < expected_len {
            return Err(TraceError::Truncated {
                expected: expected_len,
                actual: data.len(),
            });
        }
        if data.len() > expected_len {
            return Err(TraceError::Malformed(format!(
                "{} trailing bytes after the trailer",
                data.len() - expected_len
            )));
        }
        let trailer = expected_len - TRAILER_LEN;
        if data[trailer + 8..trailer + 16] != END_MAGIC {
            return Err(TraceError::Malformed("missing end-of-file marker".into()));
        }
        let file_fp = rd_u64(&data, trailer);
        if fnv1a_bytes(FNV_OFFSET, &data[..trailer]) != file_fp {
            return Err(TraceError::ChecksumMismatch { region: "file" });
        }
        // Slice index: entries must tile [HEADER_LEN, index_off) exactly.
        let mut slices = Vec::with_capacity(slice_count);
        let mut expect_off = HEADER_LEN;
        for i in 0..slice_count {
            let e = index_off + i * INDEX_ENTRY_LEN;
            let entry = SliceEntry {
                off: rd_u64(&data, e) as usize,
                len: rd_u32(&data, e + 0x08) as usize,
                first_inst: rd_u32(&data, e + 0x0c),
                start_depth: rd_u32(&data, e + 0x10),
                payload_fp: rd_u64(&data, e + 0x18),
            };
            if entry.off != expect_off {
                return Err(TraceError::Malformed(format!(
                    "slice {i} at offset {}, expected {expect_off} (index not contiguous)",
                    entry.off
                )));
            }
            expect_off += entry.len;
            if expect_off > index_off {
                return Err(TraceError::Malformed(format!(
                    "slice {i} payload runs past the slice index"
                )));
            }
            if fnv1a_bytes(FNV_OFFSET, &data[entry.off..entry.off + entry.len]) != entry.payload_fp
            {
                return Err(TraceError::ChecksumMismatch { region: "slice" });
            }
            slices.push(entry);
        }
        if expect_off != index_off {
            return Err(TraceError::Malformed(format!(
                "{} unindexed bytes between payloads and index",
                index_off - expect_off
            )));
        }
        Ok(TraceFile {
            data,
            name,
            source_fp,
            inst_count,
            slice_insts,
            slices,
            file_fp,
            decodes: OnceLock::new(),
        })
    }

    /// The raw on-disk bytes (what [`capture`] produced / what was read).
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Application the stream was captured from (header field).
    pub fn app_name(&self) -> &str {
        &self.name
    }

    /// Source fingerprint stored in the header (see [`source_fingerprint`]).
    pub fn source_fp(&self) -> u64 {
        self.source_fp
    }

    /// Committed instructions stored in the capture.
    pub fn inst_count(&self) -> u64 {
        self.inst_count
    }

    /// Check that the capture holds at least `insts` instructions, the
    /// budget a replay of it will simulate.
    pub fn check_covers(&self, insts: u64) -> Result<(), TraceError> {
        if self.inst_count < insts {
            return Err(TraceError::TooShort {
                captured: self.inst_count,
                requested: insts,
            });
        }
        Ok(())
    }

    /// Instructions per slice (the last slice may hold fewer).
    pub fn slice_insts(&self) -> u32 {
        self.slice_insts
    }

    /// The slice index.
    pub fn slices(&self) -> &[SliceEntry] {
        &self.slices
    }

    /// Whole-file checksum from the trailer. Doubles as a content identity
    /// for cache fingerprints.
    pub fn file_fp(&self) -> u64 {
        self.file_fp
    }

    /// Average storage density of the capture.
    pub fn bits_per_inst(&self) -> f64 {
        self.data.len() as f64 * 8.0 / self.inst_count as f64
    }

    /// Bind this capture to `wl`: the one check a file passes before it is
    /// replayed. It verifies that the capture was taken from exactly `wl`
    /// (same application profile, same generated program), then decodes
    /// the whole file with the fallible decoder and checks every slice's
    /// restart state against the slice before it. The decode runs once per
    /// file and its verdict is kept; a capture built in-process by
    /// [`capture`] is never decoded here. [`ReplayCursor::new`] calls this,
    /// so a file that fails it can never reach the simulator.
    pub fn check_source(&self, wl: &Workload) -> Result<(), TraceError> {
        let expected = source_fingerprint(&wl.profile, &wl.program);
        if self.source_fp != expected {
            return Err(TraceError::SourceMismatch {
                expected,
                found: self.source_fp,
            });
        }
        self.decodes
            .get_or_init(|| reader::check_stream(self, &wl.program))
            .clone()
    }
}
