//! The `.dtrc` container: streaming writer and reader.
//!
//! This module implements `TRACE_FORMAT.md` (repository root) exactly;
//! where the two disagree the document wins. Layout summary:
//!
//! ```text
//! File      := Header DataChunk* EndChunk
//! DataChunk := record_count:u32 payload_len:u32 payload crc:u32
//! EndChunk  := 0:u32 8:u32 total_records:u64 crc:u32
//! ```
//!
//! Payloads are column-major; `f64` columns use XOR-delta varbyte
//! coding over the IEEE-754 bit patterns (lossless by construction),
//! `u16` columns are raw little-endian. Every frame is CRC-checked, and
//! all limits (chunk record cap, payload-length bound) are enforced
//! *before* the payload is read, so a hostile stream cannot make the
//! reader allocate unboundedly.
//!
//! [`TraceReader::next_chunk`] decodes into caller-supplied buffers:
//! iterating an arbitrarily long file allocates only up to the largest
//! chunk. [`TraceReader::next_columns`] is the replay's streaming
//! source: it decodes only the `current`, `power` and `committed`
//! columns into a reused [`ReplayColumns`], builds no [`Record`], and
//! length-checks the two event columns replay never reads, so it
//! rejects exactly what `next_chunk` rejects, with the same error.
//! [`TraceReader::for_each_columns`] runs that loop one chunk ahead on
//! a helper thread, so the next chunk is decoded while the caller
//! consumes the current one.
//! [`read_all`] runs the same per-chunk step but decodes each chunk
//! straight onto the end of its result vector, growing it by the
//! chunk's announced (already limit-checked) record count, so a
//! whole-file read copies no record twice. All three read frames
//! through one step and decode `f64` columns through one kernel. A
//! chunk is CRC-checked before any of it is decoded, and an error
//! drops the partial result: `read_all` returns `Err`, never a prefix,
//! and a streaming consumer must not act on what it was fed until the
//! reader has returned `Ok(false)` (the end chunk verified).

use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::{mpsc, Arc, OnceLock};

use didt_telemetry::{Counter, MetricsRegistry};

use crate::crc::Crc32;
use crate::record::{Record, RecordKind};

/// File magic: ASCII `DTRC`.
const MAGIC: [u8; 4] = *b"DTRC";
/// Format version implemented by this module. Version bumps are
/// breaking: readers reject every other value.
const VERSION: u16 = 1;
/// Hard cap on records per data chunk (`TRACE_FORMAT.md` §4); bounds
/// reader allocation before any payload byte is read.
const MAX_CHUNK_RECORDS: u32 = 1_048_576;
/// Default records per chunk for writers that don't choose one.
const DEFAULT_CHUNK_RECORDS: usize = 16_384;
/// Global counter incremented once per accepted data chunk.
pub const READ_CHUNKS_COUNTER: &str = "trace.read_chunks";
/// Global counter incremented once per recorded cycle fed back into an
/// analysis or simulation (incremented by replay consumers, not here).
pub const REPLAY_CYCLES_COUNTER: &str = "trace.replay_cycles";

/// Header metadata of a `.dtrc` file (`TRACE_FORMAT.md` §2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceMeta {
    /// Record kind stored in the file.
    pub kind: RecordKind,
    /// Workload seed the trace was captured with (provenance).
    pub seed: u64,
    /// Cycles simulated and discarded before record 0 (provenance).
    pub discarded_warmup: u64,
    /// Leading records that are warm-in pre-roll: fed to stateful
    /// consumers but excluded from analysis (`TRACE_FORMAT.md` §6).
    pub pre_roll: u64,
    /// Source label (benchmark name); at most 255 bytes of UTF-8.
    pub name: String,
}

impl TraceMeta {
    /// Metadata with the given kind and name; seed, warmup and pre-roll
    /// default to zero (set the public fields directly as needed).
    #[must_use]
    pub fn new(kind: RecordKind, name: &str) -> Self {
        TraceMeta {
            kind,
            seed: 0,
            discarded_warmup: 0,
            pre_roll: 0,
            name: name.to_string(),
        }
    }
}

/// Everything that can go wrong reading or writing a `.dtrc` stream.
///
/// The reader variants are the taxonomy of `TRACE_FORMAT.md` §8; each
/// rejection path in the spec names the variant it maps to.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The first four bytes are not `DTRC`.
    BadMagic,
    /// A version other than 1, the one this module implements.
    UnsupportedVersion(u16),
    /// A record-kind id this implementation does not know.
    UnsupportedRecordKind(u16),
    /// The header name is not valid UTF-8.
    BadName,
    /// A CRC-32 check failed; `location` names the frame.
    CrcMismatch {
        /// Which frame failed: `"header"`, `"data chunk"`, `"end chunk"`.
        location: &'static str,
    },
    /// The stream ended before a complete end chunk was read.
    Truncated,
    /// A chunk announced more records than the 2^20 cap or a
    /// payload longer than the §4 bound permits.
    ChunkTooLarge {
        /// Announced record count.
        records: u32,
        /// Announced payload length in bytes.
        payload_len: u32,
    },
    /// A CRC-valid payload that does not decode to exactly the
    /// announced record count (malformed varbyte stream, short or
    /// trailing bytes, end-chunk payload of the wrong size).
    CorruptPayload(&'static str),
    /// The end chunk's total does not match the records actually read.
    CountMismatch {
        /// Sum of data-chunk record counts actually decoded.
        expected: u64,
        /// Total declared by the end chunk.
        declared: u64,
    },
    /// The header's `pre_roll` exceeds the file's total record count.
    PreRollOutOfRange {
        /// Declared pre-roll.
        pre_roll: u64,
        /// Total records in the file.
        total: u64,
    },
    /// Bytes follow the end chunk (which is a positive end-of-stream
    /// marker, not a hint).
    TrailingData,
    /// Writer-side misuse: name too long, chunk size out of range, or a
    /// record carrying fields its kind cannot store.
    Unwritable(&'static str),
    /// [`TraceReader::for_each_columns`] could not start its read-ahead
    /// thread. Says nothing about the stream.
    ReadAhead(io::Error),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::BadMagic => write!(f, "not a .dtrc stream (bad magic)"),
            TraceError::UnsupportedVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceError::UnsupportedRecordKind(k) => write!(f, "unsupported record kind {k}"),
            TraceError::BadName => write!(f, "trace name is not valid UTF-8"),
            TraceError::CrcMismatch { location } => write!(f, "CRC mismatch in {location}"),
            TraceError::Truncated => write!(f, "trace stream truncated before its end chunk"),
            TraceError::ChunkTooLarge {
                records,
                payload_len,
            } => write!(
                f,
                "chunk exceeds limits ({records} records, {payload_len} payload bytes)"
            ),
            TraceError::CorruptPayload(what) => write!(f, "corrupt chunk payload: {what}"),
            TraceError::CountMismatch { expected, declared } => write!(
                f,
                "end chunk declares {declared} records but {expected} were read"
            ),
            TraceError::PreRollOutOfRange { pre_roll, total } => {
                write!(f, "pre_roll {pre_roll} exceeds the file's {total} records")
            }
            TraceError::TrailingData => write!(f, "bytes present after the end chunk"),
            TraceError::Unwritable(what) => write!(f, "cannot write trace: {what}"),
            TraceError::ReadAhead(e) => write!(f, "cannot start the read-ahead thread: {e}"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) | TraceError::ReadAhead(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// `read_exact` that reports a clean EOF mid-structure as
/// [`TraceError::Truncated`] instead of a bare I/O error.
fn read_exact_or(r: &mut impl Read, buf: &mut [u8]) -> Result<(), TraceError> {
    r.read_exact(buf).map_err(truncated_or_io)
}

/// An early end of the stream is a truncated file; any other error is
/// the transport's.
fn truncated_or_io(e: io::Error) -> TraceError {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        TraceError::Truncated
    } else {
        TraceError::Io(e)
    }
}

/// XOR-delta varbyte encoder for one `f64` column (`TRACE_FORMAT.md` §5).
fn encode_column_f64(out: &mut Vec<u8>, values: impl Iterator<Item = f64>) {
    let mut prev = 0u64;
    for v in values {
        let bits = v.to_bits();
        let x = bits ^ prev;
        let n = (64 - x.leading_zeros() as usize).div_ceil(8);
        out.push(n as u8);
        out.extend_from_slice(&x.to_le_bytes()[..n]);
        prev = bits;
    }
}

/// `F64_MASKS[n]` keeps the low `n` bytes of a little-endian word.
const F64_MASKS: [u64; 9] = {
    let mut masks = [0u64; 9];
    let mut n = 1;
    while n < 9 {
        masks[n] = u64::MAX >> (64 - 8 * n);
        n += 1;
    }
    masks
};

/// The one XOR-delta varbyte `f64` column kernel (`TRACE_FORMAT.md`
/// §5): decodes one value per slot of `out`, in order, from
/// `payload[*pos..]`, and leaves `*pos` after the column. While eight
/// bytes follow a control byte, the delta is one 8-byte load masked to
/// the control byte's length; near the payload's end it is read byte
/// by byte, so a short payload fails exactly where the byte loop does.
fn decode_column_f64<'a>(
    payload: &[u8],
    pos: &mut usize,
    out: impl Iterator<Item = &'a mut f64>,
) -> Result<(), TraceError> {
    let mut prev = 0u64;
    let mut at = *pos;
    for slot in out {
        let &ctl = payload.get(at).ok_or(TraceError::CorruptPayload(
            "payload ends inside an f64 column",
        ))?;
        if ctl > 8 {
            return Err(TraceError::CorruptPayload("f64 control byte exceeds 8"));
        }
        let n = usize::from(ctl);
        let x = if let Some(word) = payload.get(at + 1..at + 9) {
            u64::from_le_bytes(word.try_into().expect("eight bytes")) & F64_MASKS[n]
        } else {
            payload
                .get(at + 1..at + 1 + n)
                .ok_or(TraceError::CorruptPayload(
                    "payload ends inside an f64 delta",
                ))?
                .iter()
                .rev()
                .fold(0u64, |x, &b| (x << 8) | u64::from(b))
        };
        at += 1 + n;
        prev ^= x;
        *slot = f64::from_bits(prev);
    }
    *pos = at;
    Ok(())
}

fn decode_column_u16<'a>(
    payload: &[u8],
    pos: &mut usize,
    out: impl ExactSizeIterator<Item = &'a mut u16>,
) -> Result<(), TraceError> {
    let bytes = payload
        .get(*pos..*pos + 2 * out.len())
        .ok_or(TraceError::CorruptPayload(
            "payload ends inside a u16 column",
        ))?;
    *pos += bytes.len();
    for (slot, b) in out.zip(bytes.chunks_exact(2)) {
        *slot = u16::from_le_bytes([b[0], b[1]]);
    }
    Ok(())
}

/// The payload must end exactly where its last column did.
fn check_payload_end(payload: &[u8], pos: usize) -> Result<(), TraceError> {
    if pos == payload.len() {
        Ok(())
    } else {
        Err(TraceError::CorruptPayload(
            "trailing bytes in chunk payload",
        ))
    }
}

/// Decode one CRC-checked payload of `count` records onto the end of
/// `out`, growing it once by the announced count.
fn decode_chunk(
    kind: RecordKind,
    count: usize,
    payload: &[u8],
    out: &mut Vec<Record>,
) -> Result<(), TraceError> {
    let start = out.len();
    out.resize(start + count, Record::default());
    let out = &mut out[start..];
    let mut pos = 0usize;
    decode_column_f64(payload, &mut pos, out.iter_mut().map(|r| &mut r.current))?;
    if kind == RecordKind::Full {
        decode_column_f64(payload, &mut pos, out.iter_mut().map(|r| &mut r.power))?;
        decode_column_u16(payload, &mut pos, out.iter_mut().map(|r| &mut r.committed))?;
        decode_column_u16(payload, &mut pos, out.iter_mut().map(|r| &mut r.l2_misses))?;
        decode_column_u16(
            payload,
            &mut pos,
            out.iter_mut().map(|r| &mut r.mispredicts),
        )?;
    }
    check_payload_end(payload, pos)
}

/// The three columns a closed-loop replay reads from one data chunk —
/// `current`, `power` and `committed` — filled by
/// [`TraceReader::next_columns`]. The buffers keep their capacity from
/// chunk to chunk, so streaming a file allocates one chunk's worth. A
/// kind-1 (`Current`) chunk reads as zero power and zero commits, as
/// its [`Record`]s do.
#[derive(Debug, Clone, Default)]
pub struct ReplayColumns {
    current: Vec<f64>,
    power: Vec<f64>,
    committed: Vec<u16>,
}

impl ReplayColumns {
    /// Empty columns; the first chunk sizes them.
    #[must_use]
    pub fn new() -> Self {
        ReplayColumns::default()
    }

    /// Empty columns with room for `records` records each.
    fn with_capacity(records: usize) -> Self {
        ReplayColumns {
            current: Vec::with_capacity(records),
            power: Vec::with_capacity(records),
            committed: Vec::with_capacity(records),
        }
    }

    /// Records in the chunk.
    #[must_use]
    pub fn len(&self) -> usize {
        self.current.len()
    }

    /// Whether the chunk holds no record.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.current.is_empty()
    }

    /// Per-record current (amperes).
    #[must_use]
    pub fn current(&self) -> &[f64] {
        &self.current
    }

    /// Per-record power (watts).
    #[must_use]
    pub fn power(&self) -> &[f64] {
        &self.power
    }

    /// Per-record committed instructions.
    #[must_use]
    pub fn committed(&self) -> &[u16] {
        &self.committed
    }

    /// Decode one CRC-checked payload of `count` records into the
    /// columns. The L2-miss and mispredict columns are length-checked,
    /// not decoded: every payload [`decode_chunk`] rejects is rejected
    /// here with the same error.
    fn decode(&mut self, kind: RecordKind, count: usize, payload: &[u8]) -> Result<(), TraceError> {
        self.current.resize(count, 0.0);
        self.power.resize(count, 0.0);
        self.committed.resize(count, 0);
        let mut pos = 0usize;
        decode_column_f64(payload, &mut pos, self.current.iter_mut())?;
        if kind == RecordKind::Full {
            decode_column_f64(payload, &mut pos, self.power.iter_mut())?;
            decode_column_u16(payload, &mut pos, self.committed.iter_mut())?;
            if payload.len() - pos < 4 * count {
                return Err(TraceError::CorruptPayload(
                    "payload ends inside a u16 column",
                ));
            }
            pos += 4 * count;
        } else {
            self.power.fill(0.0);
            self.committed.fill(0);
        }
        check_payload_end(payload, pos)
    }
}

/// Streaming `.dtrc` writer over any [`Write`] sink.
///
/// Records are buffered and emitted as framed chunks of `chunk_records`
/// records; [`TraceWriter::finish`] flushes the final partial chunk and
/// writes the end chunk. Dropping a writer without `finish` leaves a
/// truncated stream, which every conforming reader rejects — there is
/// no way to produce a silently short file.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    sink: W,
    kind: RecordKind,
    chunk_records: usize,
    buf: Vec<Record>,
    payload: Vec<u8>,
    total: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Start a trace with the default chunk size.
    ///
    /// # Errors
    ///
    /// [`TraceError::Unwritable`] for invalid metadata, or I/O errors
    /// writing the header.
    pub fn new(sink: W, meta: &TraceMeta) -> Result<Self, TraceError> {
        TraceWriter::with_chunk_records(sink, meta, DEFAULT_CHUNK_RECORDS)
    }

    /// Start a trace emitting chunks of `chunk_records` records.
    ///
    /// # Errors
    ///
    /// [`TraceError::Unwritable`] when the name exceeds 255 bytes or
    /// `chunk_records` is outside `1..=2^20`; I/O
    /// errors writing the header.
    pub fn with_chunk_records(
        mut sink: W,
        meta: &TraceMeta,
        chunk_records: usize,
    ) -> Result<Self, TraceError> {
        if meta.name.len() > 255 {
            return Err(TraceError::Unwritable("name longer than 255 bytes"));
        }
        if chunk_records == 0 || chunk_records > MAX_CHUNK_RECORDS as usize {
            return Err(TraceError::Unwritable("chunk size out of 1..=1048576"));
        }
        let mut header = Vec::with_capacity(37 + meta.name.len());
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&VERSION.to_le_bytes());
        header.extend_from_slice(&meta.kind.to_wire().to_le_bytes());
        header.extend_from_slice(&meta.seed.to_le_bytes());
        header.extend_from_slice(&meta.discarded_warmup.to_le_bytes());
        header.extend_from_slice(&meta.pre_roll.to_le_bytes());
        header.push(meta.name.len() as u8);
        header.extend_from_slice(meta.name.as_bytes());
        let crc = crate::crc::crc32(&header);
        header.extend_from_slice(&crc.to_le_bytes());
        sink.write_all(&header)?;
        Ok(TraceWriter {
            sink,
            kind: meta.kind,
            chunk_records,
            buf: Vec::with_capacity(chunk_records),
            payload: Vec::new(),
            total: 0,
        })
    }

    /// Append one record.
    ///
    /// # Errors
    ///
    /// [`TraceError::Unwritable`] when a kind-1 (`Current`) trace is
    /// given a record with nonzero power/event fields — silently
    /// dropping them would break the bit-identical round-trip contract.
    /// I/O errors when a full chunk is flushed.
    pub fn push(&mut self, record: Record) -> Result<(), TraceError> {
        if self.kind == RecordKind::Current
            && (record.power.to_bits() != 0
                || record.committed != 0
                || record.l2_misses != 0
                || record.mispredicts != 0)
        {
            return Err(TraceError::Unwritable(
                "kind-1 (Current) trace cannot store power/event fields",
            ));
        }
        self.buf.push(record);
        self.total += 1;
        if self.buf.len() == self.chunk_records {
            self.flush_chunk()?;
        }
        Ok(())
    }

    /// Append a slice of records.
    ///
    /// # Errors
    ///
    /// As [`TraceWriter::push`].
    pub fn extend_from_slice(&mut self, records: &[Record]) -> Result<(), TraceError> {
        for &r in records {
            self.push(r)?;
        }
        Ok(())
    }

    fn flush_chunk(&mut self) -> Result<(), TraceError> {
        if self.buf.is_empty() {
            return Ok(());
        }
        self.payload.clear();
        encode_column_f64(&mut self.payload, self.buf.iter().map(|r| r.current));
        if self.kind == RecordKind::Full {
            encode_column_f64(&mut self.payload, self.buf.iter().map(|r| r.power));
            for r in &self.buf {
                self.payload.extend_from_slice(&r.committed.to_le_bytes());
            }
            for r in &self.buf {
                self.payload.extend_from_slice(&r.l2_misses.to_le_bytes());
            }
            for r in &self.buf {
                self.payload.extend_from_slice(&r.mispredicts.to_le_bytes());
            }
        }
        let count = self.buf.len() as u32;
        let len = self.payload.len() as u32;
        let mut crc = Crc32::new();
        crc.update(&count.to_le_bytes());
        crc.update(&len.to_le_bytes());
        crc.update(&self.payload);
        self.sink.write_all(&count.to_le_bytes())?;
        self.sink.write_all(&len.to_le_bytes())?;
        self.sink.write_all(&self.payload)?;
        self.sink.write_all(&crc.finish().to_le_bytes())?;
        self.buf.clear();
        Ok(())
    }

    /// Flush the final partial chunk, write the end chunk, and return
    /// the sink.
    ///
    /// # Errors
    ///
    /// I/O errors writing or flushing.
    pub fn finish(mut self) -> Result<W, TraceError> {
        self.flush_chunk()?;
        let payload = self.total.to_le_bytes();
        let mut crc = Crc32::new();
        crc.update(&0u32.to_le_bytes());
        crc.update(&8u32.to_le_bytes());
        crc.update(&payload);
        self.sink.write_all(&0u32.to_le_bytes())?;
        self.sink.write_all(&8u32.to_le_bytes())?;
        self.sink.write_all(&payload)?;
        self.sink.write_all(&crc.finish().to_le_bytes())?;
        self.sink.flush()?;
        Ok(self.sink)
    }
}

/// Streaming `.dtrc` reader over any [`Read`] source.
///
/// The header is parsed and verified on construction; records are then
/// pulled one chunk at a time with [`TraceReader::next_chunk`] into a
/// caller-supplied buffer (zero allocation beyond buffer growth to the
/// largest chunk). [`read_all`] uses the same step without the clear,
/// appending every chunk in place to one output vector. Every accepted
/// data chunk increments the global [`READ_CHUNKS_COUNTER`].
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    source: R,
    meta: TraceMeta,
    payload: Vec<u8>,
    total_seen: u64,
    done: bool,
}

impl<R: Read> TraceReader<R> {
    /// Parse and verify the header.
    ///
    /// # Errors
    ///
    /// Any header-stage variant of [`TraceError`]: bad magic, version,
    /// kind, name, CRC, or a stream too short to hold a header.
    pub fn new(mut source: R) -> Result<Self, TraceError> {
        let mut fixed = [0u8; 33];
        read_exact_or(&mut source, &mut fixed)?;
        if fixed[0..4] != MAGIC {
            return Err(TraceError::BadMagic);
        }
        let version = u16::from_le_bytes([fixed[4], fixed[5]]);
        if version != VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }
        let kind_wire = u16::from_le_bytes([fixed[6], fixed[7]]);
        let kind =
            RecordKind::from_wire(kind_wire).ok_or(TraceError::UnsupportedRecordKind(kind_wire))?;
        let mut word = [0u8; 8];
        word.copy_from_slice(&fixed[8..16]);
        let seed = u64::from_le_bytes(word);
        word.copy_from_slice(&fixed[16..24]);
        let discarded_warmup = u64::from_le_bytes(word);
        word.copy_from_slice(&fixed[24..32]);
        let pre_roll = u64::from_le_bytes(word);
        let name_len = fixed[32] as usize;
        let mut name_bytes = vec![0u8; name_len];
        read_exact_or(&mut source, &mut name_bytes)?;
        let mut crc_bytes = [0u8; 4];
        read_exact_or(&mut source, &mut crc_bytes)?;
        let mut crc = Crc32::new();
        crc.update(&fixed);
        crc.update(&name_bytes);
        if crc.finish() != u32::from_le_bytes(crc_bytes) {
            return Err(TraceError::CrcMismatch { location: "header" });
        }
        let name = String::from_utf8(name_bytes).map_err(|_| TraceError::BadName)?;
        Ok(TraceReader {
            source,
            meta: TraceMeta {
                kind,
                seed,
                discarded_warmup,
                pre_roll,
                name,
            },
            payload: Vec::new(),
            total_seen: 0,
            done: false,
        })
    }

    /// Header metadata.
    #[must_use]
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// Decode the next data chunk into `out` (cleared first).
    ///
    /// Returns `Ok(true)` when `out` holds a chunk's records, and
    /// `Ok(false)` once the end chunk has been consumed and the stream
    /// verified complete (count matches, pre-roll in range, no trailing
    /// bytes). After `Ok(false)` further calls keep returning
    /// `Ok(false)`.
    ///
    /// # Errors
    ///
    /// Any reader variant of [`TraceError`]; after an error the reader
    /// is poisoned in the sense that continuing is unspecified (callers
    /// should stop).
    pub fn next_chunk(&mut self, out: &mut Vec<Record>) -> Result<bool, TraceError> {
        out.clear();
        self.append_chunk(out)
    }

    /// [`TraceReader::next_chunk`] for a replay: the next data chunk's
    /// `current`, `power` and `committed` columns, decoded into reused
    /// buffers, with no [`Record`] built. It checks, accepts and
    /// rejects exactly what `next_chunk` does, with the same errors.
    ///
    /// # Errors
    ///
    /// As [`TraceReader::next_chunk`].
    pub fn next_columns(&mut self, columns: &mut ReplayColumns) -> Result<bool, TraceError> {
        let Some(count) = self.next_frame()? else {
            return Ok(false);
        };
        columns.decode(self.meta.kind, count, &self.payload)?;
        self.accept(count);
        Ok(true)
    }

    /// [`TraceReader::next_chunk`] without the clear: the next data
    /// chunk's records are decoded onto the end of `out`, so
    /// [`read_all`] fills its result in place with no staging buffer.
    fn append_chunk(&mut self, out: &mut Vec<Record>) -> Result<bool, TraceError> {
        let Some(count) = self.next_frame()? else {
            return Ok(false);
        };
        decode_chunk(self.meta.kind, count, &self.payload, out)?;
        self.accept(count);
        Ok(true)
    }

    /// Count a decoded data chunk of `count` records.
    fn accept(&mut self, count: usize) {
        static READ_CHUNKS: OnceLock<Arc<Counter>> = OnceLock::new();
        self.total_seen += count as u64;
        READ_CHUNKS
            .get_or_init(|| MetricsRegistry::global().counter(READ_CHUNKS_COUNTER))
            .incr();
    }

    /// Read and verify the next frame. `Some(count)` leaves a data
    /// chunk's limit- and CRC-checked payload in `self.payload`; `None`
    /// means the end chunk verified the whole stream.
    fn next_frame(&mut self) -> Result<Option<usize>, TraceError> {
        if self.done {
            return Ok(None);
        }
        let mut prefix = [0u8; 8];
        read_exact_or(&mut self.source, &mut prefix)?;
        let count = u32::from_le_bytes([prefix[0], prefix[1], prefix[2], prefix[3]]);
        let payload_len = u32::from_le_bytes([prefix[4], prefix[5], prefix[6], prefix[7]]);
        if count == 0 {
            // End chunk: payload is exactly total_records:u64.
            if payload_len != 8 {
                return Err(TraceError::CorruptPayload(
                    "end chunk payload must be 8 bytes",
                ));
            }
            let mut payload = [0u8; 8];
            read_exact_or(&mut self.source, &mut payload)?;
            let mut crc_bytes = [0u8; 4];
            read_exact_or(&mut self.source, &mut crc_bytes)?;
            let mut crc = Crc32::new();
            crc.update(&prefix);
            crc.update(&payload);
            if crc.finish() != u32::from_le_bytes(crc_bytes) {
                return Err(TraceError::CrcMismatch {
                    location: "end chunk",
                });
            }
            let declared = u64::from_le_bytes(payload);
            if declared != self.total_seen {
                return Err(TraceError::CountMismatch {
                    expected: self.total_seen,
                    declared,
                });
            }
            if self.meta.pre_roll > declared {
                return Err(TraceError::PreRollOutOfRange {
                    pre_roll: self.meta.pre_roll,
                    total: declared,
                });
            }
            // The end chunk is a positive end-of-stream marker: any
            // further byte is corruption, not a second stream.
            let mut probe = [0u8; 1];
            loop {
                match self.source.read(&mut probe) {
                    Ok(0) => break,
                    Ok(_) => return Err(TraceError::TrailingData),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(TraceError::Io(e)),
                }
            }
            self.done = true;
            return Ok(None);
        }
        if count > MAX_CHUNK_RECORDS {
            return Err(TraceError::ChunkTooLarge {
                records: count,
                payload_len,
            });
        }
        let bound = u64::from(count)
            * (self.meta.kind.logical_width() as u64 + self.meta.kind.f64_fields() as u64);
        if u64::from(payload_len) > bound {
            return Err(TraceError::ChunkTooLarge {
                records: count,
                payload_len,
            });
        }
        // Read into the cleared scratch, sized once for the chunk: its
        // spare bytes are overwritten, not zero-filled first.
        self.payload.clear();
        self.payload.reserve(payload_len as usize);
        let got = (&mut self.source)
            .take(u64::from(payload_len))
            .read_to_end(&mut self.payload)
            .map_err(truncated_or_io)?;
        if got < payload_len as usize {
            return Err(TraceError::Truncated);
        }
        let mut crc_bytes = [0u8; 4];
        read_exact_or(&mut self.source, &mut crc_bytes)?;
        let mut crc = Crc32::new();
        crc.update(&prefix);
        crc.update(&self.payload);
        if crc.finish() != u32::from_le_bytes(crc_bytes) {
            return Err(TraceError::CrcMismatch {
                location: "data chunk",
            });
        }
        Ok(Some(count as usize))
    }

    /// Decode every remaining chunk onto one vector.
    fn into_records(mut self) -> Result<(TraceMeta, Vec<Record>), TraceError> {
        let mut records = Vec::new();
        while self.append_chunk(&mut records)? {}
        Ok((self.meta, records))
    }
}

impl<R: Read + Send> TraceReader<R> {
    /// Hand every remaining data chunk's replay columns to `f`, in file
    /// order and on the calling thread, while a helper thread reads,
    /// CRC-checks and decodes the chunk after the one `f` is given.
    ///
    /// `f` sees exactly the columns a [`TraceReader::next_columns`]
    /// loop would, chunk for chunk: the helper only runs that method.
    /// The calling thread decodes the first chunk itself, which sizes
    /// the payload scratch, and sizes the second column buffer to it
    /// before it starts the helper, so the helper allocates nothing
    /// while no chunk is longer than the first. The two column buffers
    /// then take turns: the helper fills one while `f` reads the other.
    ///
    /// `Ok(())` means the end chunk verified the stream. The first
    /// reader error comes back after `f` has seen every chunk before
    /// it, where the serial loop would have returned it. When `f`
    /// returns `Err`, the call stops the helper, waits for it and
    /// returns that error; the helper may by then have read one chunk
    /// past the last one `f` saw, so the reader should be dropped.
    ///
    /// # Errors
    ///
    /// Any reader variant of [`TraceError`], [`TraceError::ReadAhead`]
    /// when the helper thread cannot be started, or `f`'s own error.
    pub fn for_each_columns<E: From<TraceError>>(
        &mut self,
        mut f: impl FnMut(&ReplayColumns) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut columns = ReplayColumns::new();
        if !self.next_columns(&mut columns)? {
            return Ok(());
        }
        let spare = ReplayColumns::with_capacity(columns.len());
        std::thread::scope(|scope| {
            // `filled` is a rendezvous: the helper parks holding a
            // decoded chunk until the caller takes it. `empty` brings
            // the scored buffer back; with two buffers it never blocks.
            let (filled_tx, filled_rx) = mpsc::sync_channel(0);
            let (empty_tx, empty_rx) = mpsc::sync_channel(1);
            let helper = std::thread::Builder::new()
                .spawn_scoped(scope, move || self.read_ahead(spare, &filled_tx, &empty_rx))
                .map_err(TraceError::ReadAhead)?;
            loop {
                // On `Err` the channel ends drop here, which wakes a
                // parked helper; the scope then joins it.
                f(&columns)?;
                // A helper that has finished no longer takes buffers.
                let _ = empty_tx.send(columns);
                match filled_rx.recv() {
                    Ok(next) => columns = next,
                    Err(_) => break,
                }
            }
            match helper.join() {
                Ok(result) => result.map_err(E::from),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        })
    }

    /// The helper's loop: decode the next chunk into `spare`, hand it
    /// over, take the buffer the caller has finished with, repeat. It
    /// stops at the end chunk, at the first reader error, or when the
    /// caller has stopped listening.
    fn read_ahead(
        &mut self,
        mut spare: ReplayColumns,
        filled: &mpsc::SyncSender<ReplayColumns>,
        empty: &mpsc::Receiver<ReplayColumns>,
    ) -> Result<(), TraceError> {
        while self.next_columns(&mut spare)? {
            if filled.send(spare).is_err() {
                break;
            }
            match empty.recv() {
                Ok(next) => spare = next,
                Err(_) => break,
            }
        }
        Ok(())
    }
}

impl TraceReader<io::BufReader<std::fs::File>> {
    /// Open a `.dtrc` file on disk (buffered) and verify its header.
    ///
    /// # Errors
    ///
    /// `Io` when the file cannot be opened, else as
    /// [`TraceReader::new`].
    pub fn open(path: &Path) -> Result<Self, TraceError> {
        TraceReader::new(io::BufReader::new(std::fs::File::open(path)?))
    }
}

/// Read an entire stream into memory, decoding each chunk directly
/// into the returned vector.
///
/// # Errors
///
/// Any reader variant of [`TraceError`].
pub fn read_all<R: Read>(source: R) -> Result<(TraceMeta, Vec<Record>), TraceError> {
    TraceReader::new(source)?.into_records()
}

/// Read a `.dtrc` file from disk (buffered).
///
/// # Errors
///
/// Any reader variant of [`TraceError`]; `Io` when the file cannot be
/// opened.
pub fn read_path(path: &Path) -> Result<(TraceMeta, Vec<Record>), TraceError> {
    TraceReader::open(path)?.into_records()
}

/// Write `records` to a `.dtrc` file on disk (buffered, default chunk
/// size), creating parent directories.
///
/// # Errors
///
/// Any writer variant of [`TraceError`].
pub fn write_path(path: &Path, meta: &TraceMeta, records: &[Record]) -> Result<(), TraceError> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let file = std::fs::File::create(path)?;
    let mut writer = TraceWriter::new(io::BufWriter::new(file), meta)?;
    writer.extend_from_slice(records)?;
    writer.finish()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_record(i: u64) -> Record {
        Record {
            current: 20.0 + (i as f64) * 0.25,
            power: 30.0 + (i as f64).sin(),
            committed: (i % 9) as u16,
            l2_misses: (i % 3) as u16,
            mispredicts: (i % 2) as u16,
        }
    }

    fn write_to_vec(meta: &TraceMeta, records: &[Record], chunk: usize) -> Vec<u8> {
        let mut w = TraceWriter::with_chunk_records(Vec::new(), meta, chunk).unwrap();
        w.extend_from_slice(records).unwrap();
        w.finish().unwrap()
    }

    #[test]
    fn round_trip_full_records() {
        let mut meta = TraceMeta::new(RecordKind::Full, "gzip");
        meta.seed = 0xD1D7;
        meta.discarded_warmup = 1000;
        meta.pre_roll = 3;
        let records: Vec<Record> = (0..1000).map(full_record).collect();
        let bytes = write_to_vec(&meta, &records, 64);
        let (got_meta, got) = read_all(&bytes[..]).unwrap();
        assert_eq!(got_meta, meta);
        assert_eq!(got.len(), records.len());
        assert!(got.iter().zip(&records).all(|(a, b)| a.bits_eq(b)));
    }

    #[test]
    fn chunk_size_is_invisible() {
        let meta = TraceMeta::new(RecordKind::Current, "swim");
        let records: Vec<Record> = (0..257)
            .map(|i| Record::current_only(40.0 + f64::from(i) * 0.01))
            .collect();
        let reference = read_all(&write_to_vec(&meta, &records, 257)[..]).unwrap();
        for chunk in [1usize, 2, 7, 64, 256, 1024] {
            let got = read_all(&write_to_vec(&meta, &records, chunk)[..]).unwrap();
            assert_eq!(got.0, reference.0);
            assert_eq!(got.1.len(), reference.1.len());
            assert!(got.1.iter().zip(&reference.1).all(|(a, b)| a.bits_eq(b)));
        }
    }

    #[test]
    fn empty_trace_round_trips() {
        let meta = TraceMeta::new(RecordKind::Current, "");
        let bytes = write_to_vec(&meta, &[], 8);
        let (_, got) = read_all(&bytes[..]).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn special_float_bit_patterns_round_trip() {
        let meta = TraceMeta::new(RecordKind::Current, "specials");
        let specials = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::from_bits(0x7FF8_0000_DEAD_BEEF), // NaN payload
            f64::MIN_POSITIVE,
            f64::from_bits(1), // smallest subnormal
            f64::MAX,
        ];
        let records: Vec<Record> = specials.iter().map(|&v| Record::current_only(v)).collect();
        let bytes = write_to_vec(&meta, &records, 3);
        let (_, got) = read_all(&bytes[..]).unwrap();
        assert!(got.iter().zip(&records).all(|(a, b)| a.bits_eq(b)));
    }

    #[test]
    fn repeated_values_cost_one_byte() {
        let meta = TraceMeta::new(RecordKind::Current, "flat");
        let records = vec![Record::current_only(42.5); 1000];
        let bytes = write_to_vec(&meta, &records, 1000);
        // header + chunk framing + ~9 bytes first record + 1 byte each after.
        assert!(bytes.len() < 1100, "flat trace is {} bytes", bytes.len());
    }

    #[test]
    fn truncation_anywhere_is_rejected() {
        let meta = TraceMeta::new(RecordKind::Full, "trunc");
        let records: Vec<Record> = (0..50).map(full_record).collect();
        let bytes = write_to_vec(&meta, &records, 16);
        for cut in 0..bytes.len() {
            assert!(
                read_all(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes was accepted"
            );
        }
    }

    #[test]
    fn single_byte_corruption_is_rejected() {
        let meta = TraceMeta::new(RecordKind::Full, "corrupt");
        let records: Vec<Record> = (0..50).map(full_record).collect();
        let bytes = write_to_vec(&meta, &records, 16);
        for pos in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x41;
            assert!(
                read_all(&bad[..]).is_err(),
                "flip at byte {pos} was accepted"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let meta = TraceMeta::new(RecordKind::Current, "t");
        let mut bytes = write_to_vec(&meta, &[Record::current_only(1.0)], 8);
        bytes.push(0);
        assert!(matches!(
            read_all(&bytes[..]),
            Err(TraceError::TrailingData)
        ));
    }

    #[test]
    fn wrong_magic_version_and_kind_are_rejected() {
        let meta = TraceMeta::new(RecordKind::Current, "x");
        let good = write_to_vec(&meta, &[], 8);
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(read_all(&bad[..]), Err(TraceError::BadMagic)));
        // Version / kind flips also break the header CRC, so patch the
        // CRC too to prove the dedicated checks fire first.
        let patch = |mut v: Vec<u8>, off: usize, val: u8| {
            v[off] = val;
            let name_end = 33 + v[32] as usize;
            let crc = crate::crc::crc32(&v[..name_end]);
            v[name_end..name_end + 4].copy_from_slice(&crc.to_le_bytes());
            v
        };
        assert!(matches!(
            read_all(&patch(good.clone(), 4, 9)[..]),
            Err(TraceError::UnsupportedVersion(9))
        ));
        assert!(matches!(
            read_all(&patch(good, 6, 7)[..]),
            Err(TraceError::UnsupportedRecordKind(7))
        ));
    }

    #[test]
    fn end_chunk_count_mismatch_is_rejected() {
        let meta = TraceMeta::new(RecordKind::Current, "n");
        let records: Vec<Record> = (0..10)
            .map(|i| Record::current_only(f64::from(i)))
            .collect();
        let mut bytes = write_to_vec(&meta, &records, 4);
        // Rewrite the end-chunk total (last 12 bytes: u64 payload + crc)
        // with a consistent CRC so only the count check can fire.
        let end = bytes.len() - 20; // prefix(8) + payload(8) + crc(4)
        bytes[end + 8..end + 16].copy_from_slice(&11u64.to_le_bytes());
        let mut crc = Crc32::new();
        crc.update(&bytes[end..end + 16]);
        let c = crc.finish();
        bytes[end + 16..end + 20].copy_from_slice(&c.to_le_bytes());
        assert!(matches!(
            read_all(&bytes[..]),
            Err(TraceError::CountMismatch {
                expected: 10,
                declared: 11
            })
        ));
    }

    #[test]
    fn pre_roll_beyond_total_is_rejected() {
        let mut meta = TraceMeta::new(RecordKind::Current, "p");
        meta.pre_roll = 11;
        let records: Vec<Record> = (0..10)
            .map(|i| Record::current_only(f64::from(i)))
            .collect();
        let bytes = write_to_vec(&meta, &records, 4);
        assert!(matches!(
            read_all(&bytes[..]),
            Err(TraceError::PreRollOutOfRange {
                pre_roll: 11,
                total: 10
            })
        ));
    }

    #[test]
    fn kind1_writer_rejects_event_fields() {
        let meta = TraceMeta::new(RecordKind::Current, "k1");
        let mut w = TraceWriter::new(Vec::new(), &meta).unwrap();
        let mut r = Record::current_only(1.0);
        r.committed = 1;
        assert!(matches!(w.push(r), Err(TraceError::Unwritable(_))));
    }

    #[test]
    fn oversized_name_and_chunk_are_unwritable() {
        let meta = TraceMeta::new(RecordKind::Current, &"x".repeat(256));
        assert!(matches!(
            TraceWriter::new(Vec::new(), &meta),
            Err(TraceError::Unwritable(_))
        ));
        let meta = TraceMeta::new(RecordKind::Current, "ok");
        assert!(matches!(
            TraceWriter::with_chunk_records(Vec::new(), &meta, 0),
            Err(TraceError::Unwritable(_))
        ));
        assert!(matches!(
            TraceWriter::with_chunk_records(Vec::new(), &meta, MAX_CHUNK_RECORDS as usize + 1),
            Err(TraceError::Unwritable(_))
        ));
    }

    #[test]
    fn compression_beats_raw_width_on_smooth_traces() {
        let meta = TraceMeta::new(RecordKind::Full, "smooth");
        // A smooth-ish current: small steps around a mean, like the
        // simulator's output. XOR deltas should shave the high bytes.
        let records: Vec<Record> = (0..4096)
            .map(|i| {
                let t = f64::from(i);
                Record {
                    current: (40.0 + 8.0 * (t * 0.01).sin()).round() * 0.125,
                    power: (55.0 + 5.0 * (t * 0.02).cos()).round() * 0.25,
                    committed: 4,
                    l2_misses: 0,
                    mispredicts: 0,
                }
            })
            .collect();
        let bytes = write_to_vec(&meta, &records, 4096);
        let raw = records.len() * RecordKind::Full.logical_width();
        assert!(bytes.len() < raw, "compressed {} >= raw {raw}", bytes.len());
    }

    #[test]
    fn read_all_equals_concatenated_next_chunk_output() {
        let meta = TraceMeta::new(RecordKind::Full, "append");
        // 16,411 records: no chunk size below divides it, so every
        // chunking ends on a short chunk.
        let records: Vec<Record> = (0..16_411).map(full_record).collect();
        for chunk in [1usize, 7, 1000, DEFAULT_CHUNK_RECORDS] {
            let bytes = write_to_vec(&meta, &records, chunk);
            let mut reader = TraceReader::new(&bytes[..]).unwrap();
            let mut streamed = Vec::new();
            let mut buf = vec![Record::current_only(-1.0); 3];
            while reader.next_chunk(&mut buf).unwrap() {
                assert!(buf.len() <= chunk, "next_chunk kept stale records");
                streamed.extend_from_slice(&buf);
            }
            let (_, all) = read_all(&bytes[..]).unwrap();
            assert_eq!(all.len(), records.len(), "chunk size {chunk}");
            assert_eq!(streamed.len(), all.len(), "chunk size {chunk}");
            assert!(all.iter().zip(&streamed).all(|(a, b)| a.bits_eq(b)));
            assert!(all.iter().zip(&records).all(|(a, b)| a.bits_eq(b)));
        }
    }

    #[test]
    fn corrupt_last_data_chunk_fails_read_all_without_a_prefix() {
        let meta = TraceMeta::new(RecordKind::Full, "tail");
        let records: Vec<Record> = (0..100).map(full_record).collect();
        let mut bytes = write_to_vec(&meta, &records, 40);
        // Chunks of 40, 40 and 20 records; the end chunk is the last
        // 20 bytes and the last data chunk's CRC the 4 before them.
        // Flip a byte just inside the last data chunk's payload.
        let pos = bytes.len() - 20 - 4 - 1;
        bytes[pos] ^= 0x10;
        assert!(matches!(
            read_all(&bytes[..]),
            Err(TraceError::CrcMismatch {
                location: "data chunk"
            })
        ));
    }

    #[test]
    fn read_chunks_counter_advances() {
        let before = MetricsRegistry::global().counter(READ_CHUNKS_COUNTER).get();
        let meta = TraceMeta::new(RecordKind::Current, "ctr");
        let records: Vec<Record> = (0..100)
            .map(|i| Record::current_only(f64::from(i)))
            .collect();
        let bytes = write_to_vec(&meta, &records, 10);
        read_all(&bytes[..]).unwrap();
        let after = MetricsRegistry::global().counter(READ_CHUNKS_COUNTER).get();
        assert!(after >= before + 10);
    }

    #[test]
    fn write_and_read_path_round_trip() {
        let dir = std::env::temp_dir().join("didt_trace_fmt_test");
        let path = dir.join("roundtrip.dtrc");
        let mut meta = TraceMeta::new(RecordKind::Full, "mcf");
        meta.seed = 7;
        let records: Vec<Record> = (0..500).map(full_record).collect();
        write_path(&path, &meta, &records).unwrap();
        let (got_meta, got) = read_path(&path).unwrap();
        assert_eq!(got_meta, meta);
        assert!(got.iter().zip(&records).all(|(a, b)| a.bits_eq(b)));
        std::fs::remove_dir_all(&dir).ok();
    }
}
