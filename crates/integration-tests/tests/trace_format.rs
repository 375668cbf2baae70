//! Spec-conformance tests for the `.dtrc` container.
//!
//! TRACE_FORMAT.md is the contract; this suite plays the independent
//! reader it calls for: [`reference`] is a second decoder implemented
//! from the document alone (bitwise CRC, no didt-trace internals), and
//! every property below runs both decoders against writer output —
//! agreement on accepts *and* rejects is what "the spec round-trips"
//! means.
//!
//! Properties pinned here:
//!
//! * bit-identical round-trips for arbitrary record contents (NaN
//!   payloads, signed zeros, infinities, subnormals) at arbitrary
//!   lengths and chunk sizes, both record kinds;
//! * chunk-boundary invisibility (any chunking decodes to the same
//!   record sequence);
//! * every strict prefix of a valid file is an error, never a panic or
//!   a silent partial answer;
//! * any single corrupted byte is detected by both decoders;
//! * a header `pre_roll` beyond the file's record count is rejected;
//! * the library's lane CRC-32, fed any byte string in any pieces,
//!   equals the reference's bitwise one;
//! * the replay column decoder (`TraceReader::next_columns`) returns
//!   `read_all`'s current, power and committed bits for every stream,
//!   and rejects every stream `read_all` rejects with the same error —
//!   payload edits under a repaired CRC included, so the decoders'
//!   own checks are compared, not only the CRC's;
//! * the read-ahead loop (`TraceReader::for_each_columns`) hands over
//!   the chunks a `next_columns` loop reads, in order and bit for bit,
//!   then ends with the same error, on the same edited streams; a
//!   consumer that stops after any chunk gets its own error back.

use std::io::Read;
use std::sync::mpsc;
use std::time::Duration;

use didt_trace::{
    read_all, Crc32, Record, RecordKind, ReplayColumns, TraceError, TraceMeta, TraceReader,
    TraceWriter,
};
use proptest::prelude::*;

/// An independent `.dtrc` decoder implemented from TRACE_FORMAT.md
/// alone. Everything here — CRC, header walk, varbyte columns — is
/// deliberately written against the document's tables, not against
/// `didt_trace`'s source, and shares no code with it.
mod reference {
    /// CRC-32/ISO-HDLC, bitwise (no table): reflected poly 0xEDB88320,
    /// init 0xFFFFFFFF, final XOR 0xFFFFFFFF (TRACE_FORMAT.md §0).
    pub fn crc32(data: &[u8]) -> u32 {
        let mut state = 0xFFFF_FFFFu32;
        for &byte in data {
            state ^= u32::from(byte);
            for _ in 0..8 {
                state = if state & 1 != 0 {
                    (state >> 1) ^ 0xEDB8_8320
                } else {
                    state >> 1
                };
            }
        }
        state ^ 0xFFFF_FFFF
    }

    /// A decoded record as raw wire values (f64s kept as bit patterns
    /// so comparisons are exact by construction).
    #[derive(Debug, PartialEq, Eq, Clone, Copy, Default)]
    pub struct RawRecord {
        pub current_bits: u64,
        pub power_bits: u64,
        pub committed: u16,
        pub l2_misses: u16,
        pub mispredicts: u16,
    }

    #[derive(Debug)]
    pub struct Decoded {
        pub record_kind: u16,
        pub seed: u64,
        pub discarded_warmup: u64,
        pub pre_roll: u64,
        pub name: String,
        pub records: Vec<RawRecord>,
    }

    /// A cursor over the byte stream; every read is bounds-checked so
    /// truncation surfaces as `Err`, never a panic.
    struct Cur<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl<'a> Cur<'a> {
        fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
            if self.pos + n > self.bytes.len() {
                return Err(format!("truncated at offset {}", self.pos));
            }
            let s = &self.bytes[self.pos..self.pos + n];
            self.pos += n;
            Ok(s)
        }
        fn u16(&mut self) -> Result<u16, String> {
            Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
        }
        fn u32(&mut self) -> Result<u32, String> {
            Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
        }
        fn u64(&mut self) -> Result<u64, String> {
            Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
        }
    }

    /// §5 f64 column: XOR-delta varbyte, predictor reset per column.
    fn f64_column(cur: &mut Cur, count: usize) -> Result<Vec<u64>, String> {
        let mut prev = 0u64;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let n = cur.take(1)?[0];
            if n > 8 {
                return Err(format!("control byte {n} > 8"));
            }
            let mut x = 0u64;
            for (i, &b) in cur.take(n as usize)?.iter().enumerate() {
                x |= u64::from(b) << (8 * i);
            }
            prev ^= x;
            out.push(prev);
        }
        Ok(out)
    }

    /// Decode one whole file per TRACE_FORMAT.md §§1–7. Every MUST in
    /// the document is an `Err` here.
    pub fn decode(bytes: &[u8]) -> Result<Decoded, String> {
        let mut cur = Cur { bytes, pos: 0 };
        // §2 header.
        if cur.take(4)? != b"DTRC" {
            return Err("bad magic".into());
        }
        let version = cur.u16()?;
        if version != 1 {
            return Err(format!("unsupported version {version}"));
        }
        let record_kind = cur.u16()?;
        if record_kind != 1 && record_kind != 2 {
            return Err(format!("unsupported record kind {record_kind}"));
        }
        let seed = cur.u64()?;
        let discarded_warmup = cur.u64()?;
        let pre_roll = cur.u64()?;
        let name_len = cur.take(1)?[0] as usize;
        let name = String::from_utf8(cur.take(name_len)?.to_vec())
            .map_err(|_| "name is not UTF-8".to_string())?;
        let header_end = cur.pos;
        if cur.u32()? != crc32(&bytes[..header_end]) {
            return Err("header CRC mismatch".into());
        }
        // §4 chunks.
        let (lw, nf) = if record_kind == 1 { (8, 1) } else { (24, 2) };
        let mut records = Vec::new();
        loop {
            let chunk_start = cur.pos;
            let record_count = cur.u32()? as usize;
            let payload_len = cur.u32()? as usize;
            if record_count == 0 {
                // End chunk: payload is exactly total_records:u64.
                if payload_len != 8 {
                    return Err(format!("end chunk payload_len {payload_len} != 8"));
                }
                let total = cur.u64()?;
                let crc = cur.u32()?;
                if crc != crc32(&bytes[chunk_start..chunk_start + 16]) {
                    return Err("end chunk CRC mismatch".into());
                }
                if total != records.len() as u64 {
                    return Err(format!("total {total} != {} decoded", records.len()));
                }
                if pre_roll > total {
                    return Err(format!("pre_roll {pre_roll} > total {total}"));
                }
                if cur.pos != bytes.len() {
                    return Err("trailing data after end chunk".into());
                }
                return Ok(Decoded {
                    record_kind,
                    seed,
                    discarded_warmup,
                    pre_roll,
                    name,
                    records,
                });
            }
            if record_count > 1_048_576 {
                return Err(format!("record_count {record_count} above cap"));
            }
            if payload_len > record_count * (lw + nf) {
                return Err(format!("payload_len {payload_len} above bound"));
            }
            let payload_end = cur.pos + payload_len;
            if payload_end > bytes.len() {
                return Err("truncated payload".into());
            }
            // §4: CRC over the 8 prefix bytes plus the payload.
            let mut pcur = Cur {
                bytes: &bytes[..payload_end],
                pos: cur.pos,
            };
            cur.pos = payload_end;
            if cur.u32()? != crc32(&bytes[chunk_start..payload_end]) {
                return Err("chunk CRC mismatch".into());
            }
            // §5 column-major payload in §3 field order.
            let currents = f64_column(&mut pcur, record_count)?;
            let powers = if record_kind == 2 {
                f64_column(&mut pcur, record_count)?
            } else {
                vec![0u64; record_count]
            };
            let mut u16_col =
                |n: usize| -> Result<Vec<u16>, String> { (0..n).map(|_| pcur.u16()).collect() };
            let (committed, l2, misp) = if record_kind == 2 {
                (
                    u16_col(record_count)?,
                    u16_col(record_count)?,
                    u16_col(record_count)?,
                )
            } else {
                let z = vec![0u16; record_count];
                (z.clone(), z.clone(), z)
            };
            if pcur.pos != payload_end {
                return Err("payload has trailing bytes".into());
            }
            for i in 0..record_count {
                records.push(RawRecord {
                    current_bits: currents[i],
                    power_bits: powers[i],
                    committed: committed[i],
                    l2_misses: l2[i],
                    mispredicts: misp[i],
                });
            }
        }
    }
}

/// Bit patterns the varbyte codec must transport unchanged: quiet NaN
/// with payload, signaling-style NaN, ±0.0, ±inf, subnormals, extremes.
const SPECIAL_BITS: &[u64] = &[
    0x7FF8_0000_0000_0001,
    0x7FF0_0000_0000_0001,
    0xFFF8_DEAD_BEEF_CAFE,
    0x0000_0000_0000_0000,
    0x8000_0000_0000_0000,
    0x7FF0_0000_0000_0000,
    0xFFF0_0000_0000_0000,
    0x0000_0000_0000_0001,
    0x000F_FFFF_FFFF_FFFF,
    0x7FEF_FFFF_FFFF_FFFF,
];

fn meta(kind: RecordKind) -> TraceMeta {
    let mut m = TraceMeta::new(kind, "proptest");
    m.seed = 0x5EED;
    m.discarded_warmup = 7;
    m
}

/// Encode `records` with the library writer at the given chunking.
fn encode(records: &[Record], kind: RecordKind, chunk: usize) -> Vec<u8> {
    let mut w = TraceWriter::with_chunk_records(Vec::new(), &meta(kind), chunk).unwrap();
    for r in records {
        w.push(*r).unwrap();
    }
    w.finish().unwrap()
}

fn full_records(bits: &[(u64, u64, u16, u16, u16)]) -> Vec<Record> {
    bits.iter()
        .map(|&(c, p, co, l2, mi)| Record {
            current: f64::from_bits(c),
            power: f64::from_bits(p),
            committed: co,
            l2_misses: l2,
            mispredicts: mi,
        })
        .collect()
}

/// Inject the special bit patterns over the leading records so every
/// case exercises them (the random tail covers the general field).
fn with_specials(mut raw: Vec<(u64, u64, u16, u16, u16)>) -> Vec<(u64, u64, u16, u16, u16)> {
    for (i, r) in raw.iter_mut().enumerate() {
        if i < SPECIAL_BITS.len() {
            r.0 = SPECIAL_BITS[i];
            r.1 = SPECIAL_BITS[SPECIAL_BITS.len() - 1 - i];
        }
    }
    raw
}

fn assert_both_decoders_agree(bytes: &[u8], want: &[Record], kind: RecordKind) {
    // Library reader: bit-identical records plus metadata.
    let (got_meta, got) = read_all(bytes).unwrap();
    assert_eq!(got_meta, meta(kind));
    assert_eq!(got.len(), want.len());
    for (a, b) in got.iter().zip(want) {
        assert!(a.bits_eq(b), "library decode differs: {a:?} vs {b:?}");
    }
    // Reference decoder, from the spec alone: same bits, same meta.
    let dec = reference::decode(bytes).unwrap();
    assert_eq!(dec.record_kind, kind.to_wire());
    assert_eq!(dec.seed, 0x5EED);
    assert_eq!(dec.discarded_warmup, 7);
    assert_eq!(dec.pre_roll, 0);
    assert_eq!(dec.name, "proptest");
    assert_eq!(dec.records.len(), want.len());
    for (a, b) in dec.records.iter().zip(want) {
        assert_eq!(a.current_bits, b.current.to_bits());
        assert_eq!(a.power_bits, b.power.to_bits());
        assert_eq!(
            (a.committed, a.l2_misses, a.mispredicts),
            (b.committed, b.l2_misses, b.mispredicts)
        );
    }
}

/// Every chunk of a stream through `TraceReader::next_columns`: the
/// current and power bits and the committed counts, concatenated.
type ColumnBits = (Vec<u64>, Vec<u64>, Vec<u16>);

fn decode_columns(bytes: &[u8]) -> Result<ColumnBits, TraceError> {
    let mut reader = TraceReader::new(bytes)?;
    let mut columns = ReplayColumns::new();
    let mut out = ColumnBits::default();
    while reader.next_columns(&mut columns)? {
        assert_eq!(columns.power().len(), columns.len());
        assert_eq!(columns.committed().len(), columns.len());
        out.0.extend(columns.current().iter().map(|x| x.to_bits()));
        out.1.extend(columns.power().iter().map(|x| x.to_bits()));
        out.2.extend_from_slice(columns.committed());
    }
    Ok(out)
}

/// One chunk's columns as `next_columns` or `for_each_columns` hands
/// them over, by bits.
fn chunk_bits(columns: &ReplayColumns) -> ColumnBits {
    (
        columns.current().iter().map(|x| x.to_bits()).collect(),
        columns.power().iter().map(|x| x.to_bits()).collect(),
        columns.committed().to_vec(),
    )
}

/// What a consumer saw of a stream: each chunk in order, then how the
/// read ended (the error text on a rejection).
type Seen = (Vec<ColumnBits>, Result<(), String>);

/// Every chunk through a serial `next_columns` loop.
fn serial_chunks(bytes: &[u8]) -> Seen {
    let mut chunks = Vec::new();
    let mut reader = match TraceReader::new(bytes) {
        Ok(reader) => reader,
        Err(e) => return (chunks, Err(e.to_string())),
    };
    let mut columns = ReplayColumns::new();
    loop {
        match reader.next_columns(&mut columns) {
            Ok(true) => chunks.push(chunk_bits(&columns)),
            Ok(false) => return (chunks, Ok(())),
            Err(e) => return (chunks, Err(e.to_string())),
        }
    }
}

/// Why a read-ahead consumer stopped: on its own after `n` chunks, or
/// because the reader rejected the stream.
#[derive(Debug, PartialEq)]
enum Stop {
    After(usize),
    Reader(String),
}

impl From<TraceError> for Stop {
    fn from(e: TraceError) -> Self {
        Stop::Reader(e.to_string())
    }
}

/// Every chunk of `source` through `for_each_columns`, with a consumer
/// that stops after chunk `stop_after` (never when `None`), first
/// calling `before_stop`.
fn read_ahead_chunks<R: Read + Send>(
    source: R,
    stop_after: Option<usize>,
    mut before_stop: impl FnMut(),
) -> (Vec<ColumnBits>, Result<(), Stop>) {
    let mut chunks = Vec::new();
    let result = TraceReader::new(source)
        .map_err(Stop::from)
        .and_then(|mut reader| {
            reader.for_each_columns(|columns| {
                chunks.push(chunk_bits(columns));
                if stop_after == Some(chunks.len()) {
                    before_stop();
                    return Err(Stop::After(chunks.len()));
                }
                Ok(())
            })
        });
    (chunks, result)
}

/// A stream over `bytes` that reports once, on `tripped`, when its
/// reader has taken `trip_at` bytes.
struct Tripwire<'a> {
    bytes: &'a [u8],
    trip_at: usize,
    tripped: Option<mpsc::Sender<()>>,
}

impl Read for Tripwire<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.bytes.read(buf)?;
        self.trip_at = self.trip_at.saturating_sub(n);
        if self.trip_at == 0 {
            if let Some(tripped) = self.tripped.take() {
                tripped.send(()).unwrap();
            }
        }
        Ok(n)
    }
}

/// One generated record of the mutation proptests: `((current bits,
/// power bits), (committed, l2_misses, mispredicts))`.
type RawRecord = ((u64, u64), (u16, u16, u16));

/// Records for the mutation proptests: `raw` as full records, or its
/// currents alone as kind-1 records.
fn mutation_records(raw: Vec<RawRecord>, full: bool) -> (RecordKind, Vec<Record>) {
    let raw: Vec<_> = raw
        .into_iter()
        .map(|((c, p), (co, l2, mi))| (c, p, co, l2, mi))
        .collect();
    if full {
        (RecordKind::Full, full_records(&with_specials(raw)))
    } else {
        let currents = with_specials(raw)
            .iter()
            .map(|r| Record::current_only(f64::from_bits(r.0)))
            .collect();
        (RecordKind::Current, currents)
    }
}

/// `good` after stream mutation `mutation` (0 keeps it intact):
/// truncated, a byte flipped, a byte appended, or one chunk's payload
/// flipped, overwritten, cut or extended under a repaired CRC. The
/// edit lands at `at_frac` of the stream or payload.
fn mutate(good: Vec<u8>, mutation: u8, at_frac: f64, flip: u8, which: usize) -> Vec<u8> {
    let at = |len: usize| ((len as f64) * at_frac) as usize;
    match mutation {
        0 => good,
        1 => good[..at(good.len())].to_vec(),
        2 => {
            let mut bad = good;
            let pos = at(bad.len());
            bad[pos] ^= flip;
            bad
        }
        3 => [&good[..], &[flip]].concat(),
        4 => edit_chunk(&good, which, |p| {
            if !p.is_empty() {
                let i = at(p.len());
                p[i] ^= flip;
            }
        }),
        5 => edit_chunk(&good, which, |p| {
            if !p.is_empty() {
                let i = at(p.len());
                p[i] = 9.max(flip);
            }
        }),
        6 => edit_chunk(&good, which, |p| {
            let i = at(p.len());
            p.truncate(i);
        }),
        _ => edit_chunk(&good, which, |p| p.extend_from_slice(&[flip, 0, flip])),
    }
}

/// Where each data chunk of a well-formed stream starts, with its
/// payload length.
fn data_chunks(bytes: &[u8]) -> Vec<(usize, usize)> {
    let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    let mut at = 33 + bytes[32] as usize + 4;
    let mut chunks = Vec::new();
    while u32_at(at) != 0 {
        let len = u32_at(at + 4) as usize;
        chunks.push((at, len));
        at += 8 + len + 4;
    }
    chunks
}

/// `bytes` with data chunk `which` (modulo the chunk count) re-framed:
/// `edit` changes its payload, and the length field and CRC are
/// rewritten to match, so only the payload decoders can object.
fn edit_chunk(bytes: &[u8], which: usize, edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let chunks = data_chunks(bytes);
    let Some(&(start, len)) = chunks.get(which % chunks.len().max(1)) else {
        return bytes.to_vec();
    };
    let mut payload = bytes[start + 8..start + 8 + len].to_vec();
    edit(&mut payload);
    let mut frame = bytes[start..start + 4].to_vec();
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    let crc = reference::crc32(&frame);
    frame.extend_from_slice(&crc.to_le_bytes());
    [&bytes[..start], &frame[..], &bytes[start + 8 + len + 4..]].concat()
}

proptest! {
    /// §0: `Crc32::update` over random bytes (0–4 KiB) cut at random
    /// split points — empty pieces, lengths off the 8-byte step and
    /// off the four-lane split included — equals the bitwise reference
    /// CRC of the whole.
    #[test]
    fn streaming_crc_equals_the_bitwise_reference(
        bytes in prop::collection::vec(any::<u8>(), 0..=4096),
        cuts in prop::collection::vec(0.0f64..=1.0, 0..=6),
    ) {
        let mut splits: Vec<usize> = cuts
            .iter()
            .map(|&f| ((bytes.len() as f64) * f) as usize)
            .collect();
        // The doubled 0 makes the first piece always empty.
        splits.extend([0, 0, bytes.len()]);
        splits.sort_unstable();
        let mut crc = Crc32::new();
        for w in splits.windows(2) {
            crc.update(&bytes[w[0]..w[1]]);
        }
        prop_assert!(crc.finish() == reference::crc32(&bytes), "splits {splits:?}");
    }

    /// Arbitrary full records at arbitrary lengths and chunk sizes:
    /// both decoders accept and return bit-identical records.
    #[test]
    fn full_round_trip_is_bit_identical_for_both_decoders(
        raw in prop::collection::vec(
            ((0u64..=u64::MAX - 1, 0u64..=u64::MAX - 1),
             (0u16..=u16::MAX, 0u16..=u16::MAX, 0u16..=u16::MAX)),
            0..=200,
        ),
        chunk in 1usize..=64,
    ) {
        let raw = raw.into_iter().map(|((c, p), (co, l2, mi))| (c, p, co, l2, mi)).collect();
        let records = full_records(&with_specials(raw));
        let bytes = encode(&records, RecordKind::Full, chunk);
        assert_both_decoders_agree(&bytes, &records, RecordKind::Full);
    }

    /// Kind-1 (current-only) files round-trip the same way.
    #[test]
    fn current_only_round_trip_is_bit_identical(
        bits in prop::collection::vec(0u64..=u64::MAX - 1, 0..=200),
        chunk in 1usize..=64,
    ) {
        let mut bits = bits;
        for (i, b) in bits.iter_mut().enumerate() {
            if i < SPECIAL_BITS.len() {
                *b = SPECIAL_BITS[i];
            }
        }
        let records: Vec<Record> = bits
            .iter()
            .map(|&b| Record::current_only(f64::from_bits(b)))
            .collect();
        let bytes = encode(&records, RecordKind::Current, chunk);
        assert_both_decoders_agree(&bytes, &records, RecordKind::Current);
    }

    /// §4: chunk boundaries are semantically invisible — any two
    /// chunkings of the same records decode identically.
    #[test]
    fn chunking_is_semantically_invisible(
        raw in prop::collection::vec(
            ((0u64..=u64::MAX - 1, 0u64..=u64::MAX - 1),
             (0u16..=u16::MAX, 0u16..=u16::MAX, 0u16..=u16::MAX)),
            1..=120,
        ),
        chunk_a in 1usize..=50,
        chunk_b in 51usize..=200,
    ) {
        let raw = raw.into_iter().map(|((c, p), (co, l2, mi))| (c, p, co, l2, mi)).collect();
        let records = full_records(&with_specials(raw));
        let a = encode(&records, RecordKind::Full, chunk_a);
        let b = encode(&records, RecordKind::Full, chunk_b);
        let (_, ra) = read_all(&a[..]).unwrap();
        let (_, rb) = read_all(&b[..]).unwrap();
        prop_assert_eq!(ra.len(), rb.len());
        for (x, y) in ra.iter().zip(&rb) {
            prop_assert!(x.bits_eq(y));
        }
        prop_assert_eq!(reference::decode(&a).unwrap().records,
                        reference::decode(&b).unwrap().records);
    }

    /// §4: EOF before a complete end chunk is an error in every strict
    /// prefix — both decoders, no panics, no partial acceptance.
    #[test]
    fn every_strict_prefix_is_rejected(
        raw in prop::collection::vec(
            ((0u64..=u64::MAX - 1, 0u64..=u64::MAX - 1),
             (0u16..=u16::MAX, 0u16..=u16::MAX, 0u16..=u16::MAX)),
            0..=40,
        ),
        chunk in 1usize..=16,
        cut_frac in 0.0f64..1.0,
    ) {
        let raw = raw.into_iter().map(|((c, p), (co, l2, mi))| (c, p, co, l2, mi)).collect();
        let records = full_records(&with_specials(raw));
        let bytes = encode(&records, RecordKind::Full, chunk);
        let cut = ((bytes.len() as f64) * cut_frac) as usize; // < len
        prop_assert!(read_all(&bytes[..cut]).is_err());
        prop_assert!(reference::decode(&bytes[..cut]).is_err());
    }

    /// §0: any single corrupted byte is detected — every byte of the
    /// file is under the header CRC, a chunk CRC, or is a CRC itself.
    #[test]
    fn any_single_corrupt_byte_is_detected(
        raw in prop::collection::vec(
            ((0u64..=u64::MAX - 1, 0u64..=u64::MAX - 1),
             (0u16..=u16::MAX, 0u16..=u16::MAX, 0u16..=u16::MAX)),
            1..=40,
        ),
        chunk in 1usize..=16,
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let raw = raw.into_iter().map(|((c, p), (co, l2, mi))| (c, p, co, l2, mi)).collect();
        let records = full_records(&with_specials(raw));
        let mut bytes = encode(&records, RecordKind::Full, chunk);
        let pos = ((bytes.len() as f64) * pos_frac) as usize;
        bytes[pos] ^= flip;
        prop_assert!(read_all(&bytes[..]).is_err(), "byte {pos} xor {flip:#04x}");
        prop_assert!(reference::decode(&bytes).is_err(), "byte {pos} xor {flip:#04x}");
    }
}

proptest! {
    // Eight stream mutations share the cases.
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The replay column decoder against `read_all`, for both kinds and
    /// any chunk size: on an intact stream it returns the same current,
    /// power and committed bits; on a truncated, byte-flipped or
    /// over-long stream, or one whose chunk payload was edited under a
    /// repaired CRC, it fails exactly when `read_all` fails, with the
    /// same error.
    #[test]
    fn column_decoder_matches_read_all_on_accepts_and_rejects(
        raw in prop::collection::vec(
            ((0u64..=u64::MAX - 1, 0u64..=u64::MAX - 1),
             (0u16..=u16::MAX, 0u16..=u16::MAX, 0u16..=u16::MAX)),
            0..=120,
        ),
        full in any::<bool>(),
        chunk in 1usize..=48,
        mutation in 0u8..8,
        at_frac in 0.0f64..1.0,
        flip in 1u8..=255,
        which in 0usize..8,
    ) {
        let (kind, records) = mutation_records(raw, full);
        let bytes = mutate(encode(&records, kind, chunk), mutation, at_frac, flip, which);
        match (read_all(&bytes[..]), decode_columns(&bytes)) {
            (Ok((_, want)), Ok((current, power, committed))) => {
                prop_assert!(mutation != 0 || want.len() == records.len());
                prop_assert_eq!(current.len(), want.len());
                for (i, r) in want.iter().enumerate() {
                    prop_assert!(current[i] == r.current.to_bits(), "current {i}");
                    prop_assert!(power[i] == r.power.to_bits(), "power {i}");
                    prop_assert!(committed[i] == r.committed, "committed {i}");
                }
            }
            (Err(want), Err(got)) => prop_assert_eq!(got.to_string(), want.to_string()),
            (want, got) => prop_assert!(
                false,
                "mutation {}: read_all {:?} but columns {:?}",
                mutation,
                want.map(|(_, r)| r.len()),
                got.map(|c| c.0.len())
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `for_each_columns` against a serial `next_columns` loop, for both
    /// kinds and any chunk size, on the intact and mutated streams of
    /// `column_decoder_matches_read_all_on_accepts_and_rejects`: the
    /// consumer gets the same chunks, in order and bit for bit, and the
    /// call ends as the loop did, with the same error text. A consumer
    /// that stops after chunk `stop` gets its own error back after
    /// exactly those chunks.
    #[test]
    fn read_ahead_hands_over_what_the_serial_loop_reads(
        raw in prop::collection::vec(
            ((0u64..=u64::MAX - 1, 0u64..=u64::MAX - 1),
             (0u16..=u16::MAX, 0u16..=u16::MAX, 0u16..=u16::MAX)),
            0..=120,
        ),
        full in any::<bool>(),
        chunk in 1usize..=48,
        mutation in 0u8..8,
        at_frac in 0.0f64..1.0,
        flip in 1u8..=255,
        which in 0usize..8,
        stop in 1usize..=12,
    ) {
        let (kind, records) = mutation_records(raw, full);
        let bytes = mutate(encode(&records, kind, chunk), mutation, at_frac, flip, which);
        let (want_chunks, want_end) = serial_chunks(&bytes);
        let want_end = want_end.map_err(Stop::Reader);
        let (got_chunks, got_end) = read_ahead_chunks(&bytes[..], None, || {});
        prop_assert!(got_chunks == want_chunks, "mutation {}: chunks differ", mutation);
        prop_assert_eq!(&got_end, &want_end);

        let (got_chunks, got_end) =
            read_ahead_chunks(&bytes[..], Some(stop), || {});
        if stop <= want_chunks.len() {
            prop_assert!(got_chunks[..] == want_chunks[..stop]);
            prop_assert_eq!(got_end, Err(Stop::After(stop)));
        } else {
            prop_assert!(got_chunks == want_chunks);
            prop_assert_eq!(got_end, want_end);
        }
    }
}

/// A consumer that stops after chunk `k`, for every `k`, once the
/// helper has taken chunk `k + 1` (or the end chunk) off the stream, so
/// the helper is decoding it or parked on the full hand-off: the call
/// returns the consumer's error after exactly `k` chunks, so the helper
/// was stopped and joined.
#[test]
fn read_ahead_stops_after_any_chunk_with_the_helper_parked() {
    for kind in [RecordKind::Current, RecordKind::Full] {
        let records: Vec<Record> = (0..40u16)
            .map(|i| Record {
                current: 20.0 + f64::from(i) * 0.25,
                power: if kind == RecordKind::Full {
                    30.0 - f64::from(i)
                } else {
                    0.0
                },
                committed: if kind == RecordKind::Full { i % 5 } else { 0 },
                l2_misses: 0,
                mispredicts: 0,
            })
            .collect();
        for chunk in [1, 7, 48] {
            let bytes = encode(&records, kind, chunk);
            let (want, end) = serial_chunks(&bytes);
            assert_eq!(end, Ok(()));
            let frames = data_chunks(&bytes);
            assert_eq!(frames.len(), want.len());
            for k in 1..=want.len() {
                let trip_at = frames
                    .get(k)
                    .map_or(bytes.len(), |&(start, len)| start + 8 + len + 4);
                let (tx, rx) = mpsc::channel();
                let source = Tripwire {
                    bytes: &bytes,
                    trip_at,
                    tripped: Some(tx),
                };
                let (got, end) = read_ahead_chunks(source, Some(k), || {
                    rx.recv_timeout(Duration::from_secs(30))
                        .expect("the helper reads the next chunk");
                });
                assert_eq!(end, Err(Stop::After(k)), "{kind:?}, chunks of {chunk}");
                assert!(
                    got[..] == want[..k],
                    "{kind:?}, chunks of {chunk}, stop {k}"
                );
            }
        }
    }
}

#[test]
fn trailing_bytes_after_end_chunk_are_rejected() {
    let records = vec![Record::current_only(1.5); 9];
    let mut bytes = encode(&records, RecordKind::Current, 4);
    bytes.push(0);
    assert!(read_all(&bytes[..]).is_err());
    assert!(reference::decode(&bytes).is_err());
}

#[test]
fn pre_roll_beyond_total_records_is_rejected() {
    let mut m = meta(RecordKind::Current);
    m.pre_roll = 5;
    let mut w = TraceWriter::with_chunk_records(Vec::new(), &m, 8).unwrap();
    for _ in 0..3 {
        w.push(Record::current_only(2.0)).unwrap();
    }
    let bytes = w.finish().unwrap();
    assert!(
        read_all(&bytes[..]).is_err(),
        "library must reject pre_roll 5 > total 3"
    );
    assert!(reference::decode(&bytes).is_err());

    // The boundary case pre_roll == total is valid and round-trips.
    m.pre_roll = 3;
    let mut w = TraceWriter::with_chunk_records(Vec::new(), &m, 8).unwrap();
    for _ in 0..3 {
        w.push(Record::current_only(2.0)).unwrap();
    }
    let bytes = w.finish().unwrap();
    let (got_meta, got) = read_all(&bytes[..]).unwrap();
    assert_eq!(got_meta.pre_roll, 3);
    assert_eq!(got.len(), 3);
    let dec = reference::decode(&bytes).unwrap();
    assert_eq!(dec.pre_roll, 3);
}

#[test]
fn empty_trace_round_trips() {
    let bytes = encode(&[], RecordKind::Full, 4);
    assert_both_decoders_agree(&bytes, &[], RecordKind::Full);
}
