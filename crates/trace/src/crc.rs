//! CRC-32/ISO-HDLC — the zlib/PNG checksum (`TRACE_FORMAT.md` §0).
//!
//! Reflected polynomial `0xEDB88320`, initial value `0xFFFFFFFF`, final
//! XOR `0xFFFFFFFF`. [`Crc32::update`] is slicing-by-16: each step
//! folds 16 input bytes into the state through 16 lookup tables of 256
//! entries (16 KiB, built at compile time from the bytewise table), and
//! inputs shorter than 16 bytes, or the tail of longer ones, go through
//! the bytewise table one byte at a time. Both give the same value; the
//! 16-byte step only removes the per-byte dependency chain. Vendoring
//! these few lines keeps the workspace's zero-external-deps rule intact.

/// `TABLES[0]` is the classic bytewise table; `TABLES[k][b]` is the CRC
/// contribution of byte `b` followed by `k` zero bytes.
const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1usize;
    while t < 16 {
        let mut i = 0usize;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 16] = build_tables();

/// Streaming CRC-32/ISO-HDLC state; feed bytes with [`Crc32::update`],
/// read the checksum with [`Crc32::finish`].
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// Fresh checksum state.
    #[must_use]
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Absorb `bytes`, 16 at a time, then the tail bytewise.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut s = self.state;
        let mut blocks = bytes.chunks_exact(16);
        for b in &mut blocks {
            let x = s ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            s = t[15][(x & 0xFF) as usize]
                ^ t[14][((x >> 8) & 0xFF) as usize]
                ^ t[13][((x >> 16) & 0xFF) as usize]
                ^ t[12][(x >> 24) as usize]
                ^ t[11][usize::from(b[4])]
                ^ t[10][usize::from(b[5])]
                ^ t[9][usize::from(b[6])]
                ^ t[8][usize::from(b[7])]
                ^ t[7][usize::from(b[8])]
                ^ t[6][usize::from(b[9])]
                ^ t[5][usize::from(b[10])]
                ^ t[4][usize::from(b[11])]
                ^ t[3][usize::from(b[12])]
                ^ t[2][usize::from(b[13])]
                ^ t[1][usize::from(b[14])]
                ^ t[0][usize::from(b[15])];
        }
        for &b in blocks.remainder() {
            s = t[0][((s ^ u32::from(b)) & 0xFF) as usize] ^ (s >> 8);
        }
        self.state = s;
    }

    /// The checksum of everything absorbed so far (the state is not
    /// consumed; more bytes may still be fed afterwards).
    #[must_use]
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 of `bytes`.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_check_value() {
        // The CRC-32/ISO-HDLC check value from the Rocksoft catalogue.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn known_value_through_the_sixteen_byte_step() {
        // 43 bytes: two 16-byte steps and an 11-byte bytewise tail.
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data = b"wavelet dI/dt characterization";
        let mut c = Crc32::new();
        for chunk in data.chunks(7) {
            c.update(chunk);
        }
        assert_eq!(c.finish(), crc32(data));
    }
}
