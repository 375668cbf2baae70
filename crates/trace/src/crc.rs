//! CRC-32/ISO-HDLC — the zlib/PNG checksum (`TRACE_FORMAT.md` §0).
//!
//! Reflected polynomial `0xEDB88320`, initial value `0xFFFFFFFF`, final
//! XOR `0xFFFFFFFF`. [`Crc32::update`] runs interleaved slicing-by-8
//! lanes. An input of at least `LANES · LANE_MIN` (256) bytes is cut
//! into `LANES` (4) equal runs of whole 8-byte words, and one loop checksums
//! the runs side by side, one word of each per step. The first lane
//! starts from the running state and the others from zero. The CRC
//! register is linear over GF(2), so the state after `A ‖ B` is the
//! state after `A` times `x^(8·|B|) mod P`, XOR the zero-started state
//! after `B`: the lanes join in order by that shift. The bytes left
//! over go through one slicing-by-8 lane, and the last few through the
//! bytewise table. Every split gives the bytewise value; the lanes
//! only run four dependency chains at once instead of one. Vendoring
//! these few lines keeps the workspace's zero-external-deps rule intact.

/// The reflected CRC-32 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Independent lanes [`Crc32::update`] interleaves.
const LANES: usize = 4;

/// Shortest run, in bytes, worth a lane: below it, joining the lanes
/// costs more than the interleaving saves.
const LANE_MIN: usize = 64;

/// `TABLES[0]` is the classic bytewise table; `TABLES[k][b]` is the CRC
/// contribution of byte `b` followed by `k` zero bytes.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1usize;
    while t < 8 {
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

static TABLES: [[u32; 256]; 8] = build_tables();

/// `a · b mod P` in the reflected representation (bit 31 holds the
/// coefficient of `x^0`).
const fn mul_mod_p(a: u32, mut b: u32) -> u32 {
    let mut product = 0u32;
    let mut i = 0;
    while i < 32 {
        if a & (1 << (31 - i)) != 0 {
            product ^= b;
        }
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
        i += 1;
    }
    product
}

/// `X_POW2[k]` is `x^(2^k) mod P`.
const fn build_x_pow2() -> [u32; 32] {
    let mut table = [0u32; 32];
    let mut p = 1u32 << 30; // x^1
    let mut k = 0;
    while k < 32 {
        table[k] = p;
        p = mul_mod_p(p, p);
        k += 1;
    }
    table
}

static X_POW2: [u32; 32] = build_x_pow2();

/// The register shift over `bytes` zero bytes: `x^(8·bytes) mod P`.
/// The order of `x` divides `2^32 − 1`, so `x^(2^32) = x` and the
/// exponent's bits wrap around the table.
fn x_pow_8n(bytes: usize) -> u32 {
    let mut p = 1u32 << 31; // x^0
    let mut n = bytes;
    let mut k = 3; // 8 = 2^3
    while n != 0 {
        if n & 1 != 0 {
            p = mul_mod_p(X_POW2[k & 31], p);
        }
        n >>= 1;
        k += 1;
    }
    p
}

/// One slicing-by-8 step: fold the eight bytes of `word` into `s`.
#[inline]
fn step8(s: u32, word: &[u8]) -> u32 {
    let t = &TABLES;
    let w = u64::from_le_bytes(word.try_into().expect("eight bytes"));
    let lo = s ^ (w as u32);
    let hi = (w >> 32) as u32;
    t[7][(lo & 0xFF) as usize]
        ^ t[6][((lo >> 8) & 0xFF) as usize]
        ^ t[5][((lo >> 16) & 0xFF) as usize]
        ^ t[4][(lo >> 24) as usize]
        ^ t[3][(hi & 0xFF) as usize]
        ^ t[2][((hi >> 8) & 0xFF) as usize]
        ^ t[1][((hi >> 16) & 0xFF) as usize]
        ^ t[0][(hi >> 24) as usize]
}

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

    /// Absorb `bytes`: four interleaved lanes over the longest
    /// prefix of whole words they split evenly, then one lane over the
    /// remaining words and the bytewise table over the tail.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut s = self.state;
        let run = bytes.len() / (8 * LANES) * 8;
        let rest = if run >= LANE_MIN {
            let (runs, rest) = bytes.split_at(LANES * run);
            let (a, b) = runs.split_at(2 * run);
            let (r0, r1) = a.split_at(run);
            let (r2, r3) = b.split_at(run);
            let mut lanes = [s, 0, 0, 0];
            for (((w0, w1), w2), w3) in r0
                .chunks_exact(8)
                .zip(r1.chunks_exact(8))
                .zip(r2.chunks_exact(8))
                .zip(r3.chunks_exact(8))
            {
                lanes[0] = step8(lanes[0], w0);
                lanes[1] = step8(lanes[1], w1);
                lanes[2] = step8(lanes[2], w2);
                lanes[3] = step8(lanes[3], w3);
            }
            let shift = x_pow_8n(run);
            s = lanes[0];
            for &lane in &lanes[1..] {
                s = mul_mod_p(shift, s) ^ lane;
            }
            rest
        } else {
            bytes
        };
        let mut words = rest.chunks_exact(8);
        for w in &mut words {
            s = step8(s, w);
        }
        for &b in words.remainder() {
            s = TABLES[0][((s ^ u32::from(b)) & 0xFF) as usize] ^ (s >> 8);
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

    /// The textbook one-byte-at-a-time CRC over the bytewise table.
    fn bytewise(bytes: &[u8]) -> u32 {
        let mut s = 0xFFFF_FFFFu32;
        for &b in bytes {
            s = TABLES[0][((s ^ u32::from(b)) & 0xFF) as usize] ^ (s >> 8);
        }
        s ^ 0xFFFF_FFFF
    }

    /// Deterministic pseudo-random bytes.
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn known_check_value() {
        // The CRC-32/ISO-HDLC check value from the Rocksoft catalogue.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn known_value_through_the_eight_byte_step() {
        // 43 bytes: five 8-byte steps and a 3-byte bytewise tail.
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

    #[test]
    fn lane_crc_equals_the_bytewise_table_at_every_length_and_split() {
        let data = noise(1024);
        for len in 0..=data.len() {
            let bytes = &data[..len];
            let want = bytewise(bytes);
            assert_eq!(crc32(bytes), want, "length {len}");
            // Two pieces at a few cut points, and three uneven pieces,
            // so lanes start from a state other than the initial one.
            for cut in [0, 1, len / 3, len / 2, len.saturating_sub(9), len] {
                let cut = cut.min(len);
                let mut c = Crc32::new();
                c.update(&bytes[..cut]);
                c.update(&bytes[cut..]);
                assert_eq!(c.finish(), want, "length {len} cut at {cut}");
            }
            let mut c = Crc32::new();
            for piece in bytes.chunks(301) {
                c.update(piece);
            }
            assert_eq!(c.finish(), want, "length {len} in 301-byte pieces");
        }
    }

    #[test]
    fn lanes_join_on_a_chunk_sized_input() {
        // A data-chunk-sized payload whose length leaves every tail
        // kind: a partial lane word and a bytewise remainder.
        let data = noise(240_007);
        assert_eq!(crc32(&data), bytewise(&data));
    }

    #[test]
    fn shift_by_zero_bytes_is_the_identity() {
        assert_eq!(x_pow_8n(0), 1 << 31);
        for s in [0u32, 1, 0xDEAD_BEEF, u32::MAX] {
            assert_eq!(mul_mod_p(x_pow_8n(0), s), s);
        }
    }
}
