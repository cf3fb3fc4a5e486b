//! CRC-32 (IEEE 802.3, reflected, init/final 0xFFFFFFFF) — the same
//! polynomial gzip and Ethernet use, computed slice-by-8: eight bytes
//! per step through eight 256-entry tables (8 KB, built at compile time
//! from the polynomial), then a byte-at-a-time table tail.
//!
//! Every byte a reducer reads and every record the results log appends
//! or replays passes through here, so the checksum has to cost about
//! what touching the bytes costs. Computed a bit at a time (~177 MB/s)
//! it measured as half of a `shard_reduce` pass — 49.6 ms of 101 ms —
//! and half of every log append; the tables run at 1.3–1.9 GB/s on the
//! same machine. Safe Rust and no CPU-feature detection, hence one
//! path; the bit-at-a-time definition is kept as the reference the
//! tests compare against.

/// The reflected IEEE 802.3 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0][b]` is the CRC of the single byte `b`; `TABLES[k][b]` is
/// that byte's CRC after `k` further zero bytes.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
}

/// Streaming CRC-32 digest.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Start a fresh checksum.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feed bytes. Any split of the input over calls gives the same
    /// digest.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut crc = self.state;
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
            let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in chunks.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// Finish and return the digest.
    pub fn finish(&self) -> u32 {
        !self.state
    }

    /// One-shot convenience.
    pub fn checksum(bytes: &[u8]) -> u32 {
        let mut crc = Crc32::new();
        crc.update(bytes);
        crc.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition, one shift/xor step per bit: what the tables are
    /// held to.
    fn bitwise(bytes: &[u8]) -> u32 {
        let mut state = 0xFFFF_FFFFu32;
        for &b in bytes {
            state ^= u32::from(b);
            for _ in 0..8 {
                let mask = (state & 1).wrapping_neg();
                state = (state >> 1) ^ (POLY & mask);
            }
        }
        !state
    }

    /// Deterministic filler (xorshift64*), so a failure names a length
    /// and an offset that reproduce.
    fn pseudo_random(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical IEEE check value.
        assert_eq!(Crc32::checksum(b"123456789"), 0xCBF4_3926);
        assert_eq!(Crc32::checksum(b""), 0);
        assert_eq!(
            Crc32::checksum(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(Crc32::checksum(&[0x00; 32]), 0x190A_55AD);
        assert_eq!(Crc32::checksum(&[0xFF; 32]), 0xFF6C_AB0B);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let mut crc = Crc32::new();
        crc.update(b"1234");
        crc.update(b"56789");
        assert_eq!(crc.finish(), Crc32::checksum(b"123456789"));
    }

    #[test]
    fn tables_match_the_bitwise_definition_at_every_length_and_offset() {
        let buf = pseudo_random(300 + 16);
        for start in 0..16 {
            for len in 0..=300 {
                let slice = &buf[start..start + len];
                assert_eq!(
                    Crc32::checksum(slice),
                    bitwise(slice),
                    "start={start} len={len}"
                );
            }
        }
    }

    #[test]
    fn any_split_of_update_gives_the_one_shot_digest() {
        let buf = pseudo_random(67);
        let want = bitwise(&buf);
        for i in 0..=buf.len() {
            let mut crc = Crc32::new();
            crc.update(&buf[..i]);
            crc.update(&buf[i..]);
            assert_eq!(crc.finish(), want, "split at {i}");
            // Three-way: every seventh second cut after the first.
            for j in (i..=buf.len()).step_by(7) {
                let mut crc = Crc32::new();
                crc.update(&buf[..i]);
                crc.update(&buf[i..j]);
                crc.update(&buf[j..]);
                assert_eq!(crc.finish(), want, "splits at {i}, {j}");
            }
        }
    }

    #[test]
    fn a_multi_megabyte_buffer_matches_the_bitwise_definition() {
        let buf = pseudo_random(3 * 1024 * 1024 + 5);
        assert_eq!(Crc32::checksum(&buf), bitwise(&buf));
    }
}
