//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`), std-only.
//!
//! The framed trace format checksums every chunk payload so bit rot,
//! short writes, and truncated transfers are detected per chunk rather
//! than corrupting the decode of everything after them, and the wire
//! protocol ([`crate::wire::proto`]) frames every message the same way so
//! a damaged client stream degrades into a structured error instead of a
//! misparse. CRC-32 is the right strength here: the threat model is
//! accidental corruption, not an adversary.
//!
//! Every trace byte is checksummed once per pass over it (recording,
//! replay, and both ends of every wire frame), so the kernel's per-byte
//! cost is paid several times over a trace. The
//! classic one-table loop carries a dependency from each byte's lookup to
//! the next, and over the 66 MB of the four loop kernels' traces it ran
//! at 3.1 ns/B on a 2-vCPU Intel Xeon VM. This kernel slices by 16:
//! sixteen 256-entry tables let one step fold 16 input bytes with 16
//! independent lookups, and it runs at 0.6 ns/B on the same VM and
//! input. SSE4.2's CRC instruction computes CRC-32C, a different
//! polynomial, so it cannot reproduce the stored checksums. Folding with
//! carry-less multiplication would be faster still, but it needs
//! `unsafe` intrinsics, which this crate forbids, and runtime CPU-feature
//! detection with a fallback. The sliced kernel is safe, portable code
//! with one path on every target.

/// Bytes folded per step of the sliced loop.
const SLICE: usize = 16;

/// `TABLES[0]` is the classic bytewise table. `TABLES[k][b]` is the CRC
/// contribution of byte `b` followed by `k` zero bytes, so the 16 bytes
/// of one block are looked up independently and XORed together.
const fn make_tables() -> [[u32; 256]; SLICE] {
    let mut tables = [[0u32; 256]; SLICE];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < SLICE {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; SLICE] = make_tables();

/// CRC-32 of `data` in one shot.
pub fn crc32(data: &[u8]) -> u32 {
    let mut h = Hasher::new();
    h.update(data);
    h.finalize()
}

/// Incremental CRC-32 state, for checksumming data that arrives in pieces
/// (a streaming writer's chunk buffer, a reader validating as it copies).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Hasher {
    state: u32,
}

impl Default for Hasher {
    fn default() -> Self {
        Self::new()
    }
}

impl Hasher {
    /// Fresh state.
    pub(crate) fn new() -> Self {
        Hasher { state: !0 }
    }

    /// Feeds `data` into the checksum.
    pub(crate) fn update(&mut self, data: &[u8]) {
        let t = &TABLES;
        let mut crc = self.state;
        let mut blocks = data.chunks_exact(SLICE);
        for block in &mut blocks {
            let word = |at: usize| {
                u32::from_le_bytes([block[at], block[at + 1], block[at + 2], block[at + 3]])
            };
            let (a, b, c, d) = (word(0) ^ crc, word(4), word(8), word(12));
            crc = t[15][(a & 0xff) as usize]
                ^ t[14][((a >> 8) & 0xff) as usize]
                ^ t[13][((a >> 16) & 0xff) as usize]
                ^ t[12][(a >> 24) as usize]
                ^ t[11][(b & 0xff) as usize]
                ^ t[10][((b >> 8) & 0xff) as usize]
                ^ t[9][((b >> 16) & 0xff) as usize]
                ^ t[8][(b >> 24) as usize]
                ^ t[7][(c & 0xff) as usize]
                ^ t[6][((c >> 8) & 0xff) as usize]
                ^ t[5][((c >> 16) & 0xff) as usize]
                ^ t[4][(c >> 24) as usize]
                ^ t[3][(d & 0xff) as usize]
                ^ t[2][((d >> 8) & 0xff) as usize]
                ^ t[1][((d >> 16) & 0xff) as usize]
                ^ t[0][(d >> 24) as usize];
        }
        for &byte in blocks.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xff) as usize];
        }
        self.state = crc;
    }

    /// The checksum of everything fed so far.
    pub(crate) fn finalize(self) -> u32 {
        !self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// The bytewise one-table kernel the sliced loop replaced, with its
    /// table built here from the polynomial rather than taken from
    /// `TABLES`: the reference every equivalence test checks against.
    fn reference(mut crc: u32, data: &[u8]) -> u32 {
        let table: [u32; 256] = std::array::from_fn(|i| {
            (0..8).fold(i as u32, |c, _| {
                if c & 1 != 0 {
                    (c >> 1) ^ 0xEDB8_8320
                } else {
                    c >> 1
                }
            })
        });
        for &b in data {
            crc = (crc >> 8) ^ table[((crc ^ u32::from(b)) & 0xff) as usize];
        }
        crc
    }

    fn reference_crc32(data: &[u8]) -> u32 {
        !reference(!0, data)
    }

    fn bytes(rng: &mut Rng, n: usize) -> Vec<u8> {
        let mut data = vec![0u8; n];
        rng.fill(&mut data);
        data
    }

    #[test]
    fn known_vectors() {
        // Standard CRC-32 check values (same ones zlib documents).
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let mut h = Hasher::new();
        for piece in data.chunks(7) {
            h.update(piece);
        }
        assert_eq!(h.finalize(), crc32(&data));
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"framed trace chunk payload".to_vec();
        let good = crc32(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut bad = data.clone();
                bad[i] ^= 1 << bit;
                assert_ne!(crc32(&bad), good, "flip at byte {i} bit {bit}");
            }
        }
    }

    #[test]
    fn higher_tables_extend_the_bytewise_table_by_zero_bytes() {
        for (k, table) in TABLES.iter().enumerate() {
            for (b, &entry) in table.iter().enumerate() {
                let mut block = vec![0u8; k + 1];
                block[0] = b as u8;
                assert_eq!(entry, reference(0, &block), "table {k} byte {b}");
            }
        }
    }

    #[test]
    fn sliced_kernel_matches_bytewise_at_every_short_length() {
        let mut rng = Rng::seeded(0xC3C3);
        let data = bytes(&mut rng, 64);
        for len in 0..=64 {
            assert_eq!(
                crc32(&data[..len]),
                reference_crc32(&data[..len]),
                "len {len}"
            );
        }
    }

    #[test]
    fn sliced_kernel_matches_bytewise_at_random_offsets_and_lengths() {
        let mut rng = Rng::seeded(0x5_11CE);
        let data = bytes(&mut rng, 4096);
        for _ in 0..500 {
            let at = rng.gen_range(0..data.len());
            let len = rng.gen_range(0..data.len() - at + 1);
            let piece = &data[at..at + len];
            assert_eq!(crc32(piece), reference_crc32(piece), "at {at} len {len}");
        }
    }

    #[test]
    fn update_split_at_every_position_matches_bytewise() {
        // 40 bytes: splits fall before, inside and after a 16-byte block,
        // and each side of a split has its own block and remainder.
        let mut rng = Rng::seeded(0x40);
        let data = bytes(&mut rng, 40);
        let want = reference_crc32(&data);
        for split in 0..=data.len() {
            let mut h = Hasher::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), want, "split at {split}");
        }
    }
}
