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
//!
//! `crc32_combine` derives the CRC of a concatenation from the CRCs of
//! its two parts and the second part's length, in O(log n) steps and
//! without reading the bytes (zlib's method: appending `n` bytes to a
//! message multiplies its CRC register by `x^(8n)` modulo the
//! polynomial). The daemon client uses it to checksum a wire frame whose
//! bulk is a trace chunk's payload from the chunk's stored CRC, which it
//! has just verified, instead of a second pass over the payload.

/// Bytes folded per step of the sliced loop.
const SLICE: usize = 16;

/// The reflected CRC-32 polynomial.
const POLY: u32 = 0xEDB8_8320;

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
                (crc >> 1) ^ POLY
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

/// `a * b` modulo the polynomial, both in the CRC's reflected bit order
/// (the top bit is `x^0`).
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut m = 1 << 31;
    while m != 0 {
        if a & m != 0 {
            product ^= b;
        }
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
        m >>= 1;
    }
    product
}

/// `X2N[k]` is `x^(2^k)` modulo the polynomial. The powers repeat with
/// period 32 (`x^(2^32) = x`), so 32 entries serve every length.
const fn make_x2n() -> [u32; 32] {
    let mut table = [0u32; 32];
    let mut p = 1 << 30; // x^1
    let mut k = 0;
    while k < 32 {
        table[k] = p;
        p = multmodp(p, p);
        k += 1;
    }
    table
}

static X2N: [u32; 32] = make_x2n();

/// CRC-32 of `a ++ b` from `crc_a = crc32(a)`, `crc_b = crc32(b)` and
/// `len_b = b.len()`, in O(log len_b) steps and without the bytes: the
/// register after `a` is carried over `len_b` zero bytes (a product with
/// `x^(8 len_b)`, built from `X2N`), and `b`'s own CRC is added.
pub(crate) fn crc32_combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    let mut shift = 1 << 31; // x^0
    let (mut n, mut k) = (len_b, 3); // 8 * len_b bits: start at x^(2^3)
    while n != 0 {
        if n & 1 != 0 {
            shift = multmodp(X2N[k & 31], shift);
        }
        n >>= 1;
        k += 1;
    }
    multmodp(shift, crc_a) ^ crc_b
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

    #[test]
    fn powers_of_x_repeat_with_period_32() {
        assert_eq!(multmodp(X2N[31], X2N[31]), X2N[0]);
    }

    #[test]
    fn combine_matches_the_concatenation_at_every_split() {
        // 300 bytes: every split point, empty sides included, against the
        // bytewise reference over the whole.
        let mut rng = Rng::seeded(0xC0B1);
        let data = bytes(&mut rng, 300);
        let want = reference_crc32(&data);
        for split in 0..=data.len() {
            let (a, b) = data.split_at(split);
            let combined = crc32_combine(crc32(a), crc32(b), b.len() as u64);
            assert_eq!(combined, want, "split at {split}");
        }
    }

    #[test]
    fn combine_of_the_check_vector_and_long_payloads() {
        for split in 0..=9 {
            let (a, b) = b"123456789".split_at(split);
            let combined = crc32_combine(crc32(a), crc32(b), b.len() as u64);
            assert_eq!(combined, 0xCBF4_3926, "split at {split}");
        }
        // Second parts above 64 KiB, as a default-sized chunk's payload
        // is, behind a short frame head and behind an empty one.
        let mut rng = Rng::seeded(0xB16);
        for len in [65_536, 65_537, 200_003] {
            let data = bytes(&mut rng, len + 7);
            let want = reference_crc32(&data);
            let (head, payload) = data.split_at(7);
            let combined = crc32_combine(crc32(head), crc32(payload), len as u64);
            assert_eq!(combined, want, "len {len}");
            assert_eq!(crc32_combine(crc32(&[]), want, data.len() as u64), want);
        }
    }

    #[test]
    fn combine_matches_at_random_splits_and_lengths() {
        let mut rng = Rng::seeded(0xC0_4B);
        let data = bytes(&mut rng, 4096);
        for _ in 0..500 {
            let at = rng.gen_range(0..data.len());
            let len = rng.gen_range(0..data.len() - at + 1);
            let piece = &data[at..at + len];
            let split = rng.gen_range(0..len + 1);
            let (a, b) = piece.split_at(split);
            assert_eq!(
                crc32_combine(crc32(a), crc32(b), b.len() as u64),
                reference_crc32(piece),
                "at {at} len {len} split {split}"
            );
        }
    }
}
