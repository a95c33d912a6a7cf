//! Crypt — IDEA encryption (JGF benchmark suite).
//!
//! Encrypts a pseudorandom plaintext with the IDEA block cipher, decrypts
//! the ciphertext, and validates the round trip. The cipher is implemented
//! in full: 128-bit key → 52 16-bit encryption subkeys, the inverse
//! (decryption) schedule via multiplicative inverses modulo 65537, and the
//! 8.5-round block function.
//!
//! Parallel structure (as in the HJ port the paper measures): **one task
//! per 8-byte block per pass** — `2 × ⌈bytes/8⌉` dynamic tasks (encrypt +
//! decrypt), zero non-tree joins. Each task reads its 8 plaintext bytes
//! and the 52 subkeys from shared memory and writes 8 output bytes
//! (~92 shared accesses per 8-byte block), reproducing Table 2's
//! "≈ 100× less work per task than the other benchmarks" property that
//! makes Crypt the worst-slowdown async-finish row.

use futrace_runtime::memory::SharedArray;
use futrace_runtime::TaskCtx;

/// Problem size for the Crypt benchmark.
#[derive(Clone, Copy, Debug)]
pub struct CryptParams {
    /// Plaintext size in bytes (JGF Size C = 50,000,000).
    pub bytes: usize,
    /// RNG seed for plaintext and key generation.
    pub seed: u64,
}

impl CryptParams {
    /// The paper's configuration (JGF Size C).
    pub fn paper() -> Self {
        CryptParams {
            bytes: 50_000_000,
            seed: 0x1dea,
        }
    }

    /// Laptop-scale configuration.
    pub fn scaled() -> Self {
        CryptParams {
            bytes: 200_000,
            seed: 0x1dea,
        }
    }

    /// Minimal configuration for unit tests.
    pub fn tiny() -> Self {
        CryptParams {
            bytes: 256,
            seed: 0x1dea,
        }
    }

    /// Number of 8-byte blocks per pass.
    pub(crate) fn blocks(&self) -> usize {
        self.bytes.div_ceil(8)
    }
}

// --- The IDEA cipher (substrate) -------------------------------------------

/// Multiplication modulo 65537 with the IDEA convention 0 ≡ 65536.
fn mul(a: u16, b: u16) -> u16 {
    let a = a as u32;
    let b = b as u32;
    if a == 0 {
        // 65536 * b ≡ -b ≡ 65537 - b (mod 65537); map back to u16.
        (65537 - b) as u16
    } else if b == 0 {
        (65537 - a) as u16
    } else {
        let p = a * b % 65537;
        p as u16 // p == 65536 is impossible: a,b < 65537 and nonzero
    }
}

/// Multiplicative inverse modulo 65537 (extended Euclid), with 0 ≡ 65536.
fn inv(x: u16) -> u16 {
    if x <= 1 {
        return x; // 0 and 1 are self-inverse under the IDEA convention
    }
    let modulus: i64 = 65537;
    let (mut t, mut new_t): (i64, i64) = (0, 1);
    let (mut r, mut new_r): (i64, i64) = (modulus, x as i64);
    while new_r != 0 {
        let q = r / new_r;
        (t, new_t) = (new_t, t - q * new_t);
        (r, new_r) = (new_r, r - q * new_r);
    }
    debug_assert_eq!(r, 1, "65537 is prime");
    (t.rem_euclid(modulus)) as u16
}

/// Expands a 128-bit user key into the 52 encryption subkeys.
pub(crate) fn encryption_schedule(user_key: &[u16; 8]) -> [u16; 52] {
    let mut z = [0u16; 52];
    z[..8].copy_from_slice(user_key);
    // Each successive batch of 8 subkeys is the 128-bit key rotated left
    // by 25 more bits.
    for i in 8..52 {
        let prev_batch = i / 8 - 1;
        let j = i % 8;
        // key words of this batch come from rotating the previous batch.
        let a = z[prev_batch * 8 + (j + 1) % 8];
        let b = z[prev_batch * 8 + (j + 2) % 8];
        z[i] = (a << 9) | (b >> 7);
    }
    z
}

/// Derives the 52 decryption subkeys from the encryption schedule.
pub(crate) fn decryption_schedule(z: &[u16; 52]) -> [u16; 52] {
    let mut dk = [0u16; 52];
    // Output transform keys become round-1 keys, inverted.
    dk[0] = inv(z[48]);
    dk[1] = z[49].wrapping_neg();
    dk[2] = z[50].wrapping_neg();
    dk[3] = inv(z[51]);
    dk[4] = z[46];
    dk[5] = z[47];
    let mut di = 6;
    for round in 1..8 {
        let zi = 48 - round * 6;
        dk[di] = inv(z[zi]);
        dk[di + 1] = z[zi + 2].wrapping_neg();
        dk[di + 2] = z[zi + 1].wrapping_neg();
        dk[di + 3] = inv(z[zi + 3]);
        dk[di + 4] = z[zi - 2];
        dk[di + 5] = z[zi - 1];
        di += 6;
    }
    dk[di] = inv(z[0]);
    dk[di + 1] = z[1].wrapping_neg();
    dk[di + 2] = z[2].wrapping_neg();
    dk[di + 3] = inv(z[3]);
    dk
}

/// Encrypts/decrypts one 8-byte block with the given schedule.
pub(crate) fn idea_block(input: [u8; 8], key: &[u16; 52]) -> [u8; 8] {
    let mut x1 = u16::from_be_bytes([input[0], input[1]]);
    let mut x2 = u16::from_be_bytes([input[2], input[3]]);
    let mut x3 = u16::from_be_bytes([input[4], input[5]]);
    let mut x4 = u16::from_be_bytes([input[6], input[7]]);
    let mut k = 0;
    for _ in 0..8 {
        x1 = mul(x1, key[k]);
        x2 = x2.wrapping_add(key[k + 1]);
        x3 = x3.wrapping_add(key[k + 2]);
        x4 = mul(x4, key[k + 3]);
        let t1 = x1 ^ x3;
        let t2 = x2 ^ x4;
        let t1 = mul(t1, key[k + 4]);
        let t2 = t2.wrapping_add(t1);
        let t2 = mul(t2, key[k + 5]);
        let t1 = t1.wrapping_add(t2);
        x1 ^= t2;
        x4 ^= t1;
        let tmp = x2 ^ t1;
        x2 = x3 ^ t2;
        x3 = tmp;
        k += 6;
    }
    let y1 = mul(x1, key[48]);
    let y2 = x3.wrapping_add(key[49]);
    let y3 = x2.wrapping_add(key[50]);
    let y4 = mul(x4, key[51]);
    let mut out = [0u8; 8];
    out[0..2].copy_from_slice(&y1.to_be_bytes());
    out[2..4].copy_from_slice(&y2.to_be_bytes());
    out[4..6].copy_from_slice(&y3.to_be_bytes());
    out[6..8].copy_from_slice(&y4.to_be_bytes());
    out
}

/// Deterministic key + plaintext for a parameter set.
pub(crate) fn workload(p: &CryptParams) -> ([u16; 8], Vec<u8>) {
    let mut plain = vec![0u8; p.blocks() * 8];
    futrace_util::rng::fill_bytes(p.seed, &mut plain);
    let mut key_bytes = [0u8; 16];
    futrace_util::rng::fill_bytes(p.seed ^ KEY_SEED_SALT, &mut key_bytes);
    let mut key = [0u16; 8];
    for (i, w) in key.iter_mut().enumerate() {
        *w = u16::from_be_bytes([key_bytes[2 * i], key_bytes[2 * i + 1]]);
    }
    (key, plain)
}

/// Salt separating the key stream from the plaintext stream.
const KEY_SEED_SALT: u64 = 0x5eed;

/// Reference (serial-elision) implementation: encrypt then decrypt,
/// returning `(ciphertext, roundtrip)`.
pub fn crypt_seq(p: &CryptParams) -> (Vec<u8>, Vec<u8>) {
    let (key, plain) = workload(p);
    let z = encryption_schedule(&key);
    let dk = decryption_schedule(&z);
    let mut cipher = vec![0u8; plain.len()];
    for (i, block) in plain.chunks_exact(8).enumerate() {
        let out = idea_block(block.try_into().unwrap(), &z);
        cipher[i * 8..i * 8 + 8].copy_from_slice(&out);
    }
    let mut round = vec![0u8; plain.len()];
    for (i, block) in cipher.chunks_exact(8).enumerate() {
        let out = idea_block(block.try_into().unwrap(), &dk);
        round[i * 8..i * 8 + 8].copy_from_slice(&out);
    }
    (cipher, round)
}

/// Output arrays of a DSL run.
pub struct CryptOut {
    /// Ciphertext bytes.
    pub cipher: SharedArray<u8>,
    /// Round-tripped plaintext bytes.
    pub round: SharedArray<u8>,
}

/// Which parallel construct to use for the per-block tasks.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CryptVariant {
    /// Crypt-af: `finish { async per block }` per pass.
    AsyncFinish,
    /// Crypt-future: a future per block, joined by the main task, with the
    /// handle-table traffic the paper measures.
    Future,
}

/// One cipher pass (encrypt or decrypt) over `src` into `dst` using the
/// shared `keys` array, one task per 8-byte block.
fn pass<C: TaskCtx>(
    ctx: &mut C,
    variant: CryptVariant,
    src: &SharedArray<u8>,
    dst: &SharedArray<u8>,
    keys: &SharedArray<u16>,
    handle_table: &SharedArray<u32>,
) {
    let blocks = src.len() / 8;
    // The spawning task reads the 52 subkeys while constructing each block
    // task (the HJ translation captures the schedule in the task object):
    // 52 reads per task attributed to the spawner, whose reader entry in
    // the key cells' shadow state is simply replaced on each read — the
    // reader sets never grow with the task count.
    let read_key = |ctx: &mut C, keys: &SharedArray<u16>| {
        let mut key = [0u16; 52];
        for (j, k) in key.iter_mut().enumerate() {
            *k = keys.read(ctx, j);
        }
        key
    };
    let body = |src: SharedArray<u8>, dst: SharedArray<u8>, key: [u16; 52], b: usize| {
        move |ctx: &mut C| {
            let mut input = [0u8; 8];
            for (j, v) in input.iter_mut().enumerate() {
                *v = src.read(ctx, b * 8 + j);
            }
            let out = idea_block(input, &key);
            for (j, v) in out.iter().enumerate() {
                dst.write(ctx, b * 8 + j, *v);
            }
        }
    };
    match variant {
        CryptVariant::AsyncFinish => {
            ctx.finish(|ctx| {
                for b in 0..blocks {
                    let key = read_key(ctx, keys);
                    ctx.async_task(body(src.clone(), dst.clone(), key, b));
                }
            });
        }
        CryptVariant::Future => {
            let mut handles = Vec::with_capacity(blocks);
            for b in 0..blocks {
                let key = read_key(ctx, keys);
                let h = ctx.future(body(src.clone(), dst.clone(), key, b));
                handle_table.write(ctx, b, b as u32);
                handles.push(h);
            }
            for (b, h) in handles.iter().enumerate() {
                let _ = handle_table.read(ctx, b);
                ctx.get(h);
            }
        }
    }
}

/// The full benchmark under the DSL: encrypt pass then decrypt pass.
pub fn crypt_run<C: TaskCtx>(ctx: &mut C, p: &CryptParams, variant: CryptVariant) -> CryptOut {
    let (key, plain_bytes) = workload(p);
    let z = encryption_schedule(&key);
    let dk = decryption_schedule(&z);

    let plain = ctx.shared_array(plain_bytes.len(), 0u8, "crypt.plain");
    for (i, &v) in plain_bytes.iter().enumerate() {
        plain.poke(i, v); // input seeding, not part of the program
    }
    let cipher = ctx.shared_array(plain_bytes.len(), 0u8, "crypt.cipher");
    let round = ctx.shared_array(plain_bytes.len(), 0u8, "crypt.round");
    let zs = ctx.shared_array(52, 0u16, "crypt.z");
    let dks = ctx.shared_array(52, 0u16, "crypt.dk");
    for i in 0..52 {
        zs.poke(i, z[i]);
        dks.poke(i, dk[i]);
    }
    let handle_table = ctx.shared_array(p.blocks().max(1), 0u32, "crypt.handles");

    pass(ctx, variant, &plain, &cipher, &zs, &handle_table);
    pass(ctx, variant, &cipher, &round, &dks, &handle_table);
    CryptOut { cipher, round }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::detect_races_with_stats;
    use futrace_runtime::{run_parallel, run_serial, NullMonitor};

    /// Expected dynamic task count: `2 × blocks`.
    fn expected_tasks(p: &CryptParams) -> u64 {
        2 * p.blocks() as u64
    }

    #[test]
    fn mul_convention() {
        assert_eq!(mul(0, 1), 65536u32 as u16); // 65537 - 1 = 65536 -> 0
        assert_eq!(mul(1, 1), 1);
        assert_eq!(mul(2, 3), 6);
        // 0 represents 65536 ≡ -1: (-1) * (-1) = 1.
        assert_eq!(mul(0, 0), 1);
    }

    #[test]
    fn inverse_is_inverse() {
        for x in [1u16, 2, 3, 5, 1000, 65535] {
            assert_eq!(mul(x, inv(x)), 1, "x = {x}");
        }
        assert_eq!(inv(0), 0, "0 (≡65536 ≡ -1) is self-inverse");
        assert_eq!(mul(0, inv(0)), 1);
    }

    #[test]
    fn block_roundtrip() {
        let key: [u16; 8] = [1, 2, 3, 4, 5, 6, 7, 8];
        let z = encryption_schedule(&key);
        let dk = decryption_schedule(&z);
        let plain = [10u8, 20, 30, 40, 50, 60, 70, 80];
        let cipher = idea_block(plain, &z);
        assert_ne!(cipher, plain);
        let round = idea_block(cipher, &dk);
        assert_eq!(round, plain, "decrypt(encrypt(x)) == x");
    }

    #[test]
    fn roundtrip_many_random_blocks() {
        let (key, plain) = workload(&CryptParams::tiny());
        let z = encryption_schedule(&key);
        let dk = decryption_schedule(&z);
        for block in plain.chunks_exact(8) {
            let b: [u8; 8] = block.try_into().unwrap();
            assert_eq!(idea_block(idea_block(b, &z), &dk), b);
        }
    }

    #[test]
    fn reference_roundtrips() {
        let p = CryptParams::tiny();
        let (_, plain) = workload(&p);
        let (cipher, round) = crypt_seq(&p);
        assert_ne!(cipher, plain);
        assert_eq!(round, plain);
    }

    #[test]
    fn af_variant_matches_reference_and_is_race_free() {
        let p = CryptParams::tiny();
        let (ref_cipher, ref_round) = crypt_seq(&p);
        let (rep, stats) = detect_races_with_stats(|ctx| {
            let out = crypt_run(ctx, &p, CryptVariant::AsyncFinish);
            assert_eq!(out.cipher.snapshot(), ref_cipher);
            assert_eq!(out.round.snapshot(), ref_round);
        });
        assert!(!rep.has_races());
        assert_eq!(stats.tasks, expected_tasks(&p));
        assert_eq!(stats.nt_joins(), 0);
        // 52 key reads + 8 input reads + 8 output writes per task.
        assert_eq!(stats.shared_mem(), 68 * expected_tasks(&p));
    }

    #[test]
    fn future_variant_matches_reference_and_adds_handle_traffic() {
        let p = CryptParams::tiny();
        let (ref_cipher, ref_round) = crypt_seq(&p);
        let (rep, stats) = detect_races_with_stats(|ctx| {
            let out = crypt_run(ctx, &p, CryptVariant::Future);
            assert_eq!(out.cipher.snapshot(), ref_cipher);
            assert_eq!(out.round.snapshot(), ref_round);
        });
        assert!(!rep.has_races());
        assert_eq!(stats.tasks, expected_tasks(&p));
        assert_eq!(stats.nt_joins(), 0, "main's gets are tree joins");
        assert_eq!(stats.shared_mem(), (68 + 2) * expected_tasks(&p));
    }

    #[test]
    fn parallel_execution_roundtrips() {
        let p = CryptParams::tiny();
        let (_, plain) = workload(&p);
        let round = run_parallel(4, |ctx| {
            let out = crypt_run(ctx, &p, CryptVariant::Future);
            out.round.snapshot()
        })
        .unwrap();
        assert_eq!(round, plain);
    }

    #[test]
    fn serial_dsl_equals_reference_under_null_monitor() {
        let p = CryptParams::tiny();
        let (ref_cipher, _) = crypt_seq(&p);
        let mut mon = NullMonitor;
        let cipher = run_serial(&mut mon, |ctx| {
            crypt_run(ctx, &p, CryptVariant::AsyncFinish).cipher.snapshot()
        });
        assert_eq!(cipher, ref_cipher);
    }
}

#[cfg(test)]
mod published_vector {
    use super::*;

    /// The classic IDEA reference vector (Lai & Massey):
    /// key = (1,2,3,4,5,6,7,8) as 16-bit words,
    /// plaintext = (0,1,2,3) → ciphertext = (0x11FB, 0xED2B, 0x0198, 0x6DE5).
    #[test]
    fn lai_massey_test_vector() {
        let key: [u16; 8] = [1, 2, 3, 4, 5, 6, 7, 8];
        let z = encryption_schedule(&key);
        let plain: [u8; 8] = [0, 0, 0, 1, 0, 2, 0, 3];
        let cipher = idea_block(plain, &z);
        assert_eq!(
            cipher,
            [0x11, 0xFB, 0xED, 0x2B, 0x01, 0x98, 0x6D, 0xE5],
            "got {cipher:02X?}"
        );
        // And the inverse schedule round-trips it.
        let dk = decryption_schedule(&z);
        assert_eq!(idea_block(cipher, &dk), plain);
    }
}
