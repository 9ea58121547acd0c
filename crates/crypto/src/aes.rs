//! AES-128 block cipher (FIPS-197).
//!
//! The forward cipher has two kernels over one key schedule, expanded
//! once into column words when the cipher is built:
//!
//! * **AES-NI.** On an x86-64 CPU that reports the `aes` feature, the
//!   rounds are the processor's `AESENC`/`AESENCLAST` instructions
//!   (`std::arch`, so no dependency), and the blocks of one call run
//!   interleaved so their rounds overlap in the pipeline.
//! * **T-table.** Everywhere else, the word-oriented "T-table"
//!   formulation (Daemen & Rijmen, *The Design of Rijndael*, §4.2): the
//!   state is four 32-bit columns, and SubBytes, ShiftRows and
//!   MixColumns of one round fold into four lookups per column in a
//!   single 256-entry `u32` table plus byte rotations. It is also the
//!   reference the AES-NI kernel is tested against.
//!
//! [`Aes128::new`] picks the kernel once, by runtime feature detection;
//! nothing else chooses it. Both produce the same ciphertext.
//!
//! The secure memory controller only needs the *forward* cipher (pads
//! are generated by encrypting IVs). The inverse cipher is kept in the
//! plain byte-oriented FIPS-197 form as an independent oracle: tests
//! check that it undoes the forward path.
//!
//! This is a simulator: the T-table favours speed and clarity over
//! side-channel resistance (table lookups are not constant-time).

/// The AES S-box.
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// The inverse S-box, derived from [`SBOX`] at compile time.
const INV_SBOX: [u8; 256] = {
    let mut inv = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        inv[SBOX[i] as usize] = i as u8;
        i += 1;
    }
    inv
};

/// Forward round table for state row 0: entry `x` is the MixColumns
/// column `(2·S[x], S[x], S[x], 3·S[x])`, row 0 in the low byte. The
/// tables for rows 1‥3 are this one rotated left by 8, 16 and 24 bits.
const TE: [u32; 256] = {
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let s = SBOX[i];
        let s2 = xtime(s);
        t[i] = u32::from_le_bytes([s2, s, s, s2 ^ s]);
        i += 1;
    }
    t
};

/// Round constants for key expansion.
const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// Multiplication by x in GF(2^8) modulo x^8+x^4+x^3+x+1.
#[inline]
const fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

/// Full GF(2^8) multiplication (only small constants are ever used).
#[inline]
fn gmul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    for _ in 0..8 {
        if b & 1 != 0 {
            p ^= a;
        }
        a = xtime(a);
        b >>= 1;
    }
    p
}

/// Byte `r` of column word `col` (row 0 is the low byte).
#[inline(always)]
fn row(col: u32, r: u32) -> usize {
    (col >> (8 * r)) as u8 as usize
}

/// Loads the four state columns of a block (FIPS-197 column-major byte
/// order, row 0 of each column in the low byte).
#[inline(always)]
fn load_columns(block: &[u8; 16]) -> [u32; 4] {
    core::array::from_fn(|c| {
        u32::from_le_bytes([
            block[4 * c],
            block[4 * c + 1],
            block[4 * c + 2],
            block[4 * c + 3],
        ])
    })
}

/// Whether this CPU runs the AES-NI instructions.
fn has_aes_ni() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("aes")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// An expanded AES-128 key schedule (11 round keys of four column
/// words each) and the kernel that runs it.
///
/// # Example
///
/// ```rust
/// use triad_crypto::aes::Aes128;
///
/// let cipher = Aes128::new(&[0u8; 16]);
/// let ct = cipher.encrypt_block([0u8; 16]);
/// assert_eq!(cipher.decrypt_block(ct), [0u8; 16]);
/// ```
#[derive(Clone)]
pub struct Aes128 {
    round_keys: [[u32; 4]; 11],
    /// True only if [`has_aes_ni`] said so when this cipher was built:
    /// the AES-NI kernel may run only then.
    aes_ni: bool,
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("Aes128").finish_non_exhaustive()
    }
}

impl Aes128 {
    /// Expands a 128-bit key into the round-key schedule and picks the
    /// AES-NI kernel if this CPU has it, the T-table otherwise.
    pub fn new(key: &[u8; 16]) -> Self {
        let mut w = [0u32; 44];
        w[..4].copy_from_slice(&load_columns(key));
        for i in 4..44 {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                // RotWord, SubWord and Rcon on a little-endian word.
                let r = temp.rotate_right(8).to_le_bytes();
                temp = u32::from_le_bytes([
                    SBOX[r[0] as usize] ^ RCON[i / 4 - 1],
                    SBOX[r[1] as usize],
                    SBOX[r[2] as usize],
                    SBOX[r[3] as usize],
                ]);
            }
            w[i] = w[i - 4] ^ temp;
        }
        Aes128 {
            round_keys: core::array::from_fn(|r| {
                [w[4 * r], w[4 * r + 1], w[4 * r + 2], w[4 * r + 3]]
            }),
            aes_ni: has_aes_ni(),
        }
    }

    /// Encrypts one 16-byte block.
    pub fn encrypt_block(&self, block: [u8; 16]) -> [u8; 16] {
        let [out] = self.encrypt_blocks([block]);
        out
    }

    /// Encrypts `N` independent 16-byte blocks (ECB) with the kernel
    /// picked by [`Aes128::new`]. The AES-NI kernel interleaves the
    /// blocks' rounds, so one call of `N` blocks costs less than `N`
    /// calls of one.
    #[allow(unsafe_code)]
    pub fn encrypt_blocks<const N: usize>(&self, blocks: [[u8; 16]; N]) -> [[u8; 16]; N] {
        #[cfg(target_arch = "x86_64")]
        if self.aes_ni {
            // SAFETY: `aes_ni` is private and only `Aes128::new` sets
            // it, from `is_x86_feature_detected!("aes")` on this CPU,
            // so the `aes` feature the kernel is compiled for is there.
            return unsafe { aes_ni::encrypt_blocks(&self.round_keys, blocks) };
        }
        blocks.map(|block| self.ttable_block(block))
    }

    /// Encrypts one block with the T-table rounds.
    fn ttable_block(&self, block: [u8; 16]) -> [u8; 16] {
        let [k0, rounds @ .., k10] = &self.round_keys;
        let mut s = load_columns(&block);
        for c in 0..4 {
            s[c] ^= k0[c];
        }
        // Rounds 1‥9: output column c takes row r from input column
        // c + r (ShiftRows), through the row-r table (SubBytes and
        // MixColumns).
        for rk in rounds {
            s = core::array::from_fn(|c| {
                TE[row(s[c], 0)]
                    ^ TE[row(s[(c + 1) % 4], 1)].rotate_left(8)
                    ^ TE[row(s[(c + 2) % 4], 2)].rotate_left(16)
                    ^ TE[row(s[(c + 3) % 4], 3)].rotate_left(24)
                    ^ rk[c]
            });
        }
        // Final round: SubBytes and ShiftRows only.
        let mut out = [0u8; 16];
        for c in 0..4 {
            let col = u32::from_le_bytes([
                SBOX[row(s[c], 0)],
                SBOX[row(s[(c + 1) % 4], 1)],
                SBOX[row(s[(c + 2) % 4], 2)],
                SBOX[row(s[(c + 3) % 4], 3)],
            ]) ^ k10[c];
            out[4 * c..4 * c + 4].copy_from_slice(&col.to_le_bytes());
        }
        out
    }

    /// Decrypts one 16-byte block (the byte-oriented FIPS-197 inverse
    /// cipher).
    pub fn decrypt_block(&self, mut block: [u8; 16]) -> [u8; 16] {
        self.add_round_key(&mut block, 10);
        for round in (1..10).rev() {
            Self::inv_shift_rows(&mut block);
            Self::inv_sub_bytes(&mut block);
            self.add_round_key(&mut block, round);
            Self::inv_mix_columns(&mut block);
        }
        Self::inv_shift_rows(&mut block);
        Self::inv_sub_bytes(&mut block);
        self.add_round_key(&mut block, 0);
        block
    }

    /// The 16 key bytes of round `round`, in block order.
    fn round_key_bytes(&self, round: usize) -> [u8; 16] {
        let mut bytes = [0u8; 16];
        for (chunk, word) in bytes.chunks_exact_mut(4).zip(self.round_keys[round]) {
            chunk.copy_from_slice(&word.to_le_bytes());
        }
        bytes
    }

    fn add_round_key(&self, state: &mut [u8; 16], round: usize) {
        for (s, k) in state.iter_mut().zip(self.round_key_bytes(round)) {
            *s ^= k;
        }
    }

    fn inv_sub_bytes(state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = INV_SBOX[*b as usize];
        }
    }

    /// State layout: byte `i` holds `s[r][c]` with `r = i % 4`, `c = i / 4`
    /// (FIPS-197 column-major order, matching the input byte order).
    fn inv_shift_rows(state: &mut [u8; 16]) {
        let old = *state;
        for r in 1..4 {
            for c in 0..4 {
                state[r + 4 * ((c + r) % 4)] = old[r + 4 * c];
            }
        }
    }

    fn inv_mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [
                state[4 * c],
                state[4 * c + 1],
                state[4 * c + 2],
                state[4 * c + 3],
            ];
            state[4 * c] = gmul(col[0], 14) ^ gmul(col[1], 11) ^ gmul(col[2], 13) ^ gmul(col[3], 9);
            state[4 * c + 1] =
                gmul(col[0], 9) ^ gmul(col[1], 14) ^ gmul(col[2], 11) ^ gmul(col[3], 13);
            state[4 * c + 2] =
                gmul(col[0], 13) ^ gmul(col[1], 9) ^ gmul(col[2], 14) ^ gmul(col[3], 11);
            state[4 * c + 3] =
                gmul(col[0], 11) ^ gmul(col[1], 13) ^ gmul(col[2], 9) ^ gmul(col[3], 14);
        }
    }
}

#[cfg(test)]
impl Aes128 {
    /// The cipher for `key` with the T-table kernel whatever the CPU
    /// has: the reference the AES-NI kernel is tested against.
    pub(crate) fn ttable_only(key: &[u8; 16]) -> Self {
        Aes128 {
            aes_ni: false,
            ..Aes128::new(key)
        }
    }
}

/// The AES-NI kernel. Its vectors hold block bytes in memory order:
/// byte 0 of a block or round key in the low byte of the low lane.
#[cfg(target_arch = "x86_64")]
mod aes_ni {
    use std::arch::x86_64::{
        __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_cvtsi128_si64, _mm_set_epi64x,
        _mm_unpackhi_epi64, _mm_xor_si128,
    };

    /// Four column words (block bytes in little-endian groups of 4) as
    /// one vector.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn load(words: &[u32; 4]) -> __m128i {
        let lane = |lo: u32, hi: u32| (u64::from(hi) << 32 | u64::from(lo)) as i64;
        _mm_set_epi64x(lane(words[2], words[3]), lane(words[0], words[1]))
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    fn store(v: __m128i) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&_mm_cvtsi128_si64(v).to_le_bytes());
        out[8..].copy_from_slice(&_mm_cvtsi128_si64(_mm_unpackhi_epi64(v, v)).to_le_bytes());
        out
    }

    /// Encrypts `N` blocks, advancing all of them one round at a time.
    #[target_feature(enable = "aes")]
    pub(super) fn encrypt_blocks<const N: usize>(
        round_keys: &[[u32; 4]; 11],
        blocks: [[u8; 16]; N],
    ) -> [[u8; 16]; N] {
        let [k0, rounds @ .., k10] = round_keys;
        let k0 = load(k0);
        let mut state = [k0; N];
        for (s, block) in state.iter_mut().zip(&blocks) {
            *s = _mm_xor_si128(load(&super::load_columns(block)), k0);
        }
        for rk in rounds {
            let rk = load(rk);
            for s in &mut state {
                *s = _mm_aesenc_si128(*s, rk);
            }
        }
        let k10 = load(k10);
        let mut out = blocks;
        for (o, s) in out.iter_mut().zip(state) {
            *o = store(_mm_aesenclast_si128(s, k10));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex16(s: &str) -> [u8; 16] {
        let mut out = [0u8; 16];
        for i in 0..16 {
            out[i] = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap();
        }
        out
    }

    /// The cipher for `key` as `Aes128::new` builds it, then with the
    /// T-table forced.
    fn both_kernels(key: &[u8; 16]) -> [(&'static str, Aes128); 2] {
        [
            ("selected", Aes128::new(key)),
            ("t-table", Aes128::ttable_only(key)),
        ]
    }

    #[test]
    fn fips197_appendix_c_vector() {
        // FIPS-197 Appendix C.1: AES-128.
        let key = hex16("000102030405060708090a0b0c0d0e0f");
        let pt = hex16("00112233445566778899aabbccddeeff");
        let expected = hex16("69c4e0d86a7b0430d8cdb78070b4c55a");
        for (kernel, cipher) in both_kernels(&key) {
            assert_eq!(cipher.encrypt_block(pt), expected, "{kernel}");
            assert_eq!(cipher.decrypt_block(expected), pt, "{kernel}");
        }
    }

    #[test]
    fn new_selects_aes_ni_when_the_cpu_reports_it() {
        // Without this, every vector test could pass on the T-table
        // alone and leave the AES-NI kernel untested.
        let cipher = Aes128::new(&[0; 16]);
        #[cfg(target_arch = "x86_64")]
        assert_eq!(cipher.aes_ni, std::arch::is_x86_feature_detected!("aes"));
        #[cfg(not(target_arch = "x86_64"))]
        assert!(!cipher.aes_ni);
    }

    #[test]
    fn nist_sp800_38a_ecb_vectors() {
        // SP 800-38A F.1.1 ECB-AES128.Encrypt, blocks #1-#4 (and F.1.2,
        // the matching Decrypt).
        let key = hex16("2b7e151628aed2a6abf7158809cf4f3c");
        let blocks = [
            (
                "6bc1bee22e409f96e93d7e117393172a",
                "3ad77bb40d7a3660a89ecaf32466ef97",
            ),
            (
                "ae2d8a571e03ac9c9eb76fac45af8e51",
                "f5d3d58503b9699de785895a96fdbaaf",
            ),
            (
                "30c81c46a35ce411e5fbc1191a0a52ef",
                "43b1cd7f598ece23881b00e3ed030688",
            ),
            (
                "f69f2445df4f9b17ad2b417be66c3710",
                "7b0c785e27e8ad3f8223207104725dd4",
            ),
        ];
        let pts = blocks.map(|(pt, _)| hex16(pt));
        let cts = blocks.map(|(_, ct)| hex16(ct));
        for (kernel, cipher) in both_kernels(&key) {
            for (i, (&pt, &ct)) in pts.iter().zip(&cts).enumerate() {
                assert_eq!(cipher.encrypt_block(pt), ct, "{kernel} block #{}", i + 1);
                assert_eq!(cipher.decrypt_block(ct), pt, "{kernel} block #{}", i + 1);
            }
            assert_eq!(cipher.encrypt_blocks(pts), cts, "{kernel} all four at once");
        }
    }

    #[test]
    fn fips197_key_expansion_first_and_last_words() {
        // FIPS-197 Appendix A.1 key expansion of 2b7e1516...
        let key = hex16("2b7e151628aed2a6abf7158809cf4f3c");
        let cipher = Aes128::new(&key);
        assert_eq!(cipher.round_key_bytes(0), key);
        assert_eq!(
            cipher.round_key_bytes(10),
            hex16("d014f9a8c9ee2589e13f0cc8b6630ca6")
        );
    }

    #[test]
    fn t_table_matches_sbox_and_mix_columns() {
        for x in 0..256 {
            let s = SBOX[x];
            let [b0, b1, b2, b3] = TE[x].to_le_bytes();
            assert_eq!(
                (b0, b1, b2, b3),
                (xtime(s), s, s, xtime(s) ^ s),
                "TE[{x:#04x}]"
            );
        }
    }

    #[test]
    fn round_trip_many_random_blocks() {
        let cipher = Aes128::new(&[0x5A; 16]);
        let mut block = [0u8; 16];
        for i in 0..200u32 {
            block[0] = i as u8;
            block[5] = (i >> 8) as u8;
            let ct = cipher.encrypt_block(block);
            assert_eq!(cipher.decrypt_block(ct), block);
            block = ct; // feed forward for variety
        }
    }

    /// SplitMix64: a seeded stream of test inputs.
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn random_block(state: &mut u64) -> [u8; 16] {
        let lo = u128::from(splitmix64(state));
        (u128::from(splitmix64(state)) << 64 | lo).to_le_bytes()
    }

    #[test]
    fn selected_kernel_matches_t_table_over_random_keys() {
        let mut state = 0x7472_6961_645f_6165;
        for case in 0..10_000 {
            let key = random_block(&mut state);
            let blocks: [[u8; 16]; 4] = core::array::from_fn(|_| random_block(&mut state));
            let (selected, reference) = (Aes128::new(&key), Aes128::ttable_only(&key));
            assert_eq!(
                selected.encrypt_block(blocks[0]),
                reference.encrypt_block(blocks[0]),
                "case {case}: one block"
            );
            assert_eq!(
                selected.encrypt_blocks(blocks),
                reference.encrypt_blocks(blocks),
                "case {case}: four blocks"
            );
        }
    }

    #[test]
    fn gf_multiplication_identities() {
        for a in 0..=255u8 {
            assert_eq!(gmul(a, 1), a);
            assert_eq!(gmul(a, 2), xtime(a));
            assert_eq!(gmul(a, 3), xtime(a) ^ a);
        }
    }

    #[test]
    fn debug_hides_key_material() {
        let repr = format!("{:?}", Aes128::new(&[9; 16]));
        assert!(!repr.contains('9'));
        assert!(repr.contains("Aes128"));
    }
}
