//! Counter-mode encryption of 64-byte memory blocks.
//!
//! The initialisation vector binds the pad to the block's *location*
//! (page id + page offset), its *version* (major + minor counter) and —
//! following §3.3.2 of the paper — a **session counter** that is 0 for
//! persistent data and incremented at every boot for non-persistent
//! data, so stale non-persistent counters can never cause pad reuse
//! across boot episodes even without strict counter persistence.

use crate::aes::Aes128;

/// The initialisation vector for one 64-byte block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Iv {
    /// 4 KiB page id of the block.
    pub page: u64,
    /// Block index within its page (`0..64`).
    pub offset: u8,
    /// Major counter (shared per page).
    pub major: u64,
    /// Minor counter (per block, 7-bit).
    pub minor: u8,
    /// Session counter (§3.3.2): 0 for persistent data; bumped at each
    /// boot for non-persistent data.
    pub session: u32,
}

impl Iv {
    /// Creates an IV from its components.
    pub fn new(page: u64, offset: u8, major: u64, minor: u8, session: u32) -> Self {
        Iv {
            page,
            offset,
            major,
            minor,
            session,
        }
    }

    /// Serialises to the 16-byte AES input for pad word `word`
    /// (`0..4`; a 64 B block needs four 16 B pad words).
    fn to_block(self, word: u8) -> [u8; 16] {
        let mut b = [0u8; 16];
        b[..8].copy_from_slice(&self.page.to_le_bytes());
        // Major counter is 64-bit; fold its high half into the low half
        // of the remaining space: bytes 8..14 carry the low 48 bits and
        // byte 14 xors in a fold of the high bits. In practice major
        // counters stay tiny; the fold keeps the mapping injective for
        // the realistic range (< 2^48).
        let major = self.major.to_le_bytes();
        b[8..14].copy_from_slice(&major[..6]);
        b[14] = self.minor | ((self.offset & 0x1) << 7);
        b[15] = (self.offset >> 1) | (word << 5);
        // Session occupies the top of the page field's unused bits: real
        // page ids are < 2^52 for any buildable memory.
        let s = self.session.to_le_bytes();
        b[6] ^= s[0];
        b[7] ^= s[1];
        b[13] ^= s[2] ^ s[3] ^ major[6] ^ major[7];
        b
    }
}

/// Generates the 64-byte one-time pad for `iv`: its four pad words,
/// encrypted in one call.
pub fn pad(cipher: &Aes128, iv: &Iv) -> [u8; 64] {
    let words = cipher.encrypt_blocks([0, 1, 2, 3].map(|word| iv.to_block(word)));
    let mut out = [0u8; 64];
    for (chunk, word) in out.chunks_exact_mut(16).zip(words) {
        chunk.copy_from_slice(&word);
    }
    out
}

/// Encrypts a 64-byte block with the pad derived from `iv`.
///
/// Counter-mode encryption is a XOR with the pad, so this function is
/// an involution: applying it to ciphertext with the same IV decrypts.
pub fn encrypt_block(cipher: &Aes128, iv: &Iv, data: &[u8; 64]) -> [u8; 64] {
    let p = pad(cipher, iv);
    let mut out = [0u8; 64];
    for i in 0..64 {
        out[i] = data[i] ^ p[i];
    }
    out
}

/// Decrypts a 64-byte block (alias of [`encrypt_block`], provided for
/// call-site readability).
pub fn decrypt_block(cipher: &Aes128, iv: &Iv, data: &[u8; 64]) -> [u8; 64] {
    encrypt_block(cipher, iv, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cipher() -> Aes128 {
        Aes128::new(&[0x42; 16])
    }

    #[test]
    fn encrypt_decrypt_round_trip() {
        let iv = Iv::new(10, 3, 7, 2, 0);
        let data = [0x5Au8; 64];
        let ct = encrypt_block(&cipher(), &iv, &data);
        assert_ne!(ct, data);
        assert_eq!(decrypt_block(&cipher(), &iv, &ct), data);
    }

    #[test]
    fn different_counters_give_different_pads() {
        let c = cipher();
        let a = pad(&c, &Iv::new(1, 0, 0, 1, 0));
        let b = pad(&c, &Iv::new(1, 0, 0, 2, 0));
        assert_ne!(a, b);
    }

    #[test]
    fn different_locations_give_different_pads() {
        let c = cipher();
        assert_ne!(
            pad(&c, &Iv::new(1, 0, 0, 1, 0)),
            pad(&c, &Iv::new(2, 0, 0, 1, 0))
        );
        assert_ne!(
            pad(&c, &Iv::new(1, 0, 0, 1, 0)),
            pad(&c, &Iv::new(1, 1, 0, 1, 0))
        );
    }

    #[test]
    fn session_counter_changes_pad() {
        // §3.3.2: bumping the session at reboot prevents cross-boot pad
        // reuse for non-persistent data with stale counters.
        let c = cipher();
        assert_ne!(
            pad(&c, &Iv::new(1, 0, 0, 1, 0)),
            pad(&c, &Iv::new(1, 0, 0, 1, 1))
        );
    }

    #[test]
    fn major_counter_changes_pad() {
        let c = cipher();
        assert_ne!(
            pad(&c, &Iv::new(1, 0, 0, 1, 0)),
            pad(&c, &Iv::new(1, 0, 1, 1, 0))
        );
    }

    #[test]
    fn pad_words_are_distinct() {
        let p = pad(&cipher(), &Iv::new(0, 0, 0, 0, 0));
        let words: Vec<&[u8]> = p.chunks(16).collect();
        for i in 0..4 {
            for j in i + 1..4 {
                assert_ne!(words[i], words[j]);
            }
        }
    }

    #[test]
    fn wrong_key_fails_to_decrypt() {
        let iv = Iv::new(10, 3, 7, 2, 0);
        let data = [1u8; 64];
        let ct = encrypt_block(&cipher(), &iv, &data);
        let other = Aes128::new(&[0x43; 16]);
        assert_ne!(decrypt_block(&other, &iv, &ct), data);
    }

    #[test]
    fn pad_is_four_single_block_encryptions_of_its_iv_words() {
        let ivs = [
            Iv::new(0, 0, 0, 0, 0),
            Iv::new(10, 3, 7, 2, 0),
            Iv::new(1 << 40, 63, u64::MAX, 127, u32::MAX),
        ];
        for cipher in [cipher(), Aes128::ttable_only(&[0x42; 16])] {
            for iv in ivs {
                let mut expected = [0u8; 64];
                for (word, chunk) in (0..4).zip(expected.chunks_exact_mut(16)) {
                    chunk.copy_from_slice(&cipher.encrypt_block(iv.to_block(word)));
                }
                assert_eq!(pad(&cipher, &iv), expected, "{iv:?}");
            }
        }
    }

    #[test]
    fn iv_block_injective_over_offsets() {
        let iv0 = Iv::new(0, 0, 0, 0, 0);
        let mut seen = std::collections::HashSet::new();
        for offset in 0..64u8 {
            let iv = Iv { offset, ..iv0 };
            assert!(seen.insert(iv.to_block(0)), "offset {offset} collides");
        }
    }
}
