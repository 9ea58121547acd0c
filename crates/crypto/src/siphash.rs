//! SipHash-2-4 (Aumasson & Bernstein, 2012): a fast keyed 64-bit PRF.
//!
//! Used as the 64 B → 8 B hash for Bonsai-Merkle-tree nodes and as the
//! per-block data MAC. A 64-bit tag matches the paper's metadata layout
//! (eight 8 B MACs per 64 B tree node).

/// A SipHash-2-4 instance keyed with 128 bits.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SipHash24 {
    k0: u64,
    k1: u64,
}

impl std::fmt::Debug for SipHash24 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("SipHash24").finish_non_exhaustive()
    }
}

#[inline]
fn sipround(v: &mut [u64; 4]) {
    v[0] = v[0].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(13);
    v[1] ^= v[0];
    v[0] = v[0].rotate_left(32);
    v[2] = v[2].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(16);
    v[3] ^= v[2];
    v[0] = v[0].wrapping_add(v[3]);
    v[3] = v[3].rotate_left(21);
    v[3] ^= v[0];
    v[2] = v[2].wrapping_add(v[1]);
    v[1] = v[1].rotate_left(17);
    v[1] ^= v[2];
    v[2] = v[2].rotate_left(32);
}

impl SipHash24 {
    /// Creates an instance from a 16-byte key (little-endian halves, as
    /// in the reference implementation).
    pub fn new(key: [u8; 16]) -> Self {
        SipHash24 {
            k0: u64::from_le_bytes(key[0..8].try_into().expect("8 bytes")),
            k1: u64::from_le_bytes(key[8..16].try_into().expect("8 bytes")),
        }
    }

    /// Creates an instance directly from two 64-bit key halves.
    pub const fn from_halves(k0: u64, k1: u64) -> Self {
        SipHash24 { k0, k1 }
    }

    /// The initial state for this key.
    fn init(&self) -> [u64; 4] {
        [
            self.k0 ^ 0x736f_6d65_7073_6575,
            self.k1 ^ 0x646f_7261_6e64_6f6d,
            self.k0 ^ 0x6c79_6765_6e65_7261,
            self.k1 ^ 0x7465_6462_7974_6573,
        ]
    }

    /// Hashes `data`, producing the 64-bit tag.
    pub fn hash(&self, data: &[u8]) -> u64 {
        let mut v = self.init();
        let mut chunks = data.chunks_exact(8);
        for chunk in &mut chunks {
            compress(
                &mut v,
                u64::from_le_bytes(chunk.try_into().expect("8 bytes")),
            );
        }
        // Final block: remaining bytes plus the length in the top byte.
        let rem = chunks.remainder();
        let mut last = [0u8; 8];
        last[..rem.len()].copy_from_slice(rem);
        last[7] = data.len() as u8;
        finish(v, u64::from_le_bytes(last))
    }

    /// Hashes a sequence of 64-bit words (little-endian), a convenience
    /// for hashing structured metadata without an allocation: each word
    /// is one message block, so the tag equals [`SipHash24::hash`] over
    /// the words' little-endian bytes.
    pub fn hash_words(&self, words: &[u64]) -> u64 {
        let mut v = self.init();
        for &m in words {
            compress(&mut v, m);
        }
        // The message is a whole number of blocks: the final block
        // carries only the byte length.
        finish(v, ((words.len() * 8) as u64) << 56)
    }
}

/// Absorbs one 8-byte message block (two compression rounds).
#[inline]
fn compress(v: &mut [u64; 4], m: u64) {
    v[3] ^= m;
    sipround(v);
    sipround(v);
    v[0] ^= m;
}

/// Absorbs the final block `last` and runs the four finalisation rounds.
#[inline]
fn finish(mut v: [u64; 4], last: u64) -> u64 {
    compress(&mut v, last);
    v[2] ^= 0xff;
    for _ in 0..4 {
        sipround(&mut v);
    }
    v[0] ^ v[1] ^ v[2] ^ v[3]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference key from the SipHash paper: bytes 00..0f.
    fn reference() -> SipHash24 {
        let key: [u8; 16] = core::array::from_fn(|i| i as u8);
        SipHash24::new(key)
    }

    #[test]
    fn reference_vector_empty() {
        // First entry of vectors_sip64 in the reference implementation.
        assert_eq!(reference().hash(&[]), 0x726f_db47_dd0e_0e31);
    }

    #[test]
    fn reference_vector_one_byte() {
        assert_eq!(reference().hash(&[0]), 0x74f8_39c5_93dc_67fd);
    }

    #[test]
    fn reference_vector_eight_bytes() {
        let msg: Vec<u8> = (0..8).collect();
        assert_eq!(reference().hash(&msg), 0x93f5_f579_9a93_2462);
    }

    #[test]
    fn reference_vector_fifteen_bytes() {
        let msg: Vec<u8> = (0..15).collect();
        assert_eq!(reference().hash(&msg), 0xa129_ca61_49be_45e5);
    }

    #[test]
    fn key_separation() {
        let a = SipHash24::from_halves(1, 2);
        let b = SipHash24::from_halves(1, 3);
        assert_ne!(a.hash(b"hello"), b.hash(b"hello"));
    }

    #[test]
    fn message_sensitivity() {
        let h = reference();
        let m1 = [0u8; 64];
        let mut m2 = m1;
        m2[63] ^= 1;
        assert_ne!(h.hash(&m1), h.hash(&m2));
    }

    #[test]
    fn hash_words_matches_bytes() {
        let h = reference();
        let words = [0x0102_0304_0506_0708u64, 42];
        let mut bytes = Vec::new();
        for w in words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        assert_eq!(h.hash_words(&words), h.hash(&bytes));
    }

    #[test]
    fn debug_hides_key() {
        let repr = format!("{:?}", SipHash24::from_halves(0xDEAD, 0xBEEF));
        assert!(!repr.contains("DEAD") && !repr.contains("dead"));
    }
}
