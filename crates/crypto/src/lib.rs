//! Cryptographic substrate for the Triad-NVM secure memory controller.
//!
//! Everything here is implemented from scratch so the simulator is
//! *functionally* secure: tampering with simulated NVM contents really
//! does produce MAC/Merkle-tree mismatches, which is what the crash,
//! recovery and resilience tests rely on.
//!
//! * [`aes`] — AES-128 block cipher (FIPS-197), used to generate
//!   counter-mode one-time pads.
//! * [`siphash`] — SipHash-2-4 keyed 64-bit PRF, used for per-block
//!   data MACs and for the 64 B → 8 B Bonsai-Merkle-tree node hashes.
//! * [`counter`] — the split-counter block format of Yan et al.
//!   (64-bit major + 64 × 7-bit minor counters in one 64 B block) and a
//!   monolithic-counter alternative for comparison.
//! * [`ctr`] — initialisation-vector construction (including the
//!   *session counter* of §3.3.2) and 64-byte one-time-pad
//!   encryption/decryption.
//! * [`mac`] — data-block MAC binding ciphertext, address and counter.
//!
//! # Example: encrypt and authenticate one block
//!
//! ```rust
//! use triad_crypto::{aes::Aes128, ctr::{Iv, encrypt_block}, mac::MacEngine};
//!
//! let cipher = Aes128::new(&[7u8; 16]);
//! let mac = MacEngine::new([1u8; 16]);
//! let iv = Iv::new(/*page*/ 3, /*offset*/ 0, /*major*/ 1, /*minor*/ 1, /*session*/ 0);
//! let plain = [0xABu8; 64];
//! let ciphertext = encrypt_block(&cipher, &iv, &plain);
//! let tag = mac.data_mac(0x40, &ciphertext, &iv);
//! assert_ne!(ciphertext, plain);
//! assert_eq!(encrypt_block(&cipher, &iv, &ciphertext), plain); // XOR pad is an involution
//! let _ = tag;
//! ```

#![warn(missing_docs)]
// The AES-NI dispatch in `aes` holds the workspace's only `unsafe`.
#![deny(unsafe_code)]

pub mod aes;
pub mod counter;
pub mod ctr;
pub mod mac;
pub mod siphash;

pub use aes::Aes128;
pub use counter::{
    AnyCounterBlock, CounterBlock, MonolithicCounter, MonolithicCounterBlock, SplitCounterBlock,
};
pub use ctr::{decrypt_block, encrypt_block, Iv};
pub use mac::{Mac64, MacEngine};
pub use siphash::SipHash24;
