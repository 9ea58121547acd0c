//! Micro-benchmarks of the cryptographic substrate: AES-128 block
//! encryption, counter-mode encryption of one 64 B memory block,
//! SipHash-2-4 MACs and word hashing, and a split-counter increment.

use std::hint::black_box;
use triad_bench::timing::{bench, header};
use triad_crypto::aes::Aes128;
use triad_crypto::counter::AnyCounterBlock;
use triad_crypto::ctr::{encrypt_block, Iv};
use triad_crypto::mac::MacEngine;
use triad_crypto::siphash::SipHash24;

fn main() {
    header("crypto");
    let cipher = Aes128::new(&[7; 16]);
    let mac = MacEngine::new([3; 16]);
    let sip = SipHash24::from_halves(1, 2);
    let iv = Iv::new(10, 3, 7, 2, 0);
    let data = [0x5A; 64];

    bench("aes128_encrypt_16B", || {
        cipher.encrypt_block(black_box([1u8; 16]))
    });
    bench("ctr_encrypt_64B_block", || {
        encrypt_block(&cipher, black_box(&iv), black_box(&data))
    });
    bench("siphash24_64B", || sip.hash(black_box(&data)));
    bench("siphash_hash_words_1", || {
        sip.hash_words(black_box(&[42u64]))
    });
    bench("data_mac_64B", || {
        mac.data_mac(black_box(0x40), black_box(&data), black_box(&iv))
    });
    // What each write-back runs on its counter block: advance the
    // block's minor, read the IV pair, serialise for the leaf hash. The
    // slot walks the page so every 7-bit field alignment is timed, and
    // each minor overflows once per 127 passes.
    let mut cb = AnyCounterBlock::fresh(true);
    let mut slot = 0usize;
    bench("split_counter_increment", || {
        slot = (slot + 1) % 64;
        let outcome = black_box(&mut cb).increment(slot);
        (outcome, cb.pair(slot), cb.to_bytes())
    });
    bench("key_expansion", || Aes128::new(black_box(&[9u8; 16])));
}
