//! Host cost of the crypto and metadata primitives every simulated
//! access pays, timed on fixed inputs, plus engine-only recovery on an
//! idle machine of the workload's geometry.

use std::hint::black_box;
use std::time::Instant;

use triad_core::{PersistScheme, SecureMemoryBuilder};
use triad_crypto::ctr::{self, Iv};
use triad_crypto::{Aes128, MacEngine, SipHash24};
use triad_meta::bmt::{self, NodeId};
use triad_meta::RegionKind;
use triad_sim::config::SystemConfig;

use crate::metrics::median;
use crate::trace::Tracer;

/// Median host cost of each primitive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Micro {
    /// One 64 B counter-mode pad (four AES blocks), ns.
    pub ctr_pad_ns: f64,
    /// One data MAC over a 64 B ciphertext, ns.
    pub data_mac_ns: f64,
    /// SipHash-2-4 over 64 B, ns.
    pub siphash_ns: f64,
    /// One BMT node hash, ns.
    pub node_hash_ns: f64,
    /// Rebuilding the persistent tree from its level-2 nodes, µs.
    pub rebuild_from_level2_us: f64,
    /// `SecureMemory::recover` after a crash of an idle engine, µs.
    pub recover_us: f64,
}

/// Median ns per call of `f` over several batches of calls.
fn per_call_ns(mut f: impl FnMut()) -> f64 {
    const CALLS: u32 = 2_000;
    let batches: Vec<f64> = (0..9)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..CALLS {
                f();
            }
            start.elapsed().as_nanos() as f64 / f64::from(CALLS)
        })
        .collect();
    median(&batches)
}

/// Times every primitive, recording one span per primitive.
pub fn measure(config: SystemConfig, tr: &mut Tracer) -> Result<Micro, String> {
    let aes = Aes128::new(&[0x2b; 16]);
    let macs = MacEngine::new([0x5c; 16]);
    let sip = SipHash24::new(*b"triad benchmark!");
    let iv = Iv::new(0x1234, 5, 9, 3, 0);
    let block = [0xa5u8; 64];
    let node = NodeId {
        region: RegionKind::Persistent,
        level: 1,
        index: 77,
    };

    let mut timed = |name: &'static str, f: &mut dyn FnMut()| {
        let span = tr.begin(name, None);
        let ns = per_call_ns(f);
        tr.end(span);
        ns
    };
    let ctr_pad_ns = timed("crypto.ctr_pad", &mut || {
        black_box(ctr::pad(black_box(&aes), black_box(&iv)));
    });
    let data_mac_ns = timed("crypto.data_mac", &mut || {
        black_box(macs.data_mac(black_box(0x4000), black_box(&block), black_box(&iv)));
    });
    let siphash_ns = timed("crypto.siphash", &mut || {
        black_box(sip.hash(black_box(&block)));
    });
    let node_hash_ns = timed("meta.node_hash", &mut || {
        black_box(bmt::node_hash(
            black_box(&macs),
            black_box(node),
            black_box(&block),
        ));
    });

    let build = || {
        SecureMemoryBuilder::new()
            .config(config)
            .scheme(PersistScheme::triad_nvm(2))
            .build()
            .map_err(|e| format!("build: {e}"))
    };
    let mut mem = build()?;
    let mut recover_us = Vec::new();
    for _ in 0..5 {
        mem.crash();
        let span = tr.begin("core.recover", None);
        let start = Instant::now();
        let report = mem.recover();
        recover_us.push(start.elapsed().as_secs_f64() * 1e6);
        tr.end(span);
        report.map_err(|e| format!("recover: {e}"))?;
    }

    let mut mem = build()?;
    let layout = mem.memory_map().persistent().clone();
    let from = 2.min(layout.geometry.root_level().saturating_sub(1));
    let mut rebuild_us = Vec::new();
    for _ in 0..5 {
        let span = tr.begin("meta.rebuild_from_level", None);
        let start = Instant::now();
        black_box(bmt::rebuild_from_level(
            mem.nvm_image_mut(),
            &layout,
            &macs,
            from,
        ));
        rebuild_us.push(start.elapsed().as_secs_f64() * 1e6);
        tr.end(span);
    }

    Ok(Micro {
        ctr_pad_ns,
        data_mac_ns,
        siphash_ns,
        node_hash_ns,
        rebuild_from_level2_us: median(&rebuild_us),
        recover_us: median(&recover_us),
    })
}
