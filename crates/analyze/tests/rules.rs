//! Every rule is proven live by a fixture that fires it, and every
//! rule's suppression syntax is proven by a fixture that silences it.
//! Fixtures are linted under *virtual* workspace paths so the scoping
//! logic is exercised too.

use triad_analyze::{analyze_source, analyze_sources};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn rule_hits(virtual_path: &str, name: &str, rule: &str) -> Vec<(u32, u32)> {
    analyze_source(virtual_path, &fixture(name))
        .into_iter()
        .filter(|f| f.rule == rule)
        .map(|f| (f.line, f.col))
        .collect()
}

#[test]
fn hash_order_fires() {
    for path in [
        "crates/core/src/bad.rs",
        "crates/cache/src/bad.rs",
        "crates/workloads/src/bad.rs",
    ] {
        let hits = rule_hits(path, "hash_order_fires.rs", "determinism/hash-order");
        // The use, the return type, and the constructor.
        assert_eq!(hits.len(), 3, "{path}: {hits:?}");
        assert_eq!(hits[0], (1, 23), "{path}");
    }
}

#[test]
fn hash_order_respects_suppression() {
    let f = analyze_source(
        "crates/core/src/bad.rs",
        &fixture("hash_order_suppressed.rs"),
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn hash_order_is_scoped_to_sim_crates() {
    // The same source is fine in the bench crate.
    let f = analyze_source("crates/bench/src/x.rs", &fixture("hash_order_fires.rs"));
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn wall_clock_fires() {
    let hits = rule_hits(
        "crates/sim/src/clock.rs",
        "wall_clock_fires.rs",
        "determinism/wall-clock",
    );
    assert_eq!(hits.len(), 3, "{hits:?}");
}

#[test]
fn wall_clock_respects_suppression() {
    let f = analyze_source(
        "crates/sim/src/clock.rs",
        &fixture("wall_clock_suppressed.rs"),
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn wall_clock_allows_bench() {
    let f = analyze_source(
        "crates/bench/src/timing.rs",
        &fixture("wall_clock_fires.rs"),
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn panic_policy_fires() {
    for path in [
        "crates/core/src/bad.rs",
        "crates/kv/src/bad.rs",
        "crates/recov/src/bad.rs",
    ] {
        let hits = rule_hits(path, "panic_policy_fires.rs", "panic-policy");
        // unwrap, expect, panic! — and NOT unwrap_or.
        assert_eq!(hits.len(), 3, "{path}: {hits:?}");
        assert_eq!(hits[0].0, 2, "{path}");
        assert_eq!(hits[1].0, 6, "{path}");
        assert_eq!(hits[2].0, 10, "{path}");
    }
}

#[test]
fn panic_policy_respects_suppression() {
    let f = analyze_source(
        "crates/core/src/bad.rs",
        &fixture("panic_policy_suppressed.rs"),
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn panic_policy_ignores_test_code_and_other_crates() {
    let src = "#[cfg(test)]\nmod tests {\n  fn t() { None::<u64>.unwrap(); }\n}\n";
    assert!(analyze_source("crates/core/src/x.rs", src).is_empty());
    // Out-of-scope crates: the sim driver and the load generators may
    // unwrap.
    for path in ["crates/sim/src/driver.rs", "crates/workloads/src/bad.rs"] {
        let f = analyze_source(path, &fixture("panic_policy_fires.rs"));
        assert!(f.is_empty(), "{path}: {f:?}");
    }
}

#[test]
fn persist_order_fires_on_conditional_drain_and_early_return() {
    let hits = rule_hits(
        "crates/core/src/engine.rs",
        "persist_order_fires.rs",
        "persist-order",
    );
    // store_block's tail Ok + persist_block's early return; end_epoch
    // and the delegating read() stay clean.
    assert_eq!(hits.len(), 2, "{hits:?}");
    assert_eq!(hits[0].0, 9, "store_block tail");
    assert_eq!(hits[1].0, 16, "persist_block early return");
}

#[test]
fn persist_order_respects_suppression() {
    let f = analyze_source(
        "crates/core/src/engine.rs",
        &fixture("persist_order_suppressed.rs"),
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn persist_order_scope_is_semantic_not_file_names() {
    // v2 dropped the file-name allowlist: an `impl SecureMemory` is
    // audited wherever it lives inside crates/{core,kv,mem} ...
    let hits = rule_hits(
        "crates/core/src/system.rs",
        "persist_order_fires.rs",
        "persist-order",
    );
    assert_eq!(hits.len(), 2, "audited under any core path: {hits:?}");
    let hits = rule_hits(
        "crates/mem/src/shard.rs",
        "persist_order_fires.rs",
        "persist-order",
    );
    assert_eq!(hits.len(), 2, "audited in crates/mem too: {hits:?}");
    // ... but not outside those crates (bench drivers are free), and
    // not for other impl targets.
    let f = analyze_source("crates/bench/src/x.rs", &fixture("persist_order_fires.rs"));
    assert!(f.iter().all(|x| x.rule != "persist-order"), "{f:?}");
    let other_type = fixture("persist_order_fires.rs").replace("SecureMemory", "ReplayHarness");
    let f = analyze_source("crates/core/src/replay.rs", &other_type);
    assert!(f.iter().all(|x| x.rule != "persist-order"), "{f:?}");
}

#[test]
fn persist_order_audits_the_batch_module() {
    // Since PR 6 the batched write path (`crates/core/src/batch.rs`)
    // is in the same audit scope as the engine: its public batch ops
    // feed the same eviction queue.
    let hits = rule_hits(
        "crates/core/src/batch.rs",
        "persist_order_batch_fires.rs",
        "persist-order",
    );
    // persist_batch's tail Ok (drain is conditional); the pub(crate)
    // helper and the clean apply_batch stay silent.
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].0, 12, "persist_batch tail Ok");
}

#[test]
fn persist_order_batch_respects_suppression() {
    let f = analyze_source(
        "crates/core/src/batch.rs",
        &fixture("persist_order_batch_suppressed.rs"),
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn persist_order_skips_pub_crate_helpers() {
    // `pub(crate)` queue plumbing is the vocabulary the rule audits
    // *with*, not a surface it audits: the same body that fires as
    // `pub` must stay silent as `pub(crate)`.
    let src = fixture("persist_order_batch_fires.rs").replace("pub fn", "pub(crate) fn");
    let f = analyze_source("crates/core/src/batch.rs", &src);
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn persist_order_kv_fires_on_wal_order_violations() {
    let hits = rule_hits(
        "crates/kv/src/store.rs",
        "persist_order_kv_fires.rs",
        "persist-order",
    );
    // put_unordered's premature apply + its tail Ok (committed but
    // never applied), put_conditional's maybe-uncommitted apply, and
    // put_abandoned's tail Ok; put / put_failing / touch stay clean.
    assert_eq!(hits.len(), 4, "{hits:?}");
    assert_eq!(hits[0].0, 6, "apply before commit");
    assert_eq!(hits[1].0, 8, "committed but unapplied tail Ok");
    assert_eq!(hits[2].0, 18, "apply under conditional commit");
    assert_eq!(hits[3].0, 25, "appended but abandoned tail Ok");
}

#[test]
fn persist_order_kv_respects_suppression() {
    let f = analyze_source(
        "crates/kv/src/store.rs",
        &fixture("persist_order_kv_suppressed.rs"),
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn persist_order_kv_scope_is_semantic_not_file_names() {
    // `impl KvStore` is audited under any crates/{core,kv,mem} path
    // since v2 — the WAL contract follows the type, not the file.
    let hits = rule_hits(
        "crates/kv/src/log.rs",
        "persist_order_kv_fires.rs",
        "persist-order",
    );
    assert_eq!(hits.len(), 4, "{hits:?}");
    // Outside the audited crates the same source is silent.
    let f = analyze_source(
        "crates/bench/src/kv_driver.rs",
        &fixture("persist_order_kv_fires.rs"),
    );
    assert!(f.iter().all(|x| x.rule != "persist-order"), "{f:?}");
}

#[test]
fn persist_order_kv_tracks_batched_txn_appends() {
    // `log_txn` (the PR 6 batched append-plus-marker) moves the WAL
    // state straight to committed: applying after it is clean, but a
    // conditional txn or an unapplied one still fires.
    let hits = rule_hits(
        "crates/kv/src/store.rs",
        "persist_order_kv_txn_fires.rs",
        "persist-order",
    );
    assert_eq!(hits.len(), 2, "{hits:?}");
    assert_eq!(hits[0].0, 15, "apply under conditional txn");
    assert_eq!(hits[1].0, 22, "committed but unapplied tail Ok");
}

#[test]
fn persist_order_recov_fires_on_completion_order_violations() {
    let hits = rule_hits(
        "crates/recov/src/memento.rs",
        "persist_order_recov_fires.rs",
        "persist-order",
    );
    // complete_unordered's premature bump, complete_conditional's
    // maybe-unpersisted bump, complete_abandoned's tail Ok with the
    // bump never run; complete_op / complete_failing / touch and the
    // helper-resolved StackMachine::finish stay clean.
    assert_eq!(hits.len(), 3, "{hits:?}");
    assert_eq!(hits[0].0, 6, "bump before the checkpoint");
    assert_eq!(hits[1].0, 18, "bump under a conditional checkpoint");
    assert_eq!(hits[2].0, 27, "durable checkpoint never bumped at tail Ok");
}

#[test]
fn persist_order_recov_respects_suppression() {
    let f = analyze_source(
        "crates/recov/src/memento.rs",
        &fixture("persist_order_recov_suppressed.rs"),
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn persist_order_recov_is_scoped_to_the_recov_crate() {
    // The same source is silent outside crates/recov (bench drivers
    // may orchestrate completion however they like).
    let f = analyze_source(
        "crates/bench/src/driver.rs",
        &fixture("persist_order_recov_fires.rs"),
    );
    assert!(f.iter().all(|x| x.rule != "persist-order"), "{f:?}");
}

#[test]
fn persist_order_catches_interprocedural_enqueue() {
    // The shape v1 could never see: the pub op names no queue
    // primitive at all — the enqueue is two private helpers deep.
    let hits = rule_hits(
        "crates/core/src/engine.rs",
        "persist_order_interproc_fires.rs",
        "persist-order",
    );
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].0, 7, "store_block tail Ok after helper enqueue");
    // The drained variants (helper drain, combined helper) stay clean,
    // which the single-finding assertion above already proves.
}

#[test]
fn persist_order_resolves_helpers_across_files() {
    // The helper lives in a different file of the same crate; the
    // effect still propagates to the public op.
    let engine = "impl SecureMemory {\n\
                  \x20   pub fn flush_all(&mut self, now: u64) -> Result<(), E> {\n\
                  \x20       self.touch_all(now)?;\n\
                  \x20       Ok(())\n\
                  \x20   }\n\
                  }\n";
    let helpers = "impl SecureMemory {\n\
                   \x20   pub(crate) fn touch_all(&mut self, now: u64) -> Result<(), E> {\n\
                   \x20       self.mt_fill(0, now);\n\
                   \x20       Ok(())\n\
                   \x20   }\n\
                   }\n";
    let f = analyze_sources(&[
        ("crates/core/src/engine.rs", engine),
        ("crates/core/src/helpers.rs", helpers),
    ]);
    let hits: Vec<_> = f.iter().filter(|x| x.rule == "persist-order").collect();
    assert_eq!(hits.len(), 1, "{f:?}");
    assert_eq!(hits[0].path, "crates/core/src/engine.rs");
    assert_eq!(hits[0].line, 4, "flush_all tail Ok");
}

#[test]
fn v1_findings_reproduce_under_v2() {
    // Parity lock: every finding the v1 intraprocedural rule produced
    // on the persist-order fixture suite must survive the v2 rewrite,
    // at the same lines.
    let table: &[(&str, &str, &[u32])] = &[
        (
            "persist_order_fires.rs",
            "crates/core/src/engine.rs",
            &[9, 16],
        ),
        (
            "persist_order_batch_fires.rs",
            "crates/core/src/batch.rs",
            &[12],
        ),
        (
            "persist_order_kv_fires.rs",
            "crates/kv/src/store.rs",
            &[6, 8, 18, 25],
        ),
        (
            "persist_order_kv_txn_fires.rs",
            "crates/kv/src/store.rs",
            &[15, 22],
        ),
    ];
    for (fixture_name, path, lines) in table {
        let got: Vec<u32> = rule_hits(path, fixture_name, "persist-order")
            .into_iter()
            .map(|(l, _)| l)
            .collect();
        assert_eq!(&got, lines, "{fixture_name} parity");
    }
}

#[test]
fn shard_safety_fires() {
    let src = fixture("shard_safety_fires.rs");
    let f = analyze_sources(&[("crates/workloads/src/fleet.rs", src.as_str())]);
    let statics: Vec<_> = f
        .iter()
        .filter(|x| x.rule == "shard-safety/shared-mutable-static")
        .collect();
    assert_eq!(statics.len(), 1, "{f:?}");
    assert_eq!(statics[0].line, 4, "OP_TICKS is flagged at its definition");
    assert!(
        statics[0].message.contains("store_block"),
        "{}",
        statics[0].message
    );
    let merges: Vec<_> = f
        .iter()
        .filter(|x| x.rule == "shard-safety/nondeterministic-merge")
        .collect();
    assert_eq!(merges.len(), 1, "{f:?}");
    assert_eq!(merges[0].line, 14, "HashMap in merge_shard_stats");
    let rngs: Vec<_> = f
        .iter()
        .filter(|x| x.rule == "shard-safety/rng-fork-discipline")
        .collect();
    assert_eq!(rngs.len(), 1, "{f:?}");
    assert_eq!(rngs[0].line, 22, "trace_rng.clone()");
}

#[test]
fn shard_safety_stays_silent_on_clean_shapes() {
    // Per-shard state, BTreeMap merge, rng.fork(), a non-mutable
    // static, and an interior-mutable static that is NOT reachable
    // from any service op: all silent.
    let src = fixture("shard_safety_clean.rs");
    let f = analyze_sources(&[("crates/workloads/src/fleet.rs", src.as_str())]);
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn shard_safety_respects_suppression() {
    let src = fixture("shard_safety_fires.rs").replace(
        "static OP_TICKS",
        "// triad-lint: allow(shard-safety/shared-mutable-static) -- fixture: guarded\nstatic OP_TICKS",
    );
    let f = analyze_sources(&[("crates/workloads/src/fleet.rs", src.as_str())]);
    assert!(
        f.iter()
            .all(|x| x.rule != "shard-safety/shared-mutable-static"),
        "{f:?}"
    );
}

#[test]
fn suppression_rationale_fires_on_naked_allows() {
    let src =
        "fn f(v: &[u64]) -> u64 {\n    *v.first().unwrap() // triad-lint: allow(panic-policy)\n}\n";
    let f = analyze_source("crates/core/src/x.rs", src);
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, "suppression-rationale");
    assert_eq!(f[0].line, 2);
    // A blanket allow(all) cannot silence the rationale rule itself.
    let src2 = src.replace("allow(panic-policy)", "allow(all)");
    let f2 = analyze_source("crates/core/src/x.rs", &src2);
    assert!(
        f2.iter().any(|x| x.rule == "suppression-rationale"),
        "{f2:?}"
    );
    // With a rationale the file is fully clean.
    let src3 = src.replace(
        "allow(panic-policy)",
        "allow(panic-policy) -- first() is Some: caller checks non-empty",
    );
    let f3 = analyze_source("crates/core/src/x.rs", &src3);
    assert!(f3.is_empty(), "{f3:?}");
}

#[test]
fn stats_registration_fires() {
    let hits = rule_hits(
        "crates/sim/src/stats.rs",
        "stats_registration_fires.rs",
        "stats-registration",
    );
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].0, 3, "misses is unreported");
}

#[test]
fn stats_registration_respects_suppression() {
    let f = analyze_source(
        "crates/sim/src/stats.rs",
        &fixture("stats_registration_suppressed.rs"),
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn stats_registration_fires_on_unregistered_histograms() {
    // The registry-era trait: a `Histogram` field that `register` never
    // hands to the scope is just as dead as an unreported counter.
    let hits = rule_hits(
        "crates/mem/src/controller.rs",
        "stats_registration_register_fires.rs",
        "stats-registration",
    );
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].0, 3, "wpq_occupancy is unregistered");
}

#[test]
fn stats_registration_register_respects_suppression() {
    let f = analyze_source(
        "crates/mem/src/controller.rs",
        &fixture("stats_registration_register_suppressed.rs"),
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn stats_registration_covers_the_cache_crate() {
    // crates/cache is in the rule's scope: a cache counter its
    // `register` never hands to the scope is dead.
    let hits = rule_hits(
        "crates/cache/src/lib.rs",
        "stats_registration_cache_fires.rs",
        "stats-registration",
    );
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].0, 3, "bypasses is unregistered");
}

#[test]
fn stats_registration_cache_respects_suppression() {
    let f = analyze_source(
        "crates/cache/src/lib.rs",
        &fixture("stats_registration_cache_suppressed.rs"),
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn durability_contract_fires_on_tier_violations() {
    let hits = rule_hits(
        "crates/workloads/src/service.rs",
        "durability_contract_fires.rs",
        "durability-contract",
    );
    // stage_volatile's direct append, admit_volatile's persist two
    // calls deep, ack_eagerly's payload-less marker; settle,
    // park_volatile, flush_group and peek stay clean.
    assert_eq!(hits.len(), 3, "{hits:?}");
    assert_eq!(hits[0].0, 5, "volatile path with a direct append");
    assert_eq!(hits[1].0, 12, "volatile path persisting through a helper");
    assert_eq!(hits[2].0, 33, "commit marker without an appended payload");
}

#[test]
fn durability_contract_respects_suppression() {
    let f = analyze_source(
        "crates/workloads/src/service.rs",
        &fixture("durability_contract_suppressed.rs"),
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn durability_contract_scope_is_the_serving_stack() {
    // The same source outside crates/{kv,workloads} is silent: the
    // volatile/marker vocabulary only means the durability tiers there.
    let f = analyze_source(
        "crates/bench/src/service_driver.rs",
        &fixture("durability_contract_fires.rs"),
    );
    assert!(f.iter().all(|x| x.rule != "durability-contract"), "{f:?}");
}
