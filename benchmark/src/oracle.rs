//! Correctness checks. Each compares what the system returned against
//! an independent reference kept by the benchmark; the tests below show
//! that each check rejects a deliberately wrong reference.

use std::collections::BTreeMap;

use triad_core::RecoveryReport;
use triad_workloads::service::{Request, Response};

/// The reference key-value state.
pub type Model = BTreeMap<u64, Vec<u8>>;

/// Checks one acknowledged batch against `model` and applies its
/// mutations: every put and delete must be `Done`, and every get must
/// return exactly what the model holds at that point of the batch.
pub fn check_batch(model: &mut Model, reqs: &[Request], resps: &[Response]) -> Result<(), String> {
    if reqs.len() != resps.len() {
        return Err(format!(
            "{} responses for {} requests",
            resps.len(),
            reqs.len()
        ));
    }
    for (req, resp) in reqs.iter().zip(resps) {
        match (req, resp) {
            (Request::Put { key, value }, Response::Done) => {
                model.insert(*key, value.clone());
            }
            (Request::Delete { key }, Response::Done) => {
                model.remove(key);
            }
            (Request::Get { key }, Response::Value(v)) => {
                if v.as_ref() != model.get(key) {
                    return Err(format!(
                        "get({key}) returned {v:?}, the reference holds {:?}",
                        model.get(key)
                    ));
                }
            }
            (req, resp) => return Err(format!("{resp:?} is not a valid answer to {req:?}")),
        }
    }
    Ok(())
}

/// Applies the puts and deletes of `reqs` to `model`, as a batch that
/// committed would.
pub fn apply(model: &mut Model, reqs: &[Request]) {
    for req in reqs {
        match req {
            Request::Put { key, value } => {
                model.insert(*key, value.clone());
            }
            Request::Delete { key } => {
                model.remove(key);
            }
            Request::Get { .. } | Request::Scan => {}
        }
    }
}

/// Checks a durable state read back from the system against `model`.
pub fn check_state(what: &str, state: &Model, model: &Model) -> Result<(), String> {
    if state == model {
        return Ok(());
    }
    let first = state
        .iter()
        .zip(model.iter())
        .find(|(a, b)| a != b)
        .map(|((k, _), _)| *k);
    Err(format!(
        "{what}: {} keys read back, {} in the reference; first difference at key {first:?}",
        state.len(),
        model.len()
    ))
}

/// Checks that a recovered shard holds exactly the state before or
/// after the interrupted group, nothing in between.
pub fn check_atomic_recovery(recovered: &Model, pre: &Model, post: &Model) -> Result<(), String> {
    if recovered == pre || recovered == post {
        Ok(())
    } else {
        Err(format!(
            "recovered shard holds {} keys, matching neither the pre-submit ({}) nor the \
             post-submit ({}) state",
            recovered.len(),
            pre.len(),
            post.len()
        ))
    }
}

/// Checks an engine (or engine plus log replay) recovery report: the
/// persistent region verified, and no acknowledged mutation was lost
/// beyond the tier's bound.
pub fn check_recovery_report(report: &RecoveryReport) -> Result<(), String> {
    if !report.persistent_recovered {
        return Err("persistent region did not verify after recovery".into());
    }
    if !report.unverifiable.is_empty() {
        return Err(format!("{} unverifiable ranges", report.unverifiable.len()));
    }
    match report.durability {
        Some(d) if !d.within_bound() => Err(format!(
            "{} acknowledged mutations lost under the {} tier",
            d.mutations_lost, d.mode
        )),
        _ => Ok(()),
    }
}

/// The part of `model` whose keys satisfy `keep` (one shard's view).
pub fn view(model: &Model, keep: impl Fn(u64) -> bool) -> Model {
    model
        .iter()
        .filter(|(k, _)| keep(**k))
        .map(|(k, v)| (*k, v.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use triad_sim::config::SystemConfig;
    use triad_workloads::service::{generate_requests, KvService, ServiceSpec};

    fn service() -> KvService {
        let mut config = SystemConfig::tiny();
        config.cores = 4;
        KvService::create(&ServiceSpec {
            buckets: 64,
            config: Some(config),
            ..ServiceSpec::new(2)
        })
        .expect("small service")
    }

    /// A real batch served by a real service, with the model it yields.
    fn served() -> (KvService, Vec<Request>, Vec<Response>, Model) {
        let mut svc = service();
        let reqs = generate_requests(7, 256, 32, (8, 64));
        let resps = svc.submit(&reqs).expect("clean submit");
        let mut model = Model::new();
        check_batch(&mut model, &reqs, &resps).expect("the true reference passes");
        (svc, reqs, resps, model)
    }

    #[test]
    fn get_check_rejects_a_corrupted_model_entry() {
        let (_, reqs, resps, _) = served();
        // Find a get that returned a value, then corrupt the reference
        // entry it is checked against.
        let hit = reqs
            .iter()
            .zip(&resps)
            .position(|(_, r)| matches!(r, Response::Value(Some(_))))
            .expect("the batch reads back a stored key");
        let mut wrong = Model::new();
        check_batch(&mut wrong, &reqs[..hit], &resps[..hit]).expect("prefix is clean");
        let Request::Get { key } = reqs[hit] else {
            unreachable!()
        };
        wrong.get_mut(&key).expect("key present").push(0xFF);
        assert!(check_batch(&mut wrong, &reqs[hit..], &resps[hit..]).is_err());
    }

    #[test]
    fn dump_check_rejects_a_corrupted_model_entry() {
        let (mut svc, _, _, model) = served();
        let state = svc.dump().expect("dump");
        check_state("dump", &state, &model).expect("the true reference passes");
        let mut wrong = model.clone();
        let key = *wrong.keys().next().expect("non-empty");
        wrong.insert(key, b"not what was written".to_vec());
        assert!(check_state("dump", &state, &wrong).is_err());
        let mut missing = model;
        missing.remove(&key);
        assert!(check_state("dump", &state, &missing).is_err());
    }

    #[test]
    fn wrong_responses_are_rejected() {
        let (_, reqs, resps, _) = served();
        let mut model = Model::new();
        assert!(check_batch(&mut model, &reqs, &resps[1..]).is_err());
        let put = reqs
            .iter()
            .position(|r| matches!(r, Request::Put { .. }))
            .expect("a put");
        let mut shed = resps.clone();
        shed[put] = Response::Shed;
        assert!(check_batch(&mut Model::new(), &reqs, &shed).is_err());
    }

    #[test]
    fn atomic_recovery_check_rejects_a_wrong_snapshot() {
        let pre: Model = [(1, vec![1]), (2, vec![2])].into_iter().collect();
        let mut post = pre.clone();
        post.insert(3, vec![3]);
        post.remove(&1);
        check_atomic_recovery(&pre, &pre, &post).expect("pre is allowed");
        check_atomic_recovery(&post, &pre, &post).expect("post is allowed");
        // A torn group: half of the batch applied.
        let mut torn = pre.clone();
        torn.insert(3, vec![3]);
        assert!(check_atomic_recovery(&torn, &pre, &post).is_err());
        // The true state checked against a wrong reference pair.
        let wrong_pre: Model = [(9, vec![9])].into_iter().collect();
        assert!(check_atomic_recovery(&pre, &wrong_pre, &post).is_err());
    }

    #[test]
    fn recovery_report_check_rejects_a_failed_recovery() {
        let (mut svc, _, _, _) = served();
        svc.shard_mem_mut(0).expect("shard 0").crash();
        let report = svc.recover_shard(0).expect("recovery");
        check_recovery_report(&report).expect("the real report passes");
        let mut failed = report.clone();
        failed.persistent_recovered = false;
        assert!(check_recovery_report(&failed).is_err());
        let mut lossy = report;
        if let Some(d) = lossy.durability.as_mut() {
            d.mutations_lost = 1;
        }
        assert!(check_recovery_report(&lossy).is_err());
    }

    #[test]
    fn trace_recovery_check_rejects_a_failed_recovery() {
        use triad_core::{PersistScheme, SecureMemoryBuilder, System};
        use triad_workloads::{build_workload, WorkloadEnv};

        let mem = SecureMemoryBuilder::new()
            .config(crate::workloads::trace_config())
            .scheme(PersistScheme::triad_nvm(2))
            .build()
            .expect("trace config builds");
        let traces = build_workload("mix3", &WorkloadEnv::of(&mem), 3);
        let mut system = System::new(mem, traces);
        system.set_persist_batch(8);
        system.run(200).expect("clean run");
        let mut mem = system.into_secure();
        mem.crash();
        let report = mem.recover().expect("recovery");
        check_recovery_report(&report).expect("the real report passes");
        let failed = RecoveryReport {
            persistent_recovered: false,
            ..report
        };
        assert!(check_recovery_report(&failed).is_err());
    }
}
