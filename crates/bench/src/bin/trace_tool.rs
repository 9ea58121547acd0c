//! Record and replay workload traces.
//!
//! ```text
//! trace_tool record <workload> <ops> <file>   # generate + save
//! trace_tool replay <file> [ops]              # run the saved trace
//! ```
//!
//! Recording then replaying a workload is bit-identical to running the
//! generator directly — the tool verifies this after every `record`.

use std::fs::File;
use std::io::{BufReader, BufWriter};

use triad_bench::harness_config;
use triad_core::{PersistScheme, SecureMemoryBuilder, System};
use triad_sim::trace::VecTrace;
use triad_sim::trace_file::{read_trace, record};
use triad_sim::TraceSource;
use triad_workloads::{build_workload, WorkloadEnv};

fn usage() -> ! {
    eprintln!("usage: trace_tool record <workload> <ops> <file>");
    eprintln!("       trace_tool replay <file> [ops]");
    std::process::exit(2);
}

fn run_trace(trace: Box<dyn TraceSource>, ops: u64) -> f64 {
    let mem = SecureMemoryBuilder::new()
        .config(harness_config())
        .scheme(PersistScheme::triad_nvm(2))
        .build()
        .expect("valid config");
    let mut sys = System::new(mem, vec![trace]);
    sys.run(ops).expect("clean run").throughput()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("record") if args.len() == 5 => {
            let workload = &args[2];
            let ops: u64 = args[3].parse().unwrap_or_else(|_| usage());
            let path = &args[4];
            let mem = SecureMemoryBuilder::new()
                .config(harness_config())
                .scheme(PersistScheme::triad_nvm(2))
                .build()
                .expect("valid config");
            let env = WorkloadEnv::of(&mem);
            let mut traces = build_workload(workload, &env, 42);
            let mut source = traces.remove(0);
            let file = File::create(path).expect("create trace file");
            let n = record(source.as_mut(), ops, BufWriter::new(file)).expect("write trace");
            println!("recorded {n} ops of {workload} to {path}");
            // Verify: replaying must produce the identical op stream,
            // hence identical simulated throughput.
            let reread = VecTrace::new(
                workload.clone(),
                read_trace(BufReader::new(File::open(path).expect("reopen")))
                    .expect("parse recorded trace"),
            );
            let fresh = build_workload(workload, &env, 42).remove(0);
            let a = run_trace(Box::new(reread), n);
            let b = run_trace(fresh, n);
            assert_eq!(a, b, "replay must be bit-identical to generation");
            println!("replay verified: identical simulated throughput ({a:.3e} inst/s)");
        }
        Some("replay") => {
            let path = args.get(2).unwrap_or_else(|| usage());
            let ops: u64 = args
                .get(3)
                .map(|s| s.parse().unwrap_or_else(|_| usage()))
                .unwrap_or(u64::MAX);
            let trace = read_trace(BufReader::new(File::open(path).expect("open trace")))
                .expect("parse trace");
            println!("replaying {} ops from {path}", trace.len());
            let t = run_trace(Box::new(VecTrace::new(path.clone(), trace)), ops);
            println!("throughput: {t:.3e} inst/s");
        }
        _ => usage(),
    }
}
