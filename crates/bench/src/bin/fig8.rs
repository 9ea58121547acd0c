//! Figures 4, 8 and 9 from one sweep: each (workload, scheme) cell
//! runs once, and every table reads its outcome.
//!
//! * Figure 4: throughput when *strictly* persisting all security
//!   metadata (counters + MACs + full BMT) relative to a baseline that
//!   persists none. Paper headline: most workloads degrade severely;
//!   worst case ≈ 9.4× slowdown, average ≈ 2.2×.
//! * Figure 8: throughput under each Merkle-tree persistence model,
//!   normalised to the baseline. Paper headline: Strict ≈ 2.2× average
//!   slowdown; TriadNVM-1/2/3 cost only ≈ 4.9 % / 10.1 % / 15.6 %.
//! * Figure 9: NVM writes per scheme. Paper headline: writes grow with
//!   the persist level; for most workloads TriadNVM stays close to the
//!   no-persistence write count, while Strict multiplies writes. An
//!   endurance view follows: wear on the hottest NVM block of the
//!   hashtable cells (the paper's write-reduction motivation).
//!
//! Usage: `cargo run -p triad-bench --release --bin fig8`
//! (`TRIAD_OPS=<n>` overrides the per-core op budget).

use triad_bench::{default_ops, geomean, print_header, run_one, RunOutcome};
use triad_core::PersistScheme;
use triad_workloads::all_figure_workloads;

fn main() {
    let ops = default_ops();
    let schemes = PersistScheme::evaluated();
    let cols: Vec<String> = schemes.iter().map(|s| s.to_string()).collect();
    let column = |scheme| {
        schemes
            .iter()
            .position(|s| *s == scheme)
            .expect("evaluated scheme")
    };
    let base = column(PersistScheme::WriteBack);
    let strict = column(PersistScheme::Strict);
    let rows: Vec<(&str, Vec<RunOutcome>)> = all_figure_workloads()
        .into_iter()
        .map(|w| (w, schemes.iter().map(|s| run_one(w, *s, ops, 42)).collect()))
        .collect();
    // rels[i][w]: scheme i's throughput over the baseline's on row w.
    let rels: Vec<Vec<f64>> = (0..schemes.len())
        .map(|i| {
            rows.iter()
                .map(|(_, cells)| cells[i].throughput / cells[base].throughput)
                .collect()
        })
        .collect();

    println!("Figure 4 — throughput of Strict persistence relative to no metadata persistence");
    println!("({ops} memory ops per core)\n");
    print_header(
        "workload",
        &["baseline".into(), "strict".into(), "relative".into()],
    );
    for ((w, cells), rel) in rows.iter().zip(&rels[strict]) {
        let (b, s) = (cells[base].throughput, cells[strict].throughput);
        println!("{w:<12} {b:>12.3e} {s:>12.3e} {rel:>12.3}");
    }
    let gm = geomean(&rels[strict]);
    println!(
        "\ngeomean relative throughput: {gm:.3}  (paper: avg slowdown ≈ 2.2×, i.e. ≈ {:.3})",
        1.0 / 2.2
    );
    let worst = rels[strict].iter().cloned().fold(f64::INFINITY, f64::min);
    println!(
        "worst-case slowdown: {:.1}×  (paper: up to 9.4×)",
        1.0 / worst
    );

    println!("\nFigure 8 — normalised throughput per persistence scheme");
    println!("({ops} memory ops per core; baseline = WriteBack = 1.0)\n");
    print_header("workload", &cols);
    for (j, (w, _)) in rows.iter().enumerate() {
        print!("{w:<12}");
        for scheme_rels in &rels {
            print!(" {:>12.3}", scheme_rels[j]);
        }
        println!();
    }
    println!();
    print!("{:<12}", "geomean");
    for scheme_rels in &rels {
        print!(" {:>12.3}", geomean(scheme_rels));
    }
    println!();
    println!("\npaper: Strict ≈ 1/2.2 = 0.455; TriadNVM-1 ≈ 0.953, -2 ≈ 0.908, -3 ≈ 0.865");

    println!("\nFigure 9 — NVM writes per scheme ({ops} memory ops per core)\n");
    print_header("workload", &cols);
    let mut totals = vec![0u64; schemes.len()];
    for (w, cells) in &rows {
        print!("{w:<12}");
        for (i, c) in cells.iter().enumerate() {
            totals[i] += c.nvm_writes;
            print!(" {:>12}", c.nvm_writes);
        }
        println!();
    }
    println!();
    print!("{:<12}", "total");
    for t in &totals {
        print!(" {t:>12}");
    }
    println!();
    println!(
        "\npaper: #writes increases with persistence level; TriadNVM ≈ baseline for most workloads"
    );

    println!("\nwear on the hottest NVM block (hashtable, {ops} ops):");
    println!(
        "{:<12} {:>12} {:>14} {:>12}",
        "scheme", "max writes", "blocks", "imbalance"
    );
    let (_, hashtable) = rows
        .iter()
        .find(|(w, _)| *w == "hashtable")
        .expect("hashtable is a figure workload");
    for (col, c) in cols.iter().zip(hashtable) {
        println!(
            "{col:<12} {:>12} {:>14} {:>12.1}",
            c.max_block_writes, c.blocks_touched, c.wear_imbalance
        );
    }
}
