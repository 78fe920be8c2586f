//! Regenerates the §4.2 measured claims:
//!
//! * **C1** — "the string representation of the tree structure is only
//!   about 1/20 to 1/100 of the size of the XML document";
//! * **C2** — the page-capacity formula `C = (B(1−r) − V − I) / (S + P)`
//!   gives ≈1000–3000 nodes per page for reasonable parameters.
//!
//! ```text
//! cargo run -p nok-bench --release --bin compression -- [--scale 0.05]
//! ```

use nok_bench::{filter_datasets, Args};
use nok_core::page;
use nok_core::XmlDb;
use nok_datagen::all_datasets;

fn main() {
    let args = Args::parse();
    let scale = args.scale();

    println!("C1: structure compression ratio (document bytes per string byte)");
    println!(
        "{:<10} {:>12} {:>12} {:>8} {:>12} {:>8}",
        "data set", "xml bytes", "|tree| bytes", "ratio", "3 B/node", "ratio"
    );
    for ds in filter_datasets(all_datasets(scale), &args.dataset_filter()) {
        let db = XmlDb::build_in_memory(&ds.xml).expect("build");
        let stats = db.stats(ds.xml.len() as u64).expect("stats");
        println!(
            "{:<10} {:>12} {:>12} {:>7.1}x {:>12} {:>7.1}x",
            ds.kind.name(),
            stats.xml_bytes,
            stats.tree_bytes,
            stats.structure_ratio(),
            stats.paper_tree_bytes(),
            stats.xml_bytes as f64 / stats.paper_tree_bytes().max(1) as f64
        );
    }

    println!();
    println!("C2: page capacity C = (B(1-r) - V - I) / (S + P)  [paper: ~1000-3000]");
    println!("{:>8} {:>8} {:>8}", "B", "r", "C");
    for &page_size in &[2048usize, 4096, 8192, 16384] {
        for &reserve in &[0.0, 0.1, 0.2, 0.3] {
            println!(
                "{:>8} {:>8.1} {:>8}",
                page_size,
                reserve,
                page::capacity(page_size, reserve)
            );
        }
    }
    println!();
    println!(
        "(paper's example: B=4096, r=0.2 -> C = {}; \"the number of nodes in a \
         page is around 1000\")",
        page::capacity(4096, 0.2)
    );
}
