//! Regenerates **Table 1** of the paper: statistics of the five datasets
//! and the sizes of the string representation and the three B+ tree
//! indexes.
//!
//! ```text
//! cargo run -p nok-bench --release --bin table1 -- [--scale 0.05] [--datasets author,dblp]
//! ```

use nok_bench::{filter_datasets, Args};
use nok_core::{DocStats, XmlDb};
use nok_datagen::all_datasets;

fn main() {
    let args = Args::parse();
    let scale = args.scale();
    println!("Table 1: dataset statistics (synthetic mirrors, scale={scale})");
    println!("{}", DocStats::header());
    let datasets = filter_datasets(all_datasets(scale), &args.dataset_filter());
    for ds in datasets {
        let db = match XmlDb::build_in_memory(&ds.xml) {
            Ok(db) => db,
            Err(e) => {
                eprintln!("{}: build failed: {e}", ds.kind.name());
                std::process::exit(1);
            }
        };
        let stats = match db.stats(ds.xml.len() as u64) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{}: stats failed: {e}", ds.kind.name());
                std::process::exit(1);
            }
        };
        println!("{}", stats.row(ds.kind.name()));
    }
    println!();
    println!(
        "(|tree| is the measured string representation: page headers plus \
         bit-packed content; \"3 B/node\" is the paper's accounting for the \
         same tree. Compare either against size for the paper's 1/20–1/100 \
         claim.)"
    );
}
