//! Ablation **A3**: streaming NoK matching (§4.2/§5 — the string
//! representation *is* the SAX stream, so the matcher runs over streaming
//! XML). Measures single-pass throughput of the streaming matcher against
//! build-then-query on the stored engine.
//!
//! ```text
//! cargo run -p nok-bench --release --bin ablation_stream -- [--scale 0.05]
//! ```

use std::time::Instant;

use nok_bench::Args;
use nok_core::{StreamMatcher, XmlDb};
use nok_datagen::{generate, workload, DatasetKind};

fn main() {
    let args = Args::parse();
    let scale = args.scale();
    println!("A3: streaming NoK vs stored NoK");
    println!(
        "{:<9} {:<4} {:>9} {:>12} {:>12} {:>10}",
        "file", "q", "hits", "stream (s)", "stored (s)", "MB/s strm"
    );
    for kind in [
        DatasetKind::Address,
        DatasetKind::Dblp,
        DatasetKind::Treebank,
    ] {
        let ds = generate(kind, scale);
        let mb = ds.xml.len() as f64 / 1e6;
        // Stored engine build once (amortizable, unlike per-pass streaming).
        let db = XmlDb::build_in_memory(&ds.xml).expect("build");
        for (i, spec) in workload(kind) {
            let Some(spec) = spec else { continue };
            // Every pattern without a `following::` edge streams.
            let path = &spec.path;
            let t = Instant::now();
            let hits = match StreamMatcher::run_str(path, &ds.xml) {
                Ok(h) => h,
                Err(_) => continue, // a `following::` edge: not streamable
            };
            let stream_time = t.elapsed();
            let t = Instant::now();
            let stored = db.query(path).expect("query");
            let stored_time = t.elapsed();
            assert_eq!(
                hits.len(),
                stored.len(),
                "stream/stored disagree on {} Q{i}",
                kind.name()
            );
            println!(
                "{:<9} Q{:<3} {:>9} {:>12.4} {:>12.4} {:>10.1}",
                kind.name(),
                i,
                hits.len(),
                stream_time.as_secs_f64(),
                stored_time.as_secs_f64(),
                mb / stream_time.as_secs_f64()
            );
        }
        println!();
    }
}
