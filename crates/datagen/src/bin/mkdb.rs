//! `mkdb` — materialize a synthetic dataset as an on-disk database.
//!
//! Usage: `mkdb <dataset> <scale> <out-dir>` where `<dataset>` is one of
//! author, address, catalog, treebank, dblp. Used by CI to produce corpora
//! for `nokfsck` and `nokd`.

use std::process::ExitCode;

use nok_core::XmlDb;
use nok_datagen::dataset_by_name;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [name, scale, dir] = args.as_slice() else {
        eprintln!("usage: mkdb <dataset> <scale> <out-dir>");
        return ExitCode::from(2);
    };
    let Ok(scale) = scale.parse::<f64>() else {
        eprintln!("mkdb: scale must be a number, got {scale}");
        return ExitCode::from(2);
    };
    let Some(ds) = dataset_by_name(name, scale) else {
        eprintln!("mkdb: unknown dataset {name} (author|address|catalog|treebank|dblp)");
        return ExitCode::from(2);
    };
    match XmlDb::create_on_disk(dir, &ds.xml).and_then(|db| db.flush()) {
        Ok(()) => {
            println!(
                "{dir}: {} ({} records, {} bytes of XML)",
                ds.kind.name(),
                ds.records,
                ds.xml.len()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("mkdb: build failed: {e}");
            ExitCode::from(1)
        }
    }
}
