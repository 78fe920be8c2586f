//! Differential battery across datasets and page sizes: for every paper
//! dataset at every page size, the store must return results byte-identical
//! to the naive DOM evaluator on the dataset's whole query workload, and
//! pass the strict format analyzer.

use nok_core::naive::NaiveEvaluator;
use nok_core::{BuildOptions, XmlDb};
use nok_datagen::{generate, workload, DatasetKind};
use nok_xml::Document;

const PAGE_SIZES: [usize; 3] = [256, 1024, 4096];

#[test]
fn every_dataset_and_page_size_agrees_with_the_dom_oracle() {
    for kind in DatasetKind::ALL {
        let ds = generate(kind, 0.01);
        let doc = Document::parse(&ds.xml).expect("dataset XML parses");
        let oracle = NaiveEvaluator::new(&doc);
        let queries: Vec<String> = workload(kind)
            .into_iter()
            .filter_map(|(_, spec)| spec)
            .flat_map(|s| {
                if s.descendant_variant == s.path {
                    vec![s.path]
                } else {
                    vec![s.path, s.descendant_variant]
                }
            })
            .collect();
        assert!(!queries.is_empty(), "{}: empty workload", kind.name());

        for page_size in PAGE_SIZES {
            let db =
                XmlDb::build_in_memory_with(&ds.xml, BuildOptions::default(), page_size).unwrap();
            let what = format!("{}@{page_size}", kind.name());

            for q in &queries {
                let want: Vec<String> = oracle
                    .eval_str(q)
                    .unwrap()
                    .iter()
                    .map(|n| oracle.dewey(n).to_string())
                    .collect();
                let got: Vec<String> = db
                    .query(q)
                    .unwrap()
                    .iter()
                    .map(|m| m.dewey.to_string())
                    .collect();
                assert_eq!(got, want, "{what}: store vs naive on {q}");
            }

            let rep = nok_verify::verify_db(&db, nok_verify::VerifyOptions::strict());
            assert!(rep.is_clean(), "{what}: strict analyzer: {rep}");
        }
    }
}
