//! The executor's answer leaves through a `MatchSink` as the pass decides
//! it: the heavy dblp queries, in both their `/` (one fragment) and `//`
//! (a bare document fragment above it) forms, put their first match while
//! most of the page chain is still unread, and every workload query's
//! streamed answer is the one `execute_plan` collects.

#![cfg(test)]

use nok_core::{CoreResult, MatchSink, QueryMatch, QueryOptions, QueryScratch, XmlDb};
use nok_datagen::{generate, workload, DatasetKind};
use nok_pager::MemStorage;

/// The heavy queries of the dblp workload, in both forms.
const HEAVY: [&str; 8] = [
    "/dblp/article/author",
    "//article/author",
    "/dblp/article[author][title]",
    "//article[author][title]",
    "/dblp/article[keyword=\"needle-low\"]/author",
    "//article[keyword=\"needle-low\"]/author",
    "/dblp/article[keyword=\"needle-low\"][note=\"needle-low\"]",
    "//article[keyword=\"needle-low\"][note=\"needle-low\"]",
];

/// Records the answer and how many entries the pool had seen read when
/// the first match arrived.
struct Watch<'a> {
    db: &'a XmlDb<MemStorage>,
    first_at: Option<u64>,
    got: Vec<QueryMatch>,
}

impl MatchSink for Watch<'_> {
    fn put(&mut self, m: QueryMatch) -> CoreResult<()> {
        let read = self.db.store().pool().stats().entries_examined();
        self.first_at.get_or_insert(read);
        self.got.push(m);
        Ok(())
    }
}

#[test]
fn answers_leave_while_the_pass_reads_pages() {
    let db = XmlDb::build_in_memory(&generate(DatasetKind::Dblp, 0.02).xml).unwrap();
    let mut scratch = QueryScratch::new();
    let mut paths: Vec<String> = HEAVY.iter().map(|p| p.to_string()).collect();
    for (_, spec) in workload(DatasetKind::Dblp) {
        let Some(spec) = spec else { continue };
        paths.push(spec.path.clone());
        paths.push(spec.descendant_variant.clone());
    }
    for (i, path) in paths.iter().enumerate() {
        let planned = db.plan_query(path, QueryOptions::default()).unwrap();
        let mut want = Vec::new();
        db.execute_plan(&planned, &mut scratch, &mut want).unwrap();

        let before = db.store().pool().stats().entries_examined();
        let mut watch = Watch {
            db: &db,
            first_at: None,
            got: Vec::new(),
        };
        db.execute_plan_into(&planned, &mut scratch, &mut watch)
            .unwrap();
        let read = db.store().pool().stats().entries_examined() - before;
        assert_eq!(watch.got, want, "{path}");
        if i < HEAVY.len() {
            assert!(want.len() > 100, "{path}: {} matches", want.len());
            let first = watch.first_at.unwrap() - before;
            assert!(
                first * 4 < read,
                "{path}: first match after {first} of {read} entries"
            );
        }
    }
}
