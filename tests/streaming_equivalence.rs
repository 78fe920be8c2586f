//! Streaming ≡ stored: for every streamable workload query on every
//! dataset, the streaming matcher must emit exactly the stored engine's
//! result set (the paper's §4.2 claim that the storage format *is* the SAX
//! stream, made checkable).

use nok_core::{CoreError, StreamMatcher, XmlDb};
use nok_datagen::{generate, workload, DatasetKind};

fn check(kind: DatasetKind) {
    let ds = generate(kind, 0.01);
    let db = XmlDb::build_in_memory(&ds.xml).expect("build");
    let mut streamable = 0;
    for (i, spec) in workload(kind) {
        let Some(spec) = spec else { continue };
        for path in [&spec.path, &spec.descendant_variant] {
            let hits = match StreamMatcher::run_str(path, &ds.xml) {
                Ok(h) => h,
                Err(CoreError::StreamUnsupported(_)) => continue,
                Err(e) => panic!("stream error on {path}: {e}"),
            };
            streamable += 1;
            let mut stream_deweys: Vec<String> = hits.iter().map(|h| h.dewey.to_string()).collect();
            stream_deweys.sort();
            let mut stored: Vec<String> = db
                .query(path)
                .expect("stored query")
                .iter()
                .map(|m| m.dewey.to_string())
                .collect();
            stored.sort();
            assert_eq!(
                stream_deweys,
                stored,
                "stream != stored on {} Q{i}: {path}",
                kind.name()
            );
        }
    }
    assert!(
        streamable > 8,
        "{}: expected most workload queries to stream, got {streamable}",
        kind.name()
    );
}

#[test]
fn author_streaming_equivalence() {
    check(DatasetKind::Author);
}

#[test]
fn catalog_streaming_equivalence() {
    check(DatasetKind::Catalog);
}

#[test]
fn treebank_streaming_equivalence() {
    check(DatasetKind::Treebank);
}

#[test]
fn dblp_streaming_equivalence() {
    check(DatasetKind::Dblp);
}

/// Incremental feeding must agree with whole-document runs.
#[test]
fn incremental_matches_batch() {
    let ds = generate(DatasetKind::Address, 0.01);
    let query = r#"//address[keyword="needle-mod"]/city"#;
    let batch = StreamMatcher::run_str(query, &ds.xml).expect("batch");
    let mut m = StreamMatcher::new(query).expect("compile");
    let mut incremental = Vec::new();
    for ev in nok_xml::Reader::content_only(&ds.xml) {
        incremental.extend(m.on_event(&ev.expect("event")).expect("on_event"));
    }
    assert_eq!(incremental.len(), batch.len());
    assert_eq!(
        incremental
            .iter()
            .map(|h| h.dewey.to_string())
            .collect::<Vec<_>>(),
        batch
            .iter()
            .map(|h| h.dewey.to_string())
            .collect::<Vec<_>>()
    );
}

/// Interior `//` streams: every NoK fragment rides the one walk the stream
/// is, and the answer comes out in the stored engine's document order.
#[test]
fn interior_descendant_patterns_stream() {
    let dblp = generate(DatasetKind::Dblp, 0.01).xml;
    let cuts = "<r><a><b/><x><c/></x></a><a><b/></a><c/><a><x><x><c/></x></x><b/><b/></a>\
                <a><a><b/><c/></a><b/></a></r>";
    for (xml, path) in [
        (cuts, "//a[.//c]/b"),
        (cuts, "//a//x//c"),
        (dblp.as_str(), "//article[.//author]//title"),
        (dblp.as_str(), "//dblp//article//author"),
        (dblp.as_str(), "/dblp//article[.//year]//author"),
    ] {
        let db = XmlDb::build_in_memory(xml).expect("build");
        let stored: Vec<String> = (db.query(path).expect("stored query").iter())
            .map(|m| m.dewey.to_string())
            .collect();
        let streamed: Vec<String> = (StreamMatcher::run_str(path, xml).expect("stream").iter())
            .map(|h| h.dewey.to_string())
            .collect();
        assert!(!stored.is_empty(), "{path}");
        assert_eq!(streamed, stored, "{path}");
    }
    // What follows a source needs a second walk, which a stream has not.
    assert!(matches!(
        StreamMatcher::new("//article/following::title"),
        Err(CoreError::StreamUnsupported(_))
    ));
}
