//! NoK pattern matching over streaming XML.
//!
//! The paper observes (§4.2) that its physical string representation *is*
//! the SAX stream — every open tag is a Σ character, every close tag a `)`
//! — so the NoK matching algorithm carries over to streams, using the
//! "naïve approach" for starting points (§3): try to start a match at every
//! node whose tag matches the pattern root.
//!
//! [`StreamMatcher`] consumes [`nok_xml::Event`]s one at a time and feeds
//! them to the same one-walk matcher the stored engine runs
//! ([`crate::scan::ScanMatcher`]) — two event sources, one matcher, one
//! rule for the dead subtrees it passes over by counting start and end
//! tags. A stream has no depth bounds to fix a `//` pattern's root floor,
//! so only a `/`-anchored pattern skips.
//! A start tag opens a node (its attributes open and close as leading
//! children, as in the storage model), an end tag closes it with the text
//! collected in between as its value. Every NoK fragment rides the one
//! walk the stream is, its `//` cut edges decided at their sources' close,
//! and a returning match is emitted as soon as every node above it up to
//! its fragment root has closed successfully and the chain filter
//! (`core::scan`) has passed it, so memory is bounded by the largest
//! candidate subtree's matches (Proposition 1's footprint), never by the
//! document.
//!
//! Every pattern streams except one with a `following::` cut edge, which
//! is rejected with [`CoreError::StreamUnsupported`]: deciding its source
//! needs a walk over what comes after it, and a stream cannot be walked
//! twice. That needs the stored engine.

use std::collections::HashMap;
use std::sync::Arc;

use nok_xml::Event;

use crate::dewey::Dewey;
use crate::error::{CoreError, CoreResult};
use crate::pattern::{PathExpr, ValueCmp};
use crate::pattern_tree::{CutKind, PatternTree, DOC_NODE};
use crate::scan::{
    plan_walks, ChainFilter, NodeTests, ScanHit, ScanMatcher, ScanPattern, ScanSource,
};

/// One match emitted by the streaming matcher.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamHit {
    /// Global Dewey id of the matched node.
    pub dewey: Dewey,
    /// Tag name of the matched node.
    pub tag: String,
}

/// The SAX stream as a [`ScanSource`]: every value constraint is decided
/// at close, against the text the element (or attribute) turned out to
/// carry.
struct SaxSource {
    /// Value constraints per local pattern node.
    cmps: Vec<Vec<ValueCmp>>,
    /// Value of the node about to close.
    value: Option<String>,
}

impl ScanSource for SaxSource {
    type Payload = String;
    type Set = u64;

    fn admits(&self) -> u64 {
        0
    }

    fn confirms(&self) -> u64 {
        self.cmps
            .iter()
            .enumerate()
            .fold(0, |a, (i, c)| a | u64::from(!c.is_empty()) << i)
    }

    fn admit(&mut self, cand: u64, _path: &[u32]) -> CoreResult<u64> {
        Ok(cand)
    }

    fn confirm(&mut self, p: usize, _path: &[u32]) -> CoreResult<bool> {
        let cmps = self.cmps.get(p).map_or(&[][..], Vec::as_slice);
        Ok(self
            .value
            .as_deref()
            .is_some_and(|v| cmps.iter().all(|c| c.eval(v))))
    }
}

/// Incremental streaming matcher for one path expression.
pub struct StreamMatcher {
    matcher: ScanMatcher<SaxSource>,
    /// Which released hits are answers.
    filter: ChainFilter,
    /// Name tests passed, per distinct node name seen.
    tests: HashMap<String, NodeTests<u64>>,
    /// Direct text of the open elements.
    text: Vec<String>,
    /// Event counter: the linear positions of the nodes the matcher sees.
    pos: u64,
    /// Elements of a dead subtree still open (see `ScanMatcher::open`):
    /// its events are passed over, without a matcher call, until it closes.
    skip: usize,
}

impl StreamMatcher {
    /// Compile a streaming matcher. Fails with
    /// [`CoreError::StreamUnsupported`] for a pattern with a `following::`
    /// cut edge, a pattern without steps, and one too large to match.
    pub fn new(path: &str) -> CoreResult<StreamMatcher> {
        let expr = PathExpr::parse(path)?;
        let tree = PatternTree::from_path(&expr)?;
        let part = tree.partition();
        if (part.cut_edges.iter()).any(|c| c.kind == CutKind::Following) {
            return Err(CoreError::StreamUnsupported(
                "a following:: cut edge needs a second walk".into(),
            ));
        }
        if part.fragments.len() == 1 && tree.local_children(DOC_NODE).next().is_none() {
            return Err(CoreError::StreamUnsupported("pattern has no steps".into()));
        }
        let walks = plan_walks(&tree, &part);
        let walk = walks
            .last()
            .ok_or_else(|| CoreError::StreamUnsupported("pattern has no walk".into()))?;
        let pat = ScanPattern::compile(&tree, &part, walk, None, &[])
            .map_err(|e| CoreError::StreamUnsupported(e.to_string()))?;
        let cmps = pat
            .nodes
            .iter()
            .map(|&n| tree.nodes[n].value_cmps.clone())
            .collect();
        Ok(StreamMatcher {
            matcher: ScanMatcher::new(Arc::new(pat), SaxSource { cmps, value: None }),
            filter: ChainFilter::new(&part, walk),
            tests: HashMap::new(),
            text: Vec::new(),
            pos: 0,
            skip: 0,
        })
    }

    /// Returning matches held back because a node above them is still open.
    pub fn buffered(&self) -> usize {
        self.matcher.buffered()
    }

    /// Open a node: whether it is live.
    fn open(&mut self, name: &str) -> CoreResult<bool> {
        let tests = match self.tests.get(name) {
            Some(t) => *t,
            None => {
                let t = NodeTests::of(&self.matcher.pat, name);
                self.tests.insert(name.to_string(), t);
                t
            }
        };
        self.pos += 1;
        self.matcher
            .open::<true>(&tests, self.pos, || name.to_string())
    }

    fn close(&mut self, value: Option<String>) -> CoreResult<()> {
        self.matcher.src.value = value;
        self.pos += 1;
        self.matcher.close::<true>(self.pos)
    }

    /// The answers released since the last call.
    fn released(&mut self) -> Vec<StreamHit> {
        let filter = &mut self.filter;
        (self.matcher.done.drain(..))
            .filter(|h| filter.answer(h))
            .map(|h: ScanHit<String>| StreamHit {
                dewey: h.dewey,
                tag: h.payload,
            })
            .collect()
    }

    /// Feed one event; returns matches completed by this event.
    pub fn on_event(&mut self, ev: &Event) -> CoreResult<Vec<StreamHit>> {
        if self.skip > 0 {
            match ev {
                Event::Start { .. } => self.skip += 1,
                Event::End { .. } => self.skip -= 1,
                _ => {}
            }
            return Ok(Vec::new());
        }
        match ev {
            Event::Start { name, attrs } => {
                if !self.open(name)? {
                    self.skip = 1;
                    return Ok(Vec::new());
                }
                self.text.push(String::new());
                // Attribute nodes occupy the leading child indexes in the
                // storage model, so element children start after them.
                for a in attrs {
                    if self.open(&format!("@{}", a.name))? {
                        self.close(Some(a.value.clone()))?;
                    }
                }
            }
            Event::End { .. } => {
                let text = self.text.pop().unwrap_or_default();
                self.close((!text.trim().is_empty()).then_some(text))?;
            }
            Event::Text(t) => {
                if let Some(buf) = self.text.last_mut() {
                    buf.push_str(t);
                }
            }
            Event::Comment(_) | Event::ProcessingInstruction { .. } => {}
        }
        Ok(self.released())
    }

    /// End of the stream: the matches only the end of the document could
    /// decide (patterns whose root holds predicates beside the returning
    /// path). Fails if elements are still open.
    pub fn finish(&mut self) -> CoreResult<Vec<StreamHit>> {
        if self.skip > 0 {
            return Err(CoreError::Corrupt(format!(
                "stream ends with {} elements still open",
                self.skip
            )));
        }
        self.matcher.finish()?;
        Ok(self.released())
    }

    /// Convenience: run a whole event stream and collect every hit.
    pub fn run<I>(path: &str, events: I) -> CoreResult<Vec<StreamHit>>
    where
        I: IntoIterator<Item = nok_xml::XmlResult<Event>>,
    {
        let mut m = StreamMatcher::new(path)?;
        let mut hits = Vec::new();
        for ev in events {
            hits.extend(m.on_event(&ev?)?);
        }
        hits.extend(m.finish()?);
        Ok(hits)
    }

    /// Convenience: run over an XML string.
    pub fn run_str(path: &str, xml: &str) -> CoreResult<Vec<StreamHit>> {
        Self::run(path, nok_xml::Reader::content_only(xml))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::XmlDb;

    const BIB: &str = r#"<bib>
      <book year="1994"><author><last>Stevens</last></author><price>65.95</price></book>
      <book year="2000"><author><last>Abiteboul</last></author><price>39.95</price></book>
      <book year="1999"><editor><last>Gerbarg</last></editor><price>129.95</price></book>
    </bib>"#;

    fn stream_deweys(path: &str, xml: &str) -> Vec<String> {
        StreamMatcher::run_str(path, xml)
            .unwrap()
            .iter()
            .map(|h| h.dewey.to_string())
            .collect()
    }

    fn engine_deweys(path: &str, xml: &str) -> Vec<String> {
        let db = XmlDb::build_in_memory(xml).unwrap();
        db.query(path)
            .unwrap()
            .iter()
            .map(|m| m.dewey.to_string())
            .collect()
    }

    #[test]
    fn stream_equals_engine_on_bib() {
        for q in [
            "/bib/book",
            "/bib/book/price",
            "//book",
            "//book[price<100]",
            r#"//book[author/last="Stevens"]"#,
            "//last",
            "//book/@year",
            "/bib/book[editor]/price",
            "//nosuch",
            "/bib//last",
            "//book[.//last]/price",
            "//book//last",
        ] {
            let mut s = stream_deweys(q, BIB);
            let e = engine_deweys(q, BIB);
            s.sort();
            let mut e_sorted = e.clone();
            e_sorted.sort();
            assert_eq!(s, e_sorted, "query {q}");
        }
    }

    #[test]
    fn nested_candidates_no_duplicates() {
        let xml = "<b><x/><b><x/><b><x/></b></b></b>";
        let hits = stream_deweys("//b/x", xml);
        assert_eq!(hits.len(), 3);
        let unique: std::collections::HashSet<_> = hits.iter().collect();
        assert_eq!(unique.len(), 3);
    }

    #[test]
    fn unsupported_patterns_rejected() {
        for q in [
            "/a/b/following::c",
            "//a[following::b]",
            "//a[.//b/following::c]",
        ] {
            assert!(
                matches!(StreamMatcher::new(q), Err(CoreError::StreamUnsupported(_))),
                "{q}"
            );
        }
        // Interior `//`, in the path or in a predicate, streams.
        for q in ["/a//b", "//a//b", "/a[b//c]"] {
            assert!(StreamMatcher::new(q).is_ok(), "{q}");
        }
    }

    #[test]
    fn incremental_emission_order() {
        // Matches must be emitted as soon as the candidate subtree closes.
        let mut m = StreamMatcher::new("//b").unwrap();
        let mut emitted = Vec::new();
        for ev in nok_xml::Reader::content_only("<a><b/><c/><b/></a>") {
            emitted.push(m.on_event(&ev.unwrap()).unwrap().len());
        }
        // Events: a, b, /b, c, /c, b, /b, /a — hits arrive on each /b.
        assert_eq!(emitted, vec![0, 0, 1, 0, 0, 0, 1, 0]);
    }

    #[test]
    fn memory_is_bounded_by_candidate_subtrees() {
        // With a '/' anchor on a leaf-level tag, nothing before the
        // candidate is buffered.
        let mut m = StreamMatcher::new("//leaf").unwrap();
        let mut max_buffered = 0;
        for ev in nok_xml::Reader::content_only(
            "<r><big><x/><x/><x/><x/></big><leaf/><big><x/></big><leaf/></r>",
        ) {
            m.on_event(&ev.unwrap()).unwrap();
            max_buffered = max_buffered.max(m.buffered());
        }
        assert_eq!(max_buffered, 1, "only the candidate itself is buffered");
    }

    #[test]
    fn following_sibling_is_local_and_streams() {
        let xml = "<a><c/><b/><c/><c/></a>";
        let mut hits = stream_deweys("/a/b/following-sibling::c", xml);
        hits.sort();
        let mut expect = engine_deweys("/a/b/following-sibling::c", xml);
        expect.sort();
        assert_eq!(hits, expect);
    }
}
