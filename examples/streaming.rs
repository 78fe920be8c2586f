//! Streaming NoK matching (§4.2/§5 of the paper): the physical string
//! representation *is* the SAX stream, so the same matcher processes
//! streaming XML with memory bounded by the candidate subtree — not the
//! document.
//!
//! ```text
//! cargo run -p nok-bench --example streaming
//! ```

use nok_core::StreamMatcher;
use nok_xml::Reader;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Pretend this arrives as an unbounded feed of events.
    let feed = r#"<feed>
      <entry lang="en"><title>storage engines</title><score>9</score></entry>
      <entry lang="de"><title>b-trees</title><score>3</score></entry>
      <entry lang="en"><title>twig joins</title><score>7</score></entry>
      <entry lang="en"><title>dewey ids</title><score>2</score></entry>
    </feed>"#;

    let query = r#"//entry[@lang="en"][score>5]/title"#;
    println!("streaming query: {query}\n");

    let mut matcher = StreamMatcher::new(query)?;
    let mut event_no = 0u32;
    for ev in Reader::content_only(feed) {
        let ev = ev?;
        event_no += 1;
        // Hits are emitted the moment a candidate subtree closes — no
        // buffering of the whole document.
        for hit in matcher.on_event(&ev)? {
            println!(
                "event #{event_no}: matched <{}> at dewey {}",
                hit.tag, hit.dewey
            );
        }
    }

    // A `following::` edge needs a walk over what follows its source, and
    // a stream can be walked only once; the API says so explicitly.
    match StreamMatcher::new("//a/following::b") {
        Err(e) => println!("\n//a/following::b rejected as expected: {e}"),
        Ok(_) => unreachable!("following:: is not streamable"),
    }
    Ok(())
}
