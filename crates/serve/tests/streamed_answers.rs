//! Answers stream: a query's matches leave the server in bounded chunks
//! while the executor is still producing them, and the connection's
//! outbound queue never holds more than `OUT_QUEUE_BYTES` of them — a
//! million-match answer included, and a client that stops reading
//! mid-answer only stalls its own answer.

#![cfg(test)]

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use nok_core::{CoreResult, MatchSink, QueryMatch, QueryScratch, XmlDb};
use nok_pager::MemStorage;
use nok_serve::binproto::{self, BinClient, BinResponse, Request, MAGIC, VERSION};
use nok_serve::conn::{serve_connection, OUT_QUEUE_BYTES};
use nok_serve::{QueryService, ServiceConfig};

/// Children of the root in the test document; every one matches `/r/a`.
const RECORDS: usize = 1_050_000;
const QUERY: &str = "/r/a";

fn db() -> Arc<XmlDb<MemStorage>> {
    static DB: OnceLock<Arc<XmlDb<MemStorage>>> = OnceLock::new();
    Arc::clone(DB.get_or_init(|| {
        let mut xml = String::with_capacity(RECORDS * 4 + 8);
        xml.push_str("<r>");
        for _ in 0..RECORDS {
            xml.push_str("<a/>");
        }
        xml.push_str("</r>");
        Arc::new(XmlDb::build_in_memory(&xml).expect("build"))
    }))
}

/// Count and order-sensitive hash of an answer's rendered Dewey ids.
#[derive(Debug, PartialEq, Eq)]
struct Digest {
    count: u64,
    hash: u64,
}

impl Default for Digest {
    fn default() -> Self {
        Digest {
            count: 0,
            hash: 0xcbf2_9ce4_8422_2325,
        }
    }
}

impl Digest {
    fn add(&mut self, dewey: &str) {
        for b in dewey.bytes().chain([b';']) {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        self.count += 1;
    }
}

/// The offline answer, digested as the executor releases it: no match
/// vector, just as the server holds none.
impl MatchSink for Digest {
    fn put(&mut self, m: QueryMatch) -> CoreResult<()> {
        self.add(&m.dewey.to_string());
        Ok(())
    }
}

fn offline() -> Digest {
    let db = db();
    let planned = db
        .plan_query(QUERY, nok_core::QueryOptions::default())
        .expect("plan");
    let mut digest = Digest::default();
    db.execute_plan_into(&planned, &mut QueryScratch::new(), &mut digest)
        .expect("offline query");
    digest
}

/// A service over the shared document behind the `nokd` connection loop.
fn spawn_server() -> (Arc<QueryService<MemStorage>>, SocketAddr, Arc<AtomicBool>) {
    let svc = Arc::new(QueryService::start(
        db(),
        ServiceConfig {
            workers: 2,
            default_timeout: Duration::from_secs(120),
            ..ServiceConfig::default()
        },
    ));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let local = listener.local_addr().expect("local_addr");
    let stop = Arc::new(AtomicBool::new(false));
    let (svc2, stop2) = (Arc::clone(&svc), Arc::clone(&stop));
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            if stop2.load(Ordering::Acquire) {
                break;
            }
            let Ok(stream) = stream else { break };
            let (svc, stop) = (Arc::clone(&svc2), Arc::clone(&stop2));
            std::thread::spawn(move || {
                let _ = serve_connection(&stream, &svc, &stop, local);
            });
        }
    });
    (svc, local, stop)
}

/// Ask for the answer over a raw connection and digest it frame by frame,
/// calling `pause` after the first frame; returns the digest and the
/// number of `QueryPart` frames.
fn served(addr: SocketAddr, pause: impl FnOnce()) -> (Digest, usize) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut request = MAGIC.to_vec();
    request.push(VERSION);
    binproto::encode_request(
        &mut request,
        &Request::Query {
            id: 7,
            path: QUERY.into(),
            timeout_ms: None,
        },
    );
    stream.write_all(&request).expect("send");
    let mut r = BufReader::new(stream);
    let (mut digest, mut parts) = (Digest::default(), 0);
    let mut pause = Some(pause);
    loop {
        let (op, id, payload) = binproto::read_bin_frame(&mut r)
            .expect("read")
            .expect("EOF inside the answer");
        assert_eq!(id, 7);
        let (last, matches) = match binproto::decode_response(op, id, &payload).expect("decode") {
            BinResponse::QueryPart { matches, .. } => (false, matches),
            BinResponse::QueryOk { matches, .. } => (true, matches),
            other => panic!("unexpected response {other:?}"),
        };
        matches.iter().for_each(|m| digest.add(&m.dewey));
        if last {
            return (digest, parts);
        }
        parts += 1;
        if let Some(pause) = pause.take() {
            pause();
        }
    }
}

fn stop_server(addr: SocketAddr, stop: &AtomicBool) {
    stop.store(true, Ordering::Release);
    let _ = TcpStream::connect(addr);
}

#[test]
fn a_million_match_answer_streams_in_bounded_memory() {
    let want = offline();
    assert_eq!(want.count, RECORDS as u64);
    let (svc, addr, stop) = spawn_server();
    let (got, parts) = served(addr, || {});
    assert_eq!(got, want);
    let m = svc.metrics();
    assert!(parts > 50, "{parts} parts");
    assert_eq!(m.answer_chunks.load(Ordering::Relaxed), parts as u64);
    let hwm = m.out_queue_hwm.load(Ordering::Relaxed);
    assert!(
        hwm > 0 && hwm <= OUT_QUEUE_BYTES as u64,
        "high-water mark {hwm}"
    );
    assert_eq!(m.first_chunk.count(), 1);

    // The client's own reassembly gives the same answer.
    let mut client = BinClient::new(TcpStream::connect(addr).expect("connect")).expect("open");
    client
        .send(&Request::Query {
            id: 8,
            path: QUERY.into(),
            timeout_ms: None,
        })
        .expect("send");
    client.flush().expect("flush");
    match client.recv().expect("recv") {
        Some(BinResponse::QueryOk { id: 8, matches }) => {
            let mut digest = Digest::default();
            matches.iter().for_each(|m| digest.add(&m.dewey));
            assert_eq!(digest, want);
        }
        other => panic!("unexpected response {other:?}"),
    }
    stop_server(addr, &stop);
}

#[test]
fn a_slow_reader_stalls_its_answer_and_then_completes() {
    let want = offline();
    let (svc, addr, stop) = spawn_server();
    let (got, parts) = served(addr, || {
        // Stop reading mid-answer: the worker fills the socket buffers and
        // then the queue, and waits there.
        std::thread::sleep(Duration::from_millis(400));
    });
    assert_eq!(got, want);
    assert!(parts > 1);
    let hwm = svc.metrics().out_queue_hwm.load(Ordering::Relaxed);
    assert!(hwm <= OUT_QUEUE_BYTES as u64, "high-water mark {hwm}");
    stop_server(addr, &stop);
}

/// Version 1 sent `/dblp/article/author` on dblp-0.1 (34,289 matches) as a
/// 667,106-byte payload of decimal ids and addresses; front-coded keys
/// with no address must take at most 200,000 bytes, over however many
/// frames.
#[test]
fn the_largest_dblp_answer_fits_its_byte_budget() {
    let ds = nok_datagen::generate(nok_datagen::DatasetKind::Dblp, 0.1);
    let db = XmlDb::build_in_memory(&ds.xml).expect("build");
    let mut enc = binproto::AnswerEncoder::new(1);
    let (mut payload, mut frames) = (0, 0);
    let mut count = |frame: &[u8]| {
        payload += frame.len() - binproto::HEADER_LEN;
        frames += 1;
    };
    let matches = db.query("/dblp/article/author").expect("query");
    assert_eq!(matches.len(), 34_289);
    for m in &matches {
        if let Some(part) = enc.push(m.dewey.components()) {
            count(&part);
        }
    }
    count(&enc.finish());
    assert!(
        payload <= 200_000,
        "{payload} payload bytes in {frames} frames"
    );
}
