//! End-to-end differential for the wire protocol: for every paper
//! dataset, the full Q1–Q12 workload (plus `//` descendant variants)
//! served over TCP with deep pipelining must render byte-identically to
//! offline single-threaded evaluation of the same queries.
//!
//! This is the in-process sibling of the `nokq`-vs-`--offline` diff the CI
//! harness runs — same canonical `path<TAB>count<TAB>dewey;...` lines,
//! same oracle.

#![cfg(test)]

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use nok_core::XmlDb;
use nok_datagen::{generate, DatasetKind};
use nok_pager::MemStorage;
use nok_serve::binproto::{BinClient, BinResponse};
use nok_serve::conn::serve_connection;
use nok_serve::{result_line, QueryService, Request, ServiceConfig, WireMatch};

const PIPELINE_DEPTH: usize = 8;

fn workload_paths(kind: DatasetKind) -> Vec<String> {
    let mut paths = Vec::new();
    for (_, spec) in nok_datagen::workload(kind) {
        let Some(spec) = spec else { continue };
        paths.push(spec.path.clone());
        if spec.descendant_variant != spec.path {
            paths.push(spec.descendant_variant.clone());
        }
    }
    paths
}

fn render(db: &XmlDb<MemStorage>, path: &str) -> String {
    let matches = db.query(path).expect("offline query failed");
    let wire: Vec<WireMatch> = matches
        .iter()
        .map(|m| WireMatch {
            dewey: m.dewey.to_string(),
            addr: m.addr.to_string(),
        })
        .collect();
    result_line(path, &wire)
}

/// Start a TCP acceptor (the same `conn::serve_connection` loop `nokd`
/// runs) over a service; returns the address and a stop flag.
fn spawn_server(svc: Arc<QueryService<MemStorage>>) -> (SocketAddr, Arc<AtomicBool>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let local = listener.local_addr().expect("local_addr");
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            if stop2.load(Ordering::Acquire) {
                break;
            }
            let Ok(stream) = stream else { break };
            let svc = Arc::clone(&svc);
            let stop = Arc::clone(&stop2);
            std::thread::spawn(move || {
                let _ = serve_connection(&stream, &svc, &stop, local);
            });
        }
    });
    (local, stop)
}

/// Run `queries` over one pipelined binary connection (window of
/// `depth`), reordering responses by request id — the exact strategy
/// `nokq --pipeline N` uses.
fn run_pipelined(addr: SocketAddr, queries: &[String], depth: usize) -> Vec<String> {
    let mut client = BinClient::new(TcpStream::connect(addr).expect("connect")).expect("preamble");
    let mut lines: Vec<Option<String>> = vec![None; queries.len()];
    let mut next = 0usize;
    let mut outstanding = 0usize;
    let mut completed = 0usize;
    while completed < queries.len() {
        while next < queries.len() && outstanding < depth {
            client
                .send(&Request::Query {
                    id: next as u64 + 1,
                    path: queries[next].clone(),
                    timeout_ms: None,
                })
                .expect("send");
            next += 1;
            outstanding += 1;
        }
        client.flush().expect("flush");
        let resp = client.recv().expect("recv").expect("early EOF");
        match resp {
            BinResponse::QueryOk { id, matches } => {
                let idx = id as usize - 1;
                assert!(lines[idx].is_none(), "duplicate response for id {id}");
                lines[idx] = Some(result_line(&queries[idx], &matches));
            }
            other => panic!("unexpected response {other:?}"),
        }
        outstanding -= 1;
        completed += 1;
    }
    lines
        .into_iter()
        .map(|l| l.expect("missing line"))
        .collect()
}

/// All five paper datasets: deep-pipelined binary serving must be
/// byte-identical to offline evaluation, query for query.
#[test]
fn pipelined_binary_matches_offline_on_all_datasets() {
    for kind in DatasetKind::ALL {
        let ds = generate(kind, 0.005);
        let db = Arc::new(XmlDb::build_in_memory(&ds.xml).expect("build"));
        let paths = workload_paths(kind);
        let baseline: Vec<String> = paths.iter().map(|p| render(&db, p)).collect();

        let svc = Arc::new(QueryService::start(
            Arc::clone(&db),
            ServiceConfig {
                workers: 4,
                queue_cap: 64,
                default_timeout: Duration::from_secs(60),
                ..ServiceConfig::default()
            },
        ));
        let (addr, stop) = spawn_server(Arc::clone(&svc));

        let served = run_pipelined(addr, &paths, PIPELINE_DEPTH);
        for (i, (got, want)) in served.iter().zip(baseline.iter()).enumerate() {
            assert_eq!(
                got,
                want,
                "{}: pipelined binary diverged from offline on {}",
                kind.name(),
                paths[i]
            );
        }

        // Depth 1 (strict request/response over the binary wire) must give
        // the same bytes again.
        let serial = run_pipelined(addr, &paths, 1);
        assert_eq!(serial, baseline, "{}: depth-1 binary diverged", kind.name());

        stop.store(true, Ordering::Release);
        let _ = TcpStream::connect(addr);
    }
}

/// Two pipelined connections hammering the same service concurrently must
/// each see the oracle's bytes — responses may interleave arbitrarily
/// inside each connection, but ids keep them straight.
#[test]
fn concurrent_pipelined_connections_stay_correct() {
    let ds = generate(DatasetKind::Dblp, 0.005);
    let db = Arc::new(XmlDb::build_in_memory(&ds.xml).expect("build"));
    let paths = workload_paths(DatasetKind::Dblp);
    let baseline: Vec<String> = paths.iter().map(|p| render(&db, p)).collect();

    let svc = Arc::new(QueryService::start(
        Arc::clone(&db),
        ServiceConfig {
            workers: 4,
            queue_cap: 128,
            default_timeout: Duration::from_secs(60),
            ..ServiceConfig::default()
        },
    ));
    let (addr, stop) = spawn_server(Arc::clone(&svc));

    let threads: Vec<_> = (0..4)
        .map(|_| {
            let paths = paths.clone();
            let baseline = baseline.clone();
            std::thread::spawn(move || {
                for round in 0..3 {
                    let depth = [2, PIPELINE_DEPTH, 32][round % 3];
                    let got = run_pipelined(addr, &paths, depth);
                    assert_eq!(got, baseline, "depth {depth} diverged");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread panicked");
    }

    stop.store(true, Ordering::Release);
    let _ = TcpStream::connect(addr);
}
