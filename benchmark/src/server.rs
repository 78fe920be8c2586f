//! The serving side and the client side of a read workload, both in this
//! process: the acceptor runs the same `serve_connection` loop `nokd` runs,
//! and the clients speak the pipelined binary protocol to it over loopback
//! TCP, so every latency is what a remote caller would see.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use nok_pager::FileStorage;
use nok_serve::binproto::{BinClient, BinResponse};
use nok_serve::conn::serve_connection;
use nok_serve::{QueryService, Request, ServiceConfig};

use crate::corpus::{answer_hash, Expected};
use crate::ops::{Corpus, Expect, ReadOp};
use crate::util::Rng;

pub type Service = QueryService<FileStorage>;

/// Connections, and as many workers: half the cores each, between 1 and 4.
pub fn client_count() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    (cores / 2).clamp(1, 4)
}

/// The shipped service configuration with the worker count of this host.
pub fn service_config() -> ServiceConfig {
    ServiceConfig {
        workers: client_count(),
        ..ServiceConfig::default()
    }
}

/// A TCP acceptor over one service, as in `nokd`: a thread per connection.
pub struct Host {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: JoinHandle<()>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Host {
    pub fn start(svc: Arc<Service>) -> io::Result<Host> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::default();
        let acceptor = {
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { break };
                    let svc = Arc::clone(&svc);
                    let stop = Arc::clone(&stop);
                    let conn = std::thread::spawn(move || {
                        // A client hanging up is how every connection ends.
                        let _ = serve_connection(&stream, &svc, &stop, addr);
                    });
                    conns.lock().expect("conn list poisoned").push(conn);
                }
            })
        };
        Ok(Host {
            addr,
            stop,
            acceptor,
            conns,
        })
    }

    pub fn connect(&self) -> io::Result<BinClient> {
        BinClient::new(TcpStream::connect(self.addr)?)
    }

    /// Stop accepting and wait for every thread. Clients must have hung up.
    pub fn stop(self) {
        self.stop.store(true, Ordering::Release);
        // The acceptor only sees the flag when a connection arrives.
        let _ = TcpStream::connect(self.addr);
        let _ = self.acceptor.join();
        let conns = std::mem::take(&mut *self.conns.lock().expect("conn list poisoned"));
        for c in conns {
            let _ = c.join();
        }
    }
}

/// Is `resp` the right answer to `op`?
pub fn answer_is_correct(resp: &BinResponse, op: &ReadOp, expected: &Expected) -> bool {
    let BinResponse::QueryOk { matches, .. } = resp else {
        return false;
    };
    match op.expect {
        Expect::Count(n) => matches.len() == n as usize,
        Expect::Oracle(i) => {
            let (count, hash) = expected.answers[i];
            matches.len() == count as usize
                && answer_hash(matches.iter().map(|m| m.dewey.as_str())) == hash
        }
    }
}

/// One answered (or failed) read, timed at the client.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When the answer arrived, in ns since the drive began.
    pub done_ns: u64,
    pub latency_ns: u64,
    pub ok: bool,
}

/// Reads that look up a record the writer has already had acknowledged:
/// one read in `every` becomes such a probe once a record exists.
pub struct ReadYourWrites<'a> {
    pub corpus: Corpus,
    /// Storm rounds whose A record is committed and acknowledged.
    pub acked_rounds: &'a AtomicU64,
    pub every: usize,
    pub rng: Rng,
}

/// Closed loop over one connection with `depth` requests in flight until
/// `end`; then the window drains and the connection closes.
pub fn drive_reads(
    mut client: BinClient,
    ops: &mut dyn Iterator<Item = ReadOp>,
    expected: &Expected,
    depth: usize,
    began: Instant,
    end: Instant,
    mut ryw: Option<ReadYourWrites<'_>>,
) -> Result<Vec<Sample>, String> {
    let mut samples = Vec::new();
    let mut in_flight: HashMap<u64, (Instant, ReadOp)> = HashMap::with_capacity(depth);
    let mut id = 0u64;
    loop {
        if Instant::now() < end {
            while in_flight.len() < depth {
                id += 1;
                let mut op = ops.next().ok_or("read stream ended")?;
                if let Some(r) = ryw.as_mut() {
                    let rounds = r.acked_rounds.load(Ordering::Acquire);
                    if id.is_multiple_of(r.every as u64) && rounds > 0 {
                        let round = r.rng.below(rounds as usize) as u64;
                        op = ReadOp {
                            path: r.corpus.record_lookup(&crate::ops::storm_key('a', round)),
                            expect: Expect::Count(1),
                        };
                    }
                }
                let req = Request::Query {
                    id,
                    path: op.path.clone(),
                    timeout_ms: None,
                };
                client.send(&req).map_err(|e| format!("send: {e}"))?;
                in_flight.insert(id, (Instant::now(), op));
            }
            client.flush().map_err(|e| format!("flush: {e}"))?;
        }
        if in_flight.is_empty() {
            return Ok(samples);
        }
        let resp = client
            .recv()
            .map_err(|e| format!("recv: {e}"))?
            .ok_or("server closed the connection")?;
        let now = Instant::now();
        let (sent, op) = in_flight
            .remove(&resp.id())
            .ok_or_else(|| format!("answer to unknown request {}", resp.id()))?;
        samples.push(Sample {
            done_ns: (now - began).as_nanos() as u64,
            latency_ns: (now - sent).as_nanos() as u64,
            ok: answer_is_correct(&resp, &op, expected),
        });
    }
}

/// One request, one answer, on an idle connection.
pub fn roundtrip(client: &mut BinClient, id: u64, path: &str) -> Result<BinResponse, String> {
    let req = Request::Query {
        id,
        path: path.to_string(),
        timeout_ms: None,
    };
    client.send(&req).map_err(|e| format!("send: {e}"))?;
    client.flush().map_err(|e| format!("flush: {e}"))?;
    client
        .recv()
        .map_err(|e| format!("recv: {e}"))?
        .ok_or_else(|| "server closed the connection".to_string())
}
