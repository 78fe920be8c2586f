//! Connection serving shared by `nokd` and the in-process benchmarks.
//!
//! One TCP connection is served by [`serve_connection`]: it checks the
//! [`crate::binproto`] preamble, then reads frames and submits queries
//! through [`QueryService::query_streamed`]. The worker evaluating a query
//! encodes its matches as the executor decides them and pushes each full
//! chunk ([`binproto::CHUNK_BYTES`]) onto the connection's outbound queue
//! at once, then the final frame. A dedicated writer thread drains that
//! queue — *everything* available in one lock acquisition — and flushes
//! the socket once per drain, so a burst of pipelined completions costs one
//! syscall, not one per response. Responses therefore leave in completion
//! order, not submission order; the request id is the only correlation
//! (clients that need submission order reorder on their side).
//!
//! **Back-pressure.** The queue holds at most [`OUT_QUEUE_BYTES`] of a
//! worker's frames: a worker whose frame does not fit waits for the writer
//! to drain, so a client that stops reading stalls its own answers instead
//! of growing the server's memory. The wait ends at the query's deadline
//! (the answer then ends with a timeout error) or when the writer is gone
//! (the socket failed: the answer is dropped). Frames the connection thread
//! answers inline (ping, stats, explain, request errors) never wait.
//!
//! Lock discipline: the outbound-queue mutex (`conn.out`) is a leaf — a
//! worker thread grabs it from its reply, which the executor calls between
//! pages holding no service or pager lock (and the final frame after every
//! lock is released), and the connection/writer threads hold it only
//! around queue edits, never across I/O or service calls.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use nok_core::{QueryMatch, QueryOptions};
use nok_pager::Storage;

use crate::binproto::{self, AnswerEncoder, BinResponse, ErrCode, Request, MAGIC, VERSION};
use crate::json::Json;
use crate::service::{QueryError, QueryService, Reply};
use crate::ServerMetrics;

/// Bytes of worker frames a connection's outbound queue holds before the
/// next push waits for the writer: eight answer chunks.
pub const OUT_QUEUE_BYTES: usize = 8 * binproto::CHUNK_BYTES;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn err_code(e: &QueryError) -> ErrCode {
    match e {
        QueryError::Timeout => ErrCode::Timeout,
        QueryError::QueueFull => ErrCode::QueueFull,
        QueryError::Engine(_) => ErrCode::Engine,
        QueryError::Shutdown => ErrCode::Shutdown,
    }
}

/// Explain runs on the connection thread, not through the worker queue: it
/// is a diagnostic, planned and executed afresh (on its own pinned
/// snapshot) so the estimated-vs-actual comparison reflects this exact run.
fn explain<S: Storage + Send + Sync + 'static>(
    svc: &QueryService<S>,
    path: &str,
) -> Result<(usize, nok_core::Explain), String> {
    let snap = svc.snapshot().map_err(|e| e.to_string())?;
    let (matches, ex) = snap
        .explain(path, QueryOptions::default())
        .map_err(|e| e.to_string())?;
    Ok((matches.len(), ex))
}

/// The stats object shipped as the `StatsOk` payload. Key set and order
/// are part of the wire contract — scripts parse this.
pub fn stats_json<S: Storage + Send + Sync + 'static>(svc: &QueryService<S>) -> Json {
    let m: &ServerMetrics = svc.metrics();
    let g = svc.generation_stats();
    let snap = svc.snapshot().ok();
    let (entries_examined, dir_entries_examined) = snap
        .as_ref()
        .map(|s| {
            let io = s.store().pool().stats();
            (io.entries_examined(), io.dir_entries_examined())
        })
        .unwrap_or((0, 0));
    let (distinct_paths, synopsis_bytes, folded_nodes) = snap
        .as_ref()
        .map(|s| {
            let g = s.generation();
            (
                g.synopsis().distinct_paths(),
                g.synopsis().to_bytes(g.node_count()).len() as u64,
                g.synopsis().paths().folded_nodes(),
            )
        })
        .unwrap_or((0, 0, 0));
    Json::obj(vec![
        ("served", Json::Num(m.served.load(Ordering::Relaxed) as f64)),
        (
            "rejected",
            Json::Num(m.rejected.load(Ordering::Relaxed) as f64),
        ),
        (
            "timed_out",
            Json::Num(m.timed_out.load(Ordering::Relaxed) as f64),
        ),
        ("failed", Json::Num(m.failed.load(Ordering::Relaxed) as f64)),
        (
            "queue_depth",
            Json::Num(m.queue_depth.load(Ordering::Relaxed) as f64),
        ),
        (
            "plan_cache_hits",
            Json::Num(m.plan_hits.load(Ordering::Relaxed) as f64),
        ),
        (
            "plan_cache_misses",
            Json::Num(m.plan_misses.load(Ordering::Relaxed) as f64),
        ),
        (
            "plan_cache_stale",
            Json::Num(m.plan_stale.load(Ordering::Relaxed) as f64),
        ),
        ("plan_cache_size", Json::Num(svc.plan_cache_len() as f64)),
        ("generations_live", Json::Num(g.live_generations() as f64)),
        (
            "generations_retired",
            Json::Num(g.retired_generations() as f64),
        ),
        ("pinned_readers", Json::Num(g.pinned_readers() as f64)),
        ("p50_us", Json::Num(m.latency.quantile_micros(0.50) as f64)),
        ("p99_us", Json::Num(m.latency.quantile_micros(0.99) as f64)),
        ("mean_us", Json::Num(m.latency.mean_micros() as f64)),
        ("pool_hit_ratio", Json::Num(svc.pool_hit_ratio())),
        ("entries_examined", Json::Num(entries_examined as f64)),
        (
            "dir_entries_examined",
            Json::Num(dir_entries_examined as f64),
        ),
        ("distinct_paths", Json::Num(distinct_paths as f64)),
        ("synopsis_bytes", Json::Num(synopsis_bytes as f64)),
        ("synopsis_folded_nodes", Json::Num(folded_nodes as f64)),
        (
            "empty_proofs",
            Json::Num(m.empty_proofs.load(Ordering::Relaxed) as f64),
        ),
        (
            "first_chunk_p50_us",
            Json::Num(m.first_chunk.quantile_micros(0.50) as f64),
        ),
        (
            "first_chunk_p99_us",
            Json::Num(m.first_chunk.quantile_micros(0.99) as f64),
        ),
        (
            "answer_chunks",
            Json::Num(m.answer_chunks.load(Ordering::Relaxed) as f64),
        ),
        (
            "out_queue_hwm_bytes",
            Json::Num(m.out_queue_hwm.load(Ordering::Relaxed) as f64),
        ),
    ])
}

/// Mutex-protected outbound state of one connection.
struct OutState {
    /// Encoded response frames awaiting the writer thread.
    frames: VecDeque<Vec<u8>>,
    /// Their total length.
    bytes: usize,
    /// Queries accepted by the service whose replies have not finished.
    /// The writer refuses to exit while any are outstanding, so every
    /// admitted request gets its response flushed before the connection
    /// closes — including across a shutdown.
    in_flight: usize,
    /// The reader has stopped submitting (peer EOF or shutdown request).
    done: bool,
    /// The writer has exited: frames pushed now go nowhere.
    closed: bool,
}

/// Per-connection outbound queue feeding the writer thread.
struct OutQueue {
    out: Mutex<OutState>,
    /// The writer waits here for frames.
    ready: Condvar,
    /// Workers wait here for room (see [`OUT_QUEUE_BYTES`]).
    room: Condvar,
    metrics: Arc<ServerMetrics>,
}

impl OutQueue {
    fn new(metrics: Arc<ServerMetrics>) -> Self {
        OutQueue {
            out: Mutex::new(OutState {
                frames: VecDeque::new(),
                bytes: 0,
                in_flight: 0,
                done: false,
                closed: false,
            }),
            ready: Condvar::new(),
            room: Condvar::new(),
            metrics,
        }
    }

    /// Append under the lock, keeping the byte count and high-water mark.
    fn enqueue(&self, g: &mut OutState, frame: Vec<u8>) {
        if g.closed {
            return;
        }
        g.bytes += frame.len();
        g.frames.push_back(frame);
        self.metrics
            .out_queue_hwm
            .fetch_max(g.bytes as u64, Ordering::Relaxed);
    }

    /// Wait until `len` more bytes fit, the writer is gone, or `deadline`
    /// passes; returns the guard and whether the frame may go in.
    fn wait_room(&self, len: usize, deadline: Instant) -> (MutexGuard<'_, OutState>, bool) {
        let mut g = lock(&self.out);
        loop {
            if g.closed {
                return (g, false);
            }
            if g.bytes == 0 || g.bytes + len <= OUT_QUEUE_BYTES {
                return (g, true);
            }
            let now = Instant::now();
            if now >= deadline {
                return (g, false);
            }
            g = self
                .room
                .wait_timeout(g, deadline - now)
                .map_or_else(|e| e.into_inner().0, |(g, _)| g);
        }
    }

    /// Queue one encoded frame the connection thread answers inline (ping,
    /// stats, errors): never waits.
    fn push(&self, frame: Vec<u8>) {
        let mut g = lock(&self.out);
        self.enqueue(&mut g, frame);
        drop(g);
        self.ready.notify_one();
    }

    /// Queue a chunk of an in-flight answer, waiting for room until
    /// `deadline`.
    fn send(&self, frame: Vec<u8>, deadline: Instant) -> Result<(), QueryError> {
        let (mut g, fits) = self.wait_room(frame.len(), deadline);
        if g.closed {
            return Err(QueryError::Engine("connection closed".into()));
        }
        if !fits {
            return Err(QueryError::Timeout);
        }
        self.enqueue(&mut g, frame);
        drop(g);
        self.ready.notify_one();
        Ok(())
    }

    /// Reserve an in-flight slot before submitting to the service.
    fn begin(&self) {
        lock(&self.out).in_flight += 1;
    }

    /// Queue the final frame of an in-flight request and release its slot.
    /// It waits for room like a chunk, but goes in at `deadline` anyway:
    /// it is the answer's last.
    fn complete(&self, frame: Vec<u8>, deadline: Instant) {
        let (mut g, _) = self.wait_room(frame.len(), deadline);
        self.enqueue(&mut g, frame);
        g.in_flight = g.in_flight.saturating_sub(1);
        drop(g);
        self.ready.notify_one();
    }

    /// Release an in-flight slot without a frame (submission failed and the
    /// error frame was pushed separately, or bookkeeping is being undone).
    fn abort(&self) {
        let mut g = lock(&self.out);
        g.in_flight = g.in_flight.saturating_sub(1);
        drop(g);
        self.ready.notify_one();
    }

    /// The reader is finished; the writer drains what remains (waiting out
    /// in-flight answers) and exits.
    fn finish(&self) {
        lock(&self.out).done = true;
        self.ready.notify_all();
    }

    /// Writer side: block until frames are available, then take all of
    /// them. Returns `None` once done, drained, and nothing is in flight.
    fn take_all(&self, into: &mut Vec<Vec<u8>>) -> Option<()> {
        let mut g = lock(&self.out);
        loop {
            if !g.frames.is_empty() {
                into.extend(g.frames.drain(..));
                g.bytes = 0;
                drop(g);
                self.room.notify_all();
                return Some(());
            }
            if g.done && g.in_flight == 0 {
                return None;
            }
            g = self.ready.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Writer side, on exit: drop what is queued and release every waiter.
    fn close(&self) {
        let mut g = lock(&self.out);
        g.closed = true;
        g.frames.clear();
        g.bytes = 0;
        drop(g);
        self.room.notify_all();
    }
}

/// A query's answer on its way to the socket: matches are encoded as the
/// executor decides them, and each full chunk is queued at once.
struct WireReply {
    id: u64,
    enc: AnswerEncoder,
    queue: Arc<OutQueue>,
    /// When the request was read.
    arrived: Instant,
    /// The query's deadline: how long a push may wait for room.
    deadline: Instant,
    /// A frame of the answer is queued already.
    started: bool,
}

impl WireReply {
    /// The answer's first frame is going out: time to first match.
    fn first_frame(&mut self) {
        if !self.started {
            self.started = true;
            self.queue
                .metrics
                .first_chunk
                .record(self.arrived.elapsed());
        }
    }
}

impl Reply for WireReply {
    fn put(&mut self, m: QueryMatch) -> Result<(), QueryError> {
        let Some(part) = self.enc.push(m.dewey.components()) else {
            return Ok(());
        };
        self.first_frame();
        self.queue
            .metrics
            .answer_chunks
            .fetch_add(1, Ordering::Relaxed);
        self.queue.send(part, self.deadline)
    }

    fn finish(mut self: Box<Self>, outcome: Result<(), QueryError>) {
        if outcome.is_ok() {
            self.first_frame();
        }
        let WireReply {
            id,
            enc,
            queue,
            deadline,
            ..
        } = *self;
        let frame = match outcome {
            Ok(()) => enc.finish(),
            Err(e) => encode_one(&BinResponse::Error {
                id,
                code: err_code(&e),
                message: e.to_string(),
            }),
        };
        queue.complete(frame, deadline);
    }
}

/// Serve one accepted connection until the peer disconnects or asks for
/// shutdown. A connection that does not open with the preamble is closed.
/// On a shutdown request, flushes the acknowledgement, sets `stop`, and
/// pokes `local` with a throwaway connection so the accept loop wakes and
/// exits.
pub fn serve_connection<S: Storage + Send + Sync + 'static>(
    stream: &TcpStream,
    svc: &Arc<QueryService<S>>,
    stop: &AtomicBool,
    local: SocketAddr,
) -> io::Result<()> {
    // Small frames both ways; Nagle's algorithm would serialize them
    // against delayed ACKs (~40ms stalls).
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    if reader.fill_buf()?.is_empty() {
        return Ok(()); // connected and left without a word
    }

    // Validate the preamble before spawning anything.
    let mut preamble = [0u8; 5];
    reader.read_exact(&mut preamble)?;
    // analyze: allow(serve-worker-panic): preamble is a [u8; 5], fully read
    if preamble[..4] != MAGIC {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "bad preamble"));
    }
    // analyze: allow(serve-worker-panic): preamble is a [u8; 5], fully read
    if preamble[4] != VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            // analyze: allow(serve-worker-panic): preamble is a [u8; 5], fully read
            format!("unsupported protocol version {}", preamble[4]),
        ));
    }

    let queue = Arc::new(OutQueue::new(svc.shared_metrics()));
    let writer_queue = Arc::clone(&queue);
    let writer_stream = stream.try_clone()?;
    let writer = std::thread::Builder::new()
        .name("nok-conn-writer".to_string())
        .spawn(move || write_loop(&writer_queue, writer_stream))
        .map_err(|e| io::Error::new(io::ErrorKind::Other, format!("spawn writer: {e}")))?;

    let result = read_loop(&mut reader, svc, stop, &queue);
    // Reader is done (EOF, shutdown, or error): let the writer drain every
    // outstanding response, then surface its I/O verdict if ours was clean.
    queue.finish();
    let writer_result = writer.join().unwrap_or_else(|_| {
        Err(io::Error::new(
            io::ErrorKind::Other,
            "connection writer panicked",
        ))
    });
    if let Ok(true) = result {
        // Only now that the acknowledgement is flushed: once the accept
        // loop wakes it exits the process, and an unflushed frame would be
        // lost with it. Unblock it with a throwaway connection.
        stop.store(true, Ordering::Release);
        let _ = TcpStream::connect(local);
    }
    result.and(writer_result)
}

/// Read and answer requests until EOF or until the server is stopping;
/// `Ok(true)` when it was this peer that asked for the shutdown.
fn read_loop<S: Storage + Send + Sync + 'static>(
    reader: &mut BufReader<TcpStream>,
    svc: &Arc<QueryService<S>>,
    stop: &AtomicBool,
    queue: &Arc<OutQueue>,
) -> io::Result<bool> {
    while let Some((opcode, id, payload)) = binproto::read_bin_frame(reader)? {
        let req = match binproto::decode_request(opcode, id, &payload) {
            Ok(req) => req,
            Err(e) => {
                queue.push(encode_one(&BinResponse::Error {
                    id,
                    code: ErrCode::BadRequest,
                    message: e.to_string(),
                }));
                continue;
            }
        };
        match req {
            Request::Query {
                id,
                path,
                timeout_ms,
            } => {
                let timeout = timeout_ms.map(Duration::from_millis);
                let arrived = Instant::now();
                let reply = WireReply {
                    id,
                    enc: AnswerEncoder::new(id),
                    queue: Arc::clone(queue),
                    arrived,
                    deadline: arrived + timeout.unwrap_or(svc.default_timeout()),
                    started: false,
                };
                queue.begin();
                let submitted =
                    svc.query_streamed(&path, QueryOptions::default(), timeout, Box::new(reply));
                if let Err(e) = submitted {
                    // Admission failed: the callback will never run, so
                    // answer inline and release the in-flight slot.
                    queue.push(encode_one(&BinResponse::Error {
                        id,
                        code: err_code(&e),
                        message: e.to_string(),
                    }));
                    queue.abort();
                }
            }
            Request::Explain { id, path } => {
                let resp = match explain(svc.as_ref(), &path) {
                    Ok((count, ex)) => BinResponse::ExplainOk {
                        id,
                        count: count as u32,
                        text: ex.to_string(),
                    },
                    Err(e) => BinResponse::Error {
                        id,
                        code: ErrCode::Engine,
                        message: e,
                    },
                };
                queue.push(encode_one(&resp));
            }
            Request::Stats { id } => {
                queue.push(encode_one(&BinResponse::StatsOk {
                    id,
                    json: stats_json(svc.as_ref()).to_string_compact(),
                }));
            }
            Request::Ping { id } => queue.push(encode_one(&BinResponse::Pong { id })),
            Request::Shutdown { id } => {
                queue.push(encode_one(&BinResponse::Stopping { id }));
                return Ok(true);
            }
        }
        if stop.load(Ordering::Acquire) {
            break;
        }
    }
    Ok(false)
}

fn encode_one(resp: &BinResponse) -> Vec<u8> {
    let mut buf = Vec::new();
    binproto::encode_response(&mut buf, resp);
    buf
}

/// The connection's writer thread: drain *all* queued frames per wakeup,
/// write them back-to-back, flush once. Pipelined bursts coalesce into one
/// syscall instead of one per response. On exit, for whatever reason, it
/// closes the queue, releasing any worker waiting for room.
fn write_loop(queue: &OutQueue, stream: TcpStream) -> io::Result<()> {
    let result = write_frames(queue, stream);
    queue.close();
    result
}

fn write_frames(queue: &OutQueue, stream: TcpStream) -> io::Result<()> {
    let mut w = BufWriter::new(stream);
    let mut batch: Vec<Vec<u8>> = Vec::new();
    while queue.take_all(&mut batch).is_some() {
        for frame in batch.drain(..) {
            w.write_all(&frame)?;
        }
        w.flush()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use nok_core::XmlDb;
    use std::net::TcpListener;

    const BIB: &str = r#"<bib>
        <book year="1994"><title>TCP/IP</title><price>65.95</price></book>
        <book year="2000"><title>Data on the Web</title><price>39.95</price></book>
    </bib>"#;

    fn spawn_server(workers: usize) -> (SocketAddr, Arc<AtomicBool>) {
        let db = Arc::new(XmlDb::build_in_memory(BIB).unwrap());
        let svc = Arc::new(QueryService::start(
            db,
            ServiceConfig {
                workers,
                ..ServiceConfig::default()
            },
        ));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let local = listener.local_addr().unwrap();
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

    /// The unsigned integer value of `key` in a rendered stats object.
    fn stat(json: &str, key: &str) -> u64 {
        let tail = json.split(&format!("\"{key}\":")).nth(1).unwrap();
        let digits = tail.bytes().take_while(u8::is_ascii_digit).count();
        tail[..digits].parse().unwrap()
    }

    fn bin_client(addr: SocketAddr) -> binproto::BinClient {
        binproto::BinClient::new(TcpStream::connect(addr).unwrap()).unwrap()
    }

    #[test]
    fn pipelined_binary_queries_map_responses_to_ids() {
        let (addr, stop) = spawn_server(2);
        let mut c = bin_client(addr);
        // Pipeline a window of queries with distinct ids, flush once.
        let paths = ["//book", "//book/title", "//price", "//book[price<50]"];
        for (i, p) in paths.iter().enumerate() {
            c.send(&Request::Query {
                id: 100 + i as u64,
                path: (*p).into(),
                timeout_ms: None,
            })
            .unwrap();
        }
        c.flush().unwrap();
        let mut by_id = std::collections::HashMap::new();
        for _ in 0..paths.len() {
            let resp = c.recv().unwrap().unwrap();
            match resp {
                BinResponse::QueryOk { id, matches } => {
                    by_id.insert(id, matches.len());
                }
                other => panic!("unexpected response {other:?}"),
            }
        }
        assert_eq!(by_id[&100], 2);
        assert_eq!(by_id[&101], 2);
        assert_eq!(by_id[&102], 2);
        assert_eq!(by_id[&103], 1);
        stop.store(true, Ordering::Release);
        let _ = TcpStream::connect(addr);
    }

    #[test]
    fn binary_mixed_opcodes_and_errors() {
        let (addr, stop) = spawn_server(1);
        let mut c = bin_client(addr);
        c.send(&Request::Ping { id: 1 }).unwrap();
        c.send(&Request::Query {
            id: 2,
            path: "not a path".into(),
            timeout_ms: None,
        })
        .unwrap();
        c.send(&Request::Stats { id: 3 }).unwrap();
        c.send(&Request::Explain {
            id: 4,
            path: "//book".into(),
        })
        .unwrap();
        c.flush().unwrap();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..4 {
            let resp = c.recv().unwrap().unwrap();
            match &resp {
                BinResponse::Pong { id } => assert_eq!(*id, 1),
                BinResponse::Error { id, code, .. } => {
                    assert_eq!(*id, 2);
                    assert_eq!(*code, ErrCode::Engine);
                }
                BinResponse::StatsOk { id, json } => {
                    assert_eq!(*id, 3);
                    assert!(json.contains("\"served\":"), "{json}");
                    assert!(json.contains("\"p99_us\":"), "{json}");
                    // Synopsis gauges: BIB has at least bib, bib/book,
                    // bib/book/title, bib/book/price as distinct tag paths
                    // and a nonzero encoded synopsis block.
                    assert!(stat(json, "distinct_paths") >= 4, "{json}");
                    assert!(stat(json, "synopsis_bytes") > 0, "{json}");
                    assert_eq!(stat(json, "synopsis_folded_nodes"), 0, "{json}");
                    assert!(json.contains("\"empty_proofs\":"), "{json}");
                    // Streaming gauges: no answer here spans two chunks.
                    assert_eq!(stat(json, "answer_chunks"), 0, "{json}");
                    assert!(json.contains("\"first_chunk_p99_us\":"), "{json}");
                    assert!(stat(json, "out_queue_hwm_bytes") <= OUT_QUEUE_BYTES as u64);
                }
                BinResponse::ExplainOk { id, count, text } => {
                    assert_eq!(*id, 4);
                    assert_eq!(*count, 2);
                    assert!(!text.is_empty());
                }
                other => panic!("unexpected response {other:?}"),
            }
            assert!(seen.insert(resp.id()));
        }
        stop.store(true, Ordering::Release);
        let _ = TcpStream::connect(addr);
    }

    #[test]
    fn bad_opening_is_closed_and_the_listener_keeps_serving() {
        let (addr, stop) = spawn_server(1);
        let mut wrong_version = MAGIC.to_vec();
        wrong_version.push(VERSION + 1);
        // Version 1 sent whole answers with addresses; it is refused too.
        let mut version_1 = MAGIC.to_vec();
        version_1.push(1);
        let mut ping = Vec::new();
        binproto::encode_request(&mut ping, &Request::Ping { id: 1 });
        for opening in [
            &b"37\n{\"id\":9,\"op\":\"query\",\"path\":\"//book\"}\n"[..],
            &wrong_version,
            &version_1,
        ] {
            let mut stream = TcpStream::connect(addr).unwrap();
            // A well-formed frame behind it must not be answered either.
            stream.write_all(&[opening, &ping].concat()).unwrap();
            // Closed with nothing written: EOF, or a reset because the
            // server dropped the socket with our bytes unread.
            let mut answer = Vec::new();
            let _ = stream.read_to_end(&mut answer);
            assert!(answer.is_empty(), "{answer:?}");

            let mut c = bin_client(addr);
            c.send(&Request::Query {
                id: 10,
                path: "//book".into(),
                timeout_ms: None,
            })
            .unwrap();
            c.flush().unwrap();
            match c.recv().unwrap().unwrap() {
                BinResponse::QueryOk { id, matches } => {
                    assert_eq!(id, 10);
                    assert_eq!(matches.len(), 2);
                }
                other => panic!("unexpected response {other:?}"),
            }
        }
        stop.store(true, Ordering::Release);
        let _ = TcpStream::connect(addr);
    }

    #[test]
    fn binary_bad_frames_get_bad_request_not_disconnect() {
        let (addr, stop) = spawn_server(1);
        let stream = TcpStream::connect(addr).unwrap();
        let mut raw = stream.try_clone().unwrap();
        raw.write_all(&MAGIC).unwrap();
        raw.write_all(&[VERSION]).unwrap();
        // Unknown opcode 0x7F with id 42.
        let mut frame = Vec::new();
        binproto::put_frame(&mut frame, 0x7F, 42, &[]);
        raw.write_all(&frame).unwrap();
        // A valid ping after the bad frame still gets served.
        frame.clear();
        binproto::encode_request(&mut frame, &Request::Ping { id: 43 });
        raw.write_all(&frame).unwrap();
        raw.flush().unwrap();
        let mut r = BufReader::new(stream);
        let (op1, id1, p1) = binproto::read_bin_frame(&mut r).unwrap().unwrap();
        match binproto::decode_response(op1, id1, &p1).unwrap() {
            BinResponse::Error { id, code, .. } => {
                assert_eq!(id, 42);
                assert_eq!(code, ErrCode::BadRequest);
            }
            other => panic!("unexpected response {other:?}"),
        }
        let (op2, id2, p2) = binproto::read_bin_frame(&mut r).unwrap().unwrap();
        assert!(matches!(
            binproto::decode_response(op2, id2, &p2).unwrap(),
            BinResponse::Pong { id: 43 }
        ));
        stop.store(true, Ordering::Release);
        let _ = TcpStream::connect(addr);
    }
}
