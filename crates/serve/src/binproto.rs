//! The wire protocol: pipelined binary frames with explicit request ids.
//!
//! A connection keeps many requests in flight ("pipelining") and matches
//! responses to requests by id, in whatever order the workers finish them,
//! so one connection can keep a whole worker pool busy.
//!
//! ## Connection preamble
//!
//! A client opens with 5 bytes: the magic `NOKB` then a version byte
//! (currently 2). The server closes a connection that opens with anything
//! else, version 1 included.
//!
//! ## Frame layout
//!
//! ```text
//! opcode   u8
//! id       u64 LE   client-chosen correlation id, echoed in the response
//! len      u32 LE   payload byte length (bounded by MAX_FRAME)
//! payload  len bytes
//! ```
//!
//! Request payloads:
//!
//! | opcode | request  | payload |
//! |--------|----------|---------|
//! | 0x01   | Query    | `timeout_ms: u64 LE` (`u64::MAX` = server default) + path UTF-8 |
//! | 0x02   | Explain  | path UTF-8 |
//! | 0x03   | Stats    | empty |
//! | 0x04   | Ping     | empty |
//! | 0x05   | Shutdown | empty |
//!
//! Response payloads:
//!
//! | opcode | response  | payload |
//! |--------|-----------|---------|
//! | 0x86   | QueryPart | a chunk of matches: `count: u32 LE` + `count` keys (below) |
//! | 0x81   | QueryOk   | the last chunk of matches, same layout: the answer is complete |
//! | 0x82   | ExplainOk | `count: u32 LE` + `text_len: u32 LE` + rendered plan table UTF-8 |
//! | 0x83   | StatsOk   | the stats object as compact JSON UTF-8 |
//! | 0x84   | Pong      | empty |
//! | 0x85   | Stopping  | empty |
//! | 0xEE   | Error     | `code: u8` + `msg_len: u16 LE` + message UTF-8 |
//!
//! Error codes: 1 timeout, 2 queue full, 3 engine, 4 shutdown,
//! 5 bad request.
//!
//! ## Answers
//!
//! A query is answered by zero or more `QueryPart` frames and then one
//! `QueryOk`, or by an `Error` that ends the answer at any point (the
//! client drops the parts it holds for that id). The server sends a part
//! as soon as [`CHUNK_BYTES`] of matches are decided, so an answer of any
//! size streams in frames of bounded size, and an answer of at most one
//! chunk is the single `QueryOk` frame.
//!
//! A match is its Dewey id as the order-preserving key of
//! [`nok_core::Dewey::to_key`], front-coded against the key before it in
//! the same frame: `shared` (LEB128), the number of leading bytes it
//! shares with that key (0 for a frame's first match); `len` (LEB128); then
//! the `len` bytes that follow the shared prefix. Keys of an answer ascend,
//! so consecutive siblings share all but their last component. The
//! document node's id is the empty key.
//!
//! **Ordering contract:** responses to pipelined requests may arrive in
//! any order, and the parts of different answers interleave; the id is the
//! only correlation. The frames of one answer arrive in order. A client
//! that needs submission order (nokq does, to diff byte-identically against
//! offline evaluation) reorders by id on its side.
//!
//! Encoding and decoding are pure functions over byte slices so the
//! property/fuzz suite can drive them without sockets.

use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::TcpStream;

use nok_core::dewey::{get_code, put_code};

/// Connection-opening magic.
pub const MAGIC: [u8; 4] = *b"NOKB";

/// Current protocol version, sent right after the magic.
pub const VERSION: u8 = 2;

/// Hard cap on a single frame's payload, to bound memory on hostile input.
/// Only requests can come near it: an answer's frames hold at most
/// [`CHUNK_BYTES`] of matches each.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Match bytes a `QueryPart` frame carries: the server seals a chunk when
/// the next match would not fit. (A single key longer than this, from a
/// node thousands of levels deep, travels alone in an oversized chunk.)
pub const CHUNK_BYTES: usize = 4 * 1024;

/// Fixed frame header size: opcode + id + payload length.
pub const HEADER_LEN: usize = 1 + 8 + 4;

/// `timeout_ms` wire value meaning "use the server default".
const NO_TIMEOUT: u64 = u64::MAX;

/// Request opcodes.
pub mod op {
    /// Evaluate a path query.
    pub const QUERY: u8 = 0x01;
    /// Plan + evaluate with per-operator cardinalities.
    pub const EXPLAIN: u8 = 0x02;
    /// Aggregate server metrics.
    pub const STATS: u8 = 0x03;
    /// Liveness probe.
    pub const PING: u8 = 0x04;
    /// Graceful server exit.
    pub const SHUTDOWN: u8 = 0x05;
    /// The last chunk of a query answer.
    pub const QUERY_OK: u8 = 0x81;
    /// A chunk of a query answer with more to come.
    pub const QUERY_PART: u8 = 0x86;
    /// Successful explain result.
    pub const EXPLAIN_OK: u8 = 0x82;
    /// Stats payload.
    pub const STATS_OK: u8 = 0x83;
    /// Ping acknowledgement.
    pub const PONG: u8 = 0x84;
    /// Shutdown acknowledgement.
    pub const STOPPING: u8 = 0x85;
    /// Error response.
    pub const ERROR: u8 = 0xEE;
}

/// Stable error codes carried by [`op::ERROR`] frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrCode {
    /// Query deadline exceeded.
    Timeout = 1,
    /// Admission queue full.
    QueueFull = 2,
    /// Engine rejected or failed the query.
    Engine = 3,
    /// Server shutting down.
    Shutdown = 4,
    /// Malformed request.
    BadRequest = 5,
}

impl ErrCode {
    /// Decode a wire byte.
    pub fn from_byte(b: u8) -> Option<ErrCode> {
        match b {
            1 => Some(ErrCode::Timeout),
            2 => Some(ErrCode::QueueFull),
            3 => Some(ErrCode::Engine),
            4 => Some(ErrCode::Shutdown),
            5 => Some(ErrCode::BadRequest),
            _ => None,
        }
    }
}

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Evaluate a path query.
    Query {
        /// Client-chosen correlation id, echoed in the response.
        id: u64,
        /// The path expression.
        path: String,
        /// Per-request deadline override in milliseconds.
        timeout_ms: Option<u64>,
    },
    /// Plan a path query and evaluate it, returning per-operator
    /// estimated vs actual cardinalities alongside the match count.
    Explain {
        /// Correlation id.
        id: u64,
        /// The path expression.
        path: String,
    },
    /// Fetch aggregate server metrics.
    Stats {
        /// Correlation id.
        id: u64,
    },
    /// Liveness probe.
    Ping {
        /// Correlation id.
        id: u64,
    },
    /// Ask the server to exit gracefully.
    Shutdown {
        /// Correlation id.
        id: u64,
    },
}

/// One match in a query response: its Dewey id, rendered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireMatch {
    /// `a.b.c` Dewey path (empty for the document node).
    pub dewey: String,
}

/// Canonical one-line rendering of a query result, shared by `nokq`'s
/// server and `--offline` modes so their outputs diff byte-identically:
/// `path<TAB>count<TAB>dewey;dewey;...`.
pub fn result_line(path: &str, matches: &[WireMatch]) -> String {
    let deweys: Vec<&str> = matches.iter().map(|m| m.dewey.as_str()).collect();
    format!("{path}\t{}\t{}", matches.len(), deweys.join(";"))
}

/// A decoded response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BinResponse {
    /// Successful query evaluation.
    QueryOk {
        /// Echoed correlation id.
        id: u64,
        /// Matches in document order.
        matches: Vec<WireMatch>,
    },
    /// One chunk of an answer still coming. [`BinClient::recv`] folds the
    /// parts into the `QueryOk` that ends the answer and never returns one.
    QueryPart {
        /// Echoed correlation id.
        id: u64,
        /// The chunk's matches, in document order.
        matches: Vec<WireMatch>,
    },
    /// Successful explain.
    ExplainOk {
        /// Echoed correlation id.
        id: u64,
        /// Number of matches the query produced.
        count: u32,
        /// Rendered estimated-vs-actual plan table.
        text: String,
    },
    /// Stats payload.
    StatsOk {
        /// Echoed correlation id.
        id: u64,
        /// The stats object as compact JSON text.
        json: String,
    },
    /// Ping acknowledgement.
    Pong {
        /// Echoed correlation id.
        id: u64,
    },
    /// Shutdown acknowledgement.
    Stopping {
        /// Echoed correlation id.
        id: u64,
    },
    /// Request-level failure.
    Error {
        /// Echoed correlation id (0 when the id itself was unreadable).
        id: u64,
        /// Stable machine-readable code.
        code: ErrCode,
        /// Human-readable detail.
        message: String,
    },
}

impl BinResponse {
    /// The correlation id this response answers.
    pub fn id(&self) -> u64 {
        match self {
            BinResponse::QueryOk { id, .. }
            | BinResponse::QueryPart { id, .. }
            | BinResponse::ExplainOk { id, .. }
            | BinResponse::StatsOk { id, .. }
            | BinResponse::Pong { id }
            | BinResponse::Stopping { id }
            | BinResponse::Error { id, .. } => *id,
        }
    }
}

/// Why a frame or payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer ended inside a header or payload.
    Truncated,
    /// The declared payload length exceeds [`MAX_FRAME`].
    Oversized(u64),
    /// The opcode is not one this side understands.
    UnknownOpcode(u8),
    /// Structurally invalid payload.
    Malformed(&'static str),
    /// A string field was not valid UTF-8.
    BadUtf8,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "truncated frame"),
            FrameError::Oversized(n) => write!(f, "frame payload of {n} bytes exceeds MAX_FRAME"),
            FrameError::UnknownOpcode(b) => write!(f, "unknown opcode 0x{b:02X}"),
            FrameError::Malformed(what) => write!(f, "malformed frame: {what}"),
            FrameError::BadUtf8 => write!(f, "frame string is not utf-8"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<FrameError> for io::Error {
    fn from(e: FrameError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e.to_string())
    }
}

// ---------------------------------------------------------------------------
// Little-endian slice readers (length-checked; no panics on hostile input).

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let end = self.pos.checked_add(n).ok_or(FrameError::Truncated)?;
        let s = self.buf.get(self.pos..end).ok_or(FrameError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        // analyze: allow(serve-worker-panic): take(1) checked the length
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, FrameError> {
        let s = self.take(2)?;
        // analyze: allow(serve-worker-panic): take(2) checked the length
        Ok(u16::from_le_bytes([s[0], s[1]]))
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        let s = self.take(4)?;
        // analyze: allow(serve-worker-panic): take(4) checked the length
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        let s = self.take(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }

    /// A LEB128 varint of at most 32 bits.
    fn varint(&mut self) -> Result<usize, FrameError> {
        let mut v = 0u64;
        for shift in (0..35).step_by(7) {
            let b = self.u8()?;
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return u32::try_from(v)
                    .map(|v| v as usize)
                    .map_err(|_| FrameError::Malformed("varint above 32 bits"));
            }
        }
        Err(FrameError::Malformed("varint above 32 bits"))
    }

    fn str_with_len(&mut self, n: usize) -> Result<String, FrameError> {
        let s = self.take(n)?;
        String::from_utf8(s.to_vec()).map_err(|_| FrameError::BadUtf8)
    }

    fn done(&self) -> Result<(), FrameError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(FrameError::Malformed("trailing bytes after payload"))
        }
    }
}

// ---------------------------------------------------------------------------
// Frame layer.

/// Append one frame (header + payload) to `out`.
pub fn put_frame(out: &mut Vec<u8>, opcode: u8, id: u64, payload: &[u8]) {
    out.push(opcode);
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
}

/// One frame split off a buffer: opcode, request id, payload, and the
/// bytes it took.
pub type SplitFrame<'a> = (u8, u64, &'a [u8], usize);

/// Try to split one frame off the front of `buf`.
///
/// Returns `Ok(None)` when `buf` holds a frame prefix that is so far valid
/// but incomplete (read more bytes and retry), `Ok(Some(...))` with the
/// frame fields and the total bytes consumed, and `Err` when the prefix
/// can never become a valid frame (oversized declared length).
pub fn split_frame(buf: &[u8]) -> Result<Option<SplitFrame<'_>>, FrameError> {
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    // analyze: allow(serve-worker-panic): guarded by the HEADER_LEN check above
    let opcode = buf[0];
    let mut idb = [0u8; 8];
    // analyze: allow(serve-worker-panic): guarded by the HEADER_LEN check above
    idb.copy_from_slice(&buf[1..9]);
    let id = u64::from_le_bytes(idb);
    // analyze: allow(serve-worker-panic): guarded by the HEADER_LEN check above
    let len = u32::from_le_bytes([buf[9], buf[10], buf[11], buf[12]]) as usize;
    if len > MAX_FRAME {
        return Err(FrameError::Oversized(len as u64));
    }
    let total = HEADER_LEN + len;
    match buf.get(HEADER_LEN..total) {
        Some(payload) => Ok(Some((opcode, id, payload, total))),
        None => Ok(None),
    }
}

/// Read one frame from a stream. `Ok(None)` on clean EOF at a frame
/// boundary; EOF inside a frame is an error (torn frame), as is an
/// oversized declared length.
pub fn read_bin_frame<R: Read>(r: &mut R) -> io::Result<Option<(u8, u64, Vec<u8>)>> {
    let mut header = [0u8; HEADER_LEN];
    let mut filled = 0;
    while filled < HEADER_LEN {
        // analyze: allow(serve-worker-panic): filled < HEADER_LEN in the loop condition
        let n = r.read(&mut header[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(FrameError::Truncated.into());
        }
        filled += n;
    }
    // analyze: allow(serve-worker-panic): header is a [u8; HEADER_LEN], fully read
    let opcode = header[0];
    let mut idb = [0u8; 8];
    // analyze: allow(serve-worker-panic): header is a [u8; HEADER_LEN], fully read
    idb.copy_from_slice(&header[1..9]);
    let id = u64::from_le_bytes(idb);
    // analyze: allow(serve-worker-panic): header is a [u8; HEADER_LEN], fully read
    let len = u32::from_le_bytes([header[9], header[10], header[11], header[12]]) as usize;
    if len > MAX_FRAME {
        return Err(FrameError::Oversized(len as u64).into());
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)
        .map_err(|_| io::Error::from(FrameError::Truncated))?;
    Ok(Some((opcode, id, payload)))
}

// ---------------------------------------------------------------------------
// Request encode/decode.

/// Append `req` to `out` as one binary frame.
pub fn encode_request(out: &mut Vec<u8>, req: &Request) {
    match req {
        Request::Query {
            id,
            path,
            timeout_ms,
        } => {
            let mut payload = Vec::with_capacity(8 + path.len());
            payload.extend_from_slice(&timeout_ms.unwrap_or(NO_TIMEOUT).to_le_bytes());
            payload.extend_from_slice(path.as_bytes());
            put_frame(out, op::QUERY, *id, &payload);
        }
        Request::Explain { id, path } => put_frame(out, op::EXPLAIN, *id, path.as_bytes()),
        Request::Stats { id } => put_frame(out, op::STATS, *id, &[]),
        Request::Ping { id } => put_frame(out, op::PING, *id, &[]),
        Request::Shutdown { id } => put_frame(out, op::SHUTDOWN, *id, &[]),
    }
}

/// Decode a request from its frame fields.
pub fn decode_request(opcode: u8, id: u64, payload: &[u8]) -> Result<Request, FrameError> {
    match opcode {
        op::QUERY => {
            let mut c = Cursor::new(payload);
            let raw_timeout = c.u64()?;
            let path = c.str_with_len(payload.len().saturating_sub(8))?;
            Ok(Request::Query {
                id,
                path,
                timeout_ms: (raw_timeout != NO_TIMEOUT).then_some(raw_timeout),
            })
        }
        op::EXPLAIN => {
            let mut c = Cursor::new(payload);
            let path = c.str_with_len(payload.len())?;
            Ok(Request::Explain { id, path })
        }
        op::STATS => empty(payload).map(|()| Request::Stats { id }),
        op::PING => empty(payload).map(|()| Request::Ping { id }),
        op::SHUTDOWN => empty(payload).map(|()| Request::Shutdown { id }),
        other => Err(FrameError::UnknownOpcode(other)),
    }
}

fn empty(payload: &[u8]) -> Result<(), FrameError> {
    if payload.is_empty() {
        Ok(())
    } else {
        Err(FrameError::Malformed("payload on a bodiless opcode"))
    }
}

// ---------------------------------------------------------------------------
// Response encode/decode.

/// Append `resp` to `out` as binary frames: one, except that a query
/// answer is chunked as the server chunks it (see the module docs). A
/// `dewey` that is not a rendered Dewey id goes out as the empty key.
pub fn encode_response(out: &mut Vec<u8>, resp: &BinResponse) {
    match resp {
        BinResponse::QueryOk { id, matches } | BinResponse::QueryPart { id, matches } => {
            let mut enc = AnswerEncoder::new(*id);
            let mut comps = Vec::new();
            for m in matches {
                comps.clear();
                let parsed = m.dewey.is_empty()
                    || m.dewey
                        .split('.')
                        .all(|c| c.parse().map(|c| comps.push(c)).is_ok());
                if !parsed {
                    comps.clear();
                }
                if let Some(part) = enc.push(&comps) {
                    out.extend_from_slice(&part);
                }
            }
            let last = match resp {
                BinResponse::QueryOk { .. } => op::QUERY_OK,
                _ => op::QUERY_PART,
            };
            out.extend_from_slice(&enc.last(last));
        }
        BinResponse::ExplainOk { id, count, text } => {
            let mut payload = Vec::with_capacity(8 + text.len());
            payload.extend_from_slice(&count.to_le_bytes());
            payload.extend_from_slice(&(text.len() as u32).to_le_bytes());
            payload.extend_from_slice(text.as_bytes());
            put_frame(out, op::EXPLAIN_OK, *id, &payload);
        }
        BinResponse::StatsOk { id, json } => put_frame(out, op::STATS_OK, *id, json.as_bytes()),
        BinResponse::Pong { id } => put_frame(out, op::PONG, *id, &[]),
        BinResponse::Stopping { id } => put_frame(out, op::STOPPING, *id, &[]),
        BinResponse::Error { id, code, message } => {
            let msg = message.as_bytes();
            let take = msg.len().min(u16::MAX as usize);
            let mut payload = Vec::with_capacity(3 + take);
            payload.push(*code as u8);
            payload.extend_from_slice(&(take as u16).to_le_bytes());
            // analyze: allow(serve-worker-panic): take is clamped to the message length
            payload.extend_from_slice(&msg[..take]);
            put_frame(out, op::ERROR, *id, &payload);
        }
    }
}

/// The frames of one query answer, built as its matches arrive: each
/// [`AnswerEncoder::push`] may hand back a sealed `QueryPart` frame, and
/// [`AnswerEncoder::finish`] the final `QueryOk` with the matches no part
/// took. Matches are written straight from their Dewey components: only
/// the components a match does not share with the one before are coded.
/// The bytes are those of front-coding `Dewey::to_key`.
pub struct AnswerEncoder {
    id: u64,
    /// The frame being filled: header and count placeholders, then keys.
    frame: Vec<u8>,
    count: u32,
    /// The last match: its components, its key, and where each
    /// component's code ends in the key.
    prev: Vec<u32>,
    prev_key: Vec<u8>,
    ends: Vec<usize>,
    /// The key being built.
    key: Vec<u8>,
}

/// Frame bytes ahead of the first key: the header and the match count.
const CHUNK_HEAD: usize = HEADER_LEN + 4;

impl AnswerEncoder {
    /// An empty answer to request `id`.
    pub fn new(id: u64) -> AnswerEncoder {
        AnswerEncoder {
            id,
            frame: vec![0; CHUNK_HEAD],
            count: 0,
            prev: Vec::new(),
            prev_key: Vec::new(),
            ends: Vec::new(),
            key: Vec::new(),
        }
    }

    /// Add the next match (document order), given by its Dewey
    /// components; a sealed `QueryPart` frame when the chunk being filled
    /// had no room left for it.
    pub fn push(&mut self, comps: &[u32]) -> Option<Vec<u8>> {
        let same = (comps.iter())
            .zip(&self.prev)
            .take_while(|(a, b)| a == b)
            .count();
        // The codes of the components the two ids share are shared bytes;
        // the codes of the rest are written afresh.
        let base = (same.checked_sub(1))
            .and_then(|i| self.ends.get(i).copied())
            .unwrap_or(0);
        self.key.clear();
        (self.key).extend_from_slice(self.prev_key.get(..base).unwrap_or_default());
        self.prev.truncate(same);
        self.ends.truncate(same);
        for &c in comps.get(same..).unwrap_or_default() {
            put_code(&mut self.key, c);
            self.prev.push(c);
            self.ends.push(self.key.len());
        }
        let fresh = self.key.get(base..).unwrap_or_default();
        let mut shared = base
            + (fresh.iter())
                .zip(self.prev_key.get(base..).unwrap_or_default())
                .take_while(|(a, b)| a == b)
                .count();
        let rest = self.key.len() - shared;
        let grows = varint_len(shared) + varint_len(rest) + rest;
        let part = (self.count > 0 && self.frame.len() - HEADER_LEN + grows > CHUNK_BYTES)
            .then(|| self.seal());
        if self.count == 0 {
            shared = 0; // a frame's first key stands alone
        }
        put_varint(&mut self.frame, shared);
        put_varint(&mut self.frame, self.key.len() - shared);
        self.frame
            .extend_from_slice(self.key.get(shared..).unwrap_or_default());
        std::mem::swap(&mut self.key, &mut self.prev_key);
        self.count += 1;
        part
    }

    /// The final `QueryOk` frame: the matches no part took.
    pub fn finish(self) -> Vec<u8> {
        self.last(op::QUERY_OK)
    }

    /// The frame being filled, sealed as `opcode`, as the answer's last.
    fn last(mut self, opcode: u8) -> Vec<u8> {
        let mut frame = std::mem::take(&mut self.frame);
        self.write_head(opcode, &mut frame);
        frame
    }

    /// Seal the frame being filled as a `QueryPart` and start the next.
    fn seal(&mut self) -> Vec<u8> {
        let mut next = Vec::with_capacity(CHUNK_HEAD + CHUNK_BYTES);
        next.resize(CHUNK_HEAD, 0);
        let mut frame = std::mem::replace(&mut self.frame, next);
        self.write_head(op::QUERY_PART, &mut frame);
        self.count = 0;
        frame
    }

    /// Fill in the header and match count ahead of `frame`'s keys.
    fn write_head(&self, opcode: u8, frame: &mut [u8]) {
        let len = (frame.len() - HEADER_LEN) as u32;
        let head = std::iter::once(opcode)
            .chain(self.id.to_le_bytes())
            .chain(len.to_le_bytes())
            .chain(self.count.to_le_bytes());
        frame.iter_mut().zip(head).for_each(|(b, h)| *b = h);
    }
}

/// Bytes of `v` as a LEB128 varint.
fn varint_len(v: usize) -> usize {
    (usize::BITS - (v | 1).leading_zeros()).div_ceil(7) as usize
}

/// Append `v` as a LEB128 varint.
fn put_varint(out: &mut Vec<u8>, mut v: usize) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Renders the front-coded keys of one frame as `a.b.c` (the empty key,
/// the document node, as `""`), re-rendering only the components a key
/// does not share with the key before it.
#[derive(Default)]
struct KeyText {
    key: Vec<u8>,
    /// Per component of `key`: where its code ends in `key`, and where its
    /// digits end in `text`.
    ends: Vec<(usize, usize)>,
    text: Vec<u8>,
}

impl KeyText {
    /// The next key: the first `shared` bytes of the key before, then
    /// `rest`.
    fn next(&mut self, shared: usize, rest: &[u8]) -> Result<String, FrameError> {
        if shared > self.key.len() {
            return Err(FrameError::Malformed(
                "key shares more bytes than the key before it has",
            ));
        }
        self.key.truncate(shared);
        self.key.extend_from_slice(rest);
        // Keep the components whose codes lie in the shared bytes.
        while self
            .ends
            .last()
            .is_some_and(|&(code_end, _)| code_end > shared)
        {
            self.ends.pop();
        }
        let (mut at, text_end) = self.ends.last().copied().unwrap_or_default();
        self.text.truncate(text_end);
        while let Some(code) = self.key.get(at..).filter(|c| !c.is_empty()) {
            let (c, n) = get_code(code).ok_or(FrameError::Malformed("invalid dewey key"))?;
            at += n;
            if !self.ends.is_empty() {
                self.text.push(b'.');
            }
            push_decimal(&mut self.text, c);
            self.ends.push((at, self.text.len()));
        }
        String::from_utf8(self.text.clone()).map_err(|_| FrameError::BadUtf8)
    }
}

/// Append the decimal rendering of `v`.
fn push_decimal(out: &mut Vec<u8>, mut v: u32) {
    let start = out.len();
    loop {
        out.push(b'0' + (v % 10) as u8);
        v /= 10;
        if v == 0 {
            break;
        }
    }
    if let Some(digits) = out.get_mut(start..) {
        digits.reverse();
    }
}

/// The matches of a `QueryPart` or `QueryOk` payload.
fn decode_matches(payload: &[u8]) -> Result<Vec<WireMatch>, FrameError> {
    let mut c = Cursor::new(payload);
    let count = c.u32()? as usize;
    // Each match needs at least its two varint bytes; reject counts the
    // payload cannot possibly hold before allocating.
    if count > payload.len() / 2 {
        return Err(FrameError::Malformed("match count exceeds payload"));
    }
    let mut matches = Vec::with_capacity(count);
    let mut key = KeyText::default();
    for _ in 0..count {
        let shared = c.varint()?;
        let len = c.varint()?;
        let dewey = key.next(shared, c.take(len)?)?;
        matches.push(WireMatch { dewey });
    }
    c.done()?;
    Ok(matches)
}

/// Decode a response frame from its fields.
pub fn decode_response(opcode: u8, id: u64, payload: &[u8]) -> Result<BinResponse, FrameError> {
    match opcode {
        op::QUERY_OK => Ok(BinResponse::QueryOk {
            id,
            matches: decode_matches(payload)?,
        }),
        op::QUERY_PART => Ok(BinResponse::QueryPart {
            id,
            matches: decode_matches(payload)?,
        }),
        op::EXPLAIN_OK => {
            let mut c = Cursor::new(payload);
            let count = c.u32()?;
            let tl = c.u32()? as usize;
            let text = c.str_with_len(tl)?;
            c.done()?;
            Ok(BinResponse::ExplainOk { id, count, text })
        }
        op::STATS_OK => {
            let mut c = Cursor::new(payload);
            let json = c.str_with_len(payload.len())?;
            Ok(BinResponse::StatsOk { id, json })
        }
        op::PONG => empty(payload).map(|()| BinResponse::Pong { id }),
        op::STOPPING => empty(payload).map(|()| BinResponse::Stopping { id }),
        op::ERROR => {
            let mut c = Cursor::new(payload);
            let code =
                ErrCode::from_byte(c.u8()?).ok_or(FrameError::Malformed("unknown error code"))?;
            let ml = c.u16()? as usize;
            let message = c.str_with_len(ml)?;
            c.done()?;
            Ok(BinResponse::Error { id, code, message })
        }
        other => Err(FrameError::UnknownOpcode(other)),
    }
}

/// Folds the `QueryPart` chunks of each answer into the `QueryOk` that
/// ends it, per id, however answers interleave.
#[derive(Debug, Default)]
pub struct Reassembly {
    /// Matches of the answers under way, by id.
    partial: HashMap<u64, Vec<WireMatch>>,
}

impl Reassembly {
    /// Take the next decoded frame: `None` for a part (kept for its id),
    /// else the response — a `QueryOk` carrying its parts' matches ahead
    /// of its own, or an `Error` for which the id's parts are dropped. Any
    /// other response to an id with an answer under way is malformed.
    pub fn take(&mut self, resp: BinResponse) -> Result<Option<BinResponse>, FrameError> {
        match resp {
            BinResponse::QueryPart { id, mut matches } => {
                self.partial.entry(id).or_default().append(&mut matches);
                Ok(None)
            }
            BinResponse::QueryOk { id, mut matches } => Ok(Some(BinResponse::QueryOk {
                id,
                matches: match self.partial.remove(&id) {
                    Some(mut parts) => {
                        parts.append(&mut matches);
                        parts
                    }
                    None => matches,
                },
            })),
            BinResponse::Error { id, .. } => {
                self.partial.remove(&id);
                Ok(Some(resp))
            }
            other if self.partial.contains_key(&other.id()) => Err(FrameError::Malformed(
                "a response other than the answer's own interrupts it",
            )),
            other => Ok(Some(other)),
        }
    }

    /// The stream ended: an answer with parts but no final frame was torn.
    pub fn finish(&self) -> Result<(), FrameError> {
        if self.partial.is_empty() {
            Ok(())
        } else {
            Err(FrameError::Malformed("stream ended inside an answer"))
        }
    }
}

// ---------------------------------------------------------------------------
// Client.

/// A binary-protocol client connection. Writes are buffered — a pipelining
/// caller `send`s a window of requests and `flush`es once — and responses
/// are read one frame at a time in arrival order.
pub struct BinClient {
    w: BufWriter<TcpStream>,
    r: BufReader<TcpStream>,
    scratch: Vec<u8>,
    answers: Reassembly,
}

impl BinClient {
    /// Connect over an established stream: sends the preamble immediately.
    pub fn new(stream: TcpStream) -> io::Result<BinClient> {
        // Pipelined round-trips with small frames must not wait out Nagle.
        stream.set_nodelay(true).ok();
        let mut w = BufWriter::new(stream.try_clone()?);
        let r = BufReader::new(stream);
        w.write_all(&MAGIC)?;
        w.write_all(&[VERSION])?;
        Ok(BinClient {
            w,
            r,
            scratch: Vec::new(),
            answers: Reassembly::default(),
        })
    }

    /// Queue one request (buffered; call [`BinClient::flush`] to put it on
    /// the wire).
    pub fn send(&mut self, req: &Request) -> io::Result<()> {
        self.scratch.clear();
        encode_request(&mut self.scratch, req);
        self.w.write_all(&self.scratch)
    }

    /// Flush buffered requests to the socket.
    pub fn flush(&mut self) -> io::Result<()> {
        self.w.flush()
    }

    /// Read the next response, a query answer whole (its parts folded
    /// in, see [`Reassembly`]); `Ok(None)` on clean EOF.
    pub fn recv(&mut self) -> io::Result<Option<BinResponse>> {
        loop {
            let Some((opcode, id, payload)) = read_bin_frame(&mut self.r)? else {
                self.answers.finish()?;
                return Ok(None);
            };
            let resp = decode_response(opcode, id, &payload)?;
            if let Some(resp) = self.answers.take(resp)? {
                return Ok(Some(resp));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nok_core::Dewey;

    #[test]
    fn requests_round_trip_binary() {
        for req in [
            Request::Query {
                id: 7,
                path: "//a/b".into(),
                timeout_ms: Some(250),
            },
            Request::Query {
                id: 8,
                path: "/x".into(),
                timeout_ms: None,
            },
            Request::Query {
                id: 9,
                path: String::new(),
                timeout_ms: Some(0),
            },
            Request::Explain {
                id: 10,
                path: "//a[b]".into(),
            },
            Request::Stats { id: 1 },
            Request::Ping { id: 2 },
            Request::Shutdown { id: u64::MAX },
        ] {
            let mut buf = Vec::new();
            encode_request(&mut buf, &req);
            let (opcode, id, payload, used) = split_frame(&buf).unwrap().unwrap();
            assert_eq!(used, buf.len());
            assert_eq!(decode_request(opcode, id, payload).unwrap(), req);
        }
    }

    /// The encoder fed Dewey ids must put on the wire exactly what
    /// `encode_response` does from their renderings, and both must decode
    /// back to them: at every decimal width, at the Dewey key code's length
    /// boundaries, for 40-deep ids, the document node, and answers of
    /// several chunks.
    #[test]
    fn query_ok_direct_encoding_is_byte_identical() {
        let edges = [
            0,
            9,
            10,
            99,
            100,
            127,
            128,
            16_511,
            16_512,
            2_113_663,
            2_113_664,
            270_549_119,
            270_549_120,
            999_999_999,
            1_000_000_000,
            u32::MAX,
        ];
        let mut ids: Vec<Dewey> = vec![Dewey::default()];
        ids.extend(edges.iter().map(|&c| Dewey::from_components(vec![0, c, 3])));
        ids.push(Dewey::from_components(
            (0..40).map(|i| i * 1_000_003).collect(),
        ));
        ids.push(Dewey::from_components(
            (0..40).map(|i| u32::MAX - i).collect(),
        ));
        // Siblings under one parent: each key shares all but its last code.
        ids.extend((0..20_000).map(|i| Dewey::from_components(vec![0, 7, i, 1])));
        for n in [0, 1, 2, 19, ids.len()] {
            let wire = BinResponse::QueryOk {
                id: 0xfeed_0000_0000_0001,
                matches: ids[..n]
                    .iter()
                    .map(|d| WireMatch {
                        dewey: d.to_string(),
                    })
                    .collect(),
            };
            // Both appended behind existing bytes, as frames are batched.
            let (mut via_strings, mut direct) = (vec![0xAB], vec![0xAB]);
            encode_response(&mut via_strings, &wire);
            let mut enc = AnswerEncoder::new(wire.id());
            for d in &ids[..n] {
                if let Some(part) = enc.push(d.components()) {
                    direct.extend_from_slice(&part);
                }
            }
            direct.extend_from_slice(&enc.finish());
            assert_eq!(direct, via_strings, "{n} matches");
            let mut rest = &direct[1..];
            let mut answers = Reassembly::default();
            let mut whole = None;
            while let Some((op, id, payload, used)) = split_frame(rest).unwrap() {
                rest = &rest[used..];
                assert!(whole.is_none(), "frames after the final one");
                whole = answers
                    .take(decode_response(op, id, payload).unwrap())
                    .unwrap();
            }
            assert!(rest.is_empty());
            assert_eq!(whole, Some(wire), "{n} matches");
        }
    }

    /// An answer far over one chunk streams as parts of at most
    /// `CHUNK_BYTES` of matches each, then one final frame; nothing caps it.
    #[test]
    fn large_answers_stream_in_bounded_chunks() {
        let deep: Vec<u32> = (0..40).map(|i| u32::MAX - i).collect();
        let mut enc = AnswerEncoder::new(77);
        let mut out = Vec::new();
        for entry in 0..50_000 {
            let mut c = deep.clone();
            c.push(entry);
            if let Some(part) = enc.push(&c) {
                out.extend_from_slice(&part);
            }
        }
        out.extend_from_slice(&enc.finish());
        let mut rest = &out[..];
        let (mut parts, mut matches) = (0, 0);
        while let Some((op, id, payload, used)) = split_frame(rest).unwrap() {
            rest = &rest[used..];
            assert_eq!(id, 77);
            assert!(payload.len() <= CHUNK_BYTES, "{}", payload.len());
            match decode_response(op, id, payload).unwrap() {
                BinResponse::QueryPart { matches: m, .. } => {
                    parts += 1;
                    matches += m.len();
                }
                BinResponse::QueryOk { matches: m, .. } => {
                    matches += m.len();
                    assert!(rest.is_empty(), "the final frame is the last");
                }
                other => panic!("unexpected response {other:?}"),
            }
        }
        assert_eq!(matches, 50_000);
        assert!(parts > 1, "{parts} parts");
    }

    /// A key's shared prefix may not reach past the key before it, and a
    /// stream may not end, or be interrupted, inside an answer.
    #[test]
    fn bad_deltas_and_torn_answers_are_errors() {
        // Two matches: "0.1" then one claiming 3 shared bytes of a 2-byte key.
        let mut payload = 2u32.to_le_bytes().to_vec();
        payload.extend_from_slice(&[0, 2, 0, 1, 3, 0]);
        assert!(matches!(
            decode_response(op::QUERY_OK, 1, &payload),
            Err(FrameError::Malformed(_))
        ));
        let part = |id| BinResponse::QueryPart {
            id,
            matches: vec![WireMatch { dewey: "0".into() }],
        };
        let mut answers = Reassembly::default();
        assert_eq!(answers.take(part(5)), Ok(None));
        assert!(answers.take(BinResponse::Pong { id: 5 }).is_err());
        assert!(answers.finish().is_err(), "stream ended inside an answer");
        let err = BinResponse::Error {
            id: 5,
            code: ErrCode::Engine,
            message: "x".into(),
        };
        assert_eq!(answers.take(err.clone()), Ok(Some(err)));
        assert_eq!(answers.finish(), Ok(()), "the error dropped the parts");
    }

    #[test]
    fn result_lines_are_stable() {
        let matches = vec![
            WireMatch {
                dewey: "1.2".into(),
            },
            WireMatch {
                dewey: "1.4".into(),
            },
        ];
        assert_eq!(result_line("//a", &matches), "//a\t2\t1.2;1.4");
        assert_eq!(result_line("//b", &[]), "//b\t0\t");
    }

    #[test]
    fn responses_round_trip_binary() {
        let cases = vec![
            BinResponse::QueryOk {
                id: 3,
                matches: vec![
                    WireMatch {
                        dewey: "1.2.3".into(),
                    },
                    WireMatch {
                        dewey: "1.9".into(),
                    },
                ],
            },
            BinResponse::QueryPart {
                id: 3,
                matches: vec![
                    WireMatch { dewey: "".into() },
                    WireMatch {
                        dewey: "0.128.16512".into(),
                    },
                ],
            },
            BinResponse::QueryOk {
                id: 4,
                matches: vec![],
            },
            BinResponse::ExplainOk {
                id: 5,
                count: 2,
                text: "op  est  actual\n".into(),
            },
            BinResponse::StatsOk {
                id: 6,
                json: r#"{"served":3}"#.into(),
            },
            BinResponse::Pong { id: 7 },
            BinResponse::Stopping { id: 8 },
            BinResponse::Error {
                id: 9,
                code: ErrCode::QueueFull,
                message: "admission queue full".into(),
            },
        ];
        for resp in cases {
            let mut buf = Vec::new();
            encode_response(&mut buf, &resp);
            let (opcode, id, payload, used) = split_frame(&buf).unwrap().unwrap();
            assert_eq!(used, buf.len());
            assert_eq!(decode_response(opcode, id, payload).unwrap(), resp);
        }
    }

    #[test]
    fn incomplete_prefixes_ask_for_more() {
        let mut buf = Vec::new();
        encode_request(
            &mut buf,
            &Request::Query {
                id: 1,
                path: "//x".into(),
                timeout_ms: None,
            },
        );
        for cut in 0..buf.len() {
            assert_eq!(
                split_frame(&buf[..cut]).unwrap().map(|f| f.3),
                None,
                "prefix of {cut} bytes must be incomplete, not an error"
            );
        }
    }

    #[test]
    fn oversized_length_is_rejected() {
        let mut buf = Vec::new();
        put_frame(&mut buf, op::PING, 1, &[]);
        // Corrupt the length field to MAX_FRAME + 1.
        let bad = ((MAX_FRAME + 1) as u32).to_le_bytes();
        buf[9..13].copy_from_slice(&bad);
        assert!(matches!(split_frame(&buf), Err(FrameError::Oversized(_))));
        let mut r = &buf[..];
        assert!(read_bin_frame(&mut r).is_err());
    }

    #[test]
    fn torn_stream_frames_error_cleanly() {
        let mut buf = Vec::new();
        encode_request(&mut buf, &Request::Stats { id: 2 });
        // Clean EOF at a boundary: Ok(None).
        let mut r = &buf[..0];
        assert!(read_bin_frame(&mut r).unwrap().is_none());
        // EOF inside the header or payload: an error, not a hang or panic.
        for cut in 1..buf.len() {
            let mut r = &buf[..cut];
            assert!(read_bin_frame(&mut r).is_err(), "torn at {cut}");
        }
    }

    #[test]
    fn unknown_opcodes_are_errors() {
        assert_eq!(
            decode_request(0x7F, 1, &[]),
            Err(FrameError::UnknownOpcode(0x7F))
        );
        assert_eq!(
            decode_response(0x02, 1, &[]),
            Err(FrameError::UnknownOpcode(0x02)),
            "request opcodes are not valid responses"
        );
    }

    #[test]
    fn bodiless_opcodes_reject_payloads() {
        assert!(decode_request(op::PING, 1, b"x").is_err());
        assert!(decode_response(op::PONG, 1, b"x").is_err());
    }
}
