//! The wire protocol: pipelined binary frames with explicit request ids.
//!
//! A connection keeps many requests in flight ("pipelining") and matches
//! responses to requests by id, in whatever order the workers finish them,
//! so one connection can keep a whole worker pool busy.
//!
//! ## Connection preamble
//!
//! A client opens with 5 bytes: the magic `NOKB` then a version byte
//! (currently 1). The server closes a connection that opens with anything
//! else.
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
//! | opcode | response | payload |
//! |--------|----------|---------|
//! | 0x81   | QueryOk  | `count: u32 LE`, then per match `dewey_len: u16 LE` + dewey + `addr_len: u16 LE` + addr |
//! | 0x82   | ExplainOk| `count: u32 LE` + `text_len: u32 LE` + rendered plan table UTF-8 |
//! | 0x83   | StatsOk  | the stats object as compact JSON UTF-8 |
//! | 0x84   | Pong     | empty |
//! | 0x85   | Stopping | empty |
//! | 0xEE   | Error    | `code: u8` + `msg_len: u16 LE` + message UTF-8 |
//!
//! Error codes: 1 timeout, 2 queue full, 3 engine, 4 shutdown,
//! 5 bad request.
//!
//! **Ordering contract:** responses to pipelined requests may arrive in
//! any order; the id is the only correlation. A client that needs
//! submission order (nokq does, to diff byte-identically against offline
//! evaluation) reorders by id on its side.
//!
//! Encoding and decoding are pure functions over byte slices so the
//! property/fuzz suite can drive them without sockets.

use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::TcpStream;

use nok_core::QueryMatch;

/// Connection-opening magic.
pub const MAGIC: [u8; 4] = *b"NOKB";

/// Current protocol version, sent right after the magic.
pub const VERSION: u8 = 1;

/// Hard cap on a single frame's payload, to bound memory on hostile input.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

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
    /// Successful query result.
    pub const QUERY_OK: u8 = 0x81;
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

/// One match in a query response: the Dewey id and physical address,
/// rendered in their canonical display forms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireMatch {
    /// `a.b.c` Dewey path.
    pub dewey: String,
    /// `page:entry` physical address.
    pub addr: String,
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

/// Try to split one frame off the front of `buf`.
///
/// Returns `Ok(None)` when `buf` holds a frame prefix that is so far valid
/// but incomplete (read more bytes and retry), `Ok(Some(...))` with the
/// frame fields and the total bytes consumed, and `Err` when the prefix
/// can never become a valid frame (oversized declared length).
pub fn split_frame(buf: &[u8]) -> Result<Option<(u8, u64, &[u8], usize)>, FrameError> {
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

/// Append `resp` to `out` as one binary frame.
pub fn encode_response(out: &mut Vec<u8>, resp: &BinResponse) {
    match resp {
        BinResponse::QueryOk { id, matches } => {
            let mut payload = Vec::with_capacity(4 + matches.len() * 16);
            payload.extend_from_slice(&(matches.len() as u32).to_le_bytes());
            for m in matches {
                // Dewey paths and physical addresses are short renderings;
                // u16 lengths are ample (and checked).
                let d = m.dewey.as_bytes();
                let a = m.addr.as_bytes();
                payload.extend_from_slice(&(d.len().min(u16::MAX as usize) as u16).to_le_bytes());
                // analyze: allow(serve-worker-panic): upper bound is clamped to the slice length
                payload.extend_from_slice(&d[..d.len().min(u16::MAX as usize)]);
                payload.extend_from_slice(&(a.len().min(u16::MAX as usize) as u16).to_le_bytes());
                // analyze: allow(serve-worker-panic): upper bound is clamped to the slice length
                payload.extend_from_slice(&a[..a.len().min(u16::MAX as usize)]);
            }
            put_frame(out, op::QUERY_OK, *id, &payload);
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

/// Append the `QueryOk` frame answering `id` with `matches` to `out`: each
/// Dewey id and address is written in decimal straight into a payload
/// sized exactly before the first byte. Byte for byte the frame
/// [`encode_response`] builds from the matches' [`WireMatch`] (`Display`)
/// renderings — without the two `String`s per match and the payload copy.
///
/// A receiver drops the connection on a payload above [`MAX_FRAME`], so an
/// answer that large is never written: the frame appended instead is an
/// [`ErrCode::Engine`] error naming the match count and the limit.
pub fn encode_query_ok(out: &mut Vec<u8>, id: u64, matches: &[QueryMatch]) {
    let clamp = |n: usize| n.min(u16::MAX as usize);
    let payload = 4 + matches
        .iter()
        .map(|m| {
            let c = m.dewey.components();
            let dewey =
                c.iter().map(|&x| decimal_len(x)).sum::<usize>() + c.len().saturating_sub(1);
            let addr = decimal_len(m.addr.page) + 1 + decimal_len(m.addr.entry);
            4 + clamp(dewey) + clamp(addr)
        })
        .sum::<usize>();
    if payload > MAX_FRAME {
        let message = format!(
            "answer of {} matches exceeds the {MAX_FRAME}-byte frame limit",
            matches.len()
        );
        return encode_response(
            out,
            &BinResponse::Error {
                id,
                code: ErrCode::Engine,
                message,
            },
        );
    }
    out.reserve(HEADER_LEN + payload);
    out.push(op::QUERY_OK);
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(&(payload as u32).to_le_bytes());
    out.extend_from_slice(&(matches.len() as u32).to_le_bytes());
    for m in matches {
        put_rendered(out, |out| {
            for (i, &c) in m.dewey.components().iter().enumerate() {
                if i > 0 {
                    out.push(b'.');
                }
                push_decimal(out, c);
            }
        });
        put_rendered(out, |out| {
            push_decimal(out, m.addr.page);
            out.push(b':');
            push_decimal(out, m.addr.entry);
        });
    }
}

/// Digits in the decimal rendering of `v`.
fn decimal_len(v: u32) -> usize {
    v.checked_ilog10().map_or(1, |l| l as usize + 1)
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

/// Append what `render` writes behind a `u16 LE` length (clamped like
/// [`encode_response`] clamps).
fn put_rendered(out: &mut Vec<u8>, render: impl FnOnce(&mut Vec<u8>)) {
    let len_at = out.len();
    out.extend_from_slice(&[0; 2]);
    render(out);
    out.truncate(out.len().min(len_at + 2 + u16::MAX as usize));
    let len = (out.len() - len_at - 2) as u16;
    if let Some(slot) = out.get_mut(len_at..len_at + 2) {
        slot.copy_from_slice(&len.to_le_bytes());
    }
}

/// Decode a response from its frame fields.
pub fn decode_response(opcode: u8, id: u64, payload: &[u8]) -> Result<BinResponse, FrameError> {
    match opcode {
        op::QUERY_OK => {
            let mut c = Cursor::new(payload);
            let count = c.u32()? as usize;
            // Each match needs at least 4 length bytes; reject counts the
            // payload cannot possibly hold before allocating.
            if count > payload.len() / 4 {
                return Err(FrameError::Malformed("match count exceeds payload"));
            }
            let mut matches = Vec::with_capacity(count);
            for _ in 0..count {
                let dl = c.u16()? as usize;
                let dewey = c.str_with_len(dl)?;
                let al = c.u16()? as usize;
                let addr = c.str_with_len(al)?;
                matches.push(WireMatch { dewey, addr });
            }
            c.done()?;
            Ok(BinResponse::QueryOk { id, matches })
        }
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

// ---------------------------------------------------------------------------
// Client.

/// A binary-protocol client connection. Writes are buffered — a pipelining
/// caller `send`s a window of requests and `flush`es once — and responses
/// are read one frame at a time in arrival order.
pub struct BinClient {
    w: BufWriter<TcpStream>,
    r: BufReader<TcpStream>,
    scratch: Vec<u8>,
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

    /// Read the next response frame; `Ok(None)` on clean EOF.
    pub fn recv(&mut self) -> io::Result<Option<BinResponse>> {
        match read_bin_frame(&mut self.r)? {
            None => Ok(None),
            Some((opcode, id, payload)) => decode_response(opcode, id, &payload)
                .map(Some)
                .map_err(io::Error::from),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// The direct encoder must put on the wire exactly what the
    /// `WireMatch` path does — `BinClient` decodes both the same: at every
    /// decimal width, at the Dewey key code's length boundaries, and for
    /// 40-deep ids.
    #[test]
    fn query_ok_direct_encoding_is_byte_identical() {
        use nok_core::{Dewey, NodeAddr};
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
        let mut ids: Vec<(Vec<u32>, (u32, u32))> = edges
            .iter()
            .map(|&c| {
                (
                    vec![0, c, 3],
                    (c, edges[edges.len() - 1 - (c % 7) as usize]),
                )
            })
            .collect();
        ids.push(((0..40).map(|i| i * 1_000_003).collect(), (7, 7)));
        ids.push(((0..40).map(|i| u32::MAX - i).collect(), (0, 10)));
        ids.push((vec![0], (0, 0)));
        let matches: Vec<QueryMatch> = ids
            .into_iter()
            .map(|(d, (page, entry))| QueryMatch {
                addr: NodeAddr { page, entry },
                dewey: Dewey::from_components(d),
            })
            .collect();
        for n in [0, 1, matches.len()] {
            let wire = BinResponse::QueryOk {
                id: 0xfeed_0000_0000_0001,
                matches: matches[..n]
                    .iter()
                    .map(|m| WireMatch {
                        dewey: m.dewey.to_string(),
                        addr: m.addr.to_string(),
                    })
                    .collect(),
            };
            // Both appended behind existing bytes, as frames are batched.
            let (mut via_strings, mut direct) = (vec![0xAB], vec![0xAB]);
            encode_response(&mut via_strings, &wire);
            encode_query_ok(&mut direct, wire.id(), &matches[..n]);
            assert_eq!(direct, via_strings, "{n} matches");
            let (op, id, payload, used) = split_frame(&direct[1..]).unwrap().unwrap();
            assert_eq!(used + 1, direct.len());
            assert_eq!(decode_response(op, id, payload).unwrap(), wire);
        }
    }

    /// ~400 B per match: 50k matches is a 20 MB payload, over `MAX_FRAME`.
    #[test]
    fn oversized_query_answer_becomes_an_error_frame() {
        use nok_core::{Dewey, NodeAddr};
        let deep: Vec<u32> = (0..40).map(|i| u32::MAX - i).collect();
        let matches: Vec<QueryMatch> = (0..50_000)
            .map(|entry| QueryMatch {
                addr: NodeAddr { page: 7, entry },
                dewey: Dewey::from_components(deep.clone()),
            })
            .collect();
        let mut out = vec![0xAB];
        encode_query_ok(&mut out, 77, &matches);
        let (op, id, payload, used) = split_frame(&out[1..]).unwrap().unwrap();
        assert_eq!(used + 1, out.len(), "one receivable frame, nothing else");
        match decode_response(op, id, payload).unwrap() {
            BinResponse::Error { id, code, message } => {
                assert_eq!((id, code), (77, ErrCode::Engine));
                assert!(message.contains("50000 matches"), "{message}");
                assert!(message.contains(&MAX_FRAME.to_string()), "{message}");
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn result_lines_are_stable() {
        let matches = vec![
            WireMatch {
                dewey: "1.2".into(),
                addr: "0:1".into(),
            },
            WireMatch {
                dewey: "1.4".into(),
                addr: "0:2".into(),
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
                        addr: "4:7".into(),
                    },
                    WireMatch {
                        dewey: "1.9".into(),
                        addr: "2:0".into(),
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
