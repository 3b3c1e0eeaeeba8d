//! The `chl serve` wire protocol: little-endian, length-prefixed frames.
//!
//! A connection opens with a 4-byte preamble. [`MAGIC`] (`CHL1`) selects the
//! binary protocol below; anything else is handed to the HTTP/1.1 adapter
//! (`GET /distance?s=..&t=..` for curl-ability, see [`crate::http`]). After
//! the preamble both directions speak the same framing:
//!
//! ```text
//! frame   := len:u32le payload[len]          (len <= the server's max_frame)
//! payload := opcode:u8 body
//!
//! requests                                   responses
//!   0x01 QUERY  count:u32le (u:u32le v:u32le)*   0x81 DISTANCES count:u32le (d:u64le)*
//!   0x02 INFO   (empty)                          0x82 INFO   vertices:u64le labels:u64le
//!   0x03 RELOAD (empty)                                      generation:u64le flags:u8
//!   0x04 SHUTDOWN (empty)                                    [shard_id:u32le shard_count:u32le]
//!   0x05 PATH   u:u32le v:u32le                  0x83 OK     generation:u64le
//!   0x06 MATRIX s:u32le t:u32le (src:u32le)*     0x84 PATH   count:u32le (vertex:u32le)*
//!               (tgt:u32le)*                     0x85 MATRIX count:u32le (d:u64le)*
//!                                                0xEE ERROR  code:u16le detail:u64le msg:utf8
//! ```
//!
//! A PATH response with `count == 0` means the endpoints are disconnected —
//! an answer, not an error (a server without path data answers
//! [`ErrorCode::NoPathData`] instead). A MATRIX response carries the
//! `s_count × t_count` block row-major, exactly the in-process
//! [`DistanceOracle::matrix`](chl_core::oracle::DistanceOracle::matrix)
//! contract over the wire.
//!
//! The INFO shard tail is present exactly when the `flags` byte has
//! [`INFO_FLAG_SHARDED`] set — a server loading one `.chl` shard file
//! announces which shard it is; whole-index servers (and pre-shard peers)
//! emit the original 25-byte body unchanged.
//!
//! Requests are answered **in order**, one response frame per request frame,
//! so clients may pipeline freely — the server coalesces every QUERY frame
//! available in one read into a single batched
//! [`DistanceOracle::distances`](chl_core::oracle::DistanceOracle::distances)
//! call. Anything the server cannot serve is a typed [`ErrorCode`] frame,
//! never a silently dropped connection: an out-of-range vertex id fails its
//! frame with [`ErrorCode::VertexOutOfRange`] and the offending id in
//! `detail` (the connection keeps serving), while an oversized declared
//! length answers [`ErrorCode::Oversized`] and then closes, because the
//! stream can no longer be re-synchronized.
//!
//! Everything in this module is deliberately allocation-light and
//! panic-free: it runs on the request path of every connection.

use chl_graph::types::{Distance, VertexId};

/// Connection preamble selecting the binary protocol.
pub const MAGIC: [u8; 4] = *b"CHL1";

/// Default cap on one frame's payload length, in bytes (1 MiB ≈ 131k query
/// pairs). The server refuses larger declared lengths before buffering them.
pub const DEFAULT_MAX_FRAME: u32 = 1 << 20;

/// Request opcode: batched distance queries.
pub const OP_QUERY: u8 = 0x01;
/// Request opcode: index/server metadata.
pub const OP_INFO: u8 = 0x02;
/// Request opcode: revalidate and hot-swap the index file.
pub const OP_RELOAD: u8 = 0x03;
/// Request opcode: graceful server shutdown.
pub const OP_SHUTDOWN: u8 = 0x04;
/// Request opcode: reconstruct one shortest path (`u:u32le v:u32le`).
pub const OP_PATH: u8 = 0x05;
/// Request opcode: a `sources × targets` distance block.
pub const OP_MATRIX: u8 = 0x06;

/// Response opcode: one distance per queried pair, in request order.
pub const OP_DISTANCES: u8 = 0x81;
/// Response opcode: metadata answer to [`OP_INFO`].
pub const OP_INFO_RESP: u8 = 0x82;
/// Response opcode: success answer to [`OP_RELOAD`] / [`OP_SHUTDOWN`].
pub const OP_OK: u8 = 0x83;
/// Response opcode: the vertex sequence answering an [`OP_PATH`] request;
/// an empty sequence means the endpoints are disconnected.
pub const OP_PATH_RESP: u8 = 0x84;
/// Response opcode: the row-major distance block answering [`OP_MATRIX`].
pub const OP_MATRIX_RESP: u8 = 0x85;
/// Response opcode: typed error frame.
pub const OP_ERROR: u8 = 0xEE;

/// Bit set in the INFO response `flags` byte when the entries section is
/// delta+varint compressed.
pub const INFO_FLAG_COMPRESSED: u8 = 0b01;
/// Bit set in the INFO response `flags` byte when the index is served from a
/// real file mapping (not the buffered fallback).
pub const INFO_FLAG_MAPPED: u8 = 0b10;
/// Bit set in the INFO response `flags` byte when the served index is one
/// QDOL shard of a sharded index; the body then carries the shard tail.
pub const INFO_FLAG_SHARDED: u8 = 0b100;

/// Typed failure reported in an [`OP_ERROR`] frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The payload did not decode as its opcode's body (wrong length, count
    /// mismatch, empty payload).
    Malformed,
    /// The declared frame length exceeds the server's cap; the connection is
    /// closed after this frame because framing cannot be recovered.
    Oversized,
    /// A query named a vertex id outside `0..num_vertices`; `detail` carries
    /// the first offending id. The whole containing frame fails.
    VertexOutOfRange,
    /// The index file could not be reloaded; the previous index keeps
    /// serving. The message carries the loader's typed error text.
    ReloadFailed,
    /// The request opcode is not one this server understands.
    UnknownOpcode,
    /// This server holds one shard of a sharded index and a queried vertex
    /// is owned by another shard; `detail` carries the first foreign id.
    /// Clients talking to `chl route` never see this — the router places
    /// each query on an owning shard.
    NotThisShard,
    /// The shard that owns a query is not reachable right now (its backend
    /// connection failed); `detail` carries the shard id. Only the frames
    /// placed on the dead shard fail — the rest of a batch keeps answering.
    ShardUnavailable,
    /// A PATH request reached an index whose `.chl` file carries no path
    /// section (built without `--paths`), or whose parent records could not
    /// witness the queried pair. Distances still serve; rebuild with
    /// `chl build --paths` for reconstruction.
    NoPathData,
}

impl ErrorCode {
    /// Wire value of the code.
    pub fn as_u16(self) -> u16 {
        match self {
            ErrorCode::Malformed => 1,
            ErrorCode::Oversized => 2,
            ErrorCode::VertexOutOfRange => 3,
            ErrorCode::ReloadFailed => 4,
            ErrorCode::UnknownOpcode => 5,
            ErrorCode::NotThisShard => 6,
            ErrorCode::ShardUnavailable => 7,
            ErrorCode::NoPathData => 8,
        }
    }

    /// Decodes a wire value, `None` for codes this build does not know.
    pub fn from_u16(raw: u16) -> Option<ErrorCode> {
        match raw {
            1 => Some(ErrorCode::Malformed),
            2 => Some(ErrorCode::Oversized),
            3 => Some(ErrorCode::VertexOutOfRange),
            4 => Some(ErrorCode::ReloadFailed),
            5 => Some(ErrorCode::UnknownOpcode),
            6 => Some(ErrorCode::NotThisShard),
            7 => Some(ErrorCode::ShardUnavailable),
            8 => Some(ErrorCode::NoPathData),
            _ => None,
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ErrorCode::Malformed => "malformed frame",
            ErrorCode::Oversized => "oversized frame",
            ErrorCode::VertexOutOfRange => "vertex id out of range",
            ErrorCode::ReloadFailed => "index reload failed",
            ErrorCode::UnknownOpcode => "unknown opcode",
            ErrorCode::NotThisShard => "vertex owned by another shard",
            ErrorCode::ShardUnavailable => "owning shard unavailable",
            ErrorCode::NoPathData => "index carries no path data",
        };
        f.write_str(name)
    }
}

/// One decoded request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Batched distance queries, answered in order by one DISTANCES frame.
    Query(Vec<(VertexId, VertexId)>),
    /// Ask for index/server metadata.
    Info,
    /// Revalidate the index file and swap it in without dropping requests.
    Reload,
    /// Stop accepting connections and exit once in-flight work drains.
    Shutdown,
    /// Reconstruct one shortest path `u → v`, answered by one PATH frame.
    Path(VertexId, VertexId),
    /// A `sources × targets` distance block, answered row-major by one
    /// MATRIX frame.
    Matrix {
        /// Row ids, one row per occurrence.
        sources: Vec<VertexId>,
        /// Column ids, one column per occurrence.
        targets: Vec<VertexId>,
    },
}

/// Index/server metadata carried by an [`OP_INFO_RESP`] frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerInfo {
    /// Vertices covered by the currently served index (valid ids are `0..n`).
    pub num_vertices: u64,
    /// Total label entries in the index.
    pub total_labels: u64,
    /// Reload generation: 0 for the index the server started with,
    /// incremented by every successful reload.
    pub generation: u64,
    /// `true` when the entries section is delta+varint compressed.
    pub compressed: bool,
    /// `true` when served from a real file mapping.
    pub mapped: bool,
    /// `(shard_id, shard_count)` when the served index is one QDOL shard of
    /// a sharded index; `None` for a whole index.
    pub shard: Option<(u32, u32)>,
}

/// One decoded response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Distances for one QUERY frame, in request order.
    Distances(Vec<Distance>),
    /// Metadata answer.
    Info(ServerInfo),
    /// Success acknowledgment carrying the current reload generation.
    Ok {
        /// Reload generation after the acknowledged operation.
        generation: u64,
    },
    /// The vertex sequence answering one PATH request: `path[0] == u`,
    /// `path[last] == v`, consecutive vertices adjacent in the graph. Empty
    /// when the endpoints are disconnected (an answer, not an error).
    Path(Vec<VertexId>),
    /// The row-major distance block answering one MATRIX request.
    Matrix(Vec<Distance>),
    /// Typed failure; see [`ErrorCode`].
    Error {
        /// What went wrong.
        code: ErrorCode,
        /// Code-specific detail (the offending vertex id for
        /// [`ErrorCode::VertexOutOfRange`], otherwise 0).
        detail: u64,
        /// Human-readable context, possibly empty.
        message: String,
    },
}

/// A framing or decoding failure — the peer broke the wire format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before its opcode's body was complete.
    Truncated,
    /// The payload carried bytes past its opcode's body.
    TrailingBytes,
    /// The frame declared a payload longer than the negotiated cap.
    Oversized {
        /// Declared payload length.
        declared: u32,
        /// The cap it exceeded.
        max: u32,
    },
    /// The opcode byte is not part of the protocol.
    UnknownOpcode(u8),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame payload truncated"),
            WireError::TrailingBytes => write!(f, "frame payload has trailing bytes"),
            WireError::Oversized { declared, max } => {
                write!(f, "declared frame length {declared} exceeds cap {max}")
            }
            WireError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------------
// Little-endian cursor helpers (panic-free: every read is checked).
// ---------------------------------------------------------------------------

fn take_u8(b: &[u8]) -> Result<(u8, &[u8]), WireError> {
    match b.split_first() {
        Some((v, rest)) => Ok((*v, rest)),
        None => Err(WireError::Truncated),
    }
}

fn take_u16(b: &[u8]) -> Result<(u16, &[u8]), WireError> {
    match b.split_first_chunk::<2>() {
        Some((v, rest)) => Ok((u16::from_le_bytes(*v), rest)),
        None => Err(WireError::Truncated),
    }
}

fn take_u32(b: &[u8]) -> Result<(u32, &[u8]), WireError> {
    match b.split_first_chunk::<4>() {
        Some((v, rest)) => Ok((u32::from_le_bytes(*v), rest)),
        None => Err(WireError::Truncated),
    }
}

fn take_u64(b: &[u8]) -> Result<(u64, &[u8]), WireError> {
    match b.split_first_chunk::<8>() {
        Some((v, rest)) => Ok((u64::from_le_bytes(*v), rest)),
        None => Err(WireError::Truncated),
    }
}

fn take_u32s(mut b: &[u8], count: u32) -> Result<(Vec<u32>, &[u8]), WireError> {
    let mut out = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let (v, rest) = take_u32(b)?;
        out.push(v);
        b = rest;
    }
    Ok((out, b))
}

fn expect_empty(b: &[u8]) -> Result<(), WireError> {
    if b.is_empty() {
        Ok(())
    } else {
        Err(WireError::TrailingBytes)
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Appends one framed request to `out`.
pub fn encode_request(req: &Request, out: &mut Vec<u8>) {
    match req {
        Request::Query(pairs) => {
            let len = 1 + 4 + 8 * pairs.len();
            out.reserve(4 + len);
            out.extend_from_slice(&(len as u32).to_le_bytes());
            out.push(OP_QUERY);
            out.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
            for &(u, v) in pairs {
                out.extend_from_slice(&u.to_le_bytes());
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        Request::Info => encode_empty(OP_INFO, out),
        Request::Reload => encode_empty(OP_RELOAD, out),
        Request::Shutdown => encode_empty(OP_SHUTDOWN, out),
        Request::Path(u, v) => {
            out.extend_from_slice(&9u32.to_le_bytes());
            out.push(OP_PATH);
            out.extend_from_slice(&u.to_le_bytes());
            out.extend_from_slice(&v.to_le_bytes());
        }
        Request::Matrix { sources, targets } => {
            let len = 1 + 8 + 4 * (sources.len() + targets.len());
            out.reserve(4 + len);
            out.extend_from_slice(&(len as u32).to_le_bytes());
            out.push(OP_MATRIX);
            out.extend_from_slice(&(sources.len() as u32).to_le_bytes());
            out.extend_from_slice(&(targets.len() as u32).to_le_bytes());
            for id in sources.iter().chain(targets) {
                out.extend_from_slice(&id.to_le_bytes());
            }
        }
    }
}

fn encode_empty(opcode: u8, out: &mut Vec<u8>) {
    out.extend_from_slice(&1u32.to_le_bytes());
    out.push(opcode);
}

/// Appends one framed response to `out`.
pub fn encode_response(resp: &Response, out: &mut Vec<u8>) {
    match resp {
        Response::Distances(ds) => {
            let len = 1 + 4 + 8 * ds.len();
            out.reserve(4 + len);
            out.extend_from_slice(&(len as u32).to_le_bytes());
            out.push(OP_DISTANCES);
            out.extend_from_slice(&(ds.len() as u32).to_le_bytes());
            for d in ds {
                out.extend_from_slice(&d.to_le_bytes());
            }
        }
        Response::Info(info) => {
            let len = 1 + 8 + 8 + 8 + 1 + if info.shard.is_some() { 8 } else { 0 };
            out.extend_from_slice(&(len as u32).to_le_bytes());
            out.push(OP_INFO_RESP);
            out.extend_from_slice(&info.num_vertices.to_le_bytes());
            out.extend_from_slice(&info.total_labels.to_le_bytes());
            out.extend_from_slice(&info.generation.to_le_bytes());
            let mut flags = 0u8;
            if info.compressed {
                flags |= INFO_FLAG_COMPRESSED;
            }
            if info.mapped {
                flags |= INFO_FLAG_MAPPED;
            }
            if info.shard.is_some() {
                flags |= INFO_FLAG_SHARDED;
            }
            out.push(flags);
            if let Some((shard_id, shard_count)) = info.shard {
                out.extend_from_slice(&shard_id.to_le_bytes());
                out.extend_from_slice(&shard_count.to_le_bytes());
            }
        }
        Response::Ok { generation } => {
            out.extend_from_slice(&9u32.to_le_bytes());
            out.push(OP_OK);
            out.extend_from_slice(&generation.to_le_bytes());
        }
        Response::Path(vertices) => {
            let len = 1 + 4 + 4 * vertices.len();
            out.reserve(4 + len);
            out.extend_from_slice(&(len as u32).to_le_bytes());
            out.push(OP_PATH_RESP);
            out.extend_from_slice(&(vertices.len() as u32).to_le_bytes());
            for id in vertices {
                out.extend_from_slice(&id.to_le_bytes());
            }
        }
        Response::Matrix(ds) => {
            let len = 1 + 4 + 8 * ds.len();
            out.reserve(4 + len);
            out.extend_from_slice(&(len as u32).to_le_bytes());
            out.push(OP_MATRIX_RESP);
            out.extend_from_slice(&(ds.len() as u32).to_le_bytes());
            for d in ds {
                out.extend_from_slice(&d.to_le_bytes());
            }
        }
        Response::Error {
            code,
            detail,
            message,
        } => {
            let len = 1 + 2 + 8 + message.len();
            out.extend_from_slice(&(len as u32).to_le_bytes());
            out.push(OP_ERROR);
            out.extend_from_slice(&code.as_u16().to_le_bytes());
            out.extend_from_slice(&detail.to_le_bytes());
            out.extend_from_slice(message.as_bytes());
        }
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Decodes one request payload (the bytes after the length prefix).
pub fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    let (opcode, body) = take_u8(payload)?;
    match opcode {
        OP_QUERY => {
            let (count, mut rest) = take_u32(body)?;
            // The count must agree exactly with the payload length: a frame
            // that lies about its pair count is malformed, not partially
            // served.
            if rest.len() != 8 * count as usize {
                return Err(if rest.len() < 8 * count as usize {
                    WireError::Truncated
                } else {
                    WireError::TrailingBytes
                });
            }
            let mut pairs = Vec::with_capacity(count as usize);
            for _ in 0..count {
                let (u, r) = take_u32(rest)?;
                let (v, r) = take_u32(r)?;
                pairs.push((u, v));
                rest = r;
            }
            Ok(Request::Query(pairs))
        }
        OP_INFO => expect_empty(body).map(|()| Request::Info),
        OP_RELOAD => expect_empty(body).map(|()| Request::Reload),
        OP_SHUTDOWN => expect_empty(body).map(|()| Request::Shutdown),
        OP_PATH => {
            let (u, rest) = take_u32(body)?;
            let (v, rest) = take_u32(rest)?;
            expect_empty(rest)?;
            Ok(Request::Path(u, v))
        }
        OP_MATRIX => {
            let (s_count, rest) = take_u32(body)?;
            let (t_count, rest) = take_u32(rest)?;
            // Both counts must agree exactly with the payload length, same
            // discipline as QUERY.
            let want = 4 * (s_count as usize + t_count as usize);
            if rest.len() != want {
                return Err(if rest.len() < want {
                    WireError::Truncated
                } else {
                    WireError::TrailingBytes
                });
            }
            let (sources, rest) = take_u32s(rest, s_count)?;
            let (targets, rest) = take_u32s(rest, t_count)?;
            expect_empty(rest)?;
            Ok(Request::Matrix { sources, targets })
        }
        other => Err(WireError::UnknownOpcode(other)),
    }
}

/// Decodes one response payload (the bytes after the length prefix).
pub fn decode_response(payload: &[u8]) -> Result<Response, WireError> {
    let (opcode, body) = take_u8(payload)?;
    match opcode {
        OP_DISTANCES => {
            let (count, mut rest) = take_u32(body)?;
            if rest.len() != 8 * count as usize {
                return Err(WireError::Truncated);
            }
            let mut ds = Vec::with_capacity(count as usize);
            for _ in 0..count {
                let (d, r) = take_u64(rest)?;
                ds.push(d);
                rest = r;
            }
            Ok(Response::Distances(ds))
        }
        OP_INFO_RESP => {
            let (num_vertices, rest) = take_u64(body)?;
            let (total_labels, rest) = take_u64(rest)?;
            let (generation, rest) = take_u64(rest)?;
            let (flags, rest) = take_u8(rest)?;
            let (shard, rest) = if flags & INFO_FLAG_SHARDED != 0 {
                let (shard_id, rest) = take_u32(rest)?;
                let (shard_count, rest) = take_u32(rest)?;
                (Some((shard_id, shard_count)), rest)
            } else {
                (None, rest)
            };
            expect_empty(rest)?;
            Ok(Response::Info(ServerInfo {
                num_vertices,
                total_labels,
                generation,
                compressed: flags & INFO_FLAG_COMPRESSED != 0,
                mapped: flags & INFO_FLAG_MAPPED != 0,
                shard,
            }))
        }
        OP_OK => {
            let (generation, rest) = take_u64(body)?;
            expect_empty(rest)?;
            Ok(Response::Ok { generation })
        }
        OP_PATH_RESP => {
            let (count, rest) = take_u32(body)?;
            if rest.len() != 4 * count as usize {
                return Err(WireError::Truncated);
            }
            let (vertices, rest) = take_u32s(rest, count)?;
            expect_empty(rest)?;
            Ok(Response::Path(vertices))
        }
        OP_MATRIX_RESP => {
            let (count, mut rest) = take_u32(body)?;
            if rest.len() != 8 * count as usize {
                return Err(WireError::Truncated);
            }
            let mut ds = Vec::with_capacity(count as usize);
            for _ in 0..count {
                let (d, r) = take_u64(rest)?;
                ds.push(d);
                rest = r;
            }
            Ok(Response::Matrix(ds))
        }
        OP_ERROR => {
            let (raw_code, rest) = take_u16(body)?;
            let (detail, rest) = take_u64(rest)?;
            let code = ErrorCode::from_u16(raw_code).ok_or(WireError::Truncated)?;
            Ok(Response::Error {
                code,
                detail,
                message: String::from_utf8_lossy(rest).into_owned(),
            })
        }
        other => Err(WireError::UnknownOpcode(other)),
    }
}

// ---------------------------------------------------------------------------
// Incremental framing
// ---------------------------------------------------------------------------

/// Accumulates raw stream bytes and yields complete frame payloads.
///
/// The buffer enforces the frame-length cap *before* buffering a payload, so
/// a peer declaring a multi-gigabyte frame costs nothing but the 4-byte
/// prefix. Consumed bytes are compacted lazily to keep `extend` amortized
/// O(bytes).
#[derive(Debug)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    start: usize,
    max_frame: u32,
}

impl FrameBuffer {
    /// Creates a buffer enforcing the given payload-length cap.
    pub fn new(max_frame: u32) -> Self {
        FrameBuffer {
            buf: Vec::new(),
            start: 0,
            max_frame,
        }
    }

    /// Appends freshly read stream bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact once the consumed prefix dominates, amortizing the copy.
        if self.start > 0 && self.start * 2 >= self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Yields the next complete frame payload, `Ok(None)` when more bytes
    /// are needed, or [`WireError::Oversized`] when the declared length
    /// exceeds the cap (the stream is unrecoverable after that).
    pub fn next_payload(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        let pending = match self.buf.get(self.start..) {
            Some(p) => p,
            None => return Ok(None),
        };
        let Some((len_bytes, rest)) = pending.split_first_chunk::<4>() else {
            return Ok(None);
        };
        let declared = u32::from_le_bytes(*len_bytes);
        if declared > self.max_frame {
            return Err(WireError::Oversized {
                declared,
                max: self.max_frame,
            });
        }
        let Some(payload) = rest.get(..declared as usize) else {
            return Ok(None);
        };
        let payload = payload.to_vec();
        self.start += 4 + declared as usize;
        Ok(Some(payload))
    }

    /// Number of buffered bytes not yet consumed (diagnostics only).
    pub fn pending_len(&self) -> usize {
        self.buf.len().saturating_sub(self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        for req in [
            Request::Query(vec![(0, 1), (7, 7), (u32::MAX, 0)]),
            Request::Query(Vec::new()),
            Request::Info,
            Request::Reload,
            Request::Shutdown,
            Request::Path(3, 9),
            Request::Path(0, 0),
            Request::Matrix {
                sources: vec![0, 1, 2],
                targets: vec![5, 6],
            },
            Request::Matrix {
                sources: Vec::new(),
                targets: Vec::new(),
            },
        ] {
            let mut wire = Vec::new();
            encode_request(&req, &mut wire);
            let mut fb = FrameBuffer::new(DEFAULT_MAX_FRAME);
            fb.extend(&wire);
            let payload = fb.next_payload().unwrap().expect("one whole frame");
            assert_eq!(decode_request(&payload).unwrap(), req);
            assert!(fb.next_payload().unwrap().is_none());
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in [
            Response::Distances(vec![0, 17, u64::MAX]),
            Response::Info(ServerInfo {
                num_vertices: 9,
                total_labels: 40,
                generation: 3,
                compressed: true,
                mapped: false,
                shard: None,
            }),
            Response::Info(ServerInfo {
                num_vertices: 9,
                total_labels: 13,
                generation: 0,
                compressed: false,
                mapped: true,
                shard: Some((1, 3)),
            }),
            Response::Ok { generation: 2 },
            Response::Path(vec![0, 4, 2, 7]),
            Response::Path(Vec::new()),
            Response::Matrix(vec![0, 3, u64::MAX, 12]),
            Response::Matrix(Vec::new()),
            Response::Error {
                code: ErrorCode::VertexOutOfRange,
                detail: 99,
                message: "vertex id 99 out of range".into(),
            },
            Response::Error {
                code: ErrorCode::NoPathData,
                detail: 0,
                message: String::new(),
            },
        ] {
            let mut wire = Vec::new();
            encode_response(&resp, &mut wire);
            let mut fb = FrameBuffer::new(DEFAULT_MAX_FRAME);
            fb.extend(&wire);
            let payload = fb.next_payload().unwrap().expect("one whole frame");
            assert_eq!(decode_response(&payload).unwrap(), resp);
        }
    }

    #[test]
    fn info_payload_lengths_are_pinned_for_compat() {
        // Pre-shard peers rely on the unsharded body staying exactly its
        // original 25 bytes; the shard tail adds exactly 8.
        let info = |shard| ServerInfo {
            num_vertices: 1,
            total_labels: 2,
            generation: 3,
            compressed: false,
            mapped: false,
            shard,
        };
        let mut wire = Vec::new();
        encode_response(&Response::Info(info(None)), &mut wire);
        assert_eq!(u32::from_le_bytes(wire[..4].try_into().unwrap()), 1 + 25);
        let mut wire = Vec::new();
        encode_response(&Response::Info(info(Some((0, 2)))), &mut wire);
        assert_eq!(u32::from_le_bytes(wire[..4].try_into().unwrap()), 1 + 33);
        // A sharded flag with a truncated tail is a typed wire error.
        let payload = &wire[4..4 + 30];
        assert_eq!(decode_response(payload), Err(WireError::Truncated));
    }

    #[test]
    fn frame_buffer_reassembles_byte_by_byte() {
        let mut wire = Vec::new();
        encode_request(&Request::Query(vec![(1, 2), (3, 4)]), &mut wire);
        encode_request(&Request::Info, &mut wire);
        let mut fb = FrameBuffer::new(DEFAULT_MAX_FRAME);
        let mut seen = Vec::new();
        for b in &wire {
            fb.extend(std::slice::from_ref(b));
            while let Some(p) = fb.next_payload().unwrap() {
                seen.push(decode_request(&p).unwrap());
            }
        }
        assert_eq!(
            seen,
            vec![Request::Query(vec![(1, 2), (3, 4)]), Request::Info]
        );
        assert_eq!(fb.pending_len(), 0);
    }

    #[test]
    fn oversized_declared_length_is_refused_before_buffering() {
        let mut fb = FrameBuffer::new(16);
        fb.extend(&17u32.to_le_bytes());
        assert_eq!(
            fb.next_payload(),
            Err(WireError::Oversized {
                declared: 17,
                max: 16
            })
        );
    }

    #[test]
    fn malformed_payloads_decode_to_typed_errors() {
        assert_eq!(decode_request(&[]), Err(WireError::Truncated));
        assert_eq!(decode_request(&[0x7f]), Err(WireError::UnknownOpcode(0x7f)));
        // QUERY declaring 2 pairs but carrying bytes for 1.
        let mut bad = vec![OP_QUERY];
        bad.extend_from_slice(&2u32.to_le_bytes());
        bad.extend_from_slice(&[0u8; 8]);
        assert_eq!(decode_request(&bad), Err(WireError::Truncated));
        // INFO with a body.
        assert_eq!(decode_request(&[OP_INFO, 0]), Err(WireError::TrailingBytes));
        // Response with a count lying about its length.
        let mut bad = vec![OP_DISTANCES];
        bad.extend_from_slice(&3u32.to_le_bytes());
        assert_eq!(decode_response(&bad), Err(WireError::Truncated));
        // PATH with a short body, and with trailing bytes.
        let mut bad = vec![OP_PATH];
        bad.extend_from_slice(&1u32.to_le_bytes());
        assert_eq!(decode_request(&bad), Err(WireError::Truncated));
        bad.extend_from_slice(&[0u8; 5]);
        assert_eq!(decode_request(&bad), Err(WireError::TrailingBytes));
        // MATRIX whose counts lie about the payload length, both ways.
        let mut bad = vec![OP_MATRIX];
        bad.extend_from_slice(&2u32.to_le_bytes());
        bad.extend_from_slice(&1u32.to_le_bytes());
        bad.extend_from_slice(&[0u8; 8]);
        assert_eq!(decode_request(&bad), Err(WireError::Truncated));
        bad.extend_from_slice(&[0u8; 8]);
        assert_eq!(decode_request(&bad), Err(WireError::TrailingBytes));
        // PATH response with a count lying about its length.
        let mut bad = vec![OP_PATH_RESP];
        bad.extend_from_slice(&2u32.to_le_bytes());
        bad.extend_from_slice(&[0u8; 4]);
        assert_eq!(decode_response(&bad), Err(WireError::Truncated));
        // MATRIX response likewise.
        let mut bad = vec![OP_MATRIX_RESP];
        bad.extend_from_slice(&1u32.to_le_bytes());
        assert_eq!(decode_response(&bad), Err(WireError::Truncated));
    }

    #[test]
    fn error_codes_round_trip_and_display() {
        for code in [
            ErrorCode::Malformed,
            ErrorCode::Oversized,
            ErrorCode::VertexOutOfRange,
            ErrorCode::ReloadFailed,
            ErrorCode::UnknownOpcode,
            ErrorCode::NotThisShard,
            ErrorCode::ShardUnavailable,
            ErrorCode::NoPathData,
        ] {
            assert_eq!(ErrorCode::from_u16(code.as_u16()), Some(code));
            assert!(!code.to_string().is_empty());
        }
        assert_eq!(ErrorCode::from_u16(0), None);
        assert_eq!(ErrorCode::from_u16(999), None);
    }
}
