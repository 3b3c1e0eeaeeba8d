//! A minimal blocking client for the binary protocol: the load generator's
//! engine and the protocol test harness's probe.
//!
//! [`Client`] owns one connection. Every request method sends a frame and
//! reads exactly one response frame; [`Client::pipeline`] sends many QUERY
//! frames in one write before reading any response, which is what triggers
//! the server's batch coalescing. Server-side typed error frames surface as
//! [`ClientError::Server`] with their [`ErrorCode`] intact, so tests can
//! assert on exact failure modes.

use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use chl_graph::types::{Distance, VertexId};

use crate::protocol::{
    decode_response, encode_request, ErrorCode, FrameBuffer, Request, Response, ServerInfo,
    WireError, DEFAULT_MAX_FRAME, MAGIC,
};

/// Everything that can go wrong on the client side of a conversation.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (connect, read, write, premature close).
    Io(std::io::Error),
    /// The server (or a middlebox) broke the wire format.
    Wire(WireError),
    /// The server answered with a typed error frame.
    Server {
        /// The typed failure.
        code: ErrorCode,
        /// Code-specific detail (offending vertex id for out-of-range).
        detail: u64,
        /// Human-readable context from the server.
        message: String,
    },
    /// The server answered with a frame of the wrong kind for the request.
    UnexpectedResponse,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Wire(e) => write!(f, "wire error: {e}"),
            ClientError::Server {
                code,
                detail,
                message,
            } => write!(f, "server error ({code}, detail {detail}): {message}"),
            ClientError::UnexpectedResponse => write!(f, "unexpected response frame kind"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// One blocking protocol connection.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    fb: FrameBuffer,
}

impl Client {
    /// Connects and sends the binary-protocol preamble.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client, ClientError> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.write_all(&MAGIC)?;
        Ok(Client {
            stream,
            fb: FrameBuffer::new(DEFAULT_MAX_FRAME),
        })
    }

    /// Sets a read timeout for responses (`None` blocks forever).
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.stream.set_read_timeout(timeout)?;
        Ok(())
    }

    /// Sends raw bytes as-is — the harness's tool for malformed frames.
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<(), ClientError> {
        self.stream.write_all(bytes)?;
        Ok(())
    }

    /// Half-closes the write side so the server sees EOF after the bytes
    /// already sent (used to simulate abrupt clients deterministically).
    pub fn shutdown_write(&mut self) -> Result<(), ClientError> {
        self.stream.shutdown(std::net::Shutdown::Write)?;
        Ok(())
    }

    /// Reads the next response frame, blocking per the configured timeout.
    pub fn read_response(&mut self) -> Result<Response, ClientError> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.fb.next_payload() {
                Ok(Some(payload)) => return Ok(decode_response(&payload)?),
                Ok(None) => {}
                Err(wire) => return Err(ClientError::Wire(wire)),
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(ClientError::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "server closed the connection mid-response",
                    )))
                }
                Ok(n) => self.fb.extend(chunk.get(..n).unwrap_or_default()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(ClientError::Io(e)),
            }
        }
    }

    /// Sends one QUERY frame without reading its response — the open-window
    /// half of a pipelined loop. Pair with [`Client::read_distances`].
    pub fn send_query(&mut self, pairs: &[(VertexId, VertexId)]) -> Result<(), ClientError> {
        let mut wire = Vec::new();
        encode_request(&Request::Query(pairs.to_vec()), &mut wire);
        self.stream.write_all(&wire)?;
        Ok(())
    }

    /// Reads one QUERY response: the distances, or the frame's typed server
    /// error as [`ClientError::Server`].
    pub fn read_distances(&mut self) -> Result<Vec<Distance>, ClientError> {
        self.expect_distances()
    }

    fn expect_distances(&mut self) -> Result<Vec<Distance>, ClientError> {
        match self.read_response()? {
            Response::Distances(ds) => Ok(ds),
            Response::Error {
                code,
                detail,
                message,
            } => Err(ClientError::Server {
                code,
                detail,
                message,
            }),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// One QUERY frame with one pair; returns its distance.
    pub fn query(&mut self, u: VertexId, v: VertexId) -> Result<Distance, ClientError> {
        let ds = self.query_batch(&[(u, v)])?;
        ds.first().copied().ok_or(ClientError::UnexpectedResponse)
    }

    /// One QUERY frame with many pairs; distances come back in order.
    pub fn query_batch(
        &mut self,
        pairs: &[(VertexId, VertexId)],
    ) -> Result<Vec<Distance>, ClientError> {
        let mut wire = Vec::new();
        encode_request(&Request::Query(pairs.to_vec()), &mut wire);
        self.stream.write_all(&wire)?;
        self.expect_distances()
    }

    /// Sends every frame in one write (triggering server-side coalescing),
    /// then reads one response per frame, in order. Each response is either
    /// that frame's distances or that frame's typed server error.
    #[expect(
        clippy::type_complexity,
        reason = "one Result per frame inside the transport Result; an alias would hide that"
    )]
    pub fn pipeline(
        &mut self,
        frames: &[Vec<(VertexId, VertexId)>],
    ) -> Result<Vec<Result<Vec<Distance>, (ErrorCode, u64)>>, ClientError> {
        let mut wire = Vec::new();
        for pairs in frames {
            encode_request(&Request::Query(pairs.clone()), &mut wire);
        }
        self.stream.write_all(&wire)?;
        let mut out = Vec::with_capacity(frames.len());
        for _ in frames {
            match self.read_response()? {
                Response::Distances(ds) => out.push(Ok(ds)),
                Response::Error { code, detail, .. } => out.push(Err((code, detail))),
                _ => return Err(ClientError::UnexpectedResponse),
            }
        }
        Ok(out)
    }

    /// One PATH frame: the reconstructed vertex walk `u → v`, empty when
    /// the endpoints are disconnected. Servers without path data answer
    /// [`ErrorCode::NoPathData`], surfaced as [`ClientError::Server`].
    pub fn path(&mut self, u: VertexId, v: VertexId) -> Result<Vec<VertexId>, ClientError> {
        let mut wire = Vec::new();
        encode_request(&Request::Path(u, v), &mut wire);
        self.stream.write_all(&wire)?;
        match self.read_response()? {
            Response::Path(vertices) => Ok(vertices),
            Response::Error {
                code,
                detail,
                message,
            } => Err(ClientError::Server {
                code,
                detail,
                message,
            }),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// One MATRIX frame: the `sources × targets` distance block, row-major.
    pub fn matrix(
        &mut self,
        sources: &[VertexId],
        targets: &[VertexId],
    ) -> Result<Vec<Distance>, ClientError> {
        let mut wire = Vec::new();
        encode_request(
            &Request::Matrix {
                sources: sources.to_vec(),
                targets: targets.to_vec(),
            },
            &mut wire,
        );
        self.stream.write_all(&wire)?;
        match self.read_response()? {
            Response::Matrix(ds) => Ok(ds),
            Response::Error {
                code,
                detail,
                message,
            } => Err(ClientError::Server {
                code,
                detail,
                message,
            }),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// Asks for index/server metadata.
    pub fn info(&mut self) -> Result<ServerInfo, ClientError> {
        let mut wire = Vec::new();
        encode_request(&Request::Info, &mut wire);
        self.stream.write_all(&wire)?;
        match self.read_response()? {
            Response::Info(info) => Ok(info),
            Response::Error {
                code,
                detail,
                message,
            } => Err(ClientError::Server {
                code,
                detail,
                message,
            }),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// Asks the server to revalidate and hot-swap its index file; returns
    /// the new generation on success.
    pub fn reload(&mut self) -> Result<u64, ClientError> {
        let mut wire = Vec::new();
        encode_request(&Request::Reload, &mut wire);
        self.stream.write_all(&wire)?;
        match self.read_response()? {
            Response::Ok { generation } => Ok(generation),
            Response::Error {
                code,
                detail,
                message,
            } => Err(ClientError::Server {
                code,
                detail,
                message,
            }),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// Asks the server to shut down gracefully; returns once acknowledged.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        let mut wire = Vec::new();
        encode_request(&Request::Shutdown, &mut wire);
        self.stream.write_all(&wire)?;
        match self.read_response()? {
            Response::Ok { .. } => Ok(()),
            Response::Error {
                code,
                detail,
                message,
            } => Err(ClientError::Server {
                code,
                detail,
                message,
            }),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }
}
