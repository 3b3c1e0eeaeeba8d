//! Minimal HTTP/1.1 adapter so `curl` can hit a running server without a
//! protocol client.
//!
//! A connection whose first bytes are not the binary [`MAGIC`] preamble
//! lands here. One request is parsed (header block capped at 8 KiB), one
//! plain-text response is written, and the connection closes — no
//! keep-alive, no chunking, nothing beyond what the three routes need:
//!
//! ```text
//! GET /distance?s=0&t=42   200 "17\n" | 200 "unreachable\n" | 400 (bad/missing ids)
//!                          | 421 (shard server, vertex owned by another shard)
//! GET /info                200 one "key value" line per field
//! GET /healthz             200 "ok\n"
//! ```
//!
//! The batching-and-latency path is the binary protocol; this adapter is a
//! debugging porthole and answers one query per TCP connection by design.
//!
//! [`MAGIC`]: crate::protocol::MAGIC

use std::io::{Read, Write};
use std::net::TcpStream;

use chl_graph::types::{VertexId, INFINITY};

use crate::engine::{out_of_range_message, would_block, State};
use crate::index::SharedIndex;
use crate::server::{admit, not_this_shard_message, Refusal};

/// Cap on the request head (request line + headers).
const MAX_HEAD: usize = 8 * 1024;

/// Serves one HTTP exchange on a connection whose initial bytes (already
/// read while sniffing the preamble) are in `head_start`.
pub(crate) fn serve_http(
    mut stream: TcpStream,
    head_start: &[u8],
    shared: &SharedIndex,
    state: &State,
) -> std::io::Result<()> {
    let mut head = head_start.to_vec();
    let mut chunk = [0u8; 1024];
    while !head_complete(&head) {
        if head.len() > MAX_HEAD {
            return respond(&mut stream, 431, "request header block too large\n");
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(()), // client left mid-request
            Ok(n) => head.extend_from_slice(chunk.get(..n).unwrap_or_default()),
            Err(e) if would_block(&e) => {
                if state.is_shutdown() {
                    return Ok(());
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }

    let text = String::from_utf8_lossy(&head);
    let request_line = text.lines().next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) => (m, t),
        _ => return respond(&mut stream, 400, "malformed request line\n"),
    };
    if method != "GET" {
        return respond(&mut stream, 405, "only GET is supported\n");
    }

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    match path {
        "/healthz" => respond(&mut stream, 200, "ok\n"),
        "/info" => {
            let info = shared.info();
            let body = format!(
                "vertices {}\nlabels {}\ngeneration {}\ncompressed {}\nmapped {}\nbackend {}\n",
                info.num_vertices,
                info.total_labels,
                info.generation,
                info.compressed,
                info.mapped,
                shared.snapshot().backend_name(),
            );
            respond(&mut stream, 200, &body)
        }
        "/distance" => {
            let (s, t) = match (param(query, "s"), param(query, "t")) {
                (Some(s), Some(t)) => (s, t),
                _ => return respond(&mut stream, 400, "need numeric query parameters s and t\n"),
            };
            let snapshot = shared.snapshot();
            // The binary paths' admission rule. Shard honesty matters here
            // too: a foreign vertex's label run is stored empty, so answering
            // would say "unreachable" for a pair another shard can reach.
            match admit(&snapshot, [s, t].into_iter()) {
                Ok(()) => {}
                Err(Refusal::OutOfRange(id)) => {
                    let n = snapshot.num_vertices();
                    let body = format!("{}\n", out_of_range_message(id, n));
                    return respond(&mut stream, 400, &body);
                }
                Err(Refusal::Foreign(id)) => {
                    let body = format!("{}\n", not_this_shard_message(id, snapshot.shard()));
                    return respond(&mut stream, 421, &body);
                }
            }
            let d = snapshot.oracle().distance(s, t);
            let body = if d == INFINITY {
                "unreachable\n".to_string()
            } else {
                format!("{d}\n")
            };
            respond(&mut stream, 200, &body)
        }
        _ => respond(&mut stream, 404, "no such route\n"),
    }
}

/// `true` once the header block terminator has arrived.
fn head_complete(head: &[u8]) -> bool {
    head.windows(4).any(|w| w == b"\r\n\r\n") || head.windows(2).any(|w| w == b"\n\n")
}

/// Extracts a `u32` query parameter by name from `a=1&b=2` syntax.
fn param(query: &str, name: &str) -> Option<VertexId> {
    query.split('&').find_map(|kv| {
        let (k, v) = kv.split_once('=')?;
        if k == name {
            v.parse::<VertexId>().ok()
        } else {
            None
        }
    })
}

fn respond(stream: &mut TcpStream, status: u16, body: &str) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        421 => "Misdirected Request",
        431 => "Request Header Fields Too Large",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: text/plain; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_parameters_parse_strictly() {
        assert_eq!(param("s=3&t=9", "s"), Some(3));
        assert_eq!(param("s=3&t=9", "t"), Some(9));
        assert_eq!(param("s=3&t=9", "u"), None);
        assert_eq!(param("s=x", "s"), None);
        assert_eq!(param("", "s"), None);
        assert_eq!(param("s", "s"), None);
    }

    #[test]
    fn head_terminator_detection() {
        assert!(head_complete(b"GET / HTTP/1.1\r\n\r\n"));
        assert!(head_complete(b"GET / HTTP/1.0\n\n"));
        assert!(!head_complete(b"GET / HTTP/1.1\r\n"));
    }
}
