//! The load generator: closed-loop connections that each keep a fixed
//! number of frames in flight (callers that wait for replies), compare every
//! response with the answer computed in process, and timestamp both ends.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use chl_serve::protocol::{encode_request, Request, Response};
use chl_serve::{Client, ClientError};

use crate::stats::Completion;

/// One pre-encoded request with the response the server must give.
#[derive(Debug, Clone)]
pub struct Frame {
    pub wire: Vec<u8>,
    pub expect: Response,
    pub answers: u32,
}

impl Frame {
    pub fn new(request: &Request, expect: Response, answers: usize) -> Frame {
        let mut wire = Vec::new();
        encode_request(request, &mut wire);
        Frame {
            wire,
            expect,
            answers: answers as u32,
        }
    }
}

#[derive(Debug, Default)]
pub struct Driven {
    pub done: Vec<Completion>,
    pub attempted: u64,
    pub failed: u64,
    pub run_ns: u64,
    /// A connection that broke; its unanswered frames are counted failed.
    pub error: Option<String>,
}

impl Driven {
    pub fn answers_per_s(&self) -> f64 {
        let answers: u64 = self.done.iter().map(|c| u64::from(c.answers)).sum();
        answers as f64 * 1e9 / self.run_ns.max(1) as f64
    }

    pub fn latencies_us(&self) -> Vec<f64> {
        self.done
            .iter()
            .map(|c| c.recv_ns.saturating_sub(c.sent_ns) as f64 / 1e3)
            .collect()
    }
}

const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

fn connection(
    addr: SocketAddr,
    frames: &[Frame],
    first: usize,
    in_flight: usize,
    start: Instant,
    deadline: Instant,
) -> Driven {
    let mut out = Driven::default();
    let mut ring: VecDeque<(usize, u64)> = VecDeque::with_capacity(in_flight);
    let ns = |at: Instant| at.saturating_duration_since(start).as_nanos() as u64;
    let talk = |out: &mut Driven, ring: &mut VecDeque<(usize, u64)>| {
        let mut client = Client::connect(addr)?;
        client.set_timeout(Some(REPLY_TIMEOUT))?;
        let mut next = first;
        loop {
            while ring.len() < in_flight {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let index = next % frames.len();
                client.send_raw(&frames[index].wire)?;
                ring.push_back((index, ns(now)));
                next += 1;
            }
            let Some(&(index, sent_ns)) = ring.front() else {
                return Ok::<(), ClientError>(());
            };
            let response = client.read_response()?;
            ring.pop_front();
            let frame = &frames[index];
            out.attempted += u64::from(frame.answers);
            if response != frame.expect {
                out.failed += u64::from(frame.answers);
            }
            out.done.push(Completion {
                sent_ns,
                recv_ns: ns(Instant::now()),
                answers: frame.answers,
            });
        }
    };
    if let Err(e) = talk(&mut out, &mut ring) {
        let lost: u64 = ring
            .iter()
            .map(|&(i, _)| u64::from(frames[i].answers))
            .sum();
        out.attempted += lost.max(1);
        out.failed += lost.max(1);
        out.error = Some(e.to_string());
    }
    out
}

/// Runs `connections` closed loops against `addr` for `run`, each cycling
/// through `frames` from its own offset.
pub fn drive(
    addr: SocketAddr,
    frames: &[Frame],
    connections: usize,
    in_flight: usize,
    run: Duration,
) -> (Instant, Driven) {
    let start = Instant::now();
    let deadline = start + run;
    let parts: Vec<Driven> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let first = c * frames.len() / connections;
                scope.spawn(move || connection(addr, frames, first, in_flight, start, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| Driven {
                    attempted: 1,
                    failed: 1,
                    error: Some("load connection panicked".to_string()),
                    ..Driven::default()
                })
            })
            .collect()
    });
    let mut all = Driven {
        run_ns: start.elapsed().as_nanos() as u64,
        ..Driven::default()
    };
    for part in parts {
        all.done.extend(part.done);
        all.attempted += part.attempted;
        all.failed += part.failed;
        all.error = all.error.or(part.error);
    }
    (start, all)
}
