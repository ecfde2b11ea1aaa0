//! The `tuffyd` client: a blocking connection speaking the wire
//! protocol, used by `tuffy --connect`, the repo benchmark, and the
//! end-to-end test suites.
//!
//! [`Client::connect`] performs the preamble (magic exchange + `welcome`
//! frame) and then exposes one method per request. Responses the server
//! classifies as retryable backpressure surface as
//! [`ClientError::Busy`]; typed server faults as [`ClientError::Server`]
//! — both carry the wire frame so callers can branch on
//! [`crate::wire::BusyClass`] / [`crate::wire::ErrorCode`].

use crate::wire::{
    decode_response, encode_request, read_frame, write_frame, Applied, Busy, ErrorCode,
    FrameReadError, Request, Response, WireFault, WireMapAnswer, WireProbAnswer, WireQuery,
    DEFAULT_MAX_FRAME_BYTES, MAGIC, PROTOCOL_VERSION,
};
use std::fmt;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (connect refused, reset, timeout, ...).
    Io(std::io::Error),
    /// The server rejected the request with typed backpressure; the
    /// connection is still usable and the request can be retried.
    Busy(Busy),
    /// The server answered with a typed error frame.
    Server(WireFault),
    /// The server closed the connection.
    Closed,
    /// The peer violated the wire protocol (bad magic, bad frame,
    /// unexpected response kind).
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Busy(b) => write!(
                f,
                "server busy ({}): {} in flight, limit {}",
                b.class.as_str(),
                b.inflight,
                b.limit
            ),
            ClientError::Server(e) => {
                write!(f, "server error ({}): {}", e.code.as_str(), e.message)
            }
            ClientError::Closed => write!(f, "server closed the connection"),
            ClientError::Protocol(m) => write!(f, "protocol violation: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// A query answer as it crossed the wire (probabilities and costs as
/// exact IEEE-754 bits — see [`crate::wire`]).
#[derive(Clone, Debug, PartialEq)]
pub enum WireAnswer {
    /// A MAP world.
    Map(WireMapAnswer),
    /// Marginal probabilities.
    Marginal(WireProbAnswer),
    /// Top-k entries.
    TopK(WireProbAnswer),
}

impl WireAnswer {
    /// The engine generation the answer was computed against.
    pub fn generation(&self) -> u64 {
        match self {
            WireAnswer::Map(a) => a.generation,
            WireAnswer::Marginal(a) | WireAnswer::TopK(a) => a.generation,
        }
    }
}

/// A blocking `tuffyd` connection.
pub struct Client {
    stream: TcpStream,
    /// Server protocol version from the `welcome` frame.
    protocol: u32,
    /// The serving generation at connect time; updated by
    /// [`Client::apply`].
    generation: u64,
    max_frame_bytes: u32,
}

impl Client {
    /// Connects and performs the preamble. Fails with
    /// [`ClientError::Busy`] when the server is at its connection cap
    /// and with [`ClientError::Protocol`] when the peer does not speak
    /// the `tuffyd` protocol.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        Client::handshake(stream)
    }

    /// [`Client::connect`] with a connect + preamble timeout.
    pub fn connect_timeout(
        addr: &std::net::SocketAddr,
        timeout: Duration,
    ) -> Result<Client, ClientError> {
        let stream = TcpStream::connect_timeout(addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        let client = Client::handshake(stream)?;
        client.stream.set_read_timeout(None)?;
        client.stream.set_write_timeout(None)?;
        Ok(client)
    }

    fn handshake(mut stream: TcpStream) -> Result<Client, ClientError> {
        stream.set_nodelay(true)?;
        let mut server_magic = [0u8; MAGIC.len()];
        stream.read_exact(&mut server_magic).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                ClientError::Closed
            } else {
                ClientError::Io(e)
            }
        })?;
        if server_magic != MAGIC {
            return Err(ClientError::Protocol(format!(
                "server preamble {server_magic:?} is not the tuffyd magic"
            )));
        }
        stream.write_all(&MAGIC)?;
        stream.flush()?;
        let mut client = Client {
            stream,
            protocol: 0,
            generation: 0,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
        };
        match client.read_response()? {
            Response::Welcome {
                protocol,
                generation,
            } => {
                if protocol != PROTOCOL_VERSION {
                    return Err(ClientError::Protocol(format!(
                        "server speaks protocol {protocol}, client speaks {PROTOCOL_VERSION}"
                    )));
                }
                client.protocol = protocol;
                client.generation = generation;
                Ok(client)
            }
            Response::Busy(b) => Err(ClientError::Busy(b)),
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::Protocol(format!(
                "expected a welcome frame, got {other:?}"
            ))),
        }
    }

    /// The negotiated protocol version.
    pub fn protocol(&self) -> u32 {
        self.protocol
    }

    /// The generation this connection last saw: the serving generation
    /// at connect, advanced by this connection's committed
    /// [`Client::apply`] calls (never by queries, including `given`).
    /// The head is shared, so applies from other connections move it too
    /// without updating this value; each answer's own generation is
    /// authoritative.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Executes a query and returns the answer frame.
    pub fn query(&mut self, query: &WireQuery) -> Result<WireAnswer, ClientError> {
        self.send(&Request::Query(query.clone()))?;
        match self.read_response()? {
            Response::Map(a) => Ok(WireAnswer::Map(a)),
            Response::Marginal(a) => Ok(WireAnswer::Marginal(a)),
            Response::TopK(a) => Ok(WireAnswer::TopK(a)),
            Response::Busy(b) => Err(ClientError::Busy(b)),
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::Protocol(format!(
                "expected an answer frame, got {other:?}"
            ))),
        }
    }

    /// Commits an evidence delta (source text, `parse_delta` syntax): it
    /// advances the one serving head every connection reads. Under
    /// `tuffyd --store` the apply is also durable (appended to the
    /// server's write-ahead log before the acknowledgement).
    pub fn apply(&mut self, delta: &str) -> Result<Applied, ClientError> {
        self.send(&Request::Apply {
            delta: delta.to_string(),
        })?;
        match self.read_response()? {
            Response::Applied(a) => {
                self.generation = a.generation;
                Ok(a)
            }
            Response::Busy(b) => Err(ClientError::Busy(b)),
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::Protocol(format!(
                "expected an applied frame, got {other:?}"
            ))),
        }
    }

    /// Round-trips a token through the server (liveness check).
    pub fn ping(&mut self, token: u64) -> Result<(), ClientError> {
        self.send(&Request::Ping { token })?;
        match self.read_response()? {
            Response::Pong { token: t } if t == token => Ok(()),
            Response::Pong { token: t } => Err(ClientError::Protocol(format!(
                "pong token {t} does not match ping token {token}"
            ))),
            Response::Busy(b) => Err(ClientError::Busy(b)),
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(ClientError::Protocol(format!(
                "expected a pong frame, got {other:?}"
            ))),
        }
    }

    fn send(&mut self, request: &Request) -> Result<(), ClientError> {
        write_frame(&mut self.stream, &encode_request(request))?;
        Ok(())
    }

    fn read_response(&mut self) -> Result<Response, ClientError> {
        let payload = match read_frame(&mut self.stream, self.max_frame_bytes) {
            Ok(payload) => payload,
            Err(FrameReadError::Closed) => return Err(ClientError::Closed),
            Err(FrameReadError::Truncated) => {
                return Err(ClientError::Protocol("truncated response frame".into()))
            }
            Err(FrameReadError::TooLarge(len)) => {
                return Err(ClientError::Protocol(format!(
                    "response frame of {len} bytes exceeds the client cap"
                )))
            }
            Err(FrameReadError::Empty) => {
                return Err(ClientError::Protocol("zero-length response frame".into()))
            }
            Err(FrameReadError::Io(e)) => return Err(ClientError::Io(e)),
        };
        decode_response(&payload)
            .map_err(|e| ClientError::Protocol(format!("undecodable response: {}", e.message)))
    }
}

/// A typed retry budget for [`Client::query_with_retry`]: exponential
/// backoff with a cap, bounded by attempts and an optional wall-clock
/// deadline.
///
/// The jitter that de-synchronizes competing clients is derived from
/// the **attempt count**, not the wall clock, so a run's retry
/// schedule is a pure function of its inputs — load-generator
/// experiments stay reproducible.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempts (the first try included); 0 behaves as 1.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles each retry after.
    pub base_delay: Duration,
    /// Cap on any single backoff sleep.
    pub max_delay: Duration,
    /// Optional wall-clock budget: a retry whose sleep would overrun it
    /// is not taken and the last `Busy` error is returned instead.
    pub deadline: Option<Duration>,
}

impl Default for RetryPolicy {
    /// 16 attempts, 2 ms doubling to a 200 ms cap, no deadline — the
    /// budget `tuffy --connect` rides out `busy` frames with.
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 16,
            base_delay: Duration::from_millis(2),
            max_delay: Duration::from_millis(200),
            deadline: None,
        }
    }
}

impl RetryPolicy {
    /// The sleep before retry number `retry` (0-based): exponential
    /// from `base_delay`, capped at `max_delay`, jittered into
    /// `[cap/2, cap]` by a hash of the retry count.
    pub fn backoff(&self, retry: u32) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(1u32.checked_shl(retry.min(31)).unwrap_or(u32::MAX));
        let capped = exp.min(self.max_delay);
        let half = capped / 2;
        if half.is_zero() {
            return capped;
        }
        // SplitMix64-style mix of the attempt count — deterministic,
        // but decorrelated across attempts and across policies.
        let mut h = (retry as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
        let jitter_ns = h % (half.as_nanos() as u64 + 1);
        half + Duration::from_nanos(jitter_ns)
    }
}

impl Client {
    /// [`Client::query`] with retries on [`ClientError::Busy`] under a
    /// [`RetryPolicy`]. Any other error returns immediately (a `busy
    /// shutdown` retries like any backpressure, then surfaces as
    /// [`ClientError::Closed`] once the draining server hangs up).
    /// Returns the answer and how many retries it took.
    pub fn query_with_retry(
        &mut self,
        query: &WireQuery,
        policy: &RetryPolicy,
    ) -> Result<(WireAnswer, u32), ClientError> {
        let start = Instant::now();
        let mut retries = 0u32;
        loop {
            match self.query(query) {
                Ok(answer) => return Ok((answer, retries)),
                Err(e @ ClientError::Busy(_)) => {
                    if retries + 1 >= policy.max_attempts.max(1) {
                        return Err(e);
                    }
                    let sleep = policy.backoff(retries);
                    if let Some(deadline) = policy.deadline {
                        if start.elapsed() + sleep > deadline {
                            return Err(e);
                        }
                    }
                    std::thread::sleep(sleep);
                    retries += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Convenience: is this a retryable backpressure error?
pub fn is_busy(err: &ClientError) -> bool {
    matches!(err, ClientError::Busy(_))
}

/// Convenience: is this a typed server fault with the given code?
pub fn is_server_error(err: &ClientError, code: ErrorCode) -> bool {
    matches!(err, ClientError::Server(f) if f.code == code)
}
