//! The `tuffyd` wire protocol: length-prefixed frames of line-based
//! text.
//!
//! # Framing
//!
//! Every message travels as one **frame**: a 4-byte big-endian payload
//! length followed by that many payload bytes. A connection begins with
//! an 8-byte magic preamble ([`MAGIC`], `b"TUFFYD/1"`) in *both*
//! directions — the server writes its preamble immediately on accept,
//! the client answers with the same bytes — so version or protocol
//! mismatches are caught before any frame is parsed. Zero-length frames
//! are malformed; frames longer than the receiver's configured cap are
//! rejected *without reading the payload* (the typed `too-large` error,
//! then connection close, since the stream can no longer be resynced).
//!
//! # Payload
//!
//! A payload is UTF-8 text: newline-separated lines, the first of which
//! names the frame kind. Numeric fields are decimal; every `f64`
//! crosses the wire as the 16-hex-digit big-endian rendering of its IEEE
//! bits (`{:016x}` of `f64::to_bits`), so answers survive encode→decode
//! **bit identically** — "close enough" round-tripping would break the
//! serving layer's claim that networked answers equal in-process ones. A
//! string field is always the last field on its line and is escaped
//! ([`esc`]/[`unesc`]: `\\`, `\n`, `\r`) so embedded newlines (delta
//! text) cannot tear the line structure.
//!
//! The full grammar, by first line:
//!
//! ```text
//! requests                          responses
//! --------                          ---------
//! query                             welcome <protocol> <generation>
//!   kind map                        answer.map <gen> <hard> <soft-hex> <flips>
//!   kind marginal                     atom <name>            (repeated)
//!   kind topk <k> <predicate>       answer.marginal <gen> <flips>
//!   pred <name>      (repeated)       entry <prob-hex> <name> (repeated)
//!   given <delta-text>  (optional)  answer.topk <gen> <flips>
//!   search <flips> <tries>            entry <prob-hex> <name> (repeated)
//!          <noise-hex> <seed>       applied <gen> <0|1> <changes>
//!   mcsat <samples> <burn-in>               <clauses> <atoms>
//!         <steps> <anneal-hex>      pong <token>
//!         <temp-hex> <seed>         busy <class> <inflight> <limit>
//! apply                             error <code> <message>
//!   delta <delta-text>
//! ping <token>
//! ```
//!
//! Deltas and `given` conditioning cross the wire as **delta source
//! text** (the `tuffy_mln::parser::parse_delta` syntax), not interned
//! ids: symbol ids are private to one engine's symbol table, so the
//! server parses delta text against the receiving connection's own
//! session program (interning new constants copy-on-write, exactly like
//! the in-process API).

use std::fmt::Write as _;
use std::io::{Read, Write};

/// Connection preamble, both directions. The trailing `/1` is the
/// protocol generation: an incompatible revision changes the magic, so
/// old peers fail at the preamble instead of mid-frame.
pub const MAGIC: [u8; 8] = *b"TUFFYD/1";

/// Protocol version reported in the `welcome` frame.
pub const PROTOCOL_VERSION: u32 = 1;

/// Default cap on a single frame's payload bytes.
pub const DEFAULT_MAX_FRAME_BYTES: u32 = 4 * 1024 * 1024;

/// A malformed payload: the frame arrived intact but its text does not
/// parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// What failed to parse.
    pub message: String,
}

impl WireError {
    fn new(message: impl Into<String>) -> WireError {
        WireError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed frame: {}", self.message)
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------

/// What a networked query computes — the wire mirror of
/// [`tuffy::Query`]'s kinds.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum WireQueryKind {
    /// The most likely world.
    #[default]
    Map,
    /// Per-atom marginals, restricted to the `pred` lines (all query
    /// predicates when none are given).
    Marginal,
    /// The `k` most probable atoms of one predicate.
    TopK {
        /// Ranked predicate.
        predicate: String,
        /// Entries requested.
        k: u64,
    },
}

/// A query request as it crosses the wire. `given` is delta source
/// text (parsed server-side against the serving head's program);
/// `search`/`mcsat` are per-request parameter overrides, clamped by the
/// server's admission caps.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WireQuery {
    /// Answer shape.
    pub kind: WireQueryKind,
    /// Marginal predicate filter (`kind marginal` only; empty = all).
    pub predicates: Vec<String>,
    /// Ephemeral conditioning delta text, if any.
    pub given: Option<String>,
    /// WalkSAT override: `(max_flips, max_tries, noise, seed)`.
    pub search: Option<(u64, u32, f64, u64)>,
    /// MC-SAT override: `(samples, burn_in, steps, p_anneal,
    /// temperature, seed)`.
    pub mcsat: Option<(u64, u64, u64, f64, f64, u64)>,
}

/// A client→server frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Run a query against the connection's current generation.
    Query(WireQuery),
    /// Commit an evidence delta (source text) to the connection's
    /// session, forking a new generation copy-on-write.
    Apply {
        /// Delta source text.
        delta: String,
    },
    /// Liveness probe; answered with `pong` carrying the same token.
    Ping {
        /// Echo token.
        token: u64,
    },
}

/// A MAP answer on the wire: cost (hard count + soft bits), flips, and
/// the rendered true atoms in registry order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WireMapAnswer {
    /// Generation the answer was computed against.
    pub generation: u64,
    /// Violated hard clauses of the returned world.
    pub cost_hard: u64,
    /// IEEE bits of the soft cost.
    pub cost_soft_bits: u64,
    /// Search flips spent.
    pub flips: u64,
    /// Rendered true atoms (`pred(arg, ...)`).
    pub atoms: Vec<String>,
}

/// One `(probability, atom)` row of a marginal or top-k answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireProbEntry {
    /// IEEE bits of the probability.
    pub probability_bits: u64,
    /// Rendered atom.
    pub atom: String,
}

/// A marginal or top-k answer on the wire.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WireProbAnswer {
    /// Generation the answer was computed against.
    pub generation: u64,
    /// Sampler flips spent.
    pub flips: u64,
    /// The rows, in answer order.
    pub entries: Vec<WireProbEntry>,
}

/// Outcome of a committed [`Request::Apply`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Applied {
    /// Generation the connection reads after the apply.
    pub generation: u64,
    /// Whether the grounding was patched incrementally.
    pub incremental: bool,
    /// Net evidence changes.
    pub changes: u64,
    /// Ground clauses after the apply.
    pub clauses: u64,
    /// Query atoms after the apply.
    pub atoms: u64,
}

/// Which admission limit a `busy` frame reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BusyClass {
    /// The connection cap: the server refused the connection itself.
    Connections,
    /// The total in-flight request cap.
    Queue,
    /// The heavy-request cap (marginal / top-k / `given` / `apply`).
    Heavy,
    /// The server is draining for shutdown: in-flight requests finish,
    /// new ones are refused. Retryable — against the replacement
    /// process, not this connection.
    Shutdown,
}

impl BusyClass {
    /// The wire token of this class (`conn` / `queue` / `heavy` /
    /// `shutdown`).
    pub fn as_str(self) -> &'static str {
        match self {
            BusyClass::Connections => "conn",
            BusyClass::Queue => "queue",
            BusyClass::Heavy => "heavy",
            BusyClass::Shutdown => "shutdown",
        }
    }
}

/// Backpressure: the request was well-formed but the server is at an
/// admission limit. Retryable; the connection stays open (except
/// [`BusyClass::Connections`], which closes it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Busy {
    /// Saturated limit.
    pub class: BusyClass,
    /// In-flight count observed at rejection.
    pub inflight: u64,
    /// The configured limit.
    pub limit: u64,
}

/// Typed error categories of an `error` frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The connection preamble was not [`MAGIC`].
    BadMagic,
    /// A frame arrived intact but did not parse (or was zero-length).
    Malformed,
    /// A length prefix exceeded the receiver's frame cap, or the answer
    /// to a request would have (the server sends this in its place).
    TooLarge,
    /// A frame was not delivered within the server's deadline
    /// (slow-loris protection).
    Timeout,
    /// The request parsed but inference rejected it (unknown predicate,
    /// invalid delta, grounding failure, ...).
    Query,
    /// The server is shutting down.
    Shutdown,
    /// The request handler failed internally (a contained panic, or a
    /// storage fault that prevented a durable commit). The connection's
    /// session and the shared engine are unaffected.
    Internal,
}

impl ErrorCode {
    /// The wire token of this code (`bad-magic`, `malformed`, ...).
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadMagic => "bad-magic",
            ErrorCode::Malformed => "malformed",
            ErrorCode::TooLarge => "too-large",
            ErrorCode::Timeout => "timeout",
            ErrorCode::Query => "query",
            ErrorCode::Shutdown => "shutdown",
            ErrorCode::Internal => "internal",
        }
    }
}

/// A typed error frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireFault {
    /// Error category.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

/// A server→client frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Handshake acknowledgment: protocol version and the generation
    /// the server is serving.
    Welcome {
        /// Protocol version ([`PROTOCOL_VERSION`]).
        protocol: u32,
        /// Starting generation.
        generation: u64,
    },
    /// Answer to a MAP query.
    Map(WireMapAnswer),
    /// Answer to a marginal query.
    Marginal(WireProbAnswer),
    /// Answer to a top-k query.
    TopK(WireProbAnswer),
    /// Outcome of an apply.
    Applied(Applied),
    /// Answer to a ping.
    Pong {
        /// The request's token, echoed.
        token: u64,
    },
    /// Admission backpressure; retry later.
    Busy(Busy),
    /// Typed failure.
    Error(WireFault),
}

// ---------------------------------------------------------------------
// Escaping and f64 bits
// ---------------------------------------------------------------------

/// Escapes a string field for single-line transport: `\` → `\\`,
/// newline → `\n`, carriage return → `\r`.
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_esc(&mut out, s);
    out
}

/// Appends `s` to `out` escaped as [`esc`] does, copying the runs between
/// escaped bytes whole.
fn push_esc(out: &mut String, s: &str) {
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        let escaped = match b {
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            _ => continue,
        };
        // Split at ASCII bytes only, so both runs are whole UTF-8.
        out.push_str(&s[start..i]);
        out.push_str(escaped);
        start = i + 1;
    }
    out.push_str(&s[start..]);
}

/// Appends a string field escaped, and ends its line.
fn push_field(out: &mut String, s: &str) {
    push_esc(out, s);
    out.push('\n');
}

/// Inverts [`esc`]; rejects truncated or unknown escapes. The runs
/// between escapes (the whole field, when it has none) are copied whole.
pub fn unesc(s: &str) -> Result<String, WireError> {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(at) = rest.find('\\') {
        out.push_str(&rest[..at]);
        let mut tail = rest[at + 1..].chars();
        match tail.next() {
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some(c) => return Err(WireError::new(format!("unknown escape `\\{c}`"))),
            None => return Err(WireError::new("truncated escape at end of field")),
        }
        rest = tail.as_str();
    }
    out.push_str(rest);
    Ok(out)
}

fn parse_f64_hex(s: &str) -> Result<f64, WireError> {
    if s.len() != 16 {
        return Err(WireError::new(format!("bad f64 bits `{s}`")));
    }
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|_| WireError::new(format!("bad f64 bits `{s}`")))
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, WireError> {
    s.parse()
        .map_err(|_| WireError::new(format!("bad {what} `{s}`")))
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Writes one frame: 4-byte big-endian length, then the payload.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame payload over 4 GiB")
    })?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Why [`read_frame`] failed.
#[derive(Debug)]
pub enum FrameReadError {
    /// EOF before any prefix byte: the peer closed cleanly between
    /// frames.
    Closed,
    /// EOF mid-prefix or mid-payload: a torn frame.
    Truncated,
    /// The length prefix exceeded the caller's cap (payload unread —
    /// the stream cannot be resynced).
    TooLarge(u32),
    /// A zero-length frame.
    Empty,
    /// Any other I/O failure (including read timeouts, surfaced as
    /// `WouldBlock`/`TimedOut` errors by the socket).
    Io(std::io::Error),
}

impl std::fmt::Display for FrameReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameReadError::Closed => write!(f, "connection closed"),
            FrameReadError::Truncated => write!(f, "torn frame: connection closed mid-frame"),
            FrameReadError::TooLarge(n) => write!(f, "frame of {n} bytes exceeds the cap"),
            FrameReadError::Empty => write!(f, "zero-length frame"),
            FrameReadError::Io(e) => write!(f, "{e}"),
        }
    }
}

/// Reads one frame, blocking. Used by the client (and by tests feeding
/// raw bytes); the server reads through its own deadline-aware loop.
pub fn read_frame(r: &mut impl Read, max_bytes: u32) -> Result<Vec<u8>, FrameReadError> {
    let mut prefix = [0u8; 4];
    let mut got = 0;
    while got < prefix.len() {
        match r.read(&mut prefix[got..]) {
            Ok(0) if got == 0 => return Err(FrameReadError::Closed),
            Ok(0) => return Err(FrameReadError::Truncated),
            Ok(n) => got += n,
            Err(e) => return Err(FrameReadError::Io(e)),
        }
    }
    let len = u32::from_be_bytes(prefix);
    if len == 0 {
        return Err(FrameReadError::Empty);
    }
    if len > max_bytes {
        return Err(FrameReadError::TooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    let mut got = 0;
    while got < payload.len() {
        match r.read(&mut payload[got..]) {
            Ok(0) => return Err(FrameReadError::Truncated),
            Ok(n) => got += n,
            Err(e) => return Err(FrameReadError::Io(e)),
        }
    }
    Ok(payload)
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

// `fmt::Write` into a `String` cannot fail, so the `write!` results
// below are discarded.

/// Bytes a request's fixed fields take at most: its tags, numbers and
/// f64 bits.
const REQUEST_FIXED: usize = 192;

/// Bytes a response's first line and one row's tag, number and
/// separators take at most.
const RESPONSE_LINE: usize = 96;

/// Encodes a request payload (framing not included) into one buffer,
/// sized up front.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let strings = match req {
        Request::Query(q) => {
            let predicate = match &q.kind {
                WireQueryKind::TopK { predicate, .. } => predicate.len(),
                _ => 0,
            };
            let preds: usize = q.predicates.iter().map(|p| p.len() + 6).sum();
            predicate + preds + q.given.as_ref().map_or(0, String::len)
        }
        Request::Apply { delta } => delta.len(),
        Request::Ping { .. } => 0,
    };
    let mut out = String::with_capacity(REQUEST_FIXED + strings);
    match req {
        Request::Query(q) => {
            out.push_str("query\n");
            match &q.kind {
                WireQueryKind::Map => out.push_str("kind map\n"),
                WireQueryKind::Marginal => out.push_str("kind marginal\n"),
                WireQueryKind::TopK { predicate, k } => {
                    let _ = write!(out, "kind topk {k} ");
                    push_field(&mut out, predicate);
                }
            }
            for p in &q.predicates {
                out.push_str("pred ");
                push_field(&mut out, p);
            }
            if let Some(given) = &q.given {
                out.push_str("given ");
                push_field(&mut out, given);
            }
            if let Some((flips, tries, noise, seed)) = q.search {
                let noise = noise.to_bits();
                let _ = writeln!(out, "search {flips} {tries} {noise:016x} {seed}");
            }
            if let Some((samples, burn_in, steps, p_anneal, temperature, seed)) = q.mcsat {
                let (p_anneal, temperature) = (p_anneal.to_bits(), temperature.to_bits());
                let _ = writeln!(
                    out,
                    "mcsat {samples} {burn_in} {steps} {p_anneal:016x} {temperature:016x} {seed}"
                );
            }
        }
        Request::Apply { delta } => {
            out.push_str("apply\ndelta ");
            push_field(&mut out, delta);
        }
        Request::Ping { token } => {
            let _ = writeln!(out, "ping {token}");
        }
    }
    out.into_bytes()
}

/// Encodes a response payload (framing not included) into one buffer,
/// sized up front: every row is written, and its string escaped, in
/// place.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let rows = match resp {
        Response::Map(a) => a.atoms.iter().map(|s| s.len() + 6).sum(),
        Response::Marginal(a) | Response::TopK(a) => {
            a.entries.iter().map(|e| e.atom.len() + 24).sum()
        }
        Response::Error(e) => e.message.len(),
        _ => 0,
    };
    let mut out = String::with_capacity(RESPONSE_LINE + rows);
    match resp {
        Response::Welcome {
            protocol,
            generation,
        } => {
            let _ = writeln!(out, "welcome {protocol} {generation}");
        }
        Response::Map(a) => {
            let _ = writeln!(
                out,
                "answer.map {} {} {:016x} {}",
                a.generation, a.cost_hard, a.cost_soft_bits, a.flips
            );
            for atom in &a.atoms {
                out.push_str("atom ");
                push_field(&mut out, atom);
            }
        }
        Response::Marginal(a) | Response::TopK(a) => {
            let tag = if matches!(resp, Response::Marginal(_)) {
                "answer.marginal"
            } else {
                "answer.topk"
            };
            let _ = writeln!(out, "{tag} {} {}", a.generation, a.flips);
            for e in &a.entries {
                let _ = write!(out, "entry {:016x} ", e.probability_bits);
                push_field(&mut out, &e.atom);
            }
        }
        Response::Applied(a) => {
            let _ = writeln!(
                out,
                "applied {} {} {} {} {}",
                a.generation,
                u8::from(a.incremental),
                a.changes,
                a.clauses,
                a.atoms
            );
        }
        Response::Pong { token } => {
            let _ = writeln!(out, "pong {token}");
        }
        Response::Busy(b) => {
            let _ = writeln!(out, "busy {} {} {}", b.class.as_str(), b.inflight, b.limit);
        }
        Response::Error(e) => {
            let _ = write!(out, "error {} ", e.code.as_str());
            push_field(&mut out, &e.message);
        }
    }
    out.into_bytes()
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// Splits a payload into lines, requiring UTF-8 and at least one line.
fn lines(payload: &[u8]) -> Result<Vec<&str>, WireError> {
    let text = std::str::from_utf8(payload).map_err(|_| WireError::new("payload is not UTF-8"))?;
    let text = text.strip_suffix('\n').unwrap_or(text);
    if text.is_empty() {
        return Err(WireError::new("empty payload"));
    }
    Ok(text.split('\n').collect())
}

/// Splits `line` at the first space into `(head, rest)`.
fn split_head(line: &str) -> (&str, &str) {
    match line.split_once(' ') {
        Some((head, rest)) => (head, rest),
        None => (line, ""),
    }
}

/// Splits `rest` into exactly `n` space-separated fields.
fn fields<'a>(rest: &'a str, n: usize, what: &str) -> Result<Vec<&'a str>, WireError> {
    let parts: Vec<&str> = if rest.is_empty() {
        Vec::new()
    } else {
        rest.splitn(n, ' ').collect()
    };
    if parts.len() != n || parts.iter().any(|p| p.is_empty()) {
        return Err(WireError::new(format!("`{what}` expects {n} field(s)")));
    }
    Ok(parts)
}

/// Decodes a request payload.
pub fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    let lines = lines(payload)?;
    let (tag, rest) = split_head(lines[0]);
    match tag {
        "query" => {
            if !rest.is_empty() {
                return Err(WireError::new("`query` takes no inline fields"));
            }
            let mut q = WireQuery::default();
            let mut saw_kind = false;
            for line in &lines[1..] {
                let (key, rest) = split_head(line);
                match key {
                    "kind" => {
                        if saw_kind {
                            return Err(WireError::new("duplicate `kind` line"));
                        }
                        saw_kind = true;
                        let (kind, krest) = split_head(rest);
                        q.kind = match kind {
                            "map" if krest.is_empty() => WireQueryKind::Map,
                            "marginal" if krest.is_empty() => WireQueryKind::Marginal,
                            "topk" => {
                                let (k, pred) = split_head(krest);
                                if pred.is_empty() {
                                    return Err(WireError::new(
                                        "`kind topk` expects k and a predicate",
                                    ));
                                }
                                WireQueryKind::TopK {
                                    predicate: unesc(pred)?,
                                    k: parse_num(k, "top-k count")?,
                                }
                            }
                            other => {
                                return Err(WireError::new(format!("unknown query kind `{other}`")))
                            }
                        };
                    }
                    "pred" => q.predicates.push(unesc(rest)?),
                    "given" => q.given = Some(unesc(rest)?),
                    "search" => {
                        let f = fields(rest, 4, "search")?;
                        q.search = Some((
                            parse_num(f[0], "max_flips")?,
                            parse_num(f[1], "max_tries")?,
                            parse_f64_hex(f[2])?,
                            parse_num(f[3], "seed")?,
                        ));
                    }
                    "mcsat" => {
                        let f = fields(rest, 6, "mcsat")?;
                        q.mcsat = Some((
                            parse_num(f[0], "samples")?,
                            parse_num(f[1], "burn_in")?,
                            parse_num(f[2], "steps")?,
                            parse_f64_hex(f[3])?,
                            parse_f64_hex(f[4])?,
                            parse_num(f[5], "seed")?,
                        ));
                    }
                    other => return Err(WireError::new(format!("unknown query line `{other}`"))),
                }
            }
            if !saw_kind {
                return Err(WireError::new("query without a `kind` line"));
            }
            if !q.predicates.is_empty() && !matches!(q.kind, WireQueryKind::Marginal) {
                return Err(WireError::new("`pred` lines require `kind marginal`"));
            }
            Ok(Request::Query(q))
        }
        "apply" => {
            if !rest.is_empty() {
                return Err(WireError::new("`apply` takes no inline fields"));
            }
            match lines.get(1).map(|l| split_head(l)) {
                Some(("delta", text)) if lines.len() == 2 => Ok(Request::Apply {
                    delta: unesc(text)?,
                }),
                _ => Err(WireError::new("`apply` expects exactly one `delta` line")),
            }
        }
        "ping" => {
            if lines.len() != 1 {
                return Err(WireError::new("`ping` is a single line"));
            }
            Ok(Request::Ping {
                token: parse_num(rest, "ping token")?,
            })
        }
        other => Err(WireError::new(format!("unknown request `{other}`"))),
    }
}

fn decode_prob_answer(lines: &[&str], rest: &str, what: &str) -> Result<WireProbAnswer, WireError> {
    let f = fields(rest, 2, what)?;
    let mut a = WireProbAnswer {
        generation: parse_num(f[0], "generation")?,
        flips: parse_num(f[1], "flips")?,
        entries: Vec::new(),
    };
    for line in lines {
        let (key, rest) = split_head(line);
        if key != "entry" {
            return Err(WireError::new(format!("unknown {what} line `{key}`")));
        }
        let (bits, atom) = split_head(rest);
        if atom.is_empty() {
            return Err(WireError::new("`entry` expects bits and an atom"));
        }
        a.entries.push(WireProbEntry {
            probability_bits: u64::from_str_radix(bits, 16)
                .map_err(|_| WireError::new(format!("bad probability bits `{bits}`")))?,
            atom: unesc(atom)?,
        });
    }
    Ok(a)
}

/// Decodes a response payload.
pub fn decode_response(payload: &[u8]) -> Result<Response, WireError> {
    let lines = lines(payload)?;
    let (tag, rest) = split_head(lines[0]);
    let single = |ok: Response| {
        if lines.len() == 1 {
            Ok(ok)
        } else {
            Err(WireError::new(format!("`{tag}` is a single line")))
        }
    };
    match tag {
        "welcome" => {
            let f = fields(rest, 2, "welcome")?;
            single(Response::Welcome {
                protocol: parse_num(f[0], "protocol")?,
                generation: parse_num(f[1], "generation")?,
            })
        }
        "answer.map" => {
            let f = fields(rest, 4, "answer.map")?;
            let mut a = WireMapAnswer {
                generation: parse_num(f[0], "generation")?,
                cost_hard: parse_num(f[1], "hard cost")?,
                cost_soft_bits: u64::from_str_radix(f[2], 16)
                    .map_err(|_| WireError::new(format!("bad soft-cost bits `{}`", f[2])))?,
                flips: parse_num(f[3], "flips")?,
                atoms: Vec::with_capacity(lines.len() - 1),
            };
            for line in &lines[1..] {
                let (key, rest) = split_head(line);
                if key != "atom" || rest.is_empty() {
                    return Err(WireError::new("answer.map rows must be `atom <name>`"));
                }
                a.atoms.push(unesc(rest)?);
            }
            Ok(Response::Map(a))
        }
        "answer.marginal" => Ok(Response::Marginal(decode_prob_answer(
            &lines[1..],
            rest,
            "answer.marginal",
        )?)),
        "answer.topk" => Ok(Response::TopK(decode_prob_answer(
            &lines[1..],
            rest,
            "answer.topk",
        )?)),
        "applied" => {
            let f = fields(rest, 5, "applied")?;
            let incremental = match f[1] {
                "0" => false,
                "1" => true,
                other => {
                    return Err(WireError::new(format!("bad incremental flag `{other}`")));
                }
            };
            single(Response::Applied(Applied {
                generation: parse_num(f[0], "generation")?,
                incremental,
                changes: parse_num(f[2], "changes")?,
                clauses: parse_num(f[3], "clauses")?,
                atoms: parse_num(f[4], "atoms")?,
            }))
        }
        "pong" => single(Response::Pong {
            token: parse_num(rest, "pong token")?,
        }),
        "busy" => {
            let f = fields(rest, 3, "busy")?;
            let class = match f[0] {
                "conn" => BusyClass::Connections,
                "queue" => BusyClass::Queue,
                "heavy" => BusyClass::Heavy,
                "shutdown" => BusyClass::Shutdown,
                other => return Err(WireError::new(format!("unknown busy class `{other}`"))),
            };
            single(Response::Busy(Busy {
                class,
                inflight: parse_num(f[1], "inflight")?,
                limit: parse_num(f[2], "limit")?,
            }))
        }
        "error" => {
            let (code, message) = split_head(rest);
            let code = match code {
                "bad-magic" => ErrorCode::BadMagic,
                "malformed" => ErrorCode::Malformed,
                "too-large" => ErrorCode::TooLarge,
                "timeout" => ErrorCode::Timeout,
                "query" => ErrorCode::Query,
                "shutdown" => ErrorCode::Shutdown,
                "internal" => ErrorCode::Internal,
                other => return Err(WireError::new(format!("unknown error code `{other}`"))),
            };
            single(Response::Error(WireFault {
                code,
                message: unesc(message)?,
            }))
        }
        other => Err(WireError::new(format!("unknown response `{other}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_roundtrip() {
        for s in ["", "plain", "a\nb", "tab\tstays", "back\\slash\r\n"] {
            assert_eq!(unesc(&esc(s)).unwrap(), s);
        }
        assert!(unesc("dangling\\").is_err());
        assert!(unesc("\\q").is_err());
    }

    #[test]
    fn f64_bits_are_exact() {
        for v in [0.0, -0.0, 1.0, 0.1 + 0.2, f64::NAN, f64::INFINITY] {
            let bits = parse_f64_hex(&format!("{:016x}", v.to_bits()));
            let bits = bits.unwrap().to_bits();
            assert_eq!(bits, v.to_bits());
        }
    }

    #[test]
    fn frame_roundtrip_and_faults() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        assert_eq!(buf, [&[0, 0, 0, 5][..], b"hello"].concat());
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r, 1024).unwrap(), b"hello");
        assert!(matches!(
            read_frame(&mut &buf[..3], 1024),
            Err(FrameReadError::Truncated)
        ));
        assert!(matches!(
            read_frame(&mut &buf[..7], 1024),
            Err(FrameReadError::Truncated)
        ));
        assert!(matches!(
            read_frame(&mut &[][..], 1024),
            Err(FrameReadError::Closed)
        ));
        assert!(matches!(
            read_frame(&mut &[0u8, 0, 0, 0][..], 1024),
            Err(FrameReadError::Empty)
        ));
        assert!(matches!(
            read_frame(&mut &[0xff, 0xff, 0xff, 0xff, 1][..], 1024),
            Err(FrameReadError::TooLarge(0xffff_ffff))
        ));
    }

    #[test]
    fn malformed_payloads_are_typed_errors() {
        for bad in [
            &b""[..],
            b"\xff\xfe",
            b"nonsense",
            b"query\n",
            b"query\nkind warp\n",
            b"query\nkind map\npred cat\n",
            b"query\nkind map\nsearch 1 2\n",
            b"apply\n",
            b"ping\n",
            b"ping one\n",
        ] {
            assert!(decode_request(bad).is_err(), "{bad:?} should not decode");
        }
        for bad in [
            &b"welcome 1\n"[..],
            b"answer.map 0 0 zz 0\n",
            b"applied 0 2 0 0 0\n",
            b"busy wat 0 0\n",
            b"error wat detail\n",
            b"pong 1\nextra\n",
        ] {
            assert!(decode_response(bad).is_err(), "{bad:?} should not decode");
        }
    }
}
