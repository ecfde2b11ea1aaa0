//! The `tuffyd` server: a [`tuffy::Engine`] behind a `TcpListener`.
//!
//! One thread accepts; each admitted connection gets a handler thread
//! owning a per-connection [`tuffy::Session`] (so committed
//! [`Request::Apply`] deltas fork copy-on-write generations exactly like
//! the in-process API, invisible to every other connection). Queries are
//! answered **statelessly** — bit-identical to calling
//! [`tuffy::Snapshot::query`] on the connection's current generation —
//! so any number of connections racing the same generation reproduce the
//! sequential answers bit for bit.
//!
//! # Admission control
//!
//! Three bounded limits, each reported with a typed [`Busy`] frame
//! instead of queuing unboundedly:
//!
//! * **connections** ([`ServeConfig::max_connections`]) — over the cap
//!   the server answers `busy conn` and closes;
//! * **total in-flight requests** ([`ServeConfig::max_inflight`]) — the
//!   work queue depth across all connections;
//! * **heavy requests** ([`ServeConfig::max_heavy`], strictly smaller) —
//!   marginal, top-k, `given`-conditioned queries and applies, which
//!   sample or fork groundings. Keeping `max_heavy < max_inflight`
//!   reserves slots for cheap MAP lookups, so a burst of heavy marginals
//!   cannot starve them.
//!
//! Per-request parameter overrides are clamped to the server's caps
//! ([`ServeConfig::max_flips`] bounds flips per try *and* tries × flips,
//! [`ServeConfig::max_samples`] bounds samples *and* burn-in,
//! [`ServeConfig::max_sample_steps`]) — a client cannot buy an unbounded
//! flip budget with one frame.
//!
//! # Fault containment
//!
//! Protocol failures are per-connection, never server-wide: a garbage
//! preamble, zero-length or unparseable frame, oversized length prefix,
//! torn frame, or mid-request disconnect yields a typed error frame
//! (when the peer is still readable) and at worst closes that one
//! connection. A peer that stalls mid-frame is cut off after
//! [`ServeConfig::frame_deadline`] (slow-loris protection); between
//! frames a connection may idle indefinitely. Malformed-but-framed
//! payloads keep the connection open — the length prefix preserves
//! resynchronization — while framing-level faults close it, since the
//! byte stream can no longer be trusted.
//!
//! Request execution itself runs under `catch_unwind`: a panic inside
//! inference (or the chaos hook, [`ServeConfig::chaos_panic_token`])
//! answers a typed `error internal` frame, releases its admission slots
//! (guards are RAII), and leaves the connection, its session, and every
//! other connection serving — snapshots are immutable, so a panicked
//! request cannot have half-mutated shared state.
//!
//! # Durable lineage
//!
//! [`Server::start_durable`] fronts a [`tuffy::DurableEngine`] instead
//! of per-connection sessions: committed applies from *any* connection
//! append to the store's delta write-ahead log **before** the `applied`
//! frame is sent, advance one shared serving head, and become visible to
//! all connections' subsequent queries. A crash after the ack therefore
//! always replays to (at least) the acked generation on restart. WAL
//! append failures answer `error internal` and leave the head on the
//! previous committed generation — a delta that was not made durable is
//! never served. Applies and queries take the head in arrival order: a
//! query that arrives during an apply waits for it and answers from the
//! generation it commits (the previous one if it failed), never behind a
//! later apply.
//!
//! # Graceful drain
//!
//! [`Server::shutdown`] stops accepting, then *drains*: in-flight
//! requests run to completion (their answers are delivered), each
//! connection's next read answers `busy shutdown` and closes, and the
//! WAL is fsynced last. Handlers still running after
//! [`ServeConfig::drain_deadline`] are abandoned (counted in
//! [`ServerStats::aborted`]) so a wedged peer cannot hold the process
//! hostage.

use crate::wire::{
    decode_request, encode_response, Applied, Busy, BusyClass, ErrorCode, Request, Response,
    WireFault, WireMapAnswer, WireProbAnswer, WireProbEntry, WireQuery, WireQueryKind, MAGIC,
    PROTOCOL_VERSION,
};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tuffy::{
    DurableEngine, DurableError, Engine, McSatParams, Query, QueryAnswer, Session, WalkSatParams,
};

/// Server limits and timeouts; see the module docs for the admission
/// model.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Concurrent connections admitted; further accepts answer
    /// `busy conn` and close.
    pub max_connections: usize,
    /// Concurrent in-flight requests across all connections.
    pub max_inflight: usize,
    /// Concurrent heavy requests (marginal / top-k / `given` / apply);
    /// keep below `max_inflight` to reserve capacity for cheap MAPs.
    pub max_heavy: usize,
    /// Per-frame payload cap, in both directions. A larger request
    /// length prefix is rejected without reading (typed `too-large`
    /// error, then close); a larger encoded answer is replaced by a typed
    /// `too-large` error and the connection keeps serving.
    pub max_frame_bytes: u32,
    /// Cap on a per-request WalkSAT `max_flips` override, and on its
    /// `max_tries` × `max_flips`.
    pub max_flips: u64,
    /// Cap on a per-request MC-SAT `samples` override, and separately on
    /// its `burn_in`.
    pub max_samples: usize,
    /// Cap on a per-request MC-SAT `sample_sat_steps` override.
    pub max_sample_steps: u64,
    /// Socket read timeout — the idle poll tick at which handler
    /// threads notice shutdown. Idle connections are never dropped.
    pub read_timeout: Duration,
    /// Slow-loris deadline: maximum wall time to deliver one complete
    /// frame once its first byte arrived.
    pub frame_deadline: Duration,
    /// Graceful-drain budget: at shutdown, in-flight requests get this
    /// long to finish (each connection's next read answers
    /// `busy shutdown` and closes). Handlers still running at the
    /// deadline are abandoned and counted in [`ServerStats::aborted`].
    pub drain_deadline: Duration,
    /// Chaos hook for the fault-containment suite: a `ping` carrying
    /// this token panics *inside* the request handler, exercising the
    /// `catch_unwind` isolation path. `None` (always, outside tests)
    /// disables it.
    pub chaos_panic_token: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            max_connections: 256,
            max_inflight: 8,
            max_heavy: 4,
            max_frame_bytes: crate::wire::DEFAULT_MAX_FRAME_BYTES,
            max_flips: 10_000_000,
            max_samples: 10_000,
            max_sample_steps: 1_000_000,
            read_timeout: Duration::from_millis(100),
            frame_deadline: Duration::from_secs(10),
            drain_deadline: Duration::from_secs(5),
            chaos_panic_token: None,
        }
    }
}

/// Monotonic serving counters, snapshot via [`Server::stats`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerStats {
    /// Connections accepted and admitted.
    pub accepted: u64,
    /// Connections refused at the connection cap.
    pub rejected_connections: u64,
    /// Currently open admitted connections.
    pub active_connections: u64,
    /// Light (plain MAP) queries answered.
    pub queries_light: u64,
    /// Heavy queries (marginal / top-k / `given`) answered.
    pub queries_heavy: u64,
    /// Applies committed.
    pub applies: u64,
    /// Requests rejected with a `busy` frame (queue or heavy class).
    pub busy_rejections: u64,
    /// Protocol faults (bad magic, malformed, torn, oversized).
    pub protocol_errors: u64,
    /// Slow-loris frame deadlines hit.
    pub timeouts: u64,
    /// Requests executing right now.
    pub inflight: u64,
    /// Heavy requests executing right now.
    pub inflight_heavy: u64,
    /// Requests whose handler panicked or whose WAL append failed —
    /// each answered with a typed `error internal` frame.
    pub internal_errors: u64,
    /// Connections that finished their in-flight work within the drain
    /// deadline at shutdown.
    pub drained: u64,
    /// Connections abandoned at the drain deadline.
    pub aborted: u64,
}

#[derive(Default)]
struct Counters {
    accepted: AtomicU64,
    rejected_connections: AtomicU64,
    active_connections: AtomicU64,
    queries_light: AtomicU64,
    queries_heavy: AtomicU64,
    applies: AtomicU64,
    busy_rejections: AtomicU64,
    protocol_errors: AtomicU64,
    timeouts: AtomicU64,
    internal_errors: AtomicU64,
    drained: AtomicU64,
    aborted: AtomicU64,
}

/// The two-class admission gate. Guards release on drop, so a panic in
/// inference (which would abort the handler thread, not the server)
/// cannot leak a slot.
struct Admission {
    inflight: AtomicU64,
    inflight_heavy: AtomicU64,
    max_inflight: u64,
    max_heavy: u64,
}

struct AdmissionGuard<'a> {
    admission: &'a Admission,
    heavy: bool,
}

impl Admission {
    fn try_acquire(&self, heavy: bool) -> Result<AdmissionGuard<'_>, Busy> {
        let total = self.inflight.fetch_add(1, Ordering::AcqRel) + 1;
        if total > self.max_inflight {
            self.inflight.fetch_sub(1, Ordering::AcqRel);
            return Err(Busy {
                class: BusyClass::Queue,
                inflight: total - 1,
                limit: self.max_inflight,
            });
        }
        if heavy {
            let h = self.inflight_heavy.fetch_add(1, Ordering::AcqRel) + 1;
            if h > self.max_heavy {
                self.inflight_heavy.fetch_sub(1, Ordering::AcqRel);
                self.inflight.fetch_sub(1, Ordering::AcqRel);
                return Err(Busy {
                    class: BusyClass::Heavy,
                    inflight: h - 1,
                    limit: self.max_heavy,
                });
            }
        }
        Ok(AdmissionGuard {
            admission: self,
            heavy,
        })
    }
}

impl Drop for AdmissionGuard<'_> {
    fn drop(&mut self) {
        if self.heavy {
            self.admission.inflight_heavy.fetch_sub(1, Ordering::AcqRel);
        }
        self.admission.inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

struct Shared {
    engine: Engine,
    config: ServeConfig,
    shutdown: AtomicBool,
    counters: Counters,
    admission: Admission,
    /// Handler threads, joined at shutdown. Finished threads park here
    /// until then; each costs a few KB, bounded by connection churn.
    handlers: Mutex<Vec<JoinHandle<()>>>,
    /// The durable serving lineage ([`Server::start_durable`]); `None`
    /// for in-memory serving with per-connection sessions. Applies and
    /// queries cloning the committed head take it in turn (see
    /// [`TurnLock`]). Poison is cleared: `DurableEngine::apply` is
    /// transactional (the WAL append is the commit point; program and
    /// head advance only after it succeeds), so state behind a poisoned
    /// lock is always a consistent committed generation.
    durable: Option<TurnLock<DurableEngine>>,
}

/// A mutex that hands itself out in arrival order: each caller takes the
/// next ticket and waits for its turn. The durable lineage needs this
/// because a plain mutex lets the applying connection's next request race
/// a query woken at the end of the apply, and which one wins depends on
/// how the threads happen to be scheduled: a query could wait out several
/// applies in a row, more or fewer from one run to the next. Poison is
/// cleared (see [`Shared::durable`]).
struct TurnLock<T> {
    value: Mutex<T>,
    /// `(next ticket to hand out, ticket whose turn it is)`.
    tickets: Mutex<(u64, u64)>,
    turn: Condvar,
}

impl<T> TurnLock<T> {
    fn new(value: T) -> TurnLock<T> {
        TurnLock {
            value: Mutex::new(value),
            tickets: Mutex::new((0, 0)),
            turn: Condvar::new(),
        }
    }

    /// Waits for every earlier caller to be done, then locks.
    fn lock(&self) -> TurnGuard<'_, T> {
        let mut tickets = self.tickets.lock().unwrap_or_else(PoisonError::into_inner);
        let ticket = tickets.0;
        tickets.0 += 1;
        while tickets.1 != ticket {
            tickets = self
                .turn
                .wait(tickets)
                .unwrap_or_else(PoisonError::into_inner);
        }
        drop(tickets);
        TurnGuard {
            lock: self,
            value: self.value.lock().unwrap_or_else(PoisonError::into_inner),
        }
    }
}

/// A [`TurnLock`]'s value; passes the turn on when dropped, also when a
/// panicking request unwinds.
struct TurnGuard<'a, T> {
    lock: &'a TurnLock<T>,
    value: MutexGuard<'a, T>,
}

impl<T> Deref for TurnGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for TurnGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T> Drop for TurnGuard<'_, T> {
    fn drop(&mut self) {
        self.lock
            .tickets
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .1 += 1;
        self.lock.turn.notify_all();
    }
}

/// A running `tuffyd` server; see the module docs. Dropping (or calling
/// [`Server::shutdown`]) stops the accept loop and joins every handler.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral test port)
    /// and starts serving `engine` in background threads.
    pub fn start(
        engine: Engine,
        addr: impl ToSocketAddrs,
        config: ServeConfig,
    ) -> std::io::Result<Server> {
        Server::start_inner(engine, None, addr, config)
    }

    /// Binds `addr` and serves a durable lineage: applies from every
    /// connection are WAL-logged before they are acknowledged and
    /// advance one shared serving head (see the module docs). Build the
    /// lineage with [`tuffy::DurableEngine::create`] or recover one with
    /// [`tuffy::DurableEngine::open`].
    pub fn start_durable(
        durable: DurableEngine,
        addr: impl ToSocketAddrs,
        config: ServeConfig,
    ) -> std::io::Result<Server> {
        // The lineage's engine is cloned out for instrumentation
        // (`Server::engine`): its counters `Arc` is shared with every
        // generation the durable head forks, so per-engine stats keep
        // covering the whole lineage.
        let engine = durable.engine().clone();
        Server::start_inner(engine, Some(durable), addr, config)
    }

    fn start_inner(
        engine: Engine,
        durable: Option<DurableEngine>,
        addr: impl ToSocketAddrs,
        config: ServeConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            admission: Admission {
                inflight: AtomicU64::new(0),
                inflight_heavy: AtomicU64::new(0),
                max_inflight: config.max_inflight as u64,
                max_heavy: config.max_heavy as u64,
            },
            engine,
            config,
            shutdown: AtomicBool::new(false),
            counters: Counters::default(),
            handlers: Mutex::new(Vec::new()),
            durable: durable.map(TurnLock::new),
        });
        let accept_shared = shared.clone();
        let accept = std::thread::Builder::new()
            .name("tuffyd-accept".into())
            .spawn(move || accept_loop(&accept_shared, &listener))?;
        Ok(Server {
            shared,
            addr,
            accept: Some(accept),
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine this server fronts — the per-engine instrumentation
    /// path: tests assert on `self.engine().groundings_performed()`
    /// (scoped to this server's lineage) instead of the process-global
    /// grounder counter, so they stay meaningful under
    /// `--test-threads=8`.
    pub fn engine(&self) -> &Engine {
        &self.shared.engine
    }

    /// A snapshot of the serving counters.
    pub fn stats(&self) -> ServerStats {
        let c = &self.shared.counters;
        ServerStats {
            accepted: c.accepted.load(Ordering::Relaxed),
            rejected_connections: c.rejected_connections.load(Ordering::Relaxed),
            active_connections: c.active_connections.load(Ordering::Relaxed),
            queries_light: c.queries_light.load(Ordering::Relaxed),
            queries_heavy: c.queries_heavy.load(Ordering::Relaxed),
            applies: c.applies.load(Ordering::Relaxed),
            busy_rejections: c.busy_rejections.load(Ordering::Relaxed),
            protocol_errors: c.protocol_errors.load(Ordering::Relaxed),
            timeouts: c.timeouts.load(Ordering::Relaxed),
            inflight: self.shared.admission.inflight.load(Ordering::Relaxed),
            inflight_heavy: self.shared.admission.inflight_heavy.load(Ordering::Relaxed),
            internal_errors: c.internal_errors.load(Ordering::Relaxed),
            drained: c.drained.load(Ordering::Relaxed),
            aborted: c.aborted.load(Ordering::Relaxed),
        }
    }

    /// Stops accepting and drains: in-flight requests finish (their
    /// answers are delivered), each connection's next read answers
    /// `busy shutdown`, and the WAL is fsynced last. Handlers still
    /// running after [`ServeConfig::drain_deadline`] are abandoned.
    /// Returns the final counters (including `drained` / `aborted`).
    pub fn shutdown(mut self) -> ServerStats {
        self.stop();
        self.stats()
    }

    fn stop(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // Drain: handlers finish their in-flight request, answer
        // `busy shutdown` to the next read, and exit (counting
        // themselves as drained). Here we only wait, under the
        // deadline.
        let mut draining = std::mem::take(&mut *self.shared.handlers.lock().unwrap());
        let deadline = Instant::now() + self.shared.config.drain_deadline;
        loop {
            let mut still_running = Vec::new();
            for h in draining {
                if h.is_finished() {
                    let _ = h.join();
                } else {
                    still_running.push(h);
                }
            }
            draining = still_running;
            if draining.is_empty() || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        // Past the deadline: abandon what is left (a wedged peer or a
        // runaway request must not hold shutdown hostage). The detached
        // threads still release their admission slots on exit.
        self.shared
            .counters
            .aborted
            .fetch_add(draining.len() as u64, Ordering::Relaxed);
        drop(draining);
        // Final durability barrier: everything acked is on disk.
        if let Some(durable) = &self.shared.durable {
            let _ = durable.lock().sync();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let active = shared.counters.active_connections.load(Ordering::Relaxed);
        if active >= shared.config.max_connections as u64 {
            shared
                .counters
                .rejected_connections
                .fetch_add(1, Ordering::Relaxed);
            reject_at_accept(shared, stream, active);
            continue;
        }
        shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
        shared
            .counters
            .active_connections
            .fetch_add(1, Ordering::Relaxed);
        let conn_shared = shared.clone();
        let handler = std::thread::Builder::new()
            .name("tuffyd-conn".into())
            .spawn(move || {
                handle_connection(&conn_shared, stream);
                // A connection that ends once shutdown has begun was
                // drained — it finished (or was told `busy shutdown`)
                // rather than being abandoned at the drain deadline.
                if conn_shared.shutdown.load(Ordering::SeqCst) {
                    conn_shared.counters.drained.fetch_add(1, Ordering::Relaxed);
                }
                conn_shared
                    .counters
                    .active_connections
                    .fetch_sub(1, Ordering::Relaxed);
            });
        match handler {
            Ok(handle) => shared.handlers.lock().unwrap().push(handle),
            Err(_) => {
                // Thread spawn failed (resource exhaustion): undo the
                // active count; the stream closed when `spawn` dropped
                // its closure.
                shared
                    .counters
                    .active_connections
                    .fetch_sub(1, Ordering::Relaxed);
            }
        }
    }
}

/// Over the connection cap: still speak the protocol (magic + typed
/// `busy conn`) so the client can distinguish backpressure from a dead
/// server, then close.
fn reject_at_accept(shared: &Shared, mut stream: TcpStream, active: u64) {
    let _ = stream.set_write_timeout(Some(shared.config.frame_deadline));
    let _ = stream.write_all(&MAGIC);
    let _ = write_response(
        &mut stream,
        &Response::Busy(Busy {
            class: BusyClass::Connections,
            inflight: active,
            limit: shared.config.max_connections as u64,
        }),
    );
}

fn write_response(stream: &mut TcpStream, resp: &Response) -> std::io::Result<()> {
    crate::wire::write_frame(stream, &encode_response(resp))
}

/// How one attempt to read the next frame ended.
enum FrameEvent {
    Frame(Vec<u8>),
    /// Peer closed cleanly between frames.
    Closed,
    /// Peer closed mid-frame (torn frame / mid-request disconnect).
    Torn,
    /// Length prefix over the cap (payload left unread).
    TooLarge(u32),
    /// Zero-length frame; stream still in sync.
    Empty,
    /// Frame deadline exceeded mid-frame (slow loris).
    TimedOut,
    /// Server shutdown requested.
    Shutdown,
    /// Unrecoverable socket error.
    Io,
}

fn timeout_kind(kind: ErrorKind) -> bool {
    matches!(kind, ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Reads exactly `buf.len()` bytes under `deadline`, tolerating socket
/// read-timeout ticks (each tick re-checks shutdown and the deadline).
fn read_exact_deadline(
    stream: &mut TcpStream,
    buf: &mut [u8],
    deadline: Instant,
    shutdown: &AtomicBool,
) -> Result<(), FrameEvent> {
    let mut got = 0;
    while got < buf.len() {
        match stream.read(&mut buf[got..]) {
            Ok(0) => return Err(FrameEvent::Torn),
            Ok(n) => got += n,
            Err(e) if timeout_kind(e.kind()) => {
                if shutdown.load(Ordering::SeqCst) {
                    return Err(FrameEvent::Shutdown);
                }
                if Instant::now() >= deadline {
                    return Err(FrameEvent::TimedOut);
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return Err(FrameEvent::Io),
        }
    }
    Ok(())
}

/// Reads the next frame: idles indefinitely *between* frames (checking
/// shutdown each read-timeout tick), but once a frame's first byte
/// arrives the rest must land within `frame_deadline`.
fn next_frame(stream: &mut TcpStream, shared: &Shared) -> FrameEvent {
    let mut first = [0u8; 1];
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return FrameEvent::Shutdown;
        }
        match stream.read(&mut first) {
            Ok(0) => return FrameEvent::Closed,
            Ok(_) => break,
            Err(e) if timeout_kind(e.kind()) || e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return FrameEvent::Io,
        }
    }
    let deadline = Instant::now() + shared.config.frame_deadline;
    let mut rest = [0u8; 3];
    if let Err(ev) = read_exact_deadline(stream, &mut rest, deadline, &shared.shutdown) {
        return ev;
    }
    let len = u32::from_be_bytes([first[0], rest[0], rest[1], rest[2]]);
    if len == 0 {
        return FrameEvent::Empty;
    }
    if len > shared.config.max_frame_bytes {
        return FrameEvent::TooLarge(len);
    }
    let mut payload = vec![0u8; len as usize];
    match read_exact_deadline(stream, &mut payload, deadline, &shared.shutdown) {
        Ok(()) => FrameEvent::Frame(payload),
        Err(ev) => ev,
    }
}

fn fault(code: ErrorCode, message: impl Into<String>) -> Response {
    Response::Error(WireFault {
        code,
        message: message.into(),
    })
}

fn handle_connection(shared: &Shared, mut stream: TcpStream) {
    let cfg = &shared.config;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(cfg.read_timeout));
    let _ = stream.set_write_timeout(Some(cfg.frame_deadline));

    // Preamble: server magic out, client magic in (under the frame
    // deadline — a half-open connect must not hold the slot forever).
    if stream.write_all(&MAGIC).is_err() {
        return;
    }
    let mut client_magic = [0u8; MAGIC.len()];
    let deadline = Instant::now() + cfg.frame_deadline;
    match read_exact_deadline(&mut stream, &mut client_magic, deadline, &shared.shutdown) {
        Ok(()) => {}
        Err(FrameEvent::TimedOut) => {
            shared.counters.timeouts.fetch_add(1, Ordering::Relaxed);
            let _ = write_response(
                &mut stream,
                &fault(ErrorCode::Timeout, "preamble timed out"),
            );
            return;
        }
        Err(_) => return,
    }
    if client_magic != MAGIC {
        shared
            .counters
            .protocol_errors
            .fetch_add(1, Ordering::Relaxed);
        let _ = write_response(
            &mut stream,
            &fault(
                ErrorCode::BadMagic,
                format!(
                    "expected preamble {:?}",
                    std::str::from_utf8(&MAGIC).unwrap()
                ),
            ),
        );
        return;
    }

    // The connection's session: committed applies fork generations here,
    // exactly like the in-process API; queries never touch its state.
    // In durable mode the session is only a fallback — applies and
    // queries route through the shared durable head instead.
    let mut session = shared.engine.open_session();
    let generation = match &shared.durable {
        Some(durable) => durable.lock().generation(),
        None => session.snapshot().generation(),
    };
    if write_response(
        &mut stream,
        &Response::Welcome {
            protocol: PROTOCOL_VERSION,
            generation,
        },
    )
    .is_err()
    {
        return;
    }

    loop {
        let payload = match next_frame(&mut stream, shared) {
            FrameEvent::Frame(payload) => payload,
            FrameEvent::Closed | FrameEvent::Io => return,
            FrameEvent::Torn => {
                // Mid-request disconnect: nothing to answer, the peer is
                // gone. Count it and drop cleanly.
                shared
                    .counters
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                return;
            }
            FrameEvent::Empty => {
                // Framing is still in sync; answer and keep serving.
                shared
                    .counters
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                if write_response(
                    &mut stream,
                    &fault(ErrorCode::Malformed, "zero-length frame"),
                )
                .is_err()
                {
                    return;
                }
                continue;
            }
            FrameEvent::TooLarge(len) => {
                shared
                    .counters
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                let _ = write_response(
                    &mut stream,
                    &fault(
                        ErrorCode::TooLarge,
                        format!(
                            "frame of {len} bytes exceeds the {}-byte cap",
                            cfg.max_frame_bytes
                        ),
                    ),
                );
                return; // payload unread: the stream cannot be resynced
            }
            FrameEvent::TimedOut => {
                shared.counters.timeouts.fetch_add(1, Ordering::Relaxed);
                let _ = write_response(
                    &mut stream,
                    &fault(
                        ErrorCode::Timeout,
                        format!("frame not delivered within {:?}", cfg.frame_deadline),
                    ),
                );
                return;
            }
            FrameEvent::Shutdown => {
                // Typed backpressure, not a fault: the server is
                // draining, the client should reconnect elsewhere/later.
                let _ = write_response(
                    &mut stream,
                    &Response::Busy(Busy {
                        class: BusyClass::Shutdown,
                        inflight: shared.admission.inflight.load(Ordering::Relaxed),
                        limit: shared.config.max_inflight as u64,
                    }),
                );
                return;
            }
        };

        let request = match decode_request(&payload) {
            Ok(request) => request,
            Err(e) => {
                // The frame boundary held, so the stream is still in
                // sync: report and keep the connection.
                shared
                    .counters
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                if write_response(&mut stream, &fault(ErrorCode::Malformed, e.message)).is_err() {
                    return;
                }
                continue;
            }
        };

        // Panic isolation: a handler panic (inference bug, chaos hook)
        // must cost exactly one request. Admission guards release on
        // unwind; snapshots are immutable, so no shared state can be
        // left half-mutated — `AssertUnwindSafe` is sound here. The
        // durable lock is poison-cleared by `TurnLock::lock` because
        // `DurableEngine::apply` commits atomically at the WAL append.
        let response = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handle_request(shared, &mut session, request)
        }))
        .unwrap_or_else(|_| {
            shared
                .counters
                .internal_errors
                .fetch_add(1, Ordering::Relaxed);
            fault(
                ErrorCode::Internal,
                "request handler panicked; the request was abandoned and no state changed",
            )
        });
        // The frame cap holds in both directions: an answer the peer
        // would refuse to read becomes a typed error, and the stream
        // stays in sync.
        let mut frame = encode_response(&response);
        if frame.len() > cfg.max_frame_bytes as usize {
            frame = encode_response(&fault(
                ErrorCode::TooLarge,
                format!(
                    "answer of {} bytes exceeds the {}-byte frame cap",
                    frame.len(),
                    cfg.max_frame_bytes
                ),
            ));
        }
        if crate::wire::write_frame(&mut stream, &frame).is_err() {
            return;
        }
    }
}

/// Whether a query needs a heavy admission slot: anything that samples
/// (marginal / top-k) or forks a grounding (`given`).
fn is_heavy(q: &WireQuery) -> bool {
    q.given.is_some() || !matches!(q.kind, WireQueryKind::Map)
}

fn handle_request(shared: &Shared, session: &mut Session, request: Request) -> Response {
    match request {
        Request::Ping { token } => {
            if shared.config.chaos_panic_token == Some(token) {
                panic!("chaos: injected request-handler panic (token {token})");
            }
            Response::Pong { token }
        }
        Request::Apply { delta } => {
            let guard = match shared.admission.try_acquire(true) {
                Ok(guard) => guard,
                Err(busy) => {
                    shared
                        .counters
                        .busy_rejections
                        .fetch_add(1, Ordering::Relaxed);
                    return Response::Busy(busy);
                }
            };
            let _guard = guard;
            if let Some(durable) = &shared.durable {
                return apply_durable(shared, durable, &delta);
            }
            let parsed = match session.parse_delta(&delta) {
                Ok(parsed) => parsed,
                Err(e) => return fault(ErrorCode::Query, e.to_string()),
            };
            match session.apply(&parsed) {
                Ok(report) => {
                    shared.counters.applies.fetch_add(1, Ordering::Relaxed);
                    Response::Applied(Applied {
                        generation: session.snapshot().generation(),
                        incremental: report.incremental,
                        changes: report.changes as u64,
                        clauses: report.clauses as u64,
                        atoms: report.atoms as u64,
                    })
                }
                Err(e) => fault(ErrorCode::Query, e.to_string()),
            }
        }
        Request::Query(wq) => {
            let heavy = is_heavy(&wq);
            let guard = match shared.admission.try_acquire(heavy) {
                Ok(guard) => guard,
                Err(busy) => {
                    shared
                        .counters
                        .busy_rejections
                        .fetch_add(1, Ordering::Relaxed);
                    return Response::Busy(busy);
                }
            };
            let _guard = guard;
            // Durable mode: answer off a fresh reader of the shared
            // committed head (the lock is held only to clone it; the
            // query itself runs unlocked, concurrently with applies).
            let mut reader;
            let session: &mut Session = match &shared.durable {
                Some(durable) => {
                    reader = durable.lock().reader();
                    &mut reader
                }
                None => session,
            };
            let query = match build_query(shared, session, &wq) {
                Ok(query) => query,
                Err(resp) => return resp,
            };
            // Stateless execution: plain queries answer straight off the
            // snapshot (bit-identical to in-process `Snapshot::query`);
            // `given` queries go through the session so a delta whose
            // constants were interned by `parse_delta` resolves against
            // the session's copy-on-write program fork.
            let generation = session.snapshot().generation();
            let answered = if wq.given.is_some() {
                session.query(&query)
            } else {
                session.snapshot().query(&query)
            };
            let answer = match answered {
                Ok(answer) => answer,
                Err(e) => return fault(ErrorCode::Query, e.to_string()),
            };
            if heavy {
                shared
                    .counters
                    .queries_heavy
                    .fetch_add(1, Ordering::Relaxed);
            } else {
                shared
                    .counters
                    .queries_light
                    .fetch_add(1, Ordering::Relaxed);
            }
            render_answer(session, generation, answer)
        }
    }
}

/// Commits a delta to the durable lineage: parse → fork → WAL append
/// (the commit point, fsynced) → advance the shared head. A WAL failure
/// answers `error internal` and the head stays on the previous
/// committed generation — an unlogged delta is never served.
fn apply_durable(shared: &Shared, durable: &TurnLock<DurableEngine>, delta: &str) -> Response {
    let mut durable = durable.lock();
    match durable.apply(delta) {
        Ok(outcome) => {
            if let Some(e) = durable.take_checkpoint_error() {
                // The apply itself is durable in the WAL; folding it
                // into the base merely didn't happen yet. Surface and
                // keep serving — the next checkpoint retries.
                eprintln!("tuffyd: checkpoint failed (will retry): {e}");
            }
            shared.counters.applies.fetch_add(1, Ordering::Relaxed);
            Response::Applied(Applied {
                generation: outcome.generation,
                incremental: outcome.report.incremental,
                changes: outcome.report.changes as u64,
                clauses: outcome.report.clauses as u64,
                atoms: outcome.report.atoms as u64,
            })
        }
        Err(DurableError::Invalid(e)) => fault(ErrorCode::Query, e.to_string()),
        Err(DurableError::Store(e)) => {
            shared
                .counters
                .internal_errors
                .fetch_add(1, Ordering::Relaxed);
            fault(
                ErrorCode::Internal,
                format!("delta not committed (previous generation still serving): {e}"),
            )
        }
    }
}

/// Translates a wire query into a core [`Query`], parsing `given` delta
/// text against the session program and clamping parameter overrides to
/// the server caps.
fn build_query(shared: &Shared, session: &mut Session, wq: &WireQuery) -> Result<Query, Response> {
    let cfg = &shared.config;
    let mut query = match &wq.kind {
        WireQueryKind::Map => Query::map(),
        WireQueryKind::Marginal => Query::marginal(wq.predicates.iter().map(String::as_str)),
        WireQueryKind::TopK { predicate, k } => Query::top_k(predicate, *k as usize),
    };
    if let Some(text) = &wq.given {
        let delta = session
            .parse_delta(text)
            .map_err(|e| fault(ErrorCode::Query, e.to_string()))?;
        query = query.given(delta);
    }
    if let Some((max_flips, max_tries, noise, seed)) = wq.search {
        // Every try restarts the flip budget (and a zero-flip try still
        // re-counts every clause), so tries × flips is held to the cap.
        let max_flips = max_flips.min(cfg.max_flips);
        let tries_cap = cfg.max_flips / max_flips.max(1);
        query = query.with_search(WalkSatParams {
            max_flips,
            max_tries: max_tries.min(u32::try_from(tries_cap).unwrap_or(u32::MAX)),
            noise,
            seed,
        });
    }
    if let Some((samples, burn_in, steps, p_anneal, temperature, seed)) = wq.mcsat {
        let cap = |n: u64| n.min(cfg.max_samples as u64) as usize;
        query = query.with_mcsat(McSatParams {
            samples: cap(samples),
            burn_in: cap(burn_in),
            sample_sat_steps: steps.min(cfg.max_sample_steps),
            p_anneal,
            temperature,
            seed,
        });
    }
    Ok(query)
}

/// Renders a core answer as its wire frame. Atom names render against
/// the session program (a superset of the snapshot's when `parse_delta`
/// interned constants), and probabilities travel as raw bits.
fn render_answer(session: &Session, generation: u64, answer: QueryAnswer) -> Response {
    let program = session.program();
    match answer {
        QueryAnswer::Map(r) => Response::Map(WireMapAnswer {
            generation,
            cost_hard: r.cost.hard,
            cost_soft_bits: r.cost.soft.to_bits(),
            flips: r.report.flips,
            atoms: r
                .true_atoms()
                .iter()
                .map(|a| tuffy::render_atom(program, a))
                .collect(),
        }),
        QueryAnswer::Marginal(r) => Response::Marginal(WireProbAnswer {
            generation,
            flips: r.report.flips,
            entries: r
                .names
                .iter()
                .zip(r.marginals.iter())
                .map(|(name, (_, p))| WireProbEntry {
                    probability_bits: p.to_bits(),
                    atom: name.clone(),
                })
                .collect(),
        }),
        QueryAnswer::TopK(r) => Response::TopK(WireProbAnswer {
            generation,
            flips: r.report.flips,
            entries: r
                .entries
                .iter()
                .map(|e| WireProbEntry {
                    probability_bits: e.probability.to_bits(),
                    atom: e.name.clone(),
                })
                .collect(),
        }),
    }
}

/// Renders server stats in the repo's EXPLAIN tree style (the `tuffyd`
/// binary prints this on SIGINT-free exit paths and on demand).
pub fn explain_stats(stats: &ServerStats) -> String {
    format!(
        "Server\n\
         ├─ connections: {} accepted, {} active, {} rejected at cap\n\
         ├─ queries: {} light, {} heavy, {} applies\n\
         ├─ backpressure: {} busy rejections ({} in flight, {} heavy)\n\
         ├─ faults: {} protocol errors, {} frame timeouts, {} internal errors\n\
         └─ drain: {} drained, {} aborted\n",
        stats.accepted,
        stats.active_connections,
        stats.rejected_connections,
        stats.queries_light,
        stats.queries_heavy,
        stats.applies,
        stats.busy_rejections,
        stats.inflight,
        stats.inflight_heavy,
        stats.protocol_errors,
        stats.timeouts,
        stats.internal_errors,
        stats.drained,
        stats.aborted,
    )
}

#[cfg(test)]
mod tests {
    use super::TurnLock;

    #[test]
    fn turn_lock_serves_waiters_in_arrival_order() {
        let lock = TurnLock::new(Vec::new());
        let first = lock.lock();
        std::thread::scope(|scope| {
            for i in 0..4u64 {
                let lock = &lock;
                scope.spawn(move || lock.lock().push(i));
                // Let waiter i take its ticket before waiter i + 1 starts.
                while lock.tickets.lock().unwrap().0 < i + 2 {
                    std::thread::yield_now();
                }
            }
            drop(first);
        });
        assert_eq!(*lock.lock(), [0, 1, 2, 3]);
    }
}
