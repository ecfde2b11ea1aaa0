//! `tuffy-serve`: the networked serving layer over the Tuffy engine —
//! the `tuffyd` server binary, its wire protocol, and a blocking client.
//!
//! PR 5 made in-process concurrent serving cheap: an [`tuffy::Engine`]
//! grounds once, [`tuffy::Snapshot`]s share it Arc-style, and
//! [`tuffy::Session`]s fork copy-on-write generations. This crate puts
//! that contract behind a socket, in the spirit of the paper's thesis
//! that inference belongs inside a long-running data-management
//! process: `tuffyd` loads a program once and answers query streams
//! from many clients.
//!
//! # Wire protocol (version 1)
//!
//! The protocol is length-prefixed and line-based, over TCP, built only
//! on `std::net` (the deployment target has no network crates).
//!
//! **Preamble.** On accept the server writes the 8-byte magic
//! `TUFFYD/1`; the client must answer with the same 8 bytes. Anything
//! else draws a typed `bad-magic` error frame and a close — version
//! drift fails at the preamble, not mid-frame. The server then sends a
//! `welcome` frame carrying the protocol version and the generation the
//! server's lineage is serving.
//!
//! **Framing.** Every subsequent message is one frame: a 4-byte
//! big-endian payload length, then that many bytes of UTF-8 payload.
//! Zero-length frames are malformed; payloads above the receiver's cap
//! (4 MiB by default) are rejected *without reading* — and since the
//! unread payload makes the stream unsyncable, the connection closes.
//!
//! **Payloads.** A payload is newline-separated lines; the first token
//! of the first line names the message. Floating-point values never
//! cross as decimal text: they are formatted as 16 lowercase hex digits
//! of their IEEE-754 bits (`f64::to_bits`), so a marginal probability
//! or a soft cost survives the round trip *bit-identically* — the
//! property the end-to-end suite pins against in-process
//! [`tuffy::Snapshot::query`] answers. String fields (atom names, delta
//! text, error messages) are backslash-escaped (`\\`, `\n`, `\r`) and
//! placed last on their line. Requests are `query` (with `kind`,
//! `pred`, `given`, `search`, `mcsat` detail lines), `apply` (delta
//! source text), and `ping`; responses are `welcome`, `answer.map`,
//! `answer.marginal`, `answer.topk`, `applied`, `pong`, `busy`, and
//! `error`. [`wire`] documents the exact grammar; the golden tests in
//! `tests/protocol_roundtrip.rs` pin the bytes.
//!
//! # Backpressure
//!
//! Admission control is typed, not implicit: when a limit is hit the
//! server answers a `busy` frame naming the saturated class —
//! [`wire::BusyClass::Connections`] (connection cap, closes),
//! [`wire::BusyClass::Queue`] (total in-flight cap),
//! [`wire::BusyClass::Heavy`] (marginal / top-k / `given` / apply cap),
//! or [`wire::BusyClass::Shutdown`] (the server is draining, closes) —
//! plus the observed in-flight count and the limit. Queue and heavy
//! rejections keep the connection open; the client retries. Because the
//! heavy cap is strictly below the total cap, saturating the server
//! with marginals still leaves admission slots for cheap MAP lookups.
//! Per-request `search`/`mcsat` overrides are clamped to server caps.
//!
//! [`client::RetryPolicy`] packages the retry side of this contract: a
//! typed budget (max attempts, base/cap delay, optional deadline) with
//! exponential backoff whose jitter derives from the attempt count —
//! deterministic, no wall-clock sampling — consumed by
//! [`Client::query_with_retry`].
//!
//! # Generations: committed vs. `given` deltas
//!
//! A server serves one lineage, like a database:
//!
//! * an **apply** commits a delta to the lineage, forking a
//!   copy-on-write generation that becomes the head every connection
//!   reads; the `applied` frame reports the new generation. Under
//!   [`Server::start_durable`] over a store the apply is appended to the
//!   store's delta write-ahead log *before* it is acknowledged — a crash
//!   replays to the acked generation on restart;
//! * a **`given`** delta conditions one query on an ephemeral fork that
//!   is discarded after the answer — the head does not advance;
//! * plain queries are answered statelessly off the head's snapshot, so
//!   answers are bit-identical to [`tuffy::Snapshot::query`] on that
//!   generation regardless of connection history or interleaving.
//!
//! # Faults
//!
//! Every protocol failure is contained to its connection and typed
//! where the peer can still hear it: garbage preambles (`bad-magic`),
//! unparseable or zero-length frames (`malformed`, connection kept —
//! the length prefix preserves sync), oversized prefixes (`too-large`,
//! close), answers larger than the same frame cap (`too-large`,
//! connection kept — the answer is never written), slow-loris
//! mid-frame stalls (`timeout` after the frame deadline, close), and
//! torn frames or mid-request disconnects (clean drop).
//! `tests/net_serve.rs` injects each of these against a live
//! server and asserts no panic, no wedged worker, and no
//! cross-connection corruption.
//!
//! Beyond the protocol layer, request execution runs under
//! `catch_unwind`: a panicking handler answers a typed
//! [`wire::ErrorCode::Internal`] error, releases its admission slots,
//! and leaves every connection serving. At shutdown the server *drains*
//! — in-flight requests finish and deliver their answers, subsequent
//! reads answer `busy shutdown`, the WAL is fsynced last — under
//! [`ServeConfig::drain_deadline`]; `tests/chaos_recovery.rs` pins
//! panic isolation, drain accounting, and crash/recovery equivalence
//! with injected storage faults.

pub mod client;
pub mod server;
pub mod wire;

pub use client::{Client, ClientError, RetryPolicy, WireAnswer};
pub use server::{explain_stats, ServeConfig, Server, ServerStats};
pub use wire::{Busy, BusyClass, ErrorCode, Request, Response, WireQuery, WireQueryKind};
