//! Mutation test of the wire decoders.
//!
//! The golden request and response payloads of `protocol_roundtrip.rs`
//! (plus one MAP answer with escaped atoms) are mutated a fixed number
//! of times by a seeded LCG: byte replacements, truncations, duplicated
//! and swapped lines, and broken escapes (no wall clock, no RNG crate, so
//! reruns see identical inputs). Every input goes through
//! `decode_request` and `decode_response`, and, framed, through
//! `read_frame` over a `Cursor`. Each must give `Ok` or a typed error,
//! never a panic, and every decoded value must re-encode to bytes that
//! decode to an equal value.
//!
//! The outcomes are pinned: the number of accepted inputs and a digest of
//! every error message. A codec rewrite that changes what the decoders
//! accept, or any message they report, moves them. Re-pin only when the
//! goldens or the mutations below change.

use std::io::Cursor;
use std::panic::{catch_unwind, AssertUnwindSafe};
use tuffy_serve::wire::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
};

/// Mutated inputs per golden payload.
const CASES: usize = 200;

/// The frame cap `read_frame` runs under: below some mutated prefixes.
const MAX_FRAME: u32 = 4096;

/// Bytes a replacement draws from: the grammar's separators, escape and
/// hex characters, a few letters, and bytes that are not UTF-8 alone.
const ALPHABET: &[u8] = b" \n\r\\0179afxz.-+n_(),\xff\xc3";

const REQUESTS: &[&[u8]] = &[
    b"ping 7\n",
    b"query\nkind map\n",
    b"query\nkind topk 5 cat\n",
    b"query\nkind marginal\npred cat\npred wrote\ngiven +p(A)\\n!q(B)\n\
      search 100000 1 3fe0000000000000 42\n\
      mcsat 200 20 2000 3fe0000000000000 3fd0000000000000 42\n",
    b"apply\ndelta a(b)\\n!c(d)\n",
];

const RESPONSES: &[&[u8]] = &[
    b"welcome 1 0\n",
    b"answer.map 3 2 3ff8000000000000 77\natom wrote(P1, Pap)\natom cat(Pap, DB)\n",
    b"answer.map 0 0 0000000000000000 10000\natom a(\\\\x, B)\natom l(\\r\\n)\natom q(\xc3\xa9)\n",
    b"answer.marginal 0 10\nentry 3fd0000000000000 cat(A, B)\n",
    b"answer.topk 1 5\nentry 3fe0000000000000 p(X)\n",
    b"applied 4 1 3 10 7\n",
    b"pong 99\n",
    b"busy conn 256 256\n",
    b"busy queue 8 8\n",
    b"busy heavy 4 4\n",
    b"busy shutdown 2 8\n",
    b"error too-large frame of 9000000 bytes exceeds the cap\n",
    b"error malformed bad\\nline\n",
];

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// The byte ranges of the lines of `text`, each with its `\n`.
fn lines(text: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut start = 0;
    for (i, &b) in text.iter().enumerate() {
        if b == b'\n' {
            out.push((start, i + 1));
            start = i + 1;
        }
    }
    if start < text.len() {
        out.push((start, text.len()));
    }
    out
}

/// Applies one to four mutations to `text`.
fn mutate(text: &[u8], rng: &mut Lcg) -> Vec<u8> {
    let mut t = text.to_vec();
    for _ in 0..1 + rng.below(4) {
        match rng.below(5) {
            0 if !t.is_empty() => {
                let at = rng.below(t.len());
                t[at] = ALPHABET[rng.below(ALPHABET.len())];
            }
            1 => t.truncate(rng.below(t.len() + 1)),
            2 => {
                let ls = lines(&t);
                if let (Some(&(a, b)), Some(&(_, at))) =
                    (ls.get(rng.below(ls.len())), ls.get(rng.below(ls.len())))
                {
                    let line = t[a..b].to_vec();
                    t.splice(at..at, line);
                }
            }
            3 => {
                let ls = lines(&t);
                let (i, j) = (rng.below(ls.len()), rng.below(ls.len()));
                if i != j && !ls.is_empty() {
                    let (first, second) = (ls[i.min(j)], ls[i.max(j)]);
                    let mut out = t[..first.0].to_vec();
                    out.extend_from_slice(&t[second.0..second.1]);
                    out.extend_from_slice(&t[first.1..second.0]);
                    out.extend_from_slice(&t[first.0..first.1]);
                    out.extend_from_slice(&t[second.1..]);
                    t = out;
                }
            }
            // A broken escape: a backslash before an arbitrary byte, or
            // ending a line.
            _ => {
                let at = rng.below(t.len() + 1);
                let tail = ALPHABET[rng.below(ALPHABET.len())];
                t.splice(at..at, [b'\\', tail]);
            }
        }
    }
    t
}

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    }
    h
}

/// Accepted inputs and the digest of every error message.
#[derive(Debug, PartialEq)]
struct Outcomes {
    requests: usize,
    responses: usize,
    frames: usize,
    digest: u64,
}

impl Outcomes {
    fn error(&mut self, message: impl std::fmt::Display) {
        self.digest = fnv(self.digest, message.to_string().as_bytes());
        self.digest = fnv(self.digest, b"\n");
    }

    /// Decodes `payload` both ways, checking every `Ok` round trip.
    fn decode(&mut self, payload: &[u8], what: &str) {
        let req = catch_unwind(AssertUnwindSafe(|| decode_request(payload)))
            .unwrap_or_else(|_| panic!("{what}: decode_request panicked on {payload:?}"));
        match req {
            Ok(req) => {
                self.requests += 1;
                let bytes = encode_request(&req);
                let back = decode_request(&bytes)
                    .unwrap_or_else(|e| panic!("{what}: re-encoded request fails: {e}"));
                assert_eq!(encode_request(&back), bytes, "{what}: request bytes");
                // Struct equality cannot see NaN overrides; their bytes
                // were compared above.
                if !format!("{req:?}").contains("NaN") {
                    assert_eq!(back, req, "{what}: request round trip");
                }
            }
            Err(e) => self.error(e),
        }
        let resp = catch_unwind(AssertUnwindSafe(|| decode_response(payload)))
            .unwrap_or_else(|_| panic!("{what}: decode_response panicked on {payload:?}"));
        match resp {
            Ok(resp) => {
                self.responses += 1;
                let bytes = encode_response(&resp);
                let back = decode_response(&bytes)
                    .unwrap_or_else(|e| panic!("{what}: re-encoded response fails: {e}"));
                assert_eq!(back, resp, "{what}: response round trip");
            }
            Err(e) => self.error(e),
        }
    }
}

fn fuzz(seed: u64) -> Outcomes {
    let mut rng = Lcg(seed);
    let mut out = Outcomes {
        requests: 0,
        responses: 0,
        frames: 0,
        digest: 0xcbf2_9ce4_8422_2325,
    };
    for (g, golden) in REQUESTS.iter().chain(RESPONSES).enumerate() {
        for case in 0..CASES {
            let what = format!("golden {g} case {case}");
            let payload = mutate(golden, &mut rng);
            out.decode(&payload, &what);
            // The same kind of damage to a whole frame: prefix bytes too.
            let mut frame = Vec::new();
            write_frame(&mut frame, golden).unwrap();
            let frame = mutate(&frame, &mut rng);
            let read = catch_unwind(AssertUnwindSafe(|| {
                read_frame(&mut Cursor::new(&frame), MAX_FRAME)
            }))
            .unwrap_or_else(|_| panic!("{what}: read_frame panicked on {frame:?}"));
            match read {
                Ok(payload) => {
                    out.frames += 1;
                    assert_eq!(frame[4..4 + payload.len()], payload[..], "{what}: frame");
                    out.decode(&payload, &what);
                }
                Err(e) => out.error(e),
            }
        }
    }
    out
}

#[test]
fn mutated_wire_payloads_decode_or_error_typed() {
    assert_eq!(
        fuzz(0x2545_F491_4F6C_DD1D),
        Outcomes {
            requests: 262,
            responses: 923,
            frames: 1931,
            digest: 5054524223658984764,
        },
        "wire decoder outcomes moved"
    );
}
