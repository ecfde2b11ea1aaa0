//! Mutation test of the program and delta parsers.
//!
//! Rendered programs of every testbed family, and delta text over their
//! evidence (every edit prefix: assert, `!`, `+`, `-`, `~`), are mutated
//! a fixed number of times by the seeded mutator of `common`. Every input
//! must parse to `Ok` or a typed `Err` pinned to a line of the input,
//! never a panic. `parse_delta` reads the text of every `apply` and
//! `given` frame a server receives, so a panic there is a request a
//! client can crash. Every accepted program must round-trip through
//! `render_program` → `parse_program` to the same rendering.
//!
//! The outcomes are also pinned: the number of accepted inputs and a
//! digest of every error's line and message. A parser change that moves
//! what is accepted, or any message it reports, moves them. Re-pin only
//! when the generators, the beds or the mutations below change.

mod common;

use common::{fnv, mutate, Lcg};
use std::panic::{catch_unwind, AssertUnwindSafe};
use tuffy_datagen::Dataset;
use tuffy_mln::parser::{parse_delta, parse_program};
use tuffy_mln::printer::{render_evidence, render_program};
use tuffy_mln::MlnError;

/// Mutated inputs per bed.
const CASES: usize = 400;

/// Bytes a replacement draws from: the program grammar's punctuation
/// and operators, the delta prefixes, comment and line-end characters,
/// and a few letters and digits.
const ALPHABET: &[u8] = b"()!,*.|=<>\"'#/ \t\r\n~-+:v_aZ09e";

/// The testbeds: one of every generator family.
fn beds() -> [Dataset; 4] {
    [
        tuffy_datagen::lp(3, 3, 42),
        tuffy_datagen::ie(30, 20, 42),
        tuffy_datagen::rc(8, 3, 42),
        tuffy_datagen::er(6, 30, 42),
    ]
}

/// Outcomes of one bed's mutations: accepted inputs and error digest.
struct Outcomes {
    accepted: usize,
    digest: u64,
}

impl Outcomes {
    fn new() -> Outcomes {
        Outcomes {
            accepted: 0,
            digest: 0xcbf2_9ce4_8422_2325,
        }
    }

    /// Records `err`, asserting it names a line of `input`.
    fn error(&mut self, what: &str, input: &str, err: &MlnError) {
        let lines = input.lines().count();
        assert!(
            (1..=lines).contains(&err.line),
            "{what}: error `{err}` names line {} of {lines} in {input:?}",
            err.line
        );
        self.digest = fnv(self.digest, &(err.line as u64).to_le_bytes());
        self.digest = fnv(self.digest, err.message.as_bytes());
    }
}

fn mutated(text: &str, rng: &mut Lcg) -> String {
    String::from_utf8_lossy(&mutate(text.as_bytes(), ALPHABET, rng)).into_owned()
}

/// Runs [`CASES`] mutations of `bed`'s rendered program.
fn fuzz_program(bed: &Dataset, seed: u64) -> Outcomes {
    let text = render_program(&bed.program);
    let mut rng = Lcg(seed);
    let mut out = Outcomes::new();
    for case in 0..CASES {
        let input = mutated(&text, &mut rng);
        let what = format!("{} program case {case}", bed.name);
        let parsed = catch_unwind(AssertUnwindSafe(|| parse_program(&input)))
            .unwrap_or_else(|_| panic!("{what}: parser panicked on {input:?}"));
        match parsed {
            Ok(program) => {
                out.accepted += 1;
                let rendered = render_program(&program);
                let back = parse_program(&rendered)
                    .unwrap_or_else(|e| panic!("{what}: rendered program fails: {e}"));
                assert_eq!(render_program(&back), rendered, "{what}: round trip");
            }
            Err(e) => out.error(&what, &input, &e),
        }
    }
    out
}

/// Delta text over `bed`'s evidence, cycling the edit prefixes.
fn delta_text(bed: &Dataset) -> String {
    const PREFIXES: [&str; 5] = ["", "!", "+", "-", "~"];
    render_evidence(&bed.program, &bed.evidence)
        .lines()
        .take(40)
        .enumerate()
        .map(|(i, line)| {
            let atom = line.trim_start_matches('!');
            format!("{}{atom}\n", PREFIXES[i % PREFIXES.len()])
        })
        .collect()
}

/// Runs [`CASES`] mutations of delta text over `bed`'s evidence. An
/// accepted delta parses again, against a fresh copy of the program, to
/// the same edits and the same interned constants.
fn fuzz_delta(bed: &Dataset, seed: u64) -> Outcomes {
    let text = delta_text(bed);
    parse_delta(&mut bed.program.clone(), &text).expect("unmutated delta parses");
    let mut rng = Lcg(seed);
    let mut out = Outcomes::new();
    for case in 0..CASES {
        let input = mutated(&text, &mut rng);
        let what = format!("{} delta case {case}", bed.name);
        let mut program = bed.program.clone();
        let parsed = catch_unwind(AssertUnwindSafe(|| parse_delta(&mut program, &input)))
            .unwrap_or_else(|_| panic!("{what}: parser panicked on {input:?}"));
        match parsed {
            Ok(delta) => {
                out.accepted += 1;
                let mut again = bed.program.clone();
                let back = parse_delta(&mut again, &input).expect("same input parses");
                assert_eq!(back, delta, "{what}: reparse");
                assert_eq!(again.symbols.len(), program.symbols.len());
            }
            Err(e) => out.error(&what, &input, &e),
        }
    }
    out
}

#[test]
fn mutated_programs_parse_or_error_typed() {
    let got: Vec<(usize, u64)> = beds()
        .iter()
        .zip([11u64, 12, 13, 14])
        .map(|(bed, seed)| {
            let o = fuzz_program(bed, seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            (o.accepted, o.digest)
        })
        .collect();
    assert_eq!(
        got,
        [
            (61, 17146269419526332087),
            (85, 8077443686594733615),
            (70, 13766185367687019113),
            (92, 17773584804044888742),
        ],
        "program outcomes moved"
    );
}

#[test]
fn mutated_deltas_parse_or_error_typed() {
    let got: Vec<(usize, u64)> = beds()
        .iter()
        .zip([21u64, 22, 23, 24])
        .map(|(bed, seed)| {
            let o = fuzz_delta(bed, seed.wrapping_mul(0x2545_F491_4F6C_DD1D));
            (o.accepted, o.digest)
        })
        .collect();
    assert_eq!(
        got,
        [
            (124, 12758734991918152672),
            (125, 6269336317436936700),
            (140, 601579990019279662),
            (120, 9990480666584126174),
        ],
        "delta outcomes moved"
    );
}
