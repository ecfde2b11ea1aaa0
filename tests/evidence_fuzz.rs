//! Mutation test of the evidence parser.
//!
//! Rendered `ie` and `er` evidence text is mutated a fixed number of
//! times by the seeded mutator of `common` (byte replacements,
//! truncations, duplicated and swapped lines; no wall clock, no RNG
//! crate, so reruns see identical inputs). Every input must parse to `Ok` or a typed `Err` pinned to a
//! line of the input, never a panic. Every `Ok` must round-trip through
//! `render_evidence` → `parse_evidence` to the same atoms in the same
//! order.
//!
//! The outcomes are also pinned: the number of accepted inputs and a
//! digest of every error's line and message. An evidence-store rewrite
//! that changes what the parser accepts, or any message it reports, moves
//! them. Re-pin only when the generators, the beds or the mutations below
//! change.

mod common;

use common::{fnv, mutate, Lcg};
use std::panic::{catch_unwind, AssertUnwindSafe};
use tuffy_datagen::Dataset;
use tuffy_mln::evidence::EvidenceSet;
use tuffy_mln::parser::{parse_evidence, parse_program};
use tuffy_mln::printer::{render_evidence, render_program};
use tuffy_mln::program::MlnProgram;

/// Mutated inputs per bed.
const CASES: usize = 400;

/// Bytes a replacement draws from: the evidence grammar's punctuation,
/// comment and line-end characters, and a few letters and digits.
const ALPHABET: &[u8] = b"()!,\"#/ \t\r\n~-+@.'_aZ09";

/// `(predicate, args, polarity)` of every assertion, in order.
fn atoms(set: &EvidenceSet) -> Vec<(u32, Vec<u32>, bool)> {
    set.iter()
        .map(|e| {
            let args = e.atom.args.iter().map(|s| s.0).collect();
            (e.atom.predicate.0, args, e.positive)
        })
        .collect()
}

/// Runs [`CASES`] mutations of `bed`'s rendered evidence; returns the
/// number of accepted inputs and the digest of every error.
fn fuzz(bed: &Dataset, seed: u64) -> (usize, u64) {
    let program_src = render_program(&bed.program);
    let base: MlnProgram = parse_program(&program_src).expect("rendered program parses");
    let text = render_evidence(&bed.program, &bed.evidence);
    let mut rng = Lcg(seed);
    let (mut accepted, mut digest) = (0, 0xcbf2_9ce4_8422_2325u64);
    for case in 0..CASES {
        let input =
            String::from_utf8_lossy(&mutate(text.as_bytes(), ALPHABET, &mut rng)).into_owned();
        let mut program = base.clone();
        let parsed = catch_unwind(AssertUnwindSafe(|| parse_evidence(&mut program, &input)))
            .unwrap_or_else(|_| panic!("{} case {case}: parser panicked on {input:?}", bed.name));
        match parsed {
            Ok(set) => {
                accepted += 1;
                let rendered = render_evidence(&program, &set);
                let mut again = program.clone();
                let back = parse_evidence(&mut again, &rendered).unwrap_or_else(|e| {
                    panic!("{} case {case}: rendered text fails: {e}", bed.name)
                });
                assert_eq!(
                    atoms(&back),
                    atoms(&set),
                    "{} case {case}: round trip",
                    bed.name
                );
                assert_eq!(again.symbols.len(), program.symbols.len());
            }
            Err(e) => {
                let lines = input.lines().count();
                assert!(
                    (1..=lines).contains(&e.line),
                    "{} case {case}: error `{e}` names line {} of {lines}",
                    bed.name,
                    e.line
                );
                digest = fnv(digest, &(e.line as u64).to_le_bytes());
                digest = fnv(digest, e.message.as_bytes());
            }
        }
    }
    (accepted, digest)
}

#[test]
fn mutated_ie_evidence_parses_or_errors_typed() {
    let (accepted, digest) = fuzz(&tuffy_datagen::ie(30, 20, 42), 0x2545_F491_4F6C_DD1D);
    assert_eq!(
        (accepted, digest),
        (135, 6583998847835275851),
        "ie outcomes moved"
    );
}

#[test]
fn mutated_er_evidence_parses_or_errors_typed() {
    let (accepted, digest) = fuzz(&tuffy_datagen::er(6, 30, 42), 0x9E37_79B9_7F4A_7C15);
    assert_eq!(
        (accepted, digest),
        (123, 8599800915062195806),
        "er outcomes moved"
    );
}
