//! Renders a generated testbed as the text files the `tuffy` CLI reads —
//! what a parent-vs-change answer diff needs (see
//! `.claude/skills/verify/SKILL.md`).
//!
//! Run with `cargo run --release --example render_testbed -- lp|ie|rc|er A B SEED DIR`,
//! where `A B` are the generator's two size arguments (`er 14 80`,
//! `ie 2500 700`, ...). Writes `DIR/prog.mln` and `DIR/evidence.db`.

use std::path::Path;
use tuffy_mln::printer::{render_evidence, render_program};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [kind, a, b, seed, dir] = args.as_slice() else {
        eprintln!("usage: render_testbed lp|ie|rc|er A B SEED DIR");
        std::process::exit(2);
    };
    let size = |s: &String| s.parse::<usize>().expect("sizes are integers");
    let (a, b) = (size(a), size(b));
    let seed: u64 = seed.parse().expect("seed is an integer");
    let dataset = match kind.as_str() {
        "lp" => tuffy_datagen::lp(a, b, seed),
        "ie" => tuffy_datagen::ie(a, b, seed),
        "rc" => tuffy_datagen::rc(a, b, seed),
        "er" => tuffy_datagen::er(a, b, seed),
        other => panic!("unknown testbed `{other}`"),
    };
    let dir = Path::new(dir);
    std::fs::create_dir_all(dir).expect("create output directory");
    std::fs::write(dir.join("prog.mln"), render_program(&dataset.program)).expect("write program");
    std::fs::write(
        dir.join("evidence.db"),
        render_evidence(&dataset.program, &dataset.evidence),
    )
    .expect("write evidence");
}
