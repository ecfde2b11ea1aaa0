//! Rendering programs back to concrete syntax.
//!
//! The printer emits exactly the dialect [`crate::parser`] accepts, so
//! `parse(print(p))` reproduces `p` up to the canonicalizations the
//! parser itself performs (head-conjunction distribution, bi-implication
//! expansion). Used for program inspection, dataset export, and the
//! round-trip property tests.

use crate::ast::{Literal, Rule, Term};
use crate::program::MlnProgram;
use crate::weight::Weight;
use std::fmt::Write;

/// Appends a constant to `out`, quoted when it would not re-parse as a
/// constant identifier.
fn push_constant(out: &mut String, name: &str) {
    let plain_const = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_uppercase() || c.is_ascii_digit())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.');
    if plain_const {
        out.push_str(name);
    } else {
        out.push('"');
        out.push_str(name);
        out.push('"');
    }
}

/// Renders a constant (see [`push_constant`]).
fn render_constant(name: &str) -> String {
    let mut out = String::new();
    push_constant(&mut out, name);
    out
}

/// Renders a term in rule position.
fn render_term(program: &MlnProgram, t: Term) -> String {
    match t {
        Term::Var(v) => program.symbols.resolve(v.0).to_string(),
        Term::Const(c) => render_constant(program.symbols.resolve(c)),
    }
}

/// Renders a single literal.
pub fn render_literal(program: &MlnProgram, lit: &Literal) -> String {
    match lit {
        Literal::Pred { atom, negated } => {
            let args: Vec<String> = atom.args.iter().map(|&t| render_term(program, t)).collect();
            format!(
                "{}{}({})",
                if *negated { "!" } else { "" },
                program.predicate_name(atom.predicate),
                args.join(", ")
            )
        }
        Literal::Eq {
            left,
            right,
            negated,
        } => format!(
            "{} {} {}",
            render_term(program, *left),
            if *negated { "!=" } else { "=" },
            render_term(program, *right)
        ),
    }
}

/// Renders one rule line.
pub fn render_rule(program: &MlnProgram, rule: &Rule) -> String {
    let mut out = String::new();
    let hard = rule.weight == Weight::Hard;
    if !hard {
        let _ = write!(out, "{} ", rule.weight);
    }
    let body: Vec<String> = rule
        .formula
        .body
        .iter()
        .map(|l| render_literal(program, l))
        .collect();
    if !body.is_empty() {
        out.push_str(&body.join(", "));
        out.push_str(" => ");
    }
    if !rule.formula.exists.is_empty() {
        out.push_str("EXIST ");
        let vars: Vec<&str> = rule
            .formula
            .exists
            .iter()
            .map(|v| program.symbols.resolve(v.0))
            .collect();
        out.push_str(&vars.join(", "));
        out.push(' ');
    }
    let head: Vec<String> = rule
        .formula
        .head
        .iter()
        .map(|l| render_literal(program, l))
        .collect();
    out.push_str(&head.join(" v "));
    if hard {
        out.push('.');
    }
    out
}

/// Renders the full program (declarations + rules) in parseable form.
pub fn render_program(program: &MlnProgram) -> String {
    let mut out = String::new();
    for decl in &program.predicates {
        if decl.closed_world {
            out.push('*');
        }
        let types: Vec<&str> = decl
            .arg_types
            .iter()
            .map(|t| program.symbols.resolve(program.types[t.index()]))
            .collect();
        let _ = writeln!(
            out,
            "{}({})",
            program.symbols.resolve(decl.name),
            types.join(", ")
        );
    }
    for rule in &program.rules {
        out.push_str(&render_rule(program, rule));
        out.push('\n');
    }
    out
}

/// Renders an evidence set in parseable form, one line per assertion in
/// insertion order.
pub fn render_evidence(program: &MlnProgram, evidence: &crate::evidence::EvidenceSet) -> String {
    let mut out = String::new();
    for ev in evidence.iter() {
        if !ev.positive {
            out.push('!');
        }
        out.push_str(program.predicate_name(ev.atom.predicate));
        out.push('(');
        for (i, &s) in ev.atom.args.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            push_constant(&mut out, program.symbols.resolve(s));
        }
        out.push_str(")\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_evidence, parse_program};

    const FIGURE1: &str = r#"
        *paper(paperid, url)
        *wrote(author, paperid)
        *refers(paperid, paperid)
        cat(paperid, category)
        5 cat(p, c1), cat(p, c2) => c1 = c2
        1 wrote(x, p1), wrote(x, p2), cat(p1, c) => cat(p2, c)
        2 cat(p1, c), refers(p1, p2) => cat(p2, c)
        paper(p, u) => EXIST x wrote(x, p).
        -1 cat(p, "Networking")
    "#;

    #[test]
    fn print_parse_roundtrip_preserves_structure() {
        let mut p = parse_program(FIGURE1).unwrap();
        let ev = parse_evidence(&mut p, "wrote(Joe, P1)\n!cat(P1, \"Networking\")\n").unwrap();
        let printed = render_program(&p);
        let evidence = render_evidence(&p, &ev);
        let mut p2 = parse_program(&printed).unwrap();
        let ev2 = parse_evidence(&mut p2, &evidence).unwrap();
        assert_eq!(p.predicates.len(), p2.predicates.len());
        assert_eq!(p.rules.len(), p2.rules.len());
        assert_eq!(ev.len(), ev2.len());
        for (a, b) in p.rules.iter().zip(p2.rules.iter()) {
            assert_eq!(a.weight, b.weight);
            assert_eq!(a.formula.body.len(), b.formula.body.len());
            assert_eq!(a.formula.head.len(), b.formula.head.len());
            assert_eq!(a.formula.exists.len(), b.formula.exists.len());
        }
    }

    #[test]
    fn quoted_constants_requoted() {
        let p = parse_program("*e(t)\n1 e(\"New York\")\n").unwrap();
        let printed = render_program(&p);
        assert!(printed.contains("\"New York\""), "{printed}");
        assert!(parse_program(&printed).is_ok());
    }

    #[test]
    fn hard_rules_get_periods() {
        let p = parse_program("q(t)\nq(A).\n").unwrap();
        let printed = render_program(&p);
        assert!(printed.trim_end().ends_with("q(A)."), "{printed}");
    }
}
