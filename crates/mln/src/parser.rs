//! Parser for the Alchemy-compatible concrete syntax of Tuffy programs.
//!
//! The input format mirrors the one shown in Figure 1 of the paper and the
//! Alchemy input language:
//!
//! ```text
//! // Predicate declarations. A `*` prefix marks a closed-world (evidence)
//! // predicate; undecorated predicates are open-world query predicates.
//! *wrote(person, paper)
//! *refers(paper, paper)
//! cat(paper, category)
//!
//! // Rules: `<weight> <formula>` for soft rules (weights may be negative),
//! // `<formula>.` for hard rules (weight +infinity).
//! 5    cat(p, c1), cat(p, c2) => c1 = c2
//! 1    wrote(x, p1), wrote(x, p2), cat(p1, c) => cat(p2, c)
//! 2    cat(p1, c), refers(p1, p2) => cat(p2, c)
//! paper(p, u) => EXIST x wrote(x, p).
//! -1   cat(p, "Networking")
//! ```
//!
//! Identifier convention (as in Alchemy): lowercase identifiers are
//! variables, capitalized identifiers / numbers / quoted strings are
//! constants. Comments start with `//` or `#`. Disjunction is written `v`
//! or `|`; conjunction is `,`; implication `=>`; bi-implication `<=>`;
//! negation `!`; existential quantification `EXIST x, y <literals>`.
//!
//! Evidence files contain one ground atom per line, optionally negated:
//!
//! ```text
//! wrote(Joe, P1)
//! !cat(P3, "Networking")
//! ```

use crate::ast::{Formula, Literal, Rule, Term, Var};
use crate::error::MlnError;
use crate::evidence::{EvidenceDelta, EvidenceSet};
use crate::ground::{AtomRef, GroundAtom};
use crate::program::MlnProgram;
use crate::schema::PredicateId;
use crate::symbols::Symbol;
use crate::weight::Weight;
use std::sync::Arc;

/// Tokens of the concrete syntax, borrowing their text from the source.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Tok<'a> {
    Ident(&'a str),
    Number(&'a str),
    Str(&'a str),
    LParen,
    RParen,
    Comma,
    Bang,
    Star,
    Period,
    Implies,
    Iff,
    Or,
    Eq,
    Neq,
}

/// The non-blank lines of `src`, trimmed, with 1-based line numbers.
/// Comments are left to [`tokenize`].
fn logical_lines(src: &str) -> impl Iterator<Item = (usize, &str)> {
    src.lines()
        .enumerate()
        .map(|(i, raw)| (i + 1, raw.trim()))
        .filter(|(_, line)| !line.is_empty())
}

/// Tokenizes one logical line into `toks` (cleared first). A `//` or `#`
/// where a token would start ends the line as a comment; a quote opens a
/// string literal only there too, so a primed name such as `x'` followed
/// by a comment reads as the name, then the comment.
fn tokenize<'a>(line: &'a str, lineno: usize, toks: &mut Vec<Tok<'a>>) -> Result<(), MlnError> {
    toks.clear();
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b' ' | b'\t' => i += 1,
            b'#' => break,
            b'/' if bytes.get(i + 1) == Some(&b'/') => break,
            b'(' => {
                toks.push(Tok::LParen);
                i += 1;
            }
            b')' => {
                toks.push(Tok::RParen);
                i += 1;
            }
            b',' => {
                toks.push(Tok::Comma);
                i += 1;
            }
            b'*' => {
                toks.push(Tok::Star);
                i += 1;
            }
            b'.' => {
                // A period is a hard-rule terminator unless part of a number
                // (handled in the number branch below).
                toks.push(Tok::Period);
                i += 1;
            }
            b'|' => {
                toks.push(Tok::Or);
                i += 1;
            }
            b'!' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    toks.push(Tok::Neq);
                    i += 2;
                } else {
                    toks.push(Tok::Bang);
                    i += 1;
                }
            }
            b'=' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'>' {
                    toks.push(Tok::Implies);
                    i += 2;
                } else {
                    toks.push(Tok::Eq);
                    i += 1;
                }
            }
            b'<' => {
                if line[i..].starts_with("<=>") {
                    toks.push(Tok::Iff);
                    i += 3;
                } else {
                    return Err(MlnError::at(lineno, "unexpected `<`"));
                }
            }
            b'"' | b'\'' => {
                let quote = b;
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != quote {
                    j += 1;
                }
                if j >= bytes.len() {
                    return Err(MlnError::at(lineno, "unterminated string literal"));
                }
                toks.push(Tok::Str(&line[start..j]));
                i = j + 1;
            }
            b'-' | b'+' | b'0'..=b'9' => {
                let start = i;
                i += 1;
                while i < bytes.len()
                    && (bytes[i].is_ascii_digit()
                        || bytes[i] == b'.'
                        || bytes[i] == b'e'
                        || bytes[i] == b'E'
                        || ((bytes[i] == b'-' || bytes[i] == b'+')
                            && (bytes[i - 1] == b'e' || bytes[i - 1] == b'E')))
                {
                    i += 1;
                }
                // `-inf` / `+inf` weights.
                if i == start + 1 && (b == b'-' || b == b'+') && line[i..].starts_with("inf") {
                    i += 3;
                }
                // A trailing period stays in the number: `5.` is the
                // float 5.0 (valid f64 parse), not weight 5 + hard marker.
                toks.push(Tok::Number(&line[start..i]));
            }
            _ if b.is_ascii_alphabetic() || b == b'_' => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b'\'')
                {
                    i += 1;
                }
                let word = &line[start..i];
                match word {
                    // NOTE: `v` (disjunction) is NOT special-cased here —
                    // it is a valid variable name inside an atom. The
                    // literal-list parser recognizes `Ident("v")` in
                    // separator position.
                    "inf" | "infinity" => toks.push(Tok::Number("inf")),
                    _ => toks.push(Tok::Ident(word)),
                }
            }
            _ => {
                return Err(MlnError::at(
                    lineno,
                    format!("unexpected character `{}`", b as char),
                ));
            }
        }
    }
    Ok(())
}

/// A cursor over a token list.
struct Cursor<'t, 'a> {
    toks: &'t [Tok<'a>],
    pos: usize,
    line: usize,
}

impl<'t, 'a> Cursor<'t, 'a> {
    fn peek(&self) -> Option<&'t Tok<'a>> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<&'t Tok<'a>> {
        let t = self.toks.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok, what: &str) -> Result<(), MlnError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(MlnError::at(
                self.line,
                format!("expected {what}, found {:?}", self.peek()),
            ))
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }
}

/// Is this identifier a variable (lowercase first letter) under the Alchemy
/// convention?
fn is_variable_name(name: &str) -> bool {
    name.chars().next().is_some_and(|c| c.is_ascii_lowercase())
}

/// Parses a full program (declarations + rules) from source text.
pub fn parse_program(src: &str) -> Result<MlnProgram, MlnError> {
    let mut program = MlnProgram::new();
    let mut toks = Vec::new();
    for (lineno, line) in logical_lines(src) {
        tokenize(line, lineno, &mut toks)?;
        if toks.is_empty() {
            continue;
        }
        if is_declaration(&toks) {
            parse_declaration(&mut program, &toks, lineno)?;
        } else {
            parse_rule_line(&mut program, &toks, lineno)?;
        }
    }
    program.rebuild_domains();
    program.validate()?;
    Ok(program)
}

/// Parses evidence text against a program's schema into a fresh
/// [`EvidenceSet`].
///
/// The program is only touched to intern constant names into its symbol
/// table; evidence (and the constants' contribution to grounding
/// domains) lives entirely in the returned set.
pub fn parse_evidence(program: &mut MlnProgram, src: &str) -> Result<EvidenceSet, MlnError> {
    let mut set = EvidenceSet::new();
    parse_evidence_into(program, &mut set, src)?;
    Ok(set)
}

/// Parses evidence text into an existing [`EvidenceSet`] (the bulk-load
/// path for evidence spread over multiple files).
pub fn parse_evidence_into(
    program: &mut MlnProgram,
    set: &mut EvidenceSet,
    src: &str,
) -> Result<(), MlnError> {
    let mut toks = Vec::new();
    let mut args = Vec::new();
    for (lineno, line) in logical_lines(src) {
        tokenize(line, lineno, &mut toks)?;
        if toks.is_empty() {
            continue;
        }
        let mut cur = Cursor {
            toks: &toks,
            pos: 0,
            line: lineno,
        };
        let positive = !cur.eat(&Tok::Bang);
        let predicate = parse_ground_atom(program, &mut cur, &mut args)?;
        if !cur.at_end() {
            return Err(MlnError::at(lineno, "trailing tokens after evidence atom"));
        }
        let atom = AtomRef {
            predicate,
            args: &args,
        };
        set.add(program, atom, positive)
            .map_err(|e| MlnError::at(lineno, e.to_string()))?;
    }
    Ok(())
}

/// Parses an evidence *delta*: one edit per line, where a leading `+` or
/// no marker asserts the atom true, `!` asserts it false, `-` retracts
/// any assertion, and `~` flips the current assertion.
///
/// ```text
/// cat(P4, DB)      // assert true
/// !cat(P5, AI)     // assert false
/// -cat(P2, DB)     // retract
/// ~wrote(Joe, P1)  // flip
/// ```
pub fn parse_delta(program: &mut MlnProgram, src: &str) -> Result<EvidenceDelta, MlnError> {
    delta_with(program, src)
}

/// [`parse_delta`] against a shared program, copied only when it must
/// be: a delta whose constants the program already knows resolves
/// against it as is. One that names a new constant, or fails, is parsed
/// again by [`parse_delta`] on the program's copy-on-write clone, so
/// interning order and error text are exactly [`parse_delta`]'s.
pub fn parse_delta_shared(
    program: &mut Arc<MlnProgram>,
    src: &str,
) -> Result<EvidenceDelta, MlnError> {
    delta_with(&mut Known(program), src).or_else(|_| parse_delta(Arc::make_mut(program), src))
}

fn delta_with<C: Constants>(names: &mut C, src: &str) -> Result<EvidenceDelta, MlnError> {
    let mut delta = EvidenceDelta::new();
    let mut toks = Vec::new();
    for (lineno, line) in logical_lines(src) {
        let (op, rest) = match line.as_bytes().first() {
            Some(b'+') => ('+', &line[1..]),
            Some(b'-') => ('-', &line[1..]),
            Some(b'~') => ('~', &line[1..]),
            _ => ('+', line),
        };
        tokenize(rest, lineno, &mut toks)?;
        if toks.is_empty() {
            continue;
        }
        let mut cur = Cursor {
            toks: &toks,
            pos: 0,
            line: lineno,
        };
        let positive = !cur.eat(&Tok::Bang);
        let mut args = Vec::new();
        let pred = parse_ground_atom(names, &mut cur, &mut args)?;
        if !cur.at_end() {
            return Err(MlnError::at(lineno, "trailing tokens after delta atom"));
        }
        let atom = GroundAtom::new(pred, args);
        match (op, positive) {
            ('-', true) => delta.retract(atom),
            ('~', true) => delta.flip(atom),
            ('-', false) | ('~', false) => {
                return Err(MlnError::at(lineno, "`-`/`~` cannot combine with `!`"))
            }
            (_, true) => delta.assert_true(atom),
            (_, false) => delta.assert_false(atom),
        };
    }
    Ok(delta)
}

/// A declaration is `[*] name ( ident (, ident)* )` and nothing else.
fn is_declaration(toks: &[Tok]) -> bool {
    let mut i = 0;
    if toks.get(i) == Some(&Tok::Star) {
        i += 1;
    }
    if !matches!(toks.get(i), Some(Tok::Ident(_))) {
        return false;
    }
    i += 1;
    if toks.get(i) != Some(&Tok::LParen) {
        return false;
    }
    i += 1;
    loop {
        if !matches!(toks.get(i), Some(Tok::Ident(_))) {
            return false;
        }
        i += 1;
        match toks.get(i) {
            Some(Tok::Comma) => i += 1,
            Some(Tok::RParen) => {
                i += 1;
                return i == toks.len();
            }
            _ => return false,
        }
    }
}

fn parse_declaration(
    program: &mut MlnProgram,
    toks: &[Tok],
    lineno: usize,
) -> Result<(), MlnError> {
    let mut cur = Cursor {
        toks,
        pos: 0,
        line: lineno,
    };
    let closed = cur.eat(&Tok::Star);
    let name = match cur.next() {
        Some(&Tok::Ident(n)) => n,
        other => {
            return Err(MlnError::at(
                lineno,
                format!("expected name, got {other:?}"),
            ))
        }
    };
    cur.expect(&Tok::LParen, "`(`")?;
    let mut types = Vec::new();
    loop {
        match cur.next() {
            Some(&Tok::Ident(t)) => types.push(program.intern_type(t)),
            other => {
                return Err(MlnError::at(
                    lineno,
                    format!("expected type, got {other:?}"),
                ))
            }
        }
        if cur.eat(&Tok::RParen) {
            break;
        }
        cur.expect(&Tok::Comma, "`,`")?;
    }
    program
        .declare_predicate(name, types, closed)
        .map_err(|e| MlnError::at(lineno, e.message))?;
    Ok(())
}

/// Parses one rule line, appending one or more canonical-form [`Rule`]s
/// (head conjunctions and bi-implications expand to several rules).
fn parse_rule_line(program: &mut MlnProgram, toks: &[Tok], lineno: usize) -> Result<(), MlnError> {
    let mut cur = Cursor {
        toks,
        pos: 0,
        line: lineno,
    };
    // Weight prefix, if any.
    let explicit_weight = match cur.peek() {
        Some(&Tok::Number(n)) => {
            cur.pos += 1;
            Some(
                Weight::parse(n)
                    .ok_or_else(|| MlnError::at(lineno, format!("bad weight `{n}`")))?,
            )
        }
        _ => None,
    };
    // Hard-rule terminator: a trailing Period token.
    let mut end = toks.len();
    let hard = toks.last() == Some(&Tok::Period);
    if hard {
        end -= 1;
    }
    let weight = match (explicit_weight, hard) {
        (Some(_), true) => {
            return Err(MlnError::at(
                lineno,
                "rule has both a weight and a hard-rule period",
            ));
        }
        (Some(w), false) => w,
        (None, true) => Weight::Hard,
        (None, false) => {
            return Err(MlnError::at(
                lineno,
                "rule needs a weight or a trailing `.` (hard rule)",
            ));
        }
    };

    let body_toks;
    let head_toks;
    let mut iff = false;
    if let Some(split) = toks[..end]
        .iter()
        .position(|t| matches!(t, Tok::Implies | Tok::Iff))
    {
        iff = toks[split] == Tok::Iff;
        body_toks = &toks[cur.pos..split];
        head_toks = &toks[split + 1..end];
    } else {
        body_toks = &toks[0..0];
        head_toks = &toks[cur.pos..end];
    }

    let (body_lits, body_sep) = parse_literal_list(program, body_toks, lineno, &mut Vec::new())?;
    let mut exists = Vec::new();
    let (head_lits, head_sep) = parse_literal_list(program, head_toks, lineno, &mut exists)?;

    if iff {
        if !exists.is_empty() {
            return Err(MlnError::at(lineno, "EXIST not supported with `<=>`"));
        }
        if body_sep == Sep::Conj && head_sep == Sep::Conj {
            return Err(MlnError::at(
                lineno,
                "`<=>` requires disjunctive sides in this dialect",
            ));
        }
        // a <=> b expands to (a => b) and (b => a).
        push_implication(
            program,
            weight,
            body_lits.clone(),
            head_lits.clone(),
            lineno,
        );
        push_implication(program, weight, head_lits, body_lits, lineno);
        return Ok(());
    }

    if body_toks.is_empty() {
        // Pure formula (no implication).
        match head_sep {
            Sep::Disj | Sep::Single => {
                program.rules.push(Rule {
                    weight,
                    formula: Formula {
                        body: vec![],
                        head: head_lits,
                        exists,
                    },
                    line: lineno,
                });
            }
            Sep::Conj => {
                // A weighted conjunction is shorthand for one unit clause
                // per conjunct, each carrying the full weight.
                for lit in head_lits {
                    program.rules.push(Rule {
                        weight,
                        formula: Formula {
                            body: vec![],
                            head: vec![lit],
                            exists: exists.clone(),
                        },
                        line: lineno,
                    });
                }
            }
        }
        return Ok(());
    }

    if body_sep == Sep::Disj {
        // (a v b) => c distributes into (a => c), (b => c).
        for lit in body_lits {
            push_head(
                program,
                weight,
                vec![lit],
                head_lits.clone(),
                head_sep,
                exists.clone(),
                lineno,
            );
        }
    } else {
        push_head(
            program, weight, body_lits, head_lits, head_sep, exists, lineno,
        );
    }
    Ok(())
}

/// Appends `body => head` rules, distributing conjunctive heads.
fn push_head(
    program: &mut MlnProgram,
    weight: Weight,
    body: Vec<Literal>,
    head: Vec<Literal>,
    head_sep: Sep,
    exists: Vec<Var>,
    line: usize,
) {
    match head_sep {
        Sep::Disj | Sep::Single => program.rules.push(Rule {
            weight,
            formula: Formula { body, head, exists },
            line,
        }),
        Sep::Conj => {
            for lit in head {
                program.rules.push(Rule {
                    weight,
                    formula: Formula {
                        body: body.clone(),
                        head: vec![lit],
                        exists: exists.clone(),
                    },
                    line,
                });
            }
        }
    }
}

fn push_implication(
    program: &mut MlnProgram,
    weight: Weight,
    body: Vec<Literal>,
    head: Vec<Literal>,
    line: usize,
) {
    program.rules.push(Rule {
        weight,
        formula: Formula {
            body,
            head,
            exists: vec![],
        },
        line,
    });
}

/// How a literal list was separated.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Sep {
    Single,
    Conj,
    Disj,
}

/// Parses a `,`- or `v`-separated list of literals. An `EXIST x, y …`
/// prefix adds to `exists` and scopes over the remainder of the list.
fn parse_literal_list(
    program: &mut MlnProgram,
    toks: &[Tok],
    lineno: usize,
    exists: &mut Vec<Var>,
) -> Result<(Vec<Literal>, Sep), MlnError> {
    if toks.is_empty() {
        return Ok((vec![], Sep::Single));
    }
    let mut cur = Cursor {
        toks,
        pos: 0,
        line: lineno,
    };
    // EXIST prefix.
    if matches!(cur.peek(), Some(Tok::Ident("EXIST" | "Exist" | "exist"))) {
        cur.pos += 1;
        loop {
            match cur.next() {
                Some(&Tok::Ident(name)) if is_variable_name(name) => {
                    exists.push(Var(program.symbols.intern(name)));
                }
                other => {
                    return Err(MlnError::at(
                        lineno,
                        format!("expected existential variable, got {other:?}"),
                    ));
                }
            }
            if !cur.eat(&Tok::Comma) {
                break;
            }
            // Lookahead: `EXIST x, y p(x,y)` — a comma followed by an ident
            // then `(` starts the literal list rather than another variable.
            if matches!(cur.peek(), Some(Tok::Ident(_)))
                && cur.toks.get(cur.pos + 1) == Some(&Tok::LParen)
            {
                break;
            }
        }
    }

    let mut lits = Vec::new();
    let mut sep = Sep::Single;
    loop {
        lits.push(parse_literal(program, &mut cur)?);
        if cur.at_end() {
            break;
        }
        let this = match cur.next() {
            Some(Tok::Comma) => Sep::Conj,
            Some(Tok::Or) => Sep::Disj,
            Some(Tok::Ident("v")) => Sep::Disj,
            other => {
                return Err(MlnError::at(
                    lineno,
                    format!("expected `,` or `v`, got {other:?}"),
                ));
            }
        };
        if sep == Sep::Single {
            sep = this;
        } else if sep != this {
            return Err(MlnError::at(
                lineno,
                "cannot mix `,` and `v` within one side of a rule",
            ));
        }
    }
    Ok((lits, sep))
}

/// Parses one literal: `[!]pred(t, …)`, or `t = t` / `t != t`.
fn parse_literal(program: &mut MlnProgram, cur: &mut Cursor<'_, '_>) -> Result<Literal, MlnError> {
    let negated = cur.eat(&Tok::Bang);
    // Try a predicate literal: Ident `(`.
    if matches!(cur.peek(), Some(Tok::Ident(_))) && cur.toks.get(cur.pos + 1) == Some(&Tok::LParen)
    {
        let name = match cur.next() {
            Some(&Tok::Ident(n)) => n,
            _ => unreachable!(),
        };
        let pred = program
            .predicate_by_name(name)
            .ok_or_else(|| MlnError::at(cur.line, format!("unknown predicate `{name}`")))?;
        cur.expect(&Tok::LParen, "`(`")?;
        let mut args = Vec::new();
        loop {
            args.push(parse_term(program, cur)?);
            if cur.eat(&Tok::RParen) {
                break;
            }
            cur.expect(&Tok::Comma, "`,`")?;
        }
        return Ok(Literal::pred(pred, args, negated));
    }
    // Otherwise an (in)equality between terms.
    let left = parse_term(program, cur)?;
    let eq_negated = match cur.next() {
        Some(Tok::Eq) => false,
        Some(Tok::Neq) => true,
        other => {
            return Err(MlnError::at(
                cur.line,
                format!("expected literal, got {other:?}"),
            ));
        }
    };
    let right = parse_term(program, cur)?;
    if negated {
        return Err(MlnError::at(
            cur.line,
            "use `!=` instead of negating an equality",
        ));
    }
    Ok(Literal::Eq {
        left,
        right,
        negated: eq_negated,
    })
}

/// Parses a term: variable, constant identifier, number, or quoted string.
fn parse_term(program: &mut MlnProgram, cur: &mut Cursor<'_, '_>) -> Result<Term, MlnError> {
    match cur.next() {
        Some(&Tok::Ident(name)) if is_variable_name(name) => {
            Ok(Term::Var(Var(program.symbols.intern(name))))
        }
        Some(&(Tok::Ident(c) | Tok::Number(c) | Tok::Str(c))) => {
            Ok(Term::Const(program.symbols.intern(c)))
        }
        other => Err(MlnError::at(
            cur.line,
            format!("expected term, got {other:?}"),
        )),
    }
}

/// How a ground atom's constants become symbols: interned into a program
/// being extended, or looked up in a shared one ([`Known`]).
trait Constants {
    fn program(&self) -> &MlnProgram;
    /// The symbol of `name`; `None` when it is new and cannot be interned.
    fn constant(&mut self, name: &str) -> Option<Symbol>;
}

impl Constants for MlnProgram {
    fn program(&self) -> &MlnProgram {
        self
    }

    fn constant(&mut self, name: &str) -> Option<Symbol> {
        Some(self.symbols.intern(name))
    }
}

/// A shared program read without interning.
struct Known<'a>(&'a MlnProgram);

impl Constants for Known<'_> {
    fn program(&self) -> &MlnProgram {
        self.0
    }

    fn constant(&mut self, name: &str) -> Option<Symbol> {
        self.0.symbols.get(name)
    }
}

/// Parses a ground atom for evidence: `pred(c1, …, ck)` with constant
/// args, resolved through `names` into `args` (cleared first).
fn parse_ground_atom<C: Constants>(
    names: &mut C,
    cur: &mut Cursor<'_, '_>,
    args: &mut Vec<Symbol>,
) -> Result<PredicateId, MlnError> {
    let name = match cur.next() {
        Some(&Tok::Ident(n)) => n,
        other => {
            return Err(MlnError::at(
                cur.line,
                format!("expected predicate, got {other:?}"),
            ));
        }
    };
    let pred = names
        .program()
        .predicate_by_name(name)
        .ok_or_else(|| MlnError::at(cur.line, format!("unknown predicate `{name}`")))?;
    cur.expect(&Tok::LParen, "`(`")?;
    args.clear();
    loop {
        match cur.next() {
            Some(&(Tok::Ident(c) | Tok::Number(c) | Tok::Str(c))) => {
                let sym = names
                    .constant(c)
                    .ok_or_else(|| MlnError::at(cur.line, format!("unknown constant `{c}`")))?;
                args.push(sym);
            }
            other => {
                return Err(MlnError::at(
                    cur.line,
                    format!("expected constant, got {other:?}"),
                ));
            }
        }
        if cur.eat(&Tok::RParen) {
            break;
        }
        cur.expect(&Tok::Comma, "`,`")?;
    }
    Ok(pred)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Literal;

    const FIGURE1: &str = r#"
        // Figure 1 of the paper.
        *paper(paperid, url)
        *wrote(author, paperid)
        *refers(paperid, paperid)
        cat(paperid, category)

        5  cat(p, c1), cat(p, c2) => c1 = c2
        1  wrote(x, p1), wrote(x, p2), cat(p1, c) => cat(p2, c)
        2  cat(p1, c), refers(p1, p2) => cat(p2, c)
        paper(p, u) => EXIST x wrote(x, p).
        -1 cat(p, "Networking")
    "#;

    #[test]
    fn parses_figure_1() {
        let p = parse_program(FIGURE1).unwrap();
        assert_eq!(p.predicates.len(), 4);
        assert_eq!(p.rules.len(), 5);
        assert!(p.predicates[0].closed_world);
        assert!(!p.predicates[3].closed_world);
        // F4 is hard with an existential head.
        let f4 = &p.rules[3];
        assert_eq!(f4.weight, Weight::Hard);
        assert_eq!(f4.formula.exists.len(), 1);
        // F5 has a negative weight and a constant argument.
        let f5 = &p.rules[4];
        assert_eq!(f5.weight, Weight::Soft(-1.0));
    }

    #[test]
    fn evidence_parsing() {
        let mut p = parse_program(FIGURE1).unwrap();
        let ev = parse_evidence(
            &mut p,
            r#"
                wrote(Joe, P1)
                wrote(Joe, P2)
                wrote(Jake, P3)
                refers(P1, P3)
                cat(P2, DB)
                !cat(P3, "Networking")
            "#,
        )
        .unwrap();
        assert_eq!(ev.len(), 6);
        let items: Vec<_> = ev.iter().collect();
        assert!(items[0].positive);
        assert!(!items[5].positive);
        // The program itself carries no evidence; merged domains pick up
        // the constants.
        let author_ty = p.intern_type("author");
        assert!(p.domains[author_ty.index()].is_empty());
        assert_eq!(ev.merged_domains(&p)[author_ty.index()].len(), 2); // Joe, Jake
    }

    #[test]
    fn delta_parsing() {
        let mut p = parse_program(FIGURE1).unwrap();
        let d = parse_delta(
            &mut p,
            "cat(P4, DB)\n+cat(P5, DB)\n!cat(P6, DB)\n-cat(P2, DB)\n~cat(P7, DB) // flip\n",
        )
        .unwrap();
        assert_eq!(d.len(), 5);
        use crate::evidence::DeltaOp;
        assert!(matches!(d.ops[0], DeltaOp::Assert { positive: true, .. }));
        assert!(matches!(d.ops[1], DeltaOp::Assert { positive: true, .. }));
        assert!(matches!(
            d.ops[2],
            DeltaOp::Assert {
                positive: false,
                ..
            }
        ));
        assert!(matches!(d.ops[3], DeltaOp::Retract { .. }));
        assert!(matches!(d.ops[4], DeltaOp::Flip { .. }));
        assert!(parse_delta(&mut p, "-!cat(P1, DB)\n").is_err());
    }

    #[test]
    fn shared_delta_copies_the_program_only_to_intern() {
        let base = Arc::new(parse_program(FIGURE1).unwrap());
        let mut known = base.clone();
        let d = parse_delta_shared(&mut known, "cat(Networking, Networking)\n").unwrap();
        assert!(Arc::ptr_eq(&known, &base), "a known delta must not copy");
        assert_eq!(
            d,
            parse_delta(&mut (*base).clone(), "cat(Networking, Networking)\n").unwrap()
        );

        for src in [
            "cat(P4, DB)\n~cat(P5, AI)\n",
            "cat(P4, DB)\n-!cat(P1, DB)\n",
        ] {
            let mut shared = base.clone();
            let mut copy = (*base).clone();
            let got = parse_delta_shared(&mut shared, src).map_err(|e| e.to_string());
            assert_eq!(got, parse_delta(&mut copy, src).map_err(|e| e.to_string()));
            assert!(!Arc::ptr_eq(&shared, &base));
            assert_eq!(shared.symbols.len(), copy.symbols.len());
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let p = parse_program("// nothing\n\n# also nothing\n*e(t)\n1 e(x)\n").unwrap();
        assert_eq!(p.predicates.len(), 1);
        assert_eq!(p.rules.len(), 1);
    }

    #[test]
    fn disjunction_and_negation() {
        let p = parse_program("*e(t)\nq(t)\n2 !e(x) v q(x)\n").unwrap();
        let rule = &p.rules[0];
        assert_eq!(rule.formula.head.len(), 2);
        match &rule.formula.head[0] {
            Literal::Pred { negated, .. } => assert!(*negated),
            _ => panic!(),
        }
    }

    #[test]
    fn conjunctive_head_distributes() {
        let p = parse_program("*e(t)\nq(t)\n1 e(x) => q(x), e(x)\n").unwrap();
        assert_eq!(p.rules.len(), 2);
        for r in &p.rules {
            assert_eq!(r.formula.head.len(), 1);
            assert_eq!(r.formula.body.len(), 1);
        }
    }

    #[test]
    fn disjunctive_body_distributes() {
        let p = parse_program("*e(t)\nq(t)\n1 e(x) v q(x) => q(x)\n").unwrap();
        assert_eq!(p.rules.len(), 2);
    }

    #[test]
    fn bi_implication_expands() {
        let p = parse_program("*e(t)\nq(t)\n1 e(x) <=> q(x)\n").unwrap();
        assert_eq!(p.rules.len(), 2);
    }

    #[test]
    fn weighted_conjunction_becomes_unit_clauses() {
        let p = parse_program("q(t)\n1 q(A), q(B)\n").unwrap();
        assert_eq!(p.rules.len(), 2);
    }

    #[test]
    fn hard_rule_without_weight() {
        let p = parse_program("q(t)\nq(A).\n").unwrap();
        assert_eq!(p.rules[0].weight, Weight::Hard);
    }

    #[test]
    fn rejects_weightless_soft_rule() {
        assert!(parse_program("q(t)\nq(x)\n").is_err());
    }

    #[test]
    fn rejects_unknown_predicate() {
        assert!(parse_program("1 mystery(x)\n").is_err());
    }

    #[test]
    fn rejects_mixed_separators() {
        assert!(parse_program("q(t)\n1 q(x), q(y) v q(z)\n").is_err());
    }

    #[test]
    fn inequality_literal() {
        let p = parse_program("q(t)\n1 q(x), q(y) => x != y\n").unwrap();
        match &p.rules[0].formula.head[0] {
            Literal::Eq { negated, .. } => assert!(*negated),
            _ => panic!(),
        }
    }

    #[test]
    fn primed_variable_before_a_comment() {
        // A `'` inside a name does not open a quote, so the comment after
        // it is still a comment.
        let p = parse_program("*e(t)\nq(t)\n1 e(x') => q(x) // c\n").unwrap();
        assert_eq!(p.rules.len(), 1);
    }

    #[test]
    fn primed_constant_before_a_comment() {
        let mut p = parse_program("*e(t)\n").unwrap();
        let ev = parse_evidence(&mut p, "e(A')   # note\ne('B // c') // d\n").unwrap();
        let names: Vec<&str> = ev
            .iter()
            .map(|e| p.symbols.resolve(e.atom.args[0]))
            .collect();
        assert_eq!(names, ["A'", "B // c"]);
    }

    #[test]
    fn evidence_errors_pin_message_and_line() {
        let program = "*e(t, t)\n*f(t)\n";
        for (evidence, line, message) in [
            ("e(A, B)\nmystery(A)\n", 2, "unknown predicate `mystery`"),
            (
                "\n// c\ne(A)\n",
                3,
                "evidence for `e` has 1 arguments, expected 2",
            ),
            ("f(A)\n\n!f(A) # c\n", 3, "contradictory evidence for `f`"),
            ("f(A) f(B)\n", 1, "trailing tokens after evidence atom"),
            ("f(A)\r\nf(\"B)\r\n", 2, "unterminated string literal"),
            ("f(A)\nf(B) @\n", 2, "unexpected character `@`"),
            ("e(A, )\n", 1, "expected constant, got Some(RParen)"),
        ] {
            let mut p = parse_program(program).unwrap();
            let err = parse_evidence(&mut p, evidence).unwrap_err();
            assert_eq!(
                (err.line, err.message.as_str()),
                (line, message),
                "{evidence:?}"
            );
        }
    }

    #[test]
    fn quoted_constants_with_spaces() {
        let mut p = parse_program("*e(t)\n1 e(\"New York\")\n").unwrap();
        let ny = p.symbols.intern("New York");
        match &p.rules[0].formula.head[0] {
            Literal::Pred { atom, .. } => assert_eq!(atom.args[0], Term::Const(ny)),
            _ => panic!(),
        }
    }
}
