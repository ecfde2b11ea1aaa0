//! Structural codecs: MLN program, evidence, atom registry, MRF columns,
//! grounding statistics.
//!
//! Everything is serialized *structurally* — interned symbol ids, packed
//! literals, weight bit patterns — rather than through the text printer,
//! because a text round-trip re-parses and may intern symbols in a
//! different order; bit-identical query answers require the loaded
//! generation to reproduce the exact atom numbering and f64 bits of the
//! saved one. Symbols are stored as strings in id order and re-interned
//! densely on load, so every `u32` id in every other segment means the
//! same thing it meant at save time.
//!
//! Decoding trusts nothing: every id is bounds-checked against the tables
//! decoded before it, and the deep validators ([`MlnProgram::validate`],
//! [`AtomRegistry::from_entries`], [`Mrf::from_columns`]) run on the
//! reconstructed values. A corrupt or adversarial file yields a typed
//! [`StoreError`], never a panic.

use std::path::Path;
use std::time::Duration;

use tuffy_grounder::{AtomRegistry, GroundingResult, GroundingStats};
use tuffy_mln::{
    Atom, AtomRef, EvidenceSet, Formula, Literal, MlnProgram, PredicateDecl, PredicateId, Rule,
    Symbol, SymbolTable, Term, TypeId, Var, Weight,
};
use tuffy_mrf::{ClauseProvenance, Cost, Lit, Mrf, MrfColumns, RuleOrigin};
use tuffy_rdbms::SpillStats;

use crate::bytes::{ByteReader, ByteWriter};
use crate::error::StoreError;
use crate::format::{SegmentFile, SegmentFileWriter};

/// Segment names, file order.
const SEG_SYMBOLS: &str = "symbols";
const SEG_TYPES: &str = "types";
const SEG_PREDICATES: &str = "predicates";
const SEG_RULES: &str = "rules";
const SEG_DOMAINS: &str = "domains";
const SEG_EVIDENCE: &str = "evidence";
const SEG_REGISTRY: &str = "registry";
const SEG_MRF: &str = "mrf";
const SEG_STATS: &str = "stats";
const SEG_CONFIG: &str = "config";

/// A fully reloaded generation: everything a serving engine needs to
/// answer queries without re-grounding.
pub struct LoadedGeneration {
    /// The MLN program (symbols re-interned to the saved ids).
    pub program: MlnProgram,
    /// The evidence set, in original insertion order.
    pub evidence: EvidenceSet,
    /// The grounded network: MRF + atom registry + original run stats.
    pub result: GroundingResult,
    /// Opaque engine-configuration bytes, returned verbatim.
    pub config: Vec<u8>,
}

/// Saves one grounded generation to `path` atomically.
///
/// `config` is opaque to the store — the engine layer owns its encoding —
/// but it is checksummed and versioned like every other segment.
pub fn save_generation(
    path: &Path,
    program: &MlnProgram,
    evidence: &EvidenceSet,
    result: &GroundingResult,
    config: &[u8],
) -> Result<(), StoreError> {
    let mut w = SegmentFileWriter::new();
    w.add(SEG_SYMBOLS, encode_symbols(&program.symbols));
    w.add(SEG_TYPES, encode_types(&program.types));
    w.add(SEG_PREDICATES, encode_predicates(&program.predicates));
    w.add(SEG_RULES, encode_rules(&program.rules));
    w.add(SEG_DOMAINS, encode_domains(&program.domains));
    w.add(SEG_EVIDENCE, encode_evidence(evidence));
    w.add(SEG_REGISTRY, encode_registry(&result.registry));
    w.add(SEG_MRF, encode_mrf(&result.mrf.export_columns()));
    w.add(SEG_STATS, encode_stats(&result.stats));
    w.add(SEG_CONFIG, config.to_vec());
    w.write_atomic(path)
}

/// Loads and fully validates a generation saved by [`save_generation`].
pub fn load_generation(path: &Path) -> Result<LoadedGeneration, StoreError> {
    let file = SegmentFile::open(path)?;
    load_from(&file)
}

fn load_from(file: &SegmentFile) -> Result<LoadedGeneration, StoreError> {
    let symbols = decode_symbols(file.segment(SEG_SYMBOLS)?.as_slice())?;
    let n_syms = symbols.len();
    let types = decode_types(file.segment(SEG_TYPES)?.as_slice(), n_syms)?;
    let predicates = decode_predicates(
        file.segment(SEG_PREDICATES)?.as_slice(),
        n_syms,
        types.len(),
    )?;
    let rules = decode_rules(
        file.segment(SEG_RULES)?.as_slice(),
        n_syms,
        predicates.len(),
    )?;
    let domains = decode_domains(file.segment(SEG_DOMAINS)?.as_slice(), n_syms, types.len())?;
    let program = MlnProgram {
        symbols,
        types,
        predicates,
        rules,
        domains,
    };
    program
        .validate()
        .map_err(|e| StoreError::malformed(format!("program validation: {e}")))?;
    let evidence = decode_evidence(file.segment(SEG_EVIDENCE)?.as_slice(), &program)?;
    let registry = decode_registry(file.segment(SEG_REGISTRY)?.as_slice(), &program)?;
    let mrf = decode_mrf(file.segment(SEG_MRF)?.as_slice())?;
    if mrf.num_atoms() != registry.len() {
        return Err(StoreError::malformed(format!(
            "MRF has {} atoms but the registry has {}",
            mrf.num_atoms(),
            registry.len()
        )));
    }
    let stats = decode_stats(file.segment(SEG_STATS)?.as_slice())?;
    let config = file.segment(SEG_CONFIG)?.as_slice().to_vec();
    Ok(LoadedGeneration {
        program,
        evidence,
        result: GroundingResult {
            mrf,
            registry,
            stats,
        },
        config,
    })
}

// ---------------------------------------------------------------- symbols

fn encode_symbols(table: &SymbolTable) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(table.len() as u64);
    for i in 0..table.len() {
        w.put_str(table.resolve(Symbol(i as u32)));
    }
    w.finish()
}

fn decode_symbols(bytes: &[u8]) -> Result<SymbolTable, StoreError> {
    let mut r = ByteReader::new(bytes, SEG_SYMBOLS);
    let n = r.get_len()?;
    let mut table = SymbolTable::new();
    for i in 0..n {
        let name = r.get_str()?;
        let sym = table.intern(name);
        if sym.0 as usize != i {
            return Err(StoreError::malformed(format!(
                "duplicate symbol `{name}` at id {i} (interned as {})",
                sym.0
            )));
        }
    }
    r.expect_end()?;
    Ok(table)
}

/// Bounds-checks a stored symbol id.
fn symbol(id: u32, n_syms: usize, what: &str) -> Result<Symbol, StoreError> {
    if (id as usize) < n_syms {
        Ok(Symbol(id))
    } else {
        Err(StoreError::malformed(format!(
            "{what}: symbol id {id} out of range (table has {n_syms})"
        )))
    }
}

// ------------------------------------------------------------------ types

fn encode_types(types: &[Symbol]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    let ids: Vec<u32> = types.iter().map(|s| s.0).collect();
    w.put_u32_slice(&ids);
    w.finish()
}

fn decode_types(bytes: &[u8], n_syms: usize) -> Result<Vec<Symbol>, StoreError> {
    let mut r = ByteReader::new(bytes, SEG_TYPES);
    let ids = r.get_u32_vec()?;
    r.expect_end()?;
    ids.into_iter()
        .map(|id| symbol(id, n_syms, "type name"))
        .collect()
}

// ------------------------------------------------------------- predicates

fn encode_predicates(preds: &[PredicateDecl]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(preds.len() as u64);
    for p in preds {
        w.put_u32(p.name.0);
        w.put_u8(p.closed_world as u8);
        w.put_u32(p.arg_types.len() as u32);
        for t in &p.arg_types {
            w.put_u32(t.0);
        }
    }
    w.finish()
}

fn decode_predicates(
    bytes: &[u8],
    n_syms: usize,
    n_types: usize,
) -> Result<Vec<PredicateDecl>, StoreError> {
    let mut r = ByteReader::new(bytes, SEG_PREDICATES);
    let n = r.get_len()?;
    let mut out = Vec::with_capacity(n.min(1 << 20));
    for i in 0..n {
        let name = symbol(r.get_u32()?, n_syms, "predicate name")?;
        let closed_world = decode_bool(r.get_u8()?, "predicate closed-world flag")?;
        let arity = r.get_u32()? as usize;
        let mut arg_types = Vec::with_capacity(arity.min(1 << 16));
        for _ in 0..arity {
            let t = r.get_u32()?;
            if t as usize >= n_types {
                return Err(StoreError::malformed(format!(
                    "predicate {i}: type id {t} out of range (have {n_types})"
                )));
            }
            arg_types.push(TypeId(t));
        }
        out.push(PredicateDecl {
            name,
            arg_types,
            closed_world,
        });
    }
    r.expect_end()?;
    Ok(out)
}

// ------------------------------------------------------------------ rules

/// Weight tags.
const W_SOFT: u8 = 0;
const W_HARD: u8 = 1;
const W_NEG_HARD: u8 = 2;

fn encode_weight(w: &mut ByteWriter, weight: Weight) {
    match weight {
        Weight::Soft(v) => {
            w.put_u8(W_SOFT);
            w.put_f64(v);
        }
        Weight::Hard => w.put_u8(W_HARD),
        Weight::NegHard => w.put_u8(W_NEG_HARD),
    }
}

fn decode_weight(r: &mut ByteReader<'_>) -> Result<Weight, StoreError> {
    match r.get_u8()? {
        W_SOFT => {
            let v = r.get_f64()?;
            if !v.is_finite() {
                return Err(StoreError::malformed(format!("non-finite soft weight {v}")));
            }
            Ok(Weight::Soft(v))
        }
        W_HARD => Ok(Weight::Hard),
        W_NEG_HARD => Ok(Weight::NegHard),
        t => Err(StoreError::malformed(format!("unknown weight tag {t}"))),
    }
}

/// Term tags.
const T_VAR: u8 = 0;
const T_CONST: u8 = 1;

fn encode_term(w: &mut ByteWriter, t: Term) {
    match t {
        Term::Var(v) => {
            w.put_u8(T_VAR);
            w.put_u32(v.0 .0);
        }
        Term::Const(c) => {
            w.put_u8(T_CONST);
            w.put_u32(c.0);
        }
    }
}

fn decode_term(r: &mut ByteReader<'_>, n_syms: usize) -> Result<Term, StoreError> {
    match r.get_u8()? {
        T_VAR => Ok(Term::Var(Var(symbol(
            r.get_u32()?,
            n_syms,
            "variable name",
        )?))),
        T_CONST => Ok(Term::Const(symbol(r.get_u32()?, n_syms, "constant")?)),
        t => Err(StoreError::malformed(format!("unknown term tag {t}"))),
    }
}

/// Literal tags.
const L_PRED: u8 = 0;
const L_EQ: u8 = 1;

fn encode_literal(w: &mut ByteWriter, lit: &Literal) {
    match lit {
        Literal::Pred { atom, negated } => {
            w.put_u8(L_PRED);
            w.put_u32(atom.predicate.0);
            w.put_u8(*negated as u8);
            w.put_u32(atom.args.len() as u32);
            for &t in &atom.args {
                encode_term(w, t);
            }
        }
        Literal::Eq {
            left,
            right,
            negated,
        } => {
            w.put_u8(L_EQ);
            encode_term(w, *left);
            encode_term(w, *right);
            w.put_u8(*negated as u8);
        }
    }
}

fn decode_literal(
    r: &mut ByteReader<'_>,
    n_syms: usize,
    n_preds: usize,
) -> Result<Literal, StoreError> {
    match r.get_u8()? {
        L_PRED => {
            let p = r.get_u32()?;
            if p as usize >= n_preds {
                return Err(StoreError::malformed(format!(
                    "literal predicate id {p} out of range (have {n_preds})"
                )));
            }
            let negated = decode_bool(r.get_u8()?, "literal polarity")?;
            let arity = r.get_u32()? as usize;
            let mut args = Vec::with_capacity(arity.min(1 << 16));
            for _ in 0..arity {
                args.push(decode_term(r, n_syms)?);
            }
            Ok(Literal::Pred {
                atom: Atom {
                    predicate: PredicateId(p),
                    args,
                },
                negated,
            })
        }
        L_EQ => {
            let left = decode_term(r, n_syms)?;
            let right = decode_term(r, n_syms)?;
            let negated = decode_bool(r.get_u8()?, "equality polarity")?;
            Ok(Literal::Eq {
                left,
                right,
                negated,
            })
        }
        t => Err(StoreError::malformed(format!("unknown literal tag {t}"))),
    }
}

fn encode_rules(rules: &[Rule]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(rules.len() as u64);
    for rule in rules {
        encode_weight(&mut w, rule.weight);
        w.put_u64(rule.line as u64);
        w.put_u32(rule.formula.exists.len() as u32);
        for v in &rule.formula.exists {
            w.put_u32(v.0 .0);
        }
        for lits in [&rule.formula.body, &rule.formula.head] {
            w.put_u32(lits.len() as u32);
            for lit in lits.iter() {
                encode_literal(&mut w, lit);
            }
        }
    }
    w.finish()
}

fn decode_rules(bytes: &[u8], n_syms: usize, n_preds: usize) -> Result<Vec<Rule>, StoreError> {
    let mut r = ByteReader::new(bytes, SEG_RULES);
    let n = r.get_len()?;
    let mut out = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let weight = decode_weight(&mut r)?;
        let line = r.get_u64()? as usize;
        let n_exists = r.get_u32()? as usize;
        let mut exists = Vec::with_capacity(n_exists.min(1 << 16));
        for _ in 0..n_exists {
            exists.push(Var(symbol(r.get_u32()?, n_syms, "existential variable")?));
        }
        let mut groups: [Vec<Literal>; 2] = [Vec::new(), Vec::new()];
        for g in &mut groups {
            let n_lits = r.get_u32()? as usize;
            for _ in 0..n_lits {
                g.push(decode_literal(&mut r, n_syms, n_preds)?);
            }
        }
        let [body, head] = groups;
        out.push(Rule {
            weight,
            formula: Formula { body, head, exists },
            line,
        });
    }
    r.expect_end()?;
    Ok(out)
}

// ---------------------------------------------------------------- domains

fn encode_domains(domains: &[Vec<Symbol>]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(domains.len() as u64);
    for d in domains {
        let ids: Vec<u32> = d.iter().map(|s| s.0).collect();
        w.put_u32_slice(&ids);
    }
    w.finish()
}

fn decode_domains(
    bytes: &[u8],
    n_syms: usize,
    n_types: usize,
) -> Result<Vec<Vec<Symbol>>, StoreError> {
    let mut r = ByteReader::new(bytes, SEG_DOMAINS);
    let n = r.get_len()?;
    if n != n_types {
        return Err(StoreError::malformed(format!(
            "{n} domains for {n_types} types"
        )));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let ids = r.get_u32_vec()?;
        out.push(
            ids.into_iter()
                .map(|id| symbol(id, n_syms, "domain constant"))
                .collect::<Result<Vec<_>, _>>()?,
        );
    }
    r.expect_end()?;
    Ok(out)
}

// --------------------------------------------------------------- evidence

fn encode_evidence(evidence: &EvidenceSet) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(evidence.len() as u64);
    for ev in evidence.iter() {
        w.put_u32(ev.atom.predicate.0);
        w.put_u8(ev.positive as u8);
        w.put_u32(ev.atom.args.len() as u32);
        for a in ev.atom.args {
            w.put_u32(a.0);
        }
    }
    w.finish()
}

fn decode_evidence(bytes: &[u8], program: &MlnProgram) -> Result<EvidenceSet, StoreError> {
    let mut r = ByteReader::new(bytes, SEG_EVIDENCE);
    let n = r.get_len()?;
    let n_syms = program.symbols.len();
    let n_preds = program.predicates.len();
    let mut out = EvidenceSet::new();
    let mut args = Vec::new();
    for i in 0..n {
        let p = r.get_u32()?;
        if p as usize >= n_preds {
            return Err(StoreError::malformed(format!(
                "evidence {i}: predicate id {p} out of range (have {n_preds})"
            )));
        }
        let positive = decode_bool(r.get_u8()?, "evidence polarity")?;
        let arity = r.get_u32()? as usize;
        args.clear();
        for _ in 0..arity {
            args.push(symbol(r.get_u32()?, n_syms, "evidence constant")?);
        }
        // Re-adding in insertion order rebuilds the identical set; `add`
        // re-validates arity and contradiction-freedom.
        let atom = AtomRef {
            predicate: PredicateId(p),
            args: &args,
        };
        out.add(program, atom, positive)
            .map_err(|e| StoreError::malformed(format!("evidence {i}: {e}")))?;
    }
    r.expect_end()?;
    if out.len() != n {
        return Err(StoreError::malformed(format!(
            "evidence segment declared {n} assertions but {} were distinct",
            out.len()
        )));
    }
    Ok(out)
}

// --------------------------------------------------------------- registry

fn encode_registry(registry: &AtomRegistry) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(registry.len() as u64);
    for (_, pred, args) in registry.iter() {
        w.put_u32(pred.0);
        w.put_u32(args.len() as u32);
        for &a in args {
            w.put_u32(a);
        }
    }
    w.finish()
}

fn decode_registry(bytes: &[u8], program: &MlnProgram) -> Result<AtomRegistry, StoreError> {
    let mut r = ByteReader::new(bytes, SEG_REGISTRY);
    let n = r.get_len()?;
    let n_syms = program.symbols.len();
    let n_preds = program.predicates.len();
    let mut registry = AtomRegistry::new();
    let mut args = Vec::new();
    for i in 0..n {
        let p = r.get_u32()?;
        if p as usize >= n_preds {
            return Err(StoreError::malformed(format!(
                "registry atom {i}: predicate id {p} out of range"
            )));
        }
        let arity = r.get_u32()? as usize;
        if arity != program.predicates[p as usize].arg_types.len() {
            return Err(StoreError::malformed(format!(
                "registry atom {i}: arity {arity} does not match predicate"
            )));
        }
        args.clear();
        for _ in 0..arity {
            let a = r.get_u32()?;
            symbol(a, n_syms, "registry constant")?;
            args.push(a);
        }
        registry
            .push_new(PredicateId(p), &args)
            .map_err(|e| StoreError::malformed(format!("registry: {e}")))?;
    }
    r.expect_end()?;
    Ok(registry)
}

// -------------------------------------------------------------------- mrf

fn encode_mrf(cols: &MrfColumns) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(cols.num_atoms as u64);
    w.put_u32_slice(&cols.lit_start);
    let raw: Vec<u32> = cols.lit_arena.iter().map(|l| l.raw()).collect();
    w.put_u32_slice(&raw);
    w.put_u64(cols.weights.len() as u64);
    for &wt in cols.weights.iter() {
        encode_weight(&mut w, wt);
    }
    w.put_u64(cols.provenance.len() as u64);
    for p in cols.provenance.iter() {
        w.put_f64(p.pos_soft);
        w.put_f64(p.neg_soft);
        w.put_u64(p.hard);
        w.put_u64(p.neg_hard);
    }
    // Opacity flags, bit-packed LSB-first.
    w.put_u64(cols.opaque_atoms.len() as u64);
    let mut byte = 0u8;
    for (i, &b) in cols.opaque_atoms.iter().enumerate() {
        byte |= (b as u8) << (i % 8);
        if i % 8 == 7 {
            w.put_u8(byte);
            byte = 0;
        }
    }
    if cols.opaque_atoms.len() % 8 != 0 {
        w.put_u8(byte);
    }
    w.put_u64(cols.base_cost.hard);
    w.put_f64(cols.base_cost.soft);
    // Rule-origin CSR: bounds, then (rule, share) pairs.
    w.put_u32_slice(&cols.origin_start);
    w.put_u64(cols.origin_arena.len() as u64);
    for o in cols.origin_arena.iter() {
        w.put_u32(o.rule);
        w.put_f64(o.share);
    }
    w.finish()
}

fn decode_mrf(bytes: &[u8]) -> Result<Mrf, StoreError> {
    let mut r = ByteReader::new(bytes, SEG_MRF);
    let num_atoms = r.get_len()?;
    let lit_start: Vec<u32> = r.get_u32_vec()?;
    let lit_arena: Vec<Lit> = r.get_u32_vec()?.into_iter().map(Lit::from_raw).collect();
    let n_weights = r.get_len()?;
    let mut weights = Vec::with_capacity(n_weights.min(1 << 24));
    for _ in 0..n_weights {
        weights.push(decode_weight(&mut r)?);
    }
    let n_prov = r.get_len()?;
    let mut provenance = Vec::with_capacity(n_prov.min(1 << 24));
    for _ in 0..n_prov {
        provenance.push(ClauseProvenance {
            pos_soft: r.get_f64()?,
            neg_soft: r.get_f64()?,
            hard: r.get_u64()?,
            neg_hard: r.get_u64()?,
        });
    }
    let n_opaque = r.get_len()?;
    let mut opaque_atoms = Vec::with_capacity(n_opaque.min(1 << 24));
    let mut byte = 0u8;
    for i in 0..n_opaque {
        if i % 8 == 0 {
            byte = r.get_u8()?;
        }
        opaque_atoms.push(byte >> (i % 8) & 1 == 1);
    }
    let base_cost = Cost {
        hard: r.get_u64()?,
        soft: r.get_f64()?,
    };
    let origin_start: Vec<u32> = r.get_u32_vec()?;
    let n_origins = r.get_len()?;
    let mut origin_arena = Vec::with_capacity(n_origins.min(1 << 24));
    for _ in 0..n_origins {
        origin_arena.push(RuleOrigin {
            rule: r.get_u32()?,
            share: r.get_f64()?,
        });
    }
    r.expect_end()?;
    Mrf::from_columns(MrfColumns {
        num_atoms,
        lit_start: lit_start.into(),
        lit_arena: lit_arena.into(),
        weights: weights.into(),
        provenance: provenance.into(),
        origin_start: origin_start.into(),
        origin_arena: origin_arena.into(),
        opaque_atoms: opaque_atoms.into(),
        base_cost,
    })
    .map_err(|e| StoreError::malformed(format!("mrf: {e}")))
}

// ------------------------------------------------------------------ stats

fn encode_stats(stats: &GroundingStats) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(stats.wall.as_nanos() as u64);
    w.put_u64(stats.rounds as u64);
    w.put_u64(stats.clauses as u64);
    w.put_u64(stats.atoms as u64);
    w.put_u64(stats.bindings_considered);
    w.put_u64(stats.queries);
    w.put_u64(stats.replans);
    w.put_u64(stats.query_exec.as_nanos() as u64);
    // Reserved: the removed buffer-pool counters (hits, page reads,
    // page writes). Written 0, ignored on read, so files written while
    // grounding still counted pages load.
    for _ in 0..3 {
        w.put_u64(0);
    }
    w.put_u64(stats.peak_bytes as u64);
    w.put_u64(stats.spill.runs_written);
    w.put_u64(stats.spill.bytes_spilled);
    w.put_u64(stats.spill.partitions);
    w.put_u64(stats.spill.grace_joins);
    w.finish()
}

fn decode_stats(bytes: &[u8]) -> Result<GroundingStats, StoreError> {
    let mut r = ByteReader::new(bytes, SEG_STATS);
    let stats = GroundingStats {
        wall: Duration::from_nanos(r.get_u64()?),
        rounds: r.get_len()?,
        clauses: r.get_len()?,
        atoms: r.get_len()?,
        bindings_considered: r.get_u64()?,
        queries: r.get_u64()?,
        replans: r.get_u64()?,
        query_exec: Duration::from_nanos(r.get_u64()?),
        peak_bytes: {
            for _ in 0..3 {
                r.get_u64()?; // reserved (see `encode_stats`)
            }
            r.get_len()?
        },
        spill: SpillStats {
            runs_written: r.get_u64()?,
            bytes_spilled: r.get_u64()?,
            partitions: r.get_u64()?,
            grace_joins: r.get_u64()?,
        },
    };
    r.expect_end()?;
    Ok(stats)
}

// ---------------------------------------------------------------- helpers

fn decode_bool(v: u8, what: &str) -> Result<bool, StoreError> {
    match v {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(StoreError::malformed(format!("{what}: bad bool byte {v}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tuffy_grounder::ground_bottom_up;
    use tuffy_mln::parser::{parse_evidence, parse_program};
    use tuffy_rdbms::OptimizerConfig;

    const FIGURE1: &str = r#"
        *wrote(person, paper)
        *refers(paper, paper)
        cat(paper, category)

        5    cat(p, c1), cat(p, c2) => c1 = c2
        1    wrote(x, p1), wrote(x, p2), cat(p1, c) => cat(p2, c)
        2    cat(p1, c), refers(p1, p2) => cat(p2, c)
        -1   cat(p, "Networking")
    "#;
    const FIGURE1_EV: &str = r#"
        wrote(Alice, P1)
        wrote(Alice, P2)
        wrote(Bob, P3)
        refers(P1, P3)
        cat(P1, DB)
        !cat(P3, OS)
    "#;

    fn grounded() -> (MlnProgram, EvidenceSet, GroundingResult) {
        let mut program = parse_program(FIGURE1).unwrap();
        let evidence = parse_evidence(&mut program, FIGURE1_EV).unwrap();
        let result = ground_bottom_up(
            &program,
            &evidence,
            tuffy_grounder::GroundingMode::LazyClosure,
            &OptimizerConfig::default(),
        )
        .unwrap();
        (program, evidence, result)
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tuffy-store-model-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// Deep equality of a save→load round trip: program text, evidence,
    /// registry entries, and every MRF column, bit-for-bit.
    #[test]
    fn round_trip_is_deep_identical() {
        let (program, evidence, result) = grounded();
        let path = tmp("roundtrip.tst");
        save_generation(&path, &program, &evidence, &result, b"cfg-bytes").unwrap();
        let loaded = load_generation(&path).unwrap();

        // Program: identical structure AND identical interning.
        assert_eq!(program.symbols.len(), loaded.program.symbols.len());
        for i in 0..program.symbols.len() {
            let s = Symbol(i as u32);
            assert_eq!(
                program.symbols.resolve(s),
                loaded.program.symbols.resolve(s)
            );
        }
        assert_eq!(program.types, loaded.program.types);
        assert_eq!(program.predicates.len(), loaded.program.predicates.len());
        for (a, b) in program
            .predicates
            .iter()
            .zip(loaded.program.predicates.iter())
        {
            assert_eq!(a.name, b.name);
            assert_eq!(a.closed_world, b.closed_world);
            assert_eq!(a.arg_types, b.arg_types);
        }
        assert_eq!(program.rules, loaded.program.rules);
        assert_eq!(program.domains, loaded.program.domains);

        // Evidence: same assertions in the same order.
        let orig: Vec<_> = evidence.iter().collect();
        let back: Vec<_> = loaded.evidence.iter().collect();
        assert_eq!(orig, back);

        // Registry: same atoms with the same ids.
        assert_eq!(result.registry.len(), loaded.result.registry.len());
        for ((a1, p1, s1), (a2, p2, s2)) in
            result.registry.iter().zip(loaded.result.registry.iter())
        {
            assert_eq!((a1, p1, s1), (a2, p2, s2));
        }

        // MRF: every persisted column bit-identical.
        let c1 = result.mrf.export_columns();
        let c2 = loaded.result.mrf.export_columns();
        assert_eq!(c1.num_atoms, c2.num_atoms);
        assert_eq!(c1.lit_start, c2.lit_start);
        assert_eq!(c1.lit_arena, c2.lit_arena);
        assert_eq!(c1.weights, c2.weights);
        assert_eq!(c1.provenance.len(), c2.provenance.len());
        for (p1, p2) in c1.provenance.iter().zip(c2.provenance.iter()) {
            assert_eq!(p1.pos_soft.to_bits(), p2.pos_soft.to_bits());
            assert_eq!(p1.neg_soft.to_bits(), p2.neg_soft.to_bits());
            assert_eq!((p1.hard, p1.neg_hard), (p2.hard, p2.neg_hard));
        }
        assert_eq!(c1.opaque_atoms, c2.opaque_atoms);
        assert_eq!(c1.base_cost.hard, c2.base_cost.hard);
        assert_eq!(c1.base_cost.soft.to_bits(), c2.base_cost.soft.to_bits());
        assert_eq!(c1.origin_start, c2.origin_start);
        assert_eq!(c1.origin_arena.len(), c2.origin_arena.len());
        for (o1, o2) in c1.origin_arena.iter().zip(c2.origin_arena.iter()) {
            assert_eq!(o1.rule, o2.rule);
            assert_eq!(o1.share.to_bits(), o2.share.to_bits());
        }

        // Stats and config survive verbatim.
        assert_eq!(result.stats.clauses, loaded.result.stats.clauses);
        assert_eq!(result.stats.atoms, loaded.result.stats.atoms);
        assert_eq!(result.stats.wall, loaded.result.stats.wall);
        assert_eq!(loaded.config, b"cfg-bytes");

        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stats_with_legacy_io_counters_load() {
        let (_, _, result) = grounded();
        let mut bytes = encode_stats(&result.stats);
        // Slots 8..11 held the buffer-pool hits, page reads and page
        // writes; builds that counted pages wrote them non-zero.
        assert!(bytes[64..88].iter().all(|&b| b == 0));
        bytes[64..88].fill(0x5a);
        let back = decode_stats(&bytes).unwrap();
        assert_eq!(back.query_exec, result.stats.query_exec);
        assert_eq!(back.peak_bytes, result.stats.peak_bytes);
        assert_eq!(back.spill, result.stats.spill);
    }

    #[test]
    fn truncated_file_is_rejected_with_typed_error() {
        let (program, evidence, result) = grounded();
        let path = tmp("truncated.tst");
        save_generation(&path, &program, &evidence, &result, &[]).unwrap();
        let mut raw = std::fs::read(&path).unwrap();
        raw.truncate(raw.len() / 2);
        std::fs::write(&path, &raw).unwrap();
        match load_generation(&path) {
            Err(StoreError::Truncated { .. }) => {}
            Err(e) => panic!("expected Truncated, got {e}"),
            Ok(_) => panic!("expected Truncated, got a loaded generation"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bit_flip_is_rejected_with_typed_error() {
        let (program, evidence, result) = grounded();
        let path = tmp("bitflip.tst");
        save_generation(&path, &program, &evidence, &result, &[]).unwrap();
        let mut raw = std::fs::read(&path).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0x08;
        std::fs::write(&path, &raw).unwrap();
        match load_generation(&path) {
            Err(StoreError::ChecksumMismatch { .. }) => {}
            Err(e) => panic!("expected ChecksumMismatch, got {e}"),
            Ok(_) => panic!("expected ChecksumMismatch, got a loaded generation"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_generation_round_trips() {
        let mut program = parse_program("p(thing)\n1 p(x)\n").unwrap();
        let evidence = parse_evidence(&mut program, "").unwrap();
        let result = ground_bottom_up(
            &program,
            &evidence,
            tuffy_grounder::GroundingMode::LazyClosure,
            &OptimizerConfig::default(),
        )
        .unwrap();
        let path = tmp("empty.tst");
        save_generation(&path, &program, &evidence, &result, &[]).unwrap();
        let loaded = load_generation(&path).unwrap();
        assert_eq!(loaded.evidence.len(), 0);
        assert_eq!(loaded.result.mrf.num_atoms(), result.mrf.num_atoms());
        assert!(loaded.config.is_empty());
        std::fs::remove_file(&path).unwrap();
    }
}
