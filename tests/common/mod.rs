//! Test support shared by the integration suites (`mod common;`).

// Each test binary compiles this module separately and uses a subset.
#![allow(dead_code)]

use tuffy_datagen::Dataset;
use tuffy_grounder::GroundingResult;

/// The seed of `tuffy-bench`'s dataset constructors.
pub const BENCH_SEED: u64 = 20110829;

/// `tuffy-bench`'s search-scale `all_four()`: LP, IE, RC and ER.
pub fn four_testbeds() -> [Dataset; 4] {
    [
        tuffy_datagen::lp(5, 4, BENCH_SEED),
        tuffy_datagen::ie(300, 200, BENCH_SEED),
        tuffy_datagen::rc(40, 7, BENCH_SEED),
        tuffy_datagen::er(14, 80, BENCH_SEED),
    ]
}

/// A deep, order-sensitive fingerprint of everything a search or serving
/// consumer can observe in a grounding: atom numbering, clause arenas,
/// weights, provenance, occurrence lists, and base cost (f64s rendered
/// as raw bits so the comparison is exact, not approximate).
pub fn fingerprint(g: &GroundingResult) -> Vec<String> {
    let mut v = Vec::new();
    v.push(format!(
        "atoms={} clauses={} base_hard={} base_soft={:#x}",
        g.mrf.num_atoms(),
        g.mrf.num_clauses(),
        g.mrf.base_cost.hard,
        g.mrf.base_cost.soft.to_bits(),
    ));
    for (aid, pred, args) in g.registry.iter() {
        v.push(format!("atom {aid}: {}#{args:?}", pred.0));
    }
    for ci in 0..g.mrf.num_clauses() {
        let p = g.mrf.provenance(ci);
        v.push(format!(
            "clause {ci}: {:?} w={:?} prov=({:#x},{:#x},{},{})",
            g.mrf.clause_lits(ci),
            g.mrf.clause_weight(ci),
            p.pos_soft.to_bits(),
            p.neg_soft.to_bits(),
            p.hard,
            p.neg_hard
        ));
    }
    for a in 0..g.mrf.num_atoms() as u32 {
        v.push(format!("occ {a}: {:?}", g.mrf.occurrences(a)));
    }
    v
}

/// FNV-1a-64 of the fingerprint's lines — one number that pins a whole
/// grounding against a value recorded at an earlier commit.
pub fn fingerprint_hash(g: &GroundingResult) -> u64 {
    tuffy_store::bytes::fnv1a(fingerprint(g).join("\n").as_bytes())
}

/// The seeded LCG of the parser mutation tests: no wall clock, no RNG
/// crate, so reruns see identical inputs.
pub struct Lcg(pub u64);

impl Lcg {
    pub fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    pub fn below(&mut self, n: usize) -> usize {
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

/// Applies one to four mutations to `text`: a byte replaced by one of
/// `alphabet`, a truncation, a duplicated line or two swapped lines.
pub fn mutate(text: &[u8], alphabet: &[u8], rng: &mut Lcg) -> Vec<u8> {
    let mut t = text.to_vec();
    for _ in 0..1 + rng.below(4) {
        match rng.below(4) {
            0 if !t.is_empty() => {
                let at = rng.below(t.len());
                t[at] = alphabet[rng.below(alphabet.len())];
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
            _ => {
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
        }
    }
    t
}

/// FNV-1a over `bytes`, continuing from `h`.
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    }
    h
}
