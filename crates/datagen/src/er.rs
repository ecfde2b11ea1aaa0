//! ER — Entity Resolution (deduplicating citation records by word
//! similarity).
//!
//! Structure that matters: thousands of per-word similarity rules (~3.8K
//! rules in Table 1), a `sameBib` query over record pairs, and symmetry +
//! transitivity rules that weld the MRF into a *single, dense* component
//! — the reason ER resists partitioning in Figure 6 ("even 2-way
//! partitioning would cut over 1.4M of the total 2M clauses").

use crate::Dataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write;

/// Generates an ER instance with `entities` underlying true entities,
/// 2–3 duplicate records each, and a vocabulary of `vocab` words.
pub fn er(entities: usize, vocab: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let vocab = vocab.max(10);
    let mut program = String::new();
    // 10 relations (Table 1).
    program.push_str("*hasWordAuthor(bib, word)\n");
    program.push_str("*hasWordTitle(bib, word)\n");
    program.push_str("*hasWordVenue(bib, word)\n");
    program.push_str("sameBib(bib, bib)\n");
    program.push_str("sameAuthor(bib, bib)\n");
    program.push_str("sameTitle(bib, bib)\n");
    for aux in [
        "*commonYear(bib, bib)",
        "*similarLength(bib, bib)",
        "*hasDigits(bib)",
        "*longRecord(bib)",
    ] {
        program.push_str(aux);
        program.push('\n');
    }

    // Reflexivity, symmetry, and transitivity over sameBib; symmetry and
    // transitivity are the density source.
    program.push_str("sameBib(x, x).\n");
    program.push_str("sameBib(x, y) => sameBib(y, x).\n");
    program.push_str("2 sameBib(x, y), sameBib(y, z) => sameBib(x, z)\n");
    program.push_str("-0.3 sameBib(x, y)\n");
    program.push_str("1.5 sameAuthor(x, y), sameTitle(x, y) => sameBib(x, y)\n");
    program.push_str("0.8 sameBib(x, y) => sameAuthor(x, y)\n");
    program.push_str("0.8 sameBib(x, y) => sameTitle(x, y)\n");
    // The per-word similarity rules (the bulk of the 3.8K rules):
    // sharing word W in field F is evidence of a match, with a
    // word-specific weight.
    for w in 0..vocab {
        let weight = 0.2 + 1.6 * (w % 11) as f64 / 11.0;
        let _ = writeln!(
            program,
            "{weight:.2} hasWordAuthor(b1, W{w}), hasWordAuthor(b2, W{w}), b1 != b2 => sameAuthor(b1, b2)"
        );
        let _ = writeln!(
            program,
            "{:.2} hasWordTitle(b1, W{w}), hasWordTitle(b2, W{w}), b1 != b2 => sameBib(b1, b2)",
            weight * 0.8
        );
        if w % 3 == 0 {
            // Discriminative venue words: sharing one *penalizes* a match
            // (e.g. different conferences' boilerplate), the source of
            // the frustrated optimum ER searches over.
            let _ = writeln!(
                program,
                "{:.2} hasWordVenue(b1, W{w}), hasWordVenue(b2, W{w}), b1 != b2 => !sameBib(b1, b2)",
                weight * 0.6
            );
        }
    }

    // Evidence: records as word bags; duplicates share most words, and a
    // few common "stop words" connect everything into one component.
    let mut evidence = String::new();
    let mut bib = 0usize;
    let stop_words = 3.min(vocab);
    for e in 0..entities {
        let copies = 2 + usize::from(rng.gen_bool(0.4));
        // The entity's signature words.
        let base: Vec<usize> = (0..4).map(|_| rng.gen_range(stop_words..vocab)).collect();
        for _ in 0..copies {
            let b = bib;
            bib += 1;
            for (i, &w) in base.iter().enumerate() {
                // Each copy keeps most signature words.
                if rng.gen_bool(0.85) {
                    let field = match i % 3 {
                        0 => "hasWordAuthor",
                        1 => "hasWordTitle",
                        _ => "hasWordVenue",
                    };
                    let _ = writeln!(evidence, "{field}(B{b}, W{w})");
                }
            }
            // Stop words: W0 appears in every record (the global
            // connective making the MRF one dense component, as in the
            // paper's ER), plus a rotating second stop word.
            let _ = writeln!(evidence, "hasWordTitle(B{b}, W0)");
            let sw = 1 + e % (stop_words.max(2) - 1);
            let _ = writeln!(evidence, "hasWordVenue(B{b}, W{sw})");
        }
    }
    crate::parse("ER", &program, &evidence)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tuffy_grounder::{ground_bottom_up, GroundingMode};
    use tuffy_mrf::ComponentSet;
    use tuffy_rdbms::OptimizerConfig;

    #[test]
    fn matches_table1_shape() {
        let d = er(10, 60, 1);
        assert_eq!(d.program.predicates.len(), 10); // Table 1: 10 relations
        assert!(
            d.program.rules.len() > 120,
            "per-word rules dominate: {}",
            d.program.rules.len()
        );
    }

    #[test]
    fn single_dense_component() {
        let d = er(8, 30, 2);
        let g = ground_bottom_up(
            &d.program,
            &d.evidence,
            GroundingMode::LazyClosure,
            &OptimizerConfig::default(),
        )
        .unwrap();
        let cs = ComponentSet::detect(&g.mrf);
        assert_eq!(cs.nontrivial_count(), 1, "transitivity welds the MRF");
        // Dense: many more clauses than atoms.
        assert!(
            g.mrf.clauses().len() > 2 * g.stats.atoms,
            "{} clauses vs {} atoms",
            g.mrf.clauses().len(),
            g.stats.atoms
        );
    }
}
