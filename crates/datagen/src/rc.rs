//! RC — Relational Classification (paper-classification on a Cora-like
//! citation graph; "RC contains all the rules in Figure 1").
//!
//! Structure that matters: the citation/coauthor graph decomposes into
//! hundreds of medium-sized clusters (489 components in the paper), a
//! minority of papers is labeled, and label information propagates along
//! citations and co-authorship. The MLN is exactly Figure 1 plus
//! per-category negative priors (15 rules total, matching Table 1).

use crate::Dataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write;

/// Number of categories (Cora uses a handful of CS areas).
pub const CATEGORIES: usize = 10;

/// Generates an RC instance with roughly `clusters` MRF components and
/// ~30% labeled papers.
pub fn rc(clusters: usize, papers_per_cluster: usize, seed: u64) -> Dataset {
    rc_with_labels(clusters, papers_per_cluster, 0.3, seed)
}

/// Generates an RC instance with a chosen labeled fraction.
///
/// Each cluster holds `~papers_per_cluster` papers connected by a random
/// citation tree plus co-author links; `label_frac` of the papers carry a
/// category label as evidence. High label fractions reproduce the paper's
/// RC regime (430K evidence vs 10K query atoms): most candidate
/// groundings are satisfied by evidence and pruned.
pub fn rc_with_labels(
    clusters: usize,
    papers_per_cluster: usize,
    label_frac: f64,
    seed: u64,
) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut program = String::new();
    program.push_str("*paper(paperid, url)\n");
    program.push_str("*wrote(person, paperid)\n");
    program.push_str("*refers(paperid, paperid)\n");
    program.push_str("cat(paperid, category)\n");
    // Figure 1's rules (F1–F3 plus the reverse citation direction).
    program.push_str("5 cat(p, c1), cat(p, c2) => c1 = c2\n");
    program.push_str("1 wrote(x, p1), wrote(x, p2), cat(p1, c) => cat(p2, c)\n");
    program.push_str("2 cat(p1, c), refers(p1, p2) => cat(p2, c)\n");
    program.push_str("2 cat(p1, c), refers(p2, p1) => cat(p2, c)\n");
    // F4 (every paper has an author) is hard.
    program.push_str("paper(p, u) => EXIST x wrote(x, p).\n");
    // Per-category weak negative priors (10 rules → 15 total).
    for c in 0..CATEGORIES {
        let _ = writeln!(program, "-0.05 cat(p, Cat{c})");
    }

    let mut evidence = String::new();
    let mut paper_id = 0usize;
    let mut person_id = 0usize;
    for k in 0..clusters {
        let n = (papers_per_cluster / 2).max(2) + rng.gen_range(0..papers_per_cluster.max(1));
        let papers: Vec<usize> = (0..n).map(|i| paper_id + i).collect();
        paper_id += n;
        // Every paper exists and has an author.
        let cluster_authors = 1 + n / 3;
        for (i, &p) in papers.iter().enumerate() {
            let _ = writeln!(evidence, "paper(P{p}, Url{p})");
            let a = person_id + (i % cluster_authors);
            let _ = writeln!(evidence, "wrote(A{a}, P{p})");
            // Some papers have a second author in the same cluster.
            if rng.gen_bool(0.4) {
                let b = person_id + rng.gen_range(0..cluster_authors);
                if b != a {
                    let _ = writeln!(evidence, "wrote(A{b}, P{p})");
                }
            }
        }
        person_id += cluster_authors;
        // Citation tree + a few extra intra-cluster edges.
        for i in 1..n {
            let j = rng.gen_range(0..i);
            let _ = writeln!(evidence, "refers(P{}, P{})", papers[i], papers[j]);
        }
        for _ in 0..n / 4 {
            let i = rng.gen_range(0..n);
            let j = rng.gen_range(0..n);
            if i != j {
                let _ = writeln!(evidence, "refers(P{}, P{})", papers[i], papers[j]);
            }
        }
        // Label a fraction of the papers; bias each cluster toward one
        // category.
        let dominant = k % CATEGORIES;
        for &p in &papers {
            if rng.gen_bool(label_frac) {
                let c = if rng.gen_bool(0.8) {
                    dominant
                } else {
                    rng.gen_range(0..CATEGORIES)
                };
                let _ = writeln!(evidence, "cat(P{p}, Cat{c})");
            }
        }
    }
    crate::parse("RC", &program, &evidence)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tuffy_grounder::{ground_bottom_up, GroundingMode};
    use tuffy_mrf::ComponentSet;
    use tuffy_rdbms::OptimizerConfig;

    #[test]
    fn matches_table1_shape() {
        let d = rc(20, 6, 1);
        assert_eq!(d.program.predicates.len(), 4); // Table 1: 4 relations
        assert_eq!(d.program.rules.len(), 15); // Table 1: 15 rules
        assert!(d.evidence.len() > 100);
    }

    #[test]
    fn grounds_into_many_components() {
        let d = rc(15, 5, 2);
        let g = ground_bottom_up(
            &d.program,
            &d.evidence,
            GroundingMode::LazyClosure,
            &OptimizerConfig::default(),
        )
        .unwrap();
        let cs = ComponentSet::detect(&g.mrf);
        // One component per cluster, give or take fully labeled clusters.
        assert!(
            cs.nontrivial_count() >= 8,
            "components = {}",
            cs.nontrivial_count()
        );
        assert!(g.stats.clauses > 50);
    }

    #[test]
    fn deterministic_by_seed() {
        let a = rc(5, 4, 9);
        let b = rc(5, 4, 9);
        assert_eq!(a.evidence.len(), b.evidence.len());
        assert_eq!(a.program.stats(&a.evidence), b.program.stats(&b.evidence));
    }
}
