//! End-to-end property test: on random small programs, MAP inference
//! returns a world whose independently re-evaluated cost matches the
//! reported cost, hard rules hold whenever the search satisfies them at
//! all, and top-down grounding builds the same network as bottom-up.

use proptest::prelude::*;
use tuffy::{Tuffy, TuffyConfig, WalkSatParams};
use tuffy_grounder::ground_top_down;

/// A random classification-flavored program: link evidence + label rules.
fn program_source(
    n_items: usize,
    links: &[(usize, usize)],
    labels: &[(usize, usize)],
    w_prop: f64,
    w_excl: f64,
) -> (String, String) {
    let program = format!(
        "*link(item, item)\n\
         tag(item, label)\n\
         {w_excl:.2} tag(i, l1), tag(i, l2) => l1 = l2\n\
         {w_prop:.2} tag(i, l), link(i, j) => tag(j, l)\n\
         tag(i, l1), tag(i, l2), link(i, i) => l1 = l2.\n"
    );
    let mut evidence = String::new();
    for (a, b) in links {
        evidence.push_str(&format!("link(I{}, I{})\n", a % n_items, b % n_items));
    }
    for (i, l) in labels {
        evidence.push_str(&format!("tag(I{}, L{})\n", i % n_items, l % 3));
    }
    (program, evidence)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn map_inference_is_internally_consistent(
        links in proptest::collection::vec((0usize..6, 0usize..6), 0..10),
        labels in proptest::collection::vec((0usize..6, 0usize..3), 1..6),
        w_prop in 0.5f64..3.0,
        w_excl in 0.5f64..3.0,
        seed in any::<u64>(),
    ) {
        let (src, ev) = program_source(6, &links, &labels, w_prop, w_excl);
        // Random labels may double-label an item; that is fine (soft
        // exclusion) but evidence contradictions are impossible here
        // (only positive evidence).
        let cfg = TuffyConfig {
            search: WalkSatParams {
                max_flips: 20_000,
                seed,
                ..Default::default()
            },
            ..Default::default()
        };
        let t = Tuffy::from_sources(&src, &ev).unwrap().with_config(cfg);

        // Cross-check the reported cost against a from-scratch evaluation
        // of the returned world over a fresh grounding.
        let r = t.open_session().unwrap().map().unwrap();
        let g = t.ground().unwrap();
        let mut truth = vec![false; g.registry.len()];
        for atom in r.true_atoms() {
            let args: Vec<u32> = atom.args.iter().map(|s| s.0).collect();
            let id = g.registry.get(atom.predicate, &args).expect("known atom");
            truth[id as usize] = true;
        }
        let recomputed = g.mrf.cost(&truth);
        prop_assert_eq!(recomputed, r.cost, "reported vs recomputed cost");

        // The trace's final cost equals the result cost.
        prop_assert_eq!(r.trace.final_cost().unwrap(), r.cost);

        // Top-down grounding (the Alchemy baseline's) agrees on the
        // ground network.
        let g2 = ground_top_down(t.program(), t.evidence(), cfg.grounding).unwrap();
        prop_assert_eq!(g2.mrf.clauses().len(), g.mrf.clauses().len());
        prop_assert_eq!(g2.registry.len(), g.registry.len());
    }
}
