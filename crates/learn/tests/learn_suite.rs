//! Integration suite for weight learning: fit determinism across thread
//! counts, the no-regrounding pin, hard-rule exclusion, feasible-set
//! clamping, marginal-result caching, and label resolution.

use tuffy::{GroundingMode, McSatParams, Tuffy, TuffyConfig, WalkSatParams, Weight};
use tuffy_datagen::rc_with_labels;
use tuffy_learn::{DiagonalNewton, Learner, TrainingSet, VotedPerceptron, WeightLearner};
use tuffy_mln::evidence::Evidence;
use tuffy_mln::ground::GroundAtom;

fn quick_learner() -> Learner {
    Learner {
        iters: 3,
        search: WalkSatParams {
            max_flips: 20_000,
            max_tries: 1,
            noise: 0.5,
            seed: 7,
        },
        mcsat: McSatParams {
            samples: 30,
            burn_in: 5,
            sample_sat_steps: 500,
            p_anneal: 0.5,
            temperature: 0.5,
            seed: 11,
        },
    }
}

/// An RC learning setup (engine grounded on unlabeled evidence + the
/// train labels as ground truth) at a given search thread count and
/// partitioning strategy.
fn rc_setup_with(
    threads: usize,
    partitioning: tuffy::PartitionStrategy,
) -> (tuffy::Engine, TrainingSet) {
    let d = rc_with_labels(4, 4, 0.6, 5);
    let split = d.split_labels(0.7, 0.0, 9);
    // Eager grounding: with every label withheld, lazy closure has no
    // active atoms to start from — a learning engine must materialize
    // the query atoms it is supposed to learn about.
    let config = TuffyConfig {
        threads,
        partitioning,
        grounding: GroundingMode::Eager,
        ..TuffyConfig::default()
    };
    let engine = Tuffy::from_parts(d.program.clone(), split.unlabeled)
        .with_config(config)
        .build_engine()
        .unwrap();
    let training = TrainingSet::from_labels(&engine.snapshot(), &split.train_labels);
    (engine, training)
}

fn rc_setup(threads: usize) -> (tuffy::Engine, TrainingSet) {
    rc_setup_with(threads, tuffy::PartitionStrategy::Components)
}

/// A fit trajectory reduced to exact bits for cross-run comparison.
fn trajectory_bits(fit: &tuffy_learn::FitResult) -> Vec<Vec<u64>> {
    fit.trace
        .iter()
        .map(|it| {
            it.weights
                .iter()
                .chain(it.gradient.iter())
                .chain(std::iter::once(&it.grad_norm))
                .map(|v| v.to_bits())
                .collect()
        })
        .collect()
}

#[test]
fn fit_trajectories_bit_identical_across_threads() {
    // Inference routes on the partition strategy alone: MAP through the
    // scheduler, marginals through one sampler under `Components` and
    // per partition under `Budget` (the budget is large enough that
    // components still ride whole). Each route is bit-identical at
    // every thread count, so each fit is too.
    for (learner, partitioning) in [
        (
            Box::new(VotedPerceptron::default()) as Box<dyn WeightLearner>,
            tuffy::PartitionStrategy::Components,
        ),
        (
            Box::new(DiagonalNewton::default()),
            tuffy::PartitionStrategy::Components,
        ),
        (
            Box::new(DiagonalNewton::default()),
            tuffy::PartitionStrategy::Budget(64 << 20),
        ),
    ] {
        let mut reference: Option<(Vec<Vec<u64>>, Vec<Weight>)> = None;
        for threads in [1usize, 2, 4, 8] {
            let (engine, training) = rc_setup_with(threads, partitioning);
            let fit = quick_learner()
                .fit(&engine, &training, learner.as_ref())
                .unwrap();
            let bits = trajectory_bits(&fit);
            match &reference {
                None => reference = Some((bits, fit.weights)),
                Some((ref_bits, ref_weights)) => {
                    assert_eq!(
                        ref_bits,
                        &bits,
                        "{} trajectory diverged at {threads} threads",
                        learner.name()
                    );
                    assert_eq!(ref_weights, &fit.weights);
                }
            }
        }
    }
}

#[test]
fn fit_never_regrounds() {
    let (engine, training) = rc_setup(2);
    assert_eq!(engine.groundings_performed(), 1);
    let vp = quick_learner()
        .fit(&engine, &training, &VotedPerceptron::default())
        .unwrap();
    let dn = quick_learner()
        .fit(&engine, &training, &DiagonalNewton::default())
        .unwrap();
    // The whole fit loop — relearn forks, MAP runs, marginal runs — must
    // reuse the single grounding, on both the input engine and the
    // fitted ones it forked.
    assert_eq!(engine.groundings_performed(), 1);
    assert_eq!(vp.engine.groundings_performed(), 1);
    assert_eq!(dn.engine.groundings_performed(), 1);
    assert_eq!(vp.trace.len(), 3);
    assert_eq!(dn.trace.len(), 3);
}

#[test]
fn hard_rules_are_never_updated() {
    let (engine, training) = rc_setup(1);
    let hard_indices: Vec<usize> = engine
        .program()
        .rules
        .iter()
        .enumerate()
        .filter(|(_, r)| r.weight.is_hard())
        .map(|(i, _)| i)
        .collect();
    assert!(!hard_indices.is_empty(), "RC has a hard rule");
    let fit = quick_learner()
        .fit(&engine, &training, &VotedPerceptron::default())
        .unwrap();
    for &i in &hard_indices {
        assert_eq!(fit.weights[i], engine.program().rules[i].weight);
        for it in &fit.trace {
            assert_eq!(it.gradient[i], 0.0, "hard rule {i} carried gradient");
        }
    }
    // The fitted engine's program reflects the learned weights.
    assert_eq!(
        fit.engine
            .program()
            .rules
            .iter()
            .map(|r| r.weight)
            .collect::<Vec<_>>(),
        fit.weights
    );
}

#[test]
fn diagonal_newton_stays_in_the_feasible_set() {
    // RC carries negative per-category priors; MC-SAT rejects negative
    // clause weights, so the marginal-based learner must clamp every
    // soft weight to ≥ min_weight before the first sample and after
    // every step — the fit erroring would mean an unclamped weight
    // reached the sampler.
    let (engine, training) = rc_setup(1);
    let dn = DiagonalNewton::default();
    let fit = quick_learner().fit(&engine, &training, &dn).unwrap();
    for (w, rule) in fit.weights.iter().zip(engine.program().rules.iter()) {
        if let Weight::Soft(v) = w {
            assert!(
                *v >= dn.min_weight,
                "soft weight {v} below min_weight {}",
                dn.min_weight
            );
        } else {
            assert!(rule.weight.is_hard());
        }
    }
}

#[test]
fn perceptron_pushes_overweighted_rules_down() {
    // One soft unit rule `0.5 q(x)` and a labeled world that sets every
    // q atom *false*: data counts are 0, MAP counts are maximal, so the
    // gradient is negative and the averaged weight must drop.
    let program = "*item(thing)\nq(thing)\n0.5 q(x)\n";
    let evidence = "item(A)\nitem(B)\nitem(C)\nitem(D)\n";
    let engine = Tuffy::from_sources(program, evidence)
        .unwrap()
        .build_engine()
        .unwrap();
    let n = engine.snapshot().grounding().mrf.num_atoms();
    assert!(n > 0, "the prior must ground over the item constants");
    let training = TrainingSet::from_world(vec![false; n]);
    let fit = Learner {
        iters: 4,
        ..quick_learner()
    }
    .fit(&engine, &training, &VotedPerceptron::default())
    .unwrap();
    let Weight::Soft(w) = fit.weights[0] else {
        panic!("soft rule stayed soft")
    };
    assert!(w < 0.5, "weight should drop below its 0.5 start, got {w}");
    assert!(fit.trace[0].grad_norm > 0.0);
}

#[test]
fn marginal_stats_are_cached_per_generation_and_params() {
    // The raw RC program carries negative per-category priors, which
    // MC-SAT rejects; relearn into the feasible set first (exactly what
    // a marginal-based fit does before sampling).
    let (raw, _) = rc_setup(1);
    let feasible = |floor: f64| -> Vec<Weight> {
        raw.program()
            .rules
            .iter()
            .map(|r| match r.weight {
                Weight::Soft(v) => Weight::Soft(v.max(floor)),
                hard => hard,
            })
            .collect()
    };
    let engine = raw.relearn(&feasible(0.25)).unwrap();
    let snapshot = engine.snapshot();
    let params = quick_learner().mcsat;
    let hits_before = engine.marginal_cache_hits();
    let first = snapshot.marginal_stats(&params).unwrap();
    assert_eq!(engine.marginal_cache_hits(), hits_before);
    let second = snapshot.marginal_stats(&params).unwrap();
    assert_eq!(engine.marginal_cache_hits(), hits_before + 1);
    assert!(std::sync::Arc::ptr_eq(&first, &second));

    // Different parameters miss; a re-issued identical query hits again.
    let other = McSatParams {
        seed: params.seed + 1,
        ..params
    };
    let third = snapshot.marginal_stats(&other).unwrap();
    assert_eq!(engine.marginal_cache_hits(), hits_before + 1);
    assert!(!std::sync::Arc::ptr_eq(&first, &third));
    snapshot.marginal_stats(&params).unwrap();
    assert_eq!(engine.marginal_cache_hits(), hits_before + 2);

    // A relearned generation must not serve the old generation's
    // samples: same params, new generation, fresh computation.
    let relearned = engine.relearn(&feasible(0.5)).unwrap();
    let fourth = relearned.snapshot().marginal_stats(&params).unwrap();
    assert_eq!(engine.marginal_cache_hits(), hits_before + 2);
    assert!(!std::sync::Arc::ptr_eq(&first, &fourth));
}

#[test]
fn durable_relearn_persists_learned_weights_across_reopen() {
    let (engine, training) = rc_setup(1);
    let fit = quick_learner()
        .fit(&engine, &training, &VotedPerceptron::default())
        .unwrap();

    let dir = std::env::temp_dir().join(format!("tuffy-learn-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut durable = tuffy::DurableEngine::create(engine, &dir, 0).unwrap();
    let before = durable.generation();
    durable.relearn(&fit.weights).unwrap();
    assert!(durable.generation() > before, "relearn advances the head");
    assert_eq!(durable.wal_records(), 0, "relearn folds into the base");
    drop(durable);

    // Reopen: the learned weights are in the base generation, no WAL
    // replay needed, and the recovered program serves them verbatim.
    let (recovered, report) = tuffy::DurableEngine::open(&dir, 0).unwrap();
    assert_eq!(report.replayed, 0);
    let got: Vec<Weight> = recovered
        .engine()
        .program()
        .rules
        .iter()
        .map(|r| r.weight)
        .collect();
    assert_eq!(got, fit.weights);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn training_set_resolves_labels_through_the_registry() {
    let d = rc_with_labels(3, 4, 0.6, 5);
    let split = d.split_labels(0.5, 0.0, 3);
    let engine = Tuffy::from_parts(d.program.clone(), split.unlabeled)
        .with_config(TuffyConfig {
            grounding: GroundingMode::Eager,
            ..TuffyConfig::default()
        })
        .build_engine()
        .unwrap();
    let snapshot = engine.snapshot();
    let training = TrainingSet::from_labels(&snapshot, &split.train_labels);
    assert_eq!(
        training.world().len(),
        snapshot.grounding().mrf.num_atoms(),
        "one truth value per query atom"
    );
    assert_eq!(
        training.labeled() + training.unresolved(),
        split.train_labels.len()
    );
    assert!(training.labeled() > 0, "some labels must resolve");
    // Every resolved positive label reads back true from the world.
    let grounding = snapshot.grounding();
    for ev in &split.train_labels {
        let args: Vec<u32> = ev.atom.args.iter().map(|s| s.0).collect();
        if let Some(id) = grounding.registry.get(ev.atom.predicate, &args) {
            assert_eq!(training.world()[id as usize], ev.positive);
        }
    }

    // A label naming an atom outside the generation counts as
    // unresolved instead of corrupting the world.
    let mut program = d.program.clone();
    let cat = program.predicate_by_name("cat").unwrap();
    let ghost_paper = program.symbols.intern("GhostPaper");
    let ghost_cat = program.symbols.intern("Cat0");
    let ghost = Evidence {
        atom: GroundAtom::new(cat, vec![ghost_paper, ghost_cat]),
        positive: true,
    };
    let t2 = TrainingSet::from_labels(&snapshot, &[ghost]);
    assert_eq!(t2.labeled(), 0);
    assert_eq!(t2.unresolved(), 1);
}
