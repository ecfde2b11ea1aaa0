//! Weight learning: planted-weight recovery and held-out MAP accuracy
//! on RC, both against the number of fit iterations.
//!
//! Two questions the learning stack must answer, each posed to the
//! optimizer whose objective matches it:
//!
//! * **Can it recover known weights?** Plant distinct soft weights on
//!   the RC program (strong category exclusion, graded propagation
//!   rules, weak priors), sample a training world from the planted
//!   model's marginals, reset every soft weight to a uniform 0.2, and
//!   fit with **diagonal Newton** — the marginal-based learner whose
//!   fixed point is exactly the moment match `E_w[n] = n(y)`. The
//!   relative L2 error `‖w − w*‖/‖w*‖` over the soft rules should fall
//!   well below its initialization value. (The voted perceptron cannot
//!   recover weights here by construction: the planted MAP world is the
//!   same all-false assignment over a wide region of weight space, so
//!   MAP labels carry almost no weight information — which is why the
//!   recovery column is Newton's.)
//! * **Does learning generalize?** Train-DB/test-DB: fit on one
//!   fully-labeled RC instance (half the labels anchored as evidence,
//!   half as fit targets) with the **voted perceptron** — whose
//!   objective is exactly MAP agreement — and score MAP category
//!   predictions on a separately generated RC instance the learner
//!   never saw (per (paper, category) atom, all ten categories per
//!   scored paper). Fitting starts from the uniform all-1.0 weights, so
//!   the trace shows exactly what it buys over the uniform baseline.
//!
//! The whole experiment grounds each engine exactly once — every
//! reweighting goes through [`tuffy::Engine::relearn`] — and asserts so.
//!
//! Writes `BENCH_learn.json` at the repository root
//! (`cargo run --release -p tuffy-bench -- learn`; `--smoke` runs tiny
//! instances and skips the JSON write).

use crate::format::TextTable;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tuffy::{Engine, GroundingMode, McSatParams, Tuffy, TuffyConfig, WalkSatParams, Weight};
use tuffy_learn::{DiagonalNewton, Learner, TrainingSet, VotedPerceptron};

/// Fit iterations measured at full scale.
pub const ITERS: usize = 16;

/// Planted weights for the four structural RC rules (category
/// exclusion, co-author propagation, citation propagation both ways);
/// the ten per-category priors are planted at [`PLANTED_PRIOR`].
pub const PLANTED_STRUCTURAL: [f64; 4] = [1.5, 0.5, 1.0, 0.75];
/// Planted weight for the per-category priors.
pub const PLANTED_PRIOR: f64 = 0.05;
/// Uniform soft-weight initialization the recovery fit starts from.
pub const RECOVERY_INIT: f64 = 0.2;

/// One recovery measurement: relative weight error after `iter` updates.
pub struct RecoveryPoint {
    /// Updates applied so far (0 = uniform initialization).
    pub iter: usize,
    /// Diagonal-Newton `‖w − w*‖/‖w*‖` over soft rules.
    pub rel_err: f64,
}

/// One generalization measurement: held-out accuracy after `iter` updates.
pub struct AccuracyPoint {
    /// Updates applied so far (0 = the raw program weights).
    pub iter: usize,
    /// Held-out per-(paper, category) MAP accuracy of the fit so far.
    pub accuracy: f64,
}

/// The full experiment: both traces plus the RC uniform baseline.
pub struct LearnReport {
    /// Planted-weight recovery trace (diagonal Newton).
    pub recovery: Vec<RecoveryPoint>,
    /// Held-out accuracy trace (voted perceptron).
    pub held_out: Vec<AccuracyPoint>,
    /// Held-out accuracy with every soft weight at 1.0.
    pub uniform_baseline: f64,
}

fn search_params(smoke: bool) -> WalkSatParams {
    WalkSatParams {
        max_flips: if smoke { 20_000 } else { 200_000 },
        max_tries: 1,
        noise: 0.5,
        seed: crate::SEED,
    }
}

/// MC-SAT parameters sized so SampleSAT actually mixes: the step budget
/// must cover the atom count several times over, or marginals freeze at
/// the initial assignment.
fn mcsat_params(smoke: bool) -> McSatParams {
    McSatParams {
        samples: if smoke { 20 } else { 60 },
        burn_in: if smoke { 5 } else { 10 },
        sample_sat_steps: if smoke { 2_000 } else { 30_000 },
        seed: crate::SEED,
        ..Default::default()
    }
}

fn iters(smoke: bool) -> usize {
    if smoke {
        3
    } else {
        ITERS
    }
}

fn fit_config(smoke: bool) -> Learner {
    Learner {
        iters: iters(smoke),
        search: search_params(smoke),
        mcsat: mcsat_params(smoke),
    }
}

/// Per-rule weight vector with every soft rule set to `value`.
fn uniform_weights(engine: &Engine, value: f64) -> Vec<Weight> {
    engine
        .program()
        .rules
        .iter()
        .map(|r| match r.weight {
            Weight::Soft(_) => Weight::Soft(value),
            hard => hard,
        })
        .collect()
}

/// `‖w − w*‖/‖w*‖` over the soft rules (`w` padded per-rule as the
/// trace records it; hard entries are skipped).
fn rel_err(weights: &[f64], planted: &[Weight]) -> f64 {
    let mut num = 0.0;
    let mut den = 0.0;
    for (&w, p) in weights.iter().zip(planted.iter()) {
        if let Weight::Soft(target) = p {
            num += (w - target) * (w - target);
            den += target * target;
        }
    }
    (num / den).sqrt()
}

/// The eager-grounding config learning runs under (the engine must
/// materialize the query atoms the withheld labels talk about).
fn learn_config(smoke: bool) -> TuffyConfig {
    TuffyConfig {
        grounding: GroundingMode::Eager,
        ..crate::tuffy_config(search_params(smoke).max_flips)
    }
}

/// Planted-weight recovery: labels are a world sampled from the planted
/// model's marginals, fitting starts from uniform [`RECOVERY_INIT`].
fn measure_recovery(smoke: bool) -> Vec<RecoveryPoint> {
    let d = if smoke {
        tuffy_datagen::rc_with_labels(4, 4, 0.6, crate::SEED)
    } else {
        tuffy_datagen::rc_with_labels(30, 8, 0.6, crate::SEED)
    };
    let engine = Tuffy::from_parts(d.program, d.evidence)
        .with_config(learn_config(smoke))
        .build_engine()
        .expect("grounding");

    // Distinct positive planted values (positive keeps MC-SAT applicable
    // on the planted model); the category-exclusion clauses carry
    // negative literals, so an all-positive weighting still has the
    // frustration that keeps the planted marginals informative.
    let mut soft_ordinal = 0usize;
    let planted: Vec<Weight> = engine
        .program()
        .rules
        .iter()
        .map(|r| match r.weight {
            Weight::Soft(_) => {
                let v = if soft_ordinal < PLANTED_STRUCTURAL.len() {
                    PLANTED_STRUCTURAL[soft_ordinal]
                } else {
                    PLANTED_PRIOR
                };
                soft_ordinal += 1;
                Weight::Soft(v)
            }
            hard => hard,
        })
        .collect();
    let planted_engine = engine.relearn(&planted).expect("relearn planted");
    // The training world is a per-atom sample from the planted model's
    // marginals: its clause-satisfaction counts track the planted
    // expectations (up to atom-correlation bias), which is the moment
    // diagonal Newton matches. Rounding at 0.5 instead — or taking the
    // MAP world — is scale-free in the weights and would leave them
    // unidentifiable.
    let samples = planted_engine
        .snapshot()
        .marginal_stats(&mcsat_params(smoke))
        .expect("planted marginals");
    let mut rng = StdRng::seed_from_u64(crate::SEED);
    let training = TrainingSet::from_world(
        samples
            .probs
            .iter()
            .map(|&p| rng.gen_bool(p.clamp(0.0, 1.0)))
            .collect(),
    );

    let start = engine
        .relearn(&uniform_weights(&engine, RECOVERY_INIT))
        .expect("relearn uniform");
    let learner = DiagonalNewton {
        max_step: 0.1,
        ..DiagonalNewton::default()
    };
    let fit = fit_config(smoke)
        .fit(&start, &training, &learner)
        .expect("dn fit");
    assert_eq!(engine.groundings_performed(), 1, "fit must never re-ground");

    let mut points: Vec<RecoveryPoint> = fit
        .trace
        .iter()
        .map(|it| RecoveryPoint {
            iter: it.iter,
            rel_err: rel_err(&it.weights, &planted),
        })
        .collect();
    let final_w: Vec<f64> = fit
        .weights
        .iter()
        .map(|w| match w {
            Weight::Soft(v) => *v,
            _ => 0.0,
        })
        .collect();
    points.push(RecoveryPoint {
        iter: iters(smoke),
        rel_err: rel_err(&final_w, &planted),
    });
    points
}

/// Held-out per-(paper, category) accuracy of `engine`'s MAP world:
/// every held-out label `cat(P, c)` scores all `CATEGORIES` atoms of
/// paper `P` — `cat(P, c)` should be true, the other nine false.
fn held_out_accuracy(
    engine: &Engine,
    held_out: &[tuffy_mln::evidence::Evidence],
    search: &WalkSatParams,
) -> f64 {
    let snapshot = engine.snapshot();
    let program = engine.program();
    let cat_pred = program.predicate_by_name("cat").expect("cat predicate");
    let categories: Vec<u32> = (0..tuffy_datagen::rc::CATEGORIES)
        .map(|c| {
            program
                .symbols
                .get(&format!("Cat{c}"))
                .expect("category symbol")
                .0
        })
        .collect();
    let (world, _) = snapshot.map_world(search);
    let registry = &snapshot.grounding().registry;
    let mut correct = 0usize;
    let mut total = 0usize;
    for ev in held_out {
        let paper = ev.atom.args[0].0;
        let labeled = ev.atom.args[1].0;
        for &cat in &categories {
            let Some(id) = registry.get(cat_pred, &[paper, cat]) else {
                continue;
            };
            total += 1;
            if world[id as usize] == (cat == labeled) {
                correct += 1;
            }
        }
    }
    assert!(total > 0, "held-out labels must resolve to query atoms");
    correct as f64 / total as f64
}

/// Held-out generalization, in the classic train-DB/test-DB shape: fit
/// on one fully-labeled RC instance, evaluate the learned weights on a
/// *separately generated* instance the learner never saw.
///
/// On the train DB, half the labels are *anchors* — fed to the engine
/// as evidence, so propagation has something to propagate and MAP is
/// not category-symmetric — and the other half are the *fit targets*
/// the perceptron fits (all papers are labeled, so the closed-world
/// training world is exact, not an artifact of missing labels). On the
/// test DB, half the labels anchor the serving engine and the other
/// half are scored. Fitting starts from the uniform all-1.0 weights —
/// the same weights the baseline serves — so the trace shows exactly
/// what learning buys over it.
fn measure_held_out(smoke: bool) -> (Vec<AccuracyPoint>, f64) {
    let (train_d, test_d) = if smoke {
        (
            tuffy_datagen::rc_with_labels(3, 4, 1.0, crate::SEED),
            tuffy_datagen::rc_with_labels(3, 4, 1.0, crate::SEED + 1),
        )
    } else {
        (
            tuffy_datagen::rc_with_labels(10, 6, 1.0, crate::SEED),
            tuffy_datagen::rc_with_labels(10, 6, 1.0, crate::SEED + 1),
        )
    };
    let tr = train_d.split_labels(0.5, 0.0, crate::SEED);
    let learn_engine = Tuffy::from_parts(train_d.program.clone(), tr.train)
        .with_config(learn_config(smoke))
        .build_engine()
        .expect("grounding train DB");
    // Fit targets: the non-anchor half of the labels (the anchor half
    // grounds as evidence and is skipped by label resolution).
    let training = TrainingSet::from_labels(&learn_engine.snapshot(), &tr.held_out);
    assert!(training.labeled() > 0, "fit-target labels must resolve");

    let te = test_d.split_labels(0.5, 0.0, crate::SEED);
    let test_engine = Tuffy::from_parts(test_d.program.clone(), te.train)
        .with_config(learn_config(smoke))
        .build_engine()
        .expect("grounding test DB");

    let search = search_params(smoke);
    let uniform = uniform_weights(&learn_engine, 1.0);
    let baseline = held_out_accuracy(
        &test_engine.relearn(&uniform).expect("relearn baseline"),
        &te.held_out,
        &search,
    );

    let start = learn_engine.relearn(&uniform).expect("relearn start");
    let vp = VotedPerceptron {
        rate: 0.01,
        max_step: 0.1,
    };
    let fit = fit_config(smoke)
        .fit(&start, &training, &vp)
        .expect("vp fit");
    assert_eq!(
        learn_engine.groundings_performed(),
        1,
        "fit must never re-ground"
    );

    let mut points: Vec<AccuracyPoint> = fit
        .trace
        .iter()
        .map(|it| {
            let weights: Vec<Weight> = learn_engine
                .program()
                .rules
                .iter()
                .zip(it.weights.iter())
                .map(|(r, &v)| match r.weight {
                    Weight::Soft(_) => Weight::Soft(v),
                    hard => hard,
                })
                .collect();
            let staged = test_engine.relearn(&weights).expect("relearn iterate");
            AccuracyPoint {
                iter: it.iter,
                accuracy: held_out_accuracy(&staged, &te.held_out, &search),
            }
        })
        .collect();
    points.push(AccuracyPoint {
        iter: iters(smoke),
        accuracy: held_out_accuracy(
            &test_engine.relearn(&fit.weights).expect("relearn fitted"),
            &te.held_out,
            &search,
        ),
    });
    assert_eq!(
        test_engine.groundings_performed(),
        1,
        "evaluation must never re-ground"
    );
    (points, baseline)
}

/// Runs both measurements.
pub fn measure(smoke: bool) -> LearnReport {
    let recovery = measure_recovery(smoke);
    let (held_out, uniform_baseline) = measure_held_out(smoke);
    LearnReport {
        recovery,
        held_out,
        uniform_baseline,
    }
}

/// Renders the measurements as the `BENCH_learn.json` document.
pub fn to_json(report: &LearnReport) -> String {
    let mut body = String::from("{\n  \"bench\": \"weight_learning\",\n");
    body.push_str("  \"rc_planted_recovery_dn\": [\n");
    for (i, p) in report.recovery.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"iter\": {}, \"rel_err\": {:.6}}}{}\n",
            p.iter,
            p.rel_err,
            if i + 1 == report.recovery.len() {
                ""
            } else {
                ","
            }
        ));
    }
    body.push_str("  ],\n");
    body.push_str(&format!(
        "  \"rc_uniform_baseline_accuracy\": {:.6},\n",
        report.uniform_baseline
    ));
    body.push_str("  \"rc_held_out_accuracy_vp\": [\n");
    for (i, p) in report.held_out.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"iter\": {}, \"accuracy\": {:.6}}}{}\n",
            p.iter,
            p.accuracy,
            if i + 1 == report.held_out.len() {
                ""
            } else {
                ","
            }
        ));
    }
    body.push_str("  ]\n}\n");
    body
}

/// Builds the learning report; unless `smoke`, also writes
/// `BENCH_learn.json` at the repository root.
pub fn report(smoke: bool) -> String {
    let report = measure(smoke);
    if !smoke {
        let json = to_json(&report);
        if let Err(e) = std::fs::write("BENCH_learn.json", &json) {
            eprintln!("warning: could not write BENCH_learn.json: {e}");
        } else {
            eprintln!("(written to BENCH_learn.json)");
        }
    }
    let mut out = String::from(
        "Weight learning on RC: planted-weight recovery (diagonal Newton\n\
         vs a world sampled from the planted marginals) and held-out MAP\n\
         accuracy (voted perceptron fit on one labeled RC instance,\n\
         scored on a separately generated one) vs fit iterations. Every\n\
         reweighting forks the grounding through Engine::relearn — one\n\
         grounding per engine for the whole experiment; regenerate with\n\
         `cargo run --release -p tuffy-bench -- learn`.\n\n",
    );
    let mut t = TextTable::new(vec!["iter", "rel err (dn)"]);
    for p in &report.recovery {
        t.row(vec![p.iter.to_string(), format!("{:.4}", p.rel_err)]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nRC held-out accuracy (uniform-1.0 baseline: {:.4})\n",
        report.uniform_baseline
    ));
    let mut t = TextTable::new(vec!["iter", "accuracy (vp)"]);
    for p in &report.held_out {
        t.row(vec![p.iter.to_string(), format!("{:.4}", p.accuracy)]);
    }
    out.push_str(&t.render());
    out
}
