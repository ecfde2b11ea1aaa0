//! Durable generations: `Engine::save` → `Engine::load` must revive a
//! grounded engine **exactly** — same deep grounding fingerprint (atom
//! numbering, clause arenas, weights, provenance, base cost), and
//! bit-identical query answers (costs compared via `f64::to_bits`) —
//! across all four testbed families and randomized dataset shapes.
//! Corrupted store files (truncated, bit-flipped, bad magic) must be
//! rejected with a typed [`tuffy::StoreError`], never a panic and never
//! a silently wrong engine. The out-of-core path composes: a generation
//! grounded under a spill budget saves and loads like any other.

mod common;

use common::fingerprint;
use proptest::prelude::*;
use std::path::PathBuf;
use tuffy::{Engine, Query, Tuffy, TuffyConfig, WalkSatParams};
use tuffy_datagen::Dataset;

/// MAP answer reduced to exact bits: hard cost, soft-cost bit pattern,
/// and the true-atom set.
fn map_bits(engine: &Engine) -> (u64, u64, usize, Vec<String>) {
    let answer = engine.snapshot().query(&Query::map()).expect("MAP query");
    let map = answer.as_map().expect("MAP answer");
    let mut atoms: Vec<String> = map.true_atoms().iter().map(|a| format!("{a:?}")).collect();
    atoms.sort();
    (
        map.cost.hard,
        map.cost.soft.to_bits(),
        map.true_atoms().len(),
        atoms,
    )
}

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tuffy-store-test-{}-{tag}", std::process::id()))
}

fn small_config() -> TuffyConfig {
    TuffyConfig {
        search: WalkSatParams {
            max_flips: 5_000,
            seed: 7,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn build(ds: Dataset, config: TuffyConfig) -> Engine {
    Tuffy::from_parts(ds.program, ds.evidence)
        .with_config(config)
        .build_engine()
        .expect("grounding")
}

/// Saves, reloads, and checks the deep fingerprint plus a bit-identical
/// MAP answer. Returns the saved file's bytes for corruption tests.
fn assert_round_trip(tag: &str, engine: &Engine) -> Vec<u8> {
    let dir = scratch_dir(tag);
    let _ = std::fs::remove_dir_all(&dir);
    let path = engine.save(&dir).expect("save");
    let loaded = Engine::load(&dir).expect("load");

    let before = engine.snapshot();
    let after = loaded.snapshot();
    assert_eq!(
        fingerprint(before.grounding()),
        fingerprint(after.grounding()),
        "{tag}: grounding fingerprint changed across save/load"
    );
    // The revived engine serves generation 1 and performed no grounding.
    assert_eq!(loaded.generations_created(), 1);
    assert_eq!(loaded.groundings_performed(), 0);
    assert_eq!(
        map_bits(engine),
        map_bits(&loaded),
        "{tag}: MAP answer not bit-identical after load"
    );

    let bytes = std::fs::read(&path).expect("read stored file");
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

#[test]
fn er_round_trips_exactly() {
    assert_round_trip("er", &build(tuffy_datagen::er(8, 24, 7), small_config()));
}

#[test]
fn lp_round_trips_exactly() {
    assert_round_trip("lp", &build(tuffy_datagen::lp(4, 6, 7), small_config()));
}

#[test]
fn rc_round_trips_exactly() {
    assert_round_trip("rc", &build(tuffy_datagen::rc(6, 8, 7), small_config()));
}

#[test]
fn ie_round_trips_exactly() {
    assert_round_trip("ie", &build(tuffy_datagen::ie(24, 12, 7), small_config()));
}

/// A generation grounded out-of-core (spill budget set) is the same
/// generation: it saves, loads, and answers identically.
#[test]
fn out_of_core_generation_round_trips() {
    let config = TuffyConfig {
        optimizer: tuffy::OptimizerConfig {
            mem_budget_bytes: 4 * 1024,
            ..Default::default()
        },
        ..small_config()
    };
    let budgeted = build(tuffy_datagen::er(8, 24, 7), config);
    assert_round_trip("er-spill", &budgeted);
    // And it is the *same* grounding the unbounded path produces.
    let unbounded = build(tuffy_datagen::er(8, 24, 7), small_config());
    assert_eq!(
        fingerprint(budgeted.snapshot().grounding()),
        fingerprint(unbounded.snapshot().grounding()),
        "spill budget changed the grounding"
    );
}

/// Every single-byte corruption is caught: flip one byte anywhere in the
/// stored file and `Engine::load` must return a typed error — never
/// panic, never load garbage.
#[test]
fn corrupted_store_is_rejected_not_served() {
    let engine = build(tuffy_datagen::rc(4, 5, 3), small_config());
    let dir = scratch_dir("corrupt");
    let _ = std::fs::remove_dir_all(&dir);
    let path = engine.save(&dir).expect("save");
    let good = std::fs::read(&path).expect("read");

    // Sample byte positions across the whole file (header, TOC, every
    // segment region) rather than exhaustively rewriting a large file.
    let stride = (good.len() / 64).max(1);
    for pos in (0..good.len()).step_by(stride) {
        let mut bad = good.clone();
        bad[pos] ^= 0x40;
        std::fs::write(&path, &bad).expect("write corrupted");
        match Engine::load(&dir) {
            Err(_) => {}
            Ok(_) => panic!("bit flip at byte {pos} went undetected"),
        }
    }

    // Truncation at any prefix length is caught too.
    for frac in [0, 1, 2, 3] {
        let cut = good.len() * frac / 4 + 7;
        std::fs::write(&path, &good[..cut.min(good.len() - 1)]).expect("write truncated");
        assert!(
            Engine::load(&dir).is_err(),
            "truncation to {cut} bytes went undetected"
        );
    }

    // The pristine bytes still load.
    std::fs::write(&path, &good).expect("restore");
    Engine::load(&dir).expect("pristine file must load");
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Save→load round-trips exactly on randomized dataset shapes from
    /// every generator family, including out-of-core groundings.
    #[test]
    fn random_generations_round_trip(
        family in 0usize..4,
        size in 3usize..9,
        seed in 0u64..1_000,
        budget_sel in 0usize..3,
    ) {
        let budget = [0usize, 512, 4096][budget_sel];
        let ds = match family {
            0 => tuffy_datagen::er(size, 20, seed),
            1 => tuffy_datagen::lp(size.min(5), 4, seed),
            2 => tuffy_datagen::rc(size, 5, seed),
            _ => tuffy_datagen::ie(4 * size, 10, seed),
        };
        let config = TuffyConfig {
            optimizer: tuffy::OptimizerConfig {
                mem_budget_bytes: budget,
                ..Default::default()
            },
            ..small_config()
        };
        let tag = format!("prop-{family}-{size}-{seed}-{budget}");
        assert_round_trip(&tag, &build(ds, config));
    }
}
