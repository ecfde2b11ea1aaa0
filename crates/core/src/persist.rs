//! Durable engines: [`Engine::save`] / [`Engine::load`].
//!
//! Grounding dominates engine start-up; saving the grounded generation
//! and warm-starting from disk skips it entirely. The heavy lifting —
//! segment file format, checksums, atomic replace, structural codecs for
//! program/evidence/registry/MRF — lives in [`tuffy_store`]; this module
//! contributes the engine-level pieces the store must stay ignorant of:
//! the [`TuffyConfig`] byte codec (the store carries it as an opaque,
//! checksummed segment) and the [`Engine`] assembly on load, which
//! rebuilds the base [`Snapshot`] *without grounding*
//! (so [`Engine::groundings_performed`] reads 0 on a loaded engine).
//!
//! A loaded engine's snapshot answers queries **bit-identically** to the
//! engine that saved it: the store round-trips every atom id and every
//! `f64` bit, and query seeds derive from query parameters, never from
//! how the grounding was obtained.

use crate::config::{PartitionStrategy, TuffyConfig};
use crate::engine::Engine;
use crate::snapshot::{EngineCounters, Snapshot};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tuffy_grounder::GroundingMode;
use tuffy_rdbms::{JoinAlgorithmPolicy, JoinOrderPolicy, OptimizerConfig};
use tuffy_search::mcsat::McSatParams;
use tuffy_search::WalkSatParams;
use tuffy_store::bytes::{ByteReader, ByteWriter};
use tuffy_store::{load_generation, save_generation, StoreError};

/// File name of the generation inside a store directory.
pub const GENERATION_FILE: &str = "generation.tst";

/// Version of the engine-config blob inside the store's `config`
/// segment (independent of the store's container version). Version 2
/// appended the folded WAL sequence; version-1 files (written before
/// the WAL existed) still load, with an implied fold of 0. Version 3
/// dropped a reserved byte and the fields of the removed engine modes;
/// version-1 and -2 files still load if they name the hybrid
/// architecture. The optimizer byte after `pushdown` is reserved in
/// every version (see [`decode_config`]).
const CONFIG_VERSION: u32 = 3;

impl Engine {
    /// Saves this engine's base generation into `dir` (created if
    /// absent) as [`GENERATION_FILE`], atomically: a crash mid-save
    /// leaves the previous generation (or nothing), never a torn file.
    /// Returns the path written.
    pub fn save(&self, dir: &Path) -> Result<PathBuf, StoreError> {
        save_snapshot(&self.snapshot(), dir, 0)
    }

    /// Loads an engine saved by [`Engine::save`] from `dir` — no
    /// re-grounding, no parsing; milliseconds instead of the original
    /// grounding time. The loaded engine's base snapshot answers queries
    /// bit-identically to the saved one's.
    pub fn load(dir: &Path) -> Result<Engine, StoreError> {
        Ok(load_with_folded_seq(dir)?.0)
    }
}

/// Saves `snapshot` as `dir`'s base generation, recording `folded_seq`
/// as the last WAL sequence folded into it (0 for a plain save). The
/// durable engine checkpoints through this.
pub(crate) fn save_snapshot(
    snapshot: &Snapshot,
    dir: &Path,
    folded_seq: u64,
) -> Result<PathBuf, StoreError> {
    std::fs::create_dir_all(dir)
        .map_err(|e| StoreError::io(format!("create store dir {}", dir.display()), e))?;
    let path = dir.join(GENERATION_FILE);
    save_generation(
        &path,
        snapshot.program(),
        snapshot.evidence(),
        snapshot.grounding(),
        &encode_config(snapshot.config(), folded_seq),
    )?;
    Ok(path)
}

/// Loads a base generation plus the WAL sequence it has folded.
pub(crate) fn load_with_folded_seq(dir: &Path) -> Result<(Engine, u64), StoreError> {
    let gen = load_generation(&dir.join(GENERATION_FILE))?;
    let (config, folded_seq) = decode_config(&gen.config)?;
    let engine = Engine::from_loaded_parts(Snapshot::root(
        Arc::new(gen.program),
        Arc::new(gen.evidence),
        config,
        Arc::new(gen.result),
        EngineCounters::for_loaded_engine(),
    ));
    Ok((engine, folded_seq))
}

/// Enum tags. Every `match` below is exhaustive *without* a wildcard on
/// the encode side, so adding a variant upstream is a compile error here
/// — the tag table cannot silently drift.
const GROUNDING_LAZY: u8 = 0;
const GROUNDING_EAGER: u8 = 1;
const PART_NONE: u8 = 0;
const PART_COMPONENTS: u8 = 1;
const PART_BUDGET: u8 = 2;
const JO_AUTO: u8 = 0;
const JO_PROGRAM: u8 = 1;
const JA_AUTO: u8 = 0;
const JA_NESTED_LOOP: u8 = 1;

/// Encodes a full [`TuffyConfig`] (plus the folded WAL sequence) as the
/// store's opaque config blob.
pub(crate) fn encode_config(c: &TuffyConfig, folded_seq: u64) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(CONFIG_VERSION);
    w.put_u8(match c.grounding {
        GroundingMode::LazyClosure => GROUNDING_LAZY,
        GroundingMode::Eager => GROUNDING_EAGER,
    });
    // Optimizer knobs.
    w.put_u8(match c.optimizer.join_order {
        JoinOrderPolicy::Auto => JO_AUTO,
        JoinOrderPolicy::Program => JO_PROGRAM,
    });
    w.put_u8(match c.optimizer.join_algorithm {
        JoinAlgorithmPolicy::Auto => JA_AUTO,
        JoinAlgorithmPolicy::NestedLoopOnly => JA_NESTED_LOOP,
    });
    w.put_u8(c.optimizer.pushdown as u8);
    w.put_u8(1); // reserved
    w.put_u64(c.optimizer.mem_budget_bytes as u64);
    match c.partitioning {
        PartitionStrategy::None => w.put_u8(PART_NONE),
        PartitionStrategy::Components => w.put_u8(PART_COMPONENTS),
        PartitionStrategy::Budget(bytes) => {
            w.put_u8(PART_BUDGET);
            w.put_u64(bytes as u64);
        }
    }
    // Builds before the one `threads` setting kept a second slot for
    // grounding; both carry it, so they read it back unchanged.
    w.put_u64(c.threads as u64);
    w.put_u64(c.threads as u64);
    w.put_u64(c.search.max_flips);
    w.put_u32(c.search.max_tries);
    w.put_f64(c.search.noise);
    w.put_u64(c.search.seed);
    w.put_u64(c.mcsat.samples as u64);
    w.put_u64(c.mcsat.burn_in as u64);
    w.put_u64(c.mcsat.sample_sat_steps);
    w.put_f64(c.mcsat.p_anneal);
    w.put_f64(c.mcsat.temperature);
    w.put_u64(c.mcsat.seed);
    w.put_u64(c.partition_rounds as u64);
    w.put_u64(folded_seq);
    w.finish()
}

/// Decodes the config blob written by [`encode_config`], or by a
/// version-1 or -2 encoder, returning the config and the folded WAL
/// sequence (0 for version-1 blobs, which predate the WAL).
pub(crate) fn decode_config(bytes: &[u8]) -> Result<(TuffyConfig, u64), StoreError> {
    let mut r = ByteReader::new(bytes, "config");
    let version = r.get_u32()?;
    if !(1..=CONFIG_VERSION).contains(&version) {
        return Err(StoreError::malformed(format!(
            "unsupported engine-config version {version}"
        )));
    }
    let legacy = version < 3;
    let grounding = match r.get_u8()? {
        GROUNDING_LAZY => GroundingMode::LazyClosure,
        GROUNDING_EAGER => GroundingMode::Eager,
        t => return Err(StoreError::malformed(format!("bad grounding tag {t}"))),
    };
    let join_order = match r.get_u8()? {
        JO_AUTO => JoinOrderPolicy::Auto,
        JO_PROGRAM => JoinOrderPolicy::Program,
        t => return Err(StoreError::malformed(format!("bad join-order tag {t}"))),
    };
    let join_algorithm = match r.get_u8()? {
        JA_AUTO => JoinAlgorithmPolicy::Auto,
        JA_NESTED_LOOP => JoinAlgorithmPolicy::NestedLoopOnly,
        t => return Err(StoreError::malformed(format!("bad join-algorithm tag {t}"))),
    };
    let pushdown = tag_bool(r.get_u8()?, "pushdown")?;
    // Reserved: the removed `use_stats` knob. Written as 1, its old
    // default, so older builds plan as they did; read as a bool, so a
    // corrupt byte is still an error, and discarded.
    tag_bool(r.get_u8()?, "reserved optimizer byte")?;
    if legacy {
        r.get_u8()?; // reserved: the removed `replan` knob
    }
    let optimizer = OptimizerConfig {
        join_order,
        join_algorithm,
        pushdown,
        mem_budget_bytes: r.get_len()?,
    };
    if legacy {
        let removed = match r.get_u8()? {
            0 => None, // hybrid, the one architecture the engine runs
            1 => Some("in-memory (the Alchemy baseline)"),
            2 => Some("rdbms-only (the Tuffy-mm baseline)"),
            t => return Err(StoreError::malformed(format!("bad architecture tag {t}"))),
        };
        if let Some(name) = removed {
            return Err(StoreError::malformed(format!(
                "engine config selects the {name} architecture, which this build no longer runs"
            )));
        }
    }
    let partitioning = match r.get_u8()? {
        PART_NONE => PartitionStrategy::None,
        PART_COMPONENTS => PartitionStrategy::Components,
        PART_BUDGET => PartitionStrategy::Budget(r.get_len()?),
        t => {
            return Err(StoreError::malformed(format!(
                "bad partition-strategy tag {t}"
            )))
        }
    };
    // The search and grounding thread slots fold into the one setting:
    // every core (0) if either asked for it, the larger count otherwise.
    let (search_threads, ground_threads) = (r.get_len()?, r.get_len()?);
    let threads = if search_threads == 0 || ground_threads == 0 {
        0
    } else {
        search_threads.max(ground_threads)
    };
    let config = TuffyConfig {
        grounding,
        optimizer,
        partitioning,
        threads,
        search: WalkSatParams {
            max_flips: r.get_u64()?,
            max_tries: r.get_u32()?,
            noise: r.get_f64()?,
            seed: r.get_u64()?,
        },
        mcsat: McSatParams {
            samples: r.get_len()?,
            burn_in: r.get_len()?,
            sample_sat_steps: r.get_u64()?,
            p_anneal: r.get_f64()?,
            temperature: r.get_f64()?,
            seed: r.get_u64()?,
        },
        partition_rounds: r.get_len()?,
    };
    if legacy {
        // The simulated disk's read and write latencies and the buffer
        // pool size, read only by the removed RDBMS-resident search.
        for _ in 0..3 {
            r.get_u64()?;
        }
    }
    let folded_seq = if version >= 2 { r.get_u64()? } else { 0 };
    r.expect_end()?;
    Ok((config, folded_seq))
}

fn tag_bool(v: u8, what: &str) -> Result<bool, StoreError> {
    match v {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(StoreError::malformed(format!("{what}: bad bool byte {v}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A config with no field at its default.
    fn every_field_config() -> TuffyConfig {
        TuffyConfig {
            grounding: GroundingMode::Eager,
            optimizer: OptimizerConfig {
                join_order: JoinOrderPolicy::Program,
                join_algorithm: JoinAlgorithmPolicy::NestedLoopOnly,
                pushdown: false,
                mem_budget_bytes: 123_456,
            },
            partitioning: PartitionStrategy::Budget(987_654),
            threads: 7,
            search: WalkSatParams {
                max_flips: 12_345,
                max_tries: 9,
                noise: 0.125,
                seed: 0xdead_beef,
            },
            mcsat: McSatParams {
                samples: 11,
                burn_in: 2,
                sample_sat_steps: 333,
                p_anneal: 0.75,
                temperature: 1.5,
                seed: 77,
            },
            partition_rounds: 5,
        }
    }

    /// The version-2 blob the previous encoder wrote for
    /// [`every_field_config`] with the hybrid architecture, the SSD disk
    /// model (100 µs reads and writes), a 64-page pool and fold 9.
    const V2_EVERY_FIELD: &str = "\
        0200000001010100000040e2010000000000000206120f000000000007000000\
        000000000300000000000000393000000000000009000000000000000000c03f\
        efbeadde000000000b0000000000000002000000000000004d01000000000000\
        000000000000e83f000000000000f83f4d000000000000000500000000000000\
        a086010000000000a08601000000000040000000000000000900000000000000";
    /// Offsets of the version-2 reserved and architecture bytes.
    const V2_RESERVED: usize = 9;
    const V2_ARCH: usize = 18;
    /// Offset of the reserved optimizer byte, in every version: builds
    /// that still had the statistics knob wrote it there.
    const STATS_RESERVED: usize = 8;

    fn from_hex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect()
    }

    fn v2_blob() -> Vec<u8> {
        from_hex(V2_EVERY_FIELD)
    }

    /// `Debug` prints every field, each `f64` in a form that round-trips
    /// its bits.
    fn same_config(a: &TuffyConfig, b: &TuffyConfig) -> bool {
        format!("{a:?}") == format!("{b:?}")
    }

    #[test]
    fn config_round_trips_every_field() {
        let config = every_field_config();
        let (back, folded) = decode_config(&encode_config(&config, 42)).unwrap();
        assert_eq!(folded, 42);
        assert!(same_config(&back, &config), "{back:?}");
    }

    #[test]
    fn default_config_round_trips() {
        let config = TuffyConfig::default();
        let (back, folded) = decode_config(&encode_config(&config, 0)).unwrap();
        assert_eq!(folded, 0);
        assert_eq!(back.optimizer, config.optimizer);
        assert_eq!(back.partitioning, config.partitioning);
    }

    #[test]
    fn version_2_blob_decodes_to_the_same_config_and_fold() {
        let (back, folded) = decode_config(&v2_blob()).unwrap();
        let (v3, v3_folded) = decode_config(&encode_config(&every_field_config(), 9)).unwrap();
        assert!(same_config(&back, &v3), "{back:?}");
        assert_eq!((folded, v3_folded), (9, 9));
    }

    /// `decode_config`'s error, which must be `Malformed`.
    fn malformed(bytes: &[u8]) -> String {
        match decode_config(bytes) {
            Err(e @ StoreError::Malformed { .. }) => e.to_string(),
            Err(e) => panic!("expected Malformed, got {e}"),
            Ok(_) => panic!("expected Malformed, got a config"),
        }
    }

    /// The version-3 blob the build with two thread settings wrote for
    /// its default config (`threads` 1, `ground_threads` 0) at fold 5.
    const V3_TWO_THREAD_SLOTS: &str = "\
        0300000000000001010000000000000000010100000000000000000000000000\
        0000a08601000000000001000000000000000000e03f2a00000000000000c800\
        0000000000001400000000000000d007000000000000000000000000e03f0000\
        00000000e03f2a0000000000000003000000000000000500000000000000";
    /// Offsets of its search and grounding thread slots.
    const V3_THREADS: [usize; 2] = [18, 26];

    #[test]
    fn two_thread_slots_fold_into_one_setting() {
        let blob = from_hex(V3_TWO_THREAD_SLOTS);
        // The old defaults, one search thread and every core for
        // grounding, reopen as this build's default: every core.
        let (back, folded) = decode_config(&blob).unwrap();
        assert!(same_config(&back, &TuffyConfig::default()), "{back:?}");
        assert_eq!(folded, 5);
        let with_slots = |search: u64, ground: u64| {
            let mut b = blob.clone();
            b[V3_THREADS[0]..V3_THREADS[0] + 8].copy_from_slice(&search.to_le_bytes());
            b[V3_THREADS[1]..V3_THREADS[1] + 8].copy_from_slice(&ground.to_le_bytes());
            decode_config(&b).unwrap().0.threads
        };
        assert_eq!(with_slots(0, 3), 0);
        assert_eq!(with_slots(2, 3), 3);
        assert_eq!(with_slots(4, 1), 4);
        // This build writes its one setting, 0, into both slots.
        let mut mine = blob;
        mine[V3_THREADS[0]] = 0;
        assert_eq!(encode_config(&TuffyConfig::default(), 5), mine);
    }

    #[test]
    fn version_2_blob_of_a_removed_architecture_is_typed_error() {
        for (arch, name) in [(1, "in-memory"), (2, "rdbms-only")] {
            let mut bytes = v2_blob();
            bytes[V2_ARCH] = arch;
            let err = malformed(&bytes);
            assert!(err.contains(name), "{err}");
        }
    }

    #[test]
    fn version_1_blob_without_fold_still_decodes() {
        // A pre-WAL (version-1) blob is the version-2 encoding minus the
        // trailing folded-sequence u64, with the version field rewritten.
        let mut bytes = v2_blob();
        bytes.truncate(bytes.len() - 8);
        bytes[..4].copy_from_slice(&1u32.to_le_bytes());
        let (back, folded) = decode_config(&bytes).unwrap();
        assert_eq!(folded, 0);
        assert!(same_config(&back, &every_field_config()), "{back:?}");
    }

    #[test]
    fn later_versions_are_rejected() {
        let mut bytes = encode_config(&TuffyConfig::default(), 0);
        bytes[..4].copy_from_slice(&4u32.to_le_bytes());
        assert!(malformed(&bytes).contains("version 4"));
    }

    #[test]
    fn reserved_byte_written_by_older_builds_is_ignored() {
        // Builds that still had the `replan` knob wrote it (default 1)
        // where versions 1 and 2 reserve a byte.
        let mut bytes = v2_blob();
        assert_eq!(bytes[V2_RESERVED], 0, "reserved byte is written as 0");
        bytes[V2_RESERVED] = 1;
        let (back, _) = decode_config(&bytes).unwrap();
        assert!(same_config(&back, &every_field_config()), "{back:?}");
    }

    #[test]
    fn reserved_stats_byte_of_either_value_decodes_to_the_same_config() {
        // A blob written by an older build with statistics switched off
        // carries 0 where this build writes 1.
        let bytes = encode_config(&every_field_config(), 9);
        assert_eq!(bytes[STATS_RESERVED], 1, "reserved byte is written as 1");
        let mut off = bytes.clone();
        off[STATS_RESERVED] = 0;
        let (back, folded) = decode_config(&off).unwrap();
        let (v3, v3_folded) = decode_config(&bytes).unwrap();
        assert!(same_config(&back, &v3), "{back:?}");
        assert_eq!((folded, v3_folded), (9, 9));
        off[STATS_RESERVED] = 2;
        assert!(malformed(&off).contains("reserved optimizer byte"));
    }

    #[test]
    fn bad_tag_is_typed_error() {
        let mut bytes = encode_config(&TuffyConfig::default(), 0);
        bytes[4] = 0xff; // grounding tag
        malformed(&bytes);
    }
}
