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

use crate::config::{Architecture, PartitionStrategy, TuffyConfig};
use crate::engine::Engine;
use crate::snapshot::{EngineCounters, Snapshot};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tuffy_grounder::GroundingMode;
use tuffy_rdbms::{DiskModel, JoinAlgorithmPolicy, JoinOrderPolicy, OptimizerConfig};
use tuffy_search::mcsat::McSatParams;
use tuffy_search::WalkSatParams;
use tuffy_store::bytes::{ByteReader, ByteWriter};
use tuffy_store::{load_generation, save_generation, StoreError};

/// File name of the generation inside a store directory.
pub const GENERATION_FILE: &str = "generation.tst";

/// Version of the engine-config blob inside the store's `config`
/// segment (independent of the store's container version). Version 2
/// appended the folded WAL sequence; version-1 files (written before
/// the WAL existed) still load, with an implied fold of 0.
const CONFIG_VERSION: u32 = 2;

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
        gen.evidence,
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
const ARCH_HYBRID: u8 = 0;
const ARCH_IN_MEMORY: u8 = 1;
const ARCH_RDBMS_ONLY: u8 = 2;
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
    w.put_u8(c.optimizer.use_stats as u8);
    // Reserved: the removed `replan` knob lived here. Written 0, ignored
    // on read, so files from before its removal still load.
    w.put_u8(0);
    w.put_u64(c.optimizer.mem_budget_bytes as u64);
    w.put_u8(match c.architecture {
        Architecture::Hybrid => ARCH_HYBRID,
        Architecture::InMemory => ARCH_IN_MEMORY,
        Architecture::RdbmsOnly => ARCH_RDBMS_ONLY,
    });
    match c.partitioning {
        PartitionStrategy::None => w.put_u8(PART_NONE),
        PartitionStrategy::Components => w.put_u8(PART_COMPONENTS),
        PartitionStrategy::Budget(bytes) => {
            w.put_u8(PART_BUDGET);
            w.put_u64(bytes as u64);
        }
    }
    w.put_u64(c.threads as u64);
    w.put_u64(c.ground_threads as u64);
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
    w.put_u64(c.disk.read_latency_ns);
    w.put_u64(c.disk.write_latency_ns);
    w.put_u64(c.pool_pages as u64);
    w.put_u64(folded_seq);
    w.finish()
}

/// Decodes the config blob written by [`encode_config`], returning the
/// config and the folded WAL sequence (0 for version-1 blobs, which
/// predate the WAL).
pub(crate) fn decode_config(bytes: &[u8]) -> Result<(TuffyConfig, u64), StoreError> {
    let mut r = ByteReader::new(bytes, "config");
    let version = r.get_u32()?;
    if version != 1 && version != CONFIG_VERSION {
        return Err(StoreError::malformed(format!(
            "unsupported engine-config version {version}"
        )));
    }
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
    let use_stats = tag_bool(r.get_u8()?, "use_stats")?;
    r.get_u8()?; // reserved (see `encode_config`)
    let optimizer = OptimizerConfig {
        join_order,
        join_algorithm,
        pushdown,
        use_stats,
        mem_budget_bytes: r.get_len()?,
    };
    let architecture = match r.get_u8()? {
        ARCH_HYBRID => Architecture::Hybrid,
        ARCH_IN_MEMORY => Architecture::InMemory,
        ARCH_RDBMS_ONLY => Architecture::RdbmsOnly,
        t => return Err(StoreError::malformed(format!("bad architecture tag {t}"))),
    };
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
    let config = TuffyConfig {
        grounding,
        optimizer,
        architecture,
        partitioning,
        threads: r.get_len()?,
        ground_threads: r.get_len()?,
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
        disk: DiskModel {
            read_latency_ns: r.get_u64()?,
            write_latency_ns: r.get_u64()?,
        },
        pool_pages: r.get_len()?,
    };
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

    #[test]
    fn config_round_trips_every_field() {
        let config = TuffyConfig {
            grounding: GroundingMode::Eager,
            optimizer: OptimizerConfig {
                join_order: JoinOrderPolicy::Program,
                join_algorithm: JoinAlgorithmPolicy::NestedLoopOnly,
                pushdown: false,
                use_stats: false,
                mem_budget_bytes: 123_456,
            },
            architecture: Architecture::RdbmsOnly,
            partitioning: PartitionStrategy::Budget(987_654),
            threads: 7,
            ground_threads: 3,
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
            disk: DiskModel {
                read_latency_ns: 100,
                write_latency_ns: 200,
            },
            pool_pages: 256,
        };
        let (back, folded) = decode_config(&encode_config(&config, 42)).unwrap();
        assert_eq!(folded, 42);
        assert_eq!(back.grounding, config.grounding);
        assert_eq!(back.optimizer, config.optimizer);
        assert_eq!(back.architecture, config.architecture);
        assert_eq!(back.partitioning, config.partitioning);
        assert_eq!(back.threads, config.threads);
        assert_eq!(back.ground_threads, config.ground_threads);
        assert_eq!(back.search.max_flips, config.search.max_flips);
        assert_eq!(back.search.max_tries, config.search.max_tries);
        assert_eq!(back.search.noise.to_bits(), config.search.noise.to_bits());
        assert_eq!(back.search.seed, config.search.seed);
        assert_eq!(back.mcsat.samples, config.mcsat.samples);
        assert_eq!(
            back.mcsat.p_anneal.to_bits(),
            config.mcsat.p_anneal.to_bits()
        );
        assert_eq!(back.mcsat.seed, config.mcsat.seed);
        assert_eq!(back.partition_rounds, config.partition_rounds);
        assert_eq!(back.disk, config.disk);
        assert_eq!(back.pool_pages, config.pool_pages);
    }

    #[test]
    fn default_config_round_trips() {
        let config = TuffyConfig::default();
        let (back, folded) = decode_config(&encode_config(&config, 0)).unwrap();
        assert_eq!(folded, 0);
        assert_eq!(back.optimizer, config.optimizer);
        assert_eq!(back.architecture, config.architecture);
        assert_eq!(back.partitioning, config.partitioning);
    }

    #[test]
    fn version_1_blob_without_fold_still_decodes() {
        // A pre-WAL (version-1) blob is the version-2 encoding minus the
        // trailing folded-sequence u64, with the version field rewritten.
        let mut bytes = encode_config(&TuffyConfig::default(), 0);
        bytes.truncate(bytes.len() - 8);
        bytes[..4].copy_from_slice(&1u32.to_le_bytes());
        let (back, folded) = decode_config(&bytes).unwrap();
        assert_eq!(folded, 0);
        assert_eq!(back.optimizer, TuffyConfig::default().optimizer);
    }

    #[test]
    fn reserved_byte_written_by_older_builds_is_ignored() {
        // Builds that still had the `replan` knob wrote it (default 1)
        // where the reserved byte now sits.
        let mut bytes = encode_config(&TuffyConfig::default(), 0);
        assert_eq!(bytes[9], 0, "reserved byte is written as 0");
        bytes[9] = 1;
        let (back, _) = decode_config(&bytes).unwrap();
        assert_eq!(back.optimizer, OptimizerConfig::default());
    }

    #[test]
    fn bad_tag_is_typed_error() {
        let mut bytes = encode_config(&TuffyConfig::default(), 0);
        bytes[4] = 0xff; // grounding tag
        match decode_config(&bytes) {
            Err(StoreError::Malformed { .. }) => {}
            Err(e) => panic!("expected Malformed, got {e}"),
            Ok(_) => panic!("expected Malformed, got a config"),
        }
    }
}
