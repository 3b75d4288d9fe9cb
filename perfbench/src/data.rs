//! Seeded data generators and the per-workload fixture: what each workload
//! stores, how it is built into a shard set, and the exact answers the
//! clients verify replies against.

use crate::oracle::{answer_all, Agg, Answer, Query};
use crate::Workload;
use leco_columnar::{Encoding, TableFileOptions};
use leco_datasets::tables::{sensor_table, SensorDistribution};
use leco_ingest::{IngestConfig, LiveTable};
use leco_kvstore::{IndexBlockFormat, StoreOptions};
use leco_obs::Stopwatch;
use leco_server::{shard_for_key, ShardSet, ShardSetBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Shards in every fixture.
pub const SHARDS: usize = 2;
/// Name of the static table `SCAN`s address.
pub const SENSORS: &str = "sensors";
/// Name of the live table `PUT`/`DEL`/`SCAN` address.
pub const EVENTS: &str = "events";
/// Schema of both tables.
pub const COLUMNS: [&str; 3] = ["ts", "id", "val"];
/// Distinct ids of the live table.
pub const EVENT_IDS: u64 = 64;
/// Block cache of each shard's store: larger than all of its data.
pub const CACHE_BYTES: usize = 64 << 20;

/// Ingest policy of the live table, on every shard and in every workload.
pub fn ingest_config(auto_compact: bool) -> IngestConfig {
    IngestConfig {
        segment_rows: 64,
        compact_min_segments: 2,
        row_group_size: 8192,
        auto_compact,
        key_col: 0,
    }
}

/// A 64-bit mixer (splitmix64 finaliser) for values derived from a seed
/// and an index without any state.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A deterministic generator for one purpose of one run.
pub fn rng_for(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(mix(seed ^ mix(stream)))
}

/// The key-value records of a fixture: record `i` has key `key(2i)` and a
/// 40–56 byte value derived from `(seed, i)`; odd numbers are never
/// stored, so `key(2i + 1)` is a guaranteed miss.
#[derive(Debug, Clone, Copy)]
pub struct KvSpace {
    /// Records stored.
    pub n: u64,
    /// Seed the values derive from.
    pub seed: u64,
}

impl KvSpace {
    /// The 16-byte key of number `k` (`k = 2i` for record `i`).
    pub fn key(k: u64) -> String {
        format!("k{k:015}")
    }

    /// The value of record `i`.
    pub fn value(&self, i: u64) -> String {
        const ALPHABET: &[u8; 32] = b"abcdefghijklmnopqrstuvwxyz234567";
        let h = mix(self.seed ^ mix(i));
        let len = 40 + (h % 17) as usize;
        let mut state = h;
        (0..len)
            .map(|j| {
                if j % 12 == 0 {
                    state = mix(state);
                }
                ALPHABET[((state >> (5 * (j % 12))) & 31) as usize] as char
            })
            .collect()
    }

    /// Every record, sorted by key.
    pub fn records(&self) -> Vec<(Vec<u8>, Vec<u8>)> {
        (0..self.n)
            .map(|i| (Self::key(2 * i).into_bytes(), self.value(i).into_bytes()))
            .collect()
    }
}

/// Query classes of the analytic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanClass {
    /// `COUNT` over a 0.1% `ts` window: zone-map and model-inverse pushdown.
    Narrow,
    /// `GROUPBY id AGG avg val` over a 10–40% `ts` window.
    GroupBy,
    /// Unfiltered `SUM val`: a full decode.
    Full,
}

impl ScanClass {
    /// All classes, in metric order.
    pub const ALL: [ScanClass; 3] = [ScanClass::Narrow, ScanClass::GroupBy, ScanClass::Full];

    /// Metric-name suffix.
    pub fn name(self) -> &'static str {
        match self {
            ScanClass::Narrow => "narrow",
            ScanClass::GroupBy => "groupby",
            ScanClass::Full => "full",
        }
    }
}

/// The static `(ts, id, val)` table of a fixture, kept raw for the oracle,
/// with a pool of queries whose exact answers were computed at setup.
pub struct Sensors {
    /// Smallest timestamp.
    pub ts_min: u64,
    /// Largest timestamp.
    pub ts_max: u64,
    /// `(class, query, exact answer)`; the `Full` entry is the whole-table
    /// `SUM val`.
    pub pool: Vec<(ScanClass, Query, Answer)>,
}

impl Sensors {
    /// A random query of `class` (fresh window).
    pub fn query(&self, class: ScanClass, rng: &mut StdRng) -> Query {
        let span = self.ts_max - self.ts_min;
        let window = |width: u64, rng: &mut StdRng| {
            let lo = self.ts_min + rng.gen_range(0..=span - width);
            Some((lo, lo + width))
        };
        match class {
            ScanClass::Narrow => Query {
                window: window(span / 1000, rng),
                agg: Agg::Count,
            },
            ScanClass::GroupBy => Query {
                window: window((span as f64 * rng.gen_range(0.10..0.40)) as u64, rng),
                agg: Agg::GroupAvg,
            },
            ScanClass::Full => Query {
                window: None,
                agg: Agg::Sum,
            },
        }
    }

    /// A random pool entry of `class`.
    pub fn verified(&self, class: ScanClass, rng: &mut StdRng) -> &(ScanClass, Query, Answer) {
        let of_class: Vec<&(ScanClass, Query, Answer)> =
            self.pool.iter().filter(|(c, _, _)| *c == class).collect();
        of_class[rng.gen_range(0..of_class.len())]
    }
}

/// Sizes of one workload's fixture.
pub struct Spec {
    /// Key-value records (none where no traffic reads them).
    pub kv_records: u64,
    /// Rows of the static table.
    pub sensor_rows: usize,
    /// Rows preloaded into the live table.
    pub preload_rows: u64,
}

impl Spec {
    /// The fixture of `workload`.
    pub fn of(workload: Workload) -> Spec {
        match workload {
            Workload::ScanAnalytics => Spec {
                kv_records: 0,
                sensor_rows: 2_000_000,
                preload_rows: 0,
            },
            Workload::IngestMixed => Spec {
                kv_records: 20_000,
                sensor_rows: 0,
                preload_rows: 1_000_000,
            },
        }
    }
}

/// Queries with oracle answers, per class.
const POOL_PER_CLASS: usize = 16;

/// Wall-clock split of one setup.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    /// Generating records, columns and oracle answers.
    pub generate_s: f64,
    /// Live-table preload and flush.
    pub preload_s: f64,
    /// `ShardSetBuilder::build`: kv load, LeCo table encode, live-table open.
    pub build_s: f64,
}

/// A built fixture, before its shard set is handed to the server.
pub struct Fixture {
    /// Directory holding every shard file.
    pub dir: PathBuf,
    /// The built shard set (taken by the server).
    pub set: Option<ShardSet>,
    /// The key-value records.
    pub kv: KvSpace,
    /// The static table (absent when it has no rows).
    pub sensors: Option<Sensors>,
    /// The live table's log of rows acknowledged so far.
    pub events: Arc<crate::events::EventLog>,
    /// Index block bytes over every shard's store.
    pub index_bytes: u64,
    /// Stored ÷ raw bytes of the workload's primary data, right after setup.
    pub space_ratio: f64,
    /// Where setup time went.
    pub times: SetupTimes,
}

/// Generate, preload and build the fixture of `workload` under `dir`.
pub fn build(workload: Workload, seed: u64, dir: &Path) -> std::io::Result<Fixture> {
    let spec = Spec::of(workload);
    std::fs::create_dir_all(dir)?;
    let mut times = SetupTimes::default();

    let sw = Stopwatch::start();
    let kv = KvSpace {
        n: spec.kv_records,
        seed,
    };
    let records = kv.records();
    let table = (spec.sensor_rows > 0)
        .then(|| sensor_table(spec.sensor_rows, SensorDistribution::Correlated, seed));
    let sensors = table.as_ref().map(|t| {
        let ts_min = *t.ts.iter().min().expect("rows > 0");
        let ts_max = *t.ts.iter().max().expect("rows > 0");
        let mut sensors = Sensors {
            ts_min,
            ts_max,
            pool: Vec::new(),
        };
        let mut rng = rng_for(seed, 21);
        let mut pool: Vec<(ScanClass, Query)> = Vec::new();
        for class in [ScanClass::Narrow, ScanClass::GroupBy] {
            for _ in 0..POOL_PER_CLASS {
                pool.push((class, sensors.query(class, &mut rng)));
            }
        }
        pool.push((ScanClass::Full, sensors.query(ScanClass::Full, &mut rng)));
        let queries: Vec<Query> = pool.iter().map(|&(_, q)| q).collect();
        let answers = answer_all(&t.ts, &t.id, &t.val, &queries);
        sensors.pool = pool
            .into_iter()
            .zip(answers)
            .map(|((c, q), a)| (c, q, a))
            .collect();
        sensors
    });
    let events = Arc::new(crate::events::EventLog::preload(seed, spec.preload_rows));
    times.generate_s = sw.elapsed_secs();

    // Preload each shard's slice of the live table (rows routed by the key
    // column's hash, as `PUT` routes them) with the compactor off, then
    // flush: one compacted file per shard, whatever the timing.
    let sw = Stopwatch::start();
    if spec.preload_rows > 0 {
        let cols = events.columns();
        for k in 0..SHARDS {
            let mine: Vec<usize> = (0..cols[0].len())
                .filter(|&r| shard_for_key(&cols[0][r].to_le_bytes(), SHARDS) == k)
                .collect();
            let slice: Vec<Vec<u64>> = cols
                .iter()
                .map(|c| mine.iter().map(|&r| c[r]).collect())
                .collect();
            let live = LiveTable::open(live_dir(dir, k), &COLUMNS, ingest_config(false))?;
            live.append_columns(&slice)?;
            live.flush()?;
        }
    }
    times.preload_s = sw.elapsed_secs();

    let sw = Stopwatch::start();
    let mut builder = ShardSetBuilder::new(dir, SHARDS)
        .store_options(StoreOptions {
            index_format: IndexBlockFormat::Leco,
            block_cache_bytes: CACHE_BYTES,
        })
        .table_options(TableFileOptions {
            encoding: Encoding::Leco,
            row_group_size: 100_000,
            ..Default::default()
        })
        .records(records);
    if let Some(t) = table {
        builder = builder.table(SENSORS, &COLUMNS, vec![t.ts, t.id, t.val]);
    }
    if spec.preload_rows > 0 {
        builder = builder.live_table(EVENTS, &COLUMNS, ingest_config(true));
    }
    let set = builder.build()?;
    times.build_s = sw.elapsed_secs();

    let index_bytes: u64 = set
        .shards
        .iter()
        .map(|s| s.store.index_size_bytes() as u64)
        .sum();
    let space_ratio = match workload {
        Workload::ScanAnalytics => {
            let stored: u64 = set
                .shards
                .iter()
                .map(|s| s.tables[SENSORS].file_size_bytes())
                .sum();
            stored as f64 / (spec.sensor_rows as f64 * 24.0)
        }
        Workload::IngestMixed => live_bytes(dir)? as f64 / (spec.preload_rows as f64 * 24.0),
    };
    Ok(Fixture {
        dir: dir.to_path_buf(),
        set: Some(set),
        kv,
        sensors,
        events,
        index_bytes,
        space_ratio,
        times,
    })
}

/// Write every file under `dir` back to disk, so no writeback of the
/// fixture runs during the timed window.
pub fn sync_tree(dir: &Path) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            sync_tree(&path)?;
        } else {
            std::fs::File::open(&path)?.sync_all()?;
        }
    }
    std::fs::File::open(dir)?.sync_all()
}

/// Directory of shard `k`'s slice of the live table (the layout
/// `ShardSetBuilder` opens).
pub fn live_dir(dir: &Path, k: usize) -> PathBuf {
    dir.join(format!("live-{EVENTS}-s{k}"))
}

/// Compacted files of every shard's live table, as the manifests list them.
pub fn live_files(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for k in 0..SHARDS {
        let shard = live_dir(dir, k);
        if let Some(m) = leco_ingest::Manifest::read(&shard)? {
            files.extend(m.files.iter().map(|f| shard.join(f)));
        }
    }
    Ok(files)
}

/// Bytes of every compacted live-table file (no WAL).
pub fn live_bytes(dir: &Path) -> std::io::Result<u64> {
    live_files(dir)?
        .iter()
        .map(|f| std::fs::metadata(f).map(|m| m.len()))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_sort_like_their_numbers_and_values_are_seeded() {
        assert_eq!(KvSpace::key(42).len(), 16);
        assert!(KvSpace::key(8) < KvSpace::key(10));
        let a = KvSpace { n: 10, seed: 1 };
        let b = KvSpace { n: 10, seed: 2 };
        assert_eq!(a.value(3), a.value(3));
        assert_ne!(a.value(3), b.value(3));
        assert!((40..=56).contains(&a.value(7).len()));
        assert!(a.value(7).bytes().all(|c| c.is_ascii_alphanumeric()));
        let recs = a.records();
        assert!(recs.windows(2).all(|w| w[0].0 < w[1].0));
    }
}
