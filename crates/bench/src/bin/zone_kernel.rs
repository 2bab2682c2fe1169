//! **Zone kernel** — `fGetNearbyObjEqZd` microbenchmark: the clustered
//! B-tree path vs the Zone table's columnar zone map, across worker counts.
//!
//! The pipeline stages wrap the zone join in per-galaxy photometry and
//! likelihood work; this bench isolates the join itself. It imports the
//! Table 1 sky, runs `spZone`, then fires the neighbor search once per
//! candidate-region galaxy — first through the clustered `(zoneid, ra,
//! objid)` index (every scan latches buffer-pool pages), then through the
//! immutable `stardb::ZoneMap` (binary-searched RA windows, column reads,
//! no latches) — at 1, 2, and 4 worker threads.
//!
//! Per-query hit checksums are compared across every (path, workers)
//! point: the map changes cost, never answers. At the default scale the
//! map path must be at least 3x faster than the B-tree path at 4 workers,
//! with fewer contended latch acquisitions; tiny CI skies print the ratio
//! without asserting it.
//!
//! ```text
//! cargo run -p bench --release --bin zone_kernel [-- --scale 0.05 --seed 2005]
//! ```
//!
//! Emits `BENCH_zone_kernel.json`.

use bench::{secs, BenchOpts, PaperCase, TextTable};
use maxbcg::{visit_nearby_with, MaxBcgConfig, MaxBcgDb};
use stardb::ZoneMap;
use std::time::Instant;

/// Search radius in degrees: the upper end of the likelihood search radii
/// `fBCGCandidate` issues on the Table 1 sky, so per-query work matches
/// the pipeline's.
const R_DEG: f64 = 0.3;

const WORKER_SWEEP: [usize; 3] = [1, 2, 4];

/// Order-independent digest of one query's hit stream. Sums and XORs are
/// commutative, so worker scheduling cannot change it; the exact distance
/// bits still make any numeric divergence between the paths visible.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
struct QueryDigest {
    hits: u64,
    objid_sum: i64,
    dist_xor: u64,
}

struct KernelPoint {
    path: &'static str,
    workers: usize,
    wall_s: f64,
    queries_per_s: f64,
    latch_waits: u64,
    pairs_examined: u64,
    identical_to_baseline: bool,
}

obs::to_json_fields!(KernelPoint {
    path,
    workers,
    wall_s,
    queries_per_s,
    latch_waits,
    pairs_examined,
    identical_to_baseline,
});

struct KernelReport {
    scale: f64,
    seed: u64,
    galaxies: usize,
    queries: usize,
    total_hits: u64,
    zonemap_rows: usize,
    points: Vec<KernelPoint>,
    btree_over_zonemap_at_4_workers: f64,
}

obs::to_json_fields!(KernelReport {
    scale,
    seed,
    galaxies,
    queries,
    total_hits,
    zonemap_rows,
    points,
    btree_over_zonemap_at_4_workers,
});

/// Run every query on `workers` threads and return per-query digests.
/// Queries are split into contiguous chunks; each thread fills its own
/// chunk of the output, so the digest vector is deterministic.
fn run_queries(
    db: &MaxBcgDb,
    map: Option<&ZoneMap>,
    queries: &[(f64, f64)],
    workers: usize,
) -> Vec<QueryDigest> {
    let mut digests = vec![QueryDigest::default(); queries.len()];
    let chunk = queries.len().div_ceil(workers).max(1);
    std::thread::scope(|s| {
        for (qs, ds) in queries.chunks(chunk).zip(digests.chunks_mut(chunk)) {
            s.spawn(move || {
                for (&(ra, dec), d) in qs.iter().zip(ds.iter_mut()) {
                    visit_nearby_with(db.db(), map, db.scheme(), ra, dec, R_DEG, |objid, dist, _| {
                        d.hits += 1;
                        d.objid_sum = d.objid_sum.wrapping_add(objid);
                        d.dist_xor ^= dist.to_bits();
                        true
                    })
                    .expect("neighbor search");
                }
            });
        }
    });
    digests
}

fn main() {
    let opts = BenchOpts::parse();
    let case = PaperCase::reduced();
    let config = MaxBcgConfig { db: bench::server_db(), ..Default::default() };
    let mut db = MaxBcgDb::new(config).expect("schema");
    let sky = opts.sky(case.import, db.kcorr());
    println!(
        "Zone kernel: target {} inside import {} at density scale {}",
        case.target, case.import, opts.scale
    );
    println!("  sky: {} galaxies, {} injected clusters", sky.galaxies.len(), sky.truth.len());
    db.import_galaxy(&sky, &case.import).expect("spImportGalaxy");
    db.make_zone().expect("spZone");
    let map = db.zone_snapshot().expect("spZone takes the Zone map").clone();
    println!("  zone map: {} rows, epoch {}\n", map.len(), map.epoch());

    // One query per candidate-region galaxy, like spMakeCandidates fires.
    let queries: Vec<(f64, f64)> = sky
        .galaxies
        .iter()
        .filter(|g| case.candidates.contains(g.ra, g.dec))
        .map(|g| (g.ra, g.dec))
        .collect();
    assert!(!queries.is_empty(), "candidate region must hold galaxies");

    let latch_waits = obs::counter("stardb.buffer.latch_waits");
    let pairs = obs::counter("maxbcg.neighbors.pairs_examined");
    let mut baseline: Option<Vec<QueryDigest>> = None;
    let mut points = Vec::new();
    let mut walls = std::collections::HashMap::new();
    let mut t = TextTable::new(&[
        "path",
        "workers",
        "wall (s)",
        "queries/s",
        "latch waits",
        "pairs examined",
        "identical",
    ]);
    for path in ["btree", "zonemap"] {
        for workers in WORKER_SWEEP {
            let map_arg = (path == "zonemap").then_some(&*map);
            let (latch0, pairs0) = (latch_waits.get(), pairs.get());
            let start = Instant::now();
            let digests = run_queries(&db, map_arg, &queries, workers);
            let wall = start.elapsed();
            let (latch, pair) = (latch_waits.get() - latch0, pairs.get() - pairs0);
            let identical = match &baseline {
                None => {
                    baseline = Some(digests);
                    true
                }
                Some(b) => *b == digests,
            };
            walls.insert((path, workers), wall.as_secs_f64());
            t.row(&[
                path.to_string(),
                workers.to_string(),
                secs(wall),
                format!("{:.0}", queries.len() as f64 / wall.as_secs_f64()),
                latch.to_string(),
                pair.to_string(),
                if identical { "yes".into() } else { "NO — BUG".into() },
            ]);
            points.push(KernelPoint {
                path,
                workers,
                wall_s: wall.as_secs_f64(),
                queries_per_s: queries.len() as f64 / wall.as_secs_f64(),
                latch_waits: latch,
                pairs_examined: pair,
                identical_to_baseline: identical,
            });
        }
    }
    println!("{}", t.render());

    let ratio = walls[&("btree", 4)] / walls[&("zonemap", 4)];
    println!("B-tree / zone map wall at 4 workers: {ratio:.2}x");
    let total_hits = baseline.as_ref().map(|b| b.iter().map(|d| d.hits).sum()).unwrap_or(0);
    let report = KernelReport {
        scale: opts.scale,
        seed: opts.seed,
        galaxies: sky.galaxies.len(),
        queries: queries.len(),
        total_hits,
        zonemap_rows: map.len(),
        points,
        btree_over_zonemap_at_4_workers: ratio,
    };
    let path = opts.write_report("zone_kernel", &report);
    println!("report written to {}", path.display());
    opts.emit_report("zone_kernel", &report);

    assert!(
        report.points.iter().all(|p| p.identical_to_baseline),
        "zone map and B-tree paths must agree on every query"
    );
    // Perf claims only hold once the sky is dense enough that per-query
    // work dominates thread startup; tiny CI skies just print the ratio.
    if opts.scale >= 0.05 {
        assert!(ratio >= 3.0, "zone map path must be >=3x faster at 4 workers, got {ratio:.2}x");
        let lw = |p: &str| {
            report
                .points
                .iter()
                .find(|k| k.path == p && k.workers == 4)
                .map(|k| k.latch_waits)
                .unwrap_or(0)
        };
        assert!(
            lw("zonemap") <= lw("btree"),
            "zone map path must not add latch contention ({} vs {})",
            lw("zonemap"),
            lw("btree")
        );
    }
}
