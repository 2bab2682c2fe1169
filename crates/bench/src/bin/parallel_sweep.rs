//! **Parallel sweep** — worker-count scaling of the CPU-bound pipeline
//! stages, plus the threaded 3-way partition fan-out: the paper's Figure 6
//! tradeoff (~2x elapsed at ~25% extra cpu/I/O) re-expressed as thread
//! parallelism on one host.
//!
//! For each worker count the full pipeline runs on a fresh server-profile
//! database and the resulting catalogs are checked byte-for-byte against
//! the 1-worker baseline — the sweep measures *time*, never *answers*.
//! Speedup is reported, not asserted: on a single-core host every point
//! legitimately costs the same.
//!
//! ```text
//! cargo run -p bench --release --bin parallel_sweep [-- --scale 0.05 --seed 2005]
//! ```
//!
//! Emits `BENCH_parallel.json`.

use bench::{secs, BenchOpts, PaperCase, TextTable};
use maxbcg::{run_partitioned, IterationMode, MaxBcgConfig, MaxBcgDb};
use skycore::kcorr::KcorrTable;

const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];

struct SweepPoint {
    workers: usize,
    total_elapsed_s: f64,
    candidates_task_s: f64,
    clusters_task_s: f64,
    members_task_s: f64,
    total_cpu_s: f64,
    total_io: u64,
    identical_to_baseline: bool,
}

obs::to_json_fields!(SweepPoint {
    workers,
    total_elapsed_s,
    candidates_task_s,
    clusters_task_s,
    members_task_s,
    total_cpu_s,
    total_io,
    identical_to_baseline,
});

struct PartitionPoint {
    partitions: usize,
    workers: usize,
    batch_wall_s: f64,
    max_partition_wall_s: f64,
    composed_elapsed_s: f64,
    union_identical: bool,
}

obs::to_json_fields!(PartitionPoint {
    partitions,
    workers,
    batch_wall_s,
    max_partition_wall_s,
    composed_elapsed_s,
    union_identical,
});

struct ParallelReport {
    scale: f64,
    seed: u64,
    host_cores: usize,
    sweep: Vec<SweepPoint>,
    partition: PartitionPoint,
}

obs::to_json_fields!(ParallelReport { scale, seed, host_cores, sweep, partition });

fn main() {
    let opts = BenchOpts::parse();
    let case = PaperCase::reduced();
    let base = MaxBcgConfig {
        iteration: IterationMode::SetBased,
        db: bench::server_db(),
        ..Default::default()
    };
    let kcorr = KcorrTable::generate(base.kcorr);
    let host_cores = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    println!(
        "Parallel sweep: target {} inside import {} at density scale {} ({} host cores)",
        case.target, case.import, opts.scale, host_cores
    );
    let sky = opts.sky(case.import, &kcorr);
    println!("  sky: {} galaxies, {} injected clusters\n", sky.galaxies.len(), sky.truth.len());

    // ---- worker sweep, one full pipeline per point -------------------------
    let mut baseline: Option<(Vec<_>, Vec<_>, Vec<_>)> = None;
    let mut sweep = Vec::new();
    let mut t = TextTable::new(&[
        "workers",
        "total (s)",
        "fBCGCandidate (s)",
        "fIsCluster (s)",
        "spMakeGalaxiesMetric (s)",
        "cpu (s)",
        "I/O",
        "identical",
    ]);
    let cache_hits = obs::counter("maxbcg.zonecache.hits");
    let cache_hits_0 = cache_hits.get();
    for workers in WORKER_SWEEP {
        let config = MaxBcgConfig { workers, ..base };
        let mut db = MaxBcgDb::new(config).expect("schema");
        let report = db
            .run(&format!("workers={workers}"), &sky, &case.import, &case.candidates)
            .expect("pipeline run");
        let catalogs = (
            db.candidates().expect("candidates"),
            db.clusters().expect("clusters"),
            db.members().expect("members"),
        );
        let identical = match &baseline {
            None => {
                baseline = Some(catalogs);
                true
            }
            Some(b) => *b == catalogs,
        };
        let task_s = |name: &str| {
            report.task(name).map(|t| t.elapsed().as_secs_f64()).unwrap_or_default()
        };
        t.row(&[
            workers.to_string(),
            secs(report.total_elapsed()),
            format!("{:.3}", task_s("fBCGCandidate")),
            format!("{:.3}", task_s("fIsCluster")),
            format!("{:.3}", task_s("spMakeGalaxiesMetric")),
            secs(report.total_cpu()),
            report.total_io().to_string(),
            if identical { "yes".into() } else { "NO — BUG".into() },
        ]);
        sweep.push(SweepPoint {
            workers,
            total_elapsed_s: report.total_elapsed().as_secs_f64(),
            candidates_task_s: task_s("fBCGCandidate"),
            clusters_task_s: task_s("fIsCluster"),
            members_task_s: task_s("spMakeGalaxiesMetric"),
            total_cpu_s: report.total_cpu().as_secs_f64(),
            total_io: report.total_io(),
            identical_to_baseline: identical,
        });
    }
    println!("{}", t.render());
    // Every sweep point serves its neighbor searches from the Zone map.
    assert!(
        cache_hits.get() > cache_hits_0,
        "maxbcg.zonecache.hits must move across the sweep — the zone map never served"
    );

    // ---- threaded 3-way partition fan-out ----------------------------------
    let workers = host_cores.clamp(1, 2);
    let par_config = MaxBcgConfig { workers, ..base };
    let par = run_partitioned(&par_config, &sky, &case.import, &case.candidates, 3)
        .expect("partitioned run");
    let union_identical = baseline
        .as_ref()
        .map(|(c, k, m)| {
            let mut ms = m.clone();
            ms.sort_by_key(|x| (x.cluster_objid, x.galaxy_objid));
            par.candidates == *c && par.clusters == *k && par.members == ms
        })
        .unwrap_or(false);
    println!(
        "3-way fan-out ({} workers each): batch wall {} vs slowest partition {} \
         (composed elapsed {}), union identical: {}",
        workers,
        secs(par.wall_elapsed),
        secs(par.max_partition_wall()),
        secs(par.elapsed()),
        if union_identical { "YES" } else { "NO — BUG" }
    );

    let report = ParallelReport {
        scale: opts.scale,
        seed: opts.seed,
        host_cores,
        sweep,
        partition: PartitionPoint {
            partitions: 3,
            workers,
            batch_wall_s: par.wall_elapsed.as_secs_f64(),
            max_partition_wall_s: par.max_partition_wall().as_secs_f64(),
            composed_elapsed_s: par.elapsed().as_secs_f64(),
            union_identical,
        },
    };
    let path = opts.write_report("parallel_sweep", &report);
    println!("report written to {}", path.display());
    opts.emit_report("parallel", &report);
    assert!(
        report.sweep.iter().all(|p| p.identical_to_baseline) && report.partition.union_identical,
        "parallel execution must be lossless"
    );
}
