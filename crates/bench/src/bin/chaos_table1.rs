//! **Chaos Table 1** — the Table 1 / Figure 6 identity claim under an
//! escalating deterministic fault schedule. Each schedule drives the same
//! seeded fault plan through three layers: the zone-partitioned MaxBCG run
//! (partition crashes and buffer-pool pressure with failover), the CasJobs
//! data grid (contained node panics re-run on survivors), and the TAM field
//! grid (dropped/corrupted transfers, stragglers, and job crashes with
//! retry + backoff). For every schedule the recovered answer must equal the
//! clean sequential catalog bit for bit; the table reports injected fault
//! counts, recovery effort, and elapsed-time degradation versus the clean
//! run.
//!
//! ```text
//! cargo run -p bench --release --bin chaos_table1 [-- --scale 0.05 --seed 2005]
//! ```

use bench::{secs, BenchOpts, PaperCase, TextTable};
use gridsim::das::NetworkModel;
use gridsim::node::tam_cluster;
use gridsim::{DataArchiveServer, FaultConfig, FaultPlan, FaultReport, GridCluster};
use maxbcg::{
    run_partitioned_recovering, IterationMode, MaxBcgConfig, MaxBcgDb, RecoveryPolicy,
};
use skycore::kcorr::KcorrTable;
use stardb::DbError;
use std::sync::Arc;
use std::time::Instant;
use tam::{publish_region, run_region, TamConfig};

struct ScheduleOutcome {
    schedule: String,
    injected: FaultReport,
    partition_attempts: Vec<u32>,
    partition_failovers: u32,
    grid_failovers: u32,
    tam_retried: u32,
    tam_backoff_s: f64,
    elapsed_s: f64,
    degradation: f64,
    identical: bool,
}

obs::to_json_fields!(ScheduleOutcome {
    schedule,
    injected,
    partition_attempts,
    partition_failovers,
    grid_failovers,
    tam_retried,
    tam_backoff_s,
    elapsed_s,
    degradation,
    identical,
});

struct ChaosReport {
    scale: f64,
    seed: u64,
    schedules: Vec<ScheduleOutcome>,
}

obs::to_json_fields!(ChaosReport { scale, seed, schedules });

fn main() {
    let opts = BenchOpts::parse();
    let case = PaperCase::reduced();
    let config = MaxBcgConfig {
        iteration: IterationMode::SetBased,
        db: bench::server_db(),
        ..Default::default()
    };
    let kcorr = KcorrTable::generate(config.kcorr);
    println!(
        "Chaos Table 1: target {} inside import {} at density scale {}",
        case.target, case.import, opts.scale
    );
    let sky = Arc::new(opts.sky(case.import, &kcorr));
    println!("  sky: {} galaxies, {} injected clusters\n", sky.galaxies.len(), sky.truth.len());

    // ---- clean sequential reference ---------------------------------------
    let mut seq_db = MaxBcgDb::new(config).expect("schema");
    seq_db.run("sequential", &sky, &case.import, &case.candidates).expect("sequential run");
    let seq_candidates = seq_db.candidates().expect("candidates");
    let seq_clusters = seq_db.clusters().expect("clusters");
    let mut seq_members = seq_db.members().expect("members");
    seq_members.sort_by_key(|m| (m.cluster_objid, m.galaxy_objid));

    // ---- clean TAM reference over the target region -----------------------
    let tam_cfg = TamConfig::default();
    let das = DataArchiveServer::new(NetworkModel::instant());
    let (fields, bytes) = publish_region(&sky, &case.target, &tam_cfg, &das);
    println!("  TAM leg: {} fields, {} bytes published (sealed)\n", fields.len(), bytes);
    let tam_clean = run_region(&GridCluster::new(tam_cluster()), &das, fields.clone(), &tam_cfg);
    assert!(tam_clean.failures.is_empty(), "clean TAM run failed: {:?}", tam_clean.failures);

    let schedules: Vec<(&str, Option<FaultConfig>)> = vec![
        ("clean", None),
        ("mild", Some(FaultConfig::mild(opts.seed))),
        ("severe", Some(FaultConfig::severe(opts.seed))),
        ("crash-storm", Some(FaultConfig::always(opts.seed, 2))),
    ];

    // Injected crashes are real panics; keep their backtraces out of the
    // report. The hook is restored before any assertion can fire.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let mut outcomes: Vec<ScheduleOutcome> = Vec::new();
    let mut clean_elapsed = 0.0f64;
    for (name, fault_cfg) in schedules {
        let plan = fault_cfg.map(FaultPlan::new);
        let t0 = Instant::now();

        // Leg 1: 3-way zone partitioning with failover. Even stripes lose
        // their first attempts to buffer pressure, odd stripes to a panic.
        let mut inject = |index: usize, attempt: u32| -> Option<DbError> {
            let plan = plan.as_ref()?;
            let key = format!("P{}", index + 1);
            if index % 2 == 0 {
                plan.buffer_exhausts(&key, attempt).then_some(DbError::BufferExhausted)
            } else if plan.node_crashes(&key, attempt) {
                panic!("injected crash on {key}");
            } else {
                None
            }
        };
        let (par, recovery) = run_partitioned_recovering(
            &config,
            &sky,
            &case.import,
            &case.candidates,
            3,
            RecoveryPolicy { max_attempts: 4 },
            &mut inject,
        )
        .expect("partitioned run must recover under a bounded schedule");

        // Leg 2: the CasJobs data grid with contained panics + failover.
        let mut grid = casjobs::DataGrid::new(Arc::clone(&sky), &case.import, 3, config);
        if let Some(p) = &plan {
            grid = grid.with_faults(p.clone());
        }
        let grid_report = grid.submit_maxbcg(casjobs::UserId(1), &case.candidates);
        let grid_ok = grid_report.outcomes.iter().all(|o| o.error.is_none());

        // Leg 3: the TAM field grid — transfer drops/corruption, stragglers,
        // and job crashes drained by retry + backoff.
        let mut cluster = GridCluster::new(tam_cluster());
        if let Some(p) = &plan {
            cluster = cluster.with_faults(p.clone());
        }
        cluster.retries = 4;
        let tam_run = run_region(&cluster, &das, fields.clone(), &tam_cfg);

        let elapsed = t0.elapsed().as_secs_f64();
        if plan.is_none() {
            clean_elapsed = elapsed;
        }

        let identical = par.candidates == seq_candidates
            && par.clusters == seq_clusters
            && par.members == seq_members
            && grid_ok
            && grid_report.collected == seq_clusters
            && tam_run.failures.is_empty()
            && tam_run.clusters == tam_clean.clusters
            && tam_run.candidates == tam_clean.candidates
            && tam_run.members == tam_clean.members;

        outcomes.push(ScheduleOutcome {
            schedule: name.to_owned(),
            injected: plan.as_ref().map(|p| p.report()).unwrap_or_default(),
            partition_attempts: recovery.attempts.clone(),
            partition_failovers: recovery.failovers,
            grid_failovers: grid_report.failovers,
            tam_retried: tam_run.batch.retried,
            tam_backoff_s: tam_run.batch.backoff_total.as_secs_f64(),
            elapsed_s: elapsed,
            degradation: if clean_elapsed > 0.0 { elapsed / clean_elapsed } else { 1.0 },
            identical,
        });
    }
    std::panic::set_hook(default_hook);

    // ---- render -----------------------------------------------------------
    let mut t = TextTable::new(&[
        "schedule",
        "crash",
        "drop",
        "corrupt",
        "straggle",
        "bufpool",
        "part fo",
        "grid fo",
        "tam retry",
        "backoff (s)",
        "elapse (s)",
        "vs clean",
        "identical",
    ]);
    for o in &outcomes {
        t.row(&[
            o.schedule.clone(),
            o.injected.node_crashes.to_string(),
            o.injected.transfers_dropped.to_string(),
            o.injected.transfers_corrupted.to_string(),
            o.injected.stragglers.to_string(),
            o.injected.buffer_exhausts.to_string(),
            o.partition_failovers.to_string(),
            o.grid_failovers.to_string(),
            o.tam_retried.to_string(),
            format!("{:.2}", o.tam_backoff_s),
            secs(std::time::Duration::from_secs_f64(o.elapsed_s)),
            format!("{:.0}%", o.degradation * 100.0),
            if o.identical { "YES".into() } else { "NO — BUG".into() },
        ]);
    }
    println!("{}", t.render());
    println!("identity invariant: recovered union == sequential catalog, at every schedule");

    // ---- zone-map staleness drill -----------------------------------------
    // Recovery re-runs spZone, so a Zone map captured before a fault must
    // degrade to the clustered index, never to wrong answers: hold the old
    // map across a re-zone (its version is now stale), search through it,
    // and demand bit-identical hits plus a moving fallback counter.
    let fallbacks = obs::counter("maxbcg.zonecache.fallbacks");
    let stale = seq_db.zone_snapshot().expect("spZone takes the Zone map").clone();
    seq_db.make_zone().expect("re-zone");
    assert_ne!(
        seq_db.db().table_version("Zone").expect("Zone version"),
        stale.epoch(),
        "re-running spZone must move the Zone version"
    );
    let fallbacks_0 = fallbacks.get();
    let (mut via_stale, mut via_fresh) = (Vec::new(), Vec::new());
    for g in sky.galaxies.iter().step_by(97) {
        maxbcg::visit_nearby_with(seq_db.db(), Some(&*stale), seq_db.scheme(), g.ra, g.dec, 0.2, |o, d, _| {
            via_stale.push((o, d.to_bits()));
            true
        })
        .expect("stale-map search");
        let fresh = seq_db.zone_snapshot().map(|s| &**s);
        maxbcg::visit_nearby_with(seq_db.db(), fresh, seq_db.scheme(), g.ra, g.dec, 0.2, |o, d, _| {
            via_fresh.push((o, d.to_bits()));
            true
        })
        .expect("fresh-map search");
    }
    assert_eq!(via_stale, via_fresh, "stale-map fallback changed answers");
    assert!(
        fallbacks.get() > fallbacks_0,
        "maxbcg.zonecache.fallbacks must move when a stale map is offered"
    );
    println!(
        "zone-map drill: {} stale searches fell back to the clustered index, identically",
        fallbacks.get() - fallbacks_0
    );

    let report =
        ChaosReport { scale: opts.scale, seed: opts.seed, schedules: outcomes };
    let path = opts.write_report("chaos_table1", &report);
    println!("report written to {}", path.display());
    opts.emit_report("chaos", &report);

    for o in &report.schedules {
        assert!(
            o.identical,
            "schedule '{}' broke result identity — recovery is not lossless",
            o.schedule
        );
    }
}
