//! Chaos recovery: the paper's core claim (Figure 6 / Table 1) is that the
//! union of zone-partitioned answers is *identical* to the sequential
//! answer. These tests assert the identity still holds when a deterministic
//! [`gridsim::FaultPlan`] injects node crashes, dropped and corrupted
//! transfers, stragglers, and buffer-pool pressure into the run — the
//! recovery machinery (scheduler retry/backoff, checksum-verified
//! transfers, panic containment, partition failover) must absorb every
//! fault without changing a single byte of the catalog.

#[allow(dead_code)]
mod common;

use distfab::{DistCluster, DistConfig};
use gridsim::das::NetworkModel;
use gridsim::node::tam_cluster;
use gridsim::{DataArchiveServer, FaultConfig, FaultPlan, GridCluster};
use maxbcg::{
    run_partitioned_recovering, IterationMode, MaxBcgConfig, MaxBcgDb, RecoveryPolicy,
};
use skycore::kcorr::{KcorrConfig, KcorrTable};
use skycore::SkyRegion;
use skysim::{Sky, SkyConfig};
use stardb::DbError;
use std::sync::Arc;
use std::time::Duration;
use tam::{publish_region, run_region, TamConfig};

/// A worst-case-but-bounded schedule with every fault kind armed: crashes,
/// drops, corruptions, stragglers, and buffer pressure all fire on first
/// attempts, never past the per-key bound — so recovery provably converges.
fn chaos_config(seed: u64) -> FaultConfig {
    FaultConfig {
        seed,
        node_crash_p: 1.0,
        transfer_drop_p: 0.5,
        transfer_corrupt_p: 0.5,
        straggler_p: 1.0,
        straggler_factor: 3.0,
        buffer_exhaust_p: 1.0,
        max_faults_per_key: 1,
    }
}

#[test]
fn tam_grid_chaos_run_matches_clean_run() {
    let kcorr = KcorrTable::generate(KcorrConfig::sql());
    let region = SkyRegion::new(180.0, 181.0, -0.5, 0.5);
    let sky = Sky::generate(region, &SkyConfig::scaled(0.08), &kcorr, 7);
    let cfg = TamConfig::default();
    let das = DataArchiveServer::new(NetworkModel::instant());
    let (fields, _) = publish_region(&sky, &region, &cfg, &das);
    assert!(fields.len() >= 4, "need several fields for meaningful chaos");

    let clean = run_region(&GridCluster::new(tam_cluster()), &das, fields.clone(), &cfg);
    assert!(clean.failures.is_empty(), "{:?}", clean.failures);

    let plan = FaultPlan::new(chaos_config(1105));
    let mut cluster = GridCluster::new(tam_cluster()).with_faults(plan.clone());
    cluster.retries = 3;
    let chaotic = run_region(&cluster, &das, fields.clone(), &cfg);
    assert!(
        chaotic.failures.is_empty(),
        "bounded faults + retries must drain every job: {:?}",
        chaotic.failures
    );

    // Identity under failure: the recovered catalogs equal the clean ones
    // bit for bit.
    assert_eq!(chaotic.clusters, clean.clusters, "cluster catalogs diverged under chaos");
    assert_eq!(chaotic.candidates, clean.candidates, "candidate catalogs diverged");
    assert_eq!(chaotic.members, clean.members, "membership tables diverged");

    // At least three distinct fault kinds actually fired.
    let injected = plan.report();
    assert!(injected.node_crashes > 0, "no crashes injected: {injected:?}");
    assert!(injected.stragglers > 0, "no stragglers injected: {injected:?}");
    assert!(
        injected.transfers_dropped + injected.transfers_corrupted > 0,
        "no transfer faults injected: {injected:?}"
    );
    assert!(injected.distinct_kinds() >= 3, "{injected:?}");
    assert!(chaotic.batch.retried > 0);
    assert!(chaotic.batch.backoff_total > Duration::ZERO);

    // Reproducibility: re-running with a same-seed plan injects the same
    // schedule and produces the same catalog and the same injection tally.
    let plan2 = FaultPlan::new(chaos_config(1105));
    let mut cluster2 = GridCluster::new(tam_cluster()).with_faults(plan2.clone());
    cluster2.retries = 3;
    let again = run_region(&cluster2, &das, fields, &cfg);
    assert_eq!(again.clusters, chaotic.clusters);
    assert_eq!(plan2.report(), injected, "same seed must inject the same schedule");
}

#[test]
fn three_way_partition_chaos_preserves_figure6_identity() {
    let config = MaxBcgConfig { iteration: IterationMode::SetBased, ..Default::default() };
    let kcorr = KcorrTable::generate(config.kcorr);
    let survey = SkyRegion::new(180.0, 182.0, -2.0, 2.0);
    let mut sky_cfg = SkyConfig::scaled(0.08);
    sky_cfg.clusters.density_per_deg2 = 10.0;
    let sky = Sky::generate(survey, &sky_cfg, &kcorr, 777);
    let cand = survey.shrunk(0.5);

    let mut seq = MaxBcgDb::new(config).unwrap();
    seq.run("seq", &sky, &survey, &cand).unwrap();

    // Every partition loses its first attempt — even stripes to buffer
    // pressure, odd stripes to an outright panic — and must fail over.
    let plan = FaultPlan::new(FaultConfig::always(31, 1));
    let (par, recovery) = run_partitioned_recovering(
        &config,
        &sky,
        &survey,
        &cand,
        3,
        RecoveryPolicy { max_attempts: 3 },
        &mut |index, attempt| {
            let key = format!("P{}", index + 1);
            if index % 2 == 0 {
                plan.buffer_exhausts(&key, attempt).then_some(DbError::BufferExhausted)
            } else if plan.node_crashes(&key, attempt) {
                panic!("injected crash on {key}");
            } else {
                None
            }
        },
    )
    .unwrap();

    assert_eq!(recovery.failovers, 3, "all three stripes must have failed over");
    assert_eq!(recovery.attempts, vec![2, 2, 2]);
    assert!(recovery.errors.iter().any(|e| e.contains("panicked")));
    assert!(recovery.errors.iter().any(|e| e.contains("buffer pool")));

    assert_eq!(par.candidates, seq.candidates().unwrap(), "candidate identity broke");
    assert_eq!(par.clusters, seq.clusters().unwrap(), "cluster identity broke");
    let mut seq_members = seq.members().unwrap();
    seq_members.sort_by_key(|m| (m.cluster_objid, m.galaxy_objid));
    assert_eq!(par.members, seq_members, "membership identity broke");

    // Partitions run on real threads, so the batch wall tracks the
    // slowest partition (retries included) — never the sum. The slack
    // absorbs spawn/join/merge overhead on a loaded host.
    let max_wall = par.max_partition_wall();
    assert!(par.wall_elapsed >= max_wall);
    assert!(
        par.wall_elapsed <= max_wall.mul_f64(1.25) + Duration::from_millis(250),
        "batch wall {:?} far exceeds slowest partition {:?}",
        par.wall_elapsed,
        max_wall
    );

    // The identity must also survive in-partition worker pools under the
    // same (seed-reproducible) fault schedule.
    let plan2 = FaultPlan::new(FaultConfig::always(31, 1));
    let (par2, recovery2) = run_partitioned_recovering(
        &MaxBcgConfig { workers: 2, ..config },
        &sky,
        &survey,
        &cand,
        3,
        RecoveryPolicy { max_attempts: 3 },
        &mut |index, attempt| {
            let key = format!("P{}", index + 1);
            if index % 2 == 0 {
                plan2.buffer_exhausts(&key, attempt).then_some(DbError::BufferExhausted)
            } else if plan2.node_crashes(&key, attempt) {
                panic!("injected crash on {key}");
            } else {
                None
            }
        },
    )
    .unwrap();
    assert_eq!(recovery2.attempts, vec![2, 2, 2], "same seed must inject the same schedule");
    assert_eq!(par2.candidates, par.candidates, "worker pools broke candidate identity");
    assert_eq!(par2.clusters, par.clusters, "worker pools broke cluster identity");
    assert_eq!(par2.members, par.members, "worker pools broke membership identity");
}

#[test]
fn stale_zone_snapshot_falls_back_identically_after_a_rezone() {
    // Chaos failover re-runs spZone on every attempt, so any Zone map
    // captured before a fault is stale by version. The neighbor kernel
    // must detect that, take the clustered-index path, count the
    // fallback — and change nothing about the answer.
    let config = MaxBcgConfig { iteration: IterationMode::SetBased, ..Default::default() };
    let kcorr = KcorrTable::generate(config.kcorr);
    let survey = SkyRegion::new(180.0, 181.0, -0.5, 0.5);
    let sky = Sky::generate(survey, &SkyConfig::scaled(0.08), &kcorr, 99);
    let mut db = MaxBcgDb::new(config).unwrap();
    db.run("stale-drill", &sky, &survey, &survey.shrunk(0.25)).unwrap();

    let stale = db.zone_snapshot().expect("spZone takes the Zone map").clone();
    db.make_zone().unwrap(); // the failover path: truncate + refill moves the version
    assert_ne!(
        db.db().table_version("Zone").unwrap(),
        stale.epoch(),
        "re-running spZone must invalidate the map"
    );

    let fallbacks = obs::counter("maxbcg.zonecache.fallbacks");
    let fallbacks_0 = fallbacks.get();
    let mut searched = 0;
    for g in sky.galaxies.iter().step_by(19) {
        let (mut via_stale, mut via_none) = (Vec::new(), Vec::new());
        maxbcg::visit_nearby_with(db.db(), Some(&*stale), db.scheme(), g.ra, g.dec, 0.2, |o, d, _| {
            via_stale.push((o, d.to_bits()));
            true
        })
        .unwrap();
        maxbcg::visit_nearby_with(db.db(), None, db.scheme(), g.ra, g.dec, 0.2, |o, d, _| {
            via_none.push((o, d.to_bits()));
            true
        })
        .unwrap();
        assert_eq!(via_stale, via_none, "stale fallback changed hits at ({}, {})", g.ra, g.dec);
        searched += 1;
    }
    assert!(searched > 5, "need a meaningful sample");
    assert!(
        fallbacks.get() >= fallbacks_0 + searched,
        "every stale-map search must count a fallback"
    );
}

#[test]
fn data_grid_chaos_collects_the_full_catalog() {
    let kcorr = KcorrTable::generate(KcorrConfig::sql());
    let survey = SkyRegion::new(180.0, 181.0, -1.5, 1.5);
    let sky = Arc::new(Sky::generate(survey, &SkyConfig::scaled(0.08), &kcorr, 555));
    let cand = survey.shrunk(0.5);

    let plan = FaultPlan::new(FaultConfig::severe(77));
    let grid = casjobs::DataGrid::new(Arc::clone(&sky), &survey, 3, MaxBcgConfig::default())
        .with_faults(plan.clone());
    let report = grid.submit_maxbcg(casjobs::UserId(1), &cand);
    assert!(
        report.outcomes.iter().all(|o| o.error.is_none()),
        "failover must rescue every node: {:?}",
        report.outcomes.iter().filter_map(|o| o.error.clone()).collect::<Vec<_>>()
    );
    assert_eq!(
        report.failovers as usize,
        report.outcomes.iter().filter(|o| o.recovered_by.is_some()).count()
    );

    let mut single = MaxBcgDb::new(MaxBcgConfig::default()).unwrap();
    single.run("one-site", &sky, &survey, &cand).unwrap();
    assert_eq!(
        report.collected,
        single.clusters().unwrap(),
        "grid union under chaos must equal the one-site run"
    );
}

/// Kill-one-node-mid-gather: a seed-driven fault plan crashes the first
/// attempt of every scattered subquery, so each one fails over to the
/// next ring node mid-gather. The recombined answer must stay
/// byte-identical to the calm fabric's, and the failovers must be
/// visible as `stardb.dist.retries`.
#[test]
fn distributed_gather_survives_node_kills_mid_scatter() {
    let src = common::corpus_db();
    let calm = DistCluster::build(&src, DistConfig::new(4, "Galaxy", "dec", -5.0, 5.0)).unwrap();
    let stormy = DistCluster::build(
        &src,
        DistConfig::new(4, "Galaxy", "dec", -5.0, 5.0)
            .with_faults(FaultPlan::new(FaultConfig::always(1105, 1))),
    )
    .unwrap();

    let retries_counter = obs::counter("stardb.dist.retries");
    let retries_before = retries_counter.get();
    let drill = [
        // Order-preserving merge over a pruned shard subset.
        "SELECT objid, ra FROM Galaxy WHERE dec BETWEEN -2.0 AND 0.5 ORDER BY objid",
        // Distributed top-N with a pushed per-shard LIMIT.
        "SELECT objid, mag FROM Galaxy ORDER BY mag DESC, objid LIMIT 9",
        // Partial → final aggregate fold.
        "SELECT cls, COUNT(*), MIN(mag) FROM Galaxy GROUP BY cls",
        // Raw-mode re-aggregation (AVG cannot fold from partials).
        "SELECT cls, AVG(dec) FROM Galaxy GROUP BY cls",
        // DISTINCT dedup at the gather point.
        "SELECT DISTINCT cls FROM Galaxy ORDER BY cls",
    ];
    for sql in drill {
        let want = match calm.execute_sql(sql).unwrap() {
            stardb::SqlOutput::Rows { rows, .. } => rows,
            other => panic!("expected rows, got {other:?}"),
        };
        let got = match stormy.execute_sql(sql).unwrap() {
            stardb::SqlOutput::Rows { rows, .. } => rows,
            other => panic!("expected rows, got {other:?}"),
        };
        assert_eq!(
            want.iter().map(stardb::Row::encode).collect::<Vec<_>>(),
            got.iter().map(stardb::Row::encode).collect::<Vec<_>>(),
            "node kill changed the answer for {sql}"
        );
        let p = stormy.last_dist().unwrap();
        assert!(p.retries > 0, "always-crash plan must cost failovers for {sql}");
        assert!(
            p.per_shard.iter().all(|s| s.attempts >= 2),
            "every subquery's first attempt must have died for {sql}: {:?}",
            p.per_shard
        );
    }
    assert!(
        retries_counter.get() > retries_before,
        "failovers must surface in stardb.dist.retries"
    );

    // Reproducibility: a same-seed stormy fabric retries identically.
    let stormy2 = DistCluster::build(
        &src,
        DistConfig::new(4, "Galaxy", "dec", -5.0, 5.0)
            .with_faults(FaultPlan::new(FaultConfig::always(1105, 1))),
    )
    .unwrap();
    let _ = stormy2.execute_sql(drill[0]).unwrap();
    let p2 = stormy2.last_dist().unwrap();
    let _ = stormy.execute_sql(drill[0]).unwrap();
    let p1 = stormy.last_dist().unwrap();
    assert_eq!(p1.retries, p2.retries, "same seed must inject the same crash schedule");
}

#[test]
fn fault_plans_are_byte_reproducible_from_the_seed() {
    let a = FaultPlan::new(FaultConfig::severe(2026));
    let b = FaultPlan::new(FaultConfig::severe(2026));
    for domain in ["crash", "transfer", "corrupt-at", "straggle", "bufpool", "jitter"] {
        for key in ["cas-1", "P2", "field-00003.target", "tam4", ""] {
            for attempt in 0..8 {
                assert_eq!(
                    a.draw_u64(domain, key, attempt),
                    b.draw_u64(domain, key, attempt),
                    "schedule diverged at ({domain}, {key:?}, {attempt})"
                );
            }
        }
    }
    let c = FaultPlan::new(FaultConfig::severe(2027));
    let diverges = (0..64).any(|i| a.draw_u64("crash", "node", i) != c.draw_u64("crash", "node", i));
    assert!(diverges, "different seeds must yield different schedules");
}
