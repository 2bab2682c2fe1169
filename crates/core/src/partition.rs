//! Zone-partitioned parallel execution — Figure 6 and the 3-way rows of
//! Table 1.
//!
//! The import region is split into `n` declination stripes; every server
//! imports its native stripe plus 1 degree of duplicated buffer on each
//! interior edge (0.5 deg so fringe candidates exist, another 0.5 deg so
//! those fringe candidates see their own neighbors). Each server runs the
//! whole pipeline independently on its own database — share-nothing, as in
//! the paper — and the union of the per-stripe answers is **identical** to
//! the sequential answer, which `merge` verifies structurally and the
//! integration tests verify against an actual sequential run.

use crate::pipeline::{MaxBcgConfig, MaxBcgDb};
use crate::stats::PipelineRun;
use skycore::types::{Candidate, Cluster, ClusterMember};
use skycore::{ShardMap, SkyRegion, ZoneScheme};
use skysim::Sky;
use stardb::{DbError, DbResult};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The duplicated-buffer margin of Figure 6, degrees.
pub const PARTITION_MARGIN_DEG: f64 = 1.0;

/// Result of one partition's run.
#[derive(Debug, Clone)]
pub struct PartitionResult {
    /// Partition index (paper names them P1, P2, P3).
    pub index: usize,
    /// The stripe this server owns.
    pub native: SkyRegion,
    /// The stripe it actually imported (native + duplicated buffers).
    pub imported: SkyRegion,
    /// Pipeline statistics for this server.
    pub report: PipelineRun,
    /// Candidates native to this stripe.
    pub candidates: Vec<Candidate>,
    /// Clusters native to this stripe.
    pub clusters: Vec<Cluster>,
    /// Membership rows for those clusters.
    pub members: Vec<ClusterMember>,
    /// Host wall time this partition's thread spent across all of its
    /// attempts (failed ones included), measured inside the thread.
    pub wall: Duration,
}

/// A complete partitioned run.
#[derive(Debug, Clone)]
pub struct PartitionedRun {
    /// Per-partition results, in stripe order.
    pub partitions: Vec<PartitionResult>,
    /// Merged candidate catalog (equals the sequential one).
    pub candidates: Vec<Candidate>,
    /// Merged cluster catalog.
    pub clusters: Vec<Cluster>,
    /// Merged membership rows.
    pub members: Vec<ClusterMember>,
    /// Host wall time for the whole fan-out. Partitions run concurrently
    /// on real threads, so this tracks the *slowest* partition
    /// ([`PartitionedRun::max_partition_wall`]) plus spawn/join overhead —
    /// not the sum of partition times. The paper-style cluster elapsed
    /// composed from per-task clocks is [`PartitionedRun::elapsed`].
    pub wall_elapsed: Duration,
}

impl PartitionedRun {
    /// Sum of per-partition cpu over Table 1 tasks (the paper's
    /// "Partitioning Total" cpu, which exceeds the 1-node cpu by the
    /// duplicated work).
    pub fn total_cpu(&self) -> Duration {
        self.partitions.iter().map(|p| p.report.total_cpu()).sum()
    }

    /// Sum of per-partition physical I/O.
    pub fn total_io(&self) -> u64 {
        self.partitions.iter().map(|p| p.report.total_io()).sum()
    }

    /// The slowest partition's sequential-task elapsed — the cluster's
    /// elapsed time, since partitions run concurrently.
    pub fn elapsed(&self) -> Duration {
        self.partitions.iter().map(|p| p.report.total_elapsed()).max().unwrap_or_default()
    }

    /// The slowest partition's host wall time (all attempts included).
    /// [`PartitionedRun::wall_elapsed`] exceeds this only by thread
    /// spawn/join and merge overhead.
    pub fn max_partition_wall(&self) -> Duration {
        self.partitions.iter().map(|p| p.wall).max().unwrap_or_default()
    }

    /// Total galaxies across partitions (with duplication), Table 1's
    /// 2,348,050 row.
    pub fn total_galaxies(&self) -> u64 {
        self.partitions.iter().map(|p| p.report.galaxies).sum()
    }
}

/// Partition-level failover policy for
/// [`run_partitioned_recovering`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Attempts per partition (1 = no recovery; a failed partition fails
    /// the batch).
    pub max_attempts: u32,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy { max_attempts: 3 }
    }
}

/// What recovery actually did during a partitioned run.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Attempts consumed per partition, in stripe order (1 = clean).
    pub attempts: Vec<u32>,
    /// Partitions that failed at least once and were re-run to success.
    pub failovers: u32,
    /// Every failure message observed along the way (the run still
    /// succeeded if the result is `Ok` — these are the recovered ones).
    pub errors: Vec<String>,
}

/// Run one stripe's share-nothing database end to end.
///
/// Each node takes its own Zone map inside `node.run` (after its
/// `spZone`), so the stripe's worker pool shares one columnar index per
/// partition instead of contending on the node's buffer pool — and a
/// partition retried after a fault rebuilds both table and map from
/// scratch, never inheriting a stale index across attempts.
fn run_one_partition(
    config: &MaxBcgConfig,
    sky: &Sky,
    native: &SkyRegion,
    imported: &SkyRegion,
    index: usize,
    n: usize,
    candidate_window: &SkyRegion,
) -> DbResult<PartitionResult> {
    let mut node = MaxBcgDb::new(*config)?;
    // Candidates this node must produce: the candidate window clipped
    // to native ± 0.5 (fringe candidates are duplicated work shared
    // with the neighboring node).
    let cand_fringe = SkyRegion::new(
        candidate_window.ra_min,
        candidate_window.ra_max,
        (native.dec_min - 0.5).max(candidate_window.dec_min),
        (native.dec_max + 0.5).min(candidate_window.dec_max),
    );
    let report = node.run(&format!("P{}", index + 1), sky, imported, &cand_fringe)?;
    // Keep only what the node natively owns; the fringe is the
    // neighbor's property.
    let candidates: Vec<Candidate> = node
        .candidates()?
        .into_iter()
        .filter(|c| owns(native, index, n, c.dec))
        .collect();
    let clusters: Vec<Cluster> = node
        .clusters()?
        .into_iter()
        .filter(|c| owns(native, index, n, c.dec))
        .collect();
    let own_ids: std::collections::HashSet<i64> = clusters.iter().map(|c| c.objid).collect();
    let members: Vec<ClusterMember> = node
        .members()?
        .into_iter()
        .filter(|m| own_ids.contains(&m.cluster_objid))
        .collect();
    Ok(PartitionResult {
        index,
        native: *native,
        imported: *imported,
        report,
        candidates,
        clusters,
        members,
        wall: Duration::ZERO, // filled in by the partition thread
    })
}

/// Run the pipeline partitioned `n` ways over dec stripes of
/// `import_window`, with candidates over `candidate_window`.
///
/// Each partition is a fully independent share-nothing database running on
/// its own thread, so nothing is shared but the host's cores and the
/// paper's topology is executed for real: on a machine with `>= n` cores
/// [`PartitionedRun::wall_elapsed`] approaches the slowest single stripe.
/// Because a loaded host time-slices the threads, the *reported*
/// cluster-level elapsed time is still composed from per-task clocks as
/// `max` over partitions ([`PartitionedRun::elapsed`]), exactly the
/// quantity the paper reports for its three real servers.
pub fn run_partitioned(
    config: &MaxBcgConfig,
    sky: &Sky,
    import_window: &SkyRegion,
    candidate_window: &SkyRegion,
    n: usize,
) -> DbResult<PartitionedRun> {
    let policy = RecoveryPolicy { max_attempts: 1 };
    let (run, _) = run_partitioned_recovering(
        config,
        sky,
        import_window,
        candidate_window,
        n,
        policy,
        &mut |_, _| None,
    )?;
    Ok(run)
}

/// Fold a contained panic payload into the partition's error, preserving
/// the panic message for the recovery report.
fn panic_to_error(payload: Box<dyn std::any::Any + Send>, index: usize) -> DbError {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string payload".to_owned());
    DbError::Corrupt(format!("partition P{} panicked: {msg}", index + 1))
}

/// What one partition thread hands back: the run (or its final error),
/// plus the attempt/error history the recovery report is built from.
struct PartitionOutcome {
    result: DbResult<PartitionResult>,
    attempts: u32,
    errors: Vec<String>,
}

/// [`run_partitioned`] with partition-level failover: a crashed or
/// panicking partition is re-planned and re-run (fresh database, same
/// stripe) up to `policy.max_attempts` times rather than aborting the
/// batch. `inject` is a fault hook called as `(partition_index, attempt)`
/// before each attempt; returning `Some(err)` fails that attempt — the
/// seam `gridsim`-driven chaos tests inject through without `maxbcg`
/// depending on the grid layer.
///
/// Partitions run on one thread each. The hook is serialized behind a
/// mutex, so `FnMut` state stays sound; fault *decisions* should key on
/// the `(partition_index, attempt)` arguments (as `gridsim::FaultPlan`
/// does, by pure hashing) rather than call order, which thread scheduling
/// makes nondeterministic. Retries happen inside the owning thread, so a
/// failing stripe never blocks its siblings, and the batch's errors and
/// the recovery report are assembled in stripe order regardless of
/// completion order.
pub fn run_partitioned_recovering(
    config: &MaxBcgConfig,
    sky: &Sky,
    import_window: &SkyRegion,
    candidate_window: &SkyRegion,
    n: usize,
    policy: RecoveryPolicy,
    inject: &mut (dyn FnMut(usize, u32) -> Option<DbError> + Send),
) -> DbResult<(PartitionedRun, RecoveryReport)> {
    assert!(n > 0);
    assert!(policy.max_attempts > 0);
    let attempts_counter = obs::counter("maxbcg.partition.attempts");
    let failover_counter = obs::counter("maxbcg.partition.failovers");
    // Stripe boundaries come from the shared zone-range shard map — the
    // same bucketing the distributed query fabric uses to place shards on
    // nodes — so a partition's native stripe holds exactly its shard's
    // zones and the two layers can never disagree about ownership.
    let shard_map =
        ShardMap::build(ZoneScheme::default(), import_window.dec_min, import_window.dec_max, n);
    let stripes = shard_map.stripes_with_buffers(import_window, PARTITION_MARGIN_DEG);
    let start = Instant::now();
    let inject = Mutex::new(inject);
    let outcomes: Vec<PartitionOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = stripes
            .iter()
            .enumerate()
            .map(|(index, (native, imported))| {
                let inject = &inject;
                let attempts_counter = &attempts_counter;
                scope.spawn(move || {
                    let thread_start = Instant::now();
                    let mut errors = Vec::new();
                    let mut attempt = 0u32;
                    let result = loop {
                        attempts_counter.incr();
                        // The hook may panic (chaos tests inject crashes
                        // that way) — and it may do so while holding the
                        // lock, so lock acquisition shrugs off poisoning:
                        // a poisoned hook only means some earlier attempt
                        // crashed, which is exactly the state being
                        // simulated.
                        let fault = catch_unwind(AssertUnwindSafe(|| {
                            let mut guard =
                                inject.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
                            (*guard)(index, attempt)
                        }));
                        let outcome = match fault {
                            Err(payload) => Err(panic_to_error(payload, index)),
                            Ok(Some(e)) => Err(e),
                            Ok(None) => catch_unwind(AssertUnwindSafe(|| {
                                run_one_partition(
                                    config,
                                    sky,
                                    native,
                                    imported,
                                    index,
                                    n,
                                    candidate_window,
                                )
                            }))
                            .unwrap_or_else(|payload| Err(panic_to_error(payload, index))),
                        };
                        attempt += 1;
                        match outcome {
                            Ok(mut p) => {
                                p.wall = thread_start.elapsed();
                                break Ok(p);
                            }
                            Err(e) => {
                                errors.push(format!("P{} attempt {attempt}: {e}", index + 1));
                                if attempt >= policy.max_attempts {
                                    break Err(e);
                                }
                            }
                        }
                    };
                    PartitionOutcome { result, attempts: attempt, errors }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("partition thread must not panic outside catch_unwind"))
            .collect()
    });
    let mut partitions = Vec::with_capacity(n);
    let mut recovery = RecoveryReport::default();
    for outcome in outcomes {
        recovery.attempts.push(outcome.attempts);
        recovery.errors.extend(outcome.errors);
        if outcome.attempts > 1 && outcome.result.is_ok() {
            recovery.failovers += 1;
            failover_counter.incr();
        }
        partitions.push(outcome.result?);
    }
    let wall_elapsed = start.elapsed();

    // Merge: native stripes tile the window, so ownership is unique.
    let mut candidates = Vec::new();
    let mut clusters = Vec::new();
    let mut members = Vec::new();
    for p in &partitions {
        candidates.extend(p.candidates.iter().copied());
        clusters.extend(p.clusters.iter().copied());
        members.extend(p.members.iter().copied());
    }
    candidates.sort_by_key(|c| c.objid);
    clusters.sort_by_key(|c| c.objid);
    members.sort_by_key(|a| (a.cluster_objid, a.galaxy_objid));
    // Ownership must be disjoint: duplicate objids mean the stripe
    // ownership rule broke.
    for w in candidates.windows(2) {
        if w[0].objid == w[1].objid {
            return Err(DbError::Corrupt(format!(
                "candidate {} claimed by two partitions",
                w[0].objid
            )));
        }
    }
    Ok((PartitionedRun { partitions, candidates, clusters, members, wall_elapsed }, recovery))
}

/// The sky-partitioning planner of §2.6: "A possible optimization is to
/// define some sort of sky partitioning algorithm that breaks the sky in
/// areas that can fit in memory, 2 GB in our case."
///
/// Given the import window, an expected surface density, and a memory
/// budget, returns the smallest partition count whose *buffered* stripes
/// (native + the 1 deg duplicated margins) fit the budget. The per-galaxy
/// footprint covers the Galaxy row, its Zone row, and index overhead.
/// Returns `None` when even the margins alone exceed the budget (the
/// region cannot be stripe-partitioned into memory at this density).
pub fn plan_for_memory(
    import_window: &SkyRegion,
    galaxies_per_deg2: f64,
    budget_bytes: u64,
) -> Option<usize> {
    /// Galaxy row (~60 B payload) + Zone row (~65 B) + B-tree slot/page
    /// overhead, rounded up.
    const BYTES_PER_GALAXY: f64 = 192.0;
    for n in 1..=1024 {
        let worst_stripe_deg2 = import_window.ra_span()
            * (import_window.dec_span() / n as f64 + 2.0 * PARTITION_MARGIN_DEG)
                .min(import_window.dec_span());
        let bytes = worst_stripe_deg2 * galaxies_per_deg2 * BYTES_PER_GALAXY;
        if bytes <= budget_bytes as f64 {
            return Some(n);
        }
        // Once the stripe height is dominated by the fixed margins, more
        // partitions cannot help.
        if import_window.dec_span() / n as f64 <= PARTITION_MARGIN_DEG / 8.0 {
            break;
        }
    }
    None
}

/// The automated version of §2.6's proposal: plan the partition count from
/// a memory budget, then run it. "Once an area has been defined, the
/// MaxBCG task is scheduled for execution."
///
/// Returns the chosen partition count together with the run. Errors if the
/// region cannot fit the budget at any stripe count.
pub fn run_memory_fit(
    config: &MaxBcgConfig,
    sky: &Sky,
    import_window: &SkyRegion,
    candidate_window: &SkyRegion,
    budget_bytes: u64,
) -> DbResult<(usize, PartitionedRun)> {
    let density = sky.galaxies.len() as f64 / sky.region.area_deg2();
    let mut n = plan_for_memory(import_window, density, budget_bytes).ok_or_else(|| {
        DbError::Corrupt(format!(
            "no stripe count fits {budget_bytes} bytes at {density:.0} galaxies/deg2"
        ))
    })?;
    // The §2.6 re-plan loop: if a run still hits buffer-pool pressure
    // (the planner's footprint model is an estimate, not a guarantee),
    // split finer and try again instead of surfacing the transient error.
    loop {
        match run_partitioned(config, sky, import_window, candidate_window, n) {
            Ok(run) => return Ok((n, run)),
            Err(e) if e.is_transient() && n < 64 => n += 1,
            Err(e) => return Err(e),
        }
    }
}

/// Stripe ownership, the one rule every partitioned run uses: stripe
/// `index` of `n` owns `dec` on the half-open `[dec_min, dec_max)` of its
/// `native` stripe, the top stripe keeping its inclusive upper edge.
/// Adjacent stripes share their edge value exactly, so an object on an
/// interior edge belongs to the stripe above and is never owned twice.
pub fn owns(native: &SkyRegion, index: usize, n: usize, dec: f64) -> bool {
    let above_ok = if index + 1 == n { dec <= native.dec_max } else { dec < native.dec_max };
    dec >= native.dec_min && above_ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use skycore::kcorr::KcorrTable;
    use skysim::SkyConfig;

    fn setup() -> (MaxBcgConfig, Sky, SkyRegion, SkyRegion) {
        let config = MaxBcgConfig::default();
        let kcorr = KcorrTable::generate(config.kcorr);
        // A tall-enough region that 3 stripes plus 1 deg buffers make
        // sense, wide enough that the 0.5 deg candidate margins leave room.
        let survey = SkyRegion::new(180.0, 182.0, -2.0, 2.0);
        let mut sky_cfg = SkyConfig::scaled(0.08);
        sky_cfg.clusters.density_per_deg2 = 10.0;
        let sky = Sky::generate(survey, &sky_cfg, &kcorr, 777);
        let candidate_window = survey.shrunk(0.5);
        (config, sky, survey, candidate_window)
    }

    #[test]
    fn partition_union_identical_to_sequential() {
        let (config, sky, survey, cand_window) = setup();
        let mut seq = MaxBcgDb::new(config).unwrap();
        seq.run("seq", &sky, &survey, &cand_window).unwrap();
        let par = run_partitioned(&config, &sky, &survey, &cand_window, 3).unwrap();
        assert_eq!(par.candidates, seq.candidates().unwrap(), "candidate catalogs differ");
        assert_eq!(par.clusters, seq.clusters().unwrap(), "cluster catalogs differ");
        let mut seq_members = seq.members().unwrap();
        seq_members.sort_by(|a, b| {
            (a.cluster_objid, a.galaxy_objid).cmp(&(b.cluster_objid, b.galaxy_objid))
        });
        assert_eq!(par.members, seq_members, "membership tables differ");
        assert!(par.candidates.len() > 10, "test region too sparse to be meaningful");
    }

    #[test]
    fn two_way_partition_also_identical() {
        let (config, sky, survey, cand_window) = setup();
        let mut seq = MaxBcgDb::new(config).unwrap();
        seq.run("seq", &sky, &survey, &cand_window).unwrap();
        let par = run_partitioned(&config, &sky, &survey, &cand_window, 2).unwrap();
        assert_eq!(par.clusters, seq.clusters().unwrap());
    }

    #[test]
    fn duplicated_galaxies_exceed_window_population() {
        let (config, sky, survey, cand_window) = setup();
        let par = run_partitioned(&config, &sky, &survey, &cand_window, 3).unwrap();
        let window_pop = sky.galaxies_in(&survey).count() as u64;
        assert!(
            par.total_galaxies() > window_pop,
            "partitions must import duplicated buffer rows"
        );
        // Figure 6: total duplication is 4 stripes x margin; with a 4 deg
        // dec span split 3 ways and 1 deg margins, duplication is about
        // 4/(4+4) = 50% here. Allow broad slack for Poisson noise.
        let dup_frac = par.total_galaxies() as f64 / window_pop as f64;
        assert!((1.2..2.2).contains(&dup_frac), "duplication fraction {dup_frac}");
    }

    #[test]
    fn partition_reports_carry_paper_labels() {
        let (config, sky, survey, cand_window) = setup();
        let par = run_partitioned(&config, &sky, &survey, &cand_window, 3).unwrap();
        let labels: Vec<&str> =
            par.partitions.iter().map(|p| p.report.label.as_str()).collect();
        assert_eq!(labels, vec!["P1", "P2", "P3"]);
        assert!(par.elapsed() > Duration::ZERO);
        assert!(par.total_cpu() >= par.elapsed(), "sum of partition cpu >= max elapsed");
        // Partitions run concurrently: the batch wall tracks the slowest
        // partition thread, not the sum. The slack term absorbs
        // spawn/join/merge overhead on a loaded host.
        let max_wall = par.max_partition_wall();
        assert!(max_wall > Duration::ZERO);
        assert!(par.wall_elapsed >= max_wall, "batch wall below slowest partition");
        assert!(
            par.wall_elapsed <= max_wall.mul_f64(1.25) + Duration::from_millis(250),
            "batch wall {:?} far exceeds slowest partition {:?} — fan-out is not concurrent",
            par.wall_elapsed,
            max_wall
        );
    }

    #[test]
    fn memory_planner_matches_paper_case() {
        // The paper's case: 104 deg² at ~15k galaxies/deg² in 2 GB — one
        // node suffices (their data was ~66 MB of rows; the engine's
        // footprint model is fatter but far below 2 GB).
        let p = SkyRegion::paper_import_104();
        assert_eq!(plan_for_memory(&p, 15_000.0, 2 << 30), Some(1));
        // A tight budget forces partitioning (the duplicated margins put a
        // ~75 MB floor under any stripe of this region at this density).
        let n = plan_for_memory(&p, 15_000.0, 128 << 20).expect("must be partitionable");
        assert!(n > 1, "128 MB cannot hold the whole region");
        // And the plan actually fits: recompute the worst stripe.
        let worst = p.ra_span() * (p.dec_span() / n as f64 + 2.0);
        assert!(worst * 15_000.0 * 192.0 <= (128 << 20) as f64);
        // An absurd budget cannot be satisfied (margins alone overflow).
        assert_eq!(plan_for_memory(&p, 15_000.0, 1 << 20), None);
    }

    #[test]
    fn planner_scales_with_density() {
        let p = SkyRegion::paper_import_104();
        let sparse = plan_for_memory(&p, 1_000.0, 128 << 20).unwrap();
        let dense = plan_for_memory(&p, 15_000.0, 128 << 20).unwrap();
        assert!(dense >= sparse);
    }

    #[test]
    fn memory_fit_runner_plans_and_matches_sequential() {
        let (config, sky, survey, cand_window) = setup();
        // A budget that forces more than one stripe at this sky's density.
        let density = sky.galaxies.len() as f64 / sky.region.area_deg2();
        let one_stripe_bytes = (survey.area_deg2() * density * 192.0) as u64;
        let budget = one_stripe_bytes.saturating_sub(one_stripe_bytes / 4);
        let (n, run) = run_memory_fit(&config, &sky, &survey, &cand_window, budget).unwrap();
        assert!(n > 1, "budget below one-stripe footprint must split");
        let mut seq = MaxBcgDb::new(config).unwrap();
        seq.run("seq", &sky, &survey, &cand_window).unwrap();
        assert_eq!(run.clusters, seq.clusters().unwrap());
        // An impossible budget errors instead of running.
        assert!(run_memory_fit(&config, &sky, &survey, &cand_window, 1024).is_err());
    }

    #[test]
    fn injected_partition_failures_recover_to_identical_catalog() {
        let (config, sky, survey, cand_window) = setup();
        let mut seq = MaxBcgDb::new(config).unwrap();
        seq.run("seq", &sky, &survey, &cand_window).unwrap();
        // Every partition fails its first attempt (a mix of error returns
        // and real panics); failover must rebuild each stripe and the
        // union must still match the sequential catalog exactly.
        let policy = RecoveryPolicy::default();
        let (par, recovery) = run_partitioned_recovering(
            &config,
            &sky,
            &survey,
            &cand_window,
            3,
            policy,
            &mut |index, attempt| {
                if attempt == 0 {
                    if index % 2 == 0 {
                        Some(DbError::BufferExhausted)
                    } else {
                        panic!("injected partition crash on P{}", index + 1);
                    }
                } else {
                    None
                }
            },
        )
        .unwrap();
        assert_eq!(recovery.failovers, 3);
        assert_eq!(recovery.attempts, vec![2, 2, 2]);
        assert_eq!(recovery.errors.len(), 3);
        assert!(recovery.errors.iter().any(|e| e.contains("panicked")));
        assert_eq!(par.candidates, seq.candidates().unwrap());
        assert_eq!(par.clusters, seq.clusters().unwrap());
    }

    #[test]
    fn unrecoverable_partition_fails_the_batch_with_last_error() {
        let (config, sky, survey, cand_window) = setup();
        let policy = RecoveryPolicy { max_attempts: 2 };
        let err = run_partitioned_recovering(
            &config,
            &sky,
            &survey,
            &cand_window,
            2,
            policy,
            &mut |index, _| (index == 1).then_some(DbError::BufferExhausted),
        )
        .unwrap_err();
        assert_eq!(err, DbError::BufferExhausted);
    }

    #[test]
    fn boundary_ownership_is_exclusive() {
        let native = SkyRegion::new(0.0, 1.0, 0.0, 1.0);
        // Interior stripe: top edge exclusive, bottom inclusive.
        assert!(owns(&native, 1, 3, 0.0));
        assert!(!owns(&native, 1, 3, 1.0));
        // Top stripe keeps its top edge.
        assert!(owns(&native, 2, 3, 1.0));
    }
}
