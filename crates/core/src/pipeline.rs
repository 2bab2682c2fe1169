//! The MaxBCG database pipeline: the stored-procedure sequence of the
//! paper's appendix, instrumented per task exactly as Table 1 reports it.

use crate::candidate::f_bcg_candidate;
use crate::cluster::{candidate_from_row, candidate_row, sp_make_clusters};
use crate::import::{galaxy_from_row, sp_import_galaxy};
use crate::members::sp_make_galaxies_metric;
use crate::neighbors::ZONE_MAP_COLS;
use crate::parallel;
use crate::schema::create_schema;
use crate::stats::PipelineRun;
use crate::zone_task::sp_zone;
use skycore::bcg::BcgParams;
use skycore::kcorr::{KcorrConfig, KcorrTable};
use skycore::types::{Candidate, Cluster, ClusterMember};
use skycore::{SkyRegion, ZoneScheme};
use skysim::Sky;
use stardb::{Database, DbConfig, DbResult, TaskStats, ZoneMap};
use std::sync::Arc;

/// How `spMakeCandidates` iterates the galaxy table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IterationMode {
    /// The paper's implementation: a SQL cursor, fetched row at a time
    /// ("the iteration through the galaxy table uses SQL cursors which are
    /// very slow. But there was no easy way to avoid them").
    Cursor,
    /// The set-based alternative §2.6 wishes for: one streaming scan.
    SetBased,
}

/// Configuration of the database implementation.
#[derive(Debug, Clone, Copy)]
pub struct MaxBcgConfig {
    /// Engine configuration.
    pub db: DbConfig,
    /// k-correction grid (the paper's SQL case: z-steps of 0.001).
    pub kcorr: KcorrConfig,
    /// Likelihood parameters.
    pub params: BcgParams,
    /// Zone height in degrees (the paper: 30 arcsec).
    pub zone_height_deg: f64,
    /// Galaxy-table iteration strategy.
    pub iteration: IterationMode,
    /// Early χ² filtering (§2.6); disable only for the ablation bench.
    pub early_filter: bool,
    /// Worker threads for the CPU-bound stages (`fBCGCandidate`,
    /// `fIsCluster`, `fGetClusterGalaxiesMetric`). `1` (the default) runs
    /// the sequential path; any count produces byte-identical catalogs —
    /// workers only evaluate, the merge and all inserts stay ordered by
    /// objid (see [`crate::parallel`]).
    pub workers: usize,
}

impl Default for MaxBcgConfig {
    fn default() -> Self {
        MaxBcgConfig {
            db: DbConfig::in_memory(),
            kcorr: KcorrConfig::sql(),
            params: BcgParams::default(),
            zone_height_deg: skycore::angle::ZONE_HEIGHT_DEG,
            iteration: IterationMode::Cursor,
            early_filter: true,
            workers: 1,
        }
    }
}

/// A MaxBCG database instance: one `stardb` database holding the paper's
/// schema, plus the k-correction table and zone scheme.
pub struct MaxBcgDb {
    db: Database,
    kcorr: KcorrTable,
    scheme: ZoneScheme,
    config: MaxBcgConfig,
    /// The Zone table's zone map, taken from the database's cache after
    /// every `spZone` — the same `Arc` the cache holds, shared by every
    /// worker. Version checks inside the neighbor kernel keep it safe
    /// against out-of-band Zone mutations.
    zone_map: Option<Arc<ZoneMap>>,
}

impl MaxBcgDb {
    /// Create the database, schema, and k-correction table.
    pub fn new(config: MaxBcgConfig) -> DbResult<Self> {
        let kcorr = KcorrTable::generate(config.kcorr);
        let mut db = Database::new(config.db);
        create_schema(&mut db, &kcorr)?;
        Ok(MaxBcgDb {
            db,
            kcorr,
            scheme: ZoneScheme::with_height(config.zone_height_deg),
            config,
            zone_map: None,
        })
    }

    /// The underlying database (read access for tests and reports).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Mutable access to the underlying database (ad-hoc SQL sessions over
    /// the populated catalog, as `skyql` provides).
    pub fn db_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// The k-correction table in use.
    pub fn kcorr(&self) -> &KcorrTable {
        &self.kcorr
    }

    /// The zone scheme in use (derived from `config.zone_height_deg`).
    pub fn scheme(&self) -> &ZoneScheme {
        &self.scheme
    }

    /// `spImportGalaxy` as a measured task.
    pub fn import_galaxy(&mut self, sky: &Sky, window: &SkyRegion) -> DbResult<TaskStats> {
        let (_, stats) =
            self.db.run_task("spImportGalaxy", |db| sp_import_galaxy(db, sky, window))?;
        Ok(stats)
    }

    /// `spZone` as a measured task. The truncate-and-refill moves the Zone
    /// table's version, so this also takes the table's fresh zone map
    /// from the database (built here, on the cache miss).
    pub fn make_zone(&mut self) -> DbResult<TaskStats> {
        let scheme = self.scheme;
        let (_, stats) = self.db.run_task("spZone", |db| sp_zone(db, &scheme))?;
        self.zone_map = Some(self.db.zone_map("Zone", ZONE_MAP_COLS.0, ZONE_MAP_COLS.1)?);
        Ok(stats)
    }

    /// The Zone table's zone map as of the last `spZone`; `None` before
    /// `spZone` has run. May be stale if the Zone table was mutated out of
    /// band — the neighbor kernel checks the version and falls back on its
    /// own.
    pub fn zone_snapshot(&self) -> Option<&Arc<ZoneMap>> {
        self.zone_map.as_ref()
    }

    /// `spMakeCandidates` over `window` as a measured task (the paper files
    /// its time under `fBCGCandidate`, the function doing the work).
    pub fn make_candidates(&mut self, window: &SkyRegion) -> DbResult<TaskStats> {
        let kcorr = &self.kcorr;
        let scheme = self.scheme;
        let params = self.config.params;
        let iteration = self.config.iteration;
        let early = self.config.early_filter;
        let workers = self.config.workers;
        let map = self.zone_map.as_deref();
        let (_, stats) = self.db.run_task("fBCGCandidate", |db| {
            db.truncate("Candidates")?;
            // Materialize the galaxy list with the configured iteration
            // strategy: the cursor's fetch-at-a-time cost profile is the
            // paper's, the streaming scan is §2.6's set-based wish. Either
            // way the list is in objid order, and so is the catalog.
            let mut galaxies = Vec::new();
            match iteration {
                IterationMode::Cursor => {
                    let mut cursor = db.cursor("Galaxy")?;
                    while let Some(row) = cursor.fetch_next(db)? {
                        let g = galaxy_from_row(&row)?;
                        if window.contains(g.ra, g.dec) {
                            galaxies.push(g);
                        }
                    }
                }
                IterationMode::SetBased => {
                    db.scan_with("Galaxy", |row| {
                        let g = galaxy_from_row(row)?;
                        if window.contains(g.ra, g.dec) {
                            galaxies.push(g);
                        }
                        Ok(true)
                    })?;
                }
            }
            // Build the Galaxy column cache once, before the workers fan
            // out (fBCGCandidate's neighbor join reads it).
            db.table_columns("Galaxy")?;
            parallel::fill_table(
                db,
                "Candidates",
                workers,
                &galaxies,
                |g| scheme.zone_of(g.dec),
                |db, g| f_bcg_candidate(db, map, kcorr, &scheme, &params, g, early),
                |c| c.map(|c| candidate_row(&c)),
            )
        })?;
        Ok(stats)
    }

    /// `spMakeClusters` as a measured task (Table 1's `fIsCluster` row).
    pub fn make_clusters(&mut self) -> DbResult<TaskStats> {
        let kcorr = &self.kcorr;
        let scheme = self.scheme;
        let params = self.config.params;
        let workers = self.config.workers;
        let map = self.zone_map.as_deref();
        let (_, stats) = self.db.run_task("fIsCluster", |db| {
            sp_make_clusters(db, map, kcorr, &scheme, &params, workers)
        })?;
        Ok(stats)
    }

    /// `spMakeGalaxiesMetric` as a measured task.
    pub fn make_galaxies_metric(&mut self) -> DbResult<TaskStats> {
        let kcorr = &self.kcorr;
        let scheme = self.scheme;
        let params = self.config.params;
        let workers = self.config.workers;
        let map = self.zone_map.as_deref();
        let (_, stats) = self.db.run_task("spMakeGalaxiesMetric", |db| {
            sp_make_galaxies_metric(db, map, kcorr, &scheme, &params, workers)
        })?;
        Ok(stats)
    }

    /// Run the full pipeline: import `import_window`, zone, find candidates
    /// over `candidate_window` (the target plus its 0.5 deg buffer, Figure
    /// 4), select clusters, retrieve members.
    ///
    /// ```
    /// use maxbcg::{IterationMode, MaxBcgConfig, MaxBcgDb};
    /// use skycore::kcorr::KcorrTable;
    /// use skycore::SkyRegion;
    /// use skysim::{Sky, SkyConfig};
    ///
    /// let config = MaxBcgConfig { iteration: IterationMode::SetBased, ..Default::default() };
    /// let kcorr = KcorrTable::generate(config.kcorr);
    /// let survey = SkyRegion::new(180.0, 181.5, -0.75, 0.75);
    /// let sky = Sky::generate(survey, &SkyConfig::test(), &kcorr, 7);
    /// let mut db = MaxBcgDb::new(config).unwrap();
    /// let report = db.run("demo", &sky, &survey, &survey.shrunk(0.5)).unwrap();
    /// assert_eq!(report.galaxies as usize, sky.galaxies.len());
    /// assert_eq!(report.tasks.len(), 5); // import, zone, candidates, clusters, members
    /// ```
    pub fn run(
        &mut self,
        label: &str,
        sky: &Sky,
        import_window: &SkyRegion,
        candidate_window: &SkyRegion,
    ) -> DbResult<PipelineRun> {
        let _span = obs::span(label);
        let tasks = vec![
            self.import_galaxy(sky, import_window)?,
            self.make_zone()?,
            self.make_candidates(candidate_window)?,
            self.make_clusters()?,
            self.make_galaxies_metric()?,
        ];
        let report = PipelineRun {
            label: label.to_owned(),
            tasks,
            galaxies: self.db.row_count("Galaxy")?,
            candidates: self.db.row_count("Candidates")?,
            clusters: self.db.row_count("Clusters")?,
            members: self.db.row_count("ClusterGalaxiesMetric")?,
        };
        report.record_to_obs();
        Ok(report)
    }

    /// Materialize the candidate catalog.
    pub fn candidates(&self) -> DbResult<Vec<Candidate>> {
        let mut out = Vec::new();
        self.db.scan_with("Candidates", |row| {
            out.push(candidate_from_row(row)?);
            Ok(true)
        })?;
        Ok(out)
    }

    /// Materialize the cluster catalog.
    pub fn clusters(&self) -> DbResult<Vec<Cluster>> {
        let mut out = Vec::new();
        self.db.scan_with("Clusters", |row| {
            out.push(candidate_from_row(row)?);
            Ok(true)
        })?;
        Ok(out)
    }

    /// Materialize the membership table.
    pub fn members(&self) -> DbResult<Vec<ClusterMember>> {
        let mut out = Vec::new();
        self.db.scan_with("ClusterGalaxiesMetric", |row| {
            out.push(ClusterMember {
                cluster_objid: row.i64(0)?,
                galaxy_objid: row.i64(1)?,
                distance: row.f64(2)?,
            });
            Ok(true)
        })?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skysim::SkyConfig;

    fn run_pipeline(iteration: IterationMode) -> (MaxBcgDb, PipelineRun, Sky) {
        let config = MaxBcgConfig { iteration, ..MaxBcgConfig::default() };
        let kcorr = KcorrTable::generate(config.kcorr);
        let survey = SkyRegion::new(180.0, 182.2, -1.1, 1.1);
        let mut sky_cfg = SkyConfig::scaled(0.15);
        sky_cfg.clusters.density_per_deg2 = 12.0;
        let sky = Sky::generate(survey, &sky_cfg, &kcorr, 404);
        let target = survey.shrunk(0.5); // leave a candidate buffer
        let mut db = MaxBcgDb::new(config).unwrap();
        let report = db.run("test", &sky, &survey, &target).unwrap();
        (db, report, sky)
    }

    #[test]
    fn full_pipeline_produces_catalogs() {
        let (db, report, sky) = run_pipeline(IterationMode::Cursor);
        assert_eq!(report.galaxies as usize, sky.galaxies.len());
        assert!(report.candidates > 0, "must find candidates");
        assert!(report.clusters > 0, "must find clusters");
        assert!(report.clusters <= report.candidates);
        assert!(report.members >= report.clusters, "every cluster lists its BCG");
        assert_eq!(report.tasks.len(), 5);
        // Every cluster is a candidate.
        let clusters = db.clusters().unwrap();
        let cands = db.candidates().unwrap();
        for c in &clusters {
            assert!(cands.iter().any(|k| k == c));
        }
    }

    #[test]
    fn cursor_and_set_based_agree_exactly() {
        let (a, _, _) = run_pipeline(IterationMode::Cursor);
        let (b, _, _) = run_pipeline(IterationMode::SetBased);
        assert_eq!(a.candidates().unwrap(), b.candidates().unwrap());
        assert_eq!(a.clusters().unwrap(), b.clusters().unwrap());
        assert_eq!(a.members().unwrap(), b.members().unwrap());
    }

    #[test]
    fn worker_count_never_changes_the_catalogs() {
        let (seq, _, _) = run_pipeline(IterationMode::Cursor);
        for workers in [2, 4] {
            let config = MaxBcgConfig { workers, ..MaxBcgConfig::default() };
            let kcorr = KcorrTable::generate(config.kcorr);
            let survey = SkyRegion::new(180.0, 182.2, -1.1, 1.1);
            let mut sky_cfg = SkyConfig::scaled(0.15);
            sky_cfg.clusters.density_per_deg2 = 12.0;
            let sky = Sky::generate(survey, &sky_cfg, &kcorr, 404);
            let mut db = MaxBcgDb::new(config).unwrap();
            db.run("par", &sky, &survey, &survey.shrunk(0.5)).unwrap();
            assert_eq!(db.candidates().unwrap(), seq.candidates().unwrap(), "workers={workers}");
            assert_eq!(db.clusters().unwrap(), seq.clusters().unwrap(), "workers={workers}");
            assert_eq!(db.members().unwrap(), seq.members().unwrap(), "workers={workers}");
        }
    }

    #[test]
    fn btree_reference_and_zone_map_give_identical_catalogs() {
        use crate::candidate::f_bcg_candidate;
        use crate::cluster::f_is_cluster;
        use crate::members::f_get_cluster_galaxies;
        // The pipeline serves every neighbor search from the Zone map;
        // re-derive each catalog on the clustered-index reference path
        // (no map) and demand the same bytes, stage by stage.
        let (db, _, sky) = run_pipeline(IterationMode::Cursor);
        let map = db.zone_snapshot().expect("spZone takes the Zone map");
        assert!(Arc::ptr_eq(map, &db.db().zone_map("Zone", 0, 1).unwrap()));
        let (sdb, kcorr, scheme) = (db.db(), db.kcorr(), db.scheme());
        let params = MaxBcgConfig::default().params;
        let target = sky.region.shrunk(0.5);
        let mut galaxies = Vec::new();
        sdb.scan_with("Galaxy", |row| {
            let g = galaxy_from_row(row)?;
            if target.contains(g.ra, g.dec) {
                galaxies.push(g);
            }
            Ok(true)
        })
        .unwrap();
        let candidates: Vec<Candidate> = galaxies
            .iter()
            .filter_map(|g| f_bcg_candidate(sdb, None, kcorr, scheme, &params, g, true).unwrap())
            .collect();
        assert!(!candidates.is_empty());
        assert_eq!(candidates, db.candidates().unwrap());
        let clusters: Vec<Cluster> = candidates
            .into_iter()
            .filter(|c| f_is_cluster(sdb, None, kcorr, scheme, &params, c).unwrap())
            .collect();
        assert_eq!(clusters, db.clusters().unwrap());
        let members: Vec<ClusterMember> = clusters
            .iter()
            .flat_map(|c| f_get_cluster_galaxies(sdb, None, kcorr, scheme, &params, c).unwrap())
            .collect();
        assert_eq!(members, db.members().unwrap());
    }

    #[test]
    fn neighbor_joins_read_pages_not_one_lookup_per_neighbor() {
        // The joins behind fBCGCandidate and fIsCluster read each table's
        // column cache, built by one scan per stage; the zone searches run
        // on the Zone map. So the two stages' page reads are bounded by
        // the pages of the tables they scan plus a B-tree descent per
        // inserted row, however many neighbor pairs the searches examine.
        let (db, report, _) = run_pipeline(IterationMode::SetBased);
        let sdb = db.db();
        let pages = |t: &str| {
            let before = sdb.io_stats().logical_reads;
            sdb.scan_with(t, |_| Ok(true)).unwrap();
            sdb.io_stats().logical_reads - before
        };
        let (galaxy_pages, candidate_pages) = (pages("Galaxy"), pages("Candidates"));
        let descent = 5; // an insert's descent and splits, with room to spare
        let candidates = &report.tasks[2];
        // The galaxy list and the Galaxy column cache: two scans.
        let bound = 2 * galaxy_pages + descent * report.candidates + 16;
        assert!(
            candidates.logical_reads <= bound,
            "fBCGCandidate read {} pages; bound {bound} ({galaxy_pages} Galaxy pages, {} inserts)",
            candidates.logical_reads,
            report.candidates
        );
        let clusters = &report.tasks[3];
        let bound = candidate_pages + descent * report.clusters + 16;
        assert!(
            clusters.logical_reads <= bound,
            "fIsCluster read {} pages; bound {bound} \
             ({candidate_pages} Candidates pages, {} inserts)",
            clusters.logical_reads,
            report.clusters
        );
    }

    #[test]
    fn recovers_most_injected_interior_clusters() {
        let (db, _, sky) = run_pipeline(IterationMode::Cursor);
        let clusters = db.clusters().unwrap();
        let interior = sky.region.shrunk(0.6);
        let mut hit = 0;
        let mut total = 0;
        for t in sky.truth_in(&interior).filter(|t| t.members >= 8) {
            total += 1;
            // Recovered if some cluster BCG sits within 2 arcmin.
            if clusters.iter().any(|c| {
                skycore::coords::sep_radec_deg(c.ra, c.dec, t.ra, t.dec) < 2.0 / 60.0
            }) {
                hit += 1;
            }
        }
        assert!(total >= 3, "need clusters to score, got {total}");
        // Boosted cluster density makes clusters compete inside each
        // other's comparison radius (real MaxBCG behavior: only the best
        // candidate of a neighborhood survives fIsCluster), so recovery
        // of *individual* injections saturates below 100%.
        assert!(hit * 2 >= total, "recovered {hit}/{total}");
    }

    #[test]
    fn task_stats_have_paper_names() {
        let (_, report, _) = run_pipeline(IterationMode::SetBased);
        let names: Vec<&str> = report.tasks.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["spImportGalaxy", "spZone", "fBCGCandidate", "fIsCluster", "spMakeGalaxiesMetric"]
        );
        // Every task did measurable work. (Which task dominates is a
        // survey-density question the table1 bench measures, not a
        // unit-test one.)
        assert!(report.tasks.iter().all(|t| t.logical_reads > 0));
    }
}
