//! `fBCGCandidate`: the per-galaxy likelihood evaluation, database style —
//! the χ² filter as a k-correction join, one zone-indexed neighbor search
//! bounded by the windows of the passing redshifts, and the neighbor join
//! back to `Galaxy` for photometry, read from the table's cached columns.

use crate::import::GalaxyColumns;
use crate::neighbors::visit_nearby_with;
use skycore::bcg::{self, BcgParams, PassingRedshift};
use skycore::kcorr::KcorrTable;
use skycore::types::{Candidate, Friend, Galaxy};
use skycore::ZoneScheme;
use stardb::{Database, DbError, DbResult, ZoneMap};
use std::sync::OnceLock;

struct CandidateObs {
    evaluated: obs::Counter,
    early_rejected: obs::Counter,
    friends_joined: obs::Counter,
}

/// Counters for the paper's §2.6 early-filter claim: `early_rejected /
/// evaluated` is the fraction of galaxies the k-correction χ² cut
/// discards before any spatial work.
fn cobs() -> &'static CandidateObs {
    static C: OnceLock<CandidateObs> = OnceLock::new();
    C.get_or_init(|| CandidateObs {
        evaluated: obs::counter("maxbcg.candidate.evaluated"),
        early_rejected: obs::counter("maxbcg.candidate.early_rejected"),
        friends_joined: obs::counter("maxbcg.candidate.friends_joined"),
    })
}

/// Evaluate one galaxy. Returns the zero-or-one-row result of the paper's
/// table-valued function.
///
/// `early_filter` is the paper's §2.6 design choice: when `true` (the
/// paper's implementation), galaxies failing `χ² < 7` at every redshift are
/// discarded before any spatial work; when `false` (the ablation), the
/// neighbor search and per-redshift counting run for *all* redshifts and
/// the χ² cut is applied only at the very end — same answer, dramatically
/// more work.
///
/// `map` is the optional Zone-table zone map: when fresh, it serves the
/// neighbor search; stale or `None` takes the clustered-index path. Either
/// way the answer is identical (see [`crate::neighbors`]).
pub fn f_bcg_candidate(
    db: &Database,
    map: Option<&ZoneMap>,
    kcorr: &KcorrTable,
    scheme: &ZoneScheme,
    params: &BcgParams,
    g: &Galaxy,
    early_filter: bool,
) -> DbResult<Option<Candidate>> {
    // Filter step: JOIN with Kcorr, keep redshifts with chisq < 7.
    cobs().evaluated.incr();
    let passing = bcg::passing_redshifts(g, kcorr, params);
    if passing.is_empty() {
        cobs().early_rejected.incr();
        return Ok(None);
    }
    let (search_set, windows) = if early_filter {
        (passing.clone(), bcg::search_windows(g.i, &passing, kcorr, params))
    } else {
        // Ablation: pretend every redshift passed, so the search radius
        // and photometric windows balloon to the full table's extent.
        let all: Vec<PassingRedshift> = kcorr
            .rows()
            .iter()
            .map(|k| PassingRedshift { zid: k.zid, chisq: bcg::chisq(g, k, params) })
            .collect();
        let w = bcg::search_windows(g.i, &all, kcorr, params);
        (all, w)
    };

    // Look for neighbors in the Zone table, then join with Galaxy for
    // photometry and apply the bounding windows. The join reads the
    // table's cached columns, fetched only now that the galaxy has passed
    // the χ² filter.
    let batch = db.table_columns("Galaxy")?;
    let galaxy = GalaxyColumns::of(db, &batch)?;
    let mut friends: Vec<Friend> = Vec::new();
    visit_nearby_with(db, map, scheme, g.ra, g.dec, windows.radius_deg, |objid, distance, _| {
        // A Zone objid with no Galaxy row (a Zone table stale against
        // Galaxy) joins nothing and is skipped, as the SQL join would.
        if objid != g.objid {
            if let Some(f) = galaxy.friend(objid, distance).filter(|f| windows.admits(f)) {
                friends.push(f);
            }
        }
        true
    })?;
    cobs().friends_joined.add(friends.len() as u64);

    // Count neighbors per redshift and pick the most likely.
    let counts = bcg::count_neighbors(&search_set, &friends, kcorr, g.i, params);
    let best = if early_filter {
        bcg::best_likelihood(&search_set, &counts, params)
    } else {
        // Apply the deferred chisq cut now: only truly passing redshifts
        // may win, so the ablation returns identical answers.
        let mut filtered_counts = counts.clone();
        for (c, pr) in filtered_counts.iter_mut().zip(&search_set) {
            if pr.chisq >= params.chisq_cut {
                *c = 0;
            }
        }
        bcg::best_likelihood(&search_set, &filtered_counts, params)
    };
    let Some((idx, chi)) = best else {
        return Ok(None);
    };
    // The winning zid came from this same table, so a miss means the
    // k-correction grid was corrupted mid-run — propagate, don't panic.
    let k = kcorr.row(search_set[idx].zid).ok_or_else(|| {
        DbError::Corrupt(format!(
            "kcorr row {} missing for winning redshift",
            search_set[idx].zid
        ))
    })?;
    Ok(Some(Candidate {
        objid: g.objid,
        ra: g.ra,
        dec: g.dec,
        z: k.z,
        i: g.i,
        ngal: counts[idx] as i32 + 1,
        chi2: chi,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::import::{galaxy_from_row, sp_import_galaxy};
    use crate::schema::create_schema;
    use crate::zone_task::sp_zone;
    use skycore::kcorr::KcorrConfig;
    use skycore::SkyRegion;
    use skysim::{Sky, SkyConfig};
    use stardb::{DbConfig, Value};

    fn setup() -> (Database, Sky, KcorrTable, ZoneScheme) {
        let kcorr = KcorrTable::generate(KcorrConfig::sql());
        let mut db = Database::new(DbConfig::in_memory());
        create_schema(&mut db, &kcorr).unwrap();
        let region = SkyRegion::new(180.0, 182.0, -1.0, 1.0);
        let mut sky_cfg = SkyConfig::scaled(0.2);
        // Boost the cluster rate so sparse test skies still carry signal.
        sky_cfg.clusters.density_per_deg2 = 12.0;
        let sky = Sky::generate(region, &sky_cfg, &kcorr, 77);
        sp_import_galaxy(&mut db, &sky, &region).unwrap();
        let scheme = ZoneScheme::default();
        sp_zone(&mut db, &scheme).unwrap();
        (db, sky, kcorr, scheme)
    }

    /// Galaxies as the database sees them (real-rounded photometry).
    fn db_galaxy(db: &Database, objid: i64) -> Galaxy {
        let row = db.get("Galaxy", &[Value::BigInt(objid)]).unwrap().unwrap();
        galaxy_from_row(&row).unwrap()
    }

    #[test]
    fn recovers_injected_bcgs() {
        let (db, sky, kcorr, scheme) = setup();
        let params = BcgParams::default();
        let interior = sky.region.shrunk(0.45);
        let mut found = 0;
        let mut total = 0;
        for t in sky.truth_in(&interior).filter(|t| t.members >= 8) {
            total += 1;
            let g = db_galaxy(&db, t.bcg_objid);
            if let Some(c) =
                f_bcg_candidate(&db, None, &kcorr, &scheme, &params, &g, true).unwrap()
            {
                assert!((c.z - t.z).abs() < 0.08, "z {} vs {}", c.z, t.z);
                assert!(c.ngal >= 2);
                found += 1;
            }
        }
        assert!(total > 0, "need rich interior clusters");
        assert!(found * 10 >= total * 7, "recovered {found}/{total}");
    }

    #[test]
    fn matches_brute_force_evaluation() {
        // The DB path (zone search + Galaxy join) must equal the shared
        // in-memory evaluation over the same real-rounded inputs.
        let (db, sky, kcorr, scheme) = setup();
        let params = BcgParams::default();
        let mut checked = 0;
        for g_raw in sky.galaxies.iter().step_by(37) {
            let g = db_galaxy(&db, g_raw.objid);
            let via_db = f_bcg_candidate(&db, None, &kcorr, &scheme, &params, &g, true).unwrap();
            let center = g.unit_vec();
            let via_mem = bcg::evaluate_candidate(&g, &kcorr, &params, |w| {
                sky.galaxies
                    .iter()
                    .filter(|o| o.objid != g.objid)
                    .filter_map(|o| {
                        let og = db_galaxy(&db, o.objid);
                        let d = center.sep_deg_approx(&og.unit_vec());
                        (d < w.radius_deg).then_some(Friend {
                            objid: og.objid,
                            distance: d,
                            i: og.i,
                            gr: og.gr,
                            ri: og.ri,
                        })
                    })
                    .collect()
            });
            assert_eq!(via_db, via_mem, "objid {}", g.objid);
            checked += 1;
        }
        assert!(checked > 10);
    }

    #[test]
    fn ablation_returns_identical_answers() {
        let (db, sky, kcorr, scheme) = setup();
        let params = BcgParams::default();
        for g_raw in sky.galaxies.iter().step_by(101) {
            let g = db_galaxy(&db, g_raw.objid);
            let fast = f_bcg_candidate(&db, None, &kcorr, &scheme, &params, &g, true).unwrap();
            let slow = f_bcg_candidate(&db, None, &kcorr, &scheme, &params, &g, false).unwrap();
            assert_eq!(fast, slow, "objid {}", g.objid);
        }
    }

    #[test]
    fn junk_galaxy_rejected_without_spatial_work() {
        let (db, _, kcorr, scheme) = setup();
        let params = BcgParams::default();
        let junk = Galaxy::with_derived_errors(999_999_999, 180.5, 0.0, 18.0, -1.5, 3.0);
        let io_before = db.io_stats().logical_reads;
        let out = f_bcg_candidate(&db, None, &kcorr, &scheme, &params, &junk, true).unwrap();
        assert!(out.is_none());
        assert_eq!(
            db.io_stats().logical_reads,
            io_before,
            "early filter must reject junk with zero page reads"
        );
    }
}
