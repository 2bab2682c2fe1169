//! `fIsCluster` and `spMakeClusters`: decide which candidates are the
//! centers of their clusters.
//!
//! A candidate is a cluster center when it carries the maximum likelihood
//! among all candidates within `radius(z)` degrees and `|Δz| <= 0.05` —
//! found, as in the paper, by running the zone neighborhood search over the
//! galaxy Zone table and joining the hits against `Candidates` (read from
//! the table's cached columns).

use crate::neighbors::visit_nearby_with;
use skycore::bcg::{self, BcgParams};
use skycore::kcorr::KcorrTable;
use skycore::types::Candidate;
use skycore::ZoneScheme;
use stardb::colbatch::ColumnBatch;
use stardb::{Database, DbError, DbResult, Row, Value, ZoneMap};

/// Decode a `Candidates`/`Clusters` row.
pub fn candidate_from_row(row: &Row) -> DbResult<Candidate> {
    Ok(Candidate {
        objid: row.i64(0)?,
        ra: row.f64(1)?,
        dec: row.f64(2)?,
        z: row.f64(3)?,
        i: row.f64(4)?,
        ngal: row.i64(5)? as i32,
        chi2: row.f64(6)?,
    })
}

/// Encode a candidate as a table row.
pub fn candidate_row(c: &Candidate) -> Row {
    Row(vec![
        Value::BigInt(c.objid),
        Value::Float(c.ra),
        Value::Float(c.dec),
        Value::Float(c.z),
        Value::Real(c.i as f32),
        Value::Int(c.ngal),
        Value::Float(c.chi2),
    ])
}

/// The `Candidates` columns `fIsCluster` reads, borrowed from the table's
/// cached batch ([`Database::table_columns`]): `objid` ascending (the
/// clustered key), so joining a neighbor is one binary search.
pub(crate) struct CandidateColumns<'b> {
    objid: &'b [i64],
    z: &'b [f64],
    chi2: &'b [f64],
}

impl<'b> CandidateColumns<'b> {
    /// View `batch`, the `Candidates` table of `db`; `DbError::Corrupt`
    /// when the table's layout is not the schema's (wrong arity or types,
    /// a NULL, or a clustered key other than `objid`).
    pub(crate) fn of(db: &Database, batch: &'b ColumnBatch) -> DbResult<CandidateColumns<'b>> {
        let keyed_on_objid = db.clustered_key_cols("Candidates")? == [0];
        let view = || {
            Some(CandidateColumns {
                objid: batch.col(0).dense_bigints()?,
                z: batch.col(3).dense_floats()?,
                chi2: batch.col(6).dense_floats()?,
            })
        };
        (keyed_on_objid && batch.num_cols() == 7).then(view).flatten().ok_or_else(|| {
            DbError::Corrupt("Candidates table layout differs from its schema".into())
        })
    }

    /// `(z, chi2)` of candidate `objid`; `None` when the galaxy is not a
    /// candidate.
    pub(crate) fn z_chi2(&self, objid: i64) -> Option<(f64, f64)> {
        let r = self.objid.binary_search(&objid).ok()?;
        Some((self.z[r], self.chi2[r]))
    }
}

/// `fIsCluster`: is this candidate the best in its neighborhood?
///
/// `map` is the optional Zone-table zone map; fresh → map-served search,
/// stale or `None` → clustered-index scan, identical answers either way.
pub fn f_is_cluster(
    db: &Database,
    map: Option<&ZoneMap>,
    kcorr: &KcorrTable,
    scheme: &ZoneScheme,
    params: &BcgParams,
    c: &Candidate,
) -> DbResult<bool> {
    let rad = kcorr.nearest(c.z).radius;
    let batch = db.table_columns("Candidates")?;
    let candidates = CandidateColumns::of(db, &batch)?;
    let mut best = f64::NEG_INFINITY;
    visit_nearby_with(db, map, scheme, c.ra, c.dec, rad, |objid, _distance, _| {
        // Most neighbors are galaxies that are not candidates: no row.
        if let Some((z, chi2)) = candidates.z_chi2(objid) {
            if (z - c.z).abs() <= params.z_window {
                best = best.max(chi2);
            }
        }
        true
    })?;
    Ok(bcg::is_cluster_center(c.chi2, best, params))
}

/// `spMakeClusters`: truncate `Clusters` and insert every candidate for
/// which `fIsCluster` returns 1. Returns the number of clusters.
///
/// `workers > 1` evaluates `fIsCluster` on a zone-striped worker pool
/// (`fIsCluster` only reads `Zone` and the fully built `Candidates`
/// table); survivors are inserted in candidate (objid) order, so the
/// `Clusters` table is byte-identical at any worker count.
pub fn sp_make_clusters(
    db: &mut Database,
    map: Option<&ZoneMap>,
    kcorr: &KcorrTable,
    scheme: &ZoneScheme,
    params: &BcgParams,
    workers: usize,
) -> DbResult<u64> {
    db.truncate("Clusters")?;
    // One read of `Candidates` builds the column cache every worker's
    // neighbor join reads, before the workers fan out, and yields the
    // input list (the table is ~3% of galaxies, so this is small).
    let candidates = db
        .table_columns("Candidates")?
        .to_rows()
        .iter()
        .map(candidate_from_row)
        .collect::<DbResult<Vec<_>>>()?;
    crate::parallel::fill_table(
        db,
        "Clusters",
        workers,
        &candidates,
        |c| scheme.zone_of(c.dec),
        |db, c| Ok(f_is_cluster(db, map, kcorr, scheme, params, c)?.then_some(*c)),
        |c| c.map(|c| candidate_row(&c)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::import::sp_import_galaxy;
    use crate::schema::create_schema;
    use crate::zone_task::sp_zone;
    use skycore::kcorr::KcorrConfig;
    use skycore::SkyRegion;
    use stardb::DbConfig;

    /// A hand-built Candidates table: one dominant candidate and one
    /// nearby weaker one at the same redshift, plus a distant candidate.
    fn setup() -> (Database, KcorrTable, ZoneScheme, Vec<Candidate>) {
        let kcorr = KcorrTable::generate(KcorrConfig::sql());
        let mut db = Database::new(DbConfig::in_memory());
        create_schema(&mut db, &kcorr).unwrap();
        // Galaxies backing the zone table: the three candidates.
        let k = kcorr.nearest(0.2);
        let mk = |objid: i64, ra: f64, dec: f64| {
            skycore::Galaxy::with_derived_errors(objid, ra, dec, k.i, k.gr, k.ri)
        };
        let sky = skysim::Sky {
            region: SkyRegion::new(179.0, 182.0, -1.0, 1.0),
            galaxies: vec![mk(1, 180.5, 0.0), mk(2, 180.52, 0.01), mk(3, 181.5, 0.5)],
            truth: vec![],
        };
        sp_import_galaxy(&mut db, &sky, &sky.region.clone()).unwrap();
        let scheme = ZoneScheme::default();
        sp_zone(&mut db, &scheme).unwrap();
        let candidates = vec![
            Candidate { objid: 1, ra: 180.5, dec: 0.0, z: 0.2, i: k.i, ngal: 10, chi2: 2.0 },
            Candidate { objid: 2, ra: 180.52, dec: 0.01, z: 0.2, i: k.i, ngal: 4, chi2: 1.0 },
            Candidate { objid: 3, ra: 181.5, dec: 0.5, z: 0.2, i: k.i, ngal: 5, chi2: 1.5 },
        ];
        for c in &candidates {
            db.insert("Candidates", candidate_row(c)).unwrap();
        }
        (db, kcorr, scheme, candidates)
    }

    #[test]
    fn dominant_candidate_wins_weaker_neighbor_loses() {
        let (db, kcorr, scheme, cands) = setup();
        let p = BcgParams::default();
        assert!(f_is_cluster(&db, None, &kcorr, &scheme, &p, &cands[0]).unwrap());
        assert!(!f_is_cluster(&db, None, &kcorr, &scheme, &p, &cands[1]).unwrap());
        // The distant candidate has no competition.
        assert!(f_is_cluster(&db, None, &kcorr, &scheme, &p, &cands[2]).unwrap());
    }

    #[test]
    fn different_redshift_slices_do_not_compete() {
        let (mut db, kcorr, scheme, mut cands) = setup();
        let p = BcgParams::default();
        // Move the weaker neighbor far in redshift: it now wins its own slice.
        db.delete_by_key("Candidates", &[Value::BigInt(2)]).unwrap();
        cands[1].z = 0.30;
        db.insert("Candidates", candidate_row(&cands[1])).unwrap();
        assert!(f_is_cluster(&db, None, &kcorr, &scheme, &p, &cands[1]).unwrap());
    }

    #[test]
    fn a_wrong_typed_candidates_table_is_an_error_not_another_answer() {
        use crate::schema::candidates_schema;
        use stardb::{Column, DataType, Schema};
        let (mut db, kcorr, scheme, cands) = setup();
        let p = BcgParams::default();
        // The same table with `z` stored as text: the join cannot read a
        // redshift, so no neighbor may silently drop out of the max.
        let mut cols = candidates_schema().columns().to_vec();
        cols[3] = Column::new("z", DataType::Text);
        db.drop_table("Candidates").unwrap();
        db.create_clustered_table("Candidates", Schema::new(cols), &["objid"]).unwrap();
        for c in &cands {
            let mut row = candidate_row(c);
            row.0[3] = Value::Text(c.z.to_string());
            db.insert("Candidates", row).unwrap();
        }
        // Skipping unreadable rows would drop every candidate's own row
        // from its neighborhood and quietly yield an empty cluster set.
        let err = f_is_cluster(&db, None, &kcorr, &scheme, &p, &cands[0]).unwrap_err();
        assert!(matches!(err, DbError::Corrupt(_)), "{err}");
        assert!(sp_make_clusters(&mut db, None, &kcorr, &scheme, &p, 2).is_err());
    }

    #[test]
    fn sp_make_clusters_fills_table() {
        let (mut db, kcorr, scheme, _) = setup();
        let p = BcgParams::default();
        let n = sp_make_clusters(&mut db, None, &kcorr, &scheme, &p, 1).unwrap();
        assert_eq!(n, 2);
        assert_eq!(db.row_count("Clusters").unwrap(), 2);
        let ids: Vec<i64> = db
            .scan("Clusters")
            .unwrap()
            .iter()
            .map(|r| r.i64(0).unwrap())
            .collect();
        assert_eq!(ids, vec![1, 3]);
    }

    #[test]
    fn rerun_is_idempotent() {
        let (mut db, kcorr, scheme, _) = setup();
        let p = BcgParams::default();
        let a = sp_make_clusters(&mut db, None, &kcorr, &scheme, &p, 1).unwrap();
        let b = sp_make_clusters(&mut db, None, &kcorr, &scheme, &p, 1).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn worker_pool_matches_sequential_table() {
        let (mut db, kcorr, scheme, _) = setup();
        let p = BcgParams::default();
        let n1 = sp_make_clusters(&mut db, None, &kcorr, &scheme, &p, 1).unwrap();
        let seq = db.scan("Clusters").unwrap();
        for workers in [2, 4] {
            let n = sp_make_clusters(&mut db, None, &kcorr, &scheme, &p, workers).unwrap();
            assert_eq!(n, n1, "workers={workers}");
            assert_eq!(db.scan("Clusters").unwrap(), seq, "workers={workers}");
        }
    }
}
