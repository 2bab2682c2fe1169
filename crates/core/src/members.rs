//! `fGetClusterGalaxiesMetric` and `spMakeGalaxiesMetric`: retrieve the
//! galaxies belonging to each cluster — everything within
//! `radius(z) * r200(ngal)` degrees of the BCG that sits inside the
//! magnitude and ridge-line color windows at the cluster redshift.

use crate::cluster::candidate_from_row;
use crate::import::GalaxyColumns;
use crate::neighbors::visit_nearby_with;
use skycore::bcg::{self, BcgParams};
use skycore::kcorr::KcorrTable;
use skycore::types::{Cluster, ClusterMember};
use skycore::ZoneScheme;
use stardb::{Database, DbResult, Row, Value, ZoneMap};

/// `fGetClusterGalaxiesMetric` for one cluster: the BCG itself (distance
/// 0) plus every admitted member.
///
/// `map` is the optional Zone-table zone map; fresh → map-served search,
/// stale or `None` → clustered-index scan, identical answers either way.
pub fn f_get_cluster_galaxies(
    db: &Database,
    map: Option<&ZoneMap>,
    kcorr: &KcorrTable,
    scheme: &ZoneScheme,
    params: &BcgParams,
    cluster: &Cluster,
) -> DbResult<Vec<ClusterMember>> {
    let k = kcorr.nearest(cluster.z);
    let w = bcg::member_windows(k, cluster.i, f64::from(cluster.ngal), params);
    // Insert the central galaxy first, as the SQL does.
    let mut members = vec![ClusterMember {
        cluster_objid: cluster.objid,
        galaxy_objid: cluster.objid,
        distance: 0.0,
    }];
    let batch = db.table_columns("Galaxy")?;
    let galaxy = GalaxyColumns::of(db, &batch)?;
    let (ra, dec) = (cluster.ra, cluster.dec);
    visit_nearby_with(db, map, scheme, ra, dec, w.radius_deg, |galaxy_objid, distance, _| {
        if galaxy_objid != cluster.objid
            && galaxy.friend(galaxy_objid, distance).is_some_and(|f| w.admits(&f))
        {
            members.push(ClusterMember { cluster_objid: cluster.objid, galaxy_objid, distance });
        }
        true
    })?;
    Ok(members)
}

/// `spMakeGalaxiesMetric`: loop over `Clusters` (a cursor in the paper)
/// filling `ClusterGalaxiesMetric`. Returns the number of membership rows.
///
/// `workers > 1` expands clusters on a zone-striped worker pool
/// (`fGetClusterGalaxiesMetric` only reads `Galaxy` and `Zone`). The
/// metric table is a heap whose scan order is insertion order, so the
/// per-cluster groups are written in cluster-objid order — `Clusters`
/// being objid-clustered — at any worker count; within a group the
/// BCG-first visit order is already deterministic.
pub fn sp_make_galaxies_metric(
    db: &mut Database,
    map: Option<&ZoneMap>,
    kcorr: &KcorrTable,
    scheme: &ZoneScheme,
    params: &BcgParams,
    workers: usize,
) -> DbResult<u64> {
    db.truncate("ClusterGalaxiesMetric")?;
    let mut clusters = Vec::new();
    db.scan_with("Clusters", |row| {
        clusters.push(candidate_from_row(row)?);
        Ok(true)
    })?;
    // Build the Galaxy column cache once, before the workers fan out.
    db.table_columns("Galaxy")?;
    crate::parallel::fill_table(
        db,
        "ClusterGalaxiesMetric",
        workers,
        &clusters,
        |c| scheme.zone_of(c.dec),
        |db, cluster| f_get_cluster_galaxies(db, map, kcorr, scheme, params, cluster),
        |group| {
            group.into_iter().map(|m| {
                Row(vec![
                    Value::BigInt(m.cluster_objid),
                    Value::BigInt(m.galaxy_objid),
                    Value::Float(m.distance),
                ])
            })
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::candidate_row;
    use crate::import::sp_import_galaxy;
    use crate::schema::create_schema;
    use crate::zone_task::sp_zone;
    use skycore::kcorr::KcorrConfig;
    use skycore::types::Candidate;
    use skycore::{Galaxy, SkyRegion};
    use stardb::DbConfig;

    /// One cluster of known membership: BCG + 5 on-ridge members inside
    /// the metric radius + contaminants (too blue / too bright / too far).
    fn setup() -> (Database, KcorrTable, ZoneScheme, Cluster) {
        let kcorr = KcorrTable::generate(KcorrConfig::sql());
        let mut db = Database::new(DbConfig::in_memory());
        create_schema(&mut db, &kcorr).unwrap();
        let k = kcorr.nearest(0.15);
        let ngal = 6.0;
        let rad = k.radius * bcg::r200_mpc(ngal);
        let mut galaxies = vec![Galaxy::with_derived_errors(1, 180.0, 0.0, k.i, k.gr, k.ri)];
        for j in 0..5i64 {
            let ang = j as f64 * std::f64::consts::TAU / 5.0;
            galaxies.push(Galaxy::with_derived_errors(
                10 + j,
                180.0 + 0.6 * rad * ang.cos(),
                0.6 * rad * ang.sin(),
                k.i + 1.0,
                k.gr,
                k.ri,
            ));
        }
        // Contaminants: wrong color, brighter than BCG, outside radius.
        galaxies.push(Galaxy::with_derived_errors(20, 180.01, 0.01, k.i + 1.0, k.gr - 0.5, k.ri));
        galaxies.push(Galaxy::with_derived_errors(21, 180.02, 0.0, k.i - 1.0, k.gr, k.ri));
        galaxies.push(Galaxy::with_derived_errors(22, 180.0 + 3.0 * rad, 0.0, k.i + 1.0, k.gr, k.ri));
        let sky = skysim::Sky {
            region: SkyRegion::new(179.0, 181.0, -1.0, 1.0),
            galaxies,
            truth: vec![],
        };
        sp_import_galaxy(&mut db, &sky, &sky.region.clone()).unwrap();
        let scheme = ZoneScheme::default();
        sp_zone(&mut db, &scheme).unwrap();
        let cluster =
            Candidate { objid: 1, ra: 180.0, dec: 0.0, z: 0.15, i: k.i, ngal: 6, chi2: 1.0 };
        db.insert("Clusters", candidate_row(&cluster)).unwrap();
        (db, kcorr, scheme, cluster)
    }

    #[test]
    fn members_are_exactly_the_injected_ones() {
        let (db, kcorr, scheme, cluster) = setup();
        let p = BcgParams::default();
        let members = f_get_cluster_galaxies(&db, None, &kcorr, &scheme, &p, &cluster).unwrap();
        let mut ids: Vec<i64> = members.iter().map(|m| m.galaxy_objid).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 10, 11, 12, 13, 14]);
    }

    #[test]
    fn bcg_row_comes_first_with_distance_zero() {
        let (db, kcorr, scheme, cluster) = setup();
        let p = BcgParams::default();
        let members = f_get_cluster_galaxies(&db, None, &kcorr, &scheme, &p, &cluster).unwrap();
        assert_eq!(members[0].galaxy_objid, 1);
        assert_eq!(members[0].distance, 0.0);
        assert!(members[1..].iter().all(|m| m.distance > 0.0));
    }

    #[test]
    fn metric_table_filled_by_procedure() {
        let (mut db, kcorr, scheme, _) = setup();
        let p = BcgParams::default();
        let n = sp_make_galaxies_metric(&mut db, None, &kcorr, &scheme, &p, 1).unwrap();
        assert_eq!(n, 6);
        assert_eq!(db.row_count("ClusterGalaxiesMetric").unwrap(), 6);
        // Re-running truncates and refills.
        let n2 = sp_make_galaxies_metric(&mut db, None, &kcorr, &scheme, &p, 1).unwrap();
        assert_eq!(n2, 6);
        assert_eq!(db.row_count("ClusterGalaxiesMetric").unwrap(), 6);
    }

    #[test]
    fn worker_pool_matches_sequential_table() {
        let (mut db, kcorr, scheme, _) = setup();
        let p = BcgParams::default();
        let n1 = sp_make_galaxies_metric(&mut db, None, &kcorr, &scheme, &p, 1).unwrap();
        let seq = db.scan("ClusterGalaxiesMetric").unwrap();
        for workers in [2, 4] {
            let n = sp_make_galaxies_metric(&mut db, None, &kcorr, &scheme, &p, workers).unwrap();
            assert_eq!(n, n1, "workers={workers}");
            assert_eq!(db.scan("ClusterGalaxiesMetric").unwrap(), seq, "workers={workers}");
        }
    }
}
