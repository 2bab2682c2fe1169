//! Differential test of the neighbor joins: on generated skies, the
//! pipeline's `Candidates`, `Clusters` and `ClusterGalaxiesMetric` tables
//! must equal, byte for byte, what the paper's functions produce with one
//! clustered-index point lookup (`db.get`) per neighbor — the join as the
//! appendix's SQL writes it, kept here as the reference the column-cache
//! joins are checked against.

use maxbcg::cluster::candidate_row;
use maxbcg::import::galaxy_from_row;
use maxbcg::{visit_nearby, IterationMode, MaxBcgConfig, MaxBcgDb};
use skycore::bcg::{self, BcgParams};
use skycore::kcorr::KcorrTable;
use skycore::rng::cases;
use skycore::types::{Candidate, Cluster, ClusterMember, Friend, Galaxy};
use skycore::{SkyRegion, ZoneScheme};
use skysim::{Sky, SkyConfig};
use stardb::{Database, Row, Value};

/// `fBCGCandidate` with the per-neighbor `JOIN Galaxy` as a point lookup.
fn reference_candidate(
    db: &Database,
    kcorr: &KcorrTable,
    scheme: &ZoneScheme,
    params: &BcgParams,
    g: &Galaxy,
) -> Option<Candidate> {
    let passing = bcg::passing_redshifts(g, kcorr, params);
    if passing.is_empty() {
        return None;
    }
    let windows = bcg::search_windows(g.i, &passing, kcorr, params);
    let mut friends = Vec::new();
    visit_nearby(db, scheme, g.ra, g.dec, windows.radius_deg, |objid, distance, _| {
        if objid != g.objid {
            if let Some(row) = db.get("Galaxy", &[Value::BigInt(objid)]).unwrap() {
                let n = galaxy_from_row(&row).unwrap();
                let f = Friend { objid, distance, i: n.i, gr: n.gr, ri: n.ri };
                if windows.admits(&f) {
                    friends.push(f);
                }
            }
        }
        true
    })
    .unwrap();
    let counts = bcg::count_neighbors(&passing, &friends, kcorr, g.i, params);
    let (idx, chi2) = bcg::best_likelihood(&passing, &counts, params)?;
    Some(Candidate {
        objid: g.objid,
        ra: g.ra,
        dec: g.dec,
        z: kcorr.row(passing[idx].zid).unwrap().z,
        i: g.i,
        ngal: counts[idx] as i32 + 1,
        chi2,
    })
}

/// `fIsCluster` with the per-neighbor `JOIN Candidates` as a point lookup.
fn reference_is_cluster(
    db: &Database,
    kcorr: &KcorrTable,
    scheme: &ZoneScheme,
    params: &BcgParams,
    c: &Candidate,
) -> bool {
    let mut best = f64::NEG_INFINITY;
    visit_nearby(db, scheme, c.ra, c.dec, kcorr.nearest(c.z).radius, |objid, _, _| {
        if let Some(row) = db.get("Candidates", &[Value::BigInt(objid)]).unwrap() {
            if (row.f64(3).unwrap() - c.z).abs() <= params.z_window {
                best = best.max(row.f64(6).unwrap());
            }
        }
        true
    })
    .unwrap();
    bcg::is_cluster_center(c.chi2, best, params)
}

/// `fGetClusterGalaxiesMetric` with the per-neighbor `JOIN Galaxy` as a
/// point lookup.
fn reference_members(
    db: &Database,
    kcorr: &KcorrTable,
    scheme: &ZoneScheme,
    params: &BcgParams,
    cluster: &Cluster,
) -> Vec<ClusterMember> {
    let k = kcorr.nearest(cluster.z);
    let w = bcg::member_windows(k, cluster.i, f64::from(cluster.ngal), params);
    let member = |galaxy_objid, distance| ClusterMember {
        cluster_objid: cluster.objid,
        galaxy_objid,
        distance,
    };
    let mut members = vec![member(cluster.objid, 0.0)];
    visit_nearby(db, scheme, cluster.ra, cluster.dec, w.radius_deg, |objid, distance, _| {
        if objid != cluster.objid {
            if let Some(row) = db.get("Galaxy", &[Value::BigInt(objid)]).unwrap() {
                let g = galaxy_from_row(&row).unwrap();
                if w.admits(&Friend { objid, distance, i: g.i, gr: g.gr, ri: g.ri }) {
                    members.push(member(objid, distance));
                }
            }
        }
        true
    })
    .unwrap();
    members
}

/// A table's stored rows, encoded.
fn table_bytes(db: &Database, table: &str) -> Vec<Vec<u8>> {
    db.scan(table).unwrap().iter().map(Row::encode).collect()
}

fn member_bytes(m: &ClusterMember) -> Vec<u8> {
    Row(vec![
        Value::BigInt(m.cluster_objid),
        Value::BigInt(m.galaxy_objid),
        Value::Float(m.distance),
    ])
    .encode()
}

#[test]
fn column_joins_equal_the_point_lookup_join_on_generated_skies() {
    let (mut case, mut clusters_seen) = (0, 0);
    cases("column_joins_equal_the_point_lookup_join", 8, |rng| {
        // Every worker count twice over the eight cases.
        let workers = [1usize, 2, 4, 8][case % 4];
        case += 1;
        let iteration = if rng.bool() { IterationMode::Cursor } else { IterationMode::SetBased };
        let config = MaxBcgConfig { workers, iteration, ..MaxBcgConfig::default() };
        let kcorr = KcorrTable::generate(config.kcorr);
        let (ra, dec) = (rng.range(0.0..358.0), rng.range(-60.0..60.0));
        let side = rng.range(1.2..1.8);
        let survey = SkyRegion::new(ra, ra + side, dec - side / 2.0, dec + side / 2.0);
        let mut sky_cfg = SkyConfig::scaled(rng.range(0.1..0.2));
        sky_cfg.clusters.density_per_deg2 = rng.range(8.0..16.0);
        let sky = Sky::generate(survey, &sky_cfg, &kcorr, rng.next_u64());
        let target = survey.shrunk(0.4);

        let mut db = MaxBcgDb::new(config).unwrap();
        db.run("differential", &sky, &survey, &target).unwrap();
        let (sdb, scheme, params) = (db.db(), *db.scheme(), config.params);

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
            .filter_map(|g| reference_candidate(sdb, &kcorr, &scheme, &params, g))
            .collect();
        let want: Vec<Vec<u8>> = candidates.iter().map(|c| candidate_row(c).encode()).collect();
        assert_eq!(table_bytes(sdb, "Candidates"), want, "candidates, workers={workers}");

        let clusters: Vec<Cluster> = candidates
            .into_iter()
            .filter(|c| reference_is_cluster(sdb, &kcorr, &scheme, &params, c))
            .collect();
        let want: Vec<Vec<u8>> = clusters.iter().map(|c| candidate_row(c).encode()).collect();
        assert_eq!(table_bytes(sdb, "Clusters"), want, "clusters, workers={workers}");
        clusters_seen += clusters.len();

        let want: Vec<Vec<u8>> = clusters
            .iter()
            .flat_map(|c| reference_members(sdb, &kcorr, &scheme, &params, c))
            .map(|m| member_bytes(&m))
            .collect();
        assert_eq!(table_bytes(sdb, "ClusterGalaxiesMetric"), want, "members, workers={workers}");
    });
    assert!(clusters_seen > 8, "skies too sparse to exercise the joins: {clusters_seen} clusters");
}
