//! `fGetNearbyObjEqZd`: the zone-indexed neighborhood search.
//!
//! A line-by-line port of the paper's table-valued function: loop over the
//! zones a search circle overlaps, cut on right ascension inside each zone
//! with the per-zone narrowing factor `@x`, then keep objects whose squared
//! chord distance beats `4 sin²(r/2)`. The range scans run against the
//! `(zoneid, ra, objid)` clustered index — "this pure SQL approach avoids
//! the cost of using expensive calls to the external C-HTM libraries".
//!
//! The same search can be served from the Zone table's [`ZoneMap`], the
//! engine's columnar zone index (`Database::zone_map`): per zone, one RA
//! binary search yields the run of rows the clustered scan would surface,
//! in the same order, and the kernel reads their stored columns instead of
//! decoding payloads under buffer-pool latches. The clustered-index scan
//! stays the reference and the fallback for a stale or absent map.

use crate::zone_task::zone_entry_from_payload;
use skycore::angle::{chord2_of_deg, deg_of_chord_approx};
use skycore::{ra_intervals, UnitVec, ZoneScheme};
use stardb::colbatch::ColumnData;
use stardb::{Database, DbResult, Value, ZoneMap};
use std::sync::OnceLock;

/// Positions of `zoneid` and `ra` in the Zone schema: the key columns of
/// the Zone table's zone map.
pub const ZONE_MAP_COLS: (usize, usize) = (0, 1);

struct NeighborObs {
    searches: obs::Counter,
    zones_scanned: obs::Counter,
    pairs_examined: obs::Counter,
    pairs_per_zone: obs::Histogram,
    map_hits: obs::Counter,
    map_fallbacks: obs::Counter,
}

/// Pair-examination accounting for the zone join. `pairs_examined` counts
/// rows the RA range scan surfaced (before the dec/chord cut);
/// `pairs_per_zone` is its per-zone-stripe distribution, the quantity the
/// zone-height tuning in the paper's tech report optimizes. The
/// `zonecache` pair counts searches offered a zone map: `hits` were served
/// from it, `fallbacks` found it stale and took the clustered index —
/// recovery drills assert `fallbacks > 0` whenever a fault re-zoned under
/// a live map.
fn nobs() -> &'static NeighborObs {
    static N: OnceLock<NeighborObs> = OnceLock::new();
    N.get_or_init(|| NeighborObs {
        searches: obs::counter("maxbcg.neighbors.searches"),
        zones_scanned: obs::counter("maxbcg.neighbors.zones_scanned"),
        pairs_examined: obs::counter("maxbcg.neighbors.pairs_examined"),
        pairs_per_zone: obs::histogram("maxbcg.neighbors.pairs_per_zone"),
        map_hits: obs::counter("maxbcg.zonecache.hits"),
        map_fallbacks: obs::counter("maxbcg.zonecache.fallbacks"),
    })
}

/// The Zone-table columns a zone map serves, borrowed from its batch.
struct ZoneColumns<'m> {
    map: &'m ZoneMap,
    objid: &'m [i64],
    dec: &'m [f64],
    cx: &'m [f64],
    cy: &'m [f64],
    cz: &'m [f64],
}

impl<'m> ZoneColumns<'m> {
    /// `None` unless `map` indexes the live Zone table: built at its
    /// current version, over its key columns, with its column layout.
    fn of(db: &Database, map: &'m ZoneMap) -> Option<ZoneColumns<'m>> {
        if db.table_version("Zone").ok()? != map.epoch() || map.key_cols() != ZONE_MAP_COLS {
            return None;
        }
        let b = map.batch();
        if b.num_cols() != 7 {
            return None;
        }
        let float = |c: usize| match &b.col(c).data {
            ColumnData::Float(v) => Some(v.as_slice()),
            _ => None,
        };
        let ColumnData::BigInt(objid) = &b.col(2).data else {
            return None;
        };
        Some(ZoneColumns { map, objid, dec: float(3)?, cx: float(4)?, cy: float(5)?, cz: float(6)? })
    }
}

/// One neighbor hit: object id and angular distance in degrees (the
/// paper's chord/d2r convention).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Object id from the Zone table.
    pub objid: i64,
    /// Angular distance to the query point, degrees.
    pub distance: f64,
}

/// Find every Zone-table object within `r` degrees of `(ra, dec)`.
/// The result includes the query object itself when it is in the table
/// (distance 0), exactly as the SQL function does — callers exclude self
/// where the paper's SQL has `n.objid != @objid`.
pub fn nearby_obj_eq_zd(
    db: &Database,
    scheme: &ZoneScheme,
    ra: f64,
    dec: f64,
    r: f64,
) -> DbResult<Vec<Neighbor>> {
    let mut out = Vec::new();
    visit_nearby(db, scheme, ra, dec, r, |objid, distance, _| {
        out.push(Neighbor { objid, distance });
        true
    })?;
    Ok(out)
}

/// Visitor-form of [`nearby_obj_eq_zd`] for hot loops: called with
/// `(objid, distance_deg, dec)` per hit; return `false` to stop.
///
/// Hits are buffered one zone at a time and `visit` runs *after* each
/// zone's index scan completes, so the callback is free to query the
/// database again — index scans themselves hold the buffer-pool latch and
/// must not re-enter the engine.
pub fn visit_nearby(
    db: &Database,
    scheme: &ZoneScheme,
    ra: f64,
    dec: f64,
    r: f64,
    visit: impl FnMut(i64, f64, f64) -> bool,
) -> DbResult<()> {
    visit_nearby_with(db, None, scheme, ra, dec, r, visit)
}

/// [`visit_nearby`] with an optional Zone-table [`ZoneMap`]: a fresh map
/// serves the search (one binary-searched RA window per zone, column
/// reads, no latches, no payload decode); a stale or absent one falls back
/// to the clustered-index scan. Both paths surface the same rows in the
/// same order and feed the same stored unit vectors to the same chord
/// arithmetic, so results are bit-identical — the map changes cost, never
/// answers.
pub fn visit_nearby_with(
    db: &Database,
    map: Option<&ZoneMap>,
    scheme: &ZoneScheme,
    ra: f64,
    dec: f64,
    r: f64,
    mut visit: impl FnMut(i64, f64, f64) -> bool,
) -> DbResult<()> {
    // Resolve the path once per search: the version read and the scans
    // below share one `&Database` borrow, so freshness cannot change
    // mid-search.
    let cols = map.and_then(|m| {
        let cols = ZoneColumns::of(db, m);
        if cols.is_some() {
            nobs().map_hits.incr();
        } else {
            nobs().map_fallbacks.incr();
        }
        cols
    });
    let center = UnitVec::from_radec(ra, dec);
    let r2 = chord2_of_deg(r);
    let (zone_min, zone_max) = scheme.zone_range(dec, r);
    let (dec_lo, dec_hi) = (dec - r, dec + r);
    nobs().searches.incr();
    // Reused per-zone hit buffer: a zone stripe within the RA window holds
    // at most a few dozen objects at survey densities. Hits carry the raw
    // squared chord — the asin in `deg_of_chord_approx` runs after the
    // scan, only for survivors of the chord cut, outside the latch-holding
    // closure.
    let mut hits: Vec<(i64, f64, f64)> = Vec::with_capacity(32);
    for zone in zone_min..=zone_max {
        let x = scheme.ra_half_window(dec, r, zone);
        let (intervals, n_intervals) = ra_intervals(ra, x);
        hits.clear();
        let mut scanned: u64 = 0;
        for &(ra_lo, ra_hi) in &intervals[..n_intervals] {
            match &cols {
                Some(z) => {
                    let window = z.map.window(i64::from(zone), ra_lo, ra_hi);
                    scanned += window.len() as u64;
                    for &i in window {
                        let i = i as usize;
                        // The paper's WHERE clause: dec window plus exact
                        // chord cut, on columns instead of decoded rows.
                        let d = z.dec[i];
                        if d >= dec_lo && d <= dec_hi {
                            let pos = UnitVec { x: z.cx[i], y: z.cy[i], z: z.cz[i] };
                            let c2 = center.chord2(&pos);
                            if c2 < r2 {
                                hits.push((z.objid[i], c2, d));
                            }
                        }
                    }
                }
                None => {
                    let lo = [Value::Int(zone), Value::Float(ra_lo)];
                    let hi = [Value::Int(zone), Value::Float(ra_hi)];
                    db.range_scan_prefix_raw("Zone", &lo, &hi, |payload| {
                        scanned += 1;
                        let e = zone_entry_from_payload(payload);
                        // The paper's WHERE clause: dec window plus exact
                        // chord cut.
                        if e.dec >= dec_lo && e.dec <= dec_hi {
                            let c2 = center.chord2(&e.pos);
                            if c2 < r2 {
                                hits.push((e.objid, c2, e.dec));
                            }
                        }
                        true
                    })?;
                }
            }
        }
        nobs().zones_scanned.incr();
        nobs().pairs_examined.add(scanned);
        nobs().pairs_per_zone.record(scanned);
        for &(objid, c2, hit_dec) in &hits {
            if !visit(objid, deg_of_chord_approx(c2.sqrt()), hit_dec) {
                return Ok(());
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::import::sp_import_galaxy;
    use crate::schema::create_schema;
    use crate::zone_task::sp_zone;
    use skycore::kcorr::{KcorrConfig, KcorrTable};
    use skycore::SkyRegion;
    use skysim::{Sky, SkyConfig};
    use stardb::DbConfig;

    fn setup(seed: u64) -> (Database, Sky, ZoneScheme) {
        let kcorr = KcorrTable::generate(KcorrConfig::sql());
        let mut db = Database::new(DbConfig::in_memory());
        create_schema(&mut db, &kcorr).unwrap();
        let region = SkyRegion::new(180.0, 181.0, -0.5, 0.5);
        let sky = Sky::generate(region, &SkyConfig::scaled(0.15), &kcorr, seed);
        sp_import_galaxy(&mut db, &sky, &region).unwrap();
        let scheme = ZoneScheme::default();
        sp_zone(&mut db, &scheme).unwrap();
        (db, sky, scheme)
    }

    fn brute_force(sky: &Sky, ra: f64, dec: f64, r: f64) -> Vec<i64> {
        let center = UnitVec::from_radec(ra, dec);
        let r2 = chord2_of_deg(r);
        let mut ids: Vec<i64> = sky
            .galaxies
            .iter()
            .filter(|g| center.chord2(&g.unit_vec()) < r2)
            .map(|g| g.objid)
            .collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn matches_brute_force_at_several_radii() {
        let (db, sky, scheme) = setup(31);
        for &(ra, dec, r) in &[
            (180.5, 0.0, 0.5),
            (180.2, 0.3, 0.25),
            (180.9, -0.4, 0.1),
            (180.5, 0.45, 0.3), // circle sticks out of the populated region
        ] {
            let mut got: Vec<i64> = nearby_obj_eq_zd(&db, &scheme, ra, dec, r)
                .unwrap()
                .into_iter()
                .map(|n| n.objid)
                .collect();
            got.sort_unstable();
            assert_eq!(got, brute_force(&sky, ra, dec, r), "at ({ra},{dec},{r})");
        }
    }

    #[test]
    fn includes_self_at_distance_zero() {
        let (db, sky, scheme) = setup(32);
        let g = &sky.galaxies[sky.galaxies.len() / 2];
        let hits = nearby_obj_eq_zd(&db, &scheme, g.ra, g.dec, 0.05).unwrap();
        let me = hits.iter().find(|n| n.objid == g.objid).expect("self must be found");
        assert!(me.distance < 1e-9);
    }

    #[test]
    fn distances_match_chord_convention() {
        let (db, sky, scheme) = setup(33);
        let g = &sky.galaxies[0];
        let center = UnitVec::from_radec(g.ra, g.dec);
        for n in nearby_obj_eq_zd(&db, &scheme, g.ra, g.dec, 0.3).unwrap() {
            let other = sky.galaxies.iter().find(|x| x.objid == n.objid).unwrap();
            let expect = center.sep_deg_approx(&other.unit_vec());
            assert!((n.distance - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_region_returns_nothing() {
        let (db, _, scheme) = setup(34);
        // Far away from the populated window.
        let hits = nearby_obj_eq_zd(&db, &scheme, 10.0, 45.0, 0.5).unwrap();
        assert!(hits.is_empty());
    }

    #[test]
    fn early_stop_via_visitor() {
        let (db, _, scheme) = setup(35);
        let mut n = 0;
        visit_nearby(&db, &scheme, 180.5, 0.0, 0.5, |_, _, _| {
            n += 1;
            n < 5
        })
        .unwrap();
        assert_eq!(n, 5);
    }

    /// Dual-path harness: run a search on the B-tree path and on a fresh
    /// zone map, assert the *ordered* hit streams are bit-identical, and
    /// return the sorted ids for brute-force comparison.
    fn both_paths(
        db: &Database,
        map: &ZoneMap,
        scheme: &ZoneScheme,
        ra: f64,
        dec: f64,
        r: f64,
    ) -> Vec<i64> {
        let mut btree: Vec<(i64, u64, u64)> = Vec::new();
        visit_nearby_with(db, None, scheme, ra, dec, r, |id, d, hd| {
            btree.push((id, d.to_bits(), hd.to_bits()));
            true
        })
        .unwrap();
        let mut mapped: Vec<(i64, u64, u64)> = Vec::new();
        visit_nearby_with(db, Some(map), scheme, ra, dec, r, |id, d, hd| {
            mapped.push((id, d.to_bits(), hd.to_bits()));
            true
        })
        .unwrap();
        assert_eq!(btree, mapped, "paths diverged at ({ra},{dec},{r})");
        let mut ids: Vec<i64> = mapped.into_iter().map(|(id, _, _)| id).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn zone_map_path_matches_btree_and_brute_force() {
        let (db, sky, scheme) = setup(41);
        let map = db.zone_map("Zone", 0, 1).unwrap();
        for &(ra, dec, r) in &[
            (180.5, 0.0, 0.5),
            (180.2, 0.3, 0.25),
            (180.9, -0.4, 0.1),
            (180.5, 0.45, 0.3),
            (180.0, 0.0, 0.02), // window pokes past the populated edge
        ] {
            assert_eq!(
                both_paths(&db, &map, &scheme, ra, dec, r),
                brute_force(&sky, ra, dec, r),
                "at ({ra},{dec},{r})"
            );
        }
    }

    /// Hand-built sky at chosen positions (the generator only fills
    /// axis-aligned boxes; wrap and pole coverage needs exact placement).
    fn setup_at(positions: &[(f64, f64)]) -> (Database, Sky, ZoneScheme) {
        let kcorr = KcorrTable::generate(KcorrConfig::sql());
        let mut db = Database::new(DbConfig::in_memory());
        create_schema(&mut db, &kcorr).unwrap();
        let region = SkyRegion::new(0.0, 360.0, -90.0, 90.0);
        let galaxies = positions
            .iter()
            .enumerate()
            .map(|(i, &(ra, dec))| {
                skycore::types::Galaxy::with_derived_errors(i as i64 + 1, ra, dec, 17.5, 1.1, 0.5)
            })
            .collect();
        let sky = Sky { region, galaxies, truth: Vec::new() };
        sp_import_galaxy(&mut db, &sky, &region).unwrap();
        let scheme = ZoneScheme::default();
        sp_zone(&mut db, &scheme).unwrap();
        (db, sky, scheme)
    }

    #[test]
    fn circles_crossing_the_ra_wrap_find_far_side_neighbors() {
        let (db, sky, scheme) = setup_at(&[
            (359.62, 0.01),
            (359.80, -0.05),
            (359.95, 0.02),
            (359.999, 0.0),
            (0.001, 0.0),
            (0.05, -0.03),
            (0.30, 0.04),
            (0.65, 0.0),
            (180.0, 0.0), // far control, must never appear
        ]);
        let map = db.zone_map("Zone", 0, 1).unwrap();
        for &(ra, dec, r) in &[
            (0.05, 0.0, 0.5),   // center just east of the seam
            (359.9, 0.0, 0.5),  // center just west of the seam
            (0.0, 0.0, 0.4),    // center exactly on the seam
            (359.99, 0.02, 0.05),
        ] {
            let got = both_paths(&db, &map, &scheme, ra, dec, r);
            assert_eq!(got, brute_force(&sky, ra, dec, r), "at ({ra},{dec},{r})");
            assert!(!got.is_empty(), "wrap search at ({ra},{dec},{r}) found nothing");
            assert!(!got.contains(&9), "far control leaked in at ({ra},{dec},{r})");
        }
        // Sanity: at least one query must actually straddle the seam.
        let straddles = both_paths(&db, &map, &scheme, 0.05, 0.0, 0.5);
        assert!(straddles.contains(&2) && straddles.contains(&7));
    }

    #[test]
    fn centers_within_r_of_the_poles_match_brute_force() {
        let (db, sky, scheme) = setup_at(&[
            (0.0, 89.96),
            (45.0, 89.97),
            (90.0, 89.99),
            (180.0, 89.95),
            (270.0, 89.98),
            (359.0, 89.999),
            (10.0, -89.97),
            (200.0, -89.99),
            (0.0, 89.0), // just outside a 0.1-degree polar cap
        ]);
        let map = db.zone_map("Zone", 0, 1).unwrap();
        for &(ra, dec, r) in &[
            (0.0, 89.98, 0.1),    // cap contains the north pole
            (120.0, 89.97, 0.08), // wide in RA but not over the pole
            (200.0, -89.98, 0.1), // south polar cap
            (350.0, 89.999, 0.05),
        ] {
            let got = both_paths(&db, &map, &scheme, ra, dec, r);
            assert_eq!(got, brute_force(&sky, ra, dec, r), "at ({ra},{dec},{r})");
        }
        // The polar caps really do capture objects all around in RA.
        let cap = both_paths(&db, &map, &scheme, 0.0, 89.98, 0.1);
        assert!(cap.len() >= 4, "polar cap found only {cap:?}");
    }

    #[test]
    fn radius_larger_than_zone_height_matches_brute_force() {
        // Coarse 1-degree zones, 2.5-degree search radius: the circle spans
        // several whole zones and the central zone's widest RA extent is
        // interior, not at an edge.
        let kcorr = KcorrTable::generate(KcorrConfig::sql());
        let mut db = Database::new(DbConfig::in_memory());
        create_schema(&mut db, &kcorr).unwrap();
        let region = SkyRegion::new(178.0, 184.0, -3.0, 3.0);
        let sky = Sky::generate(region, &SkyConfig::scaled(0.05), &kcorr, 44);
        sp_import_galaxy(&mut db, &sky, &region).unwrap();
        let coarse = ZoneScheme::with_height(1.0);
        sp_zone(&mut db, &coarse).unwrap();
        let map = db.zone_map("Zone", 0, 1).unwrap();
        for &(ra, dec, r) in &[(181.0, 0.3, 2.5), (180.0, -1.2, 1.7)] {
            let got = both_paths(&db, &map, &coarse, ra, dec, r);
            assert_eq!(got, brute_force(&sky, ra, dec, r), "at ({ra},{dec},{r})");
            assert!(!got.is_empty());
        }
    }

    #[test]
    fn stale_zone_map_falls_back_to_the_btree_path() {
        let (mut db, sky, scheme) = setup(45);
        let map = db.zone_map("Zone", 0, 1).unwrap();
        let hits_0 = nobs().map_hits.get();
        let falls_0 = nobs().map_fallbacks.get();

        // Fresh: the map serves the search. (Counters are process-global
        // and sibling tests run concurrently, so assert monotonic
        // movement, not exact deltas.)
        let fresh = both_paths(&db, &map, &scheme, 180.5, 0.0, 0.3);
        assert!(nobs().map_hits.get() > hits_0, "fresh search must count a hit");

        // Mutate Zone after the build: the same map must now be bypassed,
        // and results must still be correct (the table was rebuilt with
        // identical content, only its version moved).
        sp_zone(&mut db, &scheme).unwrap();
        assert_ne!(db.table_version("Zone").unwrap(), map.epoch());
        let mut stale: Vec<i64> = Vec::new();
        visit_nearby_with(&db, Some(&map), &scheme, 180.5, 0.0, 0.3, |id, _, _| {
            stale.push(id);
            true
        })
        .unwrap();
        assert!(nobs().map_fallbacks.get() > falls_0, "stale search must count a fallback");
        stale.sort_unstable();
        assert_eq!(stale, fresh);
        assert_eq!(stale, brute_force(&sky, 180.5, 0.0, 0.3));
    }

    #[test]
    fn a_map_over_another_table_falls_back() {
        // Same version, wrong table: the Galaxy map has no Zone layout,
        // so the search must take the clustered index, not misread it.
        let (mut db, sky, scheme) = setup(46);
        db.commit().unwrap();
        assert_eq!(db.table_version("Galaxy").unwrap(), db.table_version("Zone").unwrap());
        let galaxy = db.zone_map("Galaxy", 0, 1).unwrap();
        let falls_0 = nobs().map_fallbacks.get();
        let mut got: Vec<i64> = Vec::new();
        visit_nearby_with(&db, Some(&galaxy), &scheme, 180.5, 0.0, 0.3, |id, _, _| {
            got.push(id);
            true
        })
        .unwrap();
        assert!(nobs().map_fallbacks.get() > falls_0);
        got.sort_unstable();
        assert_eq!(got, brute_force(&sky, 180.5, 0.0, 0.3));
    }

    #[test]
    fn coarse_zones_also_correct() {
        // The search must be zone-height independent (the paper tried
        // several heights in the zone-index tech report).
        let kcorr = KcorrTable::generate(KcorrConfig::sql());
        let mut db = Database::new(DbConfig::in_memory());
        create_schema(&mut db, &kcorr).unwrap();
        let region = SkyRegion::new(180.0, 181.0, -0.5, 0.5);
        let sky = Sky::generate(region, &SkyConfig::scaled(0.1), &kcorr, 36);
        sp_import_galaxy(&mut db, &sky, &region).unwrap();
        let coarse = ZoneScheme::with_height(0.25);
        sp_zone(&mut db, &coarse).unwrap();
        let mut got: Vec<i64> = nearby_obj_eq_zd(&db, &coarse, 180.5, 0.0, 0.4)
            .unwrap()
            .into_iter()
            .map(|n| n.objid)
            .collect();
        got.sort_unstable();
        assert_eq!(got, brute_force(&sky, 180.5, 0.0, 0.4));
    }
}
