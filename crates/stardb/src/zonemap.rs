//! Zone maps: the engine's one columnar zone index.
//!
//! A [`ZoneMap`] is an immutable struct-of-arrays index over any row set
//! carrying an integer zone column and a float RA column: entries sorted
//! by `(zone, ra, ordinal)` with per-zone slice offsets, so a search for
//! `zone ∈ [zlo, zhi] ∧ ra ∈ [ra_lo, ra_hi]` walks the zone band and
//! binary-searches the RA window inside each zone ([`ZoneMap::window`]).
//! The map holds the [`ColumnBatch`] it was built from (shared, not
//! copied), so a map is self-contained: ordinals index that batch, and
//! callers read whatever columns they need straight from it.
//!
//! Two callers share it. The planner's zone join probes the map of its
//! build side and re-evaluates the full join conjunction on every
//! candidate, so the map changes cost, never answers. MaxBCG's
//! `fGetNearbyObjEqZd` probes the `Zone` table's map and reads the object
//! columns from the indexed rows. Maps built from a full unfiltered table
//! scan live in the [`crate::Database`] column cache beside the batch
//! they share, keyed by `table_version` epochs (see
//! [`crate::Database::zone_map`]); every build, cached or not, counts once
//! in `stardb.zonemap.builds`.

use crate::colbatch::ColumnBatch;
use crate::value::Value;
use std::sync::{Arc, OnceLock};

/// The `stardb.zonemap.builds` counter: one tick per [`ZoneMap`] built,
/// whichever caller asked for it.
fn builds() -> &'static obs::Counter {
    static C: OnceLock<obs::Counter> = OnceLock::new();
    C.get_or_init(|| obs::counter("stardb.zonemap.builds"))
}

/// An immutable zone × RA candidate index over one row set. Ordinals
/// index the rows of the owned batch in their original (scan) order, so
/// probing a map built from a drained join build side yields the exact
/// candidates the nested loop would have examined, in restorable order.
#[derive(Debug, Clone)]
pub struct ZoneMap {
    /// `Database::table_version` epoch the map was built at. Table-level
    /// caches compare this against the live version on every lookup.
    epoch: u64,
    /// `(zone_col, ra_col)` the map indexes — part of the cache identity:
    /// a map built over different key columns is useless to a probe.
    cols: (usize, usize),
    /// Lowest zone holding entries (0 for an empty map).
    zone_min: i64,
    /// Per-zone slice bounds: zone `zone_min + i` owns entries
    /// `offsets[i] .. offsets[i + 1]`. Length `nzones + 1`.
    offsets: Vec<u32>,
    /// Entry RA values, ascending within each zone.
    ra: Vec<f64>,
    /// Entry ordinals in the source row set.
    ord: Vec<u32>,
    /// The indexed rows, in ordinal order.
    batch: Arc<ColumnBatch>,
}

/// Zone value of a row: integer zone columns only. Rows with NULL or
/// non-integer zones are left out of the map — a NULL zone can never
/// satisfy the zone-band BETWEEN, so dropping them keeps the candidate
/// superset property.
fn zone_of(v: &Value) -> Option<i64> {
    match v {
        Value::Int(i) => Some(i64::from(*i)),
        Value::BigInt(i) => Some(*i),
        _ => None,
    }
}

/// RA value of a row, widened exactly as the expression evaluator widens
/// (`f64::from` for REAL). NULL and NaN rows are left out: neither can
/// satisfy the RA-window BETWEEN.
fn ra_of(v: &Value) -> Option<f64> {
    let f = match v {
        Value::Float(f) => *f,
        Value::Real(f) => f64::from(*f),
        Value::Int(i) => f64::from(*i),
        Value::BigInt(i) => *i as f64,
        _ => return None,
    };
    if f.is_nan() {
        None
    } else {
        Some(f)
    }
}

impl ZoneMap {
    /// Index `batch` on its `zone_col` / `ra_col` columns, keeping the
    /// rows (an owned batch moves in; a shared one is not copied).
    pub fn from_batch(
        batch: impl Into<Arc<ColumnBatch>>,
        zone_col: usize,
        ra_col: usize,
        epoch: u64,
    ) -> ZoneMap {
        builds().incr();
        let batch = batch.into();
        let mut entries: Vec<(i64, f64, u32)> = (0..batch.len())
            .filter_map(|i| {
                let z = zone_of(&batch.value(zone_col, i))?;
                let r = ra_of(&batch.value(ra_col, i))?;
                Some((z, r, i as u32))
            })
            .collect();
        // Total order: NaN RAs were excluded above.
        entries.sort_unstable_by(|a, b| {
            a.0.cmp(&b.0).then(a.1.partial_cmp(&b.1).expect("no NaN in map")).then(a.2.cmp(&b.2))
        });
        let (zone_min, zone_max) = match (entries.first(), entries.last()) {
            (Some(f), Some(l)) => (f.0, l.0),
            _ => (0, -1),
        };
        let nzones = (zone_max - zone_min + 1).max(0) as usize;
        let mut offsets = vec![0u32; nzones + 1];
        let mut ra = Vec::with_capacity(entries.len());
        let mut ord = Vec::with_capacity(entries.len());
        let mut next_zone = 0usize;
        for (i, &(z, r, o)) in entries.iter().enumerate() {
            let zi = (z - zone_min) as usize;
            while next_zone <= zi {
                offsets[next_zone] = i as u32;
                next_zone += 1;
            }
            ra.push(r);
            ord.push(o);
        }
        while next_zone <= nzones {
            offsets[next_zone] = entries.len() as u32;
            next_zone += 1;
        }
        ZoneMap { epoch, cols: (zone_col, ra_col), zone_min, offsets, ra, ord, batch }
    }

    /// The `table_version` epoch the map was built at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The `(zone_col, ra_col)` pair the map indexes.
    pub fn key_cols(&self) -> (usize, usize) {
        self.cols
    }

    /// The indexed rows; ordinals returned by [`ZoneMap::window`] and
    /// [`ZoneMap::probe`] are row positions in this batch.
    pub fn batch(&self) -> &ColumnBatch {
        &self.batch
    }

    /// Number of indexed entries (rows with a usable zone and RA).
    pub fn len(&self) -> usize {
        self.ord.len()
    }

    /// True when the map indexes no rows.
    pub fn is_empty(&self) -> bool {
        self.ord.is_empty()
    }

    /// Ordinals of the entries of `zone` with `ra ∈ [lo, hi]`, both ends
    /// inclusive (the BETWEEN semantics, and the clustered-index prefix
    /// scan whose upper bound admits every extension of `(zone, hi)`):
    /// one contiguous slice, RA ascending, ties in ordinal order. Zones
    /// outside the map and inverted windows yield an empty slice.
    pub fn window(&self, zone: i64, lo: f64, hi: f64) -> &[u32] {
        let zi = match zone.checked_sub(self.zone_min) {
            Some(d) if d >= 0 && (d as u64) < self.offsets.len() as u64 - 1 => d as usize,
            _ => return &[],
        };
        let (s, e) = (self.offsets[zi] as usize, self.offsets[zi + 1] as usize);
        let slice = &self.ra[s..e];
        let a = slice.partition_point(|&r| r < lo);
        let b = slice.partition_point(|&r| r <= hi).max(a);
        &self.ord[s + a..s + b]
    }

    /// Push the ordinals of every entry with `zone ∈ [zlo, zhi]` and
    /// `ra ∈ [ra_lo, ra_hi]` onto `out`, one [`ZoneMap::window`] per zone.
    /// Ordinals arrive grouped by zone, ascending within each zone slice;
    /// callers needing global ordinal order sort afterwards. Returns the
    /// number of candidates pushed.
    pub fn probe(&self, zlo: i64, zhi: i64, ra_lo: f64, ra_hi: f64, out: &mut Vec<u32>) -> usize {
        let nzones = self.offsets.len() as i64 - 1;
        let before = out.len();
        for z in zlo.max(self.zone_min)..=zhi.min(self.zone_min + nzones - 1) {
            out.extend_from_slice(self.window(z, ra_lo, ra_hi));
        }
        out.len() - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::Row;
    use crate::value::DataType;

    fn map_of(rows: Vec<Row>) -> ZoneMap {
        let batch = ColumnBatch::from_rows(&[DataType::BigInt, DataType::Float], &rows).unwrap();
        ZoneMap::from_batch(batch, 0, 1, 7)
    }

    fn map(data: &[(i64, f64)]) -> ZoneMap {
        map_of(data.iter().map(|&(z, r)| Row(vec![Value::BigInt(z), Value::Float(r)])).collect())
    }

    #[test]
    fn probe_returns_exactly_the_band_window_entries() {
        let m = map(&[(10, 5.0), (10, 1.0), (11, 3.0), (12, 2.0), (14, 3.0)]);
        assert_eq!(m.len(), 5);
        let mut out = Vec::new();
        let n = m.probe(10, 12, 1.5, 4.0, &mut out);
        assert_eq!(n, 2);
        out.sort_unstable();
        // zone 11 ra 3.0 is ordinal 2, zone 12 ra 2.0 is ordinal 3.
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    fn window_bounds_are_inclusive() {
        let m = map(&[(5, 1.0), (5, 2.0), (5, 3.0)]);
        let mut out = Vec::new();
        m.probe(5, 5, 1.0, 3.0, &mut out);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn window_is_one_ra_sorted_slice_of_the_zone() {
        // Scan order deliberately not RA order; ties keep ordinal order.
        let m = map(&[(4, 9.0), (5, 3.0), (5, 1.0), (5, 2.0), (5, 2.0), (6, 2.0)]);
        assert_eq!(m.window(5, 0.0, 360.0), &[2, 3, 4, 1]);
        assert_eq!(m.window(5, 2.0, 2.0), &[3, 4]);
        assert_eq!(m.window(5, 1.5, 2.5), &[3, 4]);
        // Inverted windows and absent zones are empty, never a panic.
        assert!(m.window(5, 3.0, 1.0).is_empty());
        assert!(m.window(3, 0.0, 360.0).is_empty());
        assert!(m.window(7, 0.0, 360.0).is_empty());
        assert!(m.window(i64::MIN, 0.0, 360.0).is_empty());
        assert!(m.window(i64::MAX, 0.0, 360.0).is_empty());
    }

    #[test]
    fn out_of_range_zones_and_empty_maps_yield_nothing() {
        let m = map(&[(5, 1.0)]);
        let mut out = Vec::new();
        assert_eq!(m.probe(6, 9, 0.0, 360.0, &mut out), 0);
        assert_eq!(m.probe(-3, 4, 0.0, 360.0, &mut out), 0);
        let empty = map(&[]);
        assert_eq!(empty.probe(i64::MIN, i64::MAX, 0.0, 360.0, &mut out), 0);
        assert!(empty.is_empty());
    }

    #[test]
    fn null_and_nan_rows_are_excluded() {
        let m = map_of(vec![
            Row(vec![Value::BigInt(5), Value::Float(1.0)]),
            Row(vec![Value::Null, Value::Float(2.0)]),
            Row(vec![Value::BigInt(5), Value::Null]),
            Row(vec![Value::BigInt(5), Value::Float(f64::NAN)]),
        ]);
        assert_eq!(m.len(), 1);
        assert_eq!(m.batch().len(), 4, "the map keeps every row it was given");
        let mut out = Vec::new();
        m.probe(5, 5, 0.0, 360.0, &mut out);
        assert_eq!(out, vec![0]);
    }

    /// A `(zone, ra, id, dec)` table clustered like maxbcg's `Zone`,
    /// filled in scrambled order with ties in RA.
    fn zoned_table() -> crate::Database {
        use crate::schema::{Column, Schema};
        let mut db = crate::Database::new(crate::DbConfig::in_memory());
        let schema = Schema::new(vec![
            Column::new("zoneid", DataType::Int),
            Column::new("ra", DataType::Float),
            Column::new("objid", DataType::BigInt),
            Column::new("dec", DataType::Float),
        ]);
        db.create_clustered_table("Zone", schema, &["zoneid", "ra", "objid"]).unwrap();
        for k in 0..600i64 {
            let id = (k * 7919) % 600;
            let zone = (id % 11) as i32 - 5;
            let ra = 180.0 + ((id * 37) % 97) as f64 / 97.0;
            let row = Row(vec![
                Value::Int(zone),
                Value::Float(ra),
                Value::BigInt(id),
                Value::Float(f64::from(zone) * 0.01),
            ]);
            db.insert("Zone", row).unwrap();
        }
        db
    }

    #[test]
    fn table_map_mirrors_the_clustered_scan() {
        let db = zoned_table();
        let m = db.zone_map("Zone", 0, 1).unwrap();
        let rows = db.scan("Zone").unwrap();
        assert_eq!(m.len(), rows.len());
        assert_eq!(m.batch().to_rows(), rows, "the map owns the scan, in key order");
        // Clustered order is (zone, ra, objid), so every zone's full window
        // is the contiguous run of ordinals the scan surfaces for it.
        let mut next = 0u32;
        for zone in -7i32..=7 {
            let w = m.window(i64::from(zone), f64::NEG_INFINITY, f64::INFINITY);
            let expect = rows.iter().filter(|r| r.0[0] == Value::Int(zone)).count();
            assert_eq!(w.len(), expect, "zone {zone}");
            assert!(w.iter().all(|&o| {
                next += 1;
                o == next - 1
            }));
        }
        assert_eq!(next as usize, rows.len(), "the windows partition the rows");
    }

    #[test]
    fn window_matches_the_clustered_prefix_scan() {
        let db = zoned_table();
        let m = db.zone_map("Zone", 0, 1).unwrap();
        let ra_of = |o: u32| m.batch().value(1, o as usize);
        for zone in [-5i32, 0, 3] {
            let all = m.window(i64::from(zone), f64::NEG_INFINITY, f64::INFINITY);
            let tie = match ra_of(all[all.len() / 2]) {
                Value::Float(f) => f,
                v => panic!("ra column holds {v}"),
            };
            for (lo, hi) in [(180.0, 181.0), (180.2, 180.4), (tie, tie), (180.9, 180.1)] {
                let fast: Vec<Value> = m
                    .window(i64::from(zone), lo, hi)
                    .iter()
                    .map(|&o| m.batch().value(2, o as usize))
                    .collect();
                let mut slow = Vec::new();
                db.range_scan_prefix(
                    "Zone",
                    &[Value::Int(zone), Value::Float(lo)],
                    &[Value::Int(zone), Value::Float(hi)],
                    |r| {
                        slow.push(r.0[2].clone());
                        Ok(true)
                    },
                )
                .unwrap();
                assert_eq!(fast, slow, "window [{lo}, {hi}] in zone {zone}");
            }
        }
    }

    #[test]
    fn table_maps_are_cached_per_version() {
        let mut db = zoned_table();
        let first = db.zone_map("Zone", 0, 1).unwrap();
        let before = builds().get();
        let again = db.zone_map("zone", 0, 1).unwrap();
        assert!(std::sync::Arc::ptr_eq(&first, &again), "same version: the cached map");
        assert_eq!(first.epoch(), db.table_version("Zone").unwrap());
        // Any mutation moves the version; the next lookup rebuilds.
        db.insert(
            "Zone",
            Row(vec![Value::Int(0), Value::Float(180.5), Value::BigInt(9999), Value::Float(0.0)]),
        )
        .unwrap();
        let fresh = db.zone_map("Zone", 0, 1).unwrap();
        assert!(builds().get() > before, "a stale map is rebuilt");
        assert_ne!(fresh.epoch(), first.epoch());
        assert_eq!(fresh.len(), first.len() + 1);
    }

    #[test]
    fn empty_table_maps_to_an_empty_map() {
        let mut db = zoned_table();
        db.truncate("Zone").unwrap();
        let m = db.zone_map("Zone", 0, 1).unwrap();
        assert!(m.is_empty());
        assert_eq!(m.batch().num_cols(), 4);
        assert!(m.window(0, 0.0, 360.0).is_empty());
    }

    #[test]
    fn batch_builder_orders_by_zone_then_ra() {
        let rows = vec![
            Row(vec![Value::Int(12), Value::Float(30.0)]),
            Row(vec![Value::Int(10), Value::Float(20.0)]),
            Row(vec![Value::Int(10), Value::Float(10.0)]),
        ];
        let batch = ColumnBatch::from_rows(&[DataType::Int, DataType::Float], &rows).unwrap();
        let before = builds().get();
        let m = ZoneMap::from_batch(batch, 0, 1, 3);
        assert!(builds().get() > before, "every build counts");
        let mut out = Vec::new();
        m.probe(10, 12, 0.0, 360.0, &mut out);
        assert_eq!(out, vec![2, 1, 0]);
        assert_eq!(m.epoch(), 3);
        assert_eq!(m.batch().value(1, 2), Value::Float(10.0));
    }
}
