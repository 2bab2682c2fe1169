//! `spImportGalaxy`: pull the region of interest out of the archive
//! catalog into the local `Galaxy` table, deriving the color-error model.

use skycore::types::{sigma_gr, sigma_ri, Friend, Galaxy};
use skycore::SkyRegion;
use skysim::Sky;
use stardb::colbatch::ColumnBatch;
use stardb::{Database, DbError, DbResult, Row, Value};

/// Truncate `Galaxy` and import every catalog galaxy inside the window,
/// computing `sigmagr`/`sigmari` exactly as the paper's stored procedure
/// does. Returns the number of rows imported.
pub fn sp_import_galaxy(db: &mut Database, sky: &Sky, window: &SkyRegion) -> DbResult<u64> {
    db.truncate("Galaxy")?;
    let mut n = 0;
    for g in sky.galaxies_in(window) {
        db.insert("Galaxy", galaxy_row(g))?;
        n += 1;
    }
    Ok(n)
}

/// Encode a catalog galaxy as a `Galaxy` table row (photometry rounds to
/// `real`, matching both the paper's schema and the TAM file format).
pub fn galaxy_row(g: &Galaxy) -> Row {
    Row(vec![
        Value::BigInt(g.objid),
        Value::Float(g.ra),
        Value::Float(g.dec),
        Value::Real(g.i as f32),
        Value::Real(g.gr as f32),
        Value::Real(g.ri as f32),
        Value::Real(sigma_gr(g.i) as f32),
        Value::Real(sigma_ri(g.i) as f32),
    ])
}

/// Decode a `Galaxy` table row back into the shared galaxy type (values
/// carry the `real` rounding from storage).
pub fn galaxy_from_row(row: &Row) -> DbResult<Galaxy> {
    Ok(Galaxy {
        objid: row.i64(0)?,
        ra: row.f64(1)?,
        dec: row.f64(2)?,
        i: row.f64(3)?,
        gr: row.f64(4)?,
        ri: row.f64(5)?,
        sigma_gr: row.f64(6)?,
        sigma_ri: row.f64(7)?,
    })
}

/// Fast path: decode the fixed-layout `Galaxy` payload bytes without
/// constructing a `Row`. Layout (row codec, one tag byte per value):
/// `[1+8 objid][1+8 ra][1+8 dec][1+4 i][1+4 gr][1+4 ri][1+4 sgr][1+4 sri]`
/// = 52 bytes.
pub fn galaxy_from_payload(p: &[u8]) -> Galaxy {
    debug_assert_eq!(p.len(), 52, "galaxy payload layout drifted");
    #[inline]
    fn f64_at(p: &[u8], off: usize) -> f64 {
        f64::from_le_bytes(p[off..off + 8].try_into().unwrap())
    }
    #[inline]
    fn f32_at(p: &[u8], off: usize) -> f32 {
        f32::from_le_bytes(p[off..off + 4].try_into().unwrap())
    }
    Galaxy {
        objid: i64::from_le_bytes(p[1..9].try_into().unwrap()),
        ra: f64_at(p, 10),
        dec: f64_at(p, 19),
        i: f64::from(f32_at(p, 28)),
        gr: f64::from(f32_at(p, 33)),
        ri: f64::from(f32_at(p, 38)),
        sigma_gr: f64::from(f32_at(p, 43)),
        sigma_ri: f64::from(f32_at(p, 48)),
    }
}

/// The `Galaxy` columns the neighbor joins read, borrowed from the
/// table's cached batch ([`Database::table_columns`]): `objid` ascending
/// (the clustered key), photometry as stored. A neighbor's row is one
/// binary search, its photometry three column reads.
pub(crate) struct GalaxyColumns<'b> {
    objid: &'b [i64],
    i: &'b [f32],
    gr: &'b [f32],
    ri: &'b [f32],
}

impl<'b> GalaxyColumns<'b> {
    /// View `batch`, the `Galaxy` table of `db`; `DbError::Corrupt` when
    /// the table's layout is not the schema's (wrong arity or types, a
    /// NULL, or a clustered key other than `objid`).
    pub(crate) fn of(db: &Database, batch: &'b ColumnBatch) -> DbResult<GalaxyColumns<'b>> {
        let keyed_on_objid = db.clustered_key_cols("Galaxy")? == [0];
        let view = || {
            Some(GalaxyColumns {
                objid: batch.col(0).dense_bigints()?,
                i: batch.col(3).dense_reals()?,
                gr: batch.col(4).dense_reals()?,
                ri: batch.col(5).dense_reals()?,
            })
        };
        (keyed_on_objid && batch.num_cols() == 8)
            .then(view)
            .flatten()
            .ok_or_else(|| DbError::Corrupt("Galaxy table layout differs from its schema".into()))
    }

    /// The stored photometry of galaxy `objid` as a friend at `distance`
    /// (widened exactly as [`galaxy_from_payload`] widens); `None` when
    /// the table holds no such galaxy.
    pub(crate) fn friend(&self, objid: i64, distance: f64) -> Option<Friend> {
        let r = self.objid.binary_search(&objid).ok()?;
        Some(Friend {
            objid,
            distance,
            i: f64::from(self.i[r]),
            gr: f64::from(self.gr[r]),
            ri: f64::from(self.ri[r]),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::create_schema;
    use skycore::kcorr::{KcorrConfig, KcorrTable};
    use skysim::SkyConfig;
    use stardb::DbConfig;

    fn setup() -> (Database, Sky) {
        let kcorr = KcorrTable::generate(KcorrConfig::sql());
        let mut db = Database::new(DbConfig::in_memory());
        create_schema(&mut db, &kcorr).unwrap();
        let region = SkyRegion::new(180.0, 181.0, 0.0, 1.0);
        let sky = Sky::generate(region, &SkyConfig::test(), &kcorr, 5);
        (db, sky)
    }

    #[test]
    fn import_respects_window() {
        let (mut db, sky) = setup();
        let window = SkyRegion::new(180.0, 180.5, 0.0, 0.5);
        let n = sp_import_galaxy(&mut db, &sky, &window).unwrap();
        assert_eq!(n, db.row_count("Galaxy").unwrap());
        assert_eq!(n as usize, sky.galaxies_in(&window).count());
        db.scan_with("Galaxy", |row| {
            let g = galaxy_from_row(row)?;
            assert!(window.contains(g.ra, g.dec));
            Ok(true)
        })
        .unwrap();
    }

    #[test]
    fn reimport_replaces() {
        let (mut db, sky) = setup();
        let n1 = sp_import_galaxy(&mut db, &sky, &sky.region.clone()).unwrap();
        let n2 = sp_import_galaxy(&mut db, &sky, &SkyRegion::new(180.0, 180.1, 0.0, 0.1)).unwrap();
        assert!(n2 < n1);
        assert_eq!(db.row_count("Galaxy").unwrap(), n2);
    }

    #[test]
    fn sigma_columns_match_error_model() {
        let (mut db, sky) = setup();
        sp_import_galaxy(&mut db, &sky, &sky.region.clone()).unwrap();
        let g = &sky.galaxies[0];
        let row = db.get("Galaxy", &[Value::BigInt(g.objid)]).unwrap().unwrap();
        assert!((row.f64(6).unwrap() - sigma_gr(g.i)).abs() < 1e-6);
        assert!((row.f64(7).unwrap() - sigma_ri(g.i)).abs() < 1e-6);
    }

    #[test]
    fn fast_payload_decode_matches_row_decode() {
        let g = Galaxy::with_derived_errors(987654321, 183.25, -1.75, 18.35, 1.21, 0.55);
        let row = galaxy_row(&g);
        let payload = row.encode();
        let via_row = galaxy_from_row(&Row::decode(&payload, 8).unwrap()).unwrap();
        let via_fast = galaxy_from_payload(&payload);
        assert_eq!(via_row, via_fast);
        // And the rounding is the TAM file rounding.
        assert_eq!(via_fast.i, f64::from(18.35f32));
    }
}
