//! One zone index: the Zone-table map MaxBCG's `fGetNearbyObjEqZd`
//! searches is the very map the database caches for the planner's SQL
//! zone join. The build counter is process-global, so this file holds a
//! single test and no sibling can build a map while it counts.

use maxbcg::xmatch::XmatchSpec;
use maxbcg::{IterationMode, MaxBcgConfig, MaxBcgDb, ZONE_MAP_COLS};
use skycore::kcorr::KcorrTable;
use skycore::SkyRegion;
use skysim::{Sky, SkyConfig};
use stardb::sql::execute;
use stardb::Value;
use std::sync::Arc;

#[test]
fn spzone_and_the_sql_zone_join_share_one_cached_map() {
    obs::set_enabled(true);
    let config = MaxBcgConfig { iteration: IterationMode::SetBased, ..Default::default() };
    let kcorr = KcorrTable::generate(config.kcorr);
    let survey = SkyRegion::new(180.0, 181.0, -0.5, 0.5);
    let sky = Sky::generate(survey, &SkyConfig::scaled(0.05), &kcorr, 14);
    let mut db = MaxBcgDb::new(config).unwrap();
    db.import_galaxy(&sky, &survey).unwrap();

    let builds = obs::counter("stardb.zonemap.builds");
    let b0 = builds.get();
    db.make_zone().unwrap();
    assert_eq!(builds.get(), b0 + 1, "spZone builds the Zone map once");
    let held = db.zone_snapshot().expect("spZone takes the Zone map").clone();
    let cached = db.db().zone_map("Zone", ZONE_MAP_COLS.0, ZONE_MAP_COLS.1).unwrap();
    assert!(Arc::ptr_eq(&held, &cached), "MaxBcgDb holds the database's cached map");
    assert_eq!(held.len() as u64, db.db().row_count("Zone").unwrap());

    // The Zone table has the survey-table shape, so the XMatch zone join
    // runs over it as a self-join: the planner's build side is a full
    // scan of Zone at the same version, and must reuse the cached map.
    let spec = XmatchSpec::new(2.0 / 3600.0, *db.scheme(), 1.0);
    let sql = spec.sql("Zone", "Zone", None);
    let (_, plan) = execute(db.db_mut(), &format!("EXPLAIN {sql}")).unwrap().rows().unwrap();
    assert!(
        plan.iter().any(|r| matches!(&r.0[0], Value::Text(l) if l.contains("zone join"))),
        "the self-join must plan as a zone join: {plan:?}"
    );
    let (_, pairs) = execute(db.db_mut(), &sql).unwrap().rows().unwrap();
    assert!(pairs.len() >= held.len(), "every object matches at least itself");
    assert_eq!(builds.get(), b0 + 1, "the SQL zone join reused the cached map");
    let after = db.db().zone_map("Zone", ZONE_MAP_COLS.0, ZONE_MAP_COLS.1).unwrap();
    assert!(Arc::ptr_eq(&held, &after), "the cache still holds the same map");
}
