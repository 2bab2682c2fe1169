//! Deterministic worker-pool fan-out for the CPU-bound pipeline stages.
//!
//! `spMakeCandidates`, `spMakeClusters`, and `spMakeGalaxiesMetric` all
//! share one shape: a read-only function evaluated independently per row
//! of a materialized input, followed by inserts of the survivors. The
//! fan-out here splits the input into *zone stripes* — runs of consecutive
//! declination zones — and lets a pool of worker threads claim stripes
//! from a shared counter. Stripes keep each worker inside a contiguous
//! band of the `(zoneid, ra, objid)` clustered index, so concurrent
//! workers touch mostly disjoint pages (and therefore disjoint buffer-pool
//! latch shards).
//!
//! Determinism contract: workers only *compute*; they never insert.
//! [`fill_table`] puts stripe results back into input order before
//! writing, so the produced catalogs are byte-identical to the sequential
//! run at any worker count. Telemetry is counters and histograms only
//! (never spans, which are thread-local) and no-ops when `obs` is
//! disabled, so disabling telemetry cannot perturb results either.

use stardb::{Database, DbResult, Row};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Rows per `insert_rows` batch when writing merged results back.
const INSERT_BATCH: usize = 256;

struct ParObs {
    pools: obs::Counter,
    stripes: obs::Counter,
    queue_wait_us: obs::Histogram,
    worker_busy_us: obs::Histogram,
}

/// Worker-pool accounting: `queue_wait_us` is how long each stripe sat in
/// the queue before a worker claimed it (pool start → claim);
/// `worker_busy_us` is each worker's total evaluation time for one pool
/// run — the spread between its min and max is the load imbalance.
fn pobs() -> &'static ParObs {
    static P: OnceLock<ParObs> = OnceLock::new();
    P.get_or_init(|| ParObs {
        pools: obs::counter("maxbcg.parallel.pools"),
        stripes: obs::counter("maxbcg.parallel.stripes"),
        queue_wait_us: obs::histogram("maxbcg.parallel.queue_wait_us"),
        worker_busy_us: obs::histogram("maxbcg.parallel.worker_busy_us"),
    })
}

/// Group `items` into stripes of consecutive zones, each stripe holding
/// roughly `len / (4 * workers)` items (4x oversubscription smooths load
/// imbalance between dense and sparse stripes). Items within a stripe keep
/// their input order; stripes are ordered by zone.
fn zone_stripes<T>(
    items: Vec<T>,
    zone_of: impl Fn(&T) -> i32,
    workers: usize,
) -> Vec<Vec<T>> {
    let total = items.len();
    let mut zones: BTreeMap<i32, Vec<T>> = BTreeMap::new();
    for item in items {
        zones.entry(zone_of(&item)).or_default().push(item);
    }
    let target = total.div_ceil(workers.max(1) * 4).max(1);
    let mut stripes = Vec::new();
    let mut current: Vec<T> = Vec::new();
    for (_, mut bucket) in zones {
        current.append(&mut bucket);
        if current.len() >= target {
            stripes.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        stripes.push(current);
    }
    stripes
}

/// Evaluate `eval` over every item of every stripe on `workers` threads.
/// Workers claim whole stripes from an atomic counter; results come back
/// indexed by stripe, with items in stripe order, regardless of which
/// thread ran what. Errors are reported in deterministic stripe order
/// (the first failing stripe wins, not the first failing thread).
fn map_stripes<T, R>(
    workers: usize,
    stripes: Vec<Vec<T>>,
    eval: impl Fn(&T) -> DbResult<R> + Sync,
) -> DbResult<Vec<Vec<R>>>
where
    T: Sync,
    R: Send,
{
    pobs().pools.incr();
    pobs().stripes.add(stripes.len() as u64);
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<DbResult<Vec<R>>>>> =
        (0..stripes.len()).map(|_| Mutex::new(None)).collect();
    let pool_start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..workers.max(1) {
            scope.spawn(|| {
                let mut busy = Duration::ZERO;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= stripes.len() {
                        break;
                    }
                    pobs().queue_wait_us.record(pool_start.elapsed().as_micros() as u64);
                    let t0 = Instant::now();
                    let out: DbResult<Vec<R>> = stripes[i].iter().map(&eval).collect();
                    busy += t0.elapsed();
                    *slots[i].lock().unwrap() = Some(out);
                }
                pobs().worker_busy_us.record(busy.as_micros() as u64);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().unwrap().expect("every stripe claimed"))
        .collect()
}

/// One pipeline stage: evaluate `eval` for every item, then insert the
/// rows `rows` makes of each result into `table`, in item order. Returns
/// the number of rows inserted.
///
/// With `workers <= 1` every evaluation runs on the calling thread, so
/// spans nest exactly as in plain sequential code. With more, workers
/// claim zone stripes of the items (`zone_of`) and the results are put
/// back into item order before the first insert, so the table is
/// byte-identical at any worker count.
pub(crate) fn fill_table<T, R, I>(
    db: &mut Database,
    table: &str,
    workers: usize,
    items: &[T],
    zone_of: impl Fn(&T) -> i32,
    eval: impl Fn(&Database, &T) -> DbResult<R> + Sync,
    rows: impl FnMut(R) -> I,
) -> DbResult<u64>
where
    T: Sync,
    R: Send,
    I: IntoIterator<Item = Row>,
{
    let results: Vec<R> = if workers <= 1 {
        items.iter().map(|t| eval(db, t)).collect::<DbResult<_>>()?
    } else {
        let reader: &Database = db;
        let tagged: Vec<(usize, &T)> = items.iter().enumerate().collect();
        let stripes = zone_stripes(tagged, |&(_, t)| zone_of(t), workers);
        let mut out: Vec<(usize, R)> =
            map_stripes(workers, stripes, |&(i, t)| Ok((i, eval(reader, t)?)))?
                .into_iter()
                .flatten()
                .collect();
        out.sort_unstable_by_key(|&(i, _)| i);
        out.into_iter().map(|(_, r)| r).collect()
    };
    let mut rows = results.into_iter().flat_map(rows);
    let mut n = 0;
    loop {
        let batch: Vec<Row> = rows.by_ref().take(INSERT_BATCH).collect();
        if batch.is_empty() {
            break;
        }
        n += db.insert_rows(table, batch)?;
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stardb::DbError;

    #[test]
    fn stripes_preserve_items_and_zone_order() {
        // Items tagged with a zone; zones deliberately out of order.
        let items: Vec<(i32, u32)> =
            vec![(5, 0), (1, 1), (3, 2), (1, 3), (5, 4), (2, 5), (3, 6)];
        let stripes = zone_stripes(items.clone(), |&(z, _)| z, 1);
        let flat: Vec<(i32, u32)> = stripes.concat();
        assert_eq!(flat.len(), items.len());
        // Zone-major order, input order within a zone.
        let mut expect = items;
        expect.sort_by_key(|&(z, i)| (z, i));
        assert_eq!(flat, expect);
    }

    #[test]
    fn every_input_size_is_fully_striped() {
        for n in [0usize, 1, 2, 7, 100, 1000] {
            for workers in [1usize, 2, 4, 8] {
                let items: Vec<i32> = (0..n as i32).collect();
                let stripes = zone_stripes(items, |&i| i / 10, workers);
                let total: usize = stripes.iter().map(Vec::len).sum();
                assert_eq!(total, n, "n={n} workers={workers}");
                assert!(stripes.iter().all(|s| !s.is_empty()));
            }
        }
    }

    #[test]
    fn map_stripes_results_are_worker_count_independent() {
        let items: Vec<i64> = (0..500).collect();
        let run = |workers: usize| -> Vec<Vec<i64>> {
            let stripes = zone_stripes(items.clone(), |&i| (i / 7) as i32, workers);
            map_stripes(workers, stripes, |&i| Ok(i * i)).unwrap()
        };
        let flat1: Vec<i64> = run(1).concat();
        for workers in [2, 4, 8] {
            assert_eq!(run(workers).concat(), flat1, "workers={workers}");
        }
    }

    #[test]
    fn fill_table_writes_item_order_at_any_worker_count() {
        use stardb::{Column, DataType, DbConfig, Schema, Value};
        let items: Vec<i64> = (0..300).collect();
        let fill = |workers: usize| -> Vec<Row> {
            let mut db = Database::new(DbConfig::in_memory());
            db.create_table("t", Schema::new(vec![Column::new("v", DataType::BigInt)])).unwrap();
            let n = fill_table(
                &mut db,
                "t",
                workers,
                &items,
                // Zones deliberately out of item order.
                |&i| (i % 13) as i32,
                |_, &i| Ok((i % 3 != 0).then_some(i)),
                |v| v.map(|i| Row(vec![Value::BigInt(i)])),
            )
            .unwrap();
            assert_eq!(n, 200);
            db.scan("t").unwrap()
        };
        let one = fill(1);
        assert!(one.windows(2).all(|w| w[0].i64(0).unwrap() < w[1].i64(0).unwrap()));
        for workers in [2, 4, 8] {
            assert_eq!(fill(workers), one, "workers={workers}");
        }
    }

    #[test]
    fn first_stripe_error_wins_in_stripe_order() {
        // Two failing stripes: the error from the *earlier* stripe must be
        // returned no matter which thread hits its failure first.
        let stripes: Vec<Vec<i32>> = vec![vec![1], vec![-2], vec![3], vec![-4]];
        for workers in [1, 2, 4] {
            let err = map_stripes(workers, stripes.clone(), |&i| {
                if i < 0 {
                    Err(DbError::Corrupt(format!("bad {i}")))
                } else {
                    Ok(i)
                }
            })
            .unwrap_err();
            assert_eq!(err, DbError::Corrupt("bad -2".into()), "workers={workers}");
        }
    }
}
