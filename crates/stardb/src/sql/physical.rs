//! The streaming executor for planned SELECTs — the only one; the
//! naive-mode referee in [`super::referee`] shares none of its operators.
//!
//! Every operator is a pull-based batch iterator: `next_batch` returns
//! `Some(batch)` (possibly empty — more may follow) while input remains
//! and `None` once exhausted. Below the materialization boundary (scan →
//! joins → filters) batches are column-major [`ColumnBatch`]es; the
//! projection or aggregation at the boundary emits `Vec<Row>` batches for
//! DISTINCT, sort, top-N and LIMIT above it. Batches are at most [`BATCH`]
//! rows, so a plan holds one batch per pipeline stage instead of
//! materializing every intermediate result — only the blocking operators
//! (join build sides, aggregate, sort) buffer, and `LIMIT` without a sort
//! stops pulling (and therefore stops scanning) as soon as it is
//! satisfied.
//!
//! The executor also maintains the planner's observability counters:
//! `stardb.plan.index_scans` / `stardb.plan.full_scans` (one per opened
//! scan), `stardb.plan.pushed_predicates` (conjuncts pushed below the
//! joins), and `stardb.plan.rows_pruned` (rows examined by a scan minus
//! rows it emitted — the rows the old pipeline would have dragged through
//! the joins).
//!
//! ## Profiling
//!
//! [`run_profiled`] executes the same operator tree with an [`OpProfile`]
//! per node: rows out, batches pulled, and cumulative `next_batch` wall
//! time from a monotonic clock ([`std::time::Instant`]), timed at the
//! dispatch point so a node's `time` is *inclusive* of its children —
//! the same convention as `EXPLAIN ANALYZE` in mainstream engines.
//! Operator-specific extras ride along: rows pruned by residual filters,
//! hash-table build rows and probe hits, heap evictions in top-N, rows cut
//! by LIMIT. After the run the per-node tallies are collected into a
//! [`PlanProfile`] that mirrors the [`SelectPlan`] shape, so
//! `SelectPlan::render_analyze` can annotate the identical EXPLAIN lines —
//! the profile is attached to the very plan object execution ran and
//! cannot drift from it. The unprofiled [`run`] path carries the same
//! structs but never reads the clock and never allocates a profile.

use super::plan::{Access, JoinStrategy, OutputShape, ScanNode, SelectPlan, ZoneJoinSpec};
use crate::colbatch::{ColumnBatch, ColumnHashTable, VPredicate};
use crate::db::{BatchScan, Database};
use crate::error::DbResult;
use crate::exec::{self, GroupState, TopN};
use crate::expr::Expr;
use crate::row::Row;
use crate::value::{DataType, Value};
use crate::zonemap::ZoneMap;
use std::collections::HashSet;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Maximum rows per pulled batch.
pub(crate) const BATCH: usize = 1024;

/// The `stardb.plan.*` counter set, created together so a telemetry run
/// reports all four even when some stay zero.
pub(crate) struct PlanCounters {
    /// Scans served by a B-tree range (clustered or secondary).
    pub index_scans: obs::Counter,
    /// Scans that had to read the whole table.
    pub full_scans: obs::Counter,
    /// Conjuncts pushed below the joins onto base-table scans.
    pub pushed_predicates: obs::Counter,
    /// Rows examined by scans but filtered before leaving them.
    pub rows_pruned: obs::Counter,
}

/// Global planner counters (no-ops while telemetry is disabled).
pub(crate) fn plan_counters() -> &'static PlanCounters {
    static C: OnceLock<PlanCounters> = OnceLock::new();
    C.get_or_init(|| PlanCounters {
        index_scans: obs::counter("stardb.plan.index_scans"),
        full_scans: obs::counter("stardb.plan.full_scans"),
        pushed_predicates: obs::counter("stardb.plan.pushed_predicates"),
        rows_pruned: obs::counter("stardb.plan.rows_pruned"),
    })
}

/// The `stardb.op.*` per-operator counter set, created together so a
/// telemetry run reports the whole family even when parts stay zero.
/// `rows` is rows emitted by operators of that kind; `ns` is *self* time
/// (the node's inclusive `next_batch` time minus its input's), so the
/// family decomposes query wall time instead of multiply counting it.
struct OpCounters {
    scan_rows: obs::Counter,
    scan_ns: obs::Counter,
    filter_rows: obs::Counter,
    filter_ns: obs::Counter,
    hash_join_rows: obs::Counter,
    hash_join_ns: obs::Counter,
    topn_rows: obs::Counter,
    topn_ns: obs::Counter,
    limit_rows: obs::Counter,
    limit_ns: obs::Counter,
}

fn op_counters() -> &'static OpCounters {
    static C: OnceLock<OpCounters> = OnceLock::new();
    C.get_or_init(|| OpCounters {
        scan_rows: obs::counter("stardb.op.scan.rows"),
        scan_ns: obs::counter("stardb.op.scan.ns"),
        filter_rows: obs::counter("stardb.op.filter.rows"),
        filter_ns: obs::counter("stardb.op.filter.ns"),
        hash_join_rows: obs::counter("stardb.op.hash_join.rows"),
        hash_join_ns: obs::counter("stardb.op.hash_join.ns"),
        topn_rows: obs::counter("stardb.op.topn.rows"),
        topn_ns: obs::counter("stardb.op.topn.ns"),
        limit_rows: obs::counter("stardb.op.limit.rows"),
        limit_ns: obs::counter("stardb.op.limit.ns"),
    })
}

/// The `stardb.op.vector.*` counter set of the columnar pipeline, created
/// together so a telemetry run reports all three even when some stay zero.
struct VectorCounters {
    /// Column-major batches emitted by vectorized scans.
    batches: obs::Counter,
    /// Sum over scan batches of `kept * 100 / scanned` — divide by
    /// `batches` for the average percentage of scanned rows the compiled
    /// predicates kept.
    selectivity_pct: obs::Counter,
    /// Rows materialized back into `Row`s at the pipeline boundary
    /// (projection / aggregation output).
    materialized_rows: obs::Counter,
}

fn vector_counters() -> &'static VectorCounters {
    static C: OnceLock<VectorCounters> = OnceLock::new();
    C.get_or_init(|| VectorCounters {
        batches: obs::counter("stardb.op.vector.batches"),
        selectivity_pct: obs::counter("stardb.op.vector.selectivity_pct"),
        materialized_rows: obs::counter("stardb.op.vector.materialized_rows"),
    })
}

/// The `stardb.op.zonejoin.*` counter set of the zone-join operator,
/// created together so a telemetry run reports the whole family even when
/// parts stay zero. `pairs_examined` counts zone-map candidates (the rows
/// a nested loop would have tested, minus everything the band pruning
/// skipped); `halo_rows` counts build rows replicated into neighbor
/// shards by the distributed fabric's ±Δzone halo exchange.
pub(crate) struct ZoneJoinCounters {
    /// Probe-side rows driven through the zone map.
    pub probes: obs::Counter,
    /// Candidate pairs surfaced by the zone band × RA window.
    pub pairs_examined: obs::Counter,
    /// Candidates surviving the full join conjunction.
    pub pairs_matched: obs::Counter,
    /// Rows copied into neighbor shards as a co-partitioned join halo.
    pub halo_rows: obs::Counter,
}

pub(crate) fn zonejoin_counters() -> &'static ZoneJoinCounters {
    static C: OnceLock<ZoneJoinCounters> = OnceLock::new();
    C.get_or_init(|| ZoneJoinCounters {
        probes: obs::counter("stardb.op.zonejoin.probes"),
        pairs_examined: obs::counter("stardb.op.zonejoin.pairs_examined"),
        pairs_matched: obs::counter("stardb.op.zonejoin.pairs_matched"),
        halo_rows: obs::counter("stardb.op.zonejoin.halo_rows"),
    })
}

/// The `stardb.op.zonejoin.halo_rows` counter, registered with its whole
/// family — the distributed fabric bumps it once per build row replicated
/// into a neighbor shard by the ±Δzone halo exchange.
pub fn zonejoin_halo_rows() -> &'static obs::Counter {
    &zonejoin_counters().halo_rows
}

// ---- profiles ---------------------------------------------------------------

/// Runtime statistics of one physical operator.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpProfile {
    /// Rows the operator emitted.
    pub rows: u64,
    /// `next_batch` calls that returned a batch.
    pub batches: u64,
    /// Cumulative `next_batch` wall time (monotonic clock), inclusive of
    /// the operator's children — the outermost operator's time is the
    /// whole pipeline's.
    pub time_ns: u64,
    /// Operator-specific extras, e.g. `("pruned", n)` for scans and
    /// filters, `("build_rows", n)` / `("probe_hits", n)` for hash joins,
    /// `("evicted", n)` for top-N heaps, `("cut", n)` for LIMIT.
    pub extras: Vec<(&'static str, u64)>,
}

impl OpProfile {
    /// The `(actual: rows=… batches=… time=… k=v…)` annotation appended
    /// to this operator's EXPLAIN line by `EXPLAIN ANALYZE`.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut s = format!(
            "(actual: rows={} batches={} time={}",
            self.rows,
            self.batches,
            fmt_ns(self.time_ns)
        );
        for (k, v) in &self.extras {
            let _ = write!(s, " {k}={v}");
        }
        s.push(')');
        s
    }
}

/// Format nanoseconds for display (`870ns`, `12.4µs`, `3.50ms`, `1.20s`).
pub(crate) fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

/// Profile of one join stage: the join operator itself, the right-side
/// scan drained into the build side, and any post-join residual filter.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JoinProfile {
    /// Hash join (vs nested-loop / cross)?
    pub hashed: bool,
    /// The join operator (probe side for hash joins).
    pub join: OpProfile,
    /// The right-side scan, drained eagerly when the operator tree is
    /// built (its time is the build-side drain, not probe time).
    pub build: OpProfile,
    /// Residual predicate applied to concatenated rows after the join.
    pub post: Option<OpProfile>,
}

/// Per-operator profile of one executed [`SelectPlan`], mirroring the plan
/// shape node for node — `SelectPlan::render_analyze` zips this against
/// the EXPLAIN lines, so the annotated tree is the executed tree.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlanProfile {
    /// The driving (left-most) base-table scan.
    pub scan: OpProfile,
    /// One entry per join stage, in plan order.
    pub joins: Vec<JoinProfile>,
    /// The residual WHERE filter above the joins, if the plan has one.
    pub filter: Option<OpProfile>,
    /// The projection or aggregation operator. Aggregates apply HAVING
    /// internally, so `rows` is the post-HAVING group count.
    pub output: OpProfile,
    /// Groups discarded by HAVING (`Some` only when the plan has one).
    pub having_pruned: Option<u64>,
    /// The DISTINCT operator, if present.
    pub distinct: Option<OpProfile>,
    /// The bounded top-N heap, when `ORDER BY … LIMIT` short-circuits.
    pub top_n: Option<OpProfile>,
    /// The full sort, when top-N does not apply.
    pub sort: Option<OpProfile>,
    /// The standalone LIMIT operator (absent when top-N subsumes it).
    pub limit: Option<OpProfile>,
    /// Wall time of the whole run: building the operator tree (including
    /// eager build-side drains) plus pulling every batch.
    pub wall_ns: u64,
    /// Rows the query returned.
    pub rows_out: u64,
}

/// The profile of the most recent profiled SELECT on a [`Database`]:
/// the ANALYZE-rendered plan lines plus the structured profile tree.
/// Retrieved via [`Database::last_profile`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryProfile {
    /// The EXPLAIN tree, one line per operator, annotated with
    /// `(actual: rows=… batches=… time=…)` — exactly what
    /// `EXPLAIN ANALYZE` prints.
    pub lines: Vec<String>,
    /// The structured per-operator profile.
    pub plan: PlanProfile,
}

/// Plain per-operator tallies updated on the hot path: three `u64` adds
/// per batch when profiling, nothing at all when not. Never allocates.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    rows: u64,
    batches: u64,
    time_ns: u64,
}

impl Tally {
    fn with(self, extras: Vec<(&'static str, u64)>) -> OpProfile {
        OpProfile { rows: self.rows, batches: self.batches, time_ns: self.time_ns, extras }
    }
}

// ---- execution --------------------------------------------------------------

/// Run a plan to completion and collect its output rows.
pub(crate) fn run(db: &Database, plan: &SelectPlan) -> DbResult<Vec<Row>> {
    let mut op = build(db, plan, false)?;
    let mut out = Vec::new();
    while let Some(batch) = op.next_batch(db, false)? {
        out.extend(batch);
    }
    Ok(out)
}

/// Run a plan to completion with per-operator profiling, returning the
/// rows plus a [`PlanProfile`] mirroring the plan shape.
pub(crate) fn run_profiled(db: &Database, plan: &SelectPlan) -> DbResult<(Vec<Row>, PlanProfile)> {
    let t0 = Instant::now();
    let mut op = build(db, plan, true)?;
    let mut out = Vec::new();
    while let Some(batch) = op.next_batch(db, true)? {
        out.extend(batch);
    }
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let mut prof = collect(op, plan);
    prof.wall_ns = wall_ns;
    prof.rows_out = out.len() as u64;
    Ok((out, prof))
}

/// Assemble the operator tree for a plan. Operators borrow the plan's
/// bound expressions, so the tree lives no longer than the plan. Below
/// the materialization boundary (scan → joins → residual filter → output
/// shape) operators exchange column-major [`ColumnBatch`]es: scans decode
/// pages straight into them, predicates run as compiled per-column
/// kernels producing selection vectors, joins build output batches by
/// columnwise gather, and rows are materialized only by the boundary
/// operator ([`VProjectExec`] / [`VAggregateExec`]). Everything above the
/// boundary (DISTINCT, sort, top-N, LIMIT, hidden-column cut) operates on
/// materialized rows.
fn build<'p>(db: &Database, plan: &'p SelectPlan, profiled: bool) -> DbResult<Op<'p>> {
    // Concatenated column types grow join by join; residual predicates
    // compile against the layout at their point in the pipeline.
    let mut dtypes = table_dtypes(db, &plan.scan.table)?;
    let mut vop = VOp::Scan(VScanExec::open(db, &plan.scan)?);
    for join in &plan.joins {
        let right_scan = VScanExec::open(db, &join.right)?;
        let right_dtypes = right_scan.dtypes.clone();
        let (right, build_prof) = drain_columns(db, right_scan, profiled)?;
        let side = match &join.strategy {
            JoinStrategy::Hash { left_col, right_col } => {
                exec::join_pairs().add(right.len() as u64);
                VRightSide::Hash {
                    table: ColumnHashTable::build(right, *right_col)?,
                    left_col: *left_col,
                }
            }
            JoinStrategy::NestedLoop { on } => VRightSide::Loop {
                // The ON expression is arbitrary, so it evaluates on
                // materialized pair rows — the inner side is small and
                // materialized once, while output batches still assemble
                // by columnwise gather.
                rows: right.to_rows(),
                batch: right,
                on: Some((*on).clone()),
            },
            JoinStrategy::Zone { spec, on } => {
                let map = zone_map_for(db, &join.right, spec, right)?;
                VRightSide::Zone {
                    rows: map.batch().to_rows(),
                    map,
                    spec: spec.clone(),
                    on: (*on).clone(),
                }
            }
            JoinStrategy::Cross => VRightSide::Loop { rows: Vec::new(), batch: right, on: None },
        };
        dtypes.extend(right_dtypes);
        vop = VOp::Join(VJoinExec {
            left: Box::new(vop),
            side,
            tally: Tally::default(),
            build: build_prof,
            pairs: 0,
            probes: 0,
            matched: 0,
        });
        if let Some(post) = &join.post {
            vop = VOp::Filter(VFilterExec {
                input: Box::new(vop),
                vpred: VPredicate::compile(post, &dtypes),
                tally: Tally::default(),
                pruned: 0,
            });
        }
    }
    if let Some(pred) = &plan.filter {
        vop = VOp::Filter(VFilterExec {
            input: Box::new(vop),
            vpred: VPredicate::compile(pred, &dtypes),
            tally: Tally::default(),
            pruned: 0,
        });
    }
    let mut op = match &plan.shape {
        OutputShape::Plain { exprs, .. } => {
            Op::VProject(VProjectExec { input: vop, exprs, tally: Tally::default() })
        }
        OutputShape::Aggregate { group_pos, specs, slots, having, .. } => {
            Op::VAggregate(Box::new(VAggregateExec {
                input: vop,
                group_pos: *group_pos,
                specs,
                slots,
                having: having.as_ref(),
                done: false,
                tally: Tally::default(),
                having_pruned: 0,
            }))
        }
    };
    if plan.distinct {
        op = Op::Distinct(DistinctExec {
            input: Box::new(op),
            seen: HashSet::new(),
            tally: Tally::default(),
            dups: 0,
        });
    }
    if plan.use_top_n {
        op = Op::TopN(TopNExec {
            input: Box::new(op),
            keys: &plan.sort,
            n: plan.limit.unwrap_or(0),
            done: false,
            tally: Tally::default(),
            evicted: 0,
        });
    } else {
        if !plan.sort.is_empty() {
            op = Op::Sort(SortExec {
                input: Box::new(op),
                keys: &plan.sort,
                done: false,
                tally: Tally::default(),
            });
        }
        if let Some(n) = plan.limit {
            op = Op::Limit(LimitExec {
                input: Box::new(op),
                remaining: n,
                tally: Tally::default(),
                cut: 0,
            });
        }
    }
    if let OutputShape::Plain { hidden, .. } = &plan.shape {
        if *hidden > 0 {
            op = Op::Cut(CutExec { input: Box::new(op), drop: *hidden, tally: Tally::default() });
        }
    }
    Ok(op)
}

/// A table's column types in schema order.
fn table_dtypes(db: &Database, table: &str) -> DbResult<Vec<DataType>> {
    Ok(db.schema_of(table)?.columns().iter().map(|c| c.dtype).collect())
}

/// Drain a scan to completion into one column-major batch (join build
/// sides), timing it when profiled.
fn drain_columns(
    db: &Database,
    mut scan: VScanExec,
    profiled: bool,
) -> DbResult<(ColumnBatch, OpProfile)> {
    let mut out = ColumnBatch::with_capacity(&scan.dtypes, 0);
    loop {
        let t0 = profiled.then(Instant::now);
        let batch = scan.next_batch(db, profiled)?;
        if let Some(t0) = t0 {
            scan.tally.time_ns += t0.elapsed().as_nanos() as u64;
        }
        match batch {
            Some(b) => {
                if profiled {
                    scan.tally.batches += 1;
                    scan.tally.rows += b.len() as u64;
                }
                out.extend_from(&b)?;
            }
            None => break,
        }
    }
    let prof = scan.profile();
    Ok((out, prof))
}

/// Resolve the zone map for a join build side, taking ownership of the
/// drained rows: the database's cached map when the build side is a full
/// unfiltered table scan (any other access path or pushed predicate
/// reorders or thins the drained rows, so its ordinals would not
/// transfer) — on a miss the drained batch becomes that cached map —
/// else a map private to this join. Either way the map's ordinals index
/// rows identical to the drained ones, in scan order.
fn zone_map_for(
    db: &Database,
    node: &ScanNode,
    spec: &ZoneJoinSpec,
    right: ColumnBatch,
) -> DbResult<Arc<ZoneMap>> {
    zonejoin_counters(); // register the family even if adds stay zero
    let cols = (spec.right_zone, spec.right_ra);
    if matches!(node.access, Access::Full) && node.pred.is_none() {
        return db.zone_map_or(&node.table, cols, || Ok(right));
    }
    let epoch = db.table_version(&node.table)?;
    Ok(Arc::new(ZoneMap::from_batch(right, cols.0, cols.1, epoch)))
}

/// The probe window one left row opens in the zone map: the zone band
/// `[zone - Δz, zone + Δz]` widened outward to cover f64 rounding (the
/// evaluator compares in f64, and the candidate set may only ever be
/// generous — the re-evaluated conjunction is exact), plus the RA window
/// `[ra - w, ra + w]` computed exactly as the evaluator computes it.
/// `None` when either key is NULL or non-numeric: such a row fails the
/// BETWEEN outright and probes nothing.
fn zone_probe_bounds(zone: &Value, ra: &Value, spec: &ZoneJoinSpec) -> Option<(i64, i64, f64, f64)> {
    let lz = match zone {
        Value::Int(i) => i64::from(*i),
        Value::BigInt(i) => *i,
        _ => return None,
    };
    let lr = match ra {
        Value::Float(f) => *f,
        Value::Real(f) => f64::from(*f),
        Value::Int(i) => f64::from(*i),
        Value::BigInt(i) => *i as f64,
        _ => return None,
    };
    let lo_f = lz as f64 - spec.dz as f64;
    let hi_f = lz as f64 + spec.dz as f64;
    let zlo = if lo_f <= i64::MIN as f64 { i64::MIN } else { lo_f.floor() as i64 };
    let zhi = if hi_f >= i64::MAX as f64 { i64::MAX } else { hi_f.ceil() as i64 };
    Some((zlo, zhi, lr - spec.ra_w, lr + spec.ra_w))
}

/// Walk the finished operator tree root-to-leaf, moving each node's
/// tallies into a [`PlanProfile`] shaped exactly like `plan`. The peel
/// order is the reverse of [`build`], steered by the plan's own flags, so
/// every node lands in its mirror slot.
fn collect(root: Op<'_>, plan: &SelectPlan) -> PlanProfile {
    let mut prof = PlanProfile::default();
    let mut op = root;
    // Cut only drops hidden sort columns; it is not an EXPLAIN line and
    // preserves row counts, so its tallies are intentionally discarded.
    op = match op {
        Op::Cut(x) => *x.input,
        o => o,
    };
    op = match op {
        Op::TopN(x) => {
            prof.top_n = Some(x.tally.with(vec![("evicted", x.evicted)]));
            *x.input
        }
        Op::Limit(x) => {
            prof.limit = Some(x.tally.with(vec![("cut", x.cut)]));
            *x.input
        }
        o => o,
    };
    op = match op {
        Op::Sort(x) => {
            prof.sort = Some(x.tally.with(Vec::new()));
            *x.input
        }
        o => o,
    };
    op = match op {
        Op::Distinct(x) => {
            prof.distinct = Some(x.tally.with(vec![("dups", x.dups)]));
            *x.input
        }
        o => o,
    };
    // The materialization boundary: below it the column-batch chain fills
    // the same profile slots — the profile tree mirrors the plan, not the
    // exchange format.
    let mut vop = match op {
        Op::VProject(x) => {
            prof.output = x.tally.with(Vec::new());
            x.input
        }
        Op::VAggregate(x) => {
            prof.having_pruned = x.having.is_some().then_some(x.having_pruned);
            prof.output = x.tally.with(Vec::new());
            x.input
        }
        _ => unreachable!("the boundary operator sits below DISTINCT/sort/limit/cut"),
    };
    if plan.filter.is_some() {
        vop = match vop {
            VOp::Filter(x) => {
                prof.filter = Some(x.profile());
                *x.input
            }
            o => o,
        };
    }
    let mut joins: Vec<JoinProfile> = Vec::with_capacity(plan.joins.len());
    for node in plan.joins.iter().rev() {
        let mut jp = JoinProfile::default();
        if node.post.is_some() {
            vop = match vop {
                VOp::Filter(x) => {
                    jp.post = Some(x.profile());
                    *x.input
                }
                o => o,
            };
        }
        vop = match vop {
            VOp::Join(x) => {
                jp.hashed = matches!(x.side, VRightSide::Hash { .. });
                let extras = if jp.hashed {
                    vec![("build_rows", x.build.rows), ("probe_hits", x.tally.rows)]
                } else if matches!(x.side, VRightSide::Zone { .. }) {
                    vec![("probes", x.probes), ("pairs", x.pairs), ("matched", x.matched)]
                } else {
                    vec![("pairs", x.pairs)]
                };
                jp.join = x.tally.with(extras);
                jp.build = x.build;
                *x.left
            }
            o => o,
        };
        joins.push(jp);
    }
    joins.reverse();
    prof.joins = joins;
    if let VOp::Scan(x) = vop {
        prof.scan = x.profile();
    }
    prof
}

/// Fold one profile into the `stardb.op.*` counters. Counter `ns` is
/// *self* time: each node's inclusive time minus its input's, walking the
/// pipeline chain, so the family sums to roughly the query wall time.
pub(super) fn record_op_counters(prof: &PlanProfile) {
    if !obs::enabled() {
        return;
    }
    let c = op_counters();
    c.scan_rows.add(prof.scan.rows);
    c.scan_ns.add(prof.scan.time_ns);
    // `prev` is the inclusive time of the node feeding the current one.
    let mut prev = prof.scan.time_ns;
    for j in &prof.joins {
        // Build-side drains are leaf scans in their own right.
        c.scan_rows.add(j.build.rows);
        c.scan_ns.add(j.build.time_ns);
        if j.hashed {
            c.hash_join_rows.add(j.join.rows);
            c.hash_join_ns.add(j.join.time_ns.saturating_sub(prev));
        }
        prev = j.join.time_ns;
        if let Some(post) = &j.post {
            c.filter_rows.add(post.rows);
            c.filter_ns.add(post.time_ns.saturating_sub(prev));
            prev = post.time_ns;
        }
    }
    if let Some(f) = &prof.filter {
        c.filter_rows.add(f.rows);
        c.filter_ns.add(f.time_ns.saturating_sub(prev));
    }
    // Projection/aggregation always sits above the filter, so its inclusive
    // time is what downstream operators subtract.
    prev = prof.output.time_ns;
    if let Some(d) = &prof.distinct {
        prev = d.time_ns;
    }
    if let Some(t) = &prof.top_n {
        c.topn_rows.add(t.rows);
        c.topn_ns.add(t.time_ns.saturating_sub(prev));
        prev = t.time_ns;
    }
    if let Some(s) = &prof.sort {
        prev = s.time_ns;
    }
    if let Some(l) = &prof.limit {
        c.limit_rows.add(l.rows);
        c.limit_ns.add(l.time_ns.saturating_sub(prev));
    }
}

// ---- operators --------------------------------------------------------------

enum Op<'p> {
    /// Materialization boundary over a column-batch chain: projection.
    VProject(VProjectExec<'p>),
    /// Materialization boundary over a column-batch chain: aggregation.
    VAggregate(Box<VAggregateExec<'p>>),
    Distinct(DistinctExec<'p>),
    Sort(SortExec<'p>),
    TopN(TopNExec<'p>),
    Limit(LimitExec<'p>),
    Cut(CutExec<'p>),
}

impl Op<'_> {
    /// Pull the next batch. With `profiled` set, wrap the pull in a
    /// monotonic-clock read and update the node's tally — the only
    /// profiling work on the hot path (three integer adds per batch).
    fn next_batch(&mut self, db: &Database, profiled: bool) -> DbResult<Option<Vec<Row>>> {
        if !profiled {
            return self.pull(db, false);
        }
        let t0 = Instant::now();
        let out = self.pull(db, true);
        let elapsed = t0.elapsed().as_nanos() as u64;
        let tally = self.tally_mut();
        tally.time_ns += elapsed;
        if let Ok(Some(batch)) = &out {
            tally.batches += 1;
            tally.rows += batch.len() as u64;
        }
        out
    }

    fn pull(&mut self, db: &Database, profiled: bool) -> DbResult<Option<Vec<Row>>> {
        match self {
            Op::VProject(x) => x.next_batch(db, profiled),
            Op::VAggregate(x) => x.next_batch(db, profiled),
            Op::Distinct(x) => x.next_batch(db, profiled),
            Op::Sort(x) => x.next_batch(db, profiled),
            Op::TopN(x) => x.next_batch(db, profiled),
            Op::Limit(x) => x.next_batch(db, profiled),
            Op::Cut(x) => x.next_batch(db, profiled),
        }
    }

    fn tally_mut(&mut self) -> &mut Tally {
        match self {
            Op::VProject(x) => &mut x.tally,
            Op::VAggregate(x) => &mut x.tally,
            Op::Distinct(x) => &mut x.tally,
            Op::Sort(x) => &mut x.tally,
            Op::TopN(x) => &mut x.tally,
            Op::Limit(x) => &mut x.tally,
            Op::Cut(x) => &mut x.tally,
        }
    }
}

struct DistinctExec<'p> {
    input: Box<Op<'p>>,
    seen: HashSet<Vec<u8>>,
    tally: Tally,
    dups: u64,
}

impl DistinctExec<'_> {
    fn next_batch(&mut self, db: &Database, profiled: bool) -> DbResult<Option<Vec<Row>>> {
        let Some(batch) = self.input.next_batch(db, profiled)? else {
            return Ok(None);
        };
        let before = batch.len();
        let mut out = Vec::with_capacity(batch.len());
        for row in batch {
            if self.seen.insert(row.encode()) {
                out.push(row);
            }
        }
        if profiled {
            self.dups += (before - out.len()) as u64;
        }
        Ok(Some(out))
    }
}

struct SortExec<'p> {
    input: Box<Op<'p>>,
    keys: &'p [(usize, bool)],
    done: bool,
    tally: Tally,
}

impl SortExec<'_> {
    fn next_batch(&mut self, db: &Database, profiled: bool) -> DbResult<Option<Vec<Row>>> {
        if self.done {
            return Ok(None);
        }
        self.done = true;
        let mut rows = Vec::new();
        while let Some(batch) = self.input.next_batch(db, profiled)? {
            rows.extend(batch);
        }
        Ok(Some(exec::sort_by_keys(rows, self.keys)))
    }
}

struct TopNExec<'p> {
    input: Box<Op<'p>>,
    keys: &'p [(usize, bool)],
    n: usize,
    done: bool,
    tally: Tally,
    evicted: u64,
}

impl TopNExec<'_> {
    fn next_batch(&mut self, db: &Database, profiled: bool) -> DbResult<Option<Vec<Row>>> {
        if self.done {
            return Ok(None);
        }
        self.done = true;
        let mut heap = TopN::new(self.keys.to_vec(), self.n);
        while let Some(batch) = self.input.next_batch(db, profiled)? {
            for row in batch {
                heap.push(row);
            }
        }
        self.evicted = heap.evictions();
        Ok(Some(heap.finish()))
    }
}

struct LimitExec<'p> {
    input: Box<Op<'p>>,
    remaining: usize,
    tally: Tally,
    cut: u64,
}

impl LimitExec<'_> {
    fn next_batch(&mut self, db: &Database, profiled: bool) -> DbResult<Option<Vec<Row>>> {
        if self.remaining == 0 {
            // Stop pulling: upstream scans cease fetching pages.
            return Ok(None);
        }
        let Some(mut batch) = self.input.next_batch(db, profiled)? else {
            return Ok(None);
        };
        if batch.len() > self.remaining {
            if profiled {
                self.cut += (batch.len() - self.remaining) as u64;
            }
            batch.truncate(self.remaining);
        }
        self.remaining -= batch.len();
        Ok(Some(batch))
    }
}

struct CutExec<'p> {
    input: Box<Op<'p>>,
    drop: usize,
    tally: Tally,
}

impl CutExec<'_> {
    fn next_batch(&mut self, db: &Database, profiled: bool) -> DbResult<Option<Vec<Row>>> {
        let Some(mut batch) = self.input.next_batch(db, profiled)? else {
            return Ok(None);
        };
        for row in &mut batch {
            let keep = row.0.len() - self.drop;
            row.0.truncate(keep);
        }
        Ok(Some(batch))
    }
}

// ---- vectorized operators ---------------------------------------------------
//
// The column-batch chain below the materialization boundary. Same pull
// protocol and profiling discipline as `Op`, but `next_batch` exchanges
// `ColumnBatch`es: scans decode pages straight into typed buffers,
// predicates are compiled kernels producing selection vectors, joins
// assemble output batches by columnwise gather. The chain owns its
// predicates (compiled once at build), so it carries no plan lifetime.

enum VOp {
    Scan(VScanExec),
    Join(VJoinExec),
    Filter(VFilterExec),
}

impl VOp {
    /// Pull the next column-major batch, timing the dispatch when
    /// profiled — the mirror of [`Op::next_batch`].
    fn next_batch(&mut self, db: &Database, profiled: bool) -> DbResult<Option<ColumnBatch>> {
        if !profiled {
            return self.pull(db, false);
        }
        let t0 = Instant::now();
        let out = self.pull(db, true);
        let elapsed = t0.elapsed().as_nanos() as u64;
        let tally = self.tally_mut();
        tally.time_ns += elapsed;
        if let Ok(Some(batch)) = &out {
            tally.batches += 1;
            tally.rows += batch.len() as u64;
        }
        out
    }

    fn pull(&mut self, db: &Database, profiled: bool) -> DbResult<Option<ColumnBatch>> {
        match self {
            VOp::Scan(x) => x.next_batch(db, profiled),
            VOp::Join(x) => x.next_batch(db, profiled),
            VOp::Filter(x) => x.next_batch(db, profiled),
        }
    }

    fn tally_mut(&mut self) -> &mut Tally {
        match self {
            VOp::Scan(x) => &mut x.tally,
            VOp::Join(x) => &mut x.tally,
            VOp::Filter(x) => &mut x.tally,
        }
    }
}

enum VSource {
    /// Full or clustered-range scan decoding pages into column buffers.
    Batch(BatchScan),
    /// Secondary-index range: pre-resolved clustering keys, their raw
    /// payloads decoded straight into column buffers in index order.
    Keys { table: String, keys: Vec<Vec<Value>>, next: usize },
}

struct VScanExec {
    source: VSource,
    /// The table's column types (compile target for the pushed predicate
    /// and layout of every emitted batch).
    dtypes: Vec<DataType>,
    vpred: Option<VPredicate>,
    tally: Tally,
    pruned: u64,
}

impl VScanExec {
    fn open(db: &Database, node: &ScanNode) -> DbResult<VScanExec> {
        let counters = plan_counters();
        vector_counters(); // register the family even if adds stay zero
        counters.pushed_predicates.add(node.pred_count as u64);
        let source = match &node.access {
            Access::Full => {
                counters.full_scans.incr();
                VSource::Batch(db.batch_scan(&node.table)?)
            }
            Access::ClusteredRange { lo, hi, .. } => {
                counters.index_scans.incr();
                VSource::Batch(db.batch_range_scan(&node.table, lo, hi)?)
            }
            Access::Index { name, lo, hi, .. } => {
                counters.index_scans.incr();
                VSource::Keys {
                    table: node.table.clone(),
                    keys: db.index_range_keys(&node.table, name, lo, hi)?,
                    next: 0,
                }
            }
        };
        let dtypes = table_dtypes(db, &node.table)?;
        let vpred = node.pred.as_ref().map(|p| VPredicate::compile(p, &dtypes));
        Ok(VScanExec { source, dtypes, vpred, tally: Tally::default(), pruned: 0 })
    }

    fn profile(&self) -> OpProfile {
        self.tally.with(vec![("pruned", self.pruned)])
    }

    fn next_batch(&mut self, db: &Database, profiled: bool) -> DbResult<Option<ColumnBatch>> {
        let batch = match &mut self.source {
            VSource::Batch(scan) => {
                let Some(chunk) = scan.fetch_columns(db, BATCH)? else {
                    return Ok(None);
                };
                chunk.batch
            }
            VSource::Keys { table, keys, next } => {
                if *next >= keys.len() {
                    return Ok(None);
                }
                let mut batch = ColumnBatch::with_capacity(&self.dtypes, BATCH);
                while *next < keys.len() && batch.len() < BATCH {
                    let key = &keys[*next];
                    *next += 1;
                    if let Some(payload) = db.get_raw(table, key)? {
                        batch.push_wire(&payload)?;
                    }
                }
                batch
            }
        };
        let scanned = batch.len() as u64;
        let batch = match &self.vpred {
            Some(vp) => {
                let sel = vp.select(&batch)?;
                if sel.len() == batch.len() {
                    batch
                } else {
                    batch.gather(&sel)
                }
            }
            None => batch,
        };
        let kept = batch.len() as u64;
        let pruned = scanned - kept;
        plan_counters().rows_pruned.add(pruned);
        if profiled {
            self.pruned += pruned;
        }
        let vc = vector_counters();
        vc.batches.incr();
        if let Some(pct) = (kept * 100).checked_div(scanned) {
            vc.selectivity_pct.add(pct);
        }
        Ok(Some(batch))
    }
}

enum VRightSide {
    /// Columnar hash join: build-side directory over the native key
    /// representation, probe hashes the key column, output gathers.
    Hash { table: ColumnHashTable, left_col: usize },
    /// Nested loop / cross join. The ON expression (arbitrary) evaluates
    /// on materialized pair rows; `rows` is the inner side materialized
    /// once at build (empty for CROSS, which never evaluates rows).
    Loop { batch: ColumnBatch, rows: Vec<Row>, on: Option<Expr> },
    /// Zone join: [`ZoneMap`] candidate probe, candidates restored to
    /// build order, full ON re-evaluated per pair — identical output to
    /// `Loop` over the same rows, strictly fewer pairs evaluated. Output
    /// gathers the right columns from the map's own batch.
    Zone { rows: Vec<Row>, map: Arc<ZoneMap>, spec: ZoneJoinSpec, on: Expr },
}

struct VJoinExec {
    left: Box<VOp>,
    side: VRightSide,
    tally: Tally,
    /// Profile of the right-side scan drained at build time.
    build: OpProfile,
    /// Nested-loop / zone-join pairs examined (profiled runs only).
    pairs: u64,
    /// Zone-join probes driven (profiled runs only).
    probes: u64,
    /// Zone-join pairs surviving the conjunction (profiled runs only).
    matched: u64,
}

impl VJoinExec {
    fn next_batch(&mut self, db: &Database, profiled: bool) -> DbResult<Option<ColumnBatch>> {
        let Some(batch) = self.left.next_batch(db, profiled)? else {
            return Ok(None);
        };
        match &mut self.side {
            VRightSide::Hash { table, left_col } => {
                exec::join_pairs().add(batch.len() as u64);
                let out = table.probe(&batch, *left_col)?;
                exec::hash_join_rows().add(out.len() as u64);
                Ok(Some(out))
            }
            VRightSide::Zone { rows, map, spec, on } => {
                let c = zonejoin_counters();
                c.probes.add(batch.len() as u64);
                if profiled {
                    self.probes += batch.len() as u64;
                }
                let mut li: Vec<u32> = Vec::new();
                let mut ri: Vec<u32> = Vec::new();
                let mut cands: Vec<u32> = Vec::new();
                let left_arity = batch.num_cols();
                let mut joined =
                    Row(Vec::with_capacity(left_arity + rows.first().map_or(0, Row::arity)));
                for i in 0..batch.len() {
                    cands.clear();
                    if let Some((zlo, zhi, ra_lo, ra_hi)) = zone_probe_bounds(
                        &batch.value(spec.left_zone, i),
                        &batch.value(spec.left_ra, i),
                        spec,
                    ) {
                        map.probe(zlo, zhi, ra_lo, ra_hi, &mut cands);
                        // Build (= nested-loop) order restores the exact
                        // output order of a nested loop.
                        cands.sort_unstable();
                    }
                    c.pairs_examined.add(cands.len() as u64);
                    exec::join_pairs().add(cands.len() as u64);
                    if profiled {
                        self.pairs += cands.len() as u64;
                    }
                    if cands.is_empty() {
                        continue;
                    }
                    batch.read_row_into(i, &mut joined.0);
                    for &j in cands.iter() {
                        joined.0.truncate(left_arity);
                        joined.0.extend_from_slice(&rows[j as usize].0);
                        if on.matches(&joined)? {
                            c.pairs_matched.incr();
                            if profiled {
                                self.matched += 1;
                            }
                            li.push(i as u32);
                            ri.push(j);
                        }
                    }
                }
                Ok(Some(ColumnBatch::concat_gather(&batch, &li, map.batch(), &ri)))
            }
            VRightSide::Loop { batch: right, rows, on } => {
                let n = right.len();
                exec::join_pairs().add(batch.len() as u64 * n as u64);
                if profiled {
                    self.pairs += batch.len() as u64 * n as u64;
                }
                let mut li: Vec<u32> = Vec::new();
                let mut ri: Vec<u32> = Vec::new();
                match on {
                    None => {
                        // CROSS: every pair, no row ever materialized.
                        for i in 0..batch.len() as u32 {
                            li.extend(std::iter::repeat_n(i, n));
                            ri.extend(0..n as u32);
                        }
                    }
                    Some(on) => {
                        // Scratch pair row: left prefix refreshed per
                        // outer row, right suffix swapped per inner row.
                        let left_arity = batch.num_cols();
                        let mut joined = Row(Vec::with_capacity(left_arity + rows.first().map_or(0, Row::arity)));
                        for i in 0..batch.len() {
                            batch.read_row_into(i, &mut joined.0);
                            for (j, r) in rows.iter().enumerate() {
                                joined.0.truncate(left_arity);
                                joined.0.extend_from_slice(&r.0);
                                if on.matches(&joined)? {
                                    li.push(i as u32);
                                    ri.push(j as u32);
                                }
                            }
                        }
                    }
                }
                Ok(Some(ColumnBatch::concat_gather(&batch, &li, right, &ri)))
            }
        }
    }
}

struct VFilterExec {
    input: Box<VOp>,
    vpred: VPredicate,
    tally: Tally,
    pruned: u64,
}

impl VFilterExec {
    fn profile(&self) -> OpProfile {
        self.tally.with(vec![("pruned", self.pruned)])
    }

    fn next_batch(&mut self, db: &Database, profiled: bool) -> DbResult<Option<ColumnBatch>> {
        let Some(batch) = self.input.next_batch(db, profiled)? else {
            return Ok(None);
        };
        let before = batch.len();
        let sel = self.vpred.select(&batch)?;
        let out = if sel.len() == before { batch } else { batch.gather(&sel) };
        exec::rows_filtered().add((before - out.len()) as u64);
        if profiled {
            self.pruned += (before - out.len()) as u64;
        }
        Ok(Some(out))
    }
}

/// The materialization boundary for plain selects: evaluates the
/// projection over a column batch and emits `Row`s. All-column
/// projections read the buffers directly; computed expressions fall back
/// to a reused scratch row.
struct VProjectExec<'p> {
    input: VOp,
    exprs: &'p [Expr],
    tally: Tally,
}

impl VProjectExec<'_> {
    fn next_batch(&mut self, db: &Database, profiled: bool) -> DbResult<Option<Vec<Row>>> {
        let Some(batch) = self.input.next_batch(db, profiled)? else {
            return Ok(None);
        };
        let n = batch.len();
        let mut out = Vec::with_capacity(n);
        let cols: Option<Vec<usize>> = self
            .exprs
            .iter()
            .map(|e| match e {
                Expr::Col(c) => Some(*c),
                _ => None,
            })
            .collect();
        match cols {
            Some(cols) => {
                for i in 0..n {
                    out.push(Row(cols.iter().map(|&c| batch.value(c, i)).collect()));
                }
            }
            None => {
                let mut scratch = Row(Vec::with_capacity(batch.num_cols()));
                for i in 0..n {
                    batch.read_row_into(i, &mut scratch.0);
                    let vals: DbResult<Vec<Value>> =
                        self.exprs.iter().map(|e| e.eval(&scratch)).collect();
                    out.push(Row(vals?));
                }
            }
        }
        vector_counters().materialized_rows.add(out.len() as u64);
        Ok(Some(out))
    }
}

/// The materialization boundary for aggregates: feeds column batches to
/// [`GroupState::update_columns`] and emits the final group rows through
/// the aggregate tail the referee shares ([`exec::finish_aggregate`]).
struct VAggregateExec<'p> {
    input: VOp,
    group_pos: Option<usize>,
    specs: &'p [exec::AggSpec],
    slots: &'p [exec::Slot],
    having: Option<&'p Expr>,
    done: bool,
    tally: Tally,
    having_pruned: u64,
}

impl VAggregateExec<'_> {
    fn next_batch(&mut self, db: &Database, profiled: bool) -> DbResult<Option<Vec<Row>>> {
        if self.done {
            return Ok(None);
        }
        self.done = true;
        let mut state = GroupState::new(self.group_pos, self.specs);
        while let Some(batch) = self.input.next_batch(db, profiled)? {
            state.update_columns(&batch)?;
        }
        let (out, pruned) = exec::finish_aggregate(
            state.finish()?,
            self.group_pos,
            self.specs,
            self.having,
            self.slots,
        )?;
        if profiled {
            self.having_pruned += pruned;
        }
        vector_counters().materialized_rows.add(out.len() as u64);
        Ok(Some(out))
    }
}
