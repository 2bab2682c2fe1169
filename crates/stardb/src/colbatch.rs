//! Column-major batches: the vectorized executor's exchange format.
//!
//! A [`ColumnBatch`] stores up to one operator batch of rows as typed
//! per-column buffers — `Vec<i64>` / `Vec<f64>` / a byte arena for text —
//! with a null *bitmap* per column instead of `Value::Null` sentinels.
//! Scans decode page payloads straight into these buffers
//! ([`ColumnBatch::push_wire`]) without materializing a `Row` per record,
//! filters evaluate compiled predicates as tight per-column loops
//! producing *selection vectors* ([`VPredicate::select`]), and joins
//! produce output batches by columnwise gather
//! ([`ColumnBatch::concat_gather`]). `Row`s exist again only at the
//! pipeline boundary (projection / aggregation output).
//!
//! Row ↔ batch conversion is lossless: every `Value` variant maps to its
//! own buffer type (`Int` is *not* widened to `BigInt`, `Real` not to
//! `Float`), float payloads preserve bits (NaN, -0.0), and NULL cells
//! round-trip through the bitmap regardless of the placeholder stored in
//! the typed buffer.
//!
//! [`VPredicate`] compiles the planner's residual predicates into branch-
//! light kernels over a tri-state truth vector (false / true / NULL —
//! SQL's three-valued logic). Only shapes whose columnar evaluation is
//! *provably identical* to row-at-a-time [`Expr::eval`] compile: numeric
//! column vs. numeric constant comparisons (both sides go through the same
//! `as f64` widening `Expr` uses), text column vs. text constant, BETWEEN
//! with constant numeric bounds, IS NULL on a column, NOT/AND/OR over
//! compiled operands. Everything else — arithmetic, column-to-column
//! comparisons, scalar functions — falls back to evaluating the original
//! expression on a reused scratch row, so results can never diverge from
//! row-at-a-time evaluation.

use crate::error::{DbError, DbResult};
use crate::expr::{BinOp, Expr};
use crate::row::{self, Row};
use crate::value::{DataType, Value};
use obs::le::LeRead;
use std::collections::HashMap;

// ---- null bitmap ------------------------------------------------------------

/// Per-column null bitmap: bit set ⇒ the cell is NULL. The typed buffer
/// holds an arbitrary placeholder at null positions (0 / 0.0 / empty
/// string), keeping the buffers dense and loops branch-light.
#[derive(Debug, Clone, Default)]
pub struct NullMask {
    bits: Vec<u64>,
    len: usize,
}

impl NullMask {
    fn with_capacity(cap: usize) -> NullMask {
        NullMask { bits: Vec::with_capacity(cap.div_ceil(64)), len: 0 }
    }

    #[inline]
    fn push(&mut self, null: bool) {
        let word = self.len / 64;
        if word == self.bits.len() {
            self.bits.push(0);
        }
        if null {
            self.bits[word] |= 1 << (self.len % 64);
        }
        self.len += 1;
    }

    /// Is row `i` NULL?
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        self.bits[i / 64] & (1 << (i % 64)) != 0
    }

    /// Number of NULL rows.
    pub fn count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Any NULL at all? (Lets kernels skip the bitmap probe entirely.)
    pub fn any(&self) -> bool {
        self.bits.iter().any(|&w| w != 0)
    }

    fn gather(&self, sel: &[u32]) -> NullMask {
        let mut out = NullMask::with_capacity(sel.len());
        for &i in sel {
            out.push(self.is_null(i as usize));
        }
        out
    }

    fn extend(&mut self, other: &NullMask) {
        for i in 0..other.len {
            self.push(other.is_null(i));
        }
    }
}

// ---- columns ----------------------------------------------------------------

/// The typed buffer of one column. Text uses a shared byte arena with an
/// offsets vector (`offsets.len() == rows + 1`), so a batch of strings is
/// two allocations, not one per row.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// `bigint` buffer.
    BigInt(Vec<i64>),
    /// `int` buffer.
    Int(Vec<i32>),
    /// `real` buffer.
    Real(Vec<f32>),
    /// `float` buffer.
    Float(Vec<f64>),
    /// `text` arena: `bytes[offsets[i]..offsets[i+1]]` is row `i`.
    Text {
        /// Row boundaries into `bytes` (always `rows + 1` entries).
        offsets: Vec<u32>,
        /// Concatenated UTF-8 payloads.
        bytes: Vec<u8>,
    },
}

/// One column of a [`ColumnBatch`]: typed buffer plus null bitmap.
#[derive(Debug, Clone)]
pub struct Column {
    /// Typed values (placeholders at null positions).
    pub data: ColumnData,
    /// Which rows are NULL.
    pub nulls: NullMask,
}

impl Column {
    fn with_capacity(dtype: DataType, cap: usize) -> Column {
        let data = match dtype {
            DataType::BigInt => ColumnData::BigInt(Vec::with_capacity(cap)),
            DataType::Int => ColumnData::Int(Vec::with_capacity(cap)),
            DataType::Real => ColumnData::Real(Vec::with_capacity(cap)),
            DataType::Float => ColumnData::Float(Vec::with_capacity(cap)),
            DataType::Text => ColumnData::Text {
                offsets: {
                    let mut v = Vec::with_capacity(cap + 1);
                    v.push(0);
                    v
                },
                bytes: Vec::new(),
            },
        };
        Column { data, nulls: NullMask::with_capacity(cap) }
    }

    /// The column's declared type.
    pub fn dtype(&self) -> DataType {
        match &self.data {
            ColumnData::BigInt(_) => DataType::BigInt,
            ColumnData::Int(_) => DataType::Int,
            ColumnData::Real(_) => DataType::Real,
            ColumnData::Float(_) => DataType::Float,
            ColumnData::Text { .. } => DataType::Text,
        }
    }

    /// Is the cell at row `i` NULL?
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        self.nulls.is_null(i)
    }

    /// The values of a NULL-free `bigint` column; `None` for any other
    /// type or when a cell is NULL.
    pub fn dense_bigints(&self) -> Option<&[i64]> {
        match &self.data {
            ColumnData::BigInt(v) if !self.nulls.any() => Some(v),
            _ => None,
        }
    }

    /// The values of a NULL-free `real` column (see
    /// [`Column::dense_bigints`]).
    pub fn dense_reals(&self) -> Option<&[f32]> {
        match &self.data {
            ColumnData::Real(v) if !self.nulls.any() => Some(v),
            _ => None,
        }
    }

    /// The values of a NULL-free `float` column (see
    /// [`Column::dense_bigints`]).
    pub fn dense_floats(&self) -> Option<&[f64]> {
        match &self.data {
            ColumnData::Float(v) if !self.nulls.any() => Some(v),
            _ => None,
        }
    }

    #[inline]
    fn push_null(&mut self) {
        match &mut self.data {
            ColumnData::BigInt(v) => v.push(0),
            ColumnData::Int(v) => v.push(0),
            ColumnData::Real(v) => v.push(0.0),
            ColumnData::Float(v) => v.push(0.0),
            ColumnData::Text { offsets, .. } => offsets.push(*offsets.last().expect("base offset")),
        }
        self.nulls.push(true);
    }

    fn push_value(&mut self, v: &Value) -> DbResult<()> {
        match (&mut self.data, v) {
            (_, Value::Null) => {
                self.push_null();
                return Ok(());
            }
            (ColumnData::BigInt(buf), Value::BigInt(x)) => buf.push(*x),
            (ColumnData::Int(buf), Value::Int(x)) => buf.push(*x),
            (ColumnData::Real(buf), Value::Real(x)) => buf.push(*x),
            (ColumnData::Float(buf), Value::Float(x)) => buf.push(*x),
            (ColumnData::Text { offsets, bytes }, Value::Text(s)) => {
                bytes.extend_from_slice(s.as_bytes());
                offsets.push(bytes.len() as u32);
            }
            (_, v) => {
                return Err(DbError::TypeError(format!(
                    "cannot store {v} in a {} column buffer",
                    self.dtype()
                )))
            }
        }
        self.nulls.push(false);
        Ok(())
    }

    /// Materialize the cell at row `i` as a `Value` (the only place a
    /// per-cell allocation can happen, and only for text).
    pub fn value(&self, i: usize) -> Value {
        if self.nulls.is_null(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::BigInt(v) => Value::BigInt(v[i]),
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Real(v) => Value::Real(v[i]),
            ColumnData::Float(v) => Value::Float(v[i]),
            ColumnData::Text { offsets, bytes } => {
                let s = &bytes[offsets[i] as usize..offsets[i + 1] as usize];
                Value::Text(String::from_utf8(s.to_vec()).expect("validated on ingest"))
            }
        }
    }

    fn gather(&self, sel: &[u32]) -> Column {
        let data = match &self.data {
            ColumnData::BigInt(v) => {
                ColumnData::BigInt(sel.iter().map(|&i| v[i as usize]).collect())
            }
            ColumnData::Int(v) => ColumnData::Int(sel.iter().map(|&i| v[i as usize]).collect()),
            ColumnData::Real(v) => ColumnData::Real(sel.iter().map(|&i| v[i as usize]).collect()),
            ColumnData::Float(v) => ColumnData::Float(sel.iter().map(|&i| v[i as usize]).collect()),
            ColumnData::Text { offsets, bytes } => {
                let mut out_off = Vec::with_capacity(sel.len() + 1);
                out_off.push(0u32);
                let mut out_bytes = Vec::new();
                for &i in sel {
                    let i = i as usize;
                    out_bytes.extend_from_slice(&bytes[offsets[i] as usize..offsets[i + 1] as usize]);
                    out_off.push(out_bytes.len() as u32);
                }
                ColumnData::Text { offsets: out_off, bytes: out_bytes }
            }
        };
        Column { data, nulls: self.nulls.gather(sel) }
    }

    fn extend_from(&mut self, other: &Column) -> DbResult<()> {
        match (&mut self.data, &other.data) {
            (ColumnData::BigInt(a), ColumnData::BigInt(b)) => a.extend_from_slice(b),
            (ColumnData::Int(a), ColumnData::Int(b)) => a.extend_from_slice(b),
            (ColumnData::Real(a), ColumnData::Real(b)) => a.extend_from_slice(b),
            (ColumnData::Float(a), ColumnData::Float(b)) => a.extend_from_slice(b),
            (
                ColumnData::Text { offsets: ao, bytes: ab },
                ColumnData::Text { offsets: bo, bytes: bb },
            ) => {
                let base = ab.len() as u32;
                ab.extend_from_slice(bb);
                ao.extend(bo.iter().skip(1).map(|&o| base + o));
            }
            _ => {
                return Err(DbError::TypeError(format!(
                    "cannot append a {} column to a {} column",
                    other.dtype(),
                    self.dtype()
                )))
            }
        }
        self.nulls.extend(&other.nulls);
        Ok(())
    }
}

// ---- batches ----------------------------------------------------------------

/// A column-major batch of rows: the native exchange format of the
/// vectorized operator pipeline (see the module docs).
#[derive(Debug, Clone)]
pub struct ColumnBatch {
    cols: Vec<Column>,
    len: usize,
}

impl ColumnBatch {
    /// An empty batch with per-column buffers sized for `cap` rows.
    pub fn with_capacity(dtypes: &[DataType], cap: usize) -> ColumnBatch {
        ColumnBatch {
            cols: dtypes.iter().map(|&t| Column::with_capacity(t, cap)).collect(),
            len: 0,
        }
    }

    /// Rows in the batch.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `len() == 0`.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of columns.
    pub fn num_cols(&self) -> usize {
        self.cols.len()
    }

    /// Per-column declared types.
    pub fn dtypes(&self) -> Vec<DataType> {
        self.cols.iter().map(Column::dtype).collect()
    }

    /// Borrow column `c`.
    pub fn col(&self, c: usize) -> &Column {
        &self.cols[c]
    }

    /// Materialize cell `(c, i)`.
    pub fn value(&self, c: usize, i: usize) -> Value {
        self.cols[c].value(i)
    }

    /// Append one materialized row. Value variants must match the batch's
    /// column types exactly (NULL fits everywhere) — the lossless-ingest
    /// contract the round-trip property test pins down.
    pub fn push_row(&mut self, row: &Row) -> DbResult<()> {
        if row.arity() != self.cols.len() {
            return Err(DbError::SchemaMismatch(format!(
                "row arity {} != batch arity {}",
                row.arity(),
                self.cols.len()
            )));
        }
        for (col, v) in self.cols.iter_mut().zip(row.values()) {
            col.push_value(v)?;
        }
        self.len += 1;
        Ok(())
    }

    /// Decode one row-codec payload (see [`crate::row`]) straight into the
    /// column buffers — the no-`Row` scan path. The wire tags must match
    /// the batch's column types (they do for any schema-checked table);
    /// trailing bytes are corruption, exactly as in [`Row::decode`].
    pub fn push_wire(&mut self, mut buf: &[u8]) -> DbResult<()> {
        for col in &mut self.cols {
            if buf.is_empty() {
                return Err(DbError::Corrupt("row truncated".into()));
            }
            let tag = buf.get_u8();
            if tag == row::TAG_NULL {
                col.push_null();
                continue;
            }
            match (&mut col.data, tag) {
                (ColumnData::BigInt(v), row::TAG_BIGINT) => {
                    ensure(buf.remaining() >= 8)?;
                    v.push(buf.get_i64());
                }
                (ColumnData::Int(v), row::TAG_INT) => {
                    ensure(buf.remaining() >= 4)?;
                    v.push(buf.get_i32());
                }
                (ColumnData::Real(v), row::TAG_REAL) => {
                    ensure(buf.remaining() >= 4)?;
                    v.push(buf.get_f32());
                }
                (ColumnData::Float(v), row::TAG_FLOAT) => {
                    ensure(buf.remaining() >= 8)?;
                    v.push(buf.get_f64());
                }
                (ColumnData::Text { offsets, bytes }, row::TAG_TEXT) => {
                    ensure(buf.remaining() >= 4)?;
                    let len = buf.get_u32() as usize;
                    ensure(buf.remaining() >= len)?;
                    std::str::from_utf8(&buf[..len])
                        .map_err(|_| DbError::Corrupt("invalid utf8 in text value".into()))?;
                    bytes.extend_from_slice(&buf[..len]);
                    offsets.push(bytes.len() as u32);
                    buf.skip(len);
                }
                _ => {
                    return Err(DbError::Corrupt(format!(
                        "value tag {tag} does not fit a {} column",
                        col.dtype()
                    )))
                }
            }
            col.nulls.push(false);
        }
        if !buf.is_empty() {
            return Err(DbError::Corrupt(format!("{} trailing bytes after row", buf.remaining())));
        }
        self.len += 1;
        Ok(())
    }

    /// Build a batch from materialized rows (see [`ColumnBatch::push_row`]).
    pub fn from_rows(dtypes: &[DataType], rows: &[Row]) -> DbResult<ColumnBatch> {
        let mut b = ColumnBatch::with_capacity(dtypes, rows.len());
        for row in rows {
            b.push_row(row)?;
        }
        Ok(b)
    }

    /// Materialize every row (the inverse of [`ColumnBatch::from_rows`]).
    pub fn to_rows(&self) -> Vec<Row> {
        (0..self.len).map(|i| self.row(i)).collect()
    }

    /// Materialize row `i`.
    pub fn row(&self, i: usize) -> Row {
        Row(self.cols.iter().map(|c| c.value(i)).collect())
    }

    /// Materialize row `i` into a reused buffer (scratch rows for the
    /// row-fallback predicate path and expression projection).
    pub fn read_row_into(&self, i: usize, out: &mut Vec<Value>) {
        out.clear();
        out.extend(self.cols.iter().map(|c| c.value(i)));
    }

    /// Columnwise gather: the batch containing exactly the selected rows,
    /// in selection order.
    pub fn gather(&self, sel: &[u32]) -> ColumnBatch {
        ColumnBatch { cols: self.cols.iter().map(|c| c.gather(sel)).collect(), len: sel.len() }
    }

    /// Append all of `other`'s rows (columns must match in type).
    pub fn extend_from(&mut self, other: &ColumnBatch) -> DbResult<()> {
        if self.cols.len() != other.cols.len() {
            return Err(DbError::SchemaMismatch(format!(
                "batch arity {} != {}",
                other.cols.len(),
                self.cols.len()
            )));
        }
        for (a, b) in self.cols.iter_mut().zip(&other.cols) {
            a.extend_from(b)?;
        }
        self.len += other.len;
        Ok(())
    }

    /// Join-output constructor: left columns gathered by `li` concatenated
    /// with right columns gathered by `ri` (`li.len() == ri.len()` pairs).
    pub fn concat_gather(
        left: &ColumnBatch,
        li: &[u32],
        right: &ColumnBatch,
        ri: &[u32],
    ) -> ColumnBatch {
        debug_assert_eq!(li.len(), ri.len());
        let mut cols = Vec::with_capacity(left.cols.len() + right.cols.len());
        cols.extend(left.cols.iter().map(|c| c.gather(li)));
        cols.extend(right.cols.iter().map(|c| c.gather(ri)));
        ColumnBatch { cols, len: li.len() }
    }
}

fn ensure(ok: bool) -> DbResult<()> {
    if ok {
        Ok(())
    } else {
        Err(DbError::Corrupt("row truncated".into()))
    }
}

// ---- vectorized predicates --------------------------------------------------

/// Tri-state truth values in kernel output vectors.
const T_FALSE: u8 = 0;
const T_TRUE: u8 = 1;
const T_NULL: u8 = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CmpOp {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

impl CmpOp {
    fn of(op: BinOp) -> Option<CmpOp> {
        Some(match op {
            BinOp::Lt => CmpOp::Lt,
            BinOp::Le => CmpOp::Le,
            BinOp::Gt => CmpOp::Gt,
            BinOp::Ge => CmpOp::Ge,
            BinOp::Eq => CmpOp::Eq,
            BinOp::Ne => CmpOp::Ne,
            _ => return None,
        })
    }

    /// `a OP b` flipped to `b OP' a` (for `lit OP col` conjuncts).
    fn flip(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
        }
    }

    #[inline]
    fn apply_f64(self, x: f64, y: f64) -> bool {
        match self {
            CmpOp::Lt => x < y,
            CmpOp::Le => x <= y,
            CmpOp::Gt => x > y,
            CmpOp::Ge => x >= y,
            CmpOp::Eq => x == y,
            CmpOp::Ne => x != y,
        }
    }

    #[inline]
    fn apply_bytes(self, x: &[u8], y: &[u8]) -> bool {
        match self {
            CmpOp::Lt => x < y,
            CmpOp::Le => x <= y,
            CmpOp::Gt => x > y,
            CmpOp::Ge => x >= y,
            CmpOp::Eq => x == y,
            CmpOp::Ne => x != y,
        }
    }
}

/// A compiled predicate node evaluating to a tri-state vector.
#[derive(Debug, Clone)]
enum Kernel {
    /// `col OP constant` over a numeric column — both sides widened to
    /// `f64`, exactly as [`crate::expr`]'s `eval_bin` widens them.
    CmpNum { col: usize, op: CmpOp, lit: f64 },
    /// `col OP constant` over a text column (byte-wise, like `String` Ord).
    CmpText { col: usize, op: CmpOp, lit: String },
    /// `col BETWEEN lo AND hi` with constant numeric bounds (inclusive).
    BetweenNum { col: usize, lo: f64, hi: f64 },
    /// `col IS NULL` (never yields NULL itself).
    IsNullCol { col: usize },
    /// A bare numeric column as a predicate (`truthy`: value != 0).
    TruthyCol { col: usize },
    /// `NOT k` (NULL stays NULL).
    Not(Box<Kernel>),
    /// Three-valued AND (false dominates NULL).
    And(Box<Kernel>, Box<Kernel>),
    /// Three-valued OR (true dominates NULL).
    Or(Box<Kernel>, Box<Kernel>),
}

/// A predicate ready for columnar evaluation: either a compiled kernel
/// tree or the original expression evaluated row-at-a-time on a scratch
/// row. Compile once per operator, evaluate once per batch.
#[derive(Debug, Clone)]
pub struct VPredicate {
    inner: Pred,
}

#[derive(Debug, Clone)]
enum Pred {
    /// Fully compiled: tight per-column loops, no `Value` materialization.
    Compiled(Kernel),
    /// Row-at-a-time fallback, bit-identical to `Expr::matches` by
    /// construction (it *is* that evaluator).
    Fallback(Expr),
}

impl VPredicate {
    /// Compile `pred` against the input's column types. Shapes without a
    /// provably identical columnar kernel fall back to row-at-a-time
    /// evaluation of the original expression.
    pub fn compile(pred: &Expr, dtypes: &[DataType]) -> VPredicate {
        let inner = match compile_kernel(pred, dtypes) {
            Some(k) => Pred::Compiled(k),
            None => Pred::Fallback(pred.clone()),
        };
        VPredicate { inner }
    }

    /// Was the whole predicate compiled to columnar kernels?
    pub fn is_compiled(&self) -> bool {
        matches!(self.inner, Pred::Compiled(_))
    }

    /// Evaluate over a batch, returning the selection vector: indices of
    /// the rows where the predicate is *true* (NULL counts as false, as in
    /// SQL `WHERE`), in row order.
    pub fn select(&self, batch: &ColumnBatch) -> DbResult<Vec<u32>> {
        let n = batch.len();
        let mut sel = Vec::with_capacity(n);
        if n == 0 {
            return Ok(sel);
        }
        match &self.inner {
            Pred::Compiled(k) => {
                let mut truth = vec![T_FALSE; n];
                k.eval(batch, &mut truth);
                for (i, &t) in truth.iter().enumerate() {
                    if t == T_TRUE {
                        sel.push(i as u32);
                    }
                }
            }
            Pred::Fallback(expr) => {
                let mut scratch = Row(Vec::with_capacity(batch.num_cols()));
                for i in 0..n {
                    batch.read_row_into(i, &mut scratch.0);
                    if expr.matches(&scratch)? {
                        sel.push(i as u32);
                    }
                }
            }
        }
        Ok(sel)
    }
}

/// Numeric view of a column for comparison kernels: `None` when the
/// column is text (whose comparisons against numeric constants must go
/// through the row path to reproduce its type errors).
fn numeric(dtypes: &[DataType], col: usize) -> bool {
    matches!(
        dtypes.get(col),
        Some(DataType::BigInt | DataType::Int | DataType::Real | DataType::Float)
    )
}

fn num_lit(v: &Value) -> Option<f64> {
    match v {
        Value::BigInt(_) | Value::Int(_) | Value::Real(_) | Value::Float(_) => {
            Some(v.as_f64().expect("numeric"))
        }
        _ => None,
    }
}

fn compile_kernel(pred: &Expr, dtypes: &[DataType]) -> Option<Kernel> {
    match pred {
        Expr::Bin(BinOp::And, a, b) => Some(Kernel::And(
            Box::new(compile_kernel(a, dtypes)?),
            Box::new(compile_kernel(b, dtypes)?),
        )),
        Expr::Bin(BinOp::Or, a, b) => Some(Kernel::Or(
            Box::new(compile_kernel(a, dtypes)?),
            Box::new(compile_kernel(b, dtypes)?),
        )),
        Expr::Bin(op, a, b) => {
            let op = CmpOp::of(*op)?;
            let (col, lit, op) = match (a.as_ref(), b.as_ref()) {
                (Expr::Col(c), Expr::Lit(v)) => (*c, v, op),
                (Expr::Lit(v), Expr::Col(c)) => (*c, v, op.flip()),
                _ => return None,
            };
            match (dtypes.get(col)?, lit) {
                (DataType::Text, Value::Text(s)) => {
                    Some(Kernel::CmpText { col, op, lit: s.clone() })
                }
                (DataType::Text, _) => None,
                _ => num_lit(lit).map(|lit| Kernel::CmpNum { col, op, lit }),
            }
        }
        Expr::Between(v, lo, hi) => {
            let (Expr::Col(c), Expr::Lit(lo), Expr::Lit(hi)) = (v.as_ref(), lo.as_ref(), hi.as_ref())
            else {
                return None;
            };
            if !numeric(dtypes, *c) {
                return None;
            }
            Some(Kernel::BetweenNum { col: *c, lo: num_lit(lo)?, hi: num_lit(hi)? })
        }
        Expr::IsNull(a) => match a.as_ref() {
            Expr::Col(c) if *c < dtypes.len() => Some(Kernel::IsNullCol { col: *c }),
            _ => None,
        },
        Expr::Not(a) => Some(Kernel::Not(Box::new(compile_kernel(a, dtypes)?))),
        Expr::Col(c) if numeric(dtypes, *c) => Some(Kernel::TruthyCol { col: *c }),
        _ => None,
    }
}

impl Kernel {
    fn eval(&self, batch: &ColumnBatch, out: &mut [u8]) {
        match self {
            Kernel::CmpNum { col, op, lit } => {
                let c = batch.col(*col);
                cmp_num_kernel(c, *op, *lit, out);
            }
            Kernel::CmpText { col, op, lit } => {
                let c = batch.col(*col);
                let y = lit.as_bytes();
                if let ColumnData::Text { offsets, bytes } = &c.data {
                    for (i, t) in out.iter_mut().enumerate() {
                        *t = if c.nulls.is_null(i) {
                            T_NULL
                        } else {
                            let x = &bytes[offsets[i] as usize..offsets[i + 1] as usize];
                            op.apply_bytes(x, y) as u8
                        };
                    }
                }
            }
            Kernel::BetweenNum { col, lo, hi } => {
                between_kernel(batch.col(*col), *lo, *hi, out);
            }
            Kernel::IsNullCol { col } => {
                let c = batch.col(*col);
                for (i, t) in out.iter_mut().enumerate() {
                    *t = c.nulls.is_null(i) as u8;
                }
            }
            Kernel::TruthyCol { col } => {
                let c = batch.col(*col);
                cmp_num_kernel(c, CmpOp::Ne, 0.0, out);
            }
            Kernel::Not(k) => {
                k.eval(batch, out);
                for t in out.iter_mut() {
                    // 0 ↔ 1, NULL stays NULL.
                    if *t != T_NULL {
                        *t ^= 1;
                    }
                }
            }
            Kernel::And(a, b) => {
                a.eval(batch, out);
                let mut rhs = vec![T_FALSE; out.len()];
                b.eval(batch, &mut rhs);
                for (t, &r) in out.iter_mut().zip(&rhs) {
                    // false dominates; otherwise NULL dominates.
                    *t = if *t == T_FALSE || r == T_FALSE {
                        T_FALSE
                    } else if *t == T_NULL || r == T_NULL {
                        T_NULL
                    } else {
                        T_TRUE
                    };
                }
            }
            Kernel::Or(a, b) => {
                a.eval(batch, out);
                let mut rhs = vec![T_FALSE; out.len()];
                b.eval(batch, &mut rhs);
                for (t, &r) in out.iter_mut().zip(&rhs) {
                    // true dominates; otherwise NULL dominates.
                    *t = if *t == T_TRUE || r == T_TRUE {
                        T_TRUE
                    } else if *t == T_NULL || r == T_NULL {
                        T_NULL
                    } else {
                        T_FALSE
                    };
                }
            }
        }
    }
}

/// `column OP lit` over every row: one tight loop per buffer type. The
/// no-NULL fast path drops the bitmap probe so the loop autovectorizes.
fn cmp_num_kernel(c: &Column, op: CmpOp, lit: f64, out: &mut [u8]) {
    macro_rules! run {
        ($vals:expr) => {{
            let vals = $vals;
            if c.nulls.any() {
                for (i, t) in out.iter_mut().enumerate() {
                    *t = if c.nulls.is_null(i) {
                        T_NULL
                    } else {
                        op.apply_f64(vals[i] as f64, lit) as u8
                    };
                }
            } else {
                for (t, &v) in out.iter_mut().zip(vals.iter()) {
                    *t = op.apply_f64(v as f64, lit) as u8;
                }
            }
        }};
    }
    match &c.data {
        ColumnData::BigInt(v) => run!(v),
        ColumnData::Int(v) => run!(v),
        ColumnData::Real(v) => run!(v),
        ColumnData::Float(v) => run!(v),
        // Unreachable by compilation rules; mark every row NULL (filters
        // drop NULL) rather than panic.
        ColumnData::Text { .. } => out.fill(T_NULL),
    }
}

/// `lo <= column <= hi` (both numeric constants) in one pass.
fn between_kernel(c: &Column, lo: f64, hi: f64, out: &mut [u8]) {
    macro_rules! run {
        ($vals:expr) => {{
            let vals = $vals;
            if c.nulls.any() {
                for (i, t) in out.iter_mut().enumerate() {
                    *t = if c.nulls.is_null(i) {
                        T_NULL
                    } else {
                        let x = vals[i] as f64;
                        (x >= lo && x <= hi) as u8
                    };
                }
            } else {
                for (t, &v) in out.iter_mut().zip(vals.iter()) {
                    let x = v as f64;
                    *t = (x >= lo && x <= hi) as u8;
                }
            }
        }};
    }
    match &c.data {
        ColumnData::BigInt(v) => run!(v),
        ColumnData::Int(v) => run!(v),
        ColumnData::Real(v) => run!(v),
        ColumnData::Float(v) => run!(v),
        ColumnData::Text { .. } => out.fill(T_NULL),
    }
}

// ---- columnar hash join -----------------------------------------------------

/// Build-side key directory for the vectorized hash join. The planner
/// picks the hash path only for same-`DataType` integer or text
/// equalities, so keys hash on the native representation (`i64` for both
/// integer widths within one type, arena bytes for text) — equality on
/// those is exactly the `=` predicate. NULL keys are skipped on both
/// sides, per SQL three-valued logic.
pub struct ColumnHashTable {
    build: ColumnBatch,
    map: KeyMap,
}

enum KeyMap {
    Int(HashMap<i64, Vec<u32>>),
    Text(HashMap<Vec<u8>, Vec<u32>>),
}

impl ColumnHashTable {
    /// Hash `build` on `key_col`.
    pub fn build(build: ColumnBatch, key_col: usize) -> DbResult<ColumnHashTable> {
        let col = build.col(key_col);
        let map = match &col.data {
            ColumnData::BigInt(v) => {
                let mut m: HashMap<i64, Vec<u32>> = HashMap::with_capacity(v.len());
                for (i, &k) in v.iter().enumerate() {
                    if !col.nulls.is_null(i) {
                        m.entry(k).or_default().push(i as u32);
                    }
                }
                KeyMap::Int(m)
            }
            ColumnData::Int(v) => {
                let mut m: HashMap<i64, Vec<u32>> = HashMap::with_capacity(v.len());
                for (i, &k) in v.iter().enumerate() {
                    if !col.nulls.is_null(i) {
                        m.entry(i64::from(k)).or_default().push(i as u32);
                    }
                }
                KeyMap::Int(m)
            }
            ColumnData::Text { offsets, bytes } => {
                let mut m: HashMap<Vec<u8>, Vec<u32>> = HashMap::with_capacity(offsets.len());
                for i in 0..build.len() {
                    if !col.nulls.is_null(i) {
                        let k = bytes[offsets[i] as usize..offsets[i + 1] as usize].to_vec();
                        m.entry(k).or_default().push(i as u32);
                    }
                }
                KeyMap::Text(m)
            }
            other => {
                return Err(DbError::TypeError(format!(
                    "hash join key must be integer or text, got {:?}",
                    other
                )))
            }
        };
        Ok(ColumnHashTable { build, map })
    }

    /// Rows on the build side.
    pub fn build_rows(&self) -> usize {
        self.build.len()
    }

    /// Probe with a batch of left rows, emitting the concatenated output
    /// batch in left-major order with build rows in input order — exactly
    /// the order a nested loop produces. The key column is hashed columnwise; output columns are
    /// built by gather, never row by row.
    pub fn probe(&self, left: &ColumnBatch, left_col: usize) -> DbResult<ColumnBatch> {
        let col = left.col(left_col);
        let mut li: Vec<u32> = Vec::new();
        let mut ri: Vec<u32> = Vec::new();
        let mut push = |i: usize, hits: &[u32]| {
            li.extend(std::iter::repeat_n(i as u32, hits.len()));
            ri.extend_from_slice(hits);
        };
        match (&self.map, &col.data) {
            (KeyMap::Int(m), ColumnData::BigInt(v)) => {
                for (i, &k) in v.iter().enumerate() {
                    if !col.nulls.is_null(i) {
                        if let Some(hits) = m.get(&k) {
                            push(i, hits);
                        }
                    }
                }
            }
            (KeyMap::Int(m), ColumnData::Int(v)) => {
                for (i, &k) in v.iter().enumerate() {
                    if !col.nulls.is_null(i) {
                        if let Some(hits) = m.get(&i64::from(k)) {
                            push(i, hits);
                        }
                    }
                }
            }
            (KeyMap::Text(m), ColumnData::Text { offsets, bytes }) => {
                for i in 0..left.len() {
                    if !col.nulls.is_null(i) {
                        let k = &bytes[offsets[i] as usize..offsets[i + 1] as usize];
                        if let Some(hits) = m.get(k) {
                            push(i, hits);
                        }
                    }
                }
            }
            _ => {
                return Err(DbError::TypeError(
                    "hash join probe key type does not match the build side".into(),
                ))
            }
        }
        Ok(ColumnBatch::concat_gather(left, &li, &self.build, &ri))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dtypes() -> Vec<DataType> {
        vec![DataType::BigInt, DataType::Int, DataType::Real, DataType::Float, DataType::Text]
    }

    fn rows() -> Vec<Row> {
        vec![
            Row(vec![
                Value::BigInt(i64::MAX),
                Value::Int(-7),
                Value::Real(2.5),
                Value::Float(-0.0),
                Value::Text(String::new()),
            ]),
            Row(vec![Value::Null, Value::Null, Value::Null, Value::Null, Value::Null]),
            Row(vec![
                Value::BigInt(-42),
                Value::Int(i32::MIN),
                Value::Real(f32::NAN),
                Value::Float(f64::INFINITY),
                Value::Text("skyserver".into()),
            ]),
        ]
    }

    #[test]
    fn row_batch_roundtrip_is_lossless() {
        let batch = ColumnBatch::from_rows(&dtypes(), &rows()).unwrap();
        assert_eq!(batch.len(), 3);
        let back = batch.to_rows();
        for (a, b) in rows().iter().zip(&back) {
            assert_eq!(a.encode(), b.encode(), "byte-exact round trip");
        }
    }

    #[test]
    fn wire_decode_matches_row_decode() {
        let mut batch = ColumnBatch::with_capacity(&dtypes(), 4);
        for row in rows() {
            batch.push_wire(&row.encode()).unwrap();
        }
        for (i, row) in rows().iter().enumerate() {
            assert_eq!(batch.row(i).encode(), row.encode());
        }
    }

    #[test]
    fn wire_decode_rejects_mismatched_tags_and_trailing_bytes() {
        let mut batch = ColumnBatch::with_capacity(&[DataType::Int], 1);
        let bigint = Row(vec![Value::BigInt(1)]).encode();
        assert!(batch.push_wire(&bigint).is_err());
        let mut ok = Row(vec![Value::Int(1)]).encode();
        ok.push(0);
        assert!(batch.push_wire(&ok).is_err());
    }

    #[test]
    fn gather_and_extend_preserve_values() {
        let batch = ColumnBatch::from_rows(&dtypes(), &rows()).unwrap();
        let picked = batch.gather(&[2, 0]);
        assert_eq!(picked.row(0).encode(), rows()[2].encode());
        assert_eq!(picked.row(1).encode(), rows()[0].encode());
        let mut all = ColumnBatch::with_capacity(&dtypes(), 0);
        all.extend_from(&batch).unwrap();
        all.extend_from(&picked).unwrap();
        assert_eq!(all.len(), 5);
        assert_eq!(all.row(3).encode(), rows()[2].encode());
    }

    #[test]
    fn dense_slices_only_for_their_type_and_no_nulls() {
        let with_nulls = ColumnBatch::from_rows(&dtypes(), &rows()).unwrap();
        assert!(with_nulls.col(0).dense_bigints().is_none(), "a NULL cell");
        let dense = with_nulls.gather(&[0, 2]);
        assert_eq!(dense.col(0).dense_bigints(), Some(&[i64::MAX, -42][..]));
        assert_eq!(dense.col(3).dense_floats().map(<[f64]>::len), Some(2));
        assert_eq!(dense.col(2).dense_reals().map(<[f32]>::len), Some(2));
        // Another type is never reinterpreted.
        assert!(dense.col(2).dense_floats().is_none());
        assert!(dense.col(1).dense_bigints().is_none());
    }

    #[test]
    fn compiled_selection_matches_row_at_a_time() {
        let dt = vec![DataType::Float, DataType::Int];
        let rows: Vec<Row> = (0..10)
            .map(|i| {
                Row(vec![
                    if i % 4 == 0 { Value::Null } else { Value::Float(f64::from(i)) },
                    Value::Int(i % 3),
                ])
            })
            .collect();
        let batch = ColumnBatch::from_rows(&dt, &rows).unwrap();
        let pred = Expr::Col(0)
            .between(Expr::lit(2.0), Expr::lit(8.0))
            .and(Expr::Col(1).bin(BinOp::Ne, Expr::lit(1i32)));
        let vp = VPredicate::compile(&pred, &dt);
        assert!(vp.is_compiled());
        let sel = vp.select(&batch).unwrap();
        let expect: Vec<u32> = rows
            .iter()
            .enumerate()
            .filter(|(_, r)| pred.matches(r).unwrap())
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(sel, expect);
    }

    #[test]
    fn arithmetic_predicates_fall_back() {
        let dt = vec![DataType::Float];
        let pred = Expr::Col(0).bin(BinOp::Add, Expr::lit(1.0)).bin(BinOp::Gt, Expr::lit(3.0));
        let vp = VPredicate::compile(&pred, &dt);
        assert!(!vp.is_compiled());
        let rows = vec![Row(vec![Value::Float(1.0)]), Row(vec![Value::Float(5.0)])];
        let batch = ColumnBatch::from_rows(&dt, &rows).unwrap();
        assert_eq!(vp.select(&batch).unwrap(), vec![1]);
    }

    #[test]
    fn columnar_hash_join_probe_orders_like_nested_loop() {
        let ldt = vec![DataType::Int, DataType::Float];
        let rdt = vec![DataType::Int, DataType::Text];
        let left = ColumnBatch::from_rows(
            &ldt,
            &[
                Row(vec![Value::Int(1), Value::Float(0.5)]),
                Row(vec![Value::Null, Value::Float(1.5)]),
                Row(vec![Value::Int(2), Value::Float(2.5)]),
            ],
        )
        .unwrap();
        let right = ColumnBatch::from_rows(
            &rdt,
            &[
                Row(vec![Value::Int(2), Value::Text("a".into())]),
                Row(vec![Value::Int(1), Value::Text("b".into())]),
                // NULL = NULL is not true in SQL: this row matches nothing,
                // not even the left row with a NULL key.
                Row(vec![Value::Null, Value::Text("n".into())]),
                Row(vec![Value::Int(2), Value::Text("c".into())]),
            ],
        )
        .unwrap();
        let table = ColumnHashTable::build(right, 0).unwrap();
        let out = table.probe(&left, 0).unwrap();
        let got: Vec<Vec<u8>> = out.to_rows().iter().map(Row::encode).collect();
        let want: Vec<Vec<u8>> = [
            Row(vec![Value::Int(1), Value::Float(0.5), Value::Int(1), Value::Text("b".into())]),
            Row(vec![Value::Int(2), Value::Float(2.5), Value::Int(2), Value::Text("a".into())]),
            Row(vec![Value::Int(2), Value::Float(2.5), Value::Int(2), Value::Text("c".into())]),
        ]
        .iter()
        .map(Row::encode)
        .collect();
        assert_eq!(got, want);
    }
}
