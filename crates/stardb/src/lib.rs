//! # stardb — an embedded relational engine
//!
//! The "SQL Server" substrate of the reproduction: paged storage with a
//! buffer pool and I/O accounting, heap tables, a clustered B+tree with
//! order-preserving composite keys, simple relational executors, and
//! per-task session statistics matching the shape of the paper's Table 1.

#![warn(missing_docs)]

pub mod btree;
pub mod buffer;
pub mod colbatch;
pub mod error;
pub mod heap;
pub mod key;
pub mod mvcc;
pub mod page;
pub mod row;
pub mod schema;
pub mod store;
pub mod value;
pub mod wal;

pub use buffer::{BufferPool, DiskProfile, IoSnapshot};
pub use colbatch::{ColumnBatch, ColumnHashTable, VPredicate};
pub use error::{DbError, DbResult};
pub use mvcc::MvccState;
pub use row::Row;
pub use schema::{Column, Schema};
pub use value::{DataType, Value};
pub use wal::{FsyncPolicy, Wal, WalConfig, WalRecovery};

pub mod db;
pub mod dist;
pub mod exec;
pub mod expr;
pub mod sql;
pub mod stats;
pub mod zonemap;

pub use db::{BatchScan, ColChunk, Cursor, Database, DbConfig, DbSnapshot};
pub use expr::{BinOp, Expr, Func};
pub use sql::{
    zone_band_halo, zonejoin_halo_rows, JoinProfile, OpProfile, PlanOptions, PlanProfile,
    QueryProfile, SqlOutput,
};
pub use stats::{TableStats, TaskStats};
pub use zonemap::ZoneMap;
