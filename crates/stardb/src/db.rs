//! The database facade: a catalog of heap and clustered tables over one
//! buffer pool, with task-scoped statistics and cursors.

use crate::btree::BTree;
use crate::buffer::{BufferPool, DiskProfile, IoSnapshot};
use crate::colbatch::ColumnBatch;
use crate::error::{DbError, DbResult};
use crate::heap::{HeapFile, RowId};
use crate::key::encode_key;
use crate::mvcc::MvccState;
use crate::page;
use crate::row::Row;
use crate::schema::{Column, Schema};
use crate::stats::{TableStats, TaskStats};
use crate::store::{FileStore, MemStore, PageId, PageStore};
use crate::value::{DataType, Value};
use crate::wal::{Wal, WalConfig};
use crate::zonemap::ZoneMap;
use obs::Unpoison;
use std::collections::{HashMap, HashSet};
use std::ops::Bound;
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct DbConfig {
    /// Buffer pool size in 8 KiB frames.
    pub buffer_frames: usize,
    /// Latency model for the simulated disk.
    pub disk: DiskProfile,
}

impl DbConfig {
    /// The paper-like server profile: a 2 GB buffer pool (the TAM-era SQL
    /// cluster nodes had 2 GB of RAM) over a modeled spinning disk.
    pub fn server() -> Self {
        DbConfig { buffer_frames: 262_144, disk: DiskProfile::spinning_disk() }
    }

    /// Small pool, no modeled latency — unit tests.
    pub fn in_memory() -> Self {
        DbConfig { buffer_frames: 4096, disk: DiskProfile::instant() }
    }

    /// A deliberately tiny pool to force eviction (failure-injection and
    /// I/O-shape tests).
    pub fn tiny(frames: usize) -> Self {
        DbConfig { buffer_frames: frames, disk: DiskProfile::instant() }
    }
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig::server()
    }
}

enum Storage {
    Heap { file: HeapFile, rows: u64 },
    Clustered { tree: BTree, key_cols: Vec<usize> },
}

/// A nonclustered index: a B-tree from `(index-key..., clustered-key...)`
/// to an empty payload, the SQL Server layout where secondary indexes
/// locate rows through the clustering key.
struct SecondaryIndex {
    name: String,
    cols: Vec<usize>,
    tree: BTree,
}

/// One table: schema plus storage.
struct Table {
    schema: Schema,
    storage: Storage,
    indexes: Vec<SecondaryIndex>,
    /// Mutation epoch: stamped from the database-wide monotonic counter on
    /// every data change (insert/delete/truncate and table creation).
    /// Derived read-optimized structures (the column cache and its zone
    /// maps) record the version they were built at and treat any
    /// difference as stale. Epochs are never reused, so a drop + recreate
    /// cannot alias an old cache entry onto a new table.
    epoch: u64,
    /// Epoch of the last [`Database::commit`] that included a mutation of
    /// this table (0 before the first). Commit epochs draw from the same
    /// monotonic counter as mutation epochs, so the two never collide.
    commit_epoch: u64,
}

/// The committed shape of one table, as serialized into WAL commit records
/// and pinned by snapshots: enough to re-attach storage without replaying
/// logical operations.
enum SnapStorage {
    Heap { pages: Vec<PageId>, rows: u64 },
    Clustered { root: PageId, len: u64, key_cols: Vec<usize> },
}

struct SnapTable {
    schema: Schema,
    storage: SnapStorage,
}

/// The catalog as of the last commit. Snapshots hold an `Arc` to the
/// version they pinned; commit swaps in a fresh one.
struct CommittedCatalog {
    epoch: u64,
    tables: HashMap<String, SnapTable>,
}

// ---- catalog codec --------------------------------------------------------
//
// Commit and checkpoint records carry the serialized catalog: table
// schemas, heap page lists, B-tree roots, index definitions, and the epoch
// counter. A hand-rolled little-endian codec keeps the format stable and
// dependency-free; corruption of these bytes is caught one level down by
// the WAL record checksum, so the decoder treats any structural surprise
// as [`DbError::WalCorrupt`].

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn dtype_tag(t: DataType) -> u8 {
    match t {
        DataType::BigInt => 0,
        DataType::Int => 1,
        DataType::Real => 2,
        DataType::Float => 3,
        DataType::Text => 4,
    }
}

fn dtype_from(tag: u8) -> DbResult<DataType> {
    Ok(match tag {
        0 => DataType::BigInt,
        1 => DataType::Int,
        2 => DataType::Real,
        3 => DataType::Float,
        4 => DataType::Text,
        other => return Err(DbError::WalCorrupt(format!("unknown dtype tag {other}"))),
    })
}

/// Bounds-checked reader over catalog bytes.
struct CatReader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> CatReader<'a> {
    fn take(&mut self, n: usize) -> DbResult<&'a [u8]> {
        if self.buf.len() - self.at < n {
            return Err(DbError::WalCorrupt("catalog truncated".into()));
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u8(&mut self) -> DbResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> DbResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> DbResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> DbResult<String> {
        let n = self.u32()? as usize;
        String::from_utf8(self.take(n)?.to_vec())
            .map_err(|_| DbError::WalCorrupt("catalog string is not utf-8".into()))
    }

    fn done(&self) -> bool {
        self.at == self.buf.len()
    }
}

/// An embedded database instance: one buffer pool, many tables.
///
/// Instances are single-writer by construction (methods take `&mut self`
/// for writes); the partitioned MaxBCG runner gives each worker thread its
/// own `Database`, exactly like the paper's share-nothing SQL Server
/// cluster.
///
/// ```
/// use stardb::{Database, DbConfig};
///
/// let mut db = Database::new(DbConfig::in_memory());
/// db.execute_sql("CREATE TABLE star (id BIGINT PRIMARY KEY, mag FLOAT)").unwrap();
/// db.execute_sql("INSERT INTO star VALUES (1, 17.5), (2, 19.0)").unwrap();
/// let (cols, rows) = db
///     .execute_sql("SELECT COUNT(*) AS n FROM star WHERE mag < 18")
///     .unwrap()
///     .rows()
///     .unwrap();
/// assert_eq!(cols, vec!["n"]);
/// assert_eq!(rows[0].i64(0).unwrap(), 1);
/// ```
pub struct Database {
    pool: Arc<BufferPool>,
    tables: HashMap<String, Table>,
    /// Database-wide monotonic epoch source (see [`Table::epoch`]).
    next_epoch: u64,
    /// Snapshot/version state (hooks are installed into the pool only for
    /// durable databases — see [`Database::open`]).
    mvcc: Arc<MvccState>,
    /// The write-ahead log, present for durable databases.
    wal: Option<Arc<Wal>>,
    /// Catalog as of the last commit, shared with snapshot handles.
    committed: Arc<RwLock<Arc<CommittedCatalog>>>,
    /// Tables mutated since the last commit (normalized names).
    dirty_tables: HashSet<String>,
    /// Schema-level changes (create/drop table or index) since the last
    /// commit — they change the catalog without dirtying table data.
    catalog_dirty: bool,
    /// Serialized catalog of the last WAL commit (checkpoint reuses it).
    last_catalog: Vec<u8>,
    /// Profile of the most recent profiled SELECT (set while telemetry is
    /// enabled, and always by `EXPLAIN ANALYZE`); `None` after an
    /// unprofiled SELECT. Interior mutability because SELECTs run through
    /// `&Database`.
    last_profile: Mutex<Option<crate::sql::QueryProfile>>,
    /// The column cache: per table, its full scan as one batch plus the
    /// zone map built over that batch, valid at one
    /// [`Database::table_version`] — a stale slot is replaced by the next
    /// lookup's rebuild, so writers never invalidate explicitly. Interior
    /// mutability because SELECTs run through `&Database`.
    columns: Mutex<HashMap<String, ColumnSlot>>,
}

/// One table's entry in the column cache (see [`Database::table_columns`]).
struct ColumnSlot {
    /// The [`Database::table_version`] both structures were built at.
    version: u64,
    /// The whole table in clustered-key (scan) order.
    batch: Arc<ColumnBatch>,
    /// The zone map over `batch`, once a caller has asked for one.
    zone_map: Option<Arc<ZoneMap>>,
}

/// Wall time of non-trivial commits (WAL append + fsync for durable
/// databases, epoch/catalog bookkeeping for in-memory ones), feeding the
/// `stardb.wal.commit_latency_ns` histogram's p50/p95/p99.
fn commit_latency() -> &'static obs::Histogram {
    static H: std::sync::OnceLock<obs::Histogram> = std::sync::OnceLock::new();
    H.get_or_init(|| obs::histogram("stardb.wal.commit_latency_ns"))
}

impl Database {
    /// Create an empty database.
    pub fn new(config: DbConfig) -> Self {
        let pool = Arc::new(BufferPool::new(
            Arc::new(MemStore::new()),
            config.buffer_frames,
            config.disk,
        ));
        Database {
            pool,
            tables: HashMap::new(),
            next_epoch: 0,
            mvcc: Arc::new(MvccState::new()),
            wal: None,
            committed: Arc::new(RwLock::new(Arc::new(CommittedCatalog {
                epoch: 0,
                tables: HashMap::new(),
            }))),
            dirty_tables: HashSet::new(),
            catalog_dirty: false,
            last_catalog: Vec::new(),
            last_profile: Mutex::new(None),
            columns: Mutex::new(HashMap::new()),
        }
    }

    /// Open (or create) a durable database at `dir`: a page file plus a
    /// write-ahead log, with MVCC copy-on-write hooks installed in the
    /// buffer pool. Opening runs recovery — committed transactions are
    /// replayed, torn tail records are detected by checksum and truncated
    /// — and re-attaches every table from the last consistent commit's
    /// catalog. See [`crate::wal`] for the full protocol.
    pub fn open(dir: &std::path::Path, config: DbConfig, wal_cfg: WalConfig) -> DbResult<Database> {
        std::fs::create_dir_all(dir).map_err(|e| DbError::io("create db dir", &e))?;
        let store = FileStore::open_repair(&dir.join("pages.db"))
            .map_err(|e| DbError::io("open page file", &e))?;
        let (wal, recovery) = Wal::open(&dir.join("wal"), wal_cfg, Arc::new(store))?;
        let pool = Arc::new(BufferPool::new(
            wal.clone() as Arc<dyn PageStore>,
            config.buffer_frames,
            config.disk,
        ));
        let mvcc = Arc::new(MvccState::new());
        pool.enable_mvcc(mvcc.clone());
        let mut db = Database {
            pool,
            tables: HashMap::new(),
            next_epoch: recovery.epoch,
            mvcc,
            wal: Some(wal),
            committed: Arc::new(RwLock::new(Arc::new(CommittedCatalog {
                epoch: recovery.epoch,
                tables: HashMap::new(),
            }))),
            dirty_tables: HashSet::new(),
            catalog_dirty: false,
            last_catalog: Vec::new(),
            last_profile: Mutex::new(None),
            columns: Mutex::new(HashMap::new()),
        };
        if let Some(bytes) = recovery.catalog {
            db.decode_catalog(&bytes)?;
            db.last_catalog = bytes;
        }
        if recovery.epoch > 0 {
            // Future snapshots pin at the recovered epoch.
            db.mvcc.commit(recovery.epoch);
        }
        *db.committed.write().unpoison() = Arc::new(db.build_committed(recovery.epoch));
        Ok(db)
    }

    /// The write-ahead log of a durable database (`None` for in-memory
    /// instances). Exposed for the chaos drills, which arm crash points.
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.wal.as_ref()
    }

    /// Claim the next mutation epoch (monotonic, never reused).
    fn fresh_epoch(&mut self) -> u64 {
        self.next_epoch += 1;
        self.next_epoch
    }

    /// Serialize the current catalog (see the codec notes above).
    fn encode_catalog(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        put_u64(&mut buf, self.next_epoch);
        let mut names: Vec<&String> = self.tables.keys().collect();
        names.sort();
        put_u32(&mut buf, names.len() as u32);
        for name in names {
            let t = &self.tables[name];
            put_str(&mut buf, name);
            put_u64(&mut buf, t.epoch);
            put_u64(&mut buf, t.commit_epoch);
            put_u32(&mut buf, t.schema.arity() as u32);
            for c in t.schema.columns() {
                put_str(&mut buf, &c.name);
                buf.push(dtype_tag(c.dtype));
                buf.push(u8::from(c.nullable));
            }
            match &t.storage {
                Storage::Heap { file, rows } => {
                    buf.push(0);
                    put_u64(&mut buf, *rows);
                    put_u32(&mut buf, file.pages().len() as u32);
                    for p in file.pages() {
                        put_u32(&mut buf, p.0);
                    }
                }
                Storage::Clustered { tree, key_cols } => {
                    buf.push(1);
                    put_u32(&mut buf, tree.root().0);
                    put_u64(&mut buf, tree.len());
                    put_u32(&mut buf, key_cols.len() as u32);
                    for &k in key_cols {
                        put_u32(&mut buf, k as u32);
                    }
                }
            }
            put_u32(&mut buf, t.indexes.len() as u32);
            for idx in &t.indexes {
                put_str(&mut buf, &idx.name);
                put_u32(&mut buf, idx.cols.len() as u32);
                for &c in &idx.cols {
                    put_u32(&mut buf, c as u32);
                }
                put_u32(&mut buf, idx.tree.root().0);
                put_u64(&mut buf, idx.tree.len());
            }
        }
        buf
    }

    /// Rebuild the table map from a recovered catalog, re-attaching heaps
    /// and trees over the (already replayed) pool.
    fn decode_catalog(&mut self, bytes: &[u8]) -> DbResult<()> {
        let mut r = CatReader { buf: bytes, at: 0 };
        self.next_epoch = r.u64()?;
        let n_tables = r.u32()? as usize;
        let mut tables = HashMap::with_capacity(n_tables);
        for _ in 0..n_tables {
            let name = r.str()?;
            let epoch = r.u64()?;
            let commit_epoch = r.u64()?;
            let n_cols = r.u32()? as usize;
            let mut cols = Vec::with_capacity(n_cols);
            for _ in 0..n_cols {
                let cname = r.str()?;
                let dtype = dtype_from(r.u8()?)?;
                let nullable = r.u8()? != 0;
                cols.push(if nullable {
                    Column::nullable(&cname, dtype)
                } else {
                    Column::new(&cname, dtype)
                });
            }
            let schema = Schema::new(cols);
            let storage = match r.u8()? {
                0 => {
                    let rows = r.u64()?;
                    let n_pages = r.u32()? as usize;
                    let mut pages = Vec::with_capacity(n_pages);
                    for _ in 0..n_pages {
                        pages.push(PageId(r.u32()?));
                    }
                    Storage::Heap { file: HeapFile::attach(self.pool.clone(), pages)?, rows }
                }
                1 => {
                    let root = PageId(r.u32()?);
                    let len = r.u64()?;
                    let n_keys = r.u32()? as usize;
                    let mut key_cols = Vec::with_capacity(n_keys);
                    for _ in 0..n_keys {
                        key_cols.push(r.u32()? as usize);
                    }
                    Storage::Clustered {
                        tree: BTree::attach(self.pool.clone(), root, len),
                        key_cols,
                    }
                }
                other => {
                    return Err(DbError::WalCorrupt(format!("unknown storage tag {other}")))
                }
            };
            let n_indexes = r.u32()? as usize;
            let mut indexes = Vec::with_capacity(n_indexes);
            for _ in 0..n_indexes {
                let iname = r.str()?;
                let n_icols = r.u32()? as usize;
                let mut icols = Vec::with_capacity(n_icols);
                for _ in 0..n_icols {
                    icols.push(r.u32()? as usize);
                }
                let root = PageId(r.u32()?);
                let len = r.u64()?;
                indexes.push(SecondaryIndex {
                    name: iname,
                    cols: icols,
                    tree: BTree::attach(self.pool.clone(), root, len),
                });
            }
            tables.insert(name, Table { schema, storage, indexes, epoch, commit_epoch });
        }
        if !r.done() {
            return Err(DbError::WalCorrupt("catalog has trailing bytes".into()));
        }
        self.tables = tables;
        Ok(())
    }

    /// Snapshot-facing view of the current tables, stamped `epoch`.
    fn build_committed(&self, epoch: u64) -> CommittedCatalog {
        let tables = self
            .tables
            .iter()
            .map(|(name, t)| {
                let storage = match &t.storage {
                    Storage::Heap { file, rows } => {
                        SnapStorage::Heap { pages: file.pages().to_vec(), rows: *rows }
                    }
                    Storage::Clustered { tree, key_cols } => SnapStorage::Clustered {
                        root: tree.root(),
                        len: tree.len(),
                        key_cols: key_cols.clone(),
                    },
                };
                (name.clone(), SnapTable { schema: t.schema.clone(), storage })
            })
            .collect();
        CommittedCatalog { epoch, tables }
    }

    /// Commit everything since the last commit as one transaction: flush
    /// dirty frames into the WAL's staged overlay, append their page
    /// images plus a commit record carrying the serialized catalog (group
    /// commit — one fsync for the whole batch), stamp MVCC pending
    /// versions with the commit epoch, and publish a fresh committed
    /// catalog for new snapshots. Returns the commit epoch (for an
    /// unchanged database: the previous one, with nothing written).
    ///
    /// In-memory databases skip the log but still advance commit epochs,
    /// so [`Database::table_version`] and snapshots behave identically.
    pub fn commit(&mut self) -> DbResult<u64> {
        if self.dirty_tables.is_empty() && !self.catalog_dirty {
            return Ok(self.committed.read().unpoison().epoch);
        }
        let t0 = Instant::now();
        let epoch = self.fresh_epoch();
        if let Some(wal) = self.wal.clone() {
            self.pool.flush_all()?;
            let catalog = self.encode_catalog();
            wal.commit(epoch, &catalog)?;
            self.last_catalog = catalog;
        }
        self.mvcc.commit(epoch);
        for name in std::mem::take(&mut self.dirty_tables) {
            if let Some(t) = self.tables.get_mut(&name) {
                t.commit_epoch = epoch;
            }
        }
        self.catalog_dirty = false;
        *self.committed.write().unpoison() = Arc::new(self.build_committed(epoch));
        commit_latency().record(t0.elapsed().as_nanos() as u64);
        Ok(epoch)
    }

    /// Commit, then checkpoint the WAL: committed pages are written
    /// through to the page file and fsync'd, the log rolls to a fresh
    /// segment, and older segments are deleted. No-op (beyond the commit)
    /// for in-memory databases.
    pub fn checkpoint(&mut self) -> DbResult<u64> {
        let epoch = self.commit()?;
        if let Some(wal) = self.wal.clone() {
            if self.last_catalog.is_empty() {
                self.last_catalog = self.encode_catalog();
            }
            wal.checkpoint(epoch, &self.last_catalog)?;
        }
        Ok(epoch)
    }

    /// Cleanly shut down a durable database: commit and checkpoint, so the
    /// next [`Database::open`] recovers from the checkpoint record alone.
    pub fn close(mut self) -> DbResult<()> {
        self.checkpoint()?;
        Ok(())
    }

    /// Pin an owned, `Send + Sync` snapshot of the last committed state.
    ///
    /// The snapshot sees exactly the tables and rows of the commit it
    /// pinned — scans, range scans, and point gets resolve page reads
    /// through the MVCC version table, so a writer may keep mutating and
    /// committing concurrently (durable databases install the
    /// copy-on-write hooks; see [`Database::open`]). Superseded page
    /// versions are held until the snapshot drops, then reclaimed by the
    /// watermark GC.
    pub fn snapshot(&self) -> DbSnapshot {
        loop {
            let epoch = self.mvcc.pin_snapshot();
            let catalog = self.committed.read().unpoison().clone();
            if catalog.epoch == epoch {
                return DbSnapshot {
                    pool: self.pool.clone(),
                    mvcc: self.mvcc.clone(),
                    epoch,
                    catalog,
                };
            }
            // A commit raced between the pin and the catalog read; retry
            // against the newer epoch.
            self.mvcc.unpin_snapshot(epoch);
        }
    }

    /// The shared buffer pool (stats, direct index construction).
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Current I/O counters.
    pub fn io_stats(&self) -> IoSnapshot {
        self.pool.stats()
    }

    fn norm(name: &str) -> String {
        name.to_ascii_lowercase()
    }

    fn table(&self, name: &str) -> DbResult<&Table> {
        self.tables
            .get(&Self::norm(name))
            .ok_or_else(|| DbError::NoSuchTable(name.to_owned()))
    }

    fn table_mut(&mut self, name: &str) -> DbResult<&mut Table> {
        self.tables
            .get_mut(&Self::norm(name))
            .ok_or_else(|| DbError::NoSuchTable(name.to_owned()))
    }

    /// `true` when `name` exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(&Self::norm(name))
    }

    /// All table names (sorted, for deterministic listings).
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.keys().cloned().collect();
        names.sort();
        names
    }

    /// Schema of a table.
    pub fn schema_of(&self, name: &str) -> DbResult<&Schema> {
        Ok(&self.table(name)?.schema)
    }

    /// Create a heap table.
    pub fn create_table(&mut self, name: &str, schema: Schema) -> DbResult<()> {
        let key = Self::norm(name);
        if self.tables.contains_key(&key) {
            return Err(DbError::TableExists(name.to_owned()));
        }
        let file = HeapFile::create(self.pool.clone())?;
        let epoch = self.fresh_epoch();
        self.dirty_tables.insert(key.clone());
        self.catalog_dirty = true;
        self.tables.insert(
            key,
            Table {
                schema,
                storage: Storage::Heap { file, rows: 0 },
                indexes: Vec::new(),
                epoch,
                commit_epoch: 0,
            },
        );
        Ok(())
    }

    /// Create a table clustered on `key_cols` (a unique composite key —
    /// the engine's `CREATE CLUSTERED INDEX`).
    pub fn create_clustered_table(
        &mut self,
        name: &str,
        schema: Schema,
        key_cols: &[&str],
    ) -> DbResult<()> {
        let key = Self::norm(name);
        if self.tables.contains_key(&key) {
            return Err(DbError::TableExists(name.to_owned()));
        }
        if key_cols.is_empty() {
            return Err(DbError::SchemaMismatch(
                "clustered table needs at least one key column".into(),
            ));
        }
        let key_cols = key_cols
            .iter()
            .map(|c| schema.col(c))
            .collect::<DbResult<Vec<usize>>>()?;
        let tree = BTree::create(self.pool.clone())?;
        let epoch = self.fresh_epoch();
        self.dirty_tables.insert(key.clone());
        self.catalog_dirty = true;
        self.tables.insert(
            key,
            Table {
                schema,
                storage: Storage::Clustered { tree, key_cols },
                indexes: Vec::new(),
                epoch,
                commit_epoch: 0,
            },
        );
        Ok(())
    }

    /// Drop a table.
    pub fn drop_table(&mut self, name: &str) -> DbResult<()> {
        let key = Self::norm(name);
        self.tables
            .remove(&key)
            .map(|_| {
                self.dirty_tables.remove(&key);
                self.catalog_dirty = true;
            })
            .ok_or_else(|| DbError::NoSuchTable(name.to_owned()))
    }

    /// Remove all rows (`TRUNCATE TABLE`), emptying secondary indexes too.
    pub fn truncate(&mut self, name: &str) -> DbResult<()> {
        let epoch = self.fresh_epoch();
        self.dirty_tables.insert(Self::norm(name));
        let table = self.table_mut(name)?;
        table.epoch = epoch;
        for idx in &mut table.indexes {
            idx.tree.truncate()?;
        }
        match &mut table.storage {
            Storage::Heap { file, rows } => {
                file.truncate()?;
                *rows = 0;
                Ok(())
            }
            Storage::Clustered { tree, .. } => tree.truncate(),
        }
    }

    /// Insert one row, maintaining any secondary indexes.
    pub fn insert(&mut self, name: &str, row: Row) -> DbResult<()> {
        let epoch = self.fresh_epoch();
        self.dirty_tables.insert(Self::norm(name));
        let table = self.table_mut(name)?;
        table.epoch = epoch;
        table.schema.check_row(row.values())?;
        match &mut table.storage {
            Storage::Heap { file, rows } => {
                if !table.indexes.is_empty() {
                    return Err(DbError::TypeError(
                        "secondary indexes require a clustered table".into(),
                    ));
                }
                file.insert(&row.encode())?;
                *rows += 1;
                Ok(())
            }
            Storage::Clustered { tree, key_cols } => {
                let key: Vec<Value> = key_cols.iter().map(|&i| row[i].clone()).collect();
                tree.insert(&encode_key(&key), &row.encode())?;
                for idx in &mut table.indexes {
                    let mut ikey: Vec<Value> =
                        idx.cols.iter().map(|&i| row[i].clone()).collect();
                    ikey.extend(key.iter().cloned());
                    idx.tree.insert(&encode_key(&ikey), &[])?;
                }
                Ok(())
            }
        }
    }

    /// Insert many rows.
    pub fn insert_rows(
        &mut self,
        name: &str,
        rows: impl IntoIterator<Item = Row>,
    ) -> DbResult<u64> {
        let mut n = 0;
        for row in rows {
            self.insert(name, row)?;
            n += 1;
        }
        Ok(n)
    }

    /// The table's current mutation epoch. Every insert, delete, and
    /// truncate moves it forward (monotonically, database-wide, so a
    /// drop + recreate can never repeat an epoch). Snapshot-style caches
    /// record the epoch at build time and compare it before trusting their
    /// contents; a mismatch — or a missing table — means stale.
    pub fn table_epoch(&self, name: &str) -> DbResult<u64> {
        Ok(self.table(name)?.epoch)
    }

    /// The table's *visible* version for derived caches: its last commit
    /// epoch while the table has no uncommitted changes, the live mutation
    /// epoch while it does. Under the commit protocol a cache keyed on
    /// this value stays valid across read-only tasks (commits that touch
    /// other tables do not move it) and invalidates the moment the table
    /// itself changes — committed or not.
    pub fn table_version(&self, name: &str) -> DbResult<u64> {
        let t = self.table(name)?;
        Ok(if self.dirty_tables.contains(&Self::norm(name)) {
            t.epoch
        } else {
            t.commit_epoch
        })
    }

    /// The whole of `table` as one column batch, in scan order (clustered
    /// tables in key order: for a single integer key the key column is
    /// ascending, so a row is found by binary search), at the table's
    /// current [`Database::table_version`]. A lookup at the cached version
    /// returns the same `Arc`; a miss builds the batch from a full scan and
    /// replaces the stale slot, zone map included. Writers never
    /// invalidate explicitly — every mutation moves the version.
    pub fn table_columns(&self, table: &str) -> DbResult<Arc<ColumnBatch>> {
        Ok(self.column_slot(table, || self.scan_columns(table))?.1)
    }

    /// The zone map over `table`'s `(zone_col, ra_col)` columns at the
    /// table's current [`Database::table_version`], built over (and
    /// sharing) the [`Database::table_columns`] batch: the cached map when
    /// one is held at that version over those columns, else a new one,
    /// which replaces any map over other columns.
    pub fn zone_map(&self, table: &str, zone_col: usize, ra_col: usize) -> DbResult<Arc<ZoneMap>> {
        self.zone_map_or(table, (zone_col, ra_col), || self.scan_columns(table))
    }

    /// [`Database::zone_map`] with the rows of a cache miss supplied by
    /// the caller: `full_scan` must return the table's full unfiltered
    /// scan in clustered order (the planner hands over the build side it
    /// already drained, so a miss moves that batch into the cache with no
    /// copy).
    pub(crate) fn zone_map_or(
        &self,
        table: &str,
        cols: (usize, usize),
        full_scan: impl FnOnce() -> DbResult<ColumnBatch>,
    ) -> DbResult<Arc<ZoneMap>> {
        let (version, batch, map) = self.column_slot(table, full_scan)?;
        if let Some(m) = map.filter(|m| m.key_cols() == cols) {
            return Ok(m);
        }
        let m = Arc::new(ZoneMap::from_batch(batch.clone(), cols.0, cols.1, version));
        if let Some(slot) = self.columns.lock().unpoison().get_mut(&Self::norm(table)) {
            // Attach only to the batch the map indexes (a concurrent miss
            // may have swapped the slot meanwhile).
            if Arc::ptr_eq(&slot.batch, &batch) {
                slot.zone_map = Some(m.clone());
            }
        }
        Ok(m)
    }

    /// The column-cache slot of `table` at its current version: its
    /// version, batch and zone map (if built), with the batch taken from
    /// `full_scan` on a miss. Builds run outside the lock, so a reader of
    /// another table never waits on a scan.
    fn column_slot(
        &self,
        table: &str,
        full_scan: impl FnOnce() -> DbResult<ColumnBatch>,
    ) -> DbResult<(u64, Arc<ColumnBatch>, Option<Arc<ZoneMap>>)> {
        let version = self.table_version(table)?;
        let key = Self::norm(table);
        if let Some(s) = self.columns.lock().unpoison().get(&key) {
            if s.version == version {
                return Ok((version, s.batch.clone(), s.zone_map.clone()));
            }
        }
        let batch = Arc::new(full_scan()?);
        let slot = ColumnSlot { version, batch: batch.clone(), zone_map: None };
        self.columns.lock().unpoison().insert(key, slot);
        Ok((version, batch, None))
    }

    /// The whole table as one column-major batch, in scan order.
    fn scan_columns(&self, table: &str) -> DbResult<ColumnBatch> {
        let rows = self.row_count(table)? as usize;
        let mut scan = self.batch_scan(table)?;
        let mut out: Option<ColumnBatch> = None;
        while let Some(chunk) = scan.fetch_columns(self, rows.max(1))? {
            match &mut out {
                Some(b) => b.extend_from(&chunk.batch)?,
                None => out = Some(chunk.batch),
            }
        }
        match out {
            Some(b) => Ok(b),
            None => {
                let dtypes: Vec<DataType> =
                    self.schema_of(table)?.columns().iter().map(|c| c.dtype).collect();
                Ok(ColumnBatch::with_capacity(&dtypes, 0))
            }
        }
    }

    /// Row count.
    pub fn row_count(&self, name: &str) -> DbResult<u64> {
        Ok(match &self.table(name)?.storage {
            Storage::Heap { rows, .. } => *rows,
            Storage::Clustered { tree, .. } => tree.len(),
        })
    }

    /// Point lookup by clustered key.
    pub fn get(&self, name: &str, key: &[Value]) -> DbResult<Option<Row>> {
        let table = self.table(name)?;
        let Storage::Clustered { tree, .. } = &table.storage else {
            return Err(DbError::TypeError(format!("{name} is not clustered")));
        };
        match tree.get(&encode_key(key))? {
            Some(bytes) => Ok(Some(Row::decode(&bytes, table.schema.arity())?)),
            None => Ok(None),
        }
    }

    /// Point lookup by clustered key, returning the undecoded row payload
    /// (the vectorized scan decodes it straight into column buffers).
    pub fn get_raw(&self, name: &str, key: &[Value]) -> DbResult<Option<Vec<u8>>> {
        let table = self.table(name)?;
        let Storage::Clustered { tree, .. } = &table.storage else {
            return Err(DbError::TypeError(format!("{name} is not clustered")));
        };
        tree.get(&encode_key(key))
    }

    /// The positions of a clustered table's key columns.
    pub fn clustered_key_cols(&self, name: &str) -> DbResult<Vec<usize>> {
        match &self.table(name)?.storage {
            Storage::Clustered { key_cols, .. } => Ok(key_cols.clone()),
            Storage::Heap { .. } => {
                Err(DbError::TypeError(format!("{name} is not clustered")))
            }
        }
    }

    /// Create a nonclustered index over `cols` of a clustered table,
    /// backfilling it from existing rows. Index names are unique per table.
    pub fn create_index(&mut self, table: &str, index: &str, cols: &[&str]) -> DbResult<()> {
        let pool = self.pool.clone();
        // Collect the backfill before mutably borrowing the table entry.
        let schema = self.schema_of(table)?.clone();
        let key_cols = self.clustered_key_cols(table)?;
        let col_ids: Vec<usize> = cols.iter().map(|c| schema.col(c)).collect::<DbResult<_>>()?;
        let mut rows = Vec::new();
        self.scan_with(table, |row| {
            rows.push(row.clone());
            Ok(true)
        })?;
        let t = self.table_mut(table)?;
        if t.indexes.iter().any(|i| i.name.eq_ignore_ascii_case(index)) {
            return Err(DbError::TableExists(format!("index {index}")));
        }
        let mut tree = BTree::create(pool)?;
        for row in &rows {
            let mut ikey: Vec<Value> = col_ids.iter().map(|&i| row[i].clone()).collect();
            ikey.extend(key_cols.iter().map(|&i| row[i].clone()));
            tree.insert(&encode_key(&ikey), &[])?;
        }
        t.indexes.push(SecondaryIndex { name: index.to_owned(), cols: col_ids, tree });
        self.dirty_tables.insert(Self::norm(table));
        self.catalog_dirty = true;
        Ok(())
    }

    /// Drop a nonclustered index.
    pub fn drop_index(&mut self, table: &str, index: &str) -> DbResult<()> {
        let t = self.table_mut(table)?;
        let before = t.indexes.len();
        t.indexes.retain(|i| !i.name.eq_ignore_ascii_case(index));
        if t.indexes.len() == before {
            return Err(DbError::NoSuchTable(format!("index {index}")));
        }
        self.catalog_dirty = true;
        Ok(())
    }

    /// Names of a table's nonclustered indexes.
    pub fn index_names(&self, table: &str) -> DbResult<Vec<String>> {
        Ok(self.table(table)?.indexes.iter().map(|i| i.name.clone()).collect())
    }

    /// Stream rows whose *index* key lies between the `lo` and `hi`
    /// prefixes (inclusive, prefix semantics as in
    /// [`Database::range_scan_prefix`]), fetching each row through the
    /// clustering key — the nonclustered-seek + key-lookup plan shape.
    pub fn index_range_scan(
        &self,
        table: &str,
        index: &str,
        lo: &[Value],
        hi: &[Value],
        mut visit: impl FnMut(&Row) -> DbResult<bool>,
    ) -> DbResult<()> {
        // Phase 1: collect clustering keys from the index (the scan holds
        // the pool latch; lookups happen after).
        let locators = self.index_range_keys(table, index, lo, hi)?;
        // Phase 2: key lookups.
        for loc in locators {
            if let Some(row) = self.get(table, &loc)? {
                if !visit(&row)? {
                    break;
                }
            }
        }
        Ok(())
    }

    /// Phase 1 of a nonclustered index range scan on its own: the
    /// clustering-key locators of every index entry between the `lo` and
    /// `hi` index-key prefixes (inclusive, prefix semantics as in
    /// [`Database::range_scan_prefix`]), in index-key order. The query
    /// planner's index-scan operator collects locators once, then fetches
    /// rows in batches through [`Database::get`].
    pub fn index_range_keys(
        &self,
        table: &str,
        index: &str,
        lo: &[Value],
        hi: &[Value],
    ) -> DbResult<Vec<Vec<Value>>> {
        let t = self.table(table)?;
        let idx = t
            .indexes
            .iter()
            .find(|i| i.name.eq_ignore_ascii_case(index))
            .ok_or_else(|| DbError::NoSuchTable(format!("index {index}")))?;
        let n_prefix = idx.cols.len();
        let lo_key = encode_key(lo);
        let mut hi_key = encode_key(hi);
        hi_key.push(0xFF);
        let mut locators: Vec<Vec<Value>> = Vec::new();
        idx.tree.scan_range_with(
            std::ops::Bound::Included(&lo_key),
            std::ops::Bound::Included(&hi_key),
            |k, _| {
                if let Ok(vals) = crate::key::decode_key(k) {
                    locators.push(vals[n_prefix..].to_vec());
                }
                true
            },
        )?;
        Ok(locators)
    }

    /// The column positions a nonclustered index covers, in index order.
    pub fn index_key_cols(&self, table: &str, index: &str) -> DbResult<Vec<usize>> {
        let t = self.table(table)?;
        let idx = t
            .indexes
            .iter()
            .find(|i| i.name.eq_ignore_ascii_case(index))
            .ok_or_else(|| DbError::NoSuchTable(format!("index {index}")))?;
        Ok(idx.cols.clone())
    }

    /// Parse and execute one SQL statement (see [`crate::sql`]).
    pub fn execute_sql(&mut self, sql: &str) -> DbResult<crate::sql::SqlOutput> {
        crate::sql::execute(self, sql)
    }

    /// The profile of the most recent profiled SELECT: its ANALYZE-rendered
    /// plan lines and per-operator stats. SELECTs are profiled while
    /// telemetry is enabled ([`obs::enabled`]) and always by
    /// `EXPLAIN ANALYZE`; an unprofiled SELECT clears this to `None`.
    pub fn last_profile(&self) -> Option<crate::sql::QueryProfile> {
        self.last_profile.lock().unpoison().clone()
    }

    /// Store (or clear) the last-SELECT profile. Engine-internal.
    pub(crate) fn set_last_profile(&self, prof: Option<crate::sql::QueryProfile>) {
        *self.last_profile.lock().unpoison() = prof;
    }

    /// Delete by clustered key; `Ok(true)` if a row was removed.
    pub fn delete_by_key(&mut self, name: &str, key: &[Value]) -> DbResult<bool> {
        let epoch = self.fresh_epoch();
        self.dirty_tables.insert(Self::norm(name));
        let table = self.table_mut(name)?;
        table.epoch = epoch;
        let Storage::Clustered { tree, .. } = &mut table.storage else {
            return Err(DbError::TypeError(format!("{name} is not clustered")));
        };
        let removed = tree.get(&encode_key(key))?;
        let existed = tree.delete(&encode_key(key))?;
        if existed {
            if let Some(bytes) = removed {
                let row = Row::decode(&bytes, table.schema.arity())?;
                for idx in &mut table.indexes {
                    let mut ikey: Vec<Value> =
                        idx.cols.iter().map(|&i| row[i].clone()).collect();
                    ikey.extend(key.iter().cloned());
                    idx.tree.delete(&encode_key(&ikey))?;
                }
            }
        }
        Ok(existed)
    }

    /// Stream every row through `visit`; return `false` to stop early.
    /// Clustered tables stream in key order, heaps in page order.
    ///
    /// `visit` runs while the engine holds the buffer-pool latch: it must
    /// not call back into this database (materialize first, or buffer hits
    /// and re-enter after the scan, as `maxbcg::neighbors` does).
    pub fn scan_with(
        &self,
        name: &str,
        mut visit: impl FnMut(&Row) -> DbResult<bool>,
    ) -> DbResult<()> {
        let table = self.table(name)?;
        let arity = table.schema.arity();
        match &table.storage {
            Storage::Heap { file, .. } => {
                for (_, bytes) in file.scan() {
                    let row = Row::decode(&bytes, arity)?;
                    if !visit(&row)? {
                        break;
                    }
                }
                Ok(())
            }
            Storage::Clustered { tree, .. } => {
                let mut err = None;
                tree.scan_range_with(Bound::Unbounded, Bound::Unbounded, |_, payload| {
                    match Row::decode(payload, arity).and_then(|row| visit(&row)) {
                        Ok(more) => more,
                        Err(e) => {
                            err = Some(e);
                            false
                        }
                    }
                })?;
                match err {
                    Some(e) => Err(e),
                    None => Ok(()),
                }
            }
        }
    }

    /// Materialize a full table (convenience for small tables and tests).
    pub fn scan(&self, name: &str) -> DbResult<Vec<Row>> {
        let mut out = Vec::new();
        self.scan_with(name, |row| {
            out.push(row.clone());
            Ok(true)
        })?;
        Ok(out)
    }

    /// Stream rows whose clustered key lies between the `lo` and `hi` key
    /// *prefixes*, both inclusive — `hi` admits every key extending it.
    /// This is the access path of the zone join: e.g. for a key
    /// `(zoneID, ra, objid)`, `lo = (z, ra_min)`, `hi = (z, ra_max)`.
    ///
    /// `visit` runs under the buffer-pool latch and must not re-enter the
    /// database (see [`Database::scan_with`]).
    pub fn range_scan_prefix(
        &self,
        name: &str,
        lo: &[Value],
        hi: &[Value],
        mut visit: impl FnMut(&Row) -> DbResult<bool>,
    ) -> DbResult<()> {
        let table = self.table(name)?;
        let Storage::Clustered { tree, .. } = &table.storage else {
            return Err(DbError::TypeError(format!("{name} is not clustered")));
        };
        let arity = table.schema.arity();
        let lo_key = encode_key(lo);
        let mut hi_key = encode_key(hi);
        // No encoded field begins with 0xFF, so appending it admits every
        // extension of the hi prefix and nothing beyond it.
        hi_key.push(0xFF);
        let mut err = None;
        tree.scan_range_with(
            Bound::Included(&lo_key),
            Bound::Included(&hi_key),
            |_, payload| match Row::decode(payload, arity).and_then(|row| visit(&row)) {
                Ok(more) => more,
                Err(e) => {
                    err = Some(e);
                    false
                }
            },
        )?;
        match err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Raw-payload variant of [`Database::range_scan_prefix`] for hot
    /// loops: `visit` sees the undecoded row bytes borrowed from the page.
    ///
    /// `visit` runs under the buffer-pool latch and must not re-enter the
    /// database (see [`Database::scan_with`]).
    pub fn range_scan_prefix_raw(
        &self,
        name: &str,
        lo: &[Value],
        hi: &[Value],
        mut visit: impl FnMut(&[u8]) -> bool,
    ) -> DbResult<()> {
        let table = self.table(name)?;
        let Storage::Clustered { tree, .. } = &table.storage else {
            return Err(DbError::TypeError(format!("{name} is not clustered")));
        };
        let lo_key = encode_key(lo);
        let mut hi_key = encode_key(hi);
        hi_key.push(0xFF);
        tree.scan_range_with(Bound::Included(&lo_key), Bound::Included(&hi_key), |_, payload| {
            visit(payload)
        })
    }

    /// Bulk extraction: stream every raw row payload of a clustered table
    /// in clustered-key order; return `false` to stop early — one
    /// sequential pass, no per-row decode by the engine.
    ///
    /// `visit` runs under the buffer-pool latch and must not re-enter the
    /// database (see [`Database::scan_with`]).
    pub fn scan_raw(&self, name: &str, mut visit: impl FnMut(&[u8]) -> bool) -> DbResult<()> {
        let table = self.table(name)?;
        let Storage::Clustered { tree, .. } = &table.storage else {
            return Err(DbError::TypeError(format!("{name} is not clustered")));
        };
        tree.scan_range_with(Bound::Unbounded, Bound::Unbounded, |_, payload| visit(payload))
    }

    /// Open a row-at-a-time cursor (the paper's `DECLARE c CURSOR`).
    pub fn cursor(&self, name: &str) -> DbResult<Cursor> {
        let table = self.table(name)?;
        let kind = match &table.storage {
            Storage::Heap { .. } => CursorPos::Heap(None),
            Storage::Clustered { .. } => CursorPos::Clustered(None),
        };
        Ok(Cursor { table: Self::norm(name), pos: kind, done: false })
    }

    /// Planner-facing statistics for a table (currently the row count).
    pub fn table_stats(&self, name: &str) -> DbResult<TableStats> {
        Ok(TableStats { rows: self.row_count(name)? })
    }

    /// Open a streaming batched scan over the whole table (clustered
    /// tables in key order, heaps in page order). The scan holds no latch
    /// between batches — like [`Cursor`], each fetch re-descends from the
    /// last key — so the pull-based executor can interleave fetches with
    /// arbitrary database reads.
    pub fn batch_scan(&self, name: &str) -> DbResult<BatchScan> {
        let table = self.table(name)?;
        let mode = match &table.storage {
            Storage::Heap { .. } => BatchMode::Heap { last: None },
            Storage::Clustered { .. } => BatchMode::Clustered {
                last_key: None,
                lo_key: Vec::new(),
                hi_key: vec![0xFF],
            },
        };
        Ok(BatchScan { table: Self::norm(name), mode, done: false })
    }

    /// Open a streaming batched scan over the clustered-key range between
    /// the `lo` and `hi` key *prefixes*, both inclusive (`hi` admits every
    /// key extending it, as in [`Database::range_scan_prefix`]).
    pub fn batch_range_scan(&self, name: &str, lo: &[Value], hi: &[Value]) -> DbResult<BatchScan> {
        let table = self.table(name)?;
        let Storage::Clustered { .. } = &table.storage else {
            return Err(DbError::TypeError(format!("{name} is not clustered")));
        };
        let mut hi_key = encode_key(hi);
        hi_key.push(0xFF);
        Ok(BatchScan {
            table: Self::norm(name),
            mode: BatchMode::Clustered { last_key: None, lo_key: encode_key(lo), hi_key },
            done: false,
        })
    }

    /// Run a named task, capturing its [`TaskStats`]: wall time of the body
    /// plus the I/O-counter delta it produced. The task ends with a
    /// checkpoint (every dirty page written back), so bulk-writing tasks
    /// like the paper's `spZone` show their physical I/O even when the
    /// buffer pool could have held everything — matching how SQL Server's
    /// statistics attribute writes to the statement that dirtied the pages.
    pub fn run_task<T>(
        &mut self,
        name: &str,
        body: impl FnOnce(&mut Database) -> DbResult<T>,
    ) -> DbResult<(T, TaskStats)> {
        let _span = obs::span(name);
        let before = self.pool.stats();
        let start = Instant::now();
        let out = body(self)?;
        let cpu = start.elapsed();
        self.pool.flush_all()?;
        // Each task is one transaction: group-commit whatever it dirtied
        // (no-op for read-only tasks, no log for in-memory databases).
        self.commit()?;
        let io = self.pool.stats().since(&before);
        // The modeled I/O wait is not part of the measured wall time (the
        // engine never sleeps), so the measured time *is* the cpu time.
        Ok((out, TaskStats::from_delta(name, cpu, io)))
    }
}

// Compile-time proof that `&Database` may cross threads: every `&self`
// read path runs from many threads at once (the sharded buffer pool
// latches per page shard underneath), and maxbcg's scoped worker pools
// rely on it. Writes need `&mut Database`, so the borrow checker keeps
// writers away from outstanding readers.
const _: () = {
    const fn assert_sync<T: Sync>() {}
    assert_sync::<Database>();
};

/// An owned, pinned view of one committed transaction (see
/// [`Database::snapshot`]). Unlike a `&Database`, whose borrow excludes
/// writers, a `DbSnapshot` holds no borrow: a writer may insert and commit
/// concurrently, and the snapshot keeps serving the rows of the epoch it
/// pinned. Page reads resolve through the MVCC version table; dropping the
/// snapshot releases the pin so the watermark GC can reclaim superseded
/// versions.
pub struct DbSnapshot {
    pool: Arc<BufferPool>,
    mvcc: Arc<MvccState>,
    epoch: u64,
    catalog: Arc<CommittedCatalog>,
}

impl DbSnapshot {
    /// The commit epoch this snapshot is pinned to.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// All table names in the pinned catalog (sorted).
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.catalog.tables.keys().cloned().collect();
        names.sort();
        names
    }

    /// `true` when `name` existed at the pinned commit.
    pub fn has_table(&self, name: &str) -> bool {
        self.catalog.tables.contains_key(&Database::norm(name))
    }

    fn table(&self, name: &str) -> DbResult<&SnapTable> {
        self.catalog
            .tables
            .get(&Database::norm(name))
            .ok_or_else(|| DbError::NoSuchTable(name.to_owned()))
    }

    /// Row count of `name` at the pinned commit.
    pub fn row_count(&self, name: &str) -> DbResult<u64> {
        Ok(match &self.table(name)?.storage {
            SnapStorage::Heap { rows, .. } => *rows,
            SnapStorage::Clustered { len, .. } => *len,
        })
    }

    fn clustered(&self, name: &str) -> DbResult<(BTree, usize)> {
        let t = self.table(name)?;
        let SnapStorage::Clustered { root, len, .. } = &t.storage else {
            return Err(DbError::TypeError(format!("{name} is not clustered")));
        };
        Ok((
            BTree::attach_at(self.pool.clone(), *root, *len, self.epoch),
            t.schema.arity(),
        ))
    }

    /// Column positions of `name`'s clustered key, as recorded at the
    /// pinned commit.
    pub fn clustered_key_cols(&self, name: &str) -> DbResult<Vec<usize>> {
        match &self.table(name)?.storage {
            SnapStorage::Clustered { key_cols, .. } => Ok(key_cols.clone()),
            SnapStorage::Heap { .. } => {
                Err(DbError::TypeError(format!("{name} is not clustered")))
            }
        }
    }

    /// Point lookup by clustered key, as of the pinned commit.
    pub fn get(&self, name: &str, key: &[Value]) -> DbResult<Option<Row>> {
        let (tree, arity) = self.clustered(name)?;
        match tree.get(&encode_key(key))? {
            Some(bytes) => Ok(Some(Row::decode(&bytes, arity)?)),
            None => Ok(None),
        }
    }

    /// Stream decoded rows of `name` as of the pinned commit; `visit`
    /// returns `false` to stop early.
    pub fn scan_with(
        &self,
        name: &str,
        mut visit: impl FnMut(&Row) -> DbResult<bool>,
    ) -> DbResult<()> {
        let t = self.table(name)?;
        let arity = t.schema.arity();
        match &t.storage {
            SnapStorage::Heap { pages, .. } => {
                for &pid in pages {
                    let cells: Vec<Vec<u8>> = self.pool.with_page_at(pid, self.epoch, |p| {
                        page::iter(p).map(|(_, cell)| cell.to_vec()).collect()
                    })?;
                    for bytes in cells {
                        if !visit(&Row::decode(&bytes, arity)?)? {
                            return Ok(());
                        }
                    }
                }
                Ok(())
            }
            SnapStorage::Clustered { root, len, .. } => {
                let tree = BTree::attach_at(self.pool.clone(), *root, *len, self.epoch);
                let mut err = None;
                tree.scan_range_with(Bound::Unbounded, Bound::Unbounded, |_, payload| {
                    match Row::decode(payload, arity).and_then(|row| visit(&row)) {
                        Ok(more) => more,
                        Err(e) => {
                            err = Some(e);
                            false
                        }
                    }
                })?;
                match err {
                    Some(e) => Err(e),
                    None => Ok(()),
                }
            }
        }
    }

    /// Stream raw clustered payloads in key order as of the pinned commit
    /// (the snapshot analogue of [`Database::scan_raw`]).
    pub fn scan_raw(&self, name: &str, mut visit: impl FnMut(&[u8]) -> bool) -> DbResult<()> {
        let (tree, _) = self.clustered(name)?;
        tree.scan_range_with(Bound::Unbounded, Bound::Unbounded, |_, payload| visit(payload))
    }

    /// Prefix range scan over the clustered key as of the pinned commit
    /// (the snapshot analogue of [`Database::range_scan_prefix`]).
    pub fn range_scan_prefix(
        &self,
        name: &str,
        lo: &[Value],
        hi: &[Value],
        mut visit: impl FnMut(&Row) -> DbResult<bool>,
    ) -> DbResult<()> {
        let (tree, arity) = self.clustered(name)?;
        let lo_key = encode_key(lo);
        let mut hi_key = encode_key(hi);
        // No encoded field begins with 0xFF, so appending it admits every
        // extension of the hi prefix and nothing beyond it.
        hi_key.push(0xFF);
        let mut err = None;
        tree.scan_range_with(
            Bound::Included(&lo_key),
            Bound::Included(&hi_key),
            |_, payload| match Row::decode(payload, arity).and_then(|row| visit(&row)) {
                Ok(more) => more,
                Err(e) => {
                    err = Some(e);
                    false
                }
            },
        )?;
        match err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl Drop for DbSnapshot {
    fn drop(&mut self) {
        self.mvcc.unpin_snapshot(self.epoch);
    }
}

// Snapshots are built to cross threads: a pinned reader scans from a worker
// while the owning thread keeps committing.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<DbSnapshot>();
};

enum CursorPos {
    Heap(Option<RowId>),
    Clustered(Option<Vec<u8>>),
}

/// A row-at-a-time cursor. Each [`Cursor::fetch_next`] re-descends the
/// index (clustered) or re-reads the page (heap) — deliberately faithful to
/// the cost profile of SQL cursors, which §2.6 of the paper singles out as
/// "very slow". The cursor-vs-set-based ablation bench quantifies this.
pub struct Cursor {
    table: String,
    pos: CursorPos,
    done: bool,
}

impl Cursor {
    /// Fetch the next row, or `None` at the end (`@@fetch_status < 0`).
    pub fn fetch_next(&mut self, db: &Database) -> DbResult<Option<Row>> {
        if self.done {
            return Ok(None);
        }
        let table = db.table(&self.table)?;
        let arity = table.schema.arity();
        match (&mut self.pos, &table.storage) {
            (CursorPos::Heap(last), Storage::Heap { file, .. }) => {
                match file.next_record(*last)? {
                    Some((id, bytes)) => {
                        *last = Some(id);
                        Ok(Some(Row::decode(&bytes, arity)?))
                    }
                    None => {
                        self.done = true;
                        Ok(None)
                    }
                }
            }
            (CursorPos::Clustered(last), Storage::Clustered { tree, .. }) => {
                let lo = match last {
                    None => Bound::Unbounded,
                    Some(k) => Bound::Excluded(k.as_slice()),
                };
                let mut hit: Option<(Vec<u8>, Vec<u8>)> = None;
                tree.scan_range_with(lo, Bound::Unbounded, |k, v| {
                    hit = Some((k.to_vec(), v.to_vec()));
                    false
                })?;
                match hit {
                    Some((k, bytes)) => {
                        *last = Some(k);
                        Ok(Some(Row::decode(&bytes, arity)?))
                    }
                    None => {
                        self.done = true;
                        Ok(None)
                    }
                }
            }
            _ => Err(DbError::Corrupt("cursor/storage kind mismatch".into())),
        }
    }
}

enum BatchMode {
    Heap { last: Option<RowId> },
    Clustered { last_key: Option<Vec<u8>>, lo_key: Vec<u8>, hi_key: Vec<u8> },
}

/// One column-major batch fetched by [`BatchScan::fetch_columns`]: every
/// stored row examined lands in the batch (predicates run columnwise
/// *after* the fetch, producing selection vectors), so `batch.len()` is
/// also the pruning denominator.
pub struct ColChunk {
    /// The examined rows, decoded straight into column buffers.
    pub batch: ColumnBatch,
}

/// A streaming batched table scan: the planner's pull-based leaf operator
/// (see [`Database::batch_scan`] / [`Database::batch_range_scan`]).
///
/// Between fetches the scan holds nothing but the last clustered key (or
/// heap row id) examined; each fetch re-descends the B-tree from there,
/// exactly like [`Cursor`], but amortizes the descent over a whole batch.
pub struct BatchScan {
    table: String,
    mode: BatchMode,
    done: bool,
}

impl BatchScan {
    /// Fetch up to `max` stored rows as a column-major batch, decoding
    /// page payloads straight into typed buffers with no per-row `Row`
    /// materialization — the vectorized pipeline's leaf. Unlike
    /// [`BatchScan::fetch`] no predicate runs here: filtering happens
    /// columnwise on the returned batch, so every examined row is in it.
    /// Returns `None` once the scan is exhausted.
    pub fn fetch_columns(&mut self, db: &Database, max: usize) -> DbResult<Option<ColChunk>> {
        if self.done || max == 0 {
            self.done = true;
            return Ok(None);
        }
        let table = db.table(&self.table)?;
        let dtypes: Vec<DataType> =
            table.schema.columns().iter().map(|c| c.dtype).collect();
        let mut batch = ColumnBatch::with_capacity(&dtypes, max);
        match (&mut self.mode, &table.storage) {
            (BatchMode::Heap { last }, Storage::Heap { file, .. }) => {
                while batch.len() < max {
                    match file.next_record(*last)? {
                        Some((id, bytes)) => {
                            *last = Some(id);
                            batch.push_wire(&bytes)?;
                        }
                        None => {
                            self.done = true;
                            break;
                        }
                    }
                }
            }
            (BatchMode::Clustered { last_key, lo_key, hi_key }, Storage::Clustered { tree, .. }) => {
                let lo = match last_key {
                    Some(k) => Bound::Excluded(k.as_slice()),
                    None => Bound::Included(lo_key.as_slice()),
                };
                let mut newest: Option<Vec<u8>> = None;
                let mut err = None;
                let mut filled = false;
                // The decode runs under the buffer-pool latch but touches
                // only the batch buffers — it cannot re-enter the database.
                tree.scan_range_with(lo, Bound::Included(hi_key.as_slice()), |k, payload| {
                    newest = Some(k.to_vec());
                    match batch.push_wire(payload) {
                        Ok(()) => {
                            filled = batch.len() >= max;
                            !filled
                        }
                        Err(e) => {
                            err = Some(e);
                            false
                        }
                    }
                })?;
                if let Some(e) = err {
                    return Err(e);
                }
                if let Some(k) = newest {
                    *last_key = Some(k);
                }
                if !filled {
                    self.done = true;
                }
            }
            _ => return Err(DbError::Corrupt("scan/storage kind mismatch".into())),
        }
        if batch.is_empty() {
            self.done = true;
            return Ok(None);
        }
        Ok(Some(ColChunk { batch }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::DataType;

    fn galaxy_schema() -> Schema {
        Schema::new(vec![
            Column::new("objid", DataType::BigInt),
            Column::new("ra", DataType::Float),
            Column::new("dec", DataType::Float),
            Column::new("i", DataType::Real),
        ])
    }

    fn db() -> Database {
        Database::new(DbConfig::in_memory())
    }

    fn g(objid: i64, ra: f64, dec: f64, i: f32) -> Row {
        Row(vec![Value::BigInt(objid), Value::Float(ra), Value::Float(dec), Value::Real(i)])
    }

    #[test]
    fn heap_table_crud() {
        let mut d = db();
        d.create_table("galaxy", galaxy_schema()).unwrap();
        d.insert("galaxy", g(1, 180.0, 2.0, 17.5)).unwrap();
        d.insert("galaxy", g(2, 181.0, 2.1, 18.5)).unwrap();
        assert_eq!(d.row_count("galaxy").unwrap(), 2);
        let rows = d.scan("GALAXY").unwrap();
        assert_eq!(rows.len(), 2);
        d.truncate("galaxy").unwrap();
        assert_eq!(d.row_count("galaxy").unwrap(), 0);
    }

    #[test]
    fn clustered_table_ordered_and_unique() {
        let mut d = db();
        d.create_clustered_table("galaxy", galaxy_schema(), &["objid"]).unwrap();
        for id in [5i64, 1, 3, 2, 4] {
            d.insert("galaxy", g(id, 180.0 + id as f64, 0.0, 17.0)).unwrap();
        }
        let rows = d.scan("galaxy").unwrap();
        let ids: Vec<i64> = rows.iter().map(|r| r.i64(0).unwrap()).collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5]);
        assert!(matches!(
            d.insert("galaxy", g(3, 0.0, 0.0, 0.0)),
            Err(DbError::DuplicateKey(_))
        ));
        let row = d.get("galaxy", &[Value::BigInt(4)]).unwrap().unwrap();
        assert_eq!(row.f64(1).unwrap(), 184.0);
        assert!(d.get("galaxy", &[Value::BigInt(99)]).unwrap().is_none());
    }

    #[test]
    fn composite_key_range_scan() {
        let mut d = db();
        let schema = Schema::new(vec![
            Column::new("zoneid", DataType::Int),
            Column::new("ra", DataType::Float),
            Column::new("objid", DataType::BigInt),
        ]);
        d.create_clustered_table("zone", schema, &["zoneid", "ra", "objid"]).unwrap();
        let mut id = 0i64;
        for z in 0..5i32 {
            for r in 0..100 {
                id += 1;
                d.insert(
                    "zone",
                    Row(vec![Value::Int(z), Value::Float(f64::from(r) * 0.1), Value::BigInt(id)]),
                )
                .unwrap();
            }
        }
        // Zone 2, ra in [3.0, 5.0]: entries 30..=50.
        let mut got = Vec::new();
        d.range_scan_prefix(
            "zone",
            &[Value::Int(2), Value::Float(3.0)],
            &[Value::Int(2), Value::Float(5.0)],
            |row| {
                got.push((row.i64(0).unwrap(), row.f64(1).unwrap()));
                Ok(true)
            },
        )
        .unwrap();
        assert_eq!(got.len(), 21);
        assert!(got.iter().all(|&(z, _)| z == 2));
        assert!(got.iter().all(|&(_, ra)| (3.0..=5.0).contains(&ra)));
        // Prefix scan over just the zone.
        let mut n = 0;
        d.range_scan_prefix("zone", &[Value::Int(3)], &[Value::Int(3)], |_| {
            n += 1;
            Ok(true)
        })
        .unwrap();
        assert_eq!(n, 100);
    }

    #[test]
    fn scan_with_early_stop() {
        let mut d = db();
        d.create_table("t", galaxy_schema()).unwrap();
        for i in 0..100 {
            d.insert("t", g(i, 0.0, 0.0, 0.0)).unwrap();
        }
        let mut n = 0;
        d.scan_with("t", |_| {
            n += 1;
            Ok(n < 10)
        })
        .unwrap();
        assert_eq!(n, 10);
    }

    #[test]
    fn cursor_walks_clustered_table_in_key_order() {
        let mut d = db();
        d.create_clustered_table("galaxy", galaxy_schema(), &["objid"]).unwrap();
        for id in [30i64, 10, 20] {
            d.insert("galaxy", g(id, 0.0, 0.0, 0.0)).unwrap();
        }
        let mut c = d.cursor("galaxy").unwrap();
        let mut seen = Vec::new();
        while let Some(row) = c.fetch_next(&d).unwrap() {
            seen.push(row.i64(0).unwrap());
        }
        assert_eq!(seen, vec![10, 20, 30]);
        assert!(c.fetch_next(&d).unwrap().is_none(), "stays done");
    }

    #[test]
    fn cursor_walks_heap() {
        let mut d = db();
        d.create_table("t", galaxy_schema()).unwrap();
        for i in 0..250 {
            d.insert("t", g(i, 0.0, 0.0, 0.0)).unwrap();
        }
        let mut c = d.cursor("t").unwrap();
        let mut n = 0;
        while c.fetch_next(&d).unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 250);
    }

    #[test]
    fn schema_violations_rejected() {
        let mut d = db();
        d.create_table("t", galaxy_schema()).unwrap();
        let bad = Row(vec![Value::Text("no".into()), Value::Float(0.0), Value::Float(0.0), Value::Real(0.0)]);
        assert!(matches!(d.insert("t", bad), Err(DbError::SchemaMismatch(_))));
    }

    #[test]
    fn missing_table_errors() {
        let d = db();
        assert!(matches!(d.scan("ghost"), Err(DbError::NoSuchTable(_))));
    }

    #[test]
    fn create_duplicate_table_errors() {
        let mut d = db();
        d.create_table("t", galaxy_schema()).unwrap();
        assert!(matches!(
            d.create_table("T", galaxy_schema()),
            Err(DbError::TableExists(_))
        ));
    }

    #[test]
    fn run_task_reports_io_delta() {
        let mut d = db();
        d.create_clustered_table("t", galaxy_schema(), &["objid"]).unwrap();
        let ((), stats) = d
            .run_task("load", |db| {
                for i in 0..1000 {
                    db.insert("t", g(i, f64::from(i as i32), 0.0, 0.0))?;
                }
                Ok(())
            })
            .unwrap();
        assert!(stats.logical_reads > 1000, "inserts must touch pages");
        assert_eq!(stats.name, "load");
        // A second task sees only its own delta.
        let (rows, stats2) = d.run_task("scan", |db| db.scan("t")).unwrap();
        assert_eq!(rows.len(), 1000);
        assert!(stats2.logical_reads < stats.logical_reads);
    }

    #[test]
    fn secondary_index_lifecycle() {
        let mut d = db();
        d.create_clustered_table("galaxy", galaxy_schema(), &["objid"]).unwrap();
        for id in 0..200i64 {
            d.insert("galaxy", g(id, 180.0 + f64::from(id as i32) * 0.01, 0.0, (id % 7) as f32))
                .unwrap();
        }
        d.create_index("galaxy", "ix_i", &["i"]).unwrap();
        assert_eq!(d.index_names("galaxy").unwrap(), vec!["ix_i"]);
        // Seek i = 3 through the index: ids 3, 10, 17, ...
        let mut ids = Vec::new();
        d.index_range_scan(
            "galaxy",
            "ix_i",
            &[Value::Real(3.0)],
            &[Value::Real(3.0)],
            |row| {
                ids.push(row.i64(0).unwrap());
                Ok(true)
            },
        )
        .unwrap();
        assert_eq!(ids.len(), 200 / 7 + 1);
        assert!(ids.iter().all(|id| id % 7 == 3));
        // Inserts and deletes maintain the index.
        d.insert("galaxy", g(1000, 185.0, 0.0, 3.0)).unwrap();
        d.delete_by_key("galaxy", &[Value::BigInt(3)]).unwrap();
        let mut ids2 = Vec::new();
        d.index_range_scan(
            "galaxy",
            "ix_i",
            &[Value::Real(3.0)],
            &[Value::Real(3.0)],
            |row| {
                ids2.push(row.i64(0).unwrap());
                Ok(true)
            },
        )
        .unwrap();
        assert!(ids2.contains(&1000));
        assert!(!ids2.contains(&3));
        // Range over the index prefix.
        let mut n = 0;
        d.index_range_scan(
            "galaxy",
            "ix_i",
            &[Value::Real(0.0)],
            &[Value::Real(1.0)],
            |_| {
                n += 1;
                Ok(true)
            },
        )
        .unwrap();
        assert!(n > 40, "i in {{0,1}} covers ~2/7 of rows, got {n}");
        // Truncate empties the index.
        d.truncate("galaxy").unwrap();
        let mut any = false;
        d.index_range_scan(
            "galaxy",
            "ix_i",
            &[Value::Real(0.0)],
            &[Value::Real(9.0)],
            |_| {
                any = true;
                Ok(true)
            },
        )
        .unwrap();
        assert!(!any);
        d.drop_index("galaxy", "ix_i").unwrap();
        assert!(d.drop_index("galaxy", "ix_i").is_err());
    }

    #[test]
    fn duplicate_index_name_rejected() {
        let mut d = db();
        d.create_clustered_table("t", galaxy_schema(), &["objid"]).unwrap();
        d.create_index("t", "ix", &["ra"]).unwrap();
        assert!(matches!(d.create_index("t", "IX", &["dec"]), Err(DbError::TableExists(_))));
    }

    #[test]
    fn heap_tables_reject_indexes_on_insert() {
        let mut d = db();
        d.create_table("h", galaxy_schema()).unwrap();
        assert!(d.create_index("h", "ix", &["ra"]).is_err());
    }

    #[test]
    fn reader_supports_concurrent_scans_and_gets() {
        let mut d = db();
        d.create_clustered_table("galaxy", galaxy_schema(), &["objid"]).unwrap();
        for id in 0..500i64 {
            d.insert("galaxy", g(id, 180.0 + id as f64 * 0.01, 0.0, (id % 9) as f32))
                .unwrap();
        }
        let reader = &d;
        std::thread::scope(|scope| {
            for t in 0..4i64 {
                scope.spawn(move || {
                    // Point lookups.
                    for id in (t * 125)..((t + 1) * 125) {
                        let row = reader.get("galaxy", &[Value::BigInt(id)]).unwrap().unwrap();
                        assert_eq!(row.i64(0).unwrap(), id);
                    }
                    // Range scan over a prefix window.
                    let mut n = 0;
                    reader
                        .range_scan_prefix(
                            "galaxy",
                            &[Value::BigInt(100)],
                            &[Value::BigInt(199)],
                            |_| {
                                n += 1;
                                Ok(true)
                            },
                        )
                        .unwrap();
                    assert_eq!(n, 100);
                    // Full scan.
                    let mut total = 0;
                    reader
                        .scan_with("galaxy", |_| {
                            total += 1;
                            Ok(true)
                        })
                        .unwrap();
                    assert_eq!(total, 500);
                });
            }
        });
    }

    #[test]
    fn epochs_move_on_every_mutation_and_never_repeat() {
        let mut d = db();
        d.create_clustered_table("t", galaxy_schema(), &["objid"]).unwrap();
        let e0 = d.table_epoch("t").unwrap();
        d.insert("t", g(1, 180.0, 0.0, 17.0)).unwrap();
        let e1 = d.table_epoch("t").unwrap();
        assert!(e1 > e0, "insert must bump the epoch");
        d.delete_by_key("t", &[Value::BigInt(1)]).unwrap();
        let e2 = d.table_epoch("t").unwrap();
        assert!(e2 > e1, "delete must bump the epoch");
        d.truncate("t").unwrap();
        let e3 = d.table_epoch("t").unwrap();
        assert!(e3 > e2, "truncate must bump the epoch");
        // Reads never move the epoch.
        d.scan("t").unwrap();
        d.get("t", &[Value::BigInt(1)]).unwrap();
        assert_eq!(d.table_epoch("t").unwrap(), e3);
        // Drop + recreate cannot alias an old epoch.
        d.drop_table("t").unwrap();
        assert!(d.table_epoch("t").is_err());
        d.create_clustered_table("t", galaxy_schema(), &["objid"]).unwrap();
        assert!(d.table_epoch("t").unwrap() > e3, "recreated table must get a fresh epoch");
        // Epochs are per table: mutating one leaves the other untouched.
        d.create_table("other", galaxy_schema()).unwrap();
        let et = d.table_epoch("t").unwrap();
        d.insert("other", g(9, 0.0, 0.0, 0.0)).unwrap();
        assert_eq!(d.table_epoch("t").unwrap(), et);
    }

    #[test]
    fn scan_raw_streams_payloads_in_key_order() {
        let mut d = db();
        d.create_clustered_table("t", galaxy_schema(), &["objid"]).unwrap();
        for id in [30i64, 10, 20] {
            d.insert("t", g(id, f64::from(id as i32), 0.0, 0.0)).unwrap();
        }
        let mut ids = Vec::new();
        d.scan_raw("t", |payload| {
            ids.push(Row::decode(payload, 4).unwrap().i64(0).unwrap());
            true
        })
        .unwrap();
        assert_eq!(ids, vec![10, 20, 30]);
        // Early stop.
        let mut n = 0;
        d.scan_raw("t", |_| {
            n += 1;
            false
        })
        .unwrap();
        assert_eq!(n, 1);
        // Heaps have no clustered payload stream.
        d.create_table("h", galaxy_schema()).unwrap();
        assert!(d.scan_raw("h", |_| true).is_err());
    }

    #[test]
    fn table_columns_are_cached_per_version_in_key_order() {
        let mut d = db();
        d.create_clustered_table("galaxy", galaxy_schema(), &["objid"]).unwrap();
        // Scrambled inserts, negative keys included: the key encoding
        // orders them numerically, so the batch's key column ascends.
        for k in 0..500i64 {
            let objid = (k * 7919) % 500 - 250;
            d.insert("galaxy", g(objid, 180.0 + k as f64 * 1e-3, 0.0, 18.0)).unwrap();
        }
        let first = d.table_columns("galaxy").unwrap();
        let again = d.table_columns("GALAXY").unwrap();
        assert!(Arc::ptr_eq(&first, &again), "same version: the cached batch");
        let keys = first.col(0).dense_bigints().unwrap();
        assert_eq!(keys.len(), 500);
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "key column ascends");
        assert_eq!((keys[0], keys[499]), (-250, 249));
        assert_eq!(first.to_rows(), d.scan("galaxy").unwrap(), "the batch is the scan");
        assert_eq!(keys.binary_search(&-17).map(|r| first.value(0, r)), Ok(Value::BigInt(-17)));

        // A zone map over the same table shares the cached batch.
        let map = d.zone_map("galaxy", 0, 1).unwrap();
        assert!(std::ptr::eq(map.batch(), &*first), "one copy of the rows");
        assert!(Arc::ptr_eq(&map, &d.zone_map("galaxy", 0, 1).unwrap()));
        assert!(Arc::ptr_eq(&first, &d.table_columns("galaxy").unwrap()));

        // Any mutation moves the version: the next lookup rebuilds both.
        d.insert("galaxy", g(-1000, 179.0, 0.0, 18.0)).unwrap();
        let fresh = d.table_columns("galaxy").unwrap();
        assert!(!Arc::ptr_eq(&first, &fresh), "rebuilt after an insert");
        assert_eq!(fresh.len(), 501);
        assert_eq!(fresh.value(0, 0), Value::BigInt(-1000));
        let remapped = d.zone_map("galaxy", 0, 1).unwrap();
        assert!(std::ptr::eq(remapped.batch(), &*fresh));
        assert_eq!(remapped.epoch(), d.table_version("galaxy").unwrap());
    }

    #[test]
    fn table_columns_of_an_empty_or_missing_table() {
        let mut d = db();
        assert!(d.table_columns("nope").is_err());
        d.create_clustered_table("galaxy", galaxy_schema(), &["objid"]).unwrap();
        let empty = d.table_columns("galaxy").unwrap();
        assert!(empty.is_empty());
        assert_eq!(empty.num_cols(), 4);
    }

    #[test]
    fn drop_table_removes() {
        let mut d = db();
        d.create_table("t", galaxy_schema()).unwrap();
        d.drop_table("t").unwrap();
        assert!(!d.has_table("t"));
        assert!(d.drop_table("t").is_err());
    }
}
