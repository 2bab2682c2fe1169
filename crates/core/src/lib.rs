//! # maxbcg — the paper's contribution
//!
//! MaxBCG on the database: the stored procedures and table-valued functions
//! of the paper's appendix (`spImportGalaxy`, `spZone`,
//! `fGetNearbyObjEqZd`, `fBCGCandidate`, `fIsCluster`, `fBCGr200`,
//! `fGetClusterGalaxiesMetric`, `spMakeCandidates`, `spMakeClusters`,
//! `spMakeGalaxiesMetric`) implemented against the `stardb` engine, plus
//! the zone-partitioned share-nothing parallel runner of Figure 6 and the
//! per-task statistics of Table 1.

#![warn(missing_docs)]

pub mod candidate;
pub mod cluster;
pub mod import;
pub mod members;
pub mod neighbors;
pub mod parallel;
pub mod partition;
pub mod pipeline;
pub mod region_query;
pub mod schema;
pub mod script;
pub mod stats;
pub mod xmatch;
pub mod zone_task;

pub use neighbors::{nearby_obj_eq_zd, visit_nearby, visit_nearby_with, Neighbor, ZONE_MAP_COLS};
pub use partition::{
    run_partitioned, run_partitioned_recovering, PartitionedRun, RecoveryPolicy, RecoveryReport,
};
pub use pipeline::{IterationMode, MaxBcgConfig, MaxBcgDb};
pub use stats::PipelineRun;
pub use xmatch::{
    brute_force_xmatch, create_survey_table, expected_match_rate, load_survey, run_xmatch,
    XmatchObj, XmatchSpec,
};
