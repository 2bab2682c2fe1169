//! The "gridified" MaxBCG of §4: deploy the code to the Data-Grid nodes
//! hosting CAS partitions, run in parallel, collect results at the origin.
//!
//! "When the user submits the MaxBCG application, upon authentication and
//! authorization, the SQL code (about 500 lines) is deployed on the
//! available Data-Grid nodes hosting the CAS database system. Each node
//! will analyze a piece of the sky in parallel and store the results
//! locally or, depending on the policy, transfer the final results back to
//! the origin." Autonomy is modeled by nodes belonging to different
//! organizations with their own deployment policies.

use crate::users::UserId;
use gridsim::FaultPlan;
use maxbcg::partition::owns;
use maxbcg::{IterationMode, MaxBcgConfig, MaxBcgDb};
use skycore::types::Cluster;
use skycore::SkyRegion;
use skysim::Sky;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

struct GridObs {
    submissions: obs::Counter,
    nodes_run: obs::Counter,
    panics_contained: obs::Counter,
    refusals: obs::Counter,
    failovers: obs::Counter,
    clusters_collected: obs::Counter,
}

/// Grid-deployment accounting under `casjobs.grid.*`: `panics_contained`
/// counts node attempts that died and were absorbed by the coordinator
/// (crash containment), `refusals` counts authorization denials (policy,
/// never failed over), `failovers` counts lost partitions re-run to
/// completion on a surviving host.
fn gobs() -> &'static GridObs {
    static G: OnceLock<GridObs> = OnceLock::new();
    G.get_or_init(|| GridObs {
        submissions: obs::counter("casjobs.grid.submissions"),
        nodes_run: obs::counter("casjobs.grid.nodes_run"),
        panics_contained: obs::counter("casjobs.grid.panics_contained"),
        refusals: obs::counter("casjobs.grid.refusals"),
        failovers: obs::counter("casjobs.grid.failovers"),
        clusters_collected: obs::counter("casjobs.grid.clusters_collected"),
    })
}

/// What a node does with its results (the "policy" of §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResultPolicy {
    /// Ship the cluster catalog back to the submitting site.
    TransferBack,
    /// Keep results local; only row counts travel.
    StoreLocally,
}

/// One Data-Grid node hosting a CAS partition.
pub struct CasNode {
    /// Node name (e.g. `fnal-cas`).
    pub name: String,
    /// Hosting organization (e.g. `Fermilab`).
    pub organization: String,
    /// The stripe of sky this node's CAS database holds.
    pub native: SkyRegion,
    /// The stripe actually imported (native plus duplicated buffers).
    pub imported: SkyRegion,
    /// Result-return policy.
    pub policy: ResultPolicy,
    /// Whether this node accepts code deployment from the submitter's
    /// organization (authorization).
    pub accepts_deployment: bool,
}

/// Outcome of one node's run.
#[derive(Debug, Clone)]
pub struct NodeOutcome {
    /// Node name.
    pub node: String,
    /// Whether the code was deployed and ran.
    pub deployed: bool,
    /// Clusters found natively (present only under
    /// [`ResultPolicy::TransferBack`]).
    pub clusters: Vec<Cluster>,
    /// Clusters counted locally (always present).
    pub cluster_count: u64,
    /// Node wall time.
    pub elapsed: Duration,
    /// Failure message, if the node errored.
    pub error: Option<String>,
    /// Host that re-ran this node's partition after it was lost
    /// (`"origin"` when no surviving node was available to adopt it).
    pub recovered_by: Option<String>,
}

/// A federation of CAS-hosting nodes.
pub struct DataGrid {
    sky: Arc<Sky>,
    nodes: Vec<CasNode>,
    config: MaxBcgConfig,
    faults: Option<FaultPlan>,
}

/// A full grid run.
#[derive(Debug, Clone)]
pub struct GridRunReport {
    /// Submitting user.
    pub user: UserId,
    /// Per-node outcomes.
    pub outcomes: Vec<NodeOutcome>,
    /// Clusters transferred back to the origin, merged and sorted.
    pub collected: Vec<Cluster>,
    /// Wall time of the parallel phase.
    pub elapsed: Duration,
    /// Lost partitions that were successfully re-run on a surviving host.
    pub failovers: u32,
}

impl DataGrid {
    /// Federate `n` nodes over a CAS catalog, stripe-partitioning
    /// `import_window` with 1 degree duplicated buffers (Figure 6 layout).
    /// Node organizations cycle through the paper's hosts.
    pub fn new(
        sky: Arc<Sky>,
        import_window: &SkyRegion,
        n: usize,
        config: MaxBcgConfig,
    ) -> Self {
        let orgs = ["Fermilab", "JHU", "IUCAA"];
        let nodes = import_window
            .partition_with_buffers(n, maxbcg::partition::PARTITION_MARGIN_DEG)
            .into_iter()
            .enumerate()
            .map(|(k, (native, imported))| CasNode {
                name: format!("cas-{}", k + 1),
                organization: orgs[k % orgs.len()].to_owned(),
                native,
                imported,
                policy: ResultPolicy::TransferBack,
                accepts_deployment: true,
            })
            .collect();
        DataGrid { sky, nodes, config, faults: None }
    }

    /// Attach a fault schedule (builder style): node crashes from the plan
    /// surface as real panics inside node threads, exercising the
    /// containment and failover paths.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Mutable access to node policies (tests flip them).
    pub fn nodes_mut(&mut self) -> &mut [CasNode] {
        &mut self.nodes
    }

    /// Node list.
    pub fn nodes(&self) -> &[CasNode] {
        &self.nodes
    }

    /// Deploy MaxBCG for `user` over `candidate_window` and collect
    /// results per node policy. Nodes run concurrently, each against its
    /// own local database — the code travels to the data. A panicking node
    /// is contained into a failed [`NodeOutcome`] (never crashing the
    /// coordinator), and its partition is resubmitted to a surviving host
    /// so the collected union stays complete.
    pub fn submit_maxbcg(&self, user: UserId, candidate_window: &SkyRegion) -> GridRunReport {
        let _span = obs::span("submit_maxbcg");
        gobs().submissions.incr();
        let start = Instant::now();
        let config = MaxBcgConfig { iteration: IterationMode::SetBased, ..self.config };
        let mut outcomes: Vec<NodeOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.nodes.len())
                .map(|k| scope.spawn(move || self.run_node_contained(k, candidate_window, config, 0)))
                .collect();
            self.nodes
                .iter()
                .zip(handles)
                .map(|(node, h)| {
                    // run_node_contained already catches worker panics; this
                    // fallback covers a thread dying outside that guard.
                    h.join().unwrap_or_else(|payload| {
                        failed_outcome(&node.name, Duration::ZERO, panic_message(&payload))
                    })
                })
                .collect()
        });

        // Failover: a lost partition (crash/panic, not an authorization
        // refusal) is resubmitted — in the paper's terms, a surviving
        // Data-Grid node adopts the dead node's stripe of sky.
        let mut failovers = 0u32;
        for i in 0..outcomes.len() {
            if outcomes[i].error.is_none() || !self.nodes[i].accepts_deployment {
                continue;
            }
            let adopter = outcomes
                .iter()
                .enumerate()
                .find(|(j, o)| *j != i && o.deployed && o.error.is_none())
                .map_or_else(|| "origin".to_owned(), |(j, _)| self.nodes[j].name.clone());
            for attempt in 1..=3u32 {
                let retry = self.run_node_contained(i, candidate_window, config, attempt);
                let done = retry.error.is_none();
                outcomes[i] = retry;
                if done {
                    outcomes[i].recovered_by = Some(adopter.clone());
                    failovers += 1;
                    gobs().failovers.incr();
                    break;
                }
            }
        }

        let mut collected: Vec<Cluster> = outcomes
            .iter()
            .flat_map(|o| o.clusters.iter().copied())
            .collect();
        collected.sort_by_key(|c| c.objid);
        gobs().clusters_collected.add(collected.len() as u64);
        GridRunReport { user, outcomes, collected, elapsed: start.elapsed(), failovers }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("node panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("node panicked: {s}")
    } else {
        "node panicked with a non-string payload".to_owned()
    }
}

fn failed_outcome(name: &str, elapsed: Duration, error: String) -> NodeOutcome {
    NodeOutcome {
        node: name.to_owned(),
        deployed: true,
        clusters: Vec::new(),
        cluster_count: 0,
        elapsed,
        error: Some(error),
        recovered_by: None,
    }
}

impl DataGrid {
    /// Run node `k` with panic containment: a panic anywhere inside the
    /// MaxBCG engine (or injected by the fault plan) becomes a failed
    /// [`NodeOutcome`] instead of tearing down the coordinator.
    fn run_node_contained(
        &self,
        k: usize,
        candidate_window: &SkyRegion,
        config: MaxBcgConfig,
        attempt: u32,
    ) -> NodeOutcome {
        let t0 = Instant::now();
        gobs().nodes_run.incr();
        catch_unwind(AssertUnwindSafe(|| self.run_node(k, candidate_window, config, attempt)))
            .unwrap_or_else(|payload| {
                gobs().panics_contained.incr();
                failed_outcome(&self.nodes[k].name, t0.elapsed(), panic_message(&payload))
            })
    }

    /// Run node `k` and keep the clusters its native stripe [`owns`], so
    /// no cluster is collected twice.
    fn run_node(
        &self,
        k: usize,
        candidate_window: &SkyRegion,
        config: MaxBcgConfig,
        attempt: u32,
    ) -> NodeOutcome {
        let node = &self.nodes[k];
        let t0 = Instant::now();
        if !node.accepts_deployment {
            gobs().refusals.incr();
            return NodeOutcome {
                node: node.name.clone(),
                deployed: false,
                clusters: Vec::new(),
                cluster_count: 0,
                elapsed: t0.elapsed(),
                error: Some(format!("{} refused code deployment", node.organization)),
                recovered_by: None,
            };
        }
        if let Some(plan) = &self.faults {
            if plan.node_crashes(&node.name, attempt) {
                // A real panic, on purpose: the containment path must be
                // the thing that rescues the run, not a polite error return.
                panic!("injected node crash on {}", node.name);
            }
        }
        let fringe = SkyRegion::new(
            candidate_window.ra_min,
            candidate_window.ra_max,
            (node.native.dec_min - 0.5).max(candidate_window.dec_min),
            (node.native.dec_max + 0.5).min(candidate_window.dec_max),
        );
        let n = self.nodes.len();
        let run = (|| -> Result<Vec<Cluster>, stardb::DbError> {
            let mut engine = MaxBcgDb::new(config)?;
            engine.run(&node.name, &self.sky, &node.imported, &fringe)?;
            Ok(engine
                .clusters()?
                .into_iter()
                .filter(|c| owns(&node.native, k, n, c.dec))
                .collect())
        })();
        match run {
            Ok(clusters) => NodeOutcome {
                node: node.name.clone(),
                deployed: true,
                cluster_count: clusters.len() as u64,
                clusters: if node.policy == ResultPolicy::TransferBack {
                    clusters
                } else {
                    Vec::new()
                },
                elapsed: t0.elapsed(),
                error: None,
                recovered_by: None,
            },
            Err(e) => failed_outcome(&node.name, t0.elapsed(), e.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skycore::kcorr::{KcorrConfig, KcorrTable};
    use skysim::SkyConfig;

    fn grid(n: usize) -> (DataGrid, SkyRegion) {
        let kcorr = KcorrTable::generate(KcorrConfig::sql());
        let survey = SkyRegion::new(180.0, 181.0, -1.5, 1.5);
        let sky = Arc::new(Sky::generate(survey, &SkyConfig::scaled(0.08), &kcorr, 555));
        let cand = survey.shrunk(0.5);
        (DataGrid::new(sky, &survey, n, MaxBcgConfig::default()), cand)
    }

    #[test]
    fn grid_run_collects_all_native_clusters() {
        let (g, cand) = grid(3);
        let report = g.submit_maxbcg(UserId(1), &cand);
        assert_eq!(report.outcomes.len(), 3);
        assert!(report.outcomes.iter().all(|o| o.deployed && o.error.is_none()));
        let per_node: u64 = report.outcomes.iter().map(|o| o.cluster_count).sum();
        assert_eq!(per_node as usize, report.collected.len());
        // No duplicate objids across nodes.
        let mut ids: Vec<i64> = report.collected.iter().map(|c| c.objid).collect();
        ids.dedup();
        assert_eq!(ids.len(), report.collected.len());
    }

    #[test]
    fn grid_matches_single_site_run() {
        let (g, cand) = grid(2);
        let report = g.submit_maxbcg(UserId(1), &cand);
        let mut single = MaxBcgDb::new(MaxBcgConfig::default()).unwrap();
        single.run("one-site", &g.sky, &g.sky.region.clone(), &cand).unwrap();
        let expected = single.clusters().unwrap();
        assert_eq!(report.collected, expected, "grid union must equal one-site run");
    }

    #[test]
    fn store_locally_policy_withholds_rows() {
        let (mut g, cand) = grid(2);
        g.nodes_mut()[0].policy = ResultPolicy::StoreLocally;
        let report = g.submit_maxbcg(UserId(1), &cand);
        let o = &report.outcomes[0];
        assert!(o.clusters.is_empty());
        // Counts still travel.
        assert!(o.error.is_none());
    }

    #[test]
    fn refusing_node_reports_authorization_failure() {
        let (mut g, cand) = grid(3);
        g.nodes_mut()[1].accepts_deployment = false;
        let report = g.submit_maxbcg(UserId(1), &cand);
        let refused = &report.outcomes[1];
        assert!(!refused.deployed);
        assert!(refused.error.as_ref().unwrap().contains("refused"));
        // An authorization refusal is a policy decision, not a crash — it
        // must not be failed over to another host.
        assert_eq!(report.failovers, 0);
        assert!(refused.recovered_by.is_none());
        // The other nodes still produce their stripes.
        assert!(report.outcomes[0].deployed && report.outcomes[2].deployed);
    }

    #[test]
    fn injected_crashes_are_contained_and_failed_over() {
        use gridsim::{FaultConfig, FaultPlan};
        // Every node panics on its first attempt; the coordinator must
        // survive, re-run each lost stripe, and still produce the full
        // catalog (Figure 6 identity under failure).
        let plan = FaultPlan::new(FaultConfig::always(9, 1));
        let (g, cand) = grid(3);
        let g = g.with_faults(plan.clone());
        let report = g.submit_maxbcg(UserId(1), &cand);
        assert_eq!(plan.report().node_crashes, 3, "each node crashed exactly once");
        assert_eq!(report.failovers, 3);
        assert!(report.outcomes.iter().all(|o| o.error.is_none()));
        assert!(report.outcomes.iter().all(|o| o.recovered_by.is_some()));

        let mut single = MaxBcgDb::new(MaxBcgConfig::default()).unwrap();
        single.run("one-site", &g.sky, &g.sky.region.clone(), &cand).unwrap();
        let expected = single.clusters().unwrap();
        assert_eq!(report.collected, expected, "recovered union must equal one-site run");
    }

    #[test]
    fn a_dec_on_an_interior_edge_is_owned_by_exactly_one_node() {
        let (g, _) = grid(3);
        let n = g.nodes().len();
        let owners = |dec: f64| {
            (0..n).filter(|&k| owns(&g.nodes()[k].native, k, n, dec)).count()
        };
        for k in 0..n - 1 {
            let edge = g.nodes()[k].native.dec_max;
            // Adjacent native stripes share the edge value exactly, so an
            // inclusive test on both sides would count it twice.
            assert_eq!(edge, g.nodes()[k + 1].native.dec_min);
            assert!(g.nodes()[k].native.contains(180.5, edge));
            assert!(g.nodes()[k + 1].native.contains(180.5, edge));
            assert_eq!(owners(edge), 1, "interior edge {edge}");
        }
        // The survey's own outer edges and interiors stay owned once.
        let survey = g.sky.region;
        for dec in [survey.dec_min, survey.dec_max, 0.1, -0.9] {
            assert_eq!(owners(dec), 1, "dec {dec}");
        }
    }

    #[test]
    fn organizations_cycle_through_paper_hosts() {
        let (g, _) = grid(3);
        let orgs: Vec<&str> = g.nodes().iter().map(|n| n.organization.as_str()).collect();
        assert_eq!(orgs, vec!["Fermilab", "JHU", "IUCAA"]);
    }
}
