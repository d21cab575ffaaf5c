//! Checks recomputed from the graph's public accessors, apart from
//! `sft_core::cost` and `sft_core::validate`: the delivery cost of an
//! embedding, its feasibility, and the live link demand of the sessions
//! the traced replay has committed.

use sft_core::{Embedding, MulticastTask, Network, VnfId};
use sft_graph::NodeId;
use std::collections::{BTreeMap, BTreeSet};

/// Relative tolerance of floating-point comparisons.
const TOL: f64 = 1e-9;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= TOL * a.abs().max(b.abs()).max(1.0)
}

/// The node pairs a walk steps across, skipping stays on one node.
fn steps(walk: &[NodeId]) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
    walk.windows(2)
        .filter(|w| w[0] != w[1])
        .map(|w| (w[0], w[1]))
}

fn edge_key(a: NodeId, b: NodeId) -> (usize, usize) {
    (a.0.min(b.0), a.0.max(b.0))
}

/// Delivery cost `(setup, link)`: each chain segment pays once for every
/// distinct edge any destination's walk uses in it, and every instance
/// the network does not already run pays its setup cost.
pub fn delivery_cost(
    network: &Network,
    task: &MulticastTask,
    embedding: &Embedding,
) -> Result<(f64, f64), String> {
    let graph = network.graph();
    let k = task.sfc().len();
    let mut link = 0.0;
    for j in 0..=k {
        let mut seen = BTreeSet::new();
        for route in embedding.routes() {
            let Some(walk) = route.segments().get(j) else {
                continue;
            };
            for (a, b) in steps(walk) {
                let e = graph
                    .find_edge(a, b)
                    .ok_or_else(|| format!("segment {j} steps across non-edge {a}-{b}"))?;
                if seen.insert(edge_key(a, b)) {
                    link += graph.weight(e);
                }
            }
        }
    }
    let mut setup = 0.0;
    for (f, v) in placed(task, embedding) {
        if !network.is_deployed(f, v) {
            setup += network.setup_cost(f, v);
        }
    }
    Ok((setup, link))
}

/// Distinct `(VNF type, node)` placements: the junction closing segment
/// `j - 1` hosts stage `j`.
fn placed(task: &MulticastTask, embedding: &Embedding) -> BTreeSet<(VnfId, NodeId)> {
    let stages = task.sfc().stages();
    let mut out = BTreeSet::new();
    for route in embedding.routes() {
        for (j, walk) in route.segments().iter().enumerate().take(stages.len()) {
            if let Some(&node) = walk.last() {
                out.insert((stages[j], node));
            }
        }
    }
    out
}

/// Checks an embedding against the network state it was solved on:
/// every walk visits the chain in order over existing edges from the
/// source to its destination, instances sit on servers whose load stays
/// within capacity, and (with a budget) every route's latency is within
/// it. Returns the largest route latency.
pub fn feasible(
    network: &Network,
    task: &MulticastTask,
    embedding: &Embedding,
) -> Result<f64, String> {
    let graph = network.graph();
    let k = task.sfc().len();
    let routes = embedding.routes();
    if routes.len() != task.destinations().len() {
        return Err(format!(
            "{} routes for {} destinations",
            routes.len(),
            task.destinations().len()
        ));
    }
    let mut worst = 0.0f64;
    for (route, &dest) in routes.iter().zip(task.destinations()) {
        let segs = route.segments();
        if segs.len() != k + 1 || segs.iter().any(|s| s.is_empty()) {
            return Err(format!(
                "route to {dest} has {} segments for a chain of {k}",
                segs.len()
            ));
        }
        if segs[0][0] != task.source() || *segs[k].last().expect("non-empty") != dest {
            return Err(format!(
                "route to {dest} does not run from the source to it"
            ));
        }
        let mut latency = 0.0;
        for (j, walk) in segs.iter().enumerate() {
            if j > 0 && walk[0] != *segs[j - 1].last().expect("non-empty") {
                return Err(format!("route to {dest} breaks at stage {j}"));
            }
            if j < k && !network.is_server(*walk.last().expect("non-empty")) {
                return Err(format!(
                    "stage {} of the route to {dest} sits on a switch",
                    j + 1
                ));
            }
            for (a, b) in steps(walk) {
                let e = graph
                    .find_edge(a, b)
                    .ok_or_else(|| format!("route to {dest} steps across non-edge {a}-{b}"))?;
                latency += graph.effective_latency(e);
            }
        }
        if let Some(budget) = task.delay_budget() {
            if latency > budget * (1.0 + TOL) {
                return Err(format!(
                    "route to {dest} takes {latency} over budget {budget}"
                ));
            }
        }
        worst = worst.max(latency);
    }
    let catalog = network.catalog();
    let mut load: BTreeMap<NodeId, f64> = BTreeMap::new();
    for (f, v) in placed(task, embedding) {
        if !network.is_deployed(f, v) {
            *load.entry(v).or_insert_with(|| {
                catalog
                    .ids()
                    .filter(|&g| network.is_deployed(g, v))
                    .map(|g| catalog.demand(g))
                    .sum()
            }) += catalog.demand(f);
        }
    }
    for (v, used) in load {
        if used > network.capacity(v) * (1.0 + TOL) {
            return Err(format!(
                "node {v} would carry load {used} over capacity {}",
                network.capacity(v)
            ));
        }
    }
    Ok(worst)
}

/// Checks a solve result's reported numbers against the recomputation.
pub fn check_result(
    network: &Network,
    task: &MulticastTask,
    result: &sft_core::SolveResult,
) -> Result<(), String> {
    let (setup, link) = delivery_cost(network, task, &result.embedding)?;
    if !close(setup, result.cost.setup) || !close(link, result.cost.link) {
        return Err(format!(
            "recomputed cost setup {setup} link {link}, served setup {} link {}",
            result.cost.setup, result.cost.link
        ));
    }
    let worst = feasible(network, task, &result.embedding)?;
    if let Some(reported) = result.max_path_delay {
        if !close(worst, reported) {
            return Err(format!(
                "recomputed max path delay {worst}, served {reported}"
            ));
        }
    }
    Ok(())
}

/// The benchmark's own account of live link demand: every committed
/// session charges its bandwidth once on each distinct edge it uses.
#[derive(Default)]
pub struct LinkBook {
    used: BTreeMap<(usize, usize), f64>,
    sessions: BTreeMap<u64, (Vec<(usize, usize)>, f64)>,
}

impl LinkBook {
    /// Charges a committed session and checks every edge it touches.
    pub fn commit(
        &mut self,
        session: u64,
        network: &Network,
        task: &MulticastTask,
        embedding: &Embedding,
    ) -> Result<(), String> {
        let demand = task.bandwidth();
        let graph = network.graph();
        let mut edges = BTreeSet::new();
        for route in embedding.routes() {
            for walk in route.segments() {
                edges.extend(steps(walk).map(|(a, b)| edge_key(a, b)));
            }
        }
        let edges: Vec<(usize, usize)> = edges.into_iter().collect();
        if demand > 0.0 {
            for &(a, b) in &edges {
                let e = graph
                    .find_edge(NodeId(a), NodeId(b))
                    .ok_or_else(|| format!("session {session} uses non-edge {a}-{b}"))?;
                let used = self.used.entry((a, b)).or_insert(0.0);
                *used += demand;
                if let Some(cap) = graph.edge_capacity(e) {
                    if *used > cap * (1.0 + TOL) {
                        return Err(format!("edge {a}-{b} carries {used} over capacity {cap}"));
                    }
                }
            }
        }
        self.sessions.insert(session, (edges, demand));
        Ok(())
    }

    /// Returns a released session's demand.
    pub fn release(&mut self, session: u64) -> Result<(), String> {
        let (edges, demand) = self
            .sessions
            .remove(&session)
            .ok_or_else(|| format!("release of unknown session {session}"))?;
        if demand > 0.0 {
            for key in edges {
                if let Some(used) = self.used.get_mut(&key) {
                    *used -= demand;
                }
            }
        }
        Ok(())
    }

    /// Sessions still live.
    pub fn live(&self) -> usize {
        self.sessions.len()
    }
}

/// Outcome of the Theorem 6 check.
#[derive(Default, Debug)]
pub struct Theorem6 {
    /// Tasks whose optimum the exact solver certified.
    pub checked: u64,
    /// Tasks it could not certify within its node budget.
    pub skipped: u64,
    pub errors: Vec<String>,
}

/// Theorem 6 on the seed network: with KMB (ρ = 2) in stage 1, the served
/// cost of each task lies within `[OPT, 3·OPT]`, where OPT comes from the
/// ILP of `sft_core::ilp`.
pub fn theorem6(
    network: &Network,
    tasks: &[MulticastTask],
    served: &[f64],
    max_nodes: usize,
) -> Theorem6 {
    let mut out = Theorem6::default();
    for (task, &cost) in tasks.iter().zip(served) {
        let model = match sft_core::ilp::IlpModel::build(network, task) {
            Ok(m) => m,
            Err(e) => {
                out.errors.push(format!("ILP build: {e}"));
                continue;
            }
        };
        let config = sft_lp::MipConfig {
            max_nodes,
            ..sft_lp::MipConfig::default()
        };
        match model.solve(network, task, &config) {
            Ok(o) if o.status == sft_lp::MipStatus::Optimal => {
                let opt = o.objective.unwrap_or(f64::NAN);
                if !(cost >= opt - 1e-6 && cost <= 3.0 * opt + 1e-6) {
                    out.errors.push(format!(
                        "served cost {cost} outside [OPT, 3 OPT] for OPT {opt}"
                    ));
                }
                out.checked += 1;
            }
            Ok(_) => out.skipped += 1,
            Err(e) => out.errors.push(format!("ILP solve: {e}")),
        }
    }
    out
}
