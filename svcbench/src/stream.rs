//! Request-stream generation. Every stream is a pure function of the
//! workload and the seed; the server receives only the rendered lines.
//!
//! A run attempts whole *rounds*. Round `r` is drawn from the seed and
//! `r`, so rounds carry fresh tasks, but every round of every seed has
//! the same operation mix, and every session a round commits is released
//! within the same round: each round starts from the seed network's
//! capacities (caches and distance rows stay warm).

use crate::spec::{Arrivals, Endpoints, StreamShape, Workload, SFC};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sft_graph::{Graph, NodeId};
use sft_service::protocol::{EmbedRequest, Request, RequestMode, PROTOCOL_VERSION};
use std::collections::{BTreeSet, VecDeque};

/// Distance between the id ranges of consecutive rounds.
const ROUND_STRIDE: u64 = 10_000_000;
/// Offset of the quote-only connection's ids inside a round.
const READER_OFFSET: u64 = 5_000_000;
/// Ids of the leak-check probe quotes (the same before and after).
const PROBE_BASE: u64 = 9_000_000_000;

/// The kind of one operation, for per-kind latency.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Kind {
    Quote,
    Commit,
    Release,
}

/// One operation of a round.
#[derive(Clone, Debug)]
pub enum Op {
    /// A quote-only price check.
    Quote(EmbedRequest),
    /// A session arrival: solve and commit.
    Commit(EmbedRequest),
    /// A session departure; `commit` is the index of its arrival in the
    /// same connection's round.
    Release { commit: usize },
}

impl Op {
    pub fn kind(&self) -> Kind {
        match self {
            Op::Quote(_) => Kind::Quote,
            Op::Commit(_) => Kind::Commit,
            Op::Release { .. } => Kind::Release,
        }
    }

    /// The embed request, for quotes and commits.
    pub fn embed(&self) -> Option<&EmbedRequest> {
        match self {
            Op::Quote(r) | Op::Commit(r) => Some(r),
            Op::Release { .. } => None,
        }
    }
}

/// One connection's operations for one round.
#[derive(Clone, Debug)]
pub struct Lane {
    pub ops: Vec<Op>,
    /// Id offset of this lane inside a round.
    offset: u64,
    /// Pause between requests, in milliseconds.
    pub think_ms: u64,
}

/// One round: the churn lane first, then the quote-only lane if the
/// workload has a second connection.
#[derive(Clone, Debug)]
pub struct Round {
    pub index: u64,
    pub lanes: Vec<Lane>,
}

impl Round {
    /// Correlation id of operation `index` of `lane`.
    pub fn id(&self, lane: usize, index: usize) -> u64 {
        self.index * ROUND_STRIDE + self.lanes[lane].offset + index as u64 + 1
    }

    /// The session a release names, for releases.
    pub fn session(&self, lane: usize, index: usize) -> Option<u64> {
        match self.lanes[lane].ops[index] {
            Op::Release { commit } => Some(self.id(lane, commit)),
            _ => None,
        }
    }

    /// The wire line of one operation (no trailing newline).
    pub fn line(&self, lane: usize, index: usize) -> String {
        let id = self.id(lane, index);
        match &self.lanes[lane].ops[index] {
            Op::Quote(r) | Op::Commit(r) => {
                let mut r = r.clone();
                r.id = Some(id);
                r.to_json()
            }
            Op::Release { .. } => Request::Release {
                v: PROTOCOL_VERSION,
                id: Some(id),
                session: self.session(lane, index).expect("a release"),
                deadline_ms: None,
            }
            .to_json(),
        }
    }

    /// Quotes and commits in the round.
    pub fn embeds(&self) -> usize {
        self.lanes
            .iter()
            .flat_map(|l| &l.ops)
            .filter(|op| op.embed().is_some())
            .count()
    }
}

/// A workload's generated inputs.
pub struct Stream {
    picker: Picker,
    seed: u64,
    /// Quotes sent before the first and after the last operation.
    pub probes: Vec<EmbedRequest>,
}

impl Stream {
    /// The stream of `workload` on its topology `graph`, from `seed`.
    pub fn generate(workload: &Workload, graph: Graph, seed: u64) -> Stream {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0000_u64);
        let mut picker = Picker::new(&workload.shape, graph, &mut rng);
        let probes = (0..8)
            .map(|i| {
                let mut r = picker.task(&BTreeSet::new(), &mut rng, RequestMode::Quote);
                r.id = Some(PROBE_BASE + i);
                r
            })
            .collect();
        Stream {
            picker,
            seed,
            probes,
        }
    }

    /// Round `index`.
    pub fn round(&self, index: u64) -> Round {
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ index);
        let mut picker = self.picker.clone();
        let shape = picker.shape.clone();
        let churn = churn_lane(&shape, &mut picker, &mut rng);
        let mut lanes = vec![Lane {
            ops: churn,
            offset: 0,
            think_ms: if shape.reader_quotes > 0 {
                shape.churn_think_ms
            } else {
                0
            },
        }];
        if shape.reader_quotes > 0 {
            let ops = (0..shape.reader_quotes)
                .map(|_| Op::Quote(picker.task(&BTreeSet::new(), &mut rng, RequestMode::Quote)))
                .collect();
            lanes.push(Lane {
                ops,
                offset: READER_OFFSET,
                think_ms: 0,
            });
        }
        Round { index, lanes }
    }
}

/// One churn event before endpoints are drawn.
#[derive(Copy, Clone)]
enum Event {
    Quote,
    Arrive(usize),
    Depart(usize),
}

/// The churn lane: every session arrives and departs within the round,
/// and an exact share of quote-only price checks is sprinkled in front of
/// events, so every round of every seed has the same operation mix.
///
/// Without a cap on live sessions, arrivals are Poisson and holding times
/// exponential (`sft workload` semantics). With a cap, sessions follow a
/// random walk that arrives when nothing is live, departs when the cap is
/// reached, and otherwise arrives or departs (a uniformly chosen live
/// session, as memoryless holding times do) with equal odds.
fn churn_lane(shape: &StreamShape, picker: &mut Picker, rng: &mut StdRng) -> Vec<Op> {
    let mut events = match shape.arrivals {
        Arrivals::Poisson { erlangs } => poisson_events(shape.sessions, erlangs, rng),
        Arrivals::Capped { cap } => capped_events(shape.sessions, cap, rng),
    };
    let quotes = (shape.quote_share * events.len() as f64).round() as usize;
    for _ in 0..quotes {
        let at = rng.random_range(0..=events.len());
        events.insert(at, Event::Quote);
    }

    let mut ops = Vec::with_capacity(events.len() + 2);
    // arrival index -> op index of its commit.
    let mut commit_at = vec![0; shape.sessions];
    let mut live: Vec<(usize, BTreeSet<usize>)> = Vec::new();
    let mut pinned = BTreeSet::new();
    if shape.background {
        let req = picker.task(&pinned, rng, RequestMode::Commit);
        pinned = endpoints(&req);
        ops.push(Op::Commit(req));
    }
    for event in events {
        let busy: BTreeSet<usize> = live
            .iter()
            .flat_map(|(_, e)| e.iter().copied())
            .chain(pinned.iter().copied())
            .collect();
        match event {
            Event::Quote => ops.push(Op::Quote(picker.task(&busy, rng, RequestMode::Quote))),
            Event::Arrive(i) => {
                let req = picker.task(&busy, rng, RequestMode::Commit);
                commit_at[i] = ops.len();
                live.push((i, endpoints(&req)));
                ops.push(Op::Commit(req));
            }
            Event::Depart(i) => {
                ops.push(Op::Release {
                    commit: commit_at[i],
                });
                live.retain(|(j, _)| *j != i);
            }
        }
    }
    if shape.background {
        ops.push(Op::Release { commit: 0 });
    }
    ops
}

/// Poisson arrivals at rate 1 and exponential holding times of mean
/// `erlangs`, merged in time order.
fn poisson_events(sessions: usize, erlangs: f64, rng: &mut StdRng) -> Vec<Event> {
    let exp = |mean: f64, rng: &mut StdRng| -(1.0 - rng.random::<f64>()).ln() * mean;
    // (time, tiebreak, event); a departure's tiebreak orders it after its
    // own arrival even for a zero holding time.
    let mut timed: Vec<(f64, usize, Event)> = Vec::with_capacity(2 * sessions);
    let mut clock = 0.0;
    for i in 0..sessions {
        clock += exp(1.0, rng);
        timed.push((clock, i, Event::Arrive(i)));
        timed.push((clock + exp(erlangs, rng), sessions + i, Event::Depart(i)));
    }
    timed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    timed.into_iter().map(|(_, _, e)| e).collect()
}

/// A random walk over live sessions that never exceeds `cap`.
fn capped_events(sessions: usize, cap: usize, rng: &mut StdRng) -> Vec<Event> {
    let mut events = Vec::with_capacity(2 * sessions);
    let mut live: Vec<usize> = Vec::new();
    let mut arrived = 0;
    while arrived < sessions || !live.is_empty() {
        let arrive = arrived < sessions
            && (live.is_empty() || (live.len() < cap && rng.random::<f64>() < 0.5));
        if arrive {
            events.push(Event::Arrive(arrived));
            live.push(arrived);
            arrived += 1;
        } else {
            let i = live.swap_remove(rng.random_range(0..live.len()));
            events.push(Event::Depart(i));
        }
    }
    events
}

/// The source and destinations of a request.
fn endpoints(req: &EmbedRequest) -> BTreeSet<usize> {
    let mut ends: BTreeSet<usize> = req.dests.iter().copied().collect();
    ends.insert(req.source);
    ends
}

/// Draws tasks under a workload's endpoint rule.
#[derive(Clone)]
struct Picker {
    shape: StreamShape,
    graph: std::sync::Arc<Graph>,
    /// Nodes eligible as endpoints.
    eligible: Vec<usize>,
    sources: Vec<usize>,
    groups: Vec<Vec<usize>>,
    /// Tasks drawn so far.
    drawn: usize,
}

impl Picker {
    fn new(shape: &StreamShape, graph: Graph, rng: &mut StdRng) -> Self {
        let n = graph.node_count();
        let eligible: Vec<usize> = match shape.endpoints {
            Endpoints::Disjoint { min_degree } => (0..n)
                .filter(|&v| graph.degree(NodeId(v)) >= min_degree)
                .collect(),
            _ => (0..n).collect(),
        };
        let (mut sources, mut groups) = (Vec::new(), Vec::new());
        if let Endpoints::Pools {
            sources: ns,
            groups: ng,
        } = shape.endpoints
        {
            sources = sample_distinct(&eligible, ns, &BTreeSet::new(), rng);
            let not_sources: BTreeSet<usize> = sources.iter().copied().collect();
            // Group sizes cycle, so every seed has the same mix of sizes.
            for g in 0..ng {
                let size = 1 + g % shape.max_dests;
                groups.push(sample_distinct(&eligible, size, &not_sources, rng));
            }
        }
        Picker {
            shape: shape.clone(),
            graph: std::sync::Arc::new(graph),
            eligible,
            sources,
            groups,
            drawn: 0,
        }
    }

    /// One task whose endpoints avoid `busy` (the endpoints of live
    /// sessions) when the rule asks for it.
    fn task(
        &mut self,
        busy: &BTreeSet<usize>,
        rng: &mut StdRng,
        mode: RequestMode,
    ) -> EmbedRequest {
        let (source, dests) = match self.shape.endpoints {
            Endpoints::Pools { .. } => {
                let source = self.sources[rng.random_range(0..self.sources.len())];
                let group = self.groups[rng.random_range(0..self.groups.len())].clone();
                (source, group)
            }
            Endpoints::Any | Endpoints::Disjoint { .. } => {
                let avoid = match self.shape.endpoints {
                    Endpoints::Disjoint { .. } => busy.clone(),
                    _ => BTreeSet::new(),
                };
                let size = 1 + self.drawn % self.shape.max_dests;
                let mut ends = sample_distinct(&self.eligible, size + 1, &avoid, rng);
                let source = ends.remove(0);
                (source, ends)
            }
        };
        // Task sizes cycle through every (destinations, chain length)
        // pair, so each seed draws the same mix of sizes.
        let chain_len = 1 + (self.drawn / self.shape.max_dests) % SFC;
        self.drawn += 1;
        let mut req = EmbedRequest::new(source, dests, (0..chain_len).collect());
        req.mode = Some(mode);
        if let Some((lo, hi)) = self.shape.bandwidth {
            // Two decimals keep the lines readable.
            let raw = lo + (hi - lo) * rng.random::<f64>();
            req.bandwidth = Some(((raw * 100.0).round() / 100.0).clamp(lo, hi));
        }
        if let Some((lo, hi)) = self.shape.budget_slack {
            let hops = farthest_hops(&self.graph, req.source, &req.dests);
            req.delay_budget_ms = Some(f64::from(hops + rng.random_range(lo..=hi)));
        }
        req
    }
}

/// `count` distinct members of `pool` outside `avoid`, in draw order.
fn sample_distinct(
    pool: &[usize],
    count: usize,
    avoid: &BTreeSet<usize>,
    rng: &mut StdRng,
) -> Vec<usize> {
    let mut candidates: Vec<usize> = pool
        .iter()
        .copied()
        .filter(|v| !avoid.contains(v))
        .collect();
    assert!(
        candidates.len() >= count,
        "endpoint pool too small: {} candidates for {count} endpoints",
        candidates.len()
    );
    for j in 0..count {
        let pick = rng.random_range(j..candidates.len());
        candidates.swap(j, pick);
    }
    candidates.truncate(count);
    candidates
}

/// The largest hop distance from `source` to any of `dests` (BFS).
fn farthest_hops(graph: &Graph, source: usize, dests: &[usize]) -> u32 {
    let mut hops = vec![u32::MAX; graph.node_count()];
    hops[source] = 0;
    let mut queue = VecDeque::from([source]);
    while let Some(u) = queue.pop_front() {
        for (v, _) in graph.neighbors(NodeId(u)) {
            if hops[v.0] == u32::MAX {
                hops[v.0] = hops[u] + 1;
                queue.push_back(v.0);
            }
        }
    }
    dests.iter().map(|&d| hops[d]).max().unwrap_or(0)
}
