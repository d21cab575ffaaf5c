//! The traced run: replays a workload's request stream in-process,
//! through the same public calls the front-end makes, with a span around
//! each call into a layer.
//!
//! A span holds its layer name, start, end, parent span and the id of the
//! request it belongs to. A layer's self time is its span's duration
//! minus the durations of its child spans. The solve is split into its
//! parts by a mirror path: right after the service's own solve, the same
//! task goes through `Network::bandwidth_view`, `msa::stage_one_with_cache`
//! and `opa::optimize` on a mirror network. The mirror network is built
//! apart from the service's (so its lazy distance rows start as cold as
//! the service's did), receives the same commit and release deltas, and
//! has its own Steiner cache fed the same request sequence, so its hit
//! pattern matches the service's. The mirror spans are children of the
//! `service.solve` span although they run after it, so the solve's self
//! time is what is left: delay repair and result assembly. The mirror,
//! and every other piece of the benchmark's own bookkeeping (the
//! independent checks, the link book, the mirror network's deltas), runs
//! inside a `trace.mirror` span, which is excluded from the request's
//! time.

use crate::independent::{self, LinkBook};
use crate::report::Metrics;
use crate::spec::{Frontend, Workload, THREADS};
use crate::stream::{Round, Stream};
use sft_core::{
    msa, opa, CommitDelta, MulticastTask, Network, Parallelism, SolveOptions, StageTwo, Strategy,
};
use sft_graph::SteinerCache;
use sft_service::protocol::{parse_request, EmbedResponse, Request, RequestMode};
use sft_service::{CapacityLedger, EmbedService, ServiceError};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Sizes that grow with every round (the commit log, the Steiner cache,
/// the resident distance rows) are read after this many measured rounds,
/// so they do not grow with the host's speed: every run replays at least
/// one measured round.
const SIZES_AT_ROUND: u64 = 1;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans in memory; a disabled tracer records nothing.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    fn begin(&mut self, name: &'static str) -> usize {
        let parent = self.open.last().copied();
        self.begin_under(parent, name)
    }

    fn begin_under(&mut self, parent: Option<usize>, name: &'static str) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            request: self.request,
            parent,
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(id);
        self.spans[id].start_ns = self.now();
        id
    }

    fn end(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        self.spans[id].end_ns = self.now();
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close in order");
    }

    /// Runs `f` inside a span named `name`; returns its value and the span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, usize) {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        (out, id)
    }

    /// Runs `f` inside a span attributed to `parent`, whatever is open.
    pub fn span_under<T>(&mut self, parent: usize, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin_under(Some(parent), name);
        let out = f();
        self.end(id);
        out
    }

    /// Self time of every span, in nanoseconds (may be negative only for
    /// a solve whose mirror parts took longer than the solve itself).
    pub fn self_times(&self) -> Vec<i64> {
        let mut covered = vec![0i64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.duration_ns() as i64;
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.duration_ns() as i64 - c)
            .collect()
    }

    /// Writes the spans as JSON lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.request, s.start_ns, s.end_ns
            );
        }
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        file.write_all(out.as_bytes())?;
        file.flush()
    }
}

/// What the traced replay measured, besides its spans.
#[derive(Default)]
pub struct Counters {
    pub requests: u64,
    /// Summed time of the requests, mirror path excluded, by a stopwatch
    /// apart from the spans.
    pub request_ns: u64,
    pub failed: u64,
    pub solves: u64,
    pub commits: u64,
    pub releases: u64,
    pub resp_bytes: u64,
    pub views: u64,
    pub conflicts: u64,
    pub row_hits: u64,
    pub row_misses: u64,
    pub steiner_hits: u64,
    pub steiner_misses: u64,
    /// Solves whose delay repair rerouted at least one destination.
    pub repaired: u64,
}

/// The traced replay of one workload.
pub struct Replay {
    /// Operations of the untraced warm-up round, and how many failed.
    pub warm_requests: u64,
    pub warm_failed: u64,
    pub tracer: Tracer,
    pub counters: Counters,
    /// Probe answers before and after, as the program renders them.
    pub probes: (Vec<String>, Vec<String>),
    /// Sizes after [`SIZES_AT_ROUND`] measured rounds.
    pub rows_resident: u64,
    pub cache_entries: u64,
    pub log_records: u64,
    pub errors: Vec<String>,
}

struct Replayer {
    /// Spans, the mirror path and the independent checks are on.
    traced: bool,
    svc: EmbedService,
    /// The socket path's ledger; the stdin engine keeps none.
    ledger: Option<CapacityLedger>,
    /// The stdin engine's session table.
    sessions: BTreeMap<u64, Vec<CommitDelta>>,
    mirror_net: Network,
    mirror_cache: SteinerCache,
    parallelism: Parallelism,
    tracer: Tracer,
    counters: Counters,
    book: LinkBook,
    errors: Vec<String>,
}

/// The service the front-ends build for a workload.
pub fn service_for(workload: &Workload) -> Result<EmbedService, String> {
    let network = workload.build_network()?;
    let options = SolveOptions {
        stage_two: StageTwo::Opa,
        parallelism: Parallelism::new(THREADS),
        ..SolveOptions::default()
    };
    EmbedService::new(network, Strategy::Msa, options).map_err(|e| e.to_string())
}

/// Replays the warm-up round and then `rounds` measured rounds of
/// `stream` in-process, the way the workload's front-end serves them:
/// with spans, the mirror path and the independent checks when `traced`,
/// with one timer per request otherwise.
pub fn replay(
    workload: &Workload,
    stream: &Stream,
    rounds: u64,
    traced: bool,
) -> Result<Replay, String> {
    let svc = service_for(workload)?;
    let ledger =
        (workload.frontend == Frontend::Socket).then(|| CapacityLedger::new(svc.network()));
    let mut r = Replayer {
        traced,
        svc,
        ledger,
        sessions: BTreeMap::new(),
        mirror_net: workload.build_network()?,
        mirror_cache: SteinerCache::new(),
        parallelism: Parallelism::new(THREADS),
        tracer: Tracer::new(traced),
        counters: Counters::default(),
        book: LinkBook::default(),
        errors: Vec::new(),
    };
    let before = r.probes(stream);
    let (mut warm_requests, mut warm_failed) = (0, 0);
    let mut sizes = (0, 0, 0);
    for index in 0..=rounds {
        let round = stream.round(index);
        for (lane, op) in merged_order(&round) {
            r.request(&round, lane, op);
        }
        if index == 0 {
            // Round 0 is the warm-up, as in the measured run.
            warm_requests = r.counters.requests;
            warm_failed = r.counters.failed;
            r.tracer = Tracer::new(traced);
            r.counters = Counters::default();
        }
        if index == SIZES_AT_ROUND.min(rounds) {
            sizes = (
                r.svc.network().dist().rows_materialized(),
                r.svc.cache().stats().entries as u64,
                r.ledger.as_ref().map_or(0, |l| l.commit_log().len() as u64),
            );
        }
    }
    let after = r.probes(stream);
    if r.book.live() != 0 {
        r.errors.push(format!(
            "{} sessions still live after the replay",
            r.book.live()
        ));
    }
    let (rows_resident, cache_entries, log_records) = sizes;
    Ok(Replay {
        warm_requests,
        warm_failed,
        rows_resident,
        cache_entries,
        log_records,
        probes: (before, after),
        tracer: r.tracer,
        counters: r.counters,
        errors: r.errors,
    })
}

/// The lanes' operations interleaved by their position in the round, so
/// a trickle lane spreads across the quote lane as it does on the wire.
fn merged_order(round: &Round) -> Vec<(usize, usize)> {
    let mut order: Vec<(f64, usize, usize)> = Vec::new();
    for (lane, l) in round.lanes.iter().enumerate() {
        let n = l.ops.len() as f64;
        for i in 0..l.ops.len() {
            order.push(((i as f64 + 0.5) / n, lane, i));
        }
    }
    order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    order.into_iter().map(|(_, lane, i)| (lane, i)).collect()
}

impl Replayer {
    /// Probe quotes, solved untraced as the front-end would answer them.
    fn probes(&mut self, stream: &Stream) -> Vec<String> {
        stream
            .probes
            .iter()
            .map(|p| {
                let task = p.to_task().expect("generated probes are valid tasks");
                match self.svc.solve_uncommitted(&task) {
                    Ok(res) => EmbedResponse::success(p.id, &res, false).to_json(),
                    Err(e) => EmbedResponse::failure(p.id, &e).to_json(),
                }
            })
            .collect()
    }

    fn request(&mut self, round: &Round, lane: usize, index: usize) {
        let line = round.line(lane, index);
        let id = round.id(lane, index);
        self.tracer.request = id;
        self.counters.requests += 1;
        let started = Instant::now();
        let mut mirrored = Duration::ZERO;
        let root = self.tracer.begin("request");
        let (parsed, _) = self.tracer.span("protocol.parse", || parse_request(&line));
        let response = match parsed {
            Err(e) => Err(format!("generated line does not parse: {e}")),
            Ok(Request::Embed(req)) => self.embed(&req, id, root, &mut mirrored),
            Ok(Request::Release { session, .. }) => self.release(session, id, root, &mut mirrored),
            Ok(Request::Shutdown { .. }) => Err("generated stream holds a shutdown".into()),
        };
        match response {
            Ok((response, ok)) => {
                let (json, _) = self
                    .tracer
                    .span("protocol.serialize", || response.to_json());
                self.counters.resp_bytes += json.len() as u64 + 1;
                if !ok {
                    self.counters.failed += 1;
                }
            }
            Err(e) => self.errors.push(format!("request {id}: {e}")),
        }
        self.tracer.end(root);
        self.counters.request_ns += (started.elapsed() - mirrored).as_nanos() as u64;
    }

    fn embed(
        &mut self,
        req: &sft_service::EmbedRequest,
        id: u64,
        root: usize,
        mirrored: &mut Duration,
    ) -> Result<(EmbedResponse, bool), String> {
        let (task, _) = self.tracer.span("protocol.to_task", || req.to_task());
        let task = task.map_err(|e| e.to_string())?;
        if let Some(ledger) = &self.ledger {
            let (admitted, _) = self
                .tracer
                .span("ledger.admit", || ledger.check_capacity(&task));
            if let Err(e) = admitted {
                return Ok((EmbedResponse::failure(Some(id), &e), false));
            }
        }
        let commit = req.mode == Some(RequestMode::Commit);
        let snapshot = match &self.ledger {
            Some(ledger) if commit => {
                Some(self.tracer.span("ledger.snapshot", || ledger.snapshot()).0)
            }
            _ => None,
        };
        let result = self.solve(&task, root, mirrored);
        let result = match result {
            Ok(r) => r,
            Err(e) => return Ok((EmbedResponse::failure(Some(id), &e), false)),
        };
        if !commit {
            return Ok((EmbedResponse::success(Some(id), &result, false), true));
        }
        let svc = &self.svc;
        let (delta, _) = self.tracer.span("network.commit_delta", || {
            svc.network().commit_delta(&task, &result.embedding)
        });
        if let (Some(ledger), Some(snapshot)) = (&self.ledger, &snapshot) {
            let (valid, _) = self.tracer.span("ledger.validate", || {
                ledger.validate(snapshot, &delta, false)
            });
            if valid.is_err() {
                self.counters.conflicts += 1;
                return Err("a sequential replay met a commit conflict".into());
            }
        }
        let svc = &mut self.svc;
        let (applied, _) = self
            .tracer
            .span("service.apply_commit", || svc.apply_commit(&delta));
        if let Err(e) = applied {
            return Ok((EmbedResponse::failure(Some(id), &e), false));
        }
        self.off_clock(root, mirrored, |r| {
            r.book
                .commit(id, r.svc.network(), &task, &result.embedding)
                .map_err(|e| format!("link check: {e}"))?;
            r.mirror_net
                .apply_delta(&delta)
                .map_err(|e| format!("mirror network refuses a served commit: {e}"))
        })?;
        match &self.ledger {
            Some(ledger) => {
                self.tracer.span("ledger.confirm", || {
                    ledger.confirm_with_task(Some(id), &delta, Some(task.clone()))
                });
            }
            None => self.sessions.entry(id).or_default().push(delta),
        }
        self.counters.commits += 1;
        Ok((EmbedResponse::success(Some(id), &result, true), true))
    }

    /// The service's solve, then the mirror path and the independent
    /// checks against the same network state.
    fn solve(
        &mut self,
        task: &MulticastTask,
        root: usize,
        mirrored: &mut Duration,
    ) -> Result<sft_core::SolveResult, ServiceError> {
        let dist = self.svc.network().dist();
        let (rows_h, rows_m) = (dist.row_hits(), dist.row_misses());
        let cache0 = self.svc.cache().stats();
        let svc = &self.svc;
        let (result, solve_span) = self
            .tracer
            .span("service.solve", || svc.solve_uncommitted(task));
        let dist = self.svc.network().dist();
        self.counters.row_hits += dist.row_hits() - rows_h;
        self.counters.row_misses += dist.row_misses() - rows_m;
        let cache1 = self.svc.cache().stats();
        self.counters.steiner_hits += cache1.hits - cache0.hits;
        self.counters.steiner_misses += cache1.misses - cache0.misses;
        self.counters.solves += 1;
        let result = result?;
        let checked = self.off_clock(root, mirrored, |r| {
            r.mirror(task, &result, solve_span)?;
            independent::check_result(r.svc.network(), task, &result)
        });
        if let Err(e) = checked {
            self.errors.push(e);
        }
        Ok(result)
    }

    /// With tracing on, runs the benchmark's own work `f` inside a
    /// `trace.mirror` span under `root` and leaves its time out of the
    /// request's; with tracing off, skips it.
    fn off_clock(
        &mut self,
        root: usize,
        mirrored: &mut Duration,
        f: impl FnOnce(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        if !self.traced {
            return Ok(());
        }
        let started = Instant::now();
        let span = self.tracer.begin_under(Some(root), "trace.mirror");
        let out = f(self);
        self.tracer.end(span);
        *mirrored += started.elapsed();
        out
    }

    /// Times the solve's parts on the same task and checks that they
    /// agree with the service's answer.
    fn mirror(
        &mut self,
        task: &MulticastTask,
        served: &sft_core::SolveResult,
        solve_span: usize,
    ) -> Result<(), String> {
        let network = &self.mirror_net;
        let (tracer, cache, par) = (&mut self.tracer, &self.mirror_cache, self.parallelism);
        let view = tracer
            .span_under(solve_span, "network.bw_view", || {
                network.bandwidth_view(task.bandwidth())
            })
            .map_err(|e| format!("bandwidth view: {e}"))?;
        if view.is_some() {
            self.counters.views += 1;
        }
        let target = view.as_ref().unwrap_or(network);
        // A view is a different topology: the service solves it with a
        // per-solve cache, never the shared one.
        let fresh = SteinerCache::new();
        let cache = if view.is_some() { &fresh } else { cache };
        let chain = tracer
            .span_under(solve_span, "msa.stage1", || {
                msa::stage_one_with_cache(target, task, msa::SteinerMethod::default(), par, cache)
            })
            .map_err(|e| format!("mirror stage 1: {e}"))?;
        let optimized = tracer
            .span_under(solve_span, "opa.stage2", || {
                opa::optimize(target, task, &chain)
            })
            .map_err(|e| format!("mirror stage 2: {e}"))?;
        if chain != served.chain {
            return Err("mirror stage 1 disagrees with the service's chain".into());
        }
        if optimized.embedding.instances() != served.embedding.instances() {
            return Err("mirror stage 2 places other instances than the service".into());
        }
        if optimized.embedding != served.embedding {
            if task.delay_budget().is_none() {
                return Err("mirror stage 2 disagrees with the service's embedding".into());
            }
            self.counters.repaired += 1;
        }
        Ok(())
    }

    fn release(
        &mut self,
        session: u64,
        id: u64,
        root: usize,
        mirrored: &mut Duration,
    ) -> Result<(EmbedResponse, bool), String> {
        let delta = match &self.ledger {
            Some(ledger) => {
                self.tracer.span("ledger.note_release", || {
                    ledger.note_queued_release(session)
                });
                match self
                    .tracer
                    .span("ledger.release_usage", || ledger.release_usage(session))
                    .0
                {
                    Ok(d) => d,
                    Err(e) => return Ok((EmbedResponse::failure(Some(id), &e), false)),
                }
            }
            None => match self.sessions.get_mut(&session).and_then(Vec::pop) {
                Some(d) => d,
                None => {
                    let e = ServiceError::UnknownSession { session };
                    return Ok((EmbedResponse::failure(Some(id), &e), false));
                }
            },
        };
        let svc = &mut self.svc;
        let (freed, _) = self
            .tracer
            .span("service.apply_release", || svc.apply_release(&delta));
        let freed = match freed {
            Ok(f) => f,
            Err(e) => return Ok((EmbedResponse::failure(Some(id), &e), false)),
        };
        if let Some(ledger) = &self.ledger {
            let (confirmed, _) = self
                .tracer
                .span("ledger.confirm_release", || ledger.confirm_release(session));
            confirmed.map_err(|e| format!("confirm release: {e}"))?;
        }
        self.off_clock(root, mirrored, |r| {
            r.mirror_net
                .apply_release(&delta)
                .map_err(|e| format!("mirror network refuses a served release: {e}"))?;
            r.book.release(session)
        })?;
        self.counters.releases += 1;
        let shared = delta.deploys().len() + delta.refs().len() - freed.len();
        let response = EmbedResponse::released(
            Some(id),
            session,
            freed.into_iter().map(|(f, v)| (f.0, v.0)).collect(),
            shared,
            delta.total_bandwidth(),
        );
        Ok((response, true))
    }
}

/// Layers and the span names whose self time they own. Every span but
/// `trace.mirror` must belong to one; a run with a span of no layer
/// fails its check.
const LAYERS: &[(&str, &[&str])] = &[
    (
        "protocol",
        &["protocol.parse", "protocol.to_task", "protocol.serialize"],
    ),
    (
        "ledger",
        &[
            "ledger.admit",
            "ledger.snapshot",
            "ledger.validate",
            "ledger.confirm",
            "ledger.note_release",
            "ledger.release_usage",
            "ledger.confirm_release",
        ],
    ),
    (
        "service",
        &["service.apply_commit", "service.apply_release"],
    ),
    ("network", &["network.bw_view", "network.commit_delta"]),
    ("msa", &["msa.stage1"]),
    ("opa", &["opa.stage2"]),
    ("api", &["service.solve"]),
    ("harness", &["request"]),
];

/// Per-request summary of a replay's spans.
pub struct Summary {
    pub metrics: Metrics,
    /// Mean traced time per request, mirror excluded, in µs.
    pub request_us: f64,
    /// Sum over layers of their mean self time per request, in µs.
    pub layer_sum_us: f64,
    /// Mean time per request by the replay's stopwatch, which runs apart
    /// from the spans, mirror excluded, in µs.
    pub timed_request_us: f64,
    /// Names of recorded spans that belong to no layer.
    pub unattributed: Vec<&'static str>,
}

/// Turns a replay into the per-layer metrics.
pub fn summarize(replay: &Replay, rounds: u64) -> Summary {
    let spans = &replay.tracer.spans;
    let selfs = replay.tracer.self_times();
    let c = &replay.counters;
    let requests = c.requests.max(1) as f64;
    let mut by_name: BTreeMap<&str, i64> = BTreeMap::new();
    for (s, &t) in spans.iter().zip(&selfs) {
        *by_name.entry(s.name).or_default() += t;
    }
    let total_ns = |names: &[&str]| -> f64 {
        names
            .iter()
            .map(|n| by_name.get(n).copied().unwrap_or(0))
            .sum::<i64>() as f64
    };
    let per = |names: &[&str], count: u64| -> f64 {
        if count == 0 {
            0.0
        } else {
            total_ns(names) / count as f64
        }
    };
    let mirror_ns = total_ns(&["trace.mirror"]);
    let request_ns: f64 = spans
        .iter()
        .filter(|s| s.name == "request")
        .map(|s| s.duration_ns() as f64)
        .sum::<f64>()
        - mirror_ns;
    let layer_sum_ns: f64 = LAYERS.iter().map(|(_, names)| total_ns(names)).sum();
    let unattributed = by_name
        .keys()
        .copied()
        .filter(|&n| n != "trace.mirror" && !LAYERS.iter().any(|(_, names)| names.contains(&n)))
        .collect();
    let embeds = c.solves;
    let per_round = |v: u64| v as f64 / rounds.max(1) as f64;
    let mut m = Metrics::default();
    m.put(
        "protocol.parse_us",
        per(&["protocol.parse", "protocol.to_task"], c.requests) / 1e3,
        "us",
    );
    m.put(
        "protocol.serialize_us",
        per(&["protocol.serialize"], c.requests) / 1e3,
        "us",
    );
    m.put(
        "protocol.resp_bytes",
        c.resp_bytes as f64 / requests,
        "bytes",
    );
    m.put(
        "ledger.admit_us",
        per(&["ledger.admit"], embeds) / 1e3,
        "us",
    );
    m.put(
        "ledger.validate_us",
        per(&["ledger.snapshot", "ledger.validate"], c.commits) / 1e3,
        "us",
    );
    m.put(
        "ledger.confirm_us",
        per(&["ledger.confirm"], c.commits) / 1e3,
        "us",
    );
    m.put(
        "ledger.release_us",
        per(
            &[
                "ledger.note_release",
                "ledger.release_usage",
                "ledger.confirm_release",
            ],
            c.releases,
        ) / 1e3,
        "us",
    );
    m.put("ledger.conflicts", per_round(c.conflicts), "count");
    m.put("ledger.log_records", replay.log_records as f64, "count");
    let solve_ns: f64 = spans
        .iter()
        .filter(|s| s.name == "service.solve")
        .map(|s| s.duration_ns() as f64)
        .sum();
    m.put(
        "service.solve_ms",
        if embeds == 0 {
            0.0
        } else {
            solve_ns / embeds as f64 / 1e6
        },
        "ms",
    );
    m.put(
        "service.apply_commit_us",
        per(&["service.apply_commit"], c.commits) / 1e3,
        "us",
    );
    m.put(
        "service.apply_release_us",
        per(&["service.apply_release"], c.releases) / 1e3,
        "us",
    );
    m.put(
        "network.bw_view_ms",
        per(&["network.bw_view"], embeds) / 1e6,
        "ms",
    );
    m.put("network.bw_views", per_round(c.views), "count");
    m.put(
        "network.commit_delta_us",
        per(&["network.commit_delta"], c.commits) / 1e3,
        "us",
    );
    m.put("msa.stage1_ms", per(&["msa.stage1"], embeds) / 1e6, "ms");
    m.put("opa.stage2_ms", per(&["opa.stage2"], embeds) / 1e6, "ms");
    m.put("api.rest_ms", per(&["service.solve"], embeds) / 1e6, "ms");
    m.put("dist.row_misses", per_round(c.row_misses), "count");
    m.put("dist.row_hits", per_round(c.row_hits), "count");
    m.put("dist.rows_resident", replay.rows_resident as f64, "count");
    m.put("steiner.hits", per_round(c.steiner_hits), "count");
    m.put("steiner.misses", per_round(c.steiner_misses), "count");
    let lookups = c.steiner_hits + c.steiner_misses;
    m.put(
        "steiner.hit_ratio",
        if lookups == 0 {
            0.0
        } else {
            c.steiner_hits as f64 / lookups as f64
        },
        "ratio",
    );
    m.put("steiner.entries", replay.cache_entries as f64, "count");
    Summary {
        metrics: m,
        request_us: request_ns / requests / 1e3,
        layer_sum_us: layer_sum_ns / requests / 1e3,
        timed_request_us: c.request_ns as f64 / requests / 1e3,
        unattributed,
    }
}
