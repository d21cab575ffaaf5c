//! One benchmark run: the untraced closed-loop measurement through the
//! workload's front-end, and with tracing on, the traced in-process
//! replay of the same rounds.

use crate::independent;
use crate::report::{mean, median, quantile, Metrics};
use crate::run::{self, Measured};
use crate::spec::{Frontend, Size, Workload};
use crate::stream::{Kind, Stream};
use crate::trace;
use sft_core::{MulticastTask, Sfc, VnfId};
use sft_graph::NodeId;
use std::path::PathBuf;

/// What to run.
pub struct Options {
    /// The `sft` binary.
    pub sft: PathBuf,
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Where server logs, spans and run records go.
    pub out_dir: PathBuf,
}

/// What a run reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The end-to-end metrics, or with tracing on the per-layer ones.
    pub metrics: Metrics,
    /// Host facts that explain a noisy run: output, not metrics.
    pub record: String,
    pub errors: Vec<String>,
}

/// Small Palmetto tasks whose optimum the exact solver can certify.
const THEOREM6_TASKS: &[(usize, &[usize], usize)] = &[
    (0, &[5, 12], 1),
    (3, &[20], 2),
    (7, &[14, 30], 1),
    (11, &[40], 2),
    (22, &[2, 9], 1),
    (30, &[17], 2),
];

/// Branch-and-bound node budget per Theorem 6 task.
const THEOREM6_NODES: usize = 2_000;

/// Measured rounds that the stdin workload also sends through the socket
/// front-end, after the warm-up round: a fixed amount of work (about
/// 3,500 requests), so the check does not double the run.
const CROSS_ROUNDS: u64 = 8;

/// Largest share by which the layer self-times may miss the traced
/// request time measured by the replay's stopwatch: the stopwatch also
/// times the opening of the root span.
const LAYER_SUM_TOLERANCE: f64 = 0.05;

/// The end-to-end metrics of a measured run. Each wall-clock one is taken
/// over the run's quiet rounds for the operations it times
/// ([`Measured::quiet_rounds`]), which every run repeats with the same
/// operation mix: throughput is the median of those rounds' rates, and
/// the round-trip quantiles pool their samples.
pub fn end_to_end(m: &Measured) -> Metrics {
    let ms = |kinds: &[Kind]| -> Vec<f64> {
        m.quiet_rounds(kinds)
            .iter()
            .flat_map(|r| &r.samples)
            .filter(|(k, _)| kinds.contains(k))
            .map(|&(_, ns)| ns as f64 / 1e6)
            .collect()
    };
    let p50 = |kind: Kind| median(&ms(&[kind])).unwrap_or(f64::NAN);
    let every = [Kind::Quote, Kind::Commit, Kind::Release];
    let rates: Vec<f64> = m
        .quiet_rounds(&every)
        .iter()
        .map(|r| r.samples.len() as f64 / r.secs)
        .collect();
    let answered = m.samples().count() as f64;
    let mut out = Metrics::default();
    out.put("setup_s", m.setup_s(), "s");
    out.put("req_per_s", median(&rates).unwrap_or(f64::NAN), "1/s");
    out.put("quote_p50_ms", p50(Kind::Quote), "ms");
    out.put("commit_p50_ms", p50(Kind::Commit), "ms");
    out.put("release_p50_ms", p50(Kind::Release), "ms");
    let embeds = ms(&[Kind::Quote, Kind::Commit]);
    out.put(
        "embed_p90_ms",
        quantile(&embeds, 0.9).unwrap_or(f64::NAN),
        "ms",
    );
    out.put("cpu_ms_per_req", m.cpu_s * 1e3 / answered, "ms");
    out.put("rss_mb", m.rss_mb, "MB");
    out.put("cost_per_embed", mean(&m.costs).unwrap_or(f64::NAN), "cost");
    out
}

/// The commit of the checkout, when it is a git repository.
fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Runs one workload once.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let w = &opts.workload;
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("create {}: {e}", opts.out_dir.display()))?;
    let stream = Stream::generate(w, w.graph()?, opts.seed);
    let (seconds, rounds) = match (opts.size, opts.trace) {
        (Size::Smoke, _) => (0.0, (1, Some(1))),
        // The traced run gives the front-end half the time, then replays
        // the same rounds in-process twice (traced, then untraced).
        (Size::Full, true) => (opts.seconds / 2.0, (1, None)),
        (Size::Full, false) => (opts.seconds, (run::min_rounds(&stream), None)),
    };
    let m = run::measure(&opts.sft, w, &stream, seconds, rounds, &opts.out_dir)?;
    let mut errors = m.errors.clone();

    // Both front-ends must answer the warm-up round and the first measured
    // rounds of the stdin workload byte for byte alike.
    if w.frontend == Frontend::Stdin {
        let rounds = m.rounds.min(CROSS_ROUNDS);
        let digests = run::digests_via(
            &opts.sft,
            w,
            &stream,
            rounds,
            Frontend::Socket,
            &opts.out_dir,
        )?;
        if let Some(r) = (0..digests.len()).find(|&r| digests.get(r) != m.digests.get(r)) {
            errors.push(format!(
                "socket and stdin front-ends answered round {r} of the same stream differently"
            ));
        }
    }

    let mut attempted = m.attempted;
    let mut failed = m.failed;
    let mut extra = String::new();
    let metrics = if !opts.trace {
        end_to_end(&m)
    } else {
        let replay = trace::replay(w, &stream, m.rounds, true)?;
        errors.extend(replay.errors.iter().cloned());
        if replay.probes.0 != replay.probes.1 {
            errors.push("traced replay: probe answers differ before and after".into());
        }
        if replay.probes.0 != m.probes {
            errors.push(
                "traced replay: the in-process network answers probes differently from the server"
                    .into(),
            );
        }
        attempted += replay.warm_requests + replay.counters.requests;
        failed += replay.warm_failed + replay.counters.failed;
        let summary = trace::summarize(&replay, m.rounds);
        if !summary.unattributed.is_empty() {
            errors.push(format!(
                "spans of no layer: {}",
                summary.unattributed.join(", ")
            ));
        }
        // The self-times cover the spans by construction; the stopwatch
        // checks that the spans cover the request, bookkeeping excluded.
        if (summary.layer_sum_us - summary.timed_request_us).abs()
            > LAYER_SUM_TOLERANCE * summary.timed_request_us
        {
            errors.push(format!(
                "layer self-times sum to {} us, the stopwatch gives {} us per traced request",
                summary.layer_sum_us, summary.timed_request_us
            ));
        }
        // One span file per workload, overwritten by its next traced run,
        // so repeated runs do not pile up hundreds of megabytes.
        let spans = opts.out_dir.join(format!("spans-{}.jsonl", w.name));
        replay
            .tracer
            .write(&spans)
            .map_err(|e| format!("write {}: {e}", spans.display()))?;
        // The same rounds once more in-process, untraced: the front-end's
        // share is the round trip minus this, and the tracing overhead is
        // the traced mean minus this.
        let plain = trace::replay(w, &stream, m.rounds, false)?;
        errors.extend(plain.errors.iter().cloned());
        attempted += plain.warm_requests + plain.counters.requests;
        failed += plain.warm_failed + plain.counters.failed;
        let plain_us =
            plain.counters.request_ns as f64 / plain.counters.requests.max(1) as f64 / 1e3;
        let rtt_us = mean(
            &m.samples()
                .map(|&(_, ns)| ns as f64 / 1e3)
                .collect::<Vec<_>>(),
        )
        .unwrap_or(f64::NAN);
        let mut metrics = summary.metrics;
        metrics.put("frontend.overhead_us", rtt_us - plain_us, "us");
        metrics.put("trace.request_us", summary.request_us, "us");
        metrics.put("trace.untraced_request_us", plain_us, "us");
        metrics.put("trace.overhead_us", summary.request_us - plain_us, "us");
        metrics.put(
            "api.repairs",
            replay.counters.repaired as f64 / m.rounds.max(1) as f64,
            "count",
        );
        let t6 = theorem6()?;
        errors.extend(t6.errors.iter().cloned());
        extra = format!(
            ",\"spans\":\"{}\",\"layer_sum_us\":{},\"traced_request_us\":{},\"stopwatch_request_us\":{},\"theorem6_checked\":{},\"theorem6_skipped\":{}",
            spans.display(),
            summary.layer_sum_us,
            summary.request_us,
            summary.timed_request_us,
            t6.checked,
            t6.skipped
        );
        metrics
    };
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let record = format!(
        "{{\"record\":\"svcbench\",\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"host_cores\":{cores},\"git_sha\":\"{}\",\"steal_ticks\":{},\"rounds\":{},\"wall_s\":{},\"cpu_s\":{}{extra}}}",
        w.name,
        opts.seed,
        opts.trace,
        git_sha(),
        m.steal_ticks.map_or("null".to_string(), |t| t.to_string()),
        m.rounds,
        m.wall_s,
        m.cpu_s,
    );
    let complete = metrics.entries.iter().all(|(_, v, _)| v.is_finite());
    if !complete {
        errors.push("a metric could not be computed".into());
    }
    Ok(Outcome {
        correct: errors.is_empty(),
        attempted,
        failed,
        metrics,
        record,
        errors,
    })
}

/// The Theorem 6 check on the seed Palmetto network, whatever the
/// workload: the exact solver certifies small Palmetto tasks quickly.
fn theorem6() -> Result<independent::Theorem6, String> {
    let palmetto =
        Workload::by_name("churn-palmetto-stdin", Size::Full).expect("a listed workload");
    let svc = trace::service_for(&palmetto)?;
    let mut tasks = Vec::new();
    let mut served = Vec::new();
    for &(source, dests, chain) in THEOREM6_TASKS {
        let sfc = Sfc::new((0..chain).map(VnfId).collect::<Vec<_>>()).map_err(|e| e.to_string())?;
        let task = MulticastTask::new(
            NodeId(source),
            dests.iter().map(|&d| NodeId(d)).collect::<Vec<_>>(),
            sfc,
        )
        .map_err(|e| e.to_string())?;
        let result = svc.solve_uncommitted(&task).map_err(|e| e.to_string())?;
        served.push(result.cost.total());
        tasks.push(task);
    }
    Ok(independent::theorem6(
        svc.network(),
        &tasks,
        &served,
        THEOREM6_NODES,
    ))
}
