//! The untraced, closed-loop run through a real front-end: set-up timing,
//! the measured phase, and the checks on every answer.

use crate::check::{self, Verdict};
use crate::drive::{steal_ticks, Link, Server};
use crate::report::{median, quietest};
use crate::spec::{Frontend, Workload};
use crate::stream::{Kind, Op, Round, Stream};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server starts per run at least; `setup_s` is the median of the
/// quieter half ([`Measured::setup_s`]).
pub const SETUP_STARTS: usize = 15;

/// Servers that start in milliseconds are started again until the starts
/// and stops have taken this long, so that their median is not at the
/// mercy of a few slow process launches.
const SETUP_SECONDS: f64 = 3.0;

/// Server starts per run at most.
const SETUP_STARTS_MAX: usize = 400;

/// Quote and commit samples every run collects at least, so that at
/// least ten lie beyond the p90.
pub const MIN_EMBEDS: usize = 100;

/// Share of the measured rounds, the quietest, that a wall-clock metric
/// is taken over at least. In 20-second runs of readmostly-wax5000-lazy
/// on a 2-vCPU VM, rounds in which the host stole 20-90 ticks had a p90
/// of 2.6-5.2 ms, rounds with 0-3 ticks one of 1.4-1.7 ms, and the
/// quietest quarter of a run with 1,586 steal ticks still spread the p90
/// by half between runs.
pub const QUIET_SHARE: f64 = 0.1;

/// Samples a wall-clock metric is taken over at least. A release on
/// readmostly-wax5000-lazy waits for the quote in flight, so its round
/// trips spread from 0.08 to 1.4 ms and the median of one round's 24
/// moved between 0.24 and 0.67 ms.
pub const QUIET_SAMPLES: usize = 600;

/// Everything one lane of one round produced.
#[derive(Default)]
struct LaneOutcome {
    samples: Vec<(Kind, u64)>,
    failed: u64,
    costs: Vec<f64>,
    commits: u64,
    releases: u64,
    errors: Vec<String>,
    /// Digest of the lane's answer lines, in order.
    digest: u64,
}

impl LaneOutcome {
    fn absorb(&mut self, other: LaneOutcome) {
        self.samples.extend(other.samples);
        self.failed += other.failed;
        self.costs.extend(other.costs);
        self.commits += other.commits;
        self.releases += other.releases;
        self.errors.extend(other.errors);
    }
}

/// One measured round.
pub struct RoundStats {
    pub secs: f64,
    /// The host's CPU steal ticks while the round ran (`None` when
    /// `/proc/stat` cannot be read).
    pub steal: Option<u64>,
    /// Every round trip of the round, in nanoseconds.
    pub samples: Vec<(Kind, u64)>,
}

/// The result of one measured run.
pub struct Measured {
    /// Each server start's set-up time in seconds, with the host's CPU
    /// steal ticks while it ran.
    pub setup: Vec<(f64, Option<u64>)>,
    /// Measured rounds, after the warm-up round.
    pub rounds: u64,
    /// Measured rounds every run completes at least.
    pub min_rounds: u64,
    /// Operations sent, the warm-up round's included.
    pub attempted: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub rss_mb: f64,
    pub per_round: Vec<RoundStats>,
    pub failed: u64,
    pub costs: Vec<f64>,
    /// Broken properties; empty on a correct run.
    pub errors: Vec<String>,
    /// Digest of the churn lane's answers in each round, the warm-up
    /// round first.
    pub digests: Vec<u64>,
    /// Probe answers before the first operation.
    pub probes: Vec<String>,
    pub steal_ticks: Option<u64>,
}

impl Measured {
    /// Every measured round trip, in nanoseconds.
    pub fn samples(&self) -> impl Iterator<Item = &(Kind, u64)> {
        self.per_round.iter().flat_map(|r| &r.samples)
    }

    /// The rounds a wall-clock metric over the operations of `kinds` is
    /// taken over: those in which the host stole the least CPU per
    /// second, until they are at least the [`QUIET_SHARE`] of the
    /// measured rounds and [`Measured::min_rounds`] and hold
    /// [`QUIET_SAMPLES`] operations of `kinds` (or every round), with
    /// every round that ties the last one taken.
    /// Steal stretches every round trip it hits and comes in bursts of a
    /// few seconds, while a change to the program moves every round
    /// alike. Without steal counts, every round.
    pub fn quiet_rounds(&self, kinds: &[Kind]) -> Vec<&RoundStats> {
        let rates: Vec<Option<f64>> = self
            .per_round
            .iter()
            .map(|r| r.steal.map(|t| t as f64 / r.secs.max(1e-9)))
            .collect();
        let rounds = ((self.per_round.len() as f64 * QUIET_SHARE).ceil() as usize)
            .max(self.min_rounds as usize);
        let count = |r: &RoundStats| r.samples.iter().filter(|(k, _)| kinds.contains(k)).count();
        quietest(&rates, |taken| {
            taken.len() >= rounds
                && taken
                    .iter()
                    .map(|&i| count(&self.per_round[i]))
                    .sum::<usize>()
                    >= QUIET_SAMPLES
        })
        .into_iter()
        .map(|i| &self.per_round[i])
        .collect()
    }

    /// The set-up time: the median over the quieter half of the server
    /// starts, by CPU steal per second, for the same reason as
    /// [`Measured::quiet_rounds`].
    pub fn setup_s(&self) -> f64 {
        let rates: Vec<Option<f64>> = self
            .setup
            .iter()
            .map(|&(secs, steal)| steal.map(|t| t as f64 / secs.max(1e-9)))
            .collect();
        let half = self.setup.len().div_ceil(2);
        let quiet: Vec<f64> = quietest(&rates, |taken| taken.len() >= half)
            .into_iter()
            .map(|i| self.setup[i].0)
            .collect();
        median(&quiet).unwrap_or(f64::NAN)
    }
}

/// Runs one lane of one round over `link`, checking every answer.
fn run_lane(link: &mut Link, round: &Round, lane: usize) -> LaneOutcome {
    let mut out = LaneOutcome::default();
    let mut digest = DefaultHasher::new();
    let think = Duration::from_millis(round.lanes[lane].think_ms);
    for (i, op) in round.lanes[lane].ops.iter().enumerate() {
        if i > 0 && !think.is_zero() {
            std::thread::sleep(think);
        }
        let line = round.line(lane, i);
        let id = round.id(lane, i);
        let session = round.session(lane, i);
        let sent = Instant::now();
        let answer = match link.call(&line) {
            Ok(a) => a,
            Err(e) => {
                out.errors.push(format!("request {id}: {e}"));
                return out;
            }
        };
        out.samples
            .push((op.kind(), sent.elapsed().as_nanos() as u64));
        match check::answer(op, id, session, answer) {
            Ok(Verdict::Embedded { total }) => {
                out.costs.push(total);
                out.commits += u64::from(matches!(op, Op::Commit(_)));
            }
            Ok(Verdict::Released) => out.releases += 1,
            Ok(Verdict::Failed(why)) => {
                out.failed += 1;
                if out.failed <= 3 {
                    eprintln!("svcbench: request {id} failed: {why}");
                }
            }
            Err(e) => out.errors.push(e),
        }
        answer.hash(&mut digest);
    }
    out.digest = digest.finish();
    out
}

/// Sends the probe quotes and returns their answers.
pub fn probe(link: &mut Link, stream: &Stream) -> Result<Vec<String>, String> {
    stream
        .probes
        .iter()
        .map(|p| {
            link.call(&p.to_json())
                .map(str::to_string)
                .map_err(|e| format!("probe: {e}"))
        })
        .collect()
}

/// Starts the server [`SETUP_STARTS`] times, and more until
/// [`SETUP_SECONDS`] have passed, keeping the last one; returns it with
/// every set-up time and the host's CPU steal ticks while it ran.
pub fn start_timed(
    sft: &Path,
    workload: &Workload,
    frontend: Frontend,
    out_dir: &Path,
) -> Result<(Server, Vec<(f64, Option<u64>)>), String> {
    let log = out_dir.join(format!("{}-server.log", workload.name));
    let mut times = Vec::with_capacity(SETUP_STARTS);
    let started = Instant::now();
    loop {
        let steal0 = steal_ticks();
        let (server, took) = Server::start(sft, workload, frontend, &log)?;
        let steal = match (steal0, steal_ticks()) {
            (Some(a), Some(b)) => Some(b.saturating_sub(a)),
            _ => None,
        };
        times.push((took.as_secs_f64(), steal));
        let enough =
            times.len() >= SETUP_STARTS && started.elapsed().as_secs_f64() >= SETUP_SECONDS;
        if enough || times.len() == SETUP_STARTS_MAX {
            return Ok((server, times));
        }
        server.stop()?;
    }
}

/// Rounds needed for [`MIN_EMBEDS`] quote and commit samples (every
/// round has the same mix).
pub fn min_rounds(stream: &Stream) -> u64 {
    MIN_EMBEDS.div_ceil(stream.round(0).embeds().max(1)) as u64
}

/// Runs the warm-up round, then whole measured rounds until `seconds`
/// have passed (and at least `rounds.0`, and no more than `rounds.1` if
/// given), through the workload's own front-end.
pub fn measure(
    sft: &Path,
    workload: &Workload,
    stream: &Stream,
    seconds: f64,
    rounds: (u64, Option<u64>),
    out_dir: &Path,
) -> Result<Measured, String> {
    let (mut server, setup) = start_timed(sft, workload, workload.frontend, out_dir)?;
    let mut errors = Vec::new();
    let mut link = server.link.take().expect("a started server has a link");
    let before = probe(&mut link, stream)?;
    let two_lanes = stream.round(0).lanes.len() == 2;
    let mut reader = match &server.addr {
        Some(addr) if two_lanes => {
            Some(Link::connect(addr).map_err(|e| format!("second connection: {e}"))?)
        }
        _ => None,
    };

    // Round 0 warms the Steiner cache and the distance rows untimed: a
    // long-running server pays that cost once, not on every request. Its
    // answers are checked and counted like any others.
    let warm = stream.round(0);
    let mut total = run_lane(&mut link, &warm, 0);
    let mut digests = vec![total.digest];
    if let Some(reader) = reader.as_mut() {
        total.absorb(run_lane(reader, &warm, 1));
    }
    let warm_ops = total.samples.len() as u64;
    total.samples.clear();
    total.costs.clear();

    let steal0 = steal_ticks();
    let cpu0 = server.cpu_seconds()?;
    let started = Instant::now();
    let mut paused = Duration::ZERO;
    let mut round = 1u64;
    let mut per_round = Vec::new();
    let mut rss = None;
    std::thread::scope(|scope| {
        // The quote-only lane runs on one helper thread, one round per
        // message, so each round ends when both lanes are done.
        let (go_tx, go_rx) = mpsc::channel::<Arc<Round>>();
        let (done_tx, done_rx) = mpsc::channel::<LaneOutcome>();
        let helper = reader.as_mut().map(|reader| {
            scope.spawn(move || {
                for r in go_rx {
                    if done_tx.send(run_lane(reader, &r, 1)).is_err() {
                        return;
                    }
                }
            })
        });
        let mut next = Arc::new(stream.round(1));
        loop {
            let current = next;
            let round_started = Instant::now();
            let round_steal = steal_ticks();
            if helper.is_some() {
                go_tx
                    .send(Arc::clone(&current))
                    .expect("helper thread is alive");
            }
            let mut outcome = run_lane(&mut link, &current, 0);
            digests.push(outcome.digest);
            if helper.is_some() {
                outcome.absorb(done_rx.recv().expect("helper thread answers every round"));
            }
            per_round.push(RoundStats {
                secs: round_started.elapsed().as_secs_f64(),
                steal: match (round_steal, steal_ticks()) {
                    (Some(a), Some(b)) => Some(b.saturating_sub(a)),
                    _ => None,
                },
                samples: outcome.samples.clone(),
            });
            total.absorb(outcome);
            if round == rounds.0 {
                // Memory after a fixed amount of work, whatever the
                // host's speed: every run completes `rounds.0` rounds.
                rss = Some(server.peak_rss_mb());
            }
            round += 1;
            // Drawing the next round is the client's work, not the
            // server's: it is left out of the measured time.
            let drawing = Instant::now();
            next = Arc::new(stream.round(round));
            paused += drawing.elapsed();
            let elapsed = (started.elapsed() - paused).as_secs_f64();
            let measured = round - 1;
            let enough = measured >= rounds.0 && elapsed >= seconds;
            if !total.errors.is_empty() || enough || rounds.1.is_some_and(|max| measured >= max) {
                break;
            }
        }
        drop(go_tx);
    });
    let wall_s = (started.elapsed() - paused).as_secs_f64();
    let cpu_s = server.cpu_seconds()? - cpu0;
    let steal = match (steal0, steal_ticks()) {
        (Some(a), Some(b)) => Some(b.saturating_sub(a)),
        _ => None,
    };
    errors.append(&mut total.errors);

    let after = probe(&mut link, stream)?;
    if before != after {
        errors.push(
            "leak check: probe answers differ before the first and after the last release".into(),
        );
    }
    if total.commits != total.releases {
        errors.push(format!(
            "leak check: {} commits but {} releases",
            total.commits, total.releases
        ));
    }
    let rss_mb = match rss {
        Some(r) => r?,
        None => server.peak_rss_mb()?,
    };
    server.link = Some(link);
    drop(reader);
    server.stop()?;
    Ok(Measured {
        setup,
        rounds: round - 1,
        min_rounds: rounds.0,
        attempted: warm_ops + total.samples.len() as u64,
        wall_s,
        cpu_s,
        rss_mb,
        per_round,
        failed: total.failed,
        costs: total.costs,
        errors,
        digests,
        probes: before,
        steal_ticks: steal,
    })
}

/// Replays the churn lane of rounds `0..=rounds` through `frontend` and
/// returns each round's answer digest (for the socket/stdin identity
/// check).
pub fn digests_via(
    sft: &Path,
    workload: &Workload,
    stream: &Stream,
    rounds: u64,
    frontend: Frontend,
    out_dir: &Path,
) -> Result<Vec<u64>, String> {
    let log = out_dir.join(format!("{}-cross.log", workload.name));
    let (mut server, _) = Server::start(sft, workload, frontend, &log)?;
    let mut link = server.link.take().expect("a started server has a link");
    let mut digests = Vec::new();
    for index in 0..=rounds {
        let outcome = run_lane(&mut link, &stream.round(index), 0);
        if let Some(e) = outcome.errors.first() {
            return Err(e.clone());
        }
        digests.push(outcome.digest);
    }
    server.link = Some(link);
    server.stop()?;
    Ok(digests)
}
