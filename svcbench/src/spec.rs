//! The three workloads: which front-end serves them, the network the
//! server builds, and the shape of the request stream the benchmark
//! generates for them.

use sft_core::{DistanceMode, Network, VnfCatalog};
use sft_graph::NodeId;

/// Which serving front-end a workload drives.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Frontend {
    /// `sft serve --listen 127.0.0.1:0`: the socket server with its
    /// ledger, admission control and worker pool.
    Socket,
    /// `sft serve` over pipes: the stdin request engine
    /// (`sft_cli::commands::serve_stream`), which keeps no ledger.
    Stdin,
}

/// How big a run is. `Full` is what the benchmark measures; `Smoke` is a
/// tiny size of the same workloads, with every check enabled, for the
/// benchmark's own test.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// Endpoint selection for generated tasks.
#[derive(Copy, Clone, Debug)]
pub enum Endpoints {
    /// Any node, as `sft workload` draws them.
    Any,
    /// Nodes of at least this degree, never an endpoint of a session that
    /// is live at the same time (so saturated links cannot cut one off).
    Disjoint { min_degree: usize },
    /// Sources and destination sets from small recurring pools: multicast
    /// channels with fixed subscriber groups.
    Pools { sources: usize, groups: usize },
}

/// Per-server capacity (`--capacity`), the same in every workload.
pub const CAPACITY: f64 = 3.0;
/// Catalog size (`--sfc`): chains are 1 to `SFC` functions long.
pub const SFC: usize = 3;
/// Socket worker threads (`--workers`).
pub const WORKERS: usize = 2;
/// Stage-1 sweep threads (`--threads`).
pub const THREADS: usize = 2;

/// How the sessions of one round arrive and depart.
#[derive(Copy, Clone, Debug)]
pub enum Arrivals {
    /// Poisson arrivals at rate 1 and exponential holding times of mean
    /// `erlangs`, so `erlangs` Erlangs are offered (`sft workload`
    /// semantics). Only the offered load changes the event order.
    Poisson { erlangs: f64 },
    /// A random walk over live sessions that never has more than `cap`
    /// live at once, so concurrent sessions stay bounded.
    Capped { cap: usize },
}

/// The make-up of one round of a workload's request stream.
#[derive(Clone, Debug)]
pub struct StreamShape {
    /// Sessions that arrive (and later depart) per round, on the churn
    /// connection.
    pub sessions: usize,
    pub arrivals: Arrivals,
    /// Probability that a quote-only price check precedes each churn
    /// event.
    pub quote_share: f64,
    /// Maximum destinations per task (at least one).
    pub max_dests: usize,
    /// Per-session bandwidth demand, uniform over `[lo, hi]`.
    pub bandwidth: Option<(f64, f64)>,
    /// Delay budget as a hop slack over the farthest destination's hop
    /// distance, uniform over `[lo, hi]` hops; links carry unit latency.
    pub budget_slack: Option<(u32, u32)>,
    pub endpoints: Endpoints,
    /// Quotes per round on a second, quote-only connection (0 = single
    /// connection).
    pub reader_quotes: usize,
    /// Pause between requests on the churn connection when a reader
    /// connection runs beside it, in milliseconds.
    pub churn_think_ms: u64,
    /// Open each round with a background session that stays live until
    /// the round's last operation, so every other request meets at least
    /// one live session.
    pub background: bool,
}

/// One benchmark workload.
#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub frontend: Frontend,
    /// `--topology` spec the server builds.
    pub topology: &'static str,
    /// Uniform link latency (`--link-latency`) on top of the spec.
    pub link_latency: Option<f64>,
    /// Stride-spaced NFV servers (`--servers`; 0 = every node).
    pub servers: usize,
    pub distances: &'static str,
    pub shape: StreamShape,
}

/// Names in the order the benchmark lists them.
pub const NAMES: [&str; 3] = [
    "churn-wax800-qos",
    "readmostly-wax5000-lazy",
    "churn-palmetto-stdin",
];

impl Workload {
    /// Looks a workload up by name, at the given size.
    pub fn by_name(name: &str, size: Size) -> Option<Workload> {
        let smoke = size == Size::Smoke;
        Some(match name {
            "churn-wax800-qos" => Workload {
                name: "churn-wax800-qos",
                frontend: Frontend::Socket,
                topology: "waxman:800:7:2:1",
                link_latency: None,
                servers: 64,
                distances: "dense",
                shape: StreamShape {
                    sessions: if smoke { 3 } else { 32 },
                    arrivals: Arrivals::Capped { cap: 3 },
                    quote_share: 0.3,
                    max_dests: 3,
                    bandwidth: Some((1.05, 1.5)),
                    budget_slack: Some((8, 11)),
                    endpoints: Endpoints::Disjoint { min_degree: 8 },
                    reader_quotes: 0,
                    churn_think_ms: 0,
                    background: true,
                },
            },
            "readmostly-wax5000-lazy" => Workload {
                name: "readmostly-wax5000-lazy",
                frontend: Frontend::Socket,
                topology: "waxman:5000:7",
                link_latency: None,
                servers: 64,
                distances: "lazy",
                shape: StreamShape {
                    sessions: if smoke { 2 } else { 24 },
                    arrivals: Arrivals::Capped { cap: 4 },
                    quote_share: 0.0,
                    max_dests: 4,
                    bandwidth: None,
                    budget_slack: None,
                    endpoints: Endpoints::Pools {
                        sources: 12,
                        groups: 24,
                    },
                    reader_quotes: if smoke { 40 } else { 600 },
                    churn_think_ms: 5,
                    background: false,
                },
            },
            "churn-palmetto-stdin" => Workload {
                name: "churn-palmetto-stdin",
                frontend: Frontend::Stdin,
                topology: "palmetto",
                link_latency: None,
                servers: 0,
                distances: "dense",
                shape: StreamShape {
                    sessions: if smoke { 12 } else { 150 },
                    arrivals: Arrivals::Poisson { erlangs: 8.0 },
                    quote_share: 0.3,
                    max_dests: 4,
                    bandwidth: None,
                    budget_slack: None,
                    endpoints: Endpoints::Any,
                    reader_quotes: 0,
                    churn_think_ms: 0,
                    background: false,
                },
            },
            _ => return None,
        })
    }

    /// The `sft serve` flags that build this workload's network.
    fn network_args(&self) -> Vec<String> {
        let mut args = vec![
            "--topology".to_string(),
            self.topology.to_string(),
            "--distances".to_string(),
            self.distances.to_string(),
            "--capacity".to_string(),
            CAPACITY.to_string(),
            "--sfc".to_string(),
            SFC.to_string(),
            "--threads".to_string(),
            THREADS.to_string(),
        ];
        if self.servers > 0 {
            args.push("--servers".to_string());
            args.push(self.servers.to_string());
        }
        if let Some(lat) = self.link_latency {
            args.push("--link-latency".to_string());
            args.push(lat.to_string());
        }
        args
    }

    /// The same workload on uncapacitated links (latency kept), for the
    /// reference figure that sizes the cost of per-request bandwidth
    /// views. Only `churn-wax800-qos` has capacitated links.
    pub fn uncapacitated(mut self) -> Option<Workload> {
        if self.topology != "waxman:800:7:2:1" {
            return None;
        }
        self.topology = "waxman:800:7";
        self.link_latency = Some(1.0);
        Some(self)
    }

    /// The full `sft` argument list for this workload's front-end.
    pub fn serve_args(&self, frontend: Frontend) -> Vec<String> {
        let mut args = vec!["serve".to_string()];
        args.extend(self.network_args());
        if frontend == Frontend::Socket {
            args.extend([
                "--listen".to_string(),
                "127.0.0.1:0".to_string(),
                "--workers".to_string(),
                WORKERS.to_string(),
            ]);
        }
        args
    }

    /// The topology the server builds.
    pub fn graph(&self) -> Result<sft_graph::Graph, String> {
        let mut graph =
            sft_cli::topology_spec::build(self.topology, 0).map_err(|e| e.to_string())?;
        if let Some(lat) = self.link_latency {
            sft_cli::topology_spec::apply_uniform_latency(&mut graph, lat)
                .map_err(|e| e.to_string())?;
        }
        Ok(graph)
    }

    /// Builds the same network the server builds from
    /// [`Workload::network_args`], for the traced in-process replay. The
    /// probe answers of the two are compared byte for byte, which checks
    /// that this mirror matches the served network.
    pub fn build_network(&self) -> Result<Network, String> {
        let graph = self.graph()?;
        let n = graph.node_count();
        let mode: DistanceMode = self
            .distances
            .parse()
            .map_err(|_| format!("bad distance mode {}", self.distances))?;
        let mut builder = Network::builder(graph, VnfCatalog::uniform(SFC)).distance_mode(mode);
        builder = if self.servers == 0 || self.servers >= n {
            builder.all_servers(CAPACITY).map_err(|e| e.to_string())?
        } else {
            let stride = n / self.servers;
            for i in 0..self.servers {
                builder = builder
                    .server(NodeId(i * stride), CAPACITY)
                    .map_err(|e| e.to_string())?;
            }
            builder
        };
        builder
            .uniform_setup_cost(1.0)
            .map_err(|e| e.to_string())?
            .build()
            .map_err(|e| e.to_string())
    }
}
