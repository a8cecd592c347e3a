//! Two independent clients sharing one server — the §5 comparison
//! workload (experiment E6).
//!
//! Under the paper's protocol, each client streams its calls and the
//! server services them in arrival order; the clients are causally
//! unrelated, so no ordering constraint ever links them, and wall-clock
//! skew on one client's link cannot invalidate the other's work. The same
//! workload under Time Warp (see `opcsp_timewarp::workloads`) must pick a
//! global total order up front, and the skewed client's stragglers roll
//! back the other client's already-processed requests.

use crate::servers::Server;
use crate::streaming::PutLineClient;
use opcsp_core::{ProcessId, Value};
use opcsp_sim::{LatencyModel, SimBuilder, SimConfig, SimResult};

pub const CLIENT_A: ProcessId = ProcessId(0);
pub const CLIENT_B: ProcessId = ProcessId(1);
pub const SERVER: ProcessId = ProcessId(2);

/// Parameters matching `opcsp_timewarp::TwoClientOpts`.
#[derive(Debug, Clone)]
pub struct ContentionOpts {
    pub n_per_client: u32,
    pub latency: u64,
    /// Extra latency on client A's link to the server.
    pub skew: u64,
}

impl Default for ContentionOpts {
    fn default() -> Self {
        ContentionOpts {
            n_per_client: 8,
            latency: 20,
            skew: 0,
        }
    }
}

/// Run the two-client contention workload under the OPCSP protocol.
pub fn run_contention(opts: ContentionOpts) -> SimResult {
    let mut latency = LatencyModel::per_link(opts.latency);
    if opts.skew > 0 {
        latency = latency.link(CLIENT_A, SERVER, opts.latency + opts.skew);
    }
    let cfg = SimConfig {
        latency: latency.build(),
        ..SimConfig::default()
    };
    let mut b = SimBuilder::new(cfg);
    let a = b.add_process(PutLineClient::to(opts.n_per_client, SERVER));
    let bb = b.add_process(PutLineClient::to(opts.n_per_client, SERVER));
    let s = b.add_process(Server::new("Shared", 1));
    debug_assert_eq!((a, bb, s), (CLIENT_A, CLIENT_B, SERVER));
    b.build().run()
}

/// Requests the server committed, in service order.
pub fn server_requests(result: &SimResult) -> Vec<(ProcessId, Value)> {
    result
        .logs
        .get(&SERVER)
        .map(|log| {
            log.iter()
                .filter_map(|o| match o {
                    opcsp_sim::Observable::Received { from, payload, .. } => {
                        Some((*from, payload.clone()))
                    }
                    _ => None,
                })
                .collect()
        })
        .unwrap_or_default()
}
