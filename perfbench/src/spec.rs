//! The four traffic mixes. Every workload runs 2 servers and 2 clients in
//! one simulation; each client is a closed loop over its own key and op
//! stream (see [`crate::drive`]).

use nbkv_core::cluster::ClusterConfig;
use nbkv_core::{BatchPolicy, Design, DirectPolicy, ReadPolicy, ReplicationConfig};
use nbkv_workload::AccessPattern;

/// Server nodes in every workload.
pub const SERVERS: usize = 2;
/// Client nodes in every workload.
pub const CLIENTS: usize = 2;
/// Fewest samples any op type may have in one measured phase, so that
/// p99.9 has at least ten samples beyond it.
pub const MIN_SAMPLES: u64 = 10_000;
/// Distinct value buffers per workload (the paper's microbenchmarks reuse
/// registered buffers; [`nbkv_workload::ValuePool`] hands them out).
pub const POOL: usize = 8;

const KIB: usize = 1 << 10;
const MIB: u64 = 1 << 20;

/// How a client issues its ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Api {
    /// `iset`/`iget` with at most `window` ops outstanding: the oldest is
    /// reaped before the next one is issued.
    NonBlocking {
        /// Outstanding ops per client.
        window: usize,
    },
    /// `group` ops through `iset`/`iget`, then the batching doorbell
    /// (`flush_batches`), then the whole group is reaped.
    Batched {
        /// Ops per doorbell group.
        group: usize,
    },
    /// Blocking `set`/`get`: one op outstanding.
    Blocking,
}

/// One workload: the cluster shape and the load each client generates.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Workload name, as given on the command line.
    pub name: &'static str,
    /// Which of the paper's designs the servers and clients run.
    pub design: Design,
    /// Client API and concurrency.
    pub api: Api,
    /// Value size in bytes.
    pub value_len: usize,
    /// Preloaded data, summed over all keys.
    pub data_bytes: u64,
    /// RAM slab budget per server.
    pub mem_per_server: u64,
    /// Key popularity.
    pub pattern: AccessPattern,
    /// GET share of the op mix, in percent.
    pub read_pct: u8,
    /// One-sided GET policy.
    pub direct: DirectPolicy,
    /// Client doorbell batching.
    pub batch: Option<BatchPolicy>,
    /// Replication factor and read policy.
    pub replication: ReplicationConfig,
    /// Measured ops per client.
    pub ops_per_client: usize,
}

impl Spec {
    /// Distinct keys (all of them preloaded).
    pub fn keys(&self) -> usize {
        (self.data_bytes / self.value_len as u64).max(1) as usize
    }

    /// The cluster this workload runs on.
    pub fn cluster_config(&self) -> ClusterConfig {
        let mut cfg = ClusterConfig::new(self.design, self.mem_per_server);
        cfg.servers = SERVERS;
        cfg.clients = CLIENTS;
        cfg.client.direct = self.direct;
        cfg.client.batch = self.batch;
        cfg.replication = self.replication;
        cfg
    }

    /// The same workload with data, RAM and op count divided by
    /// `divisor`, for the self-tests. RAM keeps at least 2 MiB (two slab
    /// pages) per server.
    pub fn shrunk(mut self, divisor: u64) -> Spec {
        self.data_bytes /= divisor;
        self.mem_per_server = (self.mem_per_server / divisor).max(2 * MIB);
        self.ops_per_client /= divisor as usize;
        self
    }
}

/// Every workload, in the order of `BENCHMARK.json`.
pub fn all() -> [Spec; 4] {
    [
        // Data is 1.5x RAM with a uniform pattern, so eviction flushes and
        // SSD reads sit on the critical path; 32 KiB values exceed the
        // 4 KiB inline threshold, so every SET pays MR registration.
        Spec {
            name: "ssd-spill-32k",
            design: Design::HRdmaOptNonBI,
            api: Api::NonBlocking { window: 64 },
            value_len: 32 * KIB,
            data_bytes: 96 * MIB,
            mem_per_server: 32 * MIB,
            pattern: AccessPattern::Uniform,
            read_pct: 50,
            direct: DirectPolicy::Off,
            batch: None,
            replication: ReplicationConfig::disabled(),
            ops_per_client: 12_000,
        },
        // The one-sided read path: small inline values, no SSD traffic.
        Spec {
            name: "ram-read-direct-1k",
            design: Design::HRdmaOptNonBI,
            api: Api::NonBlocking { window: 64 },
            value_len: KIB,
            data_bytes: 32 * MIB,
            mem_per_server: 64 * MIB,
            pattern: AccessPattern::Zipf(0.99),
            read_pct: 90,
            direct: DirectPolicy::Adaptive,
            batch: None,
            replication: ReplicationConfig::disabled(),
            ops_per_client: 60_000,
        },
        // The write path beside the previous workload's reads: client
        // coalescing, batch frames, server batch dispatch, RAM sets.
        Spec {
            name: "batch-write-1k",
            design: Design::HRdmaOptNonBI,
            api: Api::Batched { group: 16 },
            value_len: KIB,
            data_bytes: 32 * MIB,
            mem_per_server: 64 * MIB,
            pattern: AccessPattern::Zipf(0.99),
            read_pct: 10,
            direct: DirectPolicy::Off,
            batch: Some(BatchPolicy::default()),
            replication: ReplicationConfig::disabled(),
            ops_per_client: 60_000,
        },
        // The blocking path, client resilience and replication.
        Spec {
            name: "repl-block-4k",
            design: Design::HRdmaOptBlock,
            api: Api::Blocking,
            value_len: 4 * KIB,
            data_bytes: 32 * MIB,
            mem_per_server: 64 * MIB,
            pattern: AccessPattern::Zipf(0.99),
            read_pct: 50,
            direct: DirectPolicy::Off,
            batch: None,
            replication: ReplicationConfig {
                rf: 2,
                read_policy: ReadPolicy::SpreadReplicas,
            },
            ops_per_client: 12_000,
        },
    ]
}

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<Spec> {
    all().into_iter().find(|s| s.name == name)
}
