//! # nbkv-core — the non-blocking hybrid key-value store
//!
//! A from-scratch Rust implementation of the system in *"High-Performance
//! Hybrid Key-Value Store on Modern Clusters with RDMA Interconnects and
//! SSDs: Non-blocking Extensions, Designs, and Benefits"* (IPDPS 2016),
//! running on simulated RDMA fabrics ([`nbkv_fabric`]) and SSDs
//! ([`nbkv_storesim`]) in virtual time ([`nbkv_simrt`]).
//!
//! ## Pieces
//!
//! - [`proto`] — the wire protocol, including per-request stage timings.
//! - [`server`] — slab allocation, hash index, per-class LRU, the hybrid
//!   RAM+SSD store with adaptive slab I/O, and the request pipeline that
//!   decouples the communication and memory/SSD phases.
//! - [`client`] — blocking `set`/`get`/`delete` plus the paper's
//!   non-blocking extensions `iset`/`iget`/`bset`/`bget` and the
//!   `wait`/`test` completion calls ([`client::ReqHandle`]).
//! - [`designs`] — factories for the six evaluated designs
//!   (`IPoIB-Mem` … `H-RDMA-Opt-NonB-i`).
//! - [`cluster`] — one-call construction of an N-server M-client cluster.
//!
//! ## Quick start
//!
//! ```
//! use bytes::Bytes;
//! use nbkv_core::cluster::{build_cluster, ClusterConfig};
//! use nbkv_core::designs::Design;
//! use nbkv_simrt::Sim;
//!
//! let sim = Sim::new();
//! let cluster = build_cluster(&sim, &ClusterConfig::new(Design::HRdmaOptNonBI, 16 << 20));
//! let client = cluster.clients[0].clone();
//! sim.run_until(async move {
//!     // Issue non-blocking, overlap with other work, then wait.
//!     let h = client.iset(Bytes::from_static(b"k"), Bytes::from_static(b"v"), 0, None)
//!         .await
//!         .unwrap();
//!     let done = h.wait().await; // memcached_wait
//!     assert!(done.is_success());
//! });
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod cluster;
pub mod costs;
pub mod designs;
pub mod proto;
pub mod replication;
pub mod server;
pub mod util;

pub use client::{
    BackoffSchedule, BatchPolicy, BreakerConfig, Client, ClientConfig, ClientError, Completion,
    DirectPolicy, ReqHandle, ResiliencePolicy, Ring,
};
pub use cluster::{build_cluster, Cluster, ClusterConfig};
pub use costs::CpuCosts;
pub use designs::{Design, SpecParams};
pub use proto::{ApiFlavor, LeaseGeometry, OpStatus, Request, Response, ServedFrom, StageTimes};
pub use replication::{ReadPolicy, ReplicationConfig};
pub use server::{
    HybridStore, IoPolicy, PromotePolicy, RecoveryReport, Server, ServerConfig, StoreConfig,
    StoreKind,
};
