//! In-process simulated cluster builder: N servers, M clients, one fabric.

use std::rc::Rc;
use std::time::Duration;

use nbkv_fabric::{Fabric, FabricProfile, FaultPlan, FaultStats, LinkFaultHandle};
use nbkv_simrt::{Sim, SimTime};
use nbkv_storesim::{
    DeviceProfile, HostModel, SlabIo, SlabIoConfig, SsdDevice, SsdFaultPlan, SsdFaultStats,
};

use crate::client::{Client, ClientConfig, DirectPolicy, Ring};
use crate::costs::CpuCosts;
use crate::designs::{Design, SpecParams};
use crate::replication::ReplicationConfig;
use crate::server::Server;

/// One scripted server crash (and optional warm restart) in virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashEvent {
    /// Index of the server that crashes.
    pub server: usize,
    /// When the crash happens.
    pub at: Duration,
    /// When the warm restart happens (`None` leaves the node down).
    pub restart_at: Option<Duration>,
}

/// Deterministic chaos schedule for a whole cluster.
///
/// Fault plans given here are *templates*: `build_cluster` re-derives each
/// link's and device's seed from [`seed`](Self::seed) plus its topology
/// coordinates, so faults are decorrelated across links but the entire
/// schedule replays bit-for-bit for a fixed config.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosConfig {
    /// Base seed for all per-link / per-device derivations.
    pub seed: u64,
    /// Fault plan applied to every link, both directions.
    pub link_faults: Option<FaultPlan>,
    /// Fault plan applied to every SSD device (hybrid designs).
    pub ssd_faults: Option<SsdFaultPlan>,
    /// Scripted crash/restart events.
    pub crashes: Vec<CrashEvent>,
}

impl ChaosConfig {
    /// True if this config perturbs nothing.
    pub fn is_quiet(&self) -> bool {
        self.link_faults.is_none() && self.ssd_faults.is_none() && self.crashes.is_empty()
    }
}

/// Cluster configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Which of the paper's designs to instantiate.
    pub design: Design,
    /// Number of server nodes.
    pub servers: usize,
    /// Number of client nodes (each fully connected to all servers).
    pub clients: usize,
    /// RAM slab budget per server.
    pub server_mem_bytes: u64,
    /// SSD byte budget per server (hybrid designs).
    pub ssd_capacity: u64,
    /// SSD hardware profile (hybrid designs).
    pub device: DeviceProfile,
    /// Host cost model for the I/O schemes.
    pub host: HostModel,
    /// OS page-cache / mmap residency budget per server. The paper's
    /// nodes have 64-128 GB of RAM around a 1 GB Memcached, so the OS
    /// cache comfortably holds the SSD spill; the default models that
    /// with 8x the slab budget (the cache only occupies real host memory
    /// for pages actually written).
    pub os_cache_bytes: u64,
    /// CPU cost model.
    pub costs: CpuCosts,
    /// Client configuration.
    pub client: ClientConfig,
    /// Override the transport profile the design would normally pick
    /// (e.g. to add jitter or change bandwidth for sensitivity studies).
    pub fabric_override: Option<FabricProfile>,
    /// Deterministic fault-injection schedule (quiet by default).
    pub chaos: ChaosConfig,
    /// Primary–replica replication. The default
    /// ([`ReplicationConfig::disabled`]) keeps every key single-copy;
    /// with `rf > 1` the builder wires a full server-to-server mesh,
    /// enables each server's replication engine, and copies the config
    /// into every client so routing agrees on the replica sets.
    pub replication: ReplicationConfig,
}

impl ClusterConfig {
    /// A single-server single-client cluster of `design` with the given
    /// memory budget — the paper's latency-experiment shape.
    pub fn new(design: Design, server_mem_bytes: u64) -> Self {
        ClusterConfig {
            design,
            servers: 1,
            clients: 1,
            server_mem_bytes,
            ssd_capacity: 16 * server_mem_bytes,
            device: nbkv_storesim::sata_ssd(),
            host: HostModel::default_host(),
            os_cache_bytes: 8 * server_mem_bytes,
            costs: CpuCosts::default_costs(),
            client: ClientConfig::default(),
            fabric_override: None,
            chaos: ChaosConfig::default(),
            replication: ReplicationConfig::disabled(),
        }
    }
}

/// A built cluster.
pub struct Cluster {
    /// The servers, index-aligned with every client's ring.
    pub servers: Vec<Rc<Server>>,
    /// The clients.
    pub clients: Vec<Rc<Client>>,
    /// Per-server SSD devices (empty for in-memory designs).
    pub devices: Vec<Rc<SsdDevice>>,
    /// Fault handles for every fabric link (both directions of every
    /// client-server connection). These hold no send half, so they never
    /// keep a connection alive past its endpoints.
    pub links: Vec<LinkFaultHandle>,
}

impl Cluster {
    /// Merged fault counters over every fabric link.
    pub fn fabric_fault_stats(&self) -> FaultStats {
        self.links
            .iter()
            .fold(FaultStats::default(), |acc, l| acc.merge(&l.fault_stats()))
    }

    /// Merged fault counters over every SSD device.
    pub fn ssd_fault_stats(&self) -> SsdFaultStats {
        self.devices
            .iter()
            .fold(SsdFaultStats::default(), |acc, d| {
                acc.merge(&d.fault_stats())
            })
    }
}

/// Decorrelate a per-entity seed from the chaos base seed and topology
/// coordinates (pure splitmix-style mix; stable across runs).
fn derive_seed(base: u64, a: u64, b: u64) -> u64 {
    let mut x =
        base ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Build a cluster on `sim`: creates the fabric, the per-server SSDs (for
/// hybrid designs), the servers, and fully-connected clients.
pub fn build_cluster(sim: &Sim, cfg: &ClusterConfig) -> Cluster {
    assert!(cfg.servers > 0 && cfg.clients > 0);
    let profile = cfg
        .fabric_override
        .unwrap_or_else(|| cfg.design.fabric_profile());
    let fabric = Fabric::new(sim, profile);
    let mut server_cfg = cfg.design.server_config(SpecParams {
        mem_bytes: cfg.server_mem_bytes,
        ssd_capacity: cfg.ssd_capacity,
        costs: cfg.costs,
    });
    // Publish one-sided descriptor tables when the client's direct-read
    // policy can use them.
    server_cfg.onesided = cfg.client.direct != DirectPolicy::Off;

    let mut servers = Vec::with_capacity(cfg.servers);
    let mut devices = Vec::new();
    for si in 0..cfg.servers {
        let ssd = if cfg.design.is_hybrid() {
            let dev = SsdDevice::new(sim, cfg.device);
            if let Some(template) = &cfg.chaos.ssd_faults {
                let mut plan = template.clone();
                plan.seed = derive_seed(cfg.chaos.seed, si as u64, 0xD15C);
                dev.set_fault_plan(Some(plan));
            }
            devices.push(Rc::clone(&dev));
            Some(SlabIo::new(
                sim,
                dev,
                SlabIoConfig {
                    cache_bytes: cfg.os_cache_bytes,
                    mmap_resident_bytes: cfg.os_cache_bytes,
                    host: cfg.host,
                },
            ))
        } else {
            None
        };
        servers.push(Server::new(sim, server_cfg, ssd));
    }

    let mut links = Vec::new();

    // Server-to-server replication mesh: one directional link per ordered
    // pair (i -> j) carrying i's Replicate frames and j's acks back. The
    // receiving side is a plain `accept`, so replication traffic rides the
    // same request pipeline (and doorbell batching) as client traffic.
    if cfg.replication.is_replicated() && cfg.servers > 1 {
        let ring = Ring::new(cfg.servers);
        for i in 0..cfg.servers {
            let mut peers = Vec::with_capacity(cfg.servers - 1);
            for (j, target) in servers.iter().enumerate() {
                if j == i {
                    continue;
                }
                let (i_side, j_side) = fabric.connect();
                let pair = (i * cfg.servers + j) as u64;
                if let Some(template) = &cfg.chaos.link_faults {
                    let mut fwd = template.clone();
                    fwd.seed = derive_seed(cfg.chaos.seed, pair, 0x525);
                    i_side.set_fault_plan(Some(fwd));
                    let mut ack = template.clone();
                    ack.seed = derive_seed(cfg.chaos.seed, pair, 0x5AC);
                    j_side.set_fault_plan(Some(ack));
                }
                links.push(i_side.sender_link().fault_handle());
                links.push(j_side.sender_link().fault_handle());
                target.accept(j_side);
                peers.push((j, i_side));
            }
            servers[i].enable_replication(i, ring.clone(), cfg.replication.rf, peers);
        }
    }

    // Clients must agree with the servers on the replica sets.
    let mut client_cfg = cfg.client;
    client_cfg.replication = cfg.replication;

    let mut clients = Vec::with_capacity(cfg.clients);
    for ci in 0..cfg.clients {
        let mut transports = Vec::with_capacity(cfg.servers);
        let mut qps = Vec::with_capacity(cfg.servers);
        for (si, server) in servers.iter().enumerate() {
            let (client_side, server_side) = fabric.connect();
            let pair = (ci * cfg.servers + si) as u64;
            if let Some(template) = &cfg.chaos.link_faults {
                let mut c2s = template.clone();
                c2s.seed = derive_seed(cfg.chaos.seed, pair, 0xC25);
                client_side.set_fault_plan(Some(c2s));
                let mut s2c = template.clone();
                s2c.seed = derive_seed(cfg.chaos.seed, pair, 0x52C);
                server_side.set_fault_plan(Some(s2c));
            }
            links.push(client_side.sender_link().fault_handle());
            links.push(server_side.sender_link().fault_handle());
            server.accept(server_side);
            transports.push(client_side);
            // A one-sided queue pair bound to the server's index window,
            // for clients configured to read past the server CPU. The
            // server half is dropped: one-sided reads are served by the
            // window itself, not a peer task.
            let qp = match (cfg.client.direct != DirectPolicy::Off, server.onesided()) {
                (true, Some(idx)) => {
                    let (qp_c, _qp_s) = fabric.connect_qp();
                    qp_c.bind_peer_window(idx.window());
                    if let Some(template) = &cfg.chaos.link_faults {
                        let mut plan = template.clone();
                        plan.seed = derive_seed(cfg.chaos.seed, pair, 0x05D);
                        qp_c.set_onesided_faults(Some(plan));
                    }
                    Some(qp_c)
                }
                _ => None,
            };
            qps.push(qp);
        }
        clients.push(Client::new_with_onesided(sim, transports, qps, client_cfg));
    }

    // Scripted crashes and warm restarts.
    for ev in &cfg.chaos.crashes {
        schedule_crash(
            sim,
            &servers,
            &clients,
            *ev,
            cfg.replication.is_replicated(),
        );
    }

    Cluster {
        servers,
        clients,
        devices,
        links,
    }
}

/// Schedule one scripted crash (and optional warm restart) of a cluster
/// server, with prompt client notifications. Clients learn of both events
/// promptly (the simulated analogue of an RDMA QP error event / a
/// cluster-manager heartbeat): the crash opens the server's breaker on
/// every client so keyed traffic retargets the next live replica without
/// burning a deadline, and the restart closes it again (demotion). In a
/// `replicated` cluster the restart announcement waits out a catch-up
/// grace first — two retransmit periods for the peers' backlogged
/// replication deltas to land — so demoted reads do not hit a replica
/// that has not yet absorbed the writes promoted while it was down.
///
/// `ev.at` and `ev.restart_at` are absolute virtual times. Called by
/// [`build_cluster`] for every [`ChaosConfig::crashes`] entry; benchmark
/// harnesses can also call it directly to schedule a crash relative to
/// the end of a preload.
pub fn schedule_crash(
    sim: &Sim,
    servers: &[Rc<Server>],
    clients: &[Rc<Client>],
    ev: CrashEvent,
    replicated: bool,
) {
    assert!(ev.server < servers.len(), "crash event for unknown server");
    if let Some(r) = ev.restart_at {
        assert!(ev.at < r, "restart must follow the crash");
    }
    let catchup_grace = if replicated {
        2 * crate::server::runtime::REPL_RETRANSMIT_EVERY
    } else {
        Duration::ZERO
    };
    let server = Rc::clone(&servers[ev.server]);
    let watchers: Vec<Rc<Client>> = clients.iter().map(Rc::clone).collect();
    let s = sim.clone();
    sim.spawn(async move {
        s.sleep_until(SimTime::from_nanos(ev.at.as_nanos() as u64))
            .await;
        server.crash();
        for c in &watchers {
            c.notify_server_crashed(ev.server);
        }
        if let Some(r) = ev.restart_at {
            s.sleep_until(SimTime::from_nanos(r.as_nanos() as u64))
                .await;
            server.restart().await;
            if !catchup_grace.is_zero() {
                s.sleep(catchup_grace).await;
            }
            for c in &watchers {
                c.notify_server_restarted(ev.server);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::OpStatus;
    use bytes::Bytes;

    #[test]
    fn single_node_set_get_round_trip() {
        let sim = Sim::new();
        let cfg = ClusterConfig::new(Design::RdmaMem, 16 << 20);
        let cluster = build_cluster(&sim, &cfg);
        let client = Rc::clone(&cluster.clients[0]);
        sim.run_until(async move {
            let c = client
                .set(Bytes::from_static(b"k"), Bytes::from_static(b"v"), 0, None)
                .await
                .unwrap();
            assert_eq!(c.status, OpStatus::Stored);
            let g = client.get(Bytes::from_static(b"k")).await.unwrap();
            assert_eq!(g.status, OpStatus::Hit);
            assert_eq!(&g.value.unwrap()[..], b"v");
        });
    }

    #[test]
    fn multi_server_cluster_distributes_keys() {
        let sim = Sim::new();
        let mut cfg = ClusterConfig::new(Design::HRdmaOptNonBI, 16 << 20);
        cfg.servers = 4;
        cfg.clients = 2;
        let cluster = build_cluster(&sim, &cfg);
        let client = Rc::clone(&cluster.clients[0]);
        let servers: Vec<_> = cluster.servers.iter().map(Rc::clone).collect();
        sim.run_until(async move {
            let mut handles = Vec::new();
            for i in 0..200 {
                let key = Bytes::from(format!("key-{i:04}"));
                let value = Bytes::from(vec![i as u8; 128]);
                handles.push(client.iset(key, value, 0, None).await.unwrap());
            }
            for h in &handles {
                assert_eq!(h.wait().await.status, OpStatus::Stored);
            }
            // Every server saw a share of the keys.
            for (i, s) in servers.iter().enumerate() {
                assert!(
                    s.store().stats().sets > 10,
                    "server {i} got {} sets",
                    s.store().stats().sets
                );
            }
        });
    }

    #[test]
    fn replicated_writes_reach_every_replica_and_drain() {
        let sim = Sim::new();
        let mut cfg = ClusterConfig::new(Design::HRdmaOptNonBI, 16 << 20);
        cfg.servers = 2;
        cfg.replication = ReplicationConfig::default(); // rf = 2
        let cluster = build_cluster(&sim, &cfg);
        let client = Rc::clone(&cluster.clients[0]);
        let servers: Vec<_> = cluster.servers.iter().map(Rc::clone).collect();
        let s = sim.clone();
        sim.run_until(async move {
            for i in 0..50u32 {
                let c = client
                    .set(
                        Bytes::from(format!("rk-{i:03}")),
                        Bytes::from(vec![i as u8; 64]),
                        0,
                        None,
                    )
                    .await
                    .unwrap();
                assert_eq!(c.status, OpStatus::Stored);
            }
            // Let the async replication pipeline drain.
            s.sleep(Duration::from_millis(2)).await;
            let applied: u64 = servers
                .iter()
                .map(|sv| sv.store().stats().repl_applied)
                .sum();
            assert_eq!(applied, 50, "every write lands on its replica once");
            let sent: u64 = servers.iter().map(|sv| sv.stats().repl_sent).sum();
            let acked: u64 = servers.iter().map(|sv| sv.stats().repl_acked).sum();
            assert_eq!((sent, acked), (50, 50));
            assert_eq!(
                servers.iter().map(|sv| sv.repl_lag_ops()).sum::<u64>(),
                0,
                "no replication backlog after settle"
            );
            // Both copies are live: every key hits on *each* server's store.
            for i in 0..50u32 {
                let key = Bytes::from(format!("rk-{i:03}"));
                for sv in &servers {
                    let g = sv.store().get(&key).await;
                    assert_eq!(g.status, OpStatus::Hit, "key {i} missing a copy");
                }
            }
        });
    }

    #[test]
    fn replicated_deletes_propagate_as_tombstones() {
        let sim = Sim::new();
        let mut cfg = ClusterConfig::new(Design::HRdmaOptNonBI, 16 << 20);
        cfg.servers = 2;
        cfg.replication = ReplicationConfig::default();
        let cluster = build_cluster(&sim, &cfg);
        let client = Rc::clone(&cluster.clients[0]);
        let servers: Vec<_> = cluster.servers.iter().map(Rc::clone).collect();
        let s = sim.clone();
        sim.run_until(async move {
            let key = Bytes::from_static(b"doomed");
            client
                .set(key.clone(), Bytes::from_static(b"v"), 0, None)
                .await
                .unwrap();
            s.sleep(Duration::from_millis(1)).await;
            client.delete(key.clone()).await.unwrap();
            s.sleep(Duration::from_millis(2)).await;
            for sv in &servers {
                let g = sv.store().get(&key).await;
                assert_eq!(g.status, OpStatus::Miss, "delete must reach both copies");
            }
        });
    }

    #[test]
    fn spread_reads_are_served_by_both_replicas() {
        let sim = Sim::new();
        let mut cfg = ClusterConfig::new(Design::HRdmaOptNonBI, 16 << 20);
        cfg.servers = 2;
        cfg.replication = ReplicationConfig {
            rf: 2,
            read_policy: crate::replication::ReadPolicy::SpreadReplicas,
        };
        let cluster = build_cluster(&sim, &cfg);
        let client = Rc::clone(&cluster.clients[0]);
        let s = sim.clone();
        sim.run_until(async move {
            let key = Bytes::from_static(b"hot");
            client
                .set(key.clone(), Bytes::from_static(b"v"), 0, None)
                .await
                .unwrap();
            s.sleep(Duration::from_millis(2)).await;
            for _ in 0..20 {
                let g = client.get(key.clone()).await.unwrap();
                assert_eq!(g.status, OpStatus::Hit, "replica copy must serve reads");
            }
            let st = client.stats();
            assert_eq!(
                st.replica_reads, 10,
                "round-robin spread: half the reads hit the non-primary copy"
            );
        });
    }

    #[test]
    fn hybrid_cluster_has_devices() {
        let sim = Sim::new();
        let cfg = ClusterConfig::new(Design::HRdmaDef, 16 << 20);
        let cluster = build_cluster(&sim, &cfg);
        assert_eq!(cluster.devices.len(), 1);
        let cfg = ClusterConfig::new(Design::RdmaMem, 16 << 20);
        let cluster = build_cluster(&sim, &cfg);
        assert!(cluster.devices.is_empty());
    }
}
