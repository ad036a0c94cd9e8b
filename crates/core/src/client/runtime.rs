//! The client library: blocking `set`/`get`/`delete` plus the paper's
//! non-blocking extensions `iset`/`iget`/`bset`/`bget`.
//!
//! ## Issue/completion split
//!
//! Every operation, blocking or not, goes through one issue pipeline:
//! route → choose a transport (one-sided read, batch queue or single
//! frame) → register in the client's in-flight table → return a
//! [`ReqHandle`]. A background *progress task* (one per connection) lands
//! responses on their handles — the "underlying communication engine
//! completes the request in the background" of Section V-A. Blocking
//! calls are that same issue followed by a wait under the
//! [`ResiliencePolicy`].
//!
//! ## Buffer-reuse semantics and their costs
//!
//! - `iset`/`iget` return as soon as the request descriptor is posted;
//!   the NIC may still be reading the key/value buffers (in Rust this is
//!   safe because the library holds `Bytes` clones, but the *cost* model
//!   matches the C semantics: no wait at all).
//! - `bset`/`bget` additionally wait for the local send completion
//!   (`SendTicket::wait_sent`) — the instant the NIC has finished reading
//!   the buffers and the caller may reuse them. For a large value this is
//!   the link serialization time, which is why write-heavy `bset`
//!   workloads show little overlap (Figure 7a).
//! - All flavours charge memory-registration costs through an [`MrCache`]:
//!   first use of a buffer pays `ibv_reg_mr`, reuse is free.

use std::cell::Cell;
use std::future::Future;
use std::rc::Rc;
use std::task::Poll;
use std::time::Duration;

use bytes::Bytes;
use nbkv_fabric::{MrCache, QueuePair, Transport, TransportRx, TransportTx};
use nbkv_obs::json::JsonCodec;
use nbkv_simrt::Sim;

use crate::client::batch::{BatchPolicy, Batcher};
use crate::client::onesided::{DirectOutcome, DirectPolicy, DirectReadEngine};
use crate::client::request::{Completion, InFlight, ReqHandle};
use crate::client::resilience::{Breaker, ResiliencePolicy};
use crate::client::ring::Ring;
use crate::costs::CpuCosts;
use crate::proto::{
    ApiFlavor, LeaseGeometry, OpStatus, Request, Response, ServedFrom, SetMode, StageTimes,
};
use crate::replication::{ReadPolicy, ReplicationConfig};

/// Client configuration.
#[derive(Debug, Clone, Copy)]
pub struct ClientConfig {
    /// Maximum outstanding *fabric frames* (models send-queue depth). A
    /// batch frame holds one slot no matter how many ops it carries.
    pub max_outstanding: usize,
    /// CPU cost model.
    pub costs: CpuCosts,
    /// Deadlines, retries, and failover for the blocking API.
    pub resilience: ResiliencePolicy,
    /// Doorbell batching for the non-blocking API: `Some` coalesces
    /// `iset`/`iget`/`bset`/`bget` into per-server [`Request::Batch`]
    /// frames under the given flush policy. `None` (default) sends one
    /// frame per op.
    pub batch: Option<BatchPolicy>,
    /// One-sided server-bypass GET policy. Anything other than
    /// [`DirectPolicy::Off`] requires queue pairs bound to the servers'
    /// index windows (see [`Client::new_with_onesided`]).
    pub direct: DirectPolicy,
    /// Replication awareness: replica-set routing for failover (writes
    /// promote to the next live replica when the primary's breaker is
    /// open) and the read-side replica policy. Must match the cluster's
    /// replication config; the default (`rf = 1`) is plain single-copy
    /// routing.
    pub replication: ReplicationConfig,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            max_outstanding: 1024,
            costs: CpuCosts::default_costs(),
            resilience: ResiliencePolicy::default(),
            batch: None,
            direct: DirectPolicy::Off,
            replication: ReplicationConfig::disabled(),
        }
    }
}

/// Buffers at or below this size are copied into pre-registered
/// communication buffers (like RDMA-Memcached's inline send path);
/// larger buffers go zero-copy and pay registration on first use.
pub const INLINE_THRESHOLD: usize = 4 << 10;

/// Client-side error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientError {
    /// The connection to the selected server is gone.
    Disconnected,
    /// Every attempt ran out its per-attempt deadline with no response.
    TimedOut,
    /// No routable server: connections were down or circuit breakers open
    /// on every attempt.
    ServerUnavailable,
    /// The retry budget was exhausted by a mix of failure kinds.
    RetriesExhausted {
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// Every attempt completed but the server reported an I/O error (e.g.
    /// an injected SSD fault) — only with
    /// [`ResiliencePolicy::retry_server_errors`].
    IoError,
    /// The server's response decoded but its payload was missing or
    /// malformed (e.g. a fault-corrupted `stats` JSON snapshot).
    BadResponse,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Disconnected => write!(f, "server disconnected"),
            ClientError::TimedOut => write!(f, "operation deadline exceeded"),
            ClientError::ServerUnavailable => write!(f, "no server available"),
            ClientError::RetriesExhausted { attempts } => {
                write!(f, "retries exhausted after {attempts} attempts")
            }
            ClientError::IoError => write!(f, "server-side I/O error"),
            ClientError::BadResponse => write!(f, "malformed response payload"),
        }
    }
}

impl std::error::Error for ClientError {}

/// Client counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Requests issued.
    pub issued: u64,
    /// Responses completed.
    pub completed: u64,
    /// Responses that arrived with no matching request (late/duplicate,
    /// including responses to cancelled or timed-out requests).
    pub orphans: u64,
    /// Blocking attempts that ran out their deadline.
    pub timeouts: u64,
    /// Retry attempts made by blocking operations.
    pub retries: u64,
    /// Hedge requests posted by blocking gets.
    pub hedges: u64,
    /// Attempts rejected because every candidate breaker was open.
    pub breaker_rejections: u64,
    /// High-water mark of concurrently-held send-window permits (frame
    /// occupancy — never exceeds [`ClientConfig::max_outstanding`]).
    pub window_hwm: u64,
    /// Multi-op batch frames sent (single-op flushes go out unbatched
    /// and are not counted here).
    pub batches_sent: u64,
    /// Ops carried inside those batch frames.
    pub batched_ops: u64,
    /// Flushes triggered by the op-count threshold.
    pub flush_on_count: u64,
    /// Flushes triggered by the wire-byte threshold.
    pub flush_on_size: u64,
    /// Flushes triggered by the virtual-time deadline.
    pub flush_on_deadline: u64,
    /// Flushes triggered by an explicit [`Client::flush_batches`] doorbell.
    pub flush_on_doorbell: u64,
    /// GETs served entirely by one-sided RDMA reads (server CPU bypassed).
    pub direct_hits: u64,
    /// Direct reads whose slot pointed at a chunk that no longer holds
    /// the advertised item, and fell back to RPC. Slots are hints, so a
    /// key deleted, evicted, flushed to SSD, given a TTL or rewritten
    /// since its slot was published reads as stale.
    pub stale_retries: u64,
    /// Direct reads that fell back to RPC and were answered from SSD
    /// (`served_from == Ssd` in the response).
    pub ssd_fallbacks: u64,
    /// Direct reads whose completion never arrived (fault injection or a
    /// dead link) before falling back.
    pub direct_lost: u64,
    /// Adaptive-policy mode changes (RPC↔direct), across all servers.
    pub mode_flips: u64,
    /// One-sided RDMA reads posted (a direct GET posts one or two).
    pub direct_reads: u64,
    /// Bytes those reads requested.
    pub direct_read_bytes: u64,
    /// Read attempts routed to a non-primary replica (spread reads plus
    /// reads failed over from a dead primary).
    pub replica_reads: u64,
    /// Write attempts promoted to a non-primary replica because the
    /// primary's breaker was open (crash failover).
    pub promotions: u64,
}

/// A Memcached client bound to one or more servers.
pub struct Client {
    sim: Sim,
    cfg: ClientConfig,
    txs: Vec<TransportTx>,
    ring: Ring,
    reqs: Rc<InFlight>,
    mr: MrCache,
    breakers: Vec<Breaker>,
    batcher: Option<Rc<Batcher>>,
    directs: Vec<Option<Rc<DirectReadEngine>>>,
    /// Round-robin cursor for [`ReadPolicy::SpreadReplicas`].
    read_rr: Cell<u64>,
}

/// The routing order for one key: the key's replica set (ring order,
/// primary first — possibly rotated for spread reads) followed by every
/// remaining server in `(primary + k) % n` order. At `rf = 1` this is
/// exactly the pre-replication failover order.
struct RouteSet {
    order: Vec<usize>,
    /// How many leading entries of `order` are replica-set members.
    replicas: usize,
    /// The key's true ring primary (for promotion/replica-read counting).
    primary: usize,
}

impl Client {
    /// Build a client over connected transports (one per server) and spawn
    /// a progress task per connection.
    pub fn new(sim: &Sim, transports: Vec<Transport>, cfg: ClientConfig) -> Rc<Client> {
        Client::new_with_onesided(sim, transports, Vec::new(), cfg)
    }

    /// Like [`Client::new`], but additionally binds one-sided queue pairs
    /// (client halves, windows already bound to the servers' published
    /// index regions; `None` per server without one). With
    /// [`ClientConfig::direct`] non-[`Off`](DirectPolicy::Off) the client
    /// fetches each server's window lease in the background and serves
    /// eligible GETs with direct RDMA reads.
    pub fn new_with_onesided(
        sim: &Sim,
        transports: Vec<Transport>,
        qps: Vec<Option<QueuePair>>,
        cfg: ClientConfig,
    ) -> Rc<Client> {
        assert!(!transports.is_empty(), "client needs at least one server");
        let profile = *transports[0].profile();
        let reqs = InFlight::new(sim.clone(), cfg.max_outstanding);
        let n = transports.len();
        let mut qps = qps;
        qps.resize_with(n, || None);
        let directs: Vec<Option<Rc<DirectReadEngine>>> = qps
            .into_iter()
            .map(|qp| match (qp, cfg.direct) {
                (_, DirectPolicy::Off) | (None, _) => None,
                (Some(qp), policy) => Some(Rc::new(DirectReadEngine::new(
                    sim.clone(),
                    Rc::new(qp),
                    policy,
                    &profile,
                    cfg.costs.dispatch,
                    cfg.resilience.deadline,
                ))),
            })
            .collect();
        let mut txs = Vec::with_capacity(n);
        for (i, t) in transports.into_iter().enumerate() {
            let (tx, rx) = t.split();
            txs.push(tx);
            let task = ProgressTask {
                rx,
                reqs: Rc::clone(&reqs),
                costs: cfg.costs,
                direct: directs[i].clone(),
            };
            sim.spawn(task.run());
        }
        let ring = Ring::new(txs.len());
        let breakers = (0..txs.len()).map(|_| Breaker::default()).collect();
        let batcher = cfg.batch.map(|policy| {
            Batcher::new(
                policy,
                txs.clone(),
                Rc::clone(&reqs),
                cfg.costs.client_issue,
            )
        });
        let client = Rc::new(Client {
            sim: sim.clone(),
            cfg,
            txs,
            ring,
            reqs,
            mr: MrCache::new(sim.clone(), profile),
            breakers,
            batcher,
            directs,
            read_rr: Cell::new(0),
        });
        // Fetch each one-sided server's window lease in the background; a
        // GET that races ahead of the handshake just takes the RPC path.
        for (i, e) in client.directs.iter().enumerate() {
            if e.is_some() {
                let c = Rc::clone(&client);
                sim.spawn(async move { c.fetch_lease(i).await });
            }
        }
        client
    }

    /// Window-lease handshake for server `server`: one blocking RPC whose
    /// response carries the server's [`LeaseGeometry`], or a Miss when the
    /// server publishes no window.
    async fn fetch_lease(&self, server: usize) {
        let Some(engine) = self.directs[server].clone() else {
            return;
        };
        let req = Request::WindowLease {
            req_id: self.reqs.alloc_id(),
            flavor: ApiFlavor::Block,
        };
        let Ok(h) = self.issue(server, req, false).await else {
            engine.mark_no_window();
            return;
        };
        let deadline = self
            .cfg
            .resilience
            .deadline
            .unwrap_or(Duration::from_millis(500));
        let Ok(done) = h.wait_timeout(deadline).await else {
            engine.mark_no_window();
            return;
        };
        match done
            .value
            .as_ref()
            .and_then(|v| LeaseGeometry::decode(v).ok())
        {
            Some(lease) if done.status == OpStatus::Hit => engine.install_lease(lease),
            _ => engine.mark_no_window(),
        }
    }

    /// The resilience policy in force.
    pub fn policy(&self) -> ResiliencePolicy {
        self.cfg.resilience
    }

    /// Total circuit-breaker trips across all servers.
    pub fn breaker_trips(&self) -> u64 {
        self.breakers.iter().map(|b| b.trips()).sum()
    }

    /// Crash notification (fast failure detection, e.g. an RDMA QP event
    /// or the cluster manager's heartbeat): open `server`'s breaker
    /// immediately so the very next attempt retargets the key's next live
    /// replica, instead of burning a full per-attempt deadline discovering
    /// the crash. A no-op when the policy has no breaker.
    pub fn notify_server_crashed(&self, server: usize) {
        if let Some(bc) = self.cfg.resilience.breaker {
            self.breakers[server].force_open(self.sim.now(), &bc);
        }
    }

    /// Restart notification: close `server`'s breaker so traffic demotes
    /// back from its replicas without waiting out the breaker cooldown.
    pub fn notify_server_restarted(&self, server: usize) {
        self.breakers[server].reset();
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ClientStats {
        let mut st = *self.reqs.stats.borrow();
        st.window_hwm = self.reqs.window_hwm();
        for e in self.directs.iter().flatten() {
            e.add_counters(&mut st);
        }
        st
    }

    /// Ops-per-batch distribution: one sample per flushed frame (single-op
    /// flushes record `1`). Empty when batching is disabled.
    pub fn ops_per_batch(&self) -> nbkv_obs::Histogram {
        self.batcher
            .as_ref()
            .map(|b| b.ops_per_batch())
            .unwrap_or_default()
    }

    /// A handle to the simulation this client runs in.
    pub fn sim_handle(&self) -> Sim {
        self.sim.clone()
    }

    /// Registration-cache statistics (hits mean buffer reuse paid off).
    pub fn mr_stats(&self) -> nbkv_fabric::MrStats {
        self.mr.stats()
    }

    /// Attach (or clear) a fault plan on every one-sided queue pair —
    /// the chaos hook for direct-read fault experiments. A no-op without
    /// one-sided engines.
    pub fn set_onesided_faults(&self, plan: Option<nbkv_fabric::FaultPlan>) {
        for e in self.directs.iter().flatten() {
            e.set_faults(plan.clone());
        }
    }

    /// Requests currently in flight.
    pub fn outstanding(&self) -> usize {
        self.reqs.outstanding()
    }

    /// Prepare a user buffer for transmission: small buffers are copied
    /// into a pre-registered comm buffer (memcpy cost); large buffers are
    /// sent zero-copy after (cached) memory registration.
    async fn prepare_buffer(&self, buf: &Bytes) {
        if buf.len() <= INLINE_THRESHOLD {
            let cost = self.cfg.costs.memcpy(buf.len());
            if !cost.is_zero() {
                self.sim.sleep(cost).await;
            }
        } else {
            self.mr.ensure_registered(buf).await;
        }
    }

    // -- the paper's API surface (Listing 1) -------------------------------

    /// Non-blocking set, no buffer-reuse guarantee (`memcached_iset`).
    pub async fn iset(
        &self,
        key: Bytes,
        value: Bytes,
        flags: u32,
        expire: Option<Duration>,
    ) -> Result<ReqHandle, ClientError> {
        self.issue_set(key, value, flags, expire, ApiFlavor::NonBlockingI, false)
            .await
    }

    /// Non-blocking set that returns once the key/value buffers are
    /// reusable (`memcached_bset`).
    pub async fn bset(
        &self,
        key: Bytes,
        value: Bytes,
        flags: u32,
        expire: Option<Duration>,
    ) -> Result<ReqHandle, ClientError> {
        self.issue_set(key, value, flags, expire, ApiFlavor::NonBlockingB, true)
            .await
    }

    /// Non-blocking get, no buffer-reuse guarantee (`memcached_iget`).
    pub async fn iget(&self, key: Bytes) -> Result<ReqHandle, ClientError> {
        self.issue_get(key, ApiFlavor::NonBlockingI, false).await
    }

    /// Non-blocking get that returns once the key buffer is reusable
    /// (`memcached_bget`).
    pub async fn bget(&self, key: Bytes) -> Result<ReqHandle, ClientError> {
        self.issue_get(key, ApiFlavor::NonBlockingB, true).await
    }

    /// Blocking set (`memcached_set`): issue and wait for the response,
    /// under the configured [`ResiliencePolicy`] (deadline + retries).
    pub async fn set(
        &self,
        key: Bytes,
        value: Bytes,
        flags: u32,
        expire: Option<Duration>,
    ) -> Result<Completion, ClientError> {
        self.store(SetMode::Set, key, value, flags, expire).await
    }

    /// Blocking get (`memcached_get`), under the configured
    /// [`ResiliencePolicy`] — including hedging when
    /// [`ResiliencePolicy::hedge_after`] is set. Each attempt may be
    /// served by a one-sided read (see [`ClientConfig::direct`]).
    pub async fn get(&self, key: Bytes) -> Result<Completion, ClientError> {
        self.mr.ensure_registered(&key).await;
        let rs = self.read_route_set(&key);
        self.call_blocking(rs, true, &|req_id| Request::Get {
            req_id,
            flavor: ApiFlavor::Block,
            key: key.clone(),
        })
        .await
    }

    /// Blocking delete.
    pub async fn delete(&self, key: Bytes) -> Result<Completion, ClientError> {
        self.mr.ensure_registered(&key).await;
        let rs = self.route_set(&key);
        self.call_blocking(rs, false, &|req_id| Request::Delete {
            req_id,
            flavor: ApiFlavor::Block,
            key: key.clone(),
        })
        .await
    }

    /// Store only if the key is absent (memcached `add`). Fails with
    /// [`crate::OpStatus::Exists`] when the key is live.
    pub async fn add(
        &self,
        key: Bytes,
        value: Bytes,
        flags: u32,
        expire: Option<Duration>,
    ) -> Result<Completion, ClientError> {
        self.store(SetMode::Add, key, value, flags, expire).await
    }

    /// Store only if the key is present (memcached `replace`).
    pub async fn replace(
        &self,
        key: Bytes,
        value: Bytes,
        flags: u32,
        expire: Option<Duration>,
    ) -> Result<Completion, ClientError> {
        self.store(SetMode::Replace, key, value, flags, expire)
            .await
    }

    /// Compare-and-swap: store only if the entry's CAS token (from a get's
    /// [`Completion::cas`]) is unchanged.
    pub async fn cas(
        &self,
        key: Bytes,
        value: Bytes,
        flags: u32,
        expire: Option<Duration>,
        cas: u64,
    ) -> Result<Completion, ClientError> {
        self.store(SetMode::Cas(cas), key, value, flags, expire)
            .await
    }

    /// Append bytes to an existing value (keeps its flags and expiry).
    pub async fn append(&self, key: Bytes, value: Bytes) -> Result<Completion, ClientError> {
        self.store(SetMode::Append, key, value, 0, None).await
    }

    /// Prepend bytes to an existing value.
    pub async fn prepend(&self, key: Bytes, value: Bytes) -> Result<Completion, ClientError> {
        self.store(SetMode::Prepend, key, value, 0, None).await
    }

    /// Increment a decimal counter value (memcached `incr`); returns the
    /// new value in [`Completion::counter`].
    pub async fn incr(&self, key: Bytes, delta: u64) -> Result<Completion, ClientError> {
        self.counter_op(key, delta, false).await
    }

    /// Decrement a decimal counter value, clamped at zero (memcached
    /// `decr`).
    pub async fn decr(&self, key: Bytes, delta: u64) -> Result<Completion, ClientError> {
        self.counter_op(key, delta, true).await
    }

    /// Update an entry's expiry without resending the value (memcached
    /// `touch`). `None` removes the expiry.
    pub async fn touch(
        &self,
        key: Bytes,
        expire: Option<Duration>,
    ) -> Result<Completion, ClientError> {
        self.prepare_buffer(&key).await;
        let expire_at_ns = expire.map_or(0, |d| (self.sim.now() + d).as_nanos());
        let rs = self.route_set(&key);
        self.call_blocking(rs, false, &|req_id| Request::Touch {
            req_id,
            flavor: ApiFlavor::Block,
            key: key.clone(),
            expire_at_ns,
        })
        .await
    }

    /// Fetch a full observability snapshot from server `server_idx`
    /// (memcached's `stats` command). Stats target a specific server, so
    /// there is no failover for *this* call; the policy deadline still
    /// applies (a crashed server yields [`ClientError::TimedOut`], not a
    /// hang). Keyed operations *do* fail over: the route order tries the
    /// key's replicas first, and [`Client::notify_server_crashed`] opens a
    /// crashed server's breaker immediately so failover does not wait out
    /// a deadline.
    pub async fn server_stats(
        &self,
        server_idx: usize,
    ) -> Result<crate::server::StatsSnapshot, ClientError> {
        assert!(server_idx < self.txs.len(), "no such server");
        let req = Request::Stats {
            req_id: self.reqs.alloc_id(),
            flavor: ApiFlavor::Block,
        };
        let h = self.issue(server_idx, req, false).await?;
        let done = wait_within(&h, self.cfg.resilience.deadline)
            .await
            .ok_or(ClientError::TimedOut)?;
        // A fault plan can truncate or corrupt the payload in flight;
        // surface that as an error instead of killing the whole sim.
        let payload = done.value.ok_or(ClientError::BadResponse)?;
        std::str::from_utf8(&payload)
            .ok()
            .and_then(|text| crate::server::StatsSnapshot::from_json_str(text).ok())
            .ok_or(ClientError::BadResponse)
    }

    /// Batch get: issue non-blocking gets for every key, ring the batching
    /// doorbell, wait for all, and return completions in key order
    /// (memcached `get_multi`). With [`ClientConfig::batch`] set, the gets
    /// coalesce into per-server [`Request::Batch`] frames.
    pub async fn get_multi(&self, keys: Vec<Bytes>) -> Result<Vec<Completion>, ClientError> {
        let mut handles = Vec::with_capacity(keys.len());
        for key in keys {
            handles.push(self.iget(key).await?);
        }
        self.flush_batches();
        Ok(self.wait_all(&handles).await)
    }

    /// Batch set: issue non-blocking sets for every `(key, value)` pair,
    /// ring the batching doorbell, wait for all, and return completions in
    /// input order.
    pub async fn set_multi(
        &self,
        items: Vec<(Bytes, Bytes)>,
    ) -> Result<Vec<Completion>, ClientError> {
        let mut handles = Vec::with_capacity(items.len());
        for (key, value) in items {
            handles.push(self.iset(key, value, 0, None).await?);
        }
        self.flush_batches();
        Ok(self.wait_all(&handles).await)
    }

    /// Ring the doorbell: flush every non-empty per-server batch queue
    /// immediately instead of waiting out the flush deadline. A no-op
    /// when batching is disabled.
    pub fn flush_batches(&self) {
        if let Some(b) = &self.batcher {
            b.flush_all();
        }
    }

    async fn store(
        &self,
        mode: SetMode,
        key: Bytes,
        value: Bytes,
        flags: u32,
        expire: Option<Duration>,
    ) -> Result<Completion, ClientError> {
        self.prepare_buffer(&key).await;
        self.prepare_buffer(&value).await;
        let expire_at_ns = expire.map_or(0, |d| (self.sim.now() + d).as_nanos());
        let rs = self.route_set(&key);
        self.call_blocking(rs, false, &|req_id| Request::Set {
            req_id,
            flavor: ApiFlavor::Block,
            mode,
            flags,
            expire_at_ns,
            key: key.clone(),
            value: value.clone(),
        })
        .await
    }

    async fn counter_op(
        &self,
        key: Bytes,
        delta: u64,
        negative: bool,
    ) -> Result<Completion, ClientError> {
        self.prepare_buffer(&key).await;
        let rs = self.route_set(&key);
        self.call_blocking(rs, false, &|req_id| Request::Counter {
            req_id,
            flavor: ApiFlavor::Block,
            key: key.clone(),
            delta,
            negative,
        })
        .await
    }

    /// Wait for a batch of handles (the end-of-block `memcached_wait` of
    /// the bursty I/O pattern in Listing 2).
    pub async fn wait_all(&self, handles: &[ReqHandle]) -> Vec<Completion> {
        let mut out = Vec::with_capacity(handles.len());
        for h in handles {
            out.push(h.wait().await);
        }
        out
    }

    // -- issue path ---------------------------------------------------------

    /// `iset`/`bset`: a plain set to the first live replica.
    async fn issue_set(
        &self,
        key: Bytes,
        value: Bytes,
        flags: u32,
        expire: Option<Duration>,
        flavor: ApiFlavor,
        wait_sent: bool,
    ) -> Result<ReqHandle, ClientError> {
        self.prepare_buffer(&key).await;
        self.prepare_buffer(&value).await;
        let expire_at_ns = expire.map_or(0, |d| (self.sim.now() + d).as_nanos());
        let server = self.pick_live(&self.route_set(&key), false);
        let req = Request::Set {
            req_id: self.reqs.alloc_id(),
            flavor,
            mode: SetMode::Set,
            flags,
            expire_at_ns,
            key,
            value,
        };
        self.issue(server, req, wait_sent).await
    }

    /// `iget`/`bget`: a get from the first live replica.
    async fn issue_get(
        &self,
        key: Bytes,
        flavor: ApiFlavor,
        wait_sent: bool,
    ) -> Result<ReqHandle, ClientError> {
        self.prepare_buffer(&key).await;
        let server = self.pick_live(&self.read_route_set(&key), true);
        let req = Request::Get {
            req_id: self.reqs.alloc_id(),
            flavor,
            key,
        };
        self.issue(server, req, wait_sent).await
    }

    /// The one issue pipeline: register `req` (its id already allocated)
    /// as in flight to `server`, pick its transport, and return its
    /// handle. Every op, blocking or not, comes through here:
    ///
    /// - a `Get` whose server's [`DirectReadEngine`] decides to go direct
    ///   is served by one-sided reads in a spawned task; any non-hit falls
    ///   back to an RPC under the same `req_id`, which the progress task
    ///   lands like any other response;
    /// - a non-blocking op joins the server's coalescing queue when
    ///   batching is on (queuing is a memory write: the flush pays the
    ///   `client_issue` cost once per frame);
    /// - anything else goes out as one frame.
    ///
    /// With `wait_sent` the call returns only once the NIC has finished
    /// reading the op's buffers (`bset`/`bget`). A failed single-frame
    /// send is [`ClientError::Disconnected`]; on the other transports the
    /// send happens later and a failure completes the op with an error.
    async fn issue(
        &self,
        server: usize,
        req: Request,
        wait_sent: bool,
    ) -> Result<ReqHandle, ClientError> {
        let direct = match (&req, &self.directs[server]) {
            (Request::Get { key, .. }, Some(e)) if e.decide() => Some((Rc::clone(e), key.clone())),
            _ => None,
        };
        if let (None, Some(batcher)) = (&direct, &self.batcher) {
            if req.flavor().is_nonblocking() {
                let h = self.reqs.register(&req, self.sim.now(), None);
                batcher.enqueue(server, req, Rc::clone(&h.state));
                if wait_sent {
                    h.wait_sent().await;
                }
                return Ok(h);
            }
        }
        // The op starts when the application asks for it; the issue cost
        // (descriptor post + doorbell) is part of its end-to-end latency,
        // exactly as on the batched path where the flush pays it.
        let issued_at = self.sim.now();
        if !self.cfg.costs.client_issue.is_zero() {
            self.sim.sleep(self.cfg.costs.client_issue).await;
        }
        // Send-queue depth: one frame slot, released when the op lands.
        let slot = self.reqs.acquire_slot(1).await;
        let h = self.reqs.register(&req, issued_at, Some(slot));
        let Some((engine, key)) = direct else {
            return match self.txs[server].send(req.encode()).await {
                Ok(ticket) => {
                    h.state.borrow_mut().sent_at = Some(ticket.sent_at());
                    if wait_sent {
                        ticket.wait_sent().await;
                        h.state.borrow_mut().mark_sent();
                    }
                    Ok(h)
                }
                Err(_) => {
                    self.reqs.forget(h.req_id);
                    Err(ClientError::Disconnected)
                }
            };
        };
        // The key never touches the wire on the direct path, so the
        // buffers are reusable at once.
        h.state.borrow_mut().sent = true;
        let (reqs, state, req_id) = (Rc::clone(&self.reqs), Rc::clone(&h.state), h.req_id);
        let (tx, costs) = (self.txs[server].clone(), self.cfg.costs);
        self.sim.spawn(async move {
            let outcome = engine.read(&key).await;
            engine.note(&outcome);
            if let DirectOutcome::Hit { value, flags } = outcome {
                let cost = costs.memcpy(value.len());
                if !cost.is_zero() {
                    reqs.sim.sleep(cost).await;
                }
                reqs.land(Response::Get {
                    req_id,
                    status: OpStatus::Hit,
                    stages: StageTimes {
                        served_from: ServedFrom::Ram,
                        ..StageTimes::default()
                    },
                    flags,
                    cas: 0,
                    value: Some(value),
                });
            } else if reqs.is_pending(req_id) {
                // Fall back to RPC — unless the op was cancelled meanwhile,
                // when the server's answer could only be an orphan.
                state.borrow_mut().direct_fallback = true;
                match tx.send(req.encode()).await {
                    Ok(ticket) => state.borrow_mut().sent_at = Some(ticket.sent_at()),
                    Err(_) => reqs.fail(req_id),
                }
            }
        });
        Ok(h)
    }

    // -- resilience engine --------------------------------------------------

    /// Run a blocking operation under the [`ResiliencePolicy`]: per-attempt
    /// deadline, bounded retries with deterministic backoff, breaker-driven
    /// failover along the key's route order (replicas first), and (for
    /// reads) optional hedging.
    async fn call_blocking(
        &self,
        rs: RouteSet,
        is_read: bool,
        make: &dyn Fn(u64) -> Request,
    ) -> Result<Completion, ClientError> {
        let pol = self.cfg.resilience;
        let max_attempts = pol.max_attempts.max(1);
        let mut backoff = pol.backoff(self.reqs.peek_id());
        let (mut timeouts, mut unavailable, mut server_errors) = (0u32, 0u32, 0u32);
        for attempt in 0..max_attempts {
            if attempt > 0 {
                self.reqs.stats.borrow_mut().retries += 1;
                let delay = backoff.next_delay();
                if !delay.is_zero() {
                    self.sim.sleep(delay).await;
                }
            }
            let Some(server) = self.route(&rs) else {
                self.reqs.stats.borrow_mut().breaker_rejections += 1;
                unavailable += 1;
                continue;
            };
            self.note_replica_route(&rs, server, is_read);
            let h = match self.issue(server, make(self.reqs.alloc_id()), false).await {
                Ok(h) => h,
                Err(_) => {
                    self.note_failure(server);
                    unavailable += 1;
                    continue;
                }
            };
            match self
                .await_attempt(&h, server, &rs, &pol, is_read, make)
                .await
            {
                Some(c) => {
                    if pol.retry_server_errors && c.status == OpStatus::Error {
                        server_errors += 1;
                        continue;
                    }
                    return Ok(c);
                }
                None => timeouts += 1,
            }
        }
        Err(match (timeouts, unavailable, server_errors) {
            (_, 0, 0) => ClientError::TimedOut,
            (0, _, 0) => ClientError::ServerUnavailable,
            (0, 0, _) => ClientError::IoError,
            _ => ClientError::RetriesExhausted {
                attempts: max_attempts,
            },
        })
    }

    /// Wait out one attempt; `None` means the deadline elapsed (the request
    /// has been cancelled and its window slot reclaimed).
    async fn await_attempt(
        &self,
        h: &ReqHandle,
        server: usize,
        rs: &RouteSet,
        pol: &ResiliencePolicy,
        hedge_ok: bool,
        make: &dyn Fn(u64) -> Request,
    ) -> Option<Completion> {
        let mut limit = pol.deadline;
        // Hedged path: wait `hedge_after` on the primary, then race a
        // duplicate issued to the next server in the route order.
        let hedge_after = pol
            .hedge_after
            .filter(|&after| hedge_ok && pol.deadline.is_none_or(|d| after < d));
        if let Some(after) = hedge_after {
            if let Ok(c) = nbkv_simrt::timeout(&self.sim, after, h.wait()).await {
                self.note_success(server);
                return Some(c);
            }
            limit = pol.deadline.map(|d| d.saturating_sub(after));
            if let Some(hs) = self.route_hedge(rs, server) {
                if let Ok(h2) = self.issue(hs, make(self.reqs.alloc_id()), false).await {
                    self.reqs.stats.borrow_mut().hedges += 1;
                    return match within(&self.sim, limit, race_waits(h, &h2)).await {
                        Some((c, from_primary)) => {
                            let (loser, winner) =
                                if from_primary { (&h2, server) } else { (h, hs) };
                            loser.cancel();
                            self.note_success(winner);
                            Some(c)
                        }
                        None => {
                            h.cancel();
                            h2.cancel();
                            self.note_timeout(server);
                            self.note_failure(hs);
                            None
                        }
                    };
                }
            }
            // No hedge target: run out the rest of the deadline.
        }
        let c = wait_within(h, limit).await;
        match c {
            Some(_) => self.note_success(server),
            None => self.note_timeout(server),
        }
        c
    }

    /// Build the routing order for a key: its replica set (primary first)
    /// then the remaining ring servers in `(primary + k) % n` order.
    fn route_set(&self, key: &[u8]) -> RouteSet {
        let n = self.txs.len();
        let mut order = self.ring.select_replicas(key, self.cfg.replication.rf);
        let primary = order[0];
        let replicas = order.len();
        for k in 1..n {
            let s = (primary + k) % n;
            if !order[..replicas].contains(&s) {
                order.push(s);
            }
        }
        RouteSet {
            order,
            replicas,
            primary,
        }
    }

    /// Routing order for a *read*: like [`route_set`](Self::route_set),
    /// but under [`ReadPolicy::SpreadReplicas`] the replica prefix is
    /// rotated round-robin so reads fan out across the key's copies.
    fn read_route_set(&self, key: &[u8]) -> RouteSet {
        let mut rs = self.route_set(key);
        if self.cfg.replication.read_policy == ReadPolicy::SpreadReplicas && rs.replicas > 1 {
            let r = self.read_rr.get();
            self.read_rr.set(r.wrapping_add(1));
            let rot = (r % rs.replicas as u64) as usize;
            rs.order[..rs.replicas].rotate_left(rot);
        }
        rs
    }

    /// Non-blocking issue target: the first replica whose breaker allows
    /// traffic (falling back to the head of the order when every replica
    /// breaker is open — the send then fails fast or times out).
    fn pick_live(&self, rs: &RouteSet, is_read: bool) -> usize {
        let now = self.sim.now();
        let server = match self.cfg.resilience.breaker {
            None => rs.order[0],
            Some(_) => rs.order[..rs.replicas]
                .iter()
                .copied()
                .find(|&s| self.breakers[s].allows(now))
                .unwrap_or(rs.order[0]),
        };
        self.note_replica_route(rs, server, is_read);
        server
    }

    /// Count a routed attempt that landed on a non-primary replica
    /// (failover promotion for writes, replica read for reads).
    fn note_replica_route(&self, rs: &RouteSet, server: usize, is_read: bool) {
        if server != rs.primary && rs.order[..rs.replicas].contains(&server) {
            let mut st = self.reqs.stats.borrow_mut();
            if is_read {
                st.replica_reads += 1;
            } else {
                st.promotions += 1;
            }
        }
    }

    /// Pick the server for an attempt: the first server in the route
    /// order whose breaker allows traffic (memcached-style host ejection,
    /// extended to prefer the key's replicas before arbitrary ring
    /// neighbours). `None` when every breaker is open.
    fn route(&self, rs: &RouteSet) -> Option<usize> {
        if self.cfg.resilience.breaker.is_none() {
            return Some(rs.order[0]);
        }
        let now = self.sim.now();
        rs.order
            .iter()
            .copied()
            .find(|&s| self.breakers[s].allows(now))
    }

    /// A hedge target distinct from `used`, if any breaker allows one.
    fn route_hedge(&self, rs: &RouteSet, used: usize) -> Option<usize> {
        if self.txs.len() < 2 {
            return None;
        }
        let now = self.sim.now();
        rs.order
            .iter()
            .copied()
            .filter(|&s| s != used)
            .find(|&s| self.cfg.resilience.breaker.is_none() || self.breakers[s].allows(now))
    }

    fn note_success(&self, server: usize) {
        self.breakers[server].on_success();
    }

    fn note_failure(&self, server: usize) {
        if let Some(bc) = self.cfg.resilience.breaker {
            self.breakers[server].on_failure(self.sim.now(), &bc);
        }
    }

    fn note_timeout(&self, server: usize) {
        self.reqs.stats.borrow_mut().timeouts += 1;
        self.note_failure(server);
    }
}

/// Race two in-flight requests; resolves with the first completion and
/// whether it came from the first handle.
fn race_waits<'a>(
    a: &'a ReqHandle,
    b: &'a ReqHandle,
) -> impl Future<Output = (Completion, bool)> + 'a {
    let mut fa = Box::pin(a.wait());
    let mut fb = Box::pin(b.wait());
    std::future::poll_fn(move |cx| {
        if let Poll::Ready(c) = fa.as_mut().poll(cx) {
            return Poll::Ready((c, true));
        }
        if let Poll::Ready(c) = fb.as_mut().poll(cx) {
            return Poll::Ready((c, false));
        }
        Poll::Pending
    })
}

/// Run `fut` for at most `limit` of virtual time (forever when `None`).
async fn within<T>(sim: &Sim, limit: Option<Duration>, fut: impl Future<Output = T>) -> Option<T> {
    match limit {
        Some(d) => nbkv_simrt::timeout(sim, d, fut).await.ok(),
        None => Some(fut.await),
    }
}

/// Wait for `h` for at most `limit`; when the time runs out the handle is
/// cancelled (its window slot reclaimed) and the result is `None`.
async fn wait_within(h: &ReqHandle, limit: Option<Duration>) -> Option<Completion> {
    let c = within(&h.reqs.sim, limit, h.wait()).await;
    if c.is_none() {
        h.cancel();
    }
    c
}

/// Per-connection completion engine.
struct ProgressTask {
    rx: TransportRx,
    reqs: Rc<InFlight>,
    costs: CpuCosts,
    /// This connection's one-sided engine, fed the server's queue-depth
    /// hint and observed RPC GET latencies for the adaptive policy.
    direct: Option<Rc<DirectReadEngine>>,
}

impl ProgressTask {
    async fn run(self) {
        while let Some(msg) = self.rx.recv().await {
            let resp = match Response::decode(&msg) {
                Ok(r) => r,
                Err(_) => continue,
            };
            match resp {
                // A batch frame fans out into its member completions in
                // frame order (decode rejects nested batches, so this
                // recursion is one level deep by construction).
                Response::Batch { responses, .. } => {
                    for member in responses {
                        self.complete_one(member).await;
                    }
                }
                resp => self.complete_one(resp).await,
            }
        }
    }

    /// Complete one member response: copy a fetched value into the user's
    /// buffer (iget semantics), then land it on its pending op.
    async fn complete_one(&self, resp: Response) {
        let sim = &self.reqs.sim;
        if let Response::Get { value: Some(v), .. } = &resp {
            let cost = self.costs.memcpy(v.len());
            if !cost.is_zero() {
                sim.sleep(cost).await;
            }
        }
        let Some(direct) = &self.direct else {
            self.reqs.land(resp);
            return;
        };
        let stages = resp.stages();
        direct.observe_queue_depth(stages.queue_depth);
        let is_get = matches!(resp, Response::Get { .. });
        // Feed the adaptive policy's RPC-latency EWMA. Fallback completions
        // are excluded: their latency includes the failed direct attempt
        // and would bias the signal. They count as SSD fallbacks when the
        // server answered from SSD.
        if let Some(state) = self.reqs.land(resp).filter(|_| is_get) {
            let s = state.borrow();
            if !s.direct_fallback {
                let latency = sim.now().saturating_since(s.issued_at).as_nanos() as u64;
                direct.observe_rpc_latency(latency);
            } else if stages.served_from == ServedFrom::Ssd {
                direct.note_ssd_fallback();
            }
        }
    }
}
