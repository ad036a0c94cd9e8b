//! The client half of the server-bypass GET path.
//!
//! [`DirectReadEngine`] serves GETs with two chained one-sided RDMA
//! reads against the server's registered slab window — the key's
//! descriptor bucket, then the item chunk a slot points at — and accepts
//! the item only if [`Descriptor::accept`] passes and its full key
//! matches. Slots are hints the server never invalidates: anything else
//! falls back to the two-sided RPC path (no slot; a chunk freed, flushed
//! to SSD, touched with a TTL, or reused since its slot was published; or
//! a lost completion under fault injection).
//!
//! [`DirectPolicy::Adaptive`] implements an RFP-style switch: the engine
//! tracks an EWMA of observed RPC GET latency plus the server's
//! dispatch-queue-depth hint (carried in every response's stage block)
//! and goes direct only when the predicted RPC latency exceeds the
//! precomputed two-round-trip direct-read cost. An unloaded server
//! answers RPC in one round trip, so direct reads only win once the
//! server's serial dispatch queue starts inflating RPC latency — which
//! is exactly what the EWMA sees. While in direct mode the engine sends
//! every 32nd eligible GET over RPC as a probe so it can observe the
//! load falling again.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use nbkv_fabric::{FabricProfile, QueuePair};
use nbkv_simrt::Sim;

use crate::client::runtime::ClientStats;
use crate::proto::LeaseGeometry;
use crate::server::onesided::{key_fingerprint, Descriptor, BUCKET_LEN};
use crate::server::slab::{ITEM_HEADER, VERSION_WORD};

/// When the client serves GETs with one-sided RDMA reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DirectPolicy {
    /// Never: every GET is a two-sided RPC (the default).
    #[default]
    Off,
    /// Every GET tries the direct path first.
    Always,
    /// Switch per server on observed RPC latency and the server's
    /// queue-depth hint.
    Adaptive,
}

/// Outcome of one direct-read attempt.
#[derive(Debug)]
pub(crate) enum DirectOutcome {
    /// Validated value fetched without touching the server CPU.
    Hit {
        /// The value bytes, validated against the descriptor.
        value: Bytes,
        /// The item's user flags from its header.
        flags: u32,
    },
    /// The chunk no longer holds what the descriptor advertised (the key
    /// was deleted, evicted, flushed to SSD, given a TTL or rewritten, or
    /// the offset lies outside the window).
    Stale,
    /// No slot in the bucket advertises the key; only RPC can answer.
    Miss,
    /// A read completion never arrived (fault injection / dead link).
    Lost,
}

/// How often, while in direct mode, an eligible GET is sent over RPC
/// anyway to refresh the latency EWMA.
const PROBE_EVERY: u64 = 32;

/// EWMA smoothing factor for observed RPC latency.
const EWMA_ALPHA: f64 = 0.25;

/// Per-server one-sided read engine: the queue pair bound to the
/// server's window, the fetched lease, and the adaptive-policy state.
pub(crate) struct DirectReadEngine {
    sim: Sim,
    qp: Rc<QueuePair>,
    policy: DirectPolicy,
    lease: RefCell<Option<LeaseGeometry>>,
    /// The lease handshake answered "no window"; stop trying.
    no_window: Cell<bool>,
    next_wr: Cell<u64>,
    read_timeout: Duration,
    /// Precomputed cost of a direct read (two wire round trips), in ns.
    direct_cost_ns: f64,
    /// Per-queued-request dispatch penalty for the load-hint bias, in ns.
    dispatch_ns: f64,
    ewma_rpc_ns: Cell<f64>,
    queue_depth: Cell<u32>,
    mode_direct: Cell<bool>,
    probe_seq: Cell<u64>,
    // Counters surfaced through `ClientStats`.
    direct_hits: Cell<u64>,
    stale_retries: Cell<u64>,
    ssd_fallbacks: Cell<u64>,
    direct_lost: Cell<u64>,
    mode_flips: Cell<u64>,
    reads_posted: Cell<u64>,
    read_bytes: Cell<u64>,
}

impl DirectReadEngine {
    pub(crate) fn new(
        sim: Sim,
        qp: Rc<QueuePair>,
        policy: DirectPolicy,
        profile: &FabricProfile,
        dispatch: Duration,
        deadline: Option<Duration>,
    ) -> Self {
        // Two round trips: the bucket, then the item chunk (header, a
        // typical key and small value, version word). Each read costs
        // request propagation plus the payload's return
        // serialization+propagation.
        let rtt = |bytes: usize| {
            (profile.link.propagation() * 2 + profile.link.serialization(bytes)).as_nanos() as f64
        };
        let direct_cost_ns = rtt(BUCKET_LEN) + rtt(ITEM_HEADER + 16 + 512 + VERSION_WORD);
        let read_timeout = deadline
            .map(|d| d / 8)
            .unwrap_or(Duration::from_micros(500))
            .max(Duration::from_micros(50));
        DirectReadEngine {
            sim,
            qp,
            policy,
            lease: RefCell::new(None),
            no_window: Cell::new(false),
            next_wr: Cell::new(1),
            read_timeout,
            direct_cost_ns,
            dispatch_ns: dispatch.as_nanos() as f64,
            ewma_rpc_ns: Cell::new(0.0),
            queue_depth: Cell::new(0),
            mode_direct: Cell::new(false),
            probe_seq: Cell::new(0),
            direct_hits: Cell::new(0),
            stale_retries: Cell::new(0),
            ssd_fallbacks: Cell::new(0),
            direct_lost: Cell::new(0),
            mode_flips: Cell::new(0),
            reads_posted: Cell::new(0),
            read_bytes: Cell::new(0),
        }
    }

    pub(crate) fn install_lease(&self, lease: LeaseGeometry) {
        *self.lease.borrow_mut() = Some(lease);
    }

    /// Attach (or clear) a fault plan on this engine's queue pair.
    pub(crate) fn set_faults(&self, plan: Option<nbkv_fabric::FaultPlan>) {
        self.qp.set_onesided_faults(plan);
    }

    pub(crate) fn mark_no_window(&self) {
        self.no_window.set(true);
    }

    /// Record an observed RPC GET latency (progress-task side).
    pub(crate) fn observe_rpc_latency(&self, latency_ns: u64) {
        let cur = self.ewma_rpc_ns.get();
        let next = if cur == 0.0 {
            latency_ns as f64
        } else {
            cur * (1.0 - EWMA_ALPHA) + latency_ns as f64 * EWMA_ALPHA
        };
        self.ewma_rpc_ns.set(next);
    }

    /// Record the server's dispatch-queue-depth hint (any response).
    pub(crate) fn observe_queue_depth(&self, depth: u32) {
        self.queue_depth.set(depth);
    }

    /// Decide whether the next GET should go direct. Mode changes under
    /// [`DirectPolicy::Adaptive`] are counted as flips; periodic RPC
    /// probes in direct mode are not mode changes.
    pub(crate) fn decide(&self) -> bool {
        if self.no_window.get() || self.lease.borrow().is_none() {
            return false;
        }
        match self.policy {
            DirectPolicy::Off => false,
            DirectPolicy::Always => true,
            DirectPolicy::Adaptive => {
                let ewma = self.ewma_rpc_ns.get();
                let was_direct = self.mode_direct.get();
                let want = if ewma == 0.0 {
                    false // no signal yet: RPC is the 1-RTT default
                } else {
                    let predicted = ewma + self.queue_depth.get() as f64 * self.dispatch_ns;
                    // Hysteresis: demand a clear win before switching
                    // either way, so boundary load does not thrash.
                    if was_direct {
                        predicted > self.direct_cost_ns * 0.9
                    } else {
                        predicted > self.direct_cost_ns * 1.1
                    }
                };
                if want != was_direct {
                    self.mode_direct.set(want);
                    self.mode_flips.set(self.mode_flips.get() + 1);
                }
                if want {
                    let seq = self.probe_seq.get();
                    self.probe_seq.set(seq + 1);
                    if seq.is_multiple_of(PROBE_EVERY) {
                        return false; // RPC probe refreshes the EWMA
                    }
                }
                want
            }
        }
    }

    /// Account a finished attempt.
    pub(crate) fn note(&self, outcome: &DirectOutcome) {
        let cell = match outcome {
            DirectOutcome::Hit { .. } => &self.direct_hits,
            DirectOutcome::Stale => &self.stale_retries,
            DirectOutcome::Lost => &self.direct_lost,
            DirectOutcome::Miss => return,
        };
        cell.set(cell.get() + 1);
    }

    /// A GET that fell back from a direct read was answered from SSD.
    pub(crate) fn note_ssd_fallback(&self) {
        self.ssd_fallbacks.set(self.ssd_fallbacks.get() + 1);
    }

    /// Add this engine's counters to `st`.
    pub(crate) fn add_counters(&self, st: &mut ClientStats) {
        st.direct_hits += self.direct_hits.get();
        st.stale_retries += self.stale_retries.get();
        st.ssd_fallbacks += self.ssd_fallbacks.get();
        st.direct_lost += self.direct_lost.get();
        st.mode_flips += self.mode_flips.get();
        st.direct_reads += self.reads_posted.get();
        st.direct_read_bytes += self.read_bytes.get();
    }

    /// Post one RDMA read and wait for its data. `Err` carries the
    /// outcome to report: `Lost` for a refused post or a completion that
    /// never came, `Stale` for a read the window rejected.
    async fn fetch(&self, offset: usize, len: usize) -> Result<Bytes, DirectOutcome> {
        let wr = self.next_wr.get();
        self.next_wr.set(wr + 1);
        if self.qp.post_rdma_read(wr, offset, len).is_err() {
            return Err(DirectOutcome::Lost);
        }
        self.reads_posted.set(self.reads_posted.get() + 1);
        self.read_bytes.set(self.read_bytes.get() + len as u64);
        let wc = nbkv_simrt::timeout(&self.sim, self.read_timeout, self.qp.send_cq().next_for(wr))
            .await
            .map_err(|_| DirectOutcome::Lost)?;
        wc.data.ok_or(DirectOutcome::Stale)
    }

    /// One direct-read attempt: bucket read, slot lookup, item read,
    /// validation. Never involves the server CPU.
    pub(crate) async fn read(&self, key: &[u8]) -> DirectOutcome {
        match self.try_read(key).await {
            Ok(outcome) | Err(outcome) => outcome,
        }
    }

    async fn try_read(&self, key: &[u8]) -> Result<DirectOutcome, DirectOutcome> {
        let Some(lease) = *self.lease.borrow() else {
            return Ok(DirectOutcome::Miss);
        };
        let fp = key_fingerprint(key);
        let bucket_len = (lease.bucket_slots * lease.slot_len) as usize;
        let bucket = (fp % lease.buckets as u64) as usize;

        // Read 1: the key's bucket.
        let slots = self
            .fetch(
                lease.table_offset as usize + bucket * bucket_len,
                bucket_len,
            )
            .await?;
        let found = slots
            .chunks_exact(lease.slot_len as usize)
            .filter_map(Descriptor::decode)
            .find(|d| d.advertises(fp));
        let Some(desc) = found else {
            return Ok(DirectOutcome::Miss);
        };

        // Read 2: the item chunk — header, key, value, version word.
        let image = self
            .fetch(desc.offset as usize, desc.image_len(key.len()))
            .await?;
        // The chunk must still hold the slot's item, then the full key
        // must match (so a fingerprint collision cannot return another
        // key's value).
        match desc.accept(&image) {
            Some(item) if item.key == key => Ok(DirectOutcome::Hit {
                value: item.value,
                flags: item.flags,
            }),
            _ => Ok(DirectOutcome::Stale),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    use crate::server::onesided::{OneSidedIndex, BUCKET_SLOTS, SLOT_LEN};
    use crate::server::slab::{SlabConfig, SlabPool};
    use nbkv_fabric::profiles::fdr_rdma;
    use nbkv_fabric::FaultPlan;
    use proptest::prelude::*;

    /// The server side of a store, cut down to what the one-sided path
    /// sees: a 16 MiB slab pool, its descriptor table, and each key's live
    /// chunk. Freed chunks are reused last-in first-out, as in the store,
    /// and, as in the store, nothing but a write touches the table.
    struct Server {
        pool: RefCell<SlabPool>,
        idx: OneSidedIndex,
        live: RefCell<HashMap<Vec<u8>, u64>>,
        version: Cell<u64>,
    }

    impl Server {
        fn new() -> Self {
            let pool = SlabPool::new(SlabConfig::with_mem(16 << 20));
            let idx = OneSidedIndex::new(pool.window().clone(), pool.table_offset());
            Server {
                pool: RefCell::new(pool),
                idx,
                live: RefCell::default(),
                version: Cell::new(1),
            }
        }

        /// Store and publish `key` in a fresh chunk; free its old one.
        fn put(&self, key: &[u8], value: &[u8], flags: u32) {
            let mut pool = self.pool.borrow_mut();
            let need = SlabPool::item_len(key.len(), value.len()) + VERSION_WORD;
            let class = pool.class_for(need).unwrap();
            let id = pool.try_alloc(class).unwrap();
            let v = self.version.get();
            self.version.set(v + 1);
            pool.write_item(id, key, value, flags, 0, Some(v));
            self.idx.publish(key, pool.chunk_offset(id), value.len(), v);
            if let Some(old) = self.live.borrow_mut().insert(key.to_vec(), id) {
                pool.free_chunk(old);
            }
        }

        /// Delete `key`, evict it or flush it to SSD: either way its
        /// chunk is freed.
        fn remove(&self, key: &[u8]) {
            if let Some(id) = self.live.borrow_mut().remove(key) {
                self.pool.borrow_mut().free_chunk(id);
            }
        }

        /// Give `key` a TTL, as `touch` does: in the chunk header only.
        fn touch(&self, key: &[u8], expire_at_ns: u64) {
            let id = self.live.borrow()[key];
            self.pool.borrow_mut().set_expiry(id, expire_at_ns);
        }
    }

    fn counters(engine: &DirectReadEngine) -> ClientStats {
        let mut st = ClientStats::default();
        engine.add_counters(&mut st);
        st
    }

    fn rig(policy: DirectPolicy) -> (Sim, Rc<Server>, Rc<DirectReadEngine>, Rc<QueuePair>) {
        let sim = Sim::new();
        let server = Rc::new(Server::new());
        let profile = fdr_rdma();
        let (qp, _peer) = QueuePair::connect(&sim, profile.link);
        let qp = Rc::new(qp);
        qp.bind_peer_window(server.idx.window());
        let engine = Rc::new(DirectReadEngine::new(
            sim.clone(),
            Rc::clone(&qp),
            policy,
            &profile,
            Duration::from_micros(1),
            None,
        ));
        engine.install_lease(server.idx.lease());
        (sim, server, engine, qp)
    }

    #[test]
    fn direct_read_returns_published_value_and_flags() {
        let (sim, server, engine, _qp) = rig(DirectPolicy::Always);
        server.put(b"k", b"hello", 7);
        server.put(b"big", &vec![9u8; 32 << 10], 1);
        sim.run_until(async move {
            match engine.read(b"k").await {
                DirectOutcome::Hit { value, flags } => {
                    assert_eq!(&value[..], b"hello");
                    assert_eq!(flags, 7);
                }
                other => panic!("expected hit, got {other:?}"),
            }
            match engine.read(b"big").await {
                DirectOutcome::Hit { value, .. } => assert_eq!(value[..], [9u8; 32 << 10]),
                other => panic!("32 KiB values are direct-readable, got {other:?}"),
            }
            let c = counters(&engine);
            assert_eq!(c.direct_reads, 4, "two reads per hit");
            let item = |k: usize, v: usize| (ITEM_HEADER + k + v + VERSION_WORD) as u64;
            assert_eq!(
                c.direct_read_bytes,
                2 * BUCKET_LEN as u64 + item(1, 5) + item(3, 32 << 10)
            );
        });
    }

    /// A key never published misses on the bucket alone. A removed key
    /// keeps its slot, a hint now, and fails on the freed chunk's zeroed
    /// lengths; a key given a TTL fails on its header expiry.
    #[test]
    fn absent_keys_miss_and_dead_chunks_are_stale() {
        let (sim, server, engine, _qp) = rig(DirectPolicy::Always);
        server.put(b"gone", b"x", 0);
        server.remove(b"gone");
        server.put(b"ttl", b"y", 0);
        server.touch(b"ttl", 1);
        sim.run_until(async move {
            assert!(matches!(engine.read(b"never").await, DirectOutcome::Miss));
            assert!(matches!(engine.read(b"gone").await, DirectOutcome::Stale));
            assert!(matches!(engine.read(b"ttl").await, DirectOutcome::Stale));
            assert_eq!(
                counters(&engine).direct_reads,
                5,
                "no item read without a slot"
            );
        });
    }

    /// The window offset of `key`'s slot, and the slot itself.
    fn slot_of(server: &Server, key: &[u8]) -> (usize, Descriptor) {
        let lease = server.idx.lease();
        let fp = key_fingerprint(key);
        let bucket =
            lease.table_offset as usize + (fp % lease.buckets as u64) as usize * BUCKET_LEN;
        let window = server.idx.window();
        (0..BUCKET_SLOTS)
            .map(|s| bucket + s * SLOT_LEN)
            .find_map(|off| {
                let d = window.read_with(off, SLOT_LEN, Descriptor::decode)?;
                d.advertises(fp).then_some((off, d))
            })
            .expect("key has a slot")
    }

    /// A slot whose fingerprint matches but whose chunk holds another key
    /// (a fingerprint collision) is rejected on the full key.
    #[test]
    fn fingerprint_collisions_never_return_another_keys_value() {
        let (sim, server, engine, _qp) = rig(DirectPolicy::Always);
        // Equal key lengths, so only the key bytes can tell them apart.
        server.put(b"owner", b"owner's value", 0);
        server.put(b"probe", b"x", 0);
        let (_, owner) = slot_of(&server, b"owner");
        let (probe_off, probe) = slot_of(&server, b"probe");
        // Point "probe"'s slot at "owner"'s chunk, version and length.
        let forged = Descriptor {
            fingerprint: probe.fingerprint,
            ..owner
        };
        server.idx.window().poke(probe_off, &forged.encode());
        sim.run_until(async move {
            assert!(matches!(engine.read(b"probe").await, DirectOutcome::Stale));
            assert!(matches!(
                engine.read(b"owner").await,
                DirectOutcome::Hit { .. }
            ));
        });
    }

    /// A descriptor read before its chunk was freed and rewritten — here
    /// by the same key with a same-length value — fails on the version
    /// word alone.
    #[test]
    fn rewritten_chunks_fail_on_the_version_word() {
        let (sim, server, engine, _qp) = rig(DirectPolicy::Always);
        server.put(b"k", b"old", 0);
        let (off, old) = slot_of(&server, b"k");
        server.remove(b"k");
        server.put(b"k", b"new", 0); // reuses the freed chunk
        let (_, new) = slot_of(&server, b"k");
        assert_eq!((new.offset, new.len), (old.offset, old.len));
        assert_ne!(new.version, old.version);
        // A reader still holding the old bucket image.
        server.idx.window().poke(off, &old.encode());
        sim.run_until(async move {
            assert!(matches!(engine.read(b"k").await, DirectOutcome::Stale));
        });
    }

    /// A descriptor pointing past the registered window (say, a stale one)
    /// completes without data and is counted stale, not a panic.
    #[test]
    fn out_of_window_descriptors_are_stale() {
        let (sim, server, engine, _qp) = rig(DirectPolicy::Always);
        server.put(b"k", b"v", 0);
        let (off, d) = slot_of(&server, b"k");
        let window = server.idx.window();
        let past_end = Descriptor {
            offset: window.len() as u64 - 8,
            ..d
        };
        window.poke(off, &past_end.encode());
        sim.run_until(async move {
            assert!(matches!(engine.read(b"k").await, DirectOutcome::Stale));
        });
    }

    #[test]
    fn dropped_completions_surface_as_lost_within_the_timeout() {
        let (sim, server, engine, qp) = rig(DirectPolicy::Always);
        server.put(b"k", b"v", 0);
        qp.set_onesided_faults(Some(FaultPlan::drops(7, 1.0)));
        sim.clone().run_until(async move {
            let t0 = sim.now();
            assert!(matches!(engine.read(b"k").await, DirectOutcome::Lost));
            // Bounded by the read timeout — a dropped completion must not
            // hang the sim.
            assert!(sim.now().saturating_since(t0) <= Duration::from_micros(600));
        });
    }

    #[test]
    fn adaptive_flips_with_hysteresis_and_probes() {
        let (_sim, _server, engine, _qp) = rig(DirectPolicy::Adaptive);
        // No latency signal yet: stay on RPC, no flip.
        assert!(!engine.decide());
        assert_eq!(counters(&engine).mode_flips, 0);
        // A slow RPC observation flips to direct; the first eligible GET
        // is the probe (seq 0), the following go direct.
        engine.observe_rpc_latency(100_000);
        assert!(!engine.decide(), "first direct-mode get is an RPC probe");
        assert_eq!(counters(&engine).mode_flips, 1);
        let direct = (0..(PROBE_EVERY - 1)).filter(|_| engine.decide()).count();
        assert_eq!(direct as u64, PROBE_EVERY - 1);
        assert!(!engine.decide(), "every {PROBE_EVERY}th get re-probes RPC");
        assert_eq!(counters(&engine).mode_flips, 1, "probes are not mode flips");
        // Load drains: fast RPC observations flip back.
        for _ in 0..32 {
            engine.observe_rpc_latency(500);
        }
        assert!(!engine.decide());
        assert_eq!(counters(&engine).mode_flips, 2);
    }

    #[test]
    fn queue_depth_hint_alone_can_push_adaptive_to_direct() {
        let (_sim, _server, engine, _qp) = rig(DirectPolicy::Adaptive);
        // EWMA below the direct cost on its own…
        engine.observe_rpc_latency(4_000);
        assert!(!engine.decide());
        // …but a deep server dispatch queue predicts inflated RPC latency.
        engine.observe_queue_depth(64);
        assert!(!engine.decide(), "flip consumes the probe slot");
        assert!(engine.decide());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Writers racing direct reads — overwrites, removals, and other
        /// keys reusing the freed chunks — never produce a value the
        /// reader did not ask for: every accepted hit is a value written
        /// to "k" exactly as read (uniform fill byte, matching length,
        /// matching flags).
        #[test]
        fn racing_writers_never_yield_torn_values(
            writes in prop::collection::vec(
                (0u64..4_000, 1usize..200, 0u8..3),
                1..24,
            ),
            read_gap in 1u64..3_000,
        ) {
            let (sim, server, engine, _qp) = rig(DirectPolicy::Always);
            let lens: Vec<usize> = writes.iter().map(|w| w.1).collect();
            let writer = Rc::clone(&server);
            let writes2 = writes.clone();
            let writer = sim.spawn({
                let sim = sim.clone();
                async move {
                    for (i, (delay, len, kind)) in writes2.into_iter().enumerate() {
                        sim.sleep(Duration::from_nanos(delay)).await;
                        let fill = (i + 1) as u8;
                        match kind {
                            0 => writer.put(b"k", &vec![fill; len], fill as u32),
                            1 => writer.remove(b"k"),
                            // Another key takes the freed chunk.
                            _ => writer.put(b"x", &vec![0; len], 0),
                        }
                    }
                }
            });
            let reads = writes.len() * 2;
            sim.clone().run_until(async move {
                for _ in 0..reads {
                    if let DirectOutcome::Hit { value, flags } = engine.read(b"k").await {
                        let fill = value[0];
                        assert!(fill >= 1, "fill byte identifies the write");
                        let i = fill as usize - 1;
                        assert!(value.iter().all(|&b| b == fill), "torn value");
                        assert_eq!(value.len(), lens[i], "length/payload mismatch");
                        assert_eq!(flags, fill as u32, "flags/payload mismatch");
                    }
                    sim.sleep(Duration::from_nanos(read_gap)).await;
                }
                writer.await;
            });
        }
    }
}
