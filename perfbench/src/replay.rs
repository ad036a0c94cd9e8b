//! Standalone replays: a traced run's exact inputs fed straight through
//! the public functions of single layers, timed on the wall clock.
//!
//! - `fabric`: [`MrCache::ensure_registered`] over every buffer the run
//!   registered (SET values above the inline threshold; keys of blocking
//!   GETs).
//! - `proto`: [`Request`]/[`Response`] encode and decode of the run's op
//!   shapes (batched workloads: one frame per doorbell group and server).
//! - `store`: a fresh [`HybridStore`] (plus [`SlabIo`]) built from the
//!   workload's store configuration, preloaded with server 0's keys, then
//!   driven with the ops that server received.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use bytes::Bytes;
use nbkv_core::client::runtime::INLINE_THRESHOLD;
use nbkv_core::proto::SetMode;
use nbkv_core::{HybridStore, OpStatus, Request, Response, Ring, SpecParams, StageTimes};
use nbkv_fabric::MrCache;
use nbkv_simrt::Sim;
use nbkv_storesim::{SlabIo, SlabIoConfig, SsdDevice};
use nbkv_workload::{KeySpace, ValuePool};

use crate::drive::LoggedOp;
use crate::median;
use crate::spec::{Api, Spec, POOL, SERVERS};

/// Passes per replay; the median is reported.
const PASSES: usize = 3;

/// Wall-clock results of the replays.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replays {
    /// `ensure_registered` wall ns per KiB of registered buffer (0 when
    /// the run registered nothing).
    pub mr_ns_per_kib: f64,
    /// Encode wall ns per op (request and response).
    pub encode_ns_per_op: f64,
    /// Decode wall ns per op (request and response).
    pub decode_ns_per_op: f64,
    /// Request wire bytes per op (`Request::wire_len`).
    pub request_bytes_per_op: f64,
    /// Response wire bytes per op.
    pub response_bytes_per_op: f64,
    /// `HybridStore::set` wall ns per op.
    pub store_set_ns_per_op: f64,
    /// `HybridStore::get` wall ns per op.
    pub store_get_ns_per_op: f64,
}

/// Run every replay over `ops`.
pub fn run(spec: &Spec, ops: &[LoggedOp]) -> Replays {
    let space = KeySpace::new(spec.keys());
    let keys: Vec<Bytes> = (0..spec.keys()).map(|i| space.key(i)).collect();
    let pool = ValuePool::new(spec.value_len, POOL);
    let mut r = Replays {
        mr_ns_per_kib: median((0..PASSES).map(|_| mr(spec, ops, &keys, &pool)).collect()),
        ..Replays::default()
    };
    let frames = proto_frames(spec, ops, &keys, &pool);
    let n = ops.len().max(1) as f64;
    r.request_bytes_per_op = frames.iter().map(|(q, _)| q.wire_len()).sum::<usize>() as f64 / n;
    r.response_bytes_per_op =
        frames.iter().map(|(_, a)| a.encode().len()).sum::<usize>() as f64 / n;
    let mut codec = Vec::with_capacity(PASSES);
    for _ in 0..PASSES {
        codec.push(proto(&frames));
    }
    r.encode_ns_per_op = median(codec.iter().map(|c| c.0).collect()) / n;
    r.decode_ns_per_op = median(codec.iter().map(|c| c.1).collect()) / n;
    let mut store_times = Vec::with_capacity(PASSES);
    for _ in 0..PASSES {
        store_times.push(store(spec, ops, &keys, &pool));
    }
    r.store_set_ns_per_op = median(store_times.iter().map(|s| s.0).collect());
    r.store_get_ns_per_op = median(store_times.iter().map(|s| s.1).collect());
    r
}

/// Wall ns per KiB of `MrCache::ensure_registered` over the run's
/// registered buffers.
fn mr(spec: &Spec, ops: &[LoggedOp], keys: &[Bytes], pool: &ValuePool) -> f64 {
    let bufs: Vec<Bytes> = ops
        .iter()
        .filter_map(|o| {
            if o.write && spec.value_len > INLINE_THRESHOLD {
                Some(pool.value(o.val as usize))
            } else if !o.write && spec.api == Api::Blocking {
                // Blocking `get` registers its key buffer.
                Some(keys[o.key as usize].clone())
            } else {
                None
            }
        })
        .collect();
    let bytes: usize = bufs.iter().map(|b| b.len()).sum();
    if bytes == 0 {
        return 0.0;
    }
    let sim = Sim::new();
    let cache = MrCache::new(sim.clone(), spec.design.fabric_profile());
    let start = Instant::now();
    sim.run_until(async move {
        for b in &bufs {
            black_box(cache.ensure_registered(b).await);
        }
    });
    let ns = start.elapsed().as_nanos() as f64;
    sim.shutdown();
    ns / (bytes as f64 / 1024.0)
}

/// The run's request/response pairs, one per op or per batch frame.
fn proto_frames(
    spec: &Spec,
    ops: &[LoggedOp],
    keys: &[Bytes],
    pool: &ValuePool,
) -> Vec<(Request, Response)> {
    let flavor = spec.design.flavor();
    let pair = |id: u64, o: &LoggedOp| {
        let key = keys[o.key as usize].clone();
        let value = pool.value(o.val as usize);
        let stages = StageTimes::default();
        if o.write {
            let q = Request::Set {
                req_id: id,
                flavor,
                mode: SetMode::Set,
                flags: 0,
                expire_at_ns: 0,
                key,
                value,
            };
            let status = OpStatus::Stored;
            (
                q,
                Response::Set {
                    req_id: id,
                    status,
                    stages,
                },
            )
        } else {
            let q = Request::Get {
                req_id: id,
                flavor,
                key,
            };
            let a = Response::Get {
                req_id: id,
                status: OpStatus::Hit,
                stages,
                flags: 0,
                cas: 0,
                value: Some(value),
            };
            (q, a)
        }
    };
    let Api::Batched { group } = spec.api else {
        return ops
            .iter()
            .enumerate()
            .map(|(i, o)| pair(i as u64, o))
            .collect();
    };
    // A doorbell flushes one frame per server the group touched.
    let ring = Ring::new(SERVERS);
    let mut per_client: BTreeMap<u8, Vec<&LoggedOp>> = BTreeMap::new();
    for o in ops {
        per_client.entry(o.client).or_default().push(o);
    }
    let mut frames = Vec::new();
    let mut id = 0u64;
    for list in per_client.values() {
        for chunk in list.chunks(group) {
            let mut by_server: BTreeMap<usize, (Vec<Request>, Vec<Response>)> = BTreeMap::new();
            for o in chunk {
                let (q, a) = pair(id, o);
                id += 1;
                let e = by_server
                    .entry(ring.select(&keys[o.key as usize]))
                    .or_default();
                e.0.push(q);
                e.1.push(a);
            }
            for (qs, as_) in by_server.into_values() {
                let q = Request::batch(id, flavor, qs).expect("non-empty, unnested batch");
                let a = Response::batch(id, as_).expect("non-empty, unnested batch");
                id += 1;
                frames.push((q, a));
            }
        }
    }
    frames
}

/// Wall ns to encode, then to decode, every frame (both directions).
fn proto(frames: &[(Request, Response)]) -> (f64, f64) {
    let start = Instant::now();
    let wire: Vec<(Bytes, Bytes)> = frames
        .iter()
        .map(|(q, a)| (black_box(q).encode(), black_box(a).encode()))
        .collect();
    let encode = start.elapsed().as_nanos() as f64;
    let start = Instant::now();
    for (q, a) in &wire {
        black_box(Request::decode(q).expect("request round-trips"));
        black_box(Response::decode(a).expect("response round-trips"));
    }
    (encode, start.elapsed().as_nanos() as f64)
}

/// Wall ns per SET and per GET on a fresh store holding server 0's share.
fn store(spec: &Spec, ops: &[LoggedOp], keys: &[Bytes], pool: &ValuePool) -> (f64, f64) {
    let cfg = spec.cluster_config();
    let ring = Ring::new(SERVERS);
    let rf = spec.replication.rf;
    let on_server0: Vec<bool> = keys
        .iter()
        .map(|k| ring.select_replicas(k, rf).contains(&0))
        .collect();
    let sim = Sim::new();
    let server_cfg = spec.design.server_config(SpecParams {
        mem_bytes: cfg.server_mem_bytes,
        ssd_capacity: cfg.ssd_capacity,
        costs: cfg.costs,
    });
    let ssd = spec.design.is_hybrid().then(|| {
        SlabIo::new(
            &sim,
            SsdDevice::new(&sim, cfg.device),
            SlabIoConfig {
                cache_bytes: cfg.os_cache_bytes,
                mmap_resident_bytes: cfg.os_cache_bytes,
                host: cfg.host,
            },
        )
    });
    let store: Rc<HybridStore> = HybridStore::new(&sim, server_cfg.store, ssd);
    let mine: Vec<LoggedOp> = ops
        .iter()
        .filter(|o| on_server0[o.key as usize])
        .copied()
        .collect();
    let keys = keys.to_vec();
    let pool = pool.clone();
    let st = Rc::clone(&store);
    let (set_ns, sets, get_ns, gets) = sim.run_until(async move {
        for (i, key) in keys.iter().enumerate() {
            if on_server0[i] {
                st.set(key.clone(), pool.value(i), 0, 0).await;
            }
        }
        let (mut set_ns, mut sets, mut get_ns, mut gets) = (0u128, 0u64, 0u128, 0u64);
        for o in &mine {
            let key = &keys[o.key as usize];
            let start = Instant::now();
            if o.write {
                let out = st.set(key.clone(), pool.value(o.val as usize), 0, 0).await;
                set_ns += start.elapsed().as_nanos();
                sets += 1;
                assert_eq!(out.status, OpStatus::Stored, "replayed SET must store");
            } else {
                let out = st.get(key).await;
                get_ns += start.elapsed().as_nanos();
                gets += 1;
                assert_eq!(out.status, OpStatus::Hit, "replayed GET must hit");
            }
        }
        (set_ns, sets, get_ns, gets)
    });
    drop(store);
    sim.shutdown();
    (
        set_ns as f64 / sets.max(1) as f64,
        get_ns as f64 / gets.max(1) as f64,
    )
}
