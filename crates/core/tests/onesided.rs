//! Integration tests of the server-bypass one-sided GET path: the window
//! lease handshake, direct reads through a cluster, fallback for keys
//! evicted to SSD, chaos fallback, and the adaptive RPC/direct switch.

use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use nbkv_core::client::runtime::ClientStats;
use nbkv_core::cluster::{build_cluster, ClusterConfig};
use nbkv_core::designs::Design;
use nbkv_core::proto::OpStatus;
use nbkv_core::server::StoreStats;
use nbkv_core::DirectPolicy;
use nbkv_fabric::FaultPlan;
use nbkv_simrt::Sim;
use proptest::prelude::*;

fn key(i: usize) -> Bytes {
    Bytes::from(format!("key-{i:05}"))
}

fn direct_cfg(design: Design, mem: u64, policy: DirectPolicy) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(design, mem);
    cfg.client.direct = policy;
    cfg
}

/// With `DirectPolicy::Always`, a GET of a RAM-resident key is served by
/// one-sided reads — correct value, correct flags, and the hit counted.
#[test]
fn always_direct_get_round_trips_value_and_flags() {
    let sim = Sim::new();
    let cfg = direct_cfg(Design::HRdmaOptNonBI, 16 << 20, DirectPolicy::Always);
    let cluster = build_cluster(&sim, &cfg);
    let client = Rc::clone(&cluster.clients[0]);
    sim.run_until(async move {
        let c = client
            .set(
                Bytes::from_static(b"k"),
                Bytes::from_static(b"hello"),
                7,
                None,
            )
            .await
            .unwrap();
        assert_eq!(c.status, OpStatus::Stored);
        let g = client.get(Bytes::from_static(b"k")).await.unwrap();
        assert_eq!(g.status, OpStatus::Hit);
        assert_eq!(&g.value.unwrap()[..], b"hello");
        assert_eq!(g.flags, 7);
        let stats = client.stats();
        assert_eq!(stats.direct_hits, 1, "served one-sided: {stats:?}");
    });
}

/// The non-blocking flavours (`iget`/`bget`) take the direct path too and
/// complete through their handles.
#[test]
fn nonblocking_gets_complete_through_the_direct_path() {
    let sim = Sim::new();
    let cfg = direct_cfg(Design::HRdmaOptNonBI, 16 << 20, DirectPolicy::Always);
    let cluster = build_cluster(&sim, &cfg);
    let client = Rc::clone(&cluster.clients[0]);
    sim.run_until(async move {
        let mut handles = Vec::new();
        for i in 0..32 {
            let c = client
                .set(key(i), Bytes::from(vec![i as u8; 64]), 0, None)
                .await
                .unwrap();
            assert_eq!(c.status, OpStatus::Stored);
        }
        for i in 0..32 {
            if i % 2 == 0 {
                handles.push(client.iget(key(i)).await.unwrap());
            } else {
                handles.push(client.bget(key(i)).await.unwrap());
            }
        }
        for (i, h) in handles.iter().enumerate() {
            let c = h.wait().await;
            assert_eq!(c.status, OpStatus::Hit, "key {i}");
            assert_eq!(&c.value.unwrap()[..], &vec![i as u8; 64][..], "key {i}");
        }
        let stats = client.stats();
        assert_eq!(stats.direct_hits, 32, "all served one-sided: {stats:?}");
        assert_eq!(client.outstanding(), 0);
    });
}

/// A GET of a missing key falls back to RPC and reports a Miss — the
/// direct path must not fabricate answers.
#[test]
fn direct_miss_falls_back_to_rpc() {
    let sim = Sim::new();
    let cfg = direct_cfg(Design::HRdmaOptNonBI, 16 << 20, DirectPolicy::Always);
    let cluster = build_cluster(&sim, &cfg);
    let client = Rc::clone(&cluster.clients[0]);
    sim.run_until(async move {
        let g = client.get(Bytes::from_static(b"absent")).await.unwrap();
        assert_eq!(g.status, OpStatus::Miss);
    });
}

/// Slab eviction to SSD zeroes the flushed page, so a direct read of an
/// evicted key fails validation and falls back to RPC, which serves it
/// from SSD and counts the SSD fallback: stale RAM offsets are never
/// returned.
#[test]
fn evicted_keys_fall_back_to_rpc_and_stay_correct() {
    let sim = Sim::new();
    // A tiny RAM budget over a large data set forces eviction to SSD.
    let mut cfg = direct_cfg(Design::HRdmaOptNonBI, 1 << 20, DirectPolicy::Always);
    cfg.ssd_capacity = 64 << 20;
    let cluster = build_cluster(&sim, &cfg);
    let client = Rc::clone(&cluster.clients[0]);
    let server = Rc::clone(&cluster.servers[0]);
    sim.run_until(async move {
        let n = 2048;
        for i in 0..n {
            let c = client
                .set(key(i), Bytes::from(vec![(i % 251) as u8; 1024]), 0, None)
                .await
                .unwrap();
            assert_eq!(c.status, OpStatus::Stored, "set {i}");
        }
        assert!(
            server.store().stats().flushed_pages > 0,
            "scenario must evict to SSD: {:?}",
            server.store().stats()
        );
        // Read everything back — evicted keys must come back correct via
        // the RPC fallback, resident ones via direct reads.
        for i in 0..n {
            let g = client.get(key(i)).await.unwrap();
            assert_eq!(g.status, OpStatus::Hit, "get {i}");
            assert_eq!(&g.value.unwrap()[..], &vec![(i % 251) as u8; 1024][..]);
        }
        let stats = client.stats();
        assert!(stats.direct_hits > 0, "some keys stay resident: {stats:?}");
        assert!(
            stats.ssd_fallbacks > 0,
            "evicted keys fall back and are served from SSD: {stats:?}"
        );
    });
}

/// Satellite: chaos test. With a fault plan dropping every one-sided read
/// completion, direct GETs fall back to RPC within the resilience
/// deadline — no hangs, correct values, losses accounted.
#[test]
fn dropped_read_completions_fall_back_within_the_deadline() {
    let sim = Sim::new();
    let mut cfg = direct_cfg(Design::HRdmaOptNonBI, 16 << 20, DirectPolicy::Always);
    cfg.client.resilience.deadline = Some(Duration::from_millis(2));
    let cluster = build_cluster(&sim, &cfg);
    let client = Rc::clone(&cluster.clients[0]);
    let sim2 = sim.clone();
    sim.run_until(async move {
        let c = client
            .set(Bytes::from_static(b"k"), Bytes::from_static(b"v"), 0, None)
            .await
            .unwrap();
        assert_eq!(c.status, OpStatus::Stored);
        // Warm the lease, then kill every subsequent one-sided completion.
        let g = client.get(Bytes::from_static(b"k")).await.unwrap();
        assert_eq!(g.status, OpStatus::Hit);
        client.set_onesided_faults(Some(FaultPlan::drops(7, 1.0)));
        for _ in 0..8 {
            let t0 = sim2.now();
            let g = client.get(Bytes::from_static(b"k")).await.unwrap();
            assert_eq!(g.status, OpStatus::Hit);
            assert_eq!(&g.value.clone().unwrap()[..], b"v");
            // Fallback must begin within a fraction of the deadline and
            // the whole op must finish inside one deadline budget.
            assert!(
                sim2.now().saturating_since(t0) <= Duration::from_millis(2),
                "fallback exceeded the deadline"
            );
            // The reported latency covers the lost direct attempt: at
            // least the engine's read timeout (deadline / 8 = 250 us), not
            // just the fallback RPC.
            assert!(
                g.latency_ns() >= 250_000,
                "latency {} ns hides the direct attempt",
                g.latency_ns()
            );
        }
        let stats = client.stats();
        assert!(stats.direct_lost >= 8, "losses accounted: {stats:?}");
        assert_eq!(stats.timeouts, 0, "RPC fallback never timed out");
        assert_eq!(client.outstanding(), 0, "nothing leaked");
    });
}

/// A direct read whose op was cancelled before the read gave up sends no
/// fallback RPC: the server would do the work only for an orphan answer.
#[test]
fn cancelled_direct_read_sends_no_fallback() {
    let sim = Sim::new();
    let cfg = direct_cfg(Design::HRdmaOptNonBI, 16 << 20, DirectPolicy::Always);
    let cluster = build_cluster(&sim, &cfg);
    let client = Rc::clone(&cluster.clients[0]);
    let server = Rc::clone(&cluster.servers[0]);
    let sim2 = sim.clone();
    sim.run_until(async move {
        let k = Bytes::from_static(b"k");
        client
            .set(k.clone(), Bytes::from_static(b"v"), 0, None)
            .await
            .unwrap();
        // Warm the lease, then kill every one-sided completion.
        assert_eq!(client.get(k.clone()).await.unwrap().status, OpStatus::Hit);
        client.set_onesided_faults(Some(FaultPlan::drops(7, 1.0)));
        let requests = server.stats().requests;
        let h = client.iget(k).await.unwrap();
        // Far shorter than the engine's read timeout (deadline / 8).
        assert!(h.wait_timeout(Duration::from_micros(20)).await.is_err());
        sim2.sleep(Duration::from_millis(200)).await;
        let stats = client.stats();
        assert_eq!(stats.direct_lost, 1, "{stats:?}");
        assert_eq!(stats.orphans, 0, "{stats:?}");
        assert_eq!(server.stats().requests, requests, "no fallback RPC sent");
        assert_eq!(client.outstanding(), 0);
    });
}

/// Adaptive policy on an unloaded single-inflight workload: RPC wins
/// (one round trip beats two), so no GET should go direct.
#[test]
fn adaptive_stays_on_rpc_when_unloaded() {
    let sim = Sim::new();
    let cfg = direct_cfg(Design::HRdmaOptNonBI, 16 << 20, DirectPolicy::Adaptive);
    let cluster = build_cluster(&sim, &cfg);
    let client = Rc::clone(&cluster.clients[0]);
    sim.run_until(async move {
        let c = client
            .set(Bytes::from_static(b"k"), Bytes::from_static(b"v"), 0, None)
            .await
            .unwrap();
        assert_eq!(c.status, OpStatus::Stored);
        for _ in 0..64 {
            let g = client.get(Bytes::from_static(b"k")).await.unwrap();
            assert_eq!(g.status, OpStatus::Hit);
        }
        let stats = client.stats();
        assert_eq!(
            stats.direct_hits, 0,
            "unloaded RPC beats two-RTT direct reads: {stats:?}"
        );
    });
}

/// Adaptive policy under a deep non-blocking burst: queued dispatch
/// inflates RPC latency past the two-RTT direct cost, so the engine
/// flips to direct reads for the bulk of the burst.
#[test]
fn adaptive_switches_to_direct_under_load() {
    let sim = Sim::new();
    let cfg = direct_cfg(Design::HRdmaOptNonBI, 16 << 20, DirectPolicy::Adaptive);
    let cluster = build_cluster(&sim, &cfg);
    let client = Rc::clone(&cluster.clients[0]);
    sim.run_until(async move {
        for i in 0..16 {
            client
                .set(key(i), Bytes::from(vec![i as u8; 256]), 0, None)
                .await
                .unwrap();
        }
        // Repeated deep bursts: every op in a burst is outstanding at
        // once, so RPC responses report a growing queue depth and
        // observed latencies far beyond the direct-read cost.
        for _round in 0..20 {
            let mut handles = Vec::new();
            for i in 0..16 {
                for _ in 0..16 {
                    handles.push(client.iget(key(i)).await.unwrap());
                }
            }
            for h in &handles {
                let c = h.wait().await;
                assert_eq!(c.status, OpStatus::Hit);
            }
        }
        let stats = client.stats();
        assert!(
            stats.direct_hits > 0,
            "load must push the adaptive policy to direct reads: {stats:?}"
        );
        assert!(stats.mode_flips >= 1, "at least one flip: {stats:?}");
    });
}

/// Overwrites republish the key's slot: direct reads racing a stream of
/// SETs to the same key always observe one of the written values, never
/// a torn mix (end-to-end version-word check).
#[test]
fn overwrite_stream_never_tears_direct_reads() {
    let sim = Sim::new();
    let cfg = direct_cfg(Design::HRdmaOptNonBI, 16 << 20, DirectPolicy::Always);
    let cluster = build_cluster(&sim, &cfg);
    let client = Rc::clone(&cluster.clients[0]);
    let writer = Rc::clone(&cluster.clients[0]);
    let sim2 = sim.clone();
    sim.run_until(async move {
        writer
            .set(
                Bytes::from_static(b"hot"),
                Bytes::from(vec![1u8; 100]),
                1,
                None,
            )
            .await
            .unwrap();
        let w = sim2.spawn(async move {
            for v in 2u8..40 {
                let value = Bytes::from(vec![v; v as usize * 5]);
                writer
                    .set(Bytes::from_static(b"hot"), value, v as u32, None)
                    .await
                    .unwrap();
            }
        });
        for _ in 0..60 {
            let g = client.get(Bytes::from_static(b"hot")).await.unwrap();
            assert_eq!(g.status, OpStatus::Hit);
            let value = g.value.unwrap();
            let fill = value[0];
            assert!(value.iter().all(|&b| b == fill), "torn value");
            let expected_len = if fill == 1 { 100 } else { fill as usize * 5 };
            assert_eq!(value.len(), expected_len, "stale length accepted");
        }
        w.await;
    });
}

/// `DirectPolicy::Off` publishes no window and wires no queue pairs —
/// the legacy path is untouched.
#[test]
fn off_policy_never_reads_one_sided() {
    let sim = Sim::new();
    let cfg = ClusterConfig::new(Design::HRdmaOptNonBI, 16 << 20);
    let cluster = build_cluster(&sim, &cfg);
    assert!(cluster.servers[0].onesided().is_none());
    let client = Rc::clone(&cluster.clients[0]);
    sim.run_until(async move {
        client
            .set(Bytes::from_static(b"k"), Bytes::from_static(b"v"), 0, None)
            .await
            .unwrap();
        let g = client.get(Bytes::from_static(b"k")).await.unwrap();
        assert_eq!(g.status, OpStatus::Hit);
        let stats = client.stats();
        assert_eq!(
            stats.direct_hits + stats.stale_retries + stats.ssd_fallbacks,
            0
        );
    });
}

/// Writers driving the store directly while one client serves GETs of
/// one key with two-read direct GETs. `kind`: 0 overwrites the key, 1
/// deletes it, 2 fills RAM with other keys so hybrid eviction flushes
/// pages (the key's among them) to SSD and reuses them for other classes,
/// 3 sets another key in the key's class (taking its freed chunk).
/// Returns the client's and the store's counters.
fn race_direct_gets(writes: &[(u64, u8, u8)], read_gap: u64) -> (ClientStats, StoreStats) {
    let sim = Sim::new();
    let mut cfg = direct_cfg(Design::HRdmaOptNonBI, 2 << 20, DirectPolicy::Always);
    cfg.ssd_capacity = 256 << 20;
    let cluster = build_cluster(&sim, &cfg);
    let client = Rc::clone(&cluster.clients[0]);
    let store = Rc::clone(cluster.servers[0].store());
    let sizes = [100usize, 1500, 6000];
    let written: Rc<std::cell::RefCell<Vec<Bytes>>> = Rc::default();
    let hot = Bytes::from_static(b"hot-key");
    let value = |seq: usize, len: usize| -> Bytes {
        let tag = format!("hot-key/{seq}/");
        Bytes::from(tag.bytes().cycle().take(len).collect::<Vec<u8>>())
    };

    let done = Rc::new(std::cell::Cell::new(false));
    let writer = {
        let (sim, written, hot, writes) = (
            sim.clone(),
            Rc::clone(&written),
            hot.clone(),
            writes.to_vec(),
        );
        let done = Rc::clone(&done);
        sim.clone().spawn(async move {
            for (seq, (delay, kind, size)) in writes.into_iter().enumerate() {
                sim.sleep(Duration::from_nanos(delay)).await;
                let len = sizes[size as usize % sizes.len()];
                match kind % 4 {
                    0 => {
                        let v = value(seq, len);
                        written.borrow_mut().push(v.clone());
                        store.set(hot.clone(), v, seq as u32, 0).await;
                    }
                    1 => {
                        store.delete(&hot).await;
                    }
                    2 => {
                        for i in 0..24 {
                            let k = Bytes::from(format!("fill-{seq}-{i}"));
                            store.set(k, Bytes::from(vec![0u8; 32 << 10]), 0, 0).await;
                        }
                    }
                    _ => {
                        let k = Bytes::from(format!("other-{seq}"));
                        store.set(k, Bytes::from(vec![0u8; len]), 0, 0).await;
                    }
                }
            }
            done.set(true);
        })
    };

    let s = sim.clone();
    sim.run_until(async move {
        while !done.get() {
            let g = client.get(hot.clone()).await.unwrap();
            if g.status == OpStatus::Hit {
                let v = g.value.unwrap();
                assert!(
                    written.borrow().contains(&v),
                    "GET returned bytes no SET wrote to the key: {:?}",
                    &v[..v.len().min(24)]
                );
            }
            s.sleep(Duration::from_nanos(read_gap)).await;
        }
        writer.await;
    });
    let stats = (
        cluster.clients[0].stats(),
        cluster.servers[0].store().stats(),
    );
    sim.shutdown();
    stats
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every hit a direct GET returns was written to that key, whatever
    /// overwrites, deletes, SSD flushes and page reuse interleave with
    /// its two reads; nothing panics.
    #[test]
    fn direct_gets_racing_flush_and_page_reuse_return_only_the_keys_values(
        writes in prop::collection::vec((0u64..6_000, 0u8..4, 0u8..3), 1..20),
        read_gap in 1u64..4_000,
    ) {
        race_direct_gets(&writes, read_gap);
    }
}

/// The property above on one fixed schedule, checking that it exercises
/// what it claims to: direct hits, SSD fallbacks and page flushes.
#[test]
fn racing_schedule_exercises_hits_flushes_and_fallbacks() {
    let writes: Vec<(u64, u8, u8)> = (0..24u64)
        .map(|i| {
            (
                i * 397 % 3_000,
                [0, 0, 3, 2, 0, 1][i as usize % 6],
                (i % 3) as u8,
            )
        })
        .collect();
    let (client, store) = race_direct_gets(&writes, 700);
    assert!(client.direct_hits > 0, "{client:?}");
    assert!(client.ssd_fallbacks > 0, "{client:?}");
    assert!(store.flushed_pages > 0, "{store:?}");
}
