//! Integration tests of client-side doorbell batching and the client
//! hardening fixes that ride along with it.

use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use nbkv_core::cluster::{build_cluster, ClusterConfig};
use nbkv_core::designs::Design;
use nbkv_core::proto::{ApiFlavor, OpStatus, Request, Response, StageTimes};
use nbkv_core::server::slab::SlabStats;
use nbkv_core::server::store::StoreStats;
use nbkv_core::server::{ServerStats, StatsSnapshot};
use nbkv_core::{BatchPolicy, Client, ClientConfig, ClientError};
use nbkv_fabric::Fabric;
use nbkv_obs::json::JsonCodec;
use nbkv_simrt::Sim;

fn key(i: usize) -> Bytes {
    Bytes::from(format!("key-{i:04}"))
}

fn value(i: usize) -> Bytes {
    Bytes::from(vec![i as u8; 256])
}

fn batched_cluster(sim: &Sim, design: Design, servers: usize) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(design, 64 << 20);
    cfg.servers = servers;
    cfg.client.batch = Some(BatchPolicy::default());
    let _ = sim;
    cfg
}

/// A multi-op `set_multi` + `get_multi` round trip over batch frames:
/// every value comes back intact, and both ends count batch frames.
#[test]
fn batched_multi_round_trip() {
    let sim = Sim::new();
    let cfg = batched_cluster(&sim, Design::HRdmaOptNonBI, 4);
    let cluster = build_cluster(&sim, &cfg);
    let client = Rc::clone(&cluster.clients[0]);
    let servers: Vec<_> = cluster.servers.iter().map(Rc::clone).collect();
    sim.run_until(async move {
        let items: Vec<_> = (0..48).map(|i| (key(i), value(i))).collect();
        let stores = client.set_multi(items).await.unwrap();
        assert_eq!(stores.len(), 48);
        for c in &stores {
            assert_eq!(c.status, OpStatus::Stored);
        }
        let gets = client.get_multi((0..48).map(key).collect()).await.unwrap();
        assert_eq!(gets.len(), 48);
        for (i, c) in gets.iter().enumerate() {
            assert_eq!(c.status, OpStatus::Hit, "key {i}");
            assert_eq!(c.value.as_ref().unwrap()[..], value(i)[..], "key {i}");
        }

        let st = client.stats();
        assert!(st.batches_sent > 0, "multi-op frames must be batched");
        assert!(st.batched_ops > st.batches_sent, "frames carry several ops");
        assert_eq!(st.issued, 96);
        assert_eq!(st.completed, 96);
        let server_batches: u64 = servers.iter().map(|s| s.stats().batches).sum();
        let server_batch_ops: u64 = servers.iter().map(|s| s.stats().batch_ops).sum();
        assert_eq!(server_batches, st.batches_sent);
        assert_eq!(server_batch_ops, st.batched_ops);
        let hist = client.ops_per_batch();
        assert_eq!(hist.sum(), 96, "every op flushed through exactly one frame");
    });
}

/// A batch-enabled client that issues one op at a time is bit-identical
/// to an unbatched one: same wire frames, same virtual-time latency.
#[test]
fn single_op_batch_matches_unbatched_latency() {
    let run = |batched: bool| -> (u64, u64) {
        let sim = Sim::new();
        let mut cfg = ClusterConfig::new(Design::HRdmaOptNonBI, 16 << 20);
        if batched {
            cfg.client.batch = Some(BatchPolicy::default());
        }
        let cluster = build_cluster(&sim, &cfg);
        let client = Rc::clone(&cluster.clients[0]);
        let lat = sim.run_until(async move {
            let done = client.set(key(0), value(0), 0, None).await.unwrap();
            assert_eq!(done.status, OpStatus::Stored);
            // One-element multi: enqueue + doorbell, flushed as a plain
            // unbatched frame.
            let gets = client.get_multi(vec![key(0)]).await.unwrap();
            assert_eq!(gets[0].status, OpStatus::Hit);
            let st = client.stats();
            assert_eq!(st.batches_sent, 0, "single-op flushes are not batch frames");
            gets[0].latency_ns()
        });
        let msgs: u64 = cluster.links.iter().map(|l| l.stats().messages).sum();
        sim.shutdown();
        (lat, msgs)
    };
    let (lat_plain, msgs_plain) = run(false);
    let (lat_batched, msgs_batched) = run(true);
    assert_eq!(
        lat_batched, lat_plain,
        "a single-op batch must cost exactly what an unbatched op costs"
    );
    assert_eq!(msgs_batched, msgs_plain, "same frames on the wire");
}

/// The flush deadline fires exactly once per armed queue generation: one
/// lone op is flushed by the deadline, and no stale deadline task fires
/// again for later generations already flushed by count/doorbell.
#[test]
fn flush_deadline_fires_exactly_once() {
    let sim = Sim::new();
    let cfg = batched_cluster(&sim, Design::HRdmaOptNonBI, 1);
    let cluster = build_cluster(&sim, &cfg);
    let client = Rc::clone(&cluster.clients[0]);
    let sim2 = sim.clone();
    sim.run_until(async move {
        client.set(key(0), value(0), 0, None).await.unwrap();
        // A lone iget with no doorbell: only the deadline can flush it.
        let h = client.iget(key(0)).await.unwrap();
        let done = h.wait().await;
        assert_eq!(done.status, OpStatus::Hit);
        let delay = BatchPolicy::default().max_delay;
        assert!(
            done.latency_ns() >= delay.as_nanos() as u64,
            "deadline-flushed op must have waited out max_delay ({} < {})",
            done.latency_ns(),
            delay.as_nanos()
        );
        assert_eq!(client.stats().flush_on_deadline, 1);

        // A doorbell-flushed burst afterwards: its armed deadline must
        // observe the epoch bump and not fire a second flush.
        let gets = client.get_multi(vec![key(0); 4]).await.unwrap();
        assert_eq!(gets.len(), 4);
        sim2.sleep(delay * 10).await;
        let st = client.stats();
        assert_eq!(st.flush_on_deadline, 1, "stale deadline task must not fire");
        assert_eq!(st.flush_on_doorbell, 1);
    });
}

/// The send window bounds in-flight *frames* and the high-water mark is
/// tracked from acquired permits, so it can never exceed the configured
/// depth — batched or not.
#[test]
fn window_hwm_never_exceeds_max_outstanding() {
    for batched in [false, true] {
        let sim = Sim::new();
        let mut cfg = ClusterConfig::new(Design::HRdmaOptNonBI, 64 << 20);
        cfg.servers = 2;
        cfg.client.max_outstanding = 4;
        if batched {
            cfg.client.batch = Some(BatchPolicy::default());
        }
        let cluster = build_cluster(&sim, &cfg);
        let client = Rc::clone(&cluster.clients[0]);
        sim.run_until(async move {
            let items: Vec<_> = (0..64).map(|i| (key(i), value(i))).collect();
            let stores = client.set_multi(items).await.unwrap();
            assert_eq!(stores.len(), 64);
            let gets = client.get_multi((0..64).map(key).collect()).await.unwrap();
            for c in &gets {
                assert_eq!(c.status, OpStatus::Hit);
            }
            let st = client.stats();
            assert!(st.window_hwm > 0, "permits were acquired");
            assert!(
                st.window_hwm <= 4,
                "window_hwm {} exceeds max_outstanding 4 (batched={batched})",
                st.window_hwm
            );
        });
    }
}

/// A client whose one connection leads to a fake server: every request
/// frame is answered with the responses `reply` builds for it, in order.
fn client_of_fake_server(
    sim: &Sim,
    cfg: ClientConfig,
    reply: impl Fn(&Request) -> Vec<Response> + 'static,
) -> Rc<Client> {
    let fabric = Fabric::new(sim, nbkv_fabric::profiles::fdr_rdma());
    let (client_side, server_side) = fabric.connect();
    let (tx, rx) = server_side.split();
    sim.spawn(async move {
        while let Some(frame) = rx.recv().await {
            let req = Request::decode(&frame).expect("client sends valid frames");
            for resp in reply(&req) {
                if tx.send(resp.encode()).await.is_err() {
                    return;
                }
            }
        }
    });
    Client::new(sim, vec![client_side], cfg)
}

/// A `Get` hit answering `req` with `value` as its payload.
fn get_hit(req: &Request, value: Option<Bytes>) -> Response {
    Response::Get {
        req_id: req.req_id(),
        status: OpStatus::Hit,
        stages: StageTimes::default(),
        flags: 0,
        cas: 0,
        value,
    }
}

/// Regression: `server_stats` against a server that answers with a
/// malformed payload returns `ClientError::BadResponse` instead of
/// panicking (it used to `expect` the payload). A payload that is JSON but
/// lacks a field, or has a mistyped one, is malformed too.
#[test]
fn server_stats_malformed_payload_is_an_error() {
    let full = StatsSnapshot {
        server: ServerStats::default(),
        store: StoreStats::default(),
        slab: SlabStats::default(),
    }
    .to_json_value()
    .render_compact();
    for garbage in [
        Some(Bytes::from_static(b"not json")),
        None,
        Some(Bytes::from(full.replace(r#""crashes":0,"#, ""))),
        Some(Bytes::from(
            full.replace(r#""pages_free":0"#, r#""pages_free":"0""#),
        )),
        Some(Bytes::from(
            full.replace(r#""requests":0"#, r#""requests":-1"#),
        )),
    ] {
        let sim = Sim::new();
        let client = client_of_fake_server(&sim, ClientConfig::default(), move |req| {
            vec![get_hit(req, garbage.clone())]
        });
        sim.run_until(async move {
            let err = client.server_stats(0).await.unwrap_err();
            assert_eq!(err, ClientError::BadResponse);
        });
        sim.shutdown();
    }
}

/// The `stats` payload format is pinned (its length is charged as
/// transmit time, so it must not drift), and every field survives
/// encode -> wire -> `server_stats` decode. The snapshot below gives each
/// field a distinct value, so a field the codec drops, renames or swaps
/// with another fails the comparison.
#[test]
fn server_stats_round_trips_every_field() {
    let empty = StatsSnapshot {
        server: ServerStats::default(),
        store: StoreStats::default(),
        slab: SlabStats::default(),
    };
    assert_eq!(
        empty.to_json_value().render_compact(),
        concat!(
            r#"{"server":{"requests":0,"inline_handled":0,"staged":0,"responses":0,"#,
            r#""proto_errors":0,"recv_during_flush":0,"batches":0,"batch_ops":0,"#,
            r#""repl_sent":0,"repl_acked":0,"repl_retrans":0},"#,
            r#""store":{"sets":0,"get_hits_ram":0,"get_hits_ssd":0,"get_misses":0,"#,
            r#""expired":0,"deletes":0,"flushed_pages":0,"evicted_items":0,"#,
            r#""ssd_full_drops":0,"promotes":0,"async_flushes":0,"inflight_hits":0,"#,
            r#""ssd_dead_bytes":0,"ssd_reclaimed_extents":0,"ssd_reclaimed_bytes":0,"#,
            r#""set_errors":0,"get_io_errors":0,"flush_errors":0,"crashes":0,"#,
            r#""recovered_items":0,"repl_applied":0,"repl_stale_drops":0},"#,
            r#""slab":{"pages_in_use":0,"pages_free":0,"pages_budget":0,"live_items":0}}"#,
        )
    );
    let snapshot = StatsSnapshot {
        server: ServerStats {
            requests: 1,
            inline_handled: 2,
            staged: 3,
            responses: 4,
            proto_errors: 5,
            recv_during_flush: 6,
            batches: 7,
            batch_ops: 8,
            repl_sent: 9,
            repl_acked: 10,
            repl_retrans: 11,
        },
        store: StoreStats {
            sets: 12,
            get_hits_ram: 13,
            get_hits_ssd: 14,
            get_misses: 15,
            expired: 16,
            deletes: 17,
            flushed_pages: 18,
            evicted_items: 19,
            ssd_full_drops: 20,
            promotes: 21,
            async_flushes: 22,
            inflight_hits: 23,
            ssd_dead_bytes: 24,
            ssd_reclaimed_extents: 25,
            ssd_reclaimed_bytes: 26,
            set_errors: 27,
            get_io_errors: 28,
            flush_errors: 29,
            crashes: 30,
            recovered_items: 31,
            repl_applied: 32,
            repl_stale_drops: u64::MAX,
        },
        slab: SlabStats {
            pages_in_use: 33,
            pages_free: 34,
            pages_budget: 35,
            live_items: 36,
        },
    };
    let payload = Bytes::from(snapshot.to_json_value().render_compact());
    let sim = Sim::new();
    let client = client_of_fake_server(&sim, ClientConfig::default(), move |req| {
        assert!(matches!(req, Request::Stats { .. }), "{req:?}");
        vec![get_hit(req, Some(payload.clone()))]
    });
    sim.run_until(async move {
        assert_eq!(client.server_stats(0).await, Ok(snapshot));
    });
    sim.shutdown();
}

/// Responses are type-checked against the request kind: a stray response
/// whose `req_id` matches a pending `iget` but whose kind is not `Get` is
/// an orphan, not the op's completion. A `ReplAck` used to reach
/// `unreachable!` and panic; a `Counter` used to complete the `iget` with
/// no value. The real response still completes the op.
#[test]
fn stray_response_kinds_are_orphans_not_completions() {
    let strays: [fn(u64) -> Response; 2] = [
        |req_id| Response::ReplAck {
            req_id,
            status: OpStatus::Stored,
            stages: StageTimes::default(),
            seq: 1,
        },
        |req_id| Response::Counter {
            req_id,
            status: OpStatus::Stored,
            stages: StageTimes::default(),
            value: 7,
        },
    ];
    for stray in strays {
        let sim = Sim::new();
        let client = client_of_fake_server(&sim, ClientConfig::default(), move |req| {
            vec![stray(req.req_id()), get_hit(req, Some(value(3)))]
        });
        sim.run_until(async move {
            let done = client.iget(key(3)).await.unwrap().wait().await;
            assert_eq!(done.status, OpStatus::Hit);
            assert_eq!(done.value, Some(value(3)));
            let stats = client.stats();
            assert_eq!(stats.orphans, 1);
            assert_eq!(stats.completed, 1);
        });
        sim.shutdown();
    }
}

/// A batch frame whose send fails (the server half of the only connection
/// is gone) completes every member with an error, and each member counts
/// as completed like every other error completion.
#[test]
fn batch_send_failure_completes_and_counts_every_member() {
    let sim = Sim::new();
    let fabric = Fabric::new(&sim, nbkv_fabric::profiles::fdr_rdma());
    let (client_side, server_side) = fabric.connect();
    drop(server_side);
    let cfg = ClientConfig {
        batch: Some(BatchPolicy::default()),
        ..ClientConfig::default()
    };
    let client = Client::new(&sim, vec![client_side], cfg);
    sim.run_until(async move {
        let get = client.iget(key(1)).await.unwrap();
        let set = client.iset(key(2), value(2), 0, None).await.unwrap();
        client.flush_batches();
        for h in [get, set] {
            assert_eq!(h.wait().await.status, OpStatus::Error);
        }
        let stats = client.stats();
        assert_eq!((stats.issued, stats.completed), (2, 2));
        assert_eq!(stats.orphans, 0);
        assert_eq!(client.outstanding(), 0);
    });
    sim.shutdown();
}

/// A member cancelled while its frame pays the issue charge gets no share
/// of the frame's window slot, so the permit comes back and later ops can
/// still issue (the share used to leak, wedging a one-slot window).
#[test]
fn member_cancelled_mid_flush_returns_its_window_share() {
    let sim = Sim::new();
    let cfg = ClientConfig {
        max_outstanding: 1,
        batch: Some(BatchPolicy::default()),
        ..ClientConfig::default()
    };
    let client = client_of_fake_server(&sim, cfg, |req| vec![get_hit(req, None)]);
    let sim2 = sim.clone();
    sim.run_until(async move {
        let h = client.iget(key(0)).await.unwrap();
        client.flush_batches();
        // The flush is now paying its 400 ns issue charge.
        sim2.sleep(Duration::from_nanos(100)).await;
        assert!(h.cancel());
        let next = async { client.iget(key(1)).await.unwrap().wait().await };
        let done = nbkv_simrt::timeout(&sim2, Duration::from_millis(1), next).await;
        assert_eq!(done.expect("window permit leaked").status, OpStatus::Hit);
        assert_eq!(client.stats().orphans, 1);
    });
    sim.shutdown();
}

/// Batch frames and their member ops survive the full proto round trip
/// through a real server: a mixed-flavor burst is rejected at the
/// constructor, so the client only ever builds homogeneous frames.
#[test]
fn batch_frames_preserve_flavor_and_req_ids() {
    let ops: Vec<Request> = (0..3)
        .map(|i| Request::Get {
            req_id: 100 + i,
            flavor: ApiFlavor::NonBlockingI,
            key: key(i as usize),
        })
        .collect();
    let frame = Request::batch(7, ApiFlavor::NonBlockingI, ops).unwrap();
    let decoded = Request::decode(&frame.encode()).unwrap();
    match decoded {
        Request::Batch {
            req_id,
            flavor,
            ops,
        } => {
            assert_eq!(req_id, 7);
            assert_eq!(flavor, ApiFlavor::NonBlockingI);
            let ids: Vec<u64> = ops.iter().map(|o| o.req_id()).collect();
            assert_eq!(ids, vec![100, 101, 102]);
        }
        other => panic!("expected batch frame, got {other:?}"),
    }
    assert!(
        Request::batch(8, ApiFlavor::NonBlockingI, vec![]).is_err(),
        "empty batches must be rejected at encode time"
    );
}

/// `bset`/`bget` still provide their buffer-reuse guarantee under
/// batching: the handle resolves `wait_sent` once the carrying frame is
/// flushed (here by the deadline), not never.
#[test]
fn buffer_reuse_flavor_completes_under_batching() {
    let sim = Sim::new();
    let cfg = batched_cluster(&sim, Design::HRdmaOptNonBB, 1);
    let cluster = build_cluster(&sim, &cfg);
    let client = Rc::clone(&cluster.clients[0]);
    sim.run_until(async move {
        let h = client.bset(key(0), value(0), 0, None).await.unwrap();
        let done = h.wait().await;
        assert_eq!(done.status, OpStatus::Stored);
        assert_eq!(client.stats().flush_on_deadline, 1);
    });
}

/// Cancellation before the flush: the op vanishes from the frame (the
/// flush skips members gone from the pending table) and the window
/// permit accounting stays balanced.
#[test]
fn cancelled_member_is_dropped_from_the_frame() {
    let sim = Sim::new();
    let cfg = batched_cluster(&sim, Design::HRdmaOptNonBI, 1);
    let cluster = build_cluster(&sim, &cfg);
    let client = Rc::clone(&cluster.clients[0]);
    let sim2 = sim.clone();
    sim.run_until(async move {
        client.set(key(0), value(0), 0, None).await.unwrap();
        let keep = client.iget(key(0)).await.unwrap();
        let drop_h = client.iget(key(0)).await.unwrap();
        drop_h.cancel();
        client.flush_batches();
        let done = keep.wait().await;
        assert_eq!(done.status, OpStatus::Hit);
        sim2.sleep(Duration::from_millis(1)).await;
        let st = client.stats();
        // The flushed frame carried only the survivor, so it went out
        // unbatched.
        assert_eq!(st.batches_sent, 0);
        assert_eq!(st.flush_on_doorbell, 1);
        assert_eq!(client.ops_per_batch().sum(), 1);
    });
}
