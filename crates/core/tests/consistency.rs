//! History-checking consistency harness for primary–replica replication.
//!
//! Every operation a client completes is recorded as an *invoke/response*
//! event pair in virtual time (a Jepsen-style history, minus the wall
//! clock). A per-key checker then validates the replication design's
//! actual consistency contract against the recorded history:
//!
//! - **Monotonic writes**: the acknowledged writes of a key form a
//!   strictly increasing version sequence in acknowledgement order.
//! - **Read-your-replicated-writes within the ack horizon**: replication
//!   is asynchronous, so a read is *not* entitled to the very latest
//!   acknowledged write — but it must observe at least the newest write
//!   acknowledged more than one *ack horizon* `H` before the read was
//!   invoked. `H` must cover the replication pipeline (flush delay +
//!   RTT + one retransmit period) *and* the failover repair window (a
//!   client deadline burned on an in-flight op at crash time, plus one
//!   round of the workload rewriting the key on the promoted replica).
//! - **No invented values**: a read never observes a version that no
//!   writer had even invoked by the time the read completed.
//! - **Zero lost acknowledged writes after failover**: once the workload
//!   stops and replication settles, a final read of every key returns
//!   exactly the last acknowledged write — nothing acked is rolled back.
//! - **Bounded error window**: every client-visible error belongs to an
//!   op invoked within one resilience deadline of the crash; the error
//!   rate returns to zero after it.
//!
//! What the checker deliberately does *not* assert is as informative:
//! strict monotonic reads across a crash are not promised (a failover
//! read may briefly observe an older replica copy than a pre-crash read
//! of the primary — bounded by the same ack horizon), and a write that
//! *errored* at the client may still land on a server (it is simply not
//! counted as acknowledged).
//!
//! The whole harness runs on the deterministic simulator, so serialized
//! histories are byte-identical across same-seed runs — which the last
//! test pins, crash, link faults, restart and all.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use nbkv_core::cluster::{build_cluster, ChaosConfig, ClusterConfig, CrashEvent};
use nbkv_core::designs::Design;
use nbkv_core::proto::OpStatus;
use nbkv_core::{DirectPolicy, ReplicationConfig, ResiliencePolicy};
use nbkv_fabric::FaultPlan;
use nbkv_simrt::Sim;

const KEYS: usize = 24;
const WRITE_UNTIL: Duration = Duration::from_millis(20);
const CRASH_AT: Duration = Duration::from_millis(10);
const DEADLINE: Duration = Duration::from_millis(2);
/// Ack horizon `H`: one client deadline (an in-flight op at crash time
/// burns a full deadline before failing over) plus 2 ms of slack for the
/// replication pipeline and one workload round of failover repair.
const ACK_HORIZON: Duration = Duration::from_millis(4);
const SETTLE: Duration = Duration::from_millis(6);

fn key(k: usize) -> Bytes {
    Bytes::from(format!("ck-{k:03}"))
}

fn value(ver: u64) -> Bytes {
    Bytes::from(format!("v{ver:08}"))
}

/// Value lengths the direct-read history cycles through by version, so
/// one key's writes move between slab classes.
const PADDED_LENS: [usize; 3] = [4 << 10, 16 << 10, 40 << 10];

/// `value(ver)` padded to one of [`PADDED_LENS`].
fn padded_value(ver: u64) -> Bytes {
    let mut v = format!("v{ver:08}|").into_bytes();
    v.resize(PADDED_LENS[ver as usize % PADDED_LENS.len()], b'.');
    Bytes::from(v)
}

/// Parse a version back out of a stored value (padding ignored).
fn parse_ver(v: &[u8]) -> u64 {
    std::str::from_utf8(v)
        .ok()
        .and_then(|s| s.strip_prefix('v'))
        .and_then(|s| s.split('|').next()?.parse().ok())
        .expect("value is a harness-encoded version")
}

/// One invoke/response pair in the history.
#[derive(Debug, Clone)]
struct Event {
    /// 'W' = writer set, 'R' = concurrent read, 'F' = final settled read.
    op: char,
    key: usize,
    /// Version written (W) or observed (R/F; 0 = miss). 0 for errors.
    ver: u64,
    /// Completed without a client error.
    ok: bool,
    /// `Debug` status or `err(...)`.
    outcome: String,
    invoke_ns: u64,
    complete_ns: u64,
}

impl Event {
    fn serialize(&self) -> String {
        format!(
            "{} k{:02} v{:08} {} [{},{}]",
            self.op, self.key, self.ver, self.outcome, self.invoke_ns, self.complete_ns
        )
    }
}

struct RunOut {
    /// Serialized history, one line per event, in completion order.
    history: Vec<String>,
    events: Vec<Event>,
    /// Writer's final version counter per key.
    final_ver: Vec<u64>,
    /// Version each server's store holds per key after settle (None = miss).
    store_finals: Vec<Vec<Option<u64>>>,
    /// Replication backlog (queued + unacked ops) across servers at the end.
    lag: u64,
    promotions: u64,
    /// GETs served by one-sided reads, across clients.
    direct_hits: u64,
    /// Slab pages flushed to SSD, across servers.
    flushed_pages: u64,
    /// Flat counter summary for bit-identical replay comparison.
    counters: String,
}

/// Run the replicated read/write workload under a scripted crash and
/// record the full history: one writer client rewriting every key in
/// rounds, two reader clients spraying reads, a crash of server 0
/// mid-replication, an optional warm restart, and a settled final read
/// of every key.
fn run_replicated_history(seed: u64, restart_at: Option<Duration>, drops: bool) -> RunOut {
    let sim = Sim::new();
    let mut cfg = ClusterConfig::new(Design::HRdmaOptNonBI, 16 << 20);
    cfg.servers = 2;
    cfg.clients = 3;
    cfg.replication = ReplicationConfig::default(); // rf = 2, primary reads
    cfg.client.resilience = ResiliencePolicy {
        deadline: Some(DEADLINE),
        backoff_base: Duration::from_micros(50),
        backoff_cap: Duration::from_micros(500),
        backoff_seed: seed,
        ..ResiliencePolicy::default()
    };
    cfg.chaos = ChaosConfig {
        seed,
        link_faults: drops.then(|| FaultPlan::drops(0, 0.005)),
        crashes: vec![CrashEvent {
            server: 0,
            at: CRASH_AT,
            restart_at,
        }],
        ..ChaosConfig::default()
    };
    let cluster = build_cluster(&sim, &cfg);
    record_history(sim, cluster, false, value)
}

/// Record a history on `cluster` (clients 1 and 2 read, client 0
/// writes `value(ver)`): the writer's rounds, the readers' concurrent
/// reads — `iget` when `nonblocking_reads`, else `get` — and a settled
/// final read of every key.
fn record_history(
    sim: Sim,
    cluster: nbkv_core::Cluster,
    nonblocking_reads: bool,
    value: fn(u64) -> Bytes,
) -> RunOut {
    let writer = Rc::clone(&cluster.clients[0]);
    let servers: Vec<_> = cluster.servers.iter().map(Rc::clone).collect();

    let events: Rc<RefCell<Vec<Event>>> = Rc::default();
    let done = Rc::new(Cell::new(false));

    // Reader tasks: deterministic stride walks over the key space.
    let mut reader_handles = Vec::new();
    for ri in 1..=2usize {
        let client = Rc::clone(&cluster.clients[ri]);
        let events = Rc::clone(&events);
        let done = Rc::clone(&done);
        let s = sim.clone();
        reader_handles.push(sim.spawn(async move {
            let mut i = ri;
            while !done.get() {
                let k = (i * 7 + ri) % KEYS;
                i += 1;
                let invoke_ns = s.now().as_nanos();
                let r = if nonblocking_reads {
                    match client.iget(key(k)).await {
                        Ok(h) => Ok(h.wait().await),
                        Err(e) => Err(e),
                    }
                } else {
                    client.get(key(k)).await
                };
                let complete_ns = s.now().as_nanos();
                let ev = match r {
                    Ok(c) => Event {
                        op: 'R',
                        key: k,
                        ver: c.value.as_deref().map(parse_ver).unwrap_or(0),
                        ok: true,
                        outcome: format!("{:?}", c.status),
                        invoke_ns,
                        complete_ns,
                    },
                    Err(e) => Event {
                        op: 'R',
                        key: k,
                        ver: 0,
                        ok: false,
                        outcome: format!("err({e})"),
                        invoke_ns,
                        complete_ns,
                    },
                };
                events.borrow_mut().push(ev);
                s.sleep(Duration::from_micros(25)).await;
            }
        }));
    }

    let s = sim.clone();
    let events2 = Rc::clone(&events);
    let done2 = Rc::clone(&done);
    let (final_ver, store_finals) = sim.run_until(async move {
        // Writer: rewrite every key, round after round, straight through
        // the crash — so every key's newest acked copy soon lives on the
        // promoted replica.
        let mut ver = vec![0u64; KEYS];
        let stop = nbkv_simrt::SimTime::from_nanos(WRITE_UNTIL.as_nanos() as u64);
        while s.now() < stop {
            for (k, v) in ver.iter_mut().enumerate() {
                *v += 1;
                let invoke_ns = s.now().as_nanos();
                let r = writer.set(key(k), value(*v), 0, None).await;
                let complete_ns = s.now().as_nanos();
                let ev = match r {
                    Ok(c) => Event {
                        op: 'W',
                        key: k,
                        ver: *v,
                        ok: c.status == OpStatus::Stored,
                        outcome: format!("{:?}", c.status),
                        invoke_ns,
                        complete_ns,
                    },
                    Err(e) => Event {
                        op: 'W',
                        key: k,
                        ver: *v,
                        ok: false,
                        outcome: format!("err({e})"),
                        invoke_ns,
                        complete_ns,
                    },
                };
                events2.borrow_mut().push(ev);
            }
        }
        done2.set(true);
        for h in reader_handles {
            h.await;
        }
        // Let replication (and any retransmission backlog) settle.
        s.sleep(SETTLE).await;
        // Final reads: the settled value of every key, through the client.
        for (k, v) in ver.iter().enumerate() {
            let invoke_ns = s.now().as_nanos();
            let r = writer.get(key(k)).await;
            let complete_ns = s.now().as_nanos();
            let ev = match r {
                Ok(c) => Event {
                    op: 'F',
                    key: k,
                    ver: c.value.as_deref().map(parse_ver).unwrap_or(0),
                    ok: true,
                    outcome: format!("{:?}", c.status),
                    invoke_ns,
                    complete_ns,
                },
                Err(e) => Event {
                    op: 'F',
                    key: k,
                    ver: 0,
                    ok: false,
                    outcome: format!("err({e})"),
                    invoke_ns,
                    complete_ns,
                },
            };
            events2.borrow_mut().push(ev);
            let _ = v;
        }
        // Store-level final state: what each server actually holds.
        let mut store_finals = Vec::new();
        for sv in &servers {
            let mut per_key = Vec::with_capacity(KEYS);
            for k in 0..KEYS {
                let out = sv.store().get(&key(k)).await;
                per_key.push(out.value.as_deref().map(parse_ver));
            }
            store_finals.push(per_key);
        }
        (ver, store_finals)
    });

    let lag: u64 = cluster.servers.iter().map(|sv| sv.repl_lag_ops()).sum();
    let cs = cluster.clients[0].stats();
    let promotions: u64 = cluster.clients.iter().map(|c| c.stats().promotions).sum();
    let direct_hits: u64 = cluster.clients.iter().map(|c| c.stats().direct_hits).sum();
    let flushed_pages: u64 = cluster
        .servers
        .iter()
        .map(|sv| sv.store().stats().flushed_pages)
        .sum();
    let mut counters = format!(
        "writer issued={} completed={} timeouts={} retries={} promotions={} replica_reads={}",
        cs.issued, cs.completed, cs.timeouts, cs.retries, cs.promotions, cs.replica_reads
    );
    for (i, sv) in cluster.servers.iter().enumerate() {
        let st = sv.stats();
        let ss = sv.store().stats();
        counters.push_str(&format!(
            " | s{i} repl_sent={} repl_acked={} repl_retrans={} repl_applied={} stale_drops={}",
            st.repl_sent, st.repl_acked, st.repl_retrans, ss.repl_applied, ss.repl_stale_drops
        ));
    }
    counters.push_str(&format!(" | lag={lag}"));

    let events = Rc::try_unwrap(events).unwrap().into_inner();
    let history = events.iter().map(Event::serialize).collect();
    sim.shutdown();
    RunOut {
        history,
        events,
        final_ver,
        store_finals,
        lag,
        promotions,
        direct_hits,
        flushed_pages,
        counters,
    }
}

/// One server whose 2 MiB of RAM holds a fraction of the data, clients
/// reading with `iget` under [`DirectPolicy::Always`], and values whose
/// size changes with every write: overwrites, flushes to SSD and page
/// reuse by other classes run under the two-read direct GETs.
fn run_direct_history(seed: u64) -> RunOut {
    let sim = Sim::new();
    let mut cfg = ClusterConfig::new(Design::HRdmaOptNonBI, 2 << 20);
    cfg.clients = 3;
    cfg.ssd_capacity = 256 << 20;
    cfg.client.direct = DirectPolicy::Always;
    cfg.chaos.seed = seed;
    let cluster = build_cluster(&sim, &cfg);
    record_history(sim, cluster, true, padded_value)
}

/// The per-key consistency checker. `check_error_window` is off for runs
/// with injected link faults, where client errors are legitimately not
/// confined to the crash.
fn check_history(out: &RunOut, check_error_window: bool) {
    let horizon = ACK_HORIZON.as_nanos() as u64;
    let crash_ns = CRASH_AT.as_nanos() as u64;
    let deadline_ns = DEADLINE.as_nanos() as u64;

    // Acknowledged writes per key, in acknowledgement (completion) order.
    let mut acked: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new(); // key -> (complete_ns, ver)
                                                                       // Every *invoked* write per key (acked or not) — the observability ceiling.
    let mut invoked: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new(); // key -> (invoke_ns, ver)
    for ev in &out.events {
        if ev.op == 'W' {
            invoked
                .entry(ev.key)
                .or_default()
                .push((ev.invoke_ns, ev.ver));
            if ev.ok {
                acked
                    .entry(ev.key)
                    .or_default()
                    .push((ev.complete_ns, ev.ver));
            }
        }
    }

    // Monotonic writes: acked versions strictly increase per key.
    for (k, seq) in &acked {
        for w in seq.windows(2) {
            assert!(
                w[1].1 > w[0].1,
                "key {k}: acked write versions went backwards: {:?} -> {:?}",
                w[0],
                w[1]
            );
        }
    }

    for ev in &out.events {
        match ev.op {
            'R' | 'F' if ev.ok => {
                // Floor: newest write acked at least one horizon before
                // the read was invoked must be visible.
                let floor = acked
                    .get(&ev.key)
                    .map(|seq| {
                        seq.iter()
                            .filter(|(t, _)| *t + horizon <= ev.invoke_ns)
                            .map(|(_, v)| *v)
                            .max()
                            .unwrap_or(0)
                    })
                    .unwrap_or(0);
                // Ceiling: a version nobody had invoked by the read's
                // completion cannot be observed.
                let ceil = invoked
                    .get(&ev.key)
                    .map(|seq| {
                        seq.iter()
                            .filter(|(t, _)| *t <= ev.complete_ns)
                            .map(|(_, v)| *v)
                            .max()
                            .unwrap_or(0)
                    })
                    .unwrap_or(0);
                if ev.ver < floor {
                    // Dump the key's full history before failing — the
                    // whole point of a history checker is a debuggable
                    // counterexample.
                    eprintln!("counters: {}", out.counters);
                    for e in out.events.iter().filter(|e| e.key == ev.key) {
                        eprintln!("  {}", e.serialize());
                    }
                    panic!(
                        "stale read beyond the ack horizon: {} (floor v{floor:08})",
                        ev.serialize()
                    );
                }
                assert!(
                    ev.ver <= ceil,
                    "read observed a never-written version: {} (ceil v{ceil:08})",
                    ev.serialize()
                );
            }
            _ if !ev.ok && check_error_window => {
                assert!(
                    ev.invoke_ns < crash_ns + deadline_ns,
                    "client error outside the crash window: {}",
                    ev.serialize()
                );
            }
            _ => {}
        }
    }

    // Zero lost acknowledged writes: the settled final read of every key
    // is *exactly* the newest acknowledged write — nothing rolled back,
    // nothing resurrected.
    for ev in out.events.iter().filter(|e| e.op == 'F') {
        assert!(ev.ok, "final read failed: {}", ev.serialize());
        let newest = acked
            .get(&ev.key)
            .and_then(|seq| seq.iter().map(|(_, v)| *v).max())
            .unwrap_or(0);
        assert_eq!(
            ev.ver,
            newest,
            "settled value of key {} is not the last acked write: {}",
            ev.key,
            ev.serialize()
        );
        // The workload's last round (well past the crash) must have acked.
        assert_eq!(
            newest, out.final_ver[ev.key],
            "key {}: the final round's write was never acknowledged",
            ev.key
        );
    }
}

/// The headline acceptance scenario: rf = 2, server 0 crashes at 10 ms
/// mid-replication and never comes back. Acked writes survive via the
/// promoted replica, reads stay within the ack horizon, errors are
/// confined to one deadline around the crash, and the settled state is
/// exactly the last acked write of every key.
#[test]
fn acked_writes_survive_primary_crash_and_reads_stay_in_horizon() {
    let out = run_replicated_history(0xC051_5EED, None, false);
    check_history(&out, true);
    assert!(
        out.promotions > 0,
        "the crash must actually fail writes over to the replica"
    );
    assert!(
        out.lag > 0,
        "a dead replica leaves a retransmission backlog (crash was mid-replication)"
    );
    // The survivor holds the newest copy of *every* key (rf = 2 puts every
    // key's replica set on both servers).
    for (k, held) in out.store_finals[1].iter().enumerate() {
        assert_eq!(
            *held,
            Some(out.final_ver[k]),
            "survivor's copy of key {k} is stale"
        );
    }
}

/// Crash + warm restart: after the node returns, retransmission drains the
/// backlog accumulated while it was down, demotion routes its keys back,
/// and *both* copies of every key converge to the last acked write with no
/// replication backlog left.
#[test]
fn warm_restart_converges_both_replicas_with_no_backlog() {
    let out = run_replicated_history(0x5EED_CAFE, Some(Duration::from_millis(13)), false);
    check_history(&out, true);
    assert!(
        out.promotions > 0,
        "the down window must promote some writes"
    );
    assert_eq!(out.lag, 0, "backlog must fully drain after the restart");
    for (si, per_key) in out.store_finals.iter().enumerate() {
        for (k, held) in per_key.iter().enumerate() {
            assert_eq!(
                *held,
                Some(out.final_ver[k]),
                "server {si} did not converge on key {k}"
            );
        }
    }
}

/// The history harness itself is deterministic: same seed (with link-level
/// drops *and* a crash/restart in the schedule) replays to a byte-identical
/// serialized history and identical replication counters; a different seed
/// perturbs the history.
#[test]
fn histories_replay_bit_identically_per_seed() {
    let a = run_replicated_history(0xD00D_5EED, Some(Duration::from_millis(13)), true);
    let b = run_replicated_history(0xD00D_5EED, Some(Duration::from_millis(13)), true);
    assert_eq!(a.counters, b.counters, "replication counters diverged");
    assert_eq!(a.history, b.history, "serialized histories diverged");
    check_history(&a, false);
    let c = run_replicated_history(0x0A17_5EED, Some(Duration::from_millis(13)), true);
    assert_ne!(a.history, c.history, "seed must matter");
}

/// Direct reads on a RAM-constrained store: every `iget` history passes
/// the checker (no crash, so no errors at all), while eviction flushes
/// pages to SSD and hands them to other classes and the readers are
/// served one-sided.
#[test]
fn direct_iget_histories_hold_under_eviction_and_page_reuse() {
    let out = run_direct_history(0xD1EC_7EED);
    assert!(
        out.events.iter().all(|e| e.ok),
        "no crash, so no client errors"
    );
    check_history(&out, false);
    assert!(
        out.direct_hits > 0,
        "readers must go one-sided: {}",
        out.counters
    );
    assert!(
        out.flushed_pages > 0,
        "RAM must be too small to hold the data"
    );
}
