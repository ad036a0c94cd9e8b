//! One repetition: build the cluster, preload it, and run the measured
//! phase as closed loops, one per simulated client.
//!
//! Everything the modelled system decides lands in [`Vt`], which is
//! identical for a given seed whether or not the repetition is traced.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use nbkv_core::cluster::{build_cluster, Cluster};
use nbkv_core::server::Server;
use nbkv_core::{Client, ClientError, Completion, OpStatus, ReqHandle};
use nbkv_simrt::{join_all, Sim};
use nbkv_workload::{preload, KeyChooser, KeySpace, OpKind, OpMix, ValuePool};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::spec::{Api, Spec, POOL};
use crate::trace::{polled, timed, Layer, Span, Tracer};

/// Counter name to value.
pub type Counters = BTreeMap<&'static str, u64>;

/// Nearest-rank p50 and p99.9 of a sample, in virtual nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Quantiles {
    /// Samples.
    pub n: u64,
    /// Median.
    pub p50: u64,
    /// 99.9th percentile.
    pub p999: u64,
}

impl Quantiles {
    /// Quantiles of `v` (sorted in place).
    pub fn of(v: &mut [u64]) -> Quantiles {
        v.sort_unstable();
        Quantiles {
            n: v.len() as u64,
            p50: rank(v, 0.5),
            p999: rank(v, 0.999),
        }
    }
}

fn rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// What the modelled system did in one measured phase.
#[derive(Debug, Clone, PartialEq)]
pub struct Vt {
    /// Ops issued.
    pub attempted: u64,
    /// Ops that ended in a client error or an error status.
    pub failed: u64,
    /// GETs that missed a preloaded key or returned bytes never written
    /// to it.
    pub wrong: u64,
    /// What the first wrong GET returned.
    pub first_wrong: Option<String>,
    /// Virtual length of the measured phase.
    pub vt_ns: u64,
    /// Issue-to-completion latency of successful GETs.
    pub get: Quantiles,
    /// Issue-to-completion latency of successful SETs.
    pub set: Quantiles,
    /// Virtual time the caller was held inside the issue call, all ops.
    pub issue: Quantiles,
    /// Layer counters: deltas over the measured phase, plus gauges.
    pub counters: Counters,
}

impl Vt {
    /// A counter (0 when the layer does not have it).
    pub fn c(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// One op as the benchmark generated it, kept for the standalone replays.
#[derive(Debug, Clone, Copy)]
pub struct LoggedOp {
    /// Issuing client.
    pub client: u8,
    /// SET (true) or GET.
    pub write: bool,
    /// Key index in the key space.
    pub key: u32,
    /// Value pool index (SETs).
    pub val: u8,
}

/// What a traced repetition recorded besides its spans.
#[derive(Debug, Default)]
pub struct Observed {
    /// Every measured op, in issue order.
    pub ops: Vec<LoggedOp>,
    /// Server-stamped phase lengths (ns): comm_in, dispatch, store,
    /// comm_out.
    pub phases: [Vec<u64>; 4],
    /// SSD time of requests that touched the SSD (ns).
    pub ssd: Vec<u64>,
}

/// Result of one repetition.
pub struct Rep {
    /// Modelled outcome.
    pub vt: Vt,
    /// Wall seconds of cluster build plus preload.
    pub setup_s: f64,
    /// Wall seconds of the measured phase.
    pub measure_s: f64,
    /// Spans and observations (traced repetitions only).
    pub traced: Option<(Vec<Span>, Observed)>,
}

/// Build, preload and measure `spec` once at `seed`.
pub fn run_rep(spec: &Spec, seed: u64, traced: bool) -> Rep {
    let tracer = traced.then(|| Rc::new(Tracer::default()));
    let tr = tracer.as_deref();

    let setup_start = Instant::now();
    let sim = Sim::new();
    let cluster = timed(tr, Layer::Build, u64::MAX, || {
        build_cluster(&sim, &spec.cluster_config())
    });
    let preload_span = tr.map(|t| t.open(Layer::Preload));
    {
        let client = Rc::clone(&cluster.clients[0]);
        let servers = cluster.servers.clone();
        let (keys, value_len) = (spec.keys(), spec.value_len);
        let s = sim.clone();
        sim.run_until(async move {
            preload(&client, keys, value_len).await;
            // Replicas must hold every key before spread reads start.
            while servers.iter().any(|sv| sv.repl_lag_ops() > 0) {
                s.sleep(Duration::from_micros(100)).await;
            }
        });
    }
    if let (Some(t), Some(idx)) = (tr, preload_span) {
        t.close(idx);
    }
    let setup_s = setup_start.elapsed().as_secs_f64();

    let before = snapshot(&sim, &cluster);
    let shared = Rc::new(Shared {
        sim: sim.clone(),
        spec: *spec,
        seed,
        pool: ValuePool::new(spec.value_len, POOL),
        // `preload` writes pool value `i % POOL` to key `i`.
        written: RefCell::new((0..spec.keys()).map(|i| 1u8 << (i % POOL)).collect()),
        tracer: tracer.clone(),
        servers: cluster.servers.clone(),
        lag_max: Cell::new(0),
        observed: traced.then(|| RefCell::new(Observed::default())),
    });
    let vt0 = sim.now();
    let clients = cluster.clients.clone();
    let sh = Rc::clone(&shared);
    let wall = Instant::now();
    let root = tr.map(|t| t.open(Layer::RunUntil));
    let outs = sim.run_until(async move {
        let loops = clients
            .into_iter()
            .enumerate()
            .map(|(ci, c)| client_loop(Rc::clone(&sh), c, ci));
        join_all(loops.collect::<Vec<_>>()).await
    });
    if let (Some(t), Some(idx)) = (tr, root) {
        t.close(idx);
    }
    let measure_s = wall.elapsed().as_secs_f64();
    let vt_ns = sim.now().saturating_since(vt0).as_nanos() as u64;

    let mut counters = delta(&before, &snapshot(&sim, &cluster));
    gauges(&cluster, &mut counters);
    counters.insert("repl.lag_ops_max", shared.lag_max.get());

    let mut get = Vec::new();
    let mut set = Vec::new();
    let mut issue = Vec::new();
    let (mut attempted, mut failed, mut wrong) = (0, 0, 0);
    let mut first_wrong = None;
    for o in outs {
        get.extend(o.get);
        set.extend(o.set);
        issue.extend(o.issue);
        attempted += o.attempted;
        failed += o.failed;
        wrong += o.wrong;
        first_wrong = first_wrong.or(o.first_wrong);
    }
    let vt = Vt {
        attempted,
        failed,
        wrong,
        first_wrong,
        vt_ns,
        get: Quantiles::of(&mut get),
        set: Quantiles::of(&mut set),
        issue: Quantiles::of(&mut issue),
        counters,
    };
    let observed = shared.observed.as_ref().map(|o| o.take());
    drop(shared);
    // Break the world -> task -> server -> Sim cycle so repetitions in
    // one process release their memory.
    drop(cluster);
    sim.shutdown();
    let traced = tracer.map(|t| {
        let spans = Rc::try_unwrap(t)
            .ok()
            .expect("every task holding the tracer is gone")
            .into_spans();
        (spans, observed.unwrap_or_default())
    });
    Rep {
        vt,
        setup_s,
        measure_s,
        traced,
    }
}

/// State shared by the client loops of one repetition.
struct Shared {
    sim: Sim,
    spec: Spec,
    seed: u64,
    pool: ValuePool,
    /// Per key, a bit for every pool value ever written to it (preload or
    /// SET), set before the SET is issued.
    written: RefCell<Vec<u8>>,
    tracer: Option<Rc<Tracer>>,
    servers: Vec<Rc<Server>>,
    lag_max: Cell<u64>,
    observed: Option<RefCell<Observed>>,
}

/// One client's samples.
#[derive(Default)]
struct Out {
    get: Vec<u64>,
    set: Vec<u64>,
    issue: Vec<u64>,
    attempted: u64,
    failed: u64,
    wrong: u64,
    first_wrong: Option<String>,
}

impl Out {
    fn note_wrong(&mut self, describe: impl FnOnce() -> String) {
        self.wrong += 1;
        if self.first_wrong.is_none() {
            self.first_wrong = Some(describe());
        }
    }
}

/// A planned op.
struct Planned {
    write: bool,
    key: Bytes,
    key_idx: usize,
    val: usize,
}

/// A client's key and op stream.
struct Gen {
    chooser: KeyChooser,
    rng: StdRng,
    mix: OpMix,
    next_val: usize,
}

impl Gen {
    fn new(spec: &Spec, seed: u64, client: usize) -> Gen {
        let s = nbkv_core::util::mix64(seed ^ (client as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        Gen {
            chooser: KeyChooser::new(KeySpace::new(spec.keys()), spec.pattern, s),
            rng: StdRng::seed_from_u64(nbkv_core::util::mix64(s ^ 0x5EED)),
            mix: OpMix {
                read_pct: spec.read_pct,
            },
            next_val: (s % POOL as u64) as usize,
        }
    }
}

/// Index of a key made by [`KeySpace::key`] (`user` + 12 digits).
fn key_index(key: &[u8]) -> usize {
    key[4..]
        .iter()
        .fold(0, |acc, &d| acc * 10 + (d - b'0') as usize)
}

impl Shared {
    fn tr(&self) -> Option<&Tracer> {
        self.tracer.as_deref()
    }

    fn plan(&self, gen: &mut Gen, client: usize, op: u64) -> Planned {
        let p = timed(self.tr(), Layer::Plan, op, || {
            let key = gen.chooser.next_key();
            let write = gen.mix.choose(&mut gen.rng) == OpKind::Write;
            let val = gen.next_val;
            gen.next_val = (val + 1) % POOL;
            Planned {
                write,
                key_idx: key_index(&key),
                key,
                val,
            }
        });
        if let Some(obs) = &self.observed {
            obs.borrow_mut().ops.push(LoggedOp {
                client: client as u8,
                write: p.write,
                key: p.key_idx as u32,
                val: p.val as u8,
            });
        }
        // Replication lag is a level, not a counter: sample its peak.
        if op.is_multiple_of(64) {
            let lag: u64 = self.servers.iter().map(|s| s.repl_lag_ops()).sum();
            self.lag_max.set(self.lag_max.get().max(lag));
        }
        p
    }

    /// Issue a non-blocking op, recording the virtual time the caller was
    /// held. `None` if the issue call itself failed.
    async fn issue(
        &self,
        client: &Client,
        out: &mut Out,
        p: Planned,
        op: u64,
    ) -> Option<ReqHandle> {
        let t0 = self.sim.now();
        let res = if p.write {
            self.written.borrow_mut()[p.key_idx] |= 1 << p.val;
            let fut = client.iset(p.key, self.pool.value(p.val), 0, None);
            polled(self.tr(), Layer::Issue, op, fut).await
        } else {
            polled(self.tr(), Layer::Issue, op, client.iget(p.key)).await
        };
        out.issue
            .push(self.sim.now().saturating_since(t0).as_nanos() as u64);
        out.attempted += 1;
        match res {
            Ok(h) => Some(h),
            Err(_) => {
                out.failed += 1;
                None
            }
        }
    }

    async fn reap(&self, out: &mut Out, write: bool, key_idx: usize, op: u64, h: &ReqHandle) {
        let c = polled(self.tr(), Layer::Wait, op, h.wait()).await;
        self.check(out, write, key_idx, op, Ok(c));
    }

    /// Record a completion and check its output.
    fn check(
        &self,
        out: &mut Out,
        write: bool,
        key_idx: usize,
        op: u64,
        res: Result<Completion, ClientError>,
    ) {
        timed(self.tr(), Layer::Check, op, || {
            let Ok(c) = res else {
                out.failed += 1;
                return;
            };
            match (write, c.status) {
                (true, OpStatus::Stored) => out.set.push(c.latency_ns()),
                (false, OpStatus::Hit) => {
                    if !self.value_ok(key_idx, c.value.as_ref()) {
                        out.note_wrong(|| self.describe_wrong(key_idx, &c));
                    }
                    out.get.push(c.latency_ns());
                }
                // Every key was preloaded and none is deleted.
                (false, OpStatus::Miss) => {
                    out.note_wrong(|| format!("GET of preloaded key {key_idx} missed"))
                }
                _ => out.failed += 1,
            }
            if let Some(obs) = &self.observed {
                let mut obs = obs.borrow_mut();
                if let Some(tl) = c.timeline() {
                    if let Some(p) = tl.phases() {
                        obs.phases[0].push(p.comm_in_ns);
                        obs.phases[1].push(p.dispatch_ns);
                        obs.phases[2].push(p.store_ns);
                        obs.phases[3].push(p.comm_out_ns);
                    }
                    if tl.ssd_ns > 0 {
                        obs.ssd.push(tl.ssd_ns);
                    }
                }
            }
        });
    }

    fn describe_wrong(&self, key_idx: usize, c: &Completion) -> String {
        let got = c.value.as_ref().map(|v| {
            (0..POOL)
                .find(|&i| self.pool.value(i)[..] == v[..])
                .map_or(format!("{} unknown bytes", v.len()), |i| {
                    format!("pool value {i}")
                })
        });
        let mask = self.written.borrow()[key_idx];
        let allowed: Vec<usize> = (0..POOL).filter(|i| mask & (1 << i) != 0).collect();
        format!(
            "GET of key {key_idx} returned {} from {:?}; values ever written to it: {allowed:?}",
            got.unwrap_or_else(|| "no value".into()),
            c.stages.served_from
        )
    }

    /// True if `v` equals a pool value that was written to the key.
    fn value_ok(&self, key_idx: usize, v: Option<&Bytes>) -> bool {
        let Some(v) = v else { return false };
        let mask = self.written.borrow()[key_idx];
        (0..POOL).any(|i| mask & (1 << i) != 0 && self.pool.value(i)[..] == v[..])
    }
}

/// One client's closed loop over `spec.ops_per_client` ops.
async fn client_loop(sh: Rc<Shared>, client: Rc<Client>, ci: usize) -> Out {
    let mut gen = Gen::new(&sh.spec, sh.seed, ci);
    let mut out = Out::default();
    let n = sh.spec.ops_per_client;
    let tag = (ci as u64) << 32;
    match sh.spec.api {
        Api::NonBlocking { window } => {
            let mut inflight: VecDeque<(bool, usize, u64, ReqHandle)> =
                VecDeque::with_capacity(window);
            for i in 0..n {
                if inflight.len() >= window {
                    let (w, k, op, h) = inflight.pop_front().expect("window is full");
                    sh.reap(&mut out, w, k, op, &h).await;
                }
                let op = tag | i as u64;
                let p = sh.plan(&mut gen, ci, op);
                let (w, k) = (p.write, p.key_idx);
                if let Some(h) = sh.issue(&client, &mut out, p, op).await {
                    inflight.push_back((w, k, op, h));
                }
            }
            while let Some((w, k, op, h)) = inflight.pop_front() {
                sh.reap(&mut out, w, k, op, &h).await;
            }
        }
        Api::Batched { group } => {
            let mut held = Vec::with_capacity(group);
            for start in (0..n).step_by(group) {
                for i in start..(start + group).min(n) {
                    let op = tag | i as u64;
                    let p = sh.plan(&mut gen, ci, op);
                    let (w, k) = (p.write, p.key_idx);
                    if let Some(h) = sh.issue(&client, &mut out, p, op).await {
                        held.push((w, k, op, h));
                    }
                }
                timed(sh.tr(), Layer::Issue, u64::MAX, || client.flush_batches());
                for (w, k, op, h) in held.drain(..) {
                    sh.reap(&mut out, w, k, op, &h).await;
                }
            }
        }
        Api::Blocking => {
            for i in 0..n {
                let op = tag | i as u64;
                let p = sh.plan(&mut gen, ci, op);
                let t0 = sh.sim.now();
                let res = if p.write {
                    sh.written.borrow_mut()[p.key_idx] |= 1 << p.val;
                    let fut = client.set(p.key, sh.pool.value(p.val), 0, None);
                    polled(sh.tr(), Layer::Issue, op, fut).await
                } else {
                    polled(sh.tr(), Layer::Issue, op, client.get(p.key)).await
                };
                out.issue
                    .push(sh.sim.now().saturating_since(t0).as_nanos() as u64);
                out.attempted += 1;
                sh.check(&mut out, p.write, p.key_idx, op, res);
            }
        }
    }
    out
}

/// Every layer counter, summed over nodes.
fn snapshot(sim: &Sim, cluster: &Cluster) -> Counters {
    let mut m = Counters::new();
    let mut add = |k: &'static str, v: u64| *m.entry(k).or_insert(0) += v;
    let st = sim.stats();
    add("simrt.polls", st.polls);
    add("simrt.timer_events", st.timer_events);
    add("simrt.tasks_spawned", st.tasks_spawned);
    for c in &cluster.clients {
        let s = c.stats();
        add("client.issued", s.issued);
        add("client.completed", s.completed);
        add("client.timeouts", s.timeouts);
        add("client.retries", s.retries);
        add("client.hedges", s.hedges);
        add("client.breaker_rejections", s.breaker_rejections);
        add("client.batches_sent", s.batches_sent);
        add("client.batched_ops", s.batched_ops);
        add("client.flush_on_count", s.flush_on_count);
        add("client.flush_on_size", s.flush_on_size);
        add("client.flush_on_deadline", s.flush_on_deadline);
        add("client.flush_on_doorbell", s.flush_on_doorbell);
        add("client.direct_hits", s.direct_hits);
        add("client.stale_retries", s.stale_retries);
        add("client.ssd_fallbacks", s.ssd_fallbacks);
        add("client.direct_lost", s.direct_lost);
        add("client.mode_flips", s.mode_flips);
        add("client.replica_reads", s.replica_reads);
        add("client.promotions", s.promotions);
        let mr = c.mr_stats();
        add("fabric.mr_hits", mr.hits);
        add("fabric.mr_misses", mr.misses);
    }
    for sv in &cluster.servers {
        let s = sv.stats();
        add("server.requests", s.requests);
        add("server.inline_handled", s.inline_handled);
        add("server.staged", s.staged);
        add("server.responses", s.responses);
        add("server.proto_errors", s.proto_errors);
        add("server.recv_during_flush", s.recv_during_flush);
        add("server.batches", s.batches);
        add("server.batch_ops", s.batch_ops);
        add("server.repl_sent", s.repl_sent);
        add("server.repl_acked", s.repl_acked);
        add("server.repl_retrans", s.repl_retrans);
        let s = sv.store().stats();
        add("store.sets", s.sets);
        add("store.get_hits_ram", s.get_hits_ram);
        add("store.get_hits_ssd", s.get_hits_ssd);
        add("store.get_misses", s.get_misses);
        add("store.flushed_pages", s.flushed_pages);
        add("store.evicted_items", s.evicted_items);
        add("store.promotes", s.promotes);
        add("store.inflight_hits", s.inflight_hits);
        add("store.repl_applied", s.repl_applied);
        add("store.repl_stale_drops", s.repl_stale_drops);
        if let Some(io) = sv.store().slab_io() {
            let s = io.io_stats();
            add("slab_io.reads", s.reads);
            add("slab_io.writes", s.writes);
            add("slab_io.read_bytes", s.read_bytes);
            add("slab_io.write_bytes", s.write_bytes);
            add("slab_io.direct_ops", s.direct_ops);
            add("slab_io.cached_ops", s.cached_ops);
            add("slab_io.mmap_ops", s.mmap_ops);
            add("slab_io.stall_ns", s.stall_ns);
        }
    }
    for l in &cluster.links {
        let s = l.stats();
        add("fabric.messages", s.messages);
        add("fabric.bytes", s.bytes);
    }
    m
}

fn delta(before: &Counters, after: &Counters) -> Counters {
    after
        .iter()
        .map(|(k, v)| (*k, v.saturating_sub(before.get(k).copied().unwrap_or(0))))
        .collect()
}

/// Levels at the end of the measured phase (not deltas).
fn gauges(cluster: &Cluster, m: &mut Counters) {
    let hwm = cluster
        .clients
        .iter()
        .map(|c| c.stats().window_hwm)
        .max()
        .unwrap_or(0);
    m.insert("client.window_hwm", hwm);
    let registered = cluster
        .clients
        .iter()
        .map(|c| c.mr_stats().registered_bytes)
        .sum();
    m.insert("fabric.mr_registered_bytes", registered);
}
