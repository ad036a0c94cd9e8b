//! Two-clock benchmark for nbkv.
//!
//! Virtual-time metrics (`vt_*`) measure the modelled store; wall-clock
//! metrics measure how fast the simulator produces it. A run repeats
//! build + preload + measured phase at one seed until its time is up and
//! reports the fastest repetition's throughput and the median set-up time;
//! every repetition must give the same virtual-time results. A traced run
//! interleaves untraced and traced repetitions and reports per-layer
//! figures. See `README.md`.

pub mod drive;
pub mod replay;
pub mod spec;
pub mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use drive::{run_rep, Quantiles, Vt};
use spec::{Spec, MIN_SAMPLES};
use trace::LayerTimes;

/// Fewest repetitions of each kind in one run.
pub const MIN_REPS: usize = 3;

/// Run options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Input seed.
    pub seed: u64,
    /// Wall time to keep repeating for.
    pub seconds: Duration,
    /// Interleave traced repetitions and report per-layer metrics.
    pub trace: bool,
    /// Where a traced run writes its spans.
    pub trace_out: Option<PathBuf>,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
}

/// Everything a run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// No wrong output, enough samples, and identical virtual-time
    /// results in every repetition.
    pub correct: bool,
    /// Why `correct` is false.
    pub problems: Vec<String>,
    /// Ops issued over all measured phases.
    pub attempted: u64,
    /// Ops that failed over all measured phases.
    pub failed: u64,
    /// Untraced repetitions.
    pub reps: usize,
    /// Traced repetitions.
    pub traced_reps: usize,
    /// GET and SET samples per measured phase.
    pub samples: (u64, u64),
    /// End-to-end metrics.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
}

/// Run `spec` under `opts`.
pub fn run(spec: &Spec, opts: &Options) -> Outcome {
    let start = Instant::now();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut traced_vt = Vec::new();
    let mut last_trace = None;
    while plain.len() < MIN_REPS || start.elapsed() < opts.seconds {
        plain.push(run_rep(spec, opts.seed, false));
        if opts.trace {
            let mut rep = run_rep(spec, opts.seed, true);
            let (spans, observed) = rep.traced.take().expect("traced repetition");
            traced.push((trace::layer_times(&spans), rep.measure_s));
            traced_vt.push(rep.vt);
            last_trace = Some((spans, observed));
        }
    }

    let vt = plain[0].vt.clone();
    let mut problems = Vec::new();
    if vt.wrong > 0 {
        problems.push(format!(
            "{} GETs missed or returned a value never written to their key; first: {}",
            vt.wrong,
            vt.first_wrong.as_deref().unwrap_or("?")
        ));
    }
    if vt.get.n < MIN_SAMPLES || vt.set.n < MIN_SAMPLES {
        problems.push(format!(
            "too few samples: {} GETs, {} SETs (need {MIN_SAMPLES} of each)",
            vt.get.n, vt.set.n
        ));
    }
    if plain.iter().any(|r| r.vt != vt) {
        problems.push("virtual-time results differ between repetitions at one seed".into());
    }
    if traced_vt.iter().any(|v| *v != vt) {
        problems.push("tracing changed the virtual-time results".into());
    }

    let ops = vt.attempted as f64;
    let wall_kops = best_kops(ops, plain.iter().map(|r| r.measure_s));
    let mut end_to_end = end_to_end(&vt);
    end_to_end.extend([
        m("wall_kops", "kops/s", wall_kops),
        m(
            "setup_s",
            "s",
            median(plain.iter().map(|r| r.setup_s).collect()),
        ),
        m("peak_rss_mb", "MB", peak_rss_kib() / 1024.0),
        m("failed_op_share", "ratio", ratio(vt.failed, vt.attempted)),
    ]);

    let mut per_layer = Vec::new();
    if let Some((spans, observed)) = last_trace {
        if let Some(dir) = &opts.trace_out {
            let path = dir.join(format!("spans-{}-seed{}.tsv", spec.name, opts.seed));
            if let Err(e) = trace::write_spans(&path, &spans) {
                problems.push(format!("writing {}: {e}", path.display()));
            }
        }
        drop(spans);
        let replays = replay::run(spec, &observed.ops);
        let traced_kops = best_kops(ops, traced.iter().map(|(_, s)| *s));
        let times: Vec<LayerTimes> = traced.iter().map(|(t, _)| *t).collect();
        per_layer = layer_metrics(spec, &vt, &times, &observed, &replays);
        per_layer.extend([
            m("trace.wall_kops_untraced", "kops/s", wall_kops),
            m("trace.wall_kops_traced", "kops/s", traced_kops),
            m(
                "trace.overhead_pct",
                "%",
                (wall_kops / traced_kops - 1.0) * 100.0,
            ),
        ]);
    }

    let all_vt = plain.iter().map(|r| &r.vt).chain(traced_vt.iter());
    let (attempted, failed) = all_vt.fold((0, 0), |(a, f), v| (a + v.attempted, f + v.failed));
    Outcome {
        correct: problems.is_empty(),
        problems,
        attempted,
        failed,
        reps: plain.len(),
        traced_reps: traced.len(),
        samples: (vt.get.n, vt.set.n),
        end_to_end,
        per_layer,
    }
}

/// Throughput of the fastest repetition, in kops/s. On a shared host,
/// interference only ever slows a repetition down, and the fastest one
/// varies least between runs.
fn best_kops(ops: f64, measure_s: impl Iterator<Item = f64>) -> f64 {
    measure_s.map(|s| ops / s / 1e3).fold(0.0, f64::max)
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Median of `v` (0 when empty).
pub(crate) fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident memory of this process (`VmHWM`), in KiB.
fn peak_rss_kib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0.0)
}

/// The virtual-time end-to-end metrics.
fn end_to_end(vt: &Vt) -> Vec<Metric> {
    vec![
        m(
            "vt_kops",
            "kops/s",
            vt.attempted as f64 / (vt.vt_ns as f64 / 1e9) / 1e3,
        ),
        m("vt_get_p50_us", "us", us(vt.get.p50)),
        m("vt_get_p999_us", "us", us(vt.get.p999)),
        m("vt_set_p50_us", "us", us(vt.set.p50)),
        m("vt_set_p999_us", "us", us(vt.set.p999)),
        m("vt_issue_p50_us", "us", us(vt.issue.p50)),
    ]
}

/// Per-layer metrics from the counters, the traced repetitions' spans,
/// the server timelines and the replays.
fn layer_metrics(
    spec: &Spec,
    vt: &Vt,
    times: &[LayerTimes],
    obs: &drive::Observed,
    rp: &replay::Replays,
) -> Vec<Metric> {
    let c = |k: &str| vt.c(k);
    let ops = vt.attempted;
    let per_op = |k: &str| ratio(c(k), ops);
    let wall = |f: fn(&LayerTimes) -> u64| {
        median(times.iter().map(|t| f(t) as f64 / ops as f64).collect())
    };
    let gets = vt.get.n;
    let sets = vt.set.n;
    let store_gets = c("store.get_hits_ram") + c("store.get_hits_ssd") + c("store.get_misses");
    let ops_per_frame = if c("client.batches_sent") > 0 {
        ratio(c("client.batched_ops"), c("client.batches_sent"))
    } else {
        1.0
    };
    let phase = |i: usize| {
        let mut v = obs.phases[i].clone();
        Quantiles::of(&mut v)
    };
    let (comm_in, dispatch, store, comm_out) = (phase(0), phase(1), phase(2), phase(3));
    let ssd = Quantiles::of(&mut obs.ssd.clone());
    vec![
        m("simrt.polls_per_op", "polls/op", per_op("simrt.polls")),
        m(
            "simrt.timer_events_per_op",
            "events/op",
            per_op("simrt.timer_events"),
        ),
        m(
            "simrt.tasks_spawned_per_op",
            "tasks/op",
            per_op("simrt.tasks_spawned"),
        ),
        m(
            "simrt.self_wall_ns_per_op",
            "ns/op",
            wall(|t| t.sim_self_ns),
        ),
        m("workload.plan_wall_ns_per_op", "ns/op", wall(|t| t.plan_ns)),
        m("client.issue_wall_ns_per_op", "ns/op", wall(|t| t.issue_ns)),
        m("client.wait_wall_ns_per_op", "ns/op", wall(|t| t.wait_ns)),
        m(
            "client.direct_hit_ratio",
            "ratio",
            ratio(c("client.direct_hits"), gets),
        ),
        m(
            "client.stale_retries",
            "count",
            c("client.stale_retries") as f64,
        ),
        m(
            "client.ssd_fallbacks",
            "count",
            c("client.ssd_fallbacks") as f64,
        ),
        m("client.ops_per_frame", "ops/frame", ops_per_frame),
        m(
            "client.flush_on_count",
            "count",
            c("client.flush_on_count") as f64,
        ),
        m(
            "client.flush_on_size",
            "count",
            c("client.flush_on_size") as f64,
        ),
        m(
            "client.flush_on_deadline",
            "count",
            c("client.flush_on_deadline") as f64,
        ),
        m(
            "client.flush_on_doorbell",
            "count",
            c("client.flush_on_doorbell") as f64,
        ),
        m(
            "client.replica_read_share",
            "ratio",
            ratio(c("client.replica_reads"), gets),
        ),
        m("client.retries", "count", c("client.retries") as f64),
        m("client.timeouts", "count", c("client.timeouts") as f64),
        m("client.window_hwm", "count", c("client.window_hwm") as f64),
        m(
            "fabric.messages_per_op",
            "msgs/op",
            per_op("fabric.messages"),
        ),
        m("fabric.bytes_per_op", "B/op", per_op("fabric.bytes")),
        m(
            "fabric.mr_hit_ratio",
            "ratio",
            ratio(
                c("fabric.mr_hits"),
                c("fabric.mr_hits") + c("fabric.mr_misses"),
            ),
        ),
        m(
            "fabric.mr_registered_mb",
            "MB",
            c("fabric.mr_registered_bytes") as f64 / (1u64 << 20) as f64,
        ),
        m("fabric.mr_wall_ns_per_kib", "ns/KiB", rp.mr_ns_per_kib),
        m("proto.encode_wall_ns_per_op", "ns/op", rp.encode_ns_per_op),
        m("proto.decode_wall_ns_per_op", "ns/op", rp.decode_ns_per_op),
        m(
            "proto.request_bytes_per_op",
            "B/op",
            rp.request_bytes_per_op,
        ),
        m(
            "proto.response_bytes_per_op",
            "B/op",
            rp.response_bytes_per_op,
        ),
        m("server.vt_comm_in_p50_us", "us", us(comm_in.p50)),
        m("server.vt_comm_in_p999_us", "us", us(comm_in.p999)),
        m("server.vt_dispatch_p50_us", "us", us(dispatch.p50)),
        m("server.vt_dispatch_p999_us", "us", us(dispatch.p999)),
        m("server.vt_store_p50_us", "us", us(store.p50)),
        m("server.vt_store_p999_us", "us", us(store.p999)),
        m("server.vt_comm_out_p50_us", "us", us(comm_out.p50)),
        m("server.vt_comm_out_p999_us", "us", us(comm_out.p999)),
        m(
            "server.inline_share",
            "ratio",
            ratio(c("server.inline_handled"), c("server.requests")),
        ),
        m(
            "server.recv_during_flush_share",
            "ratio",
            ratio(c("server.recv_during_flush"), c("server.requests")),
        ),
        m(
            "server.batch_ops_per_frame",
            "ops/frame",
            ratio(c("server.batch_ops"), c("server.batches")),
        ),
        m(
            "store.ram_hit_share",
            "ratio",
            ratio(c("store.get_hits_ram"), store_gets),
        ),
        m(
            "store.ssd_hit_share",
            "ratio",
            ratio(c("store.get_hits_ssd"), store_gets),
        ),
        m(
            "store.evicted_per_kop",
            "items/kop",
            ratio(c("store.evicted_items") * 1000, ops),
        ),
        m(
            "store.flushed_pages",
            "count",
            c("store.flushed_pages") as f64,
        ),
        m("store.promotes", "count", c("store.promotes") as f64),
        m(
            "store.inflight_hits",
            "count",
            c("store.inflight_hits") as f64,
        ),
        m("store.set_wall_ns_per_op", "ns/op", rp.store_set_ns_per_op),
        m("store.get_wall_ns_per_op", "ns/op", rp.store_get_ns_per_op),
        m(
            "slab_io.write_bytes_per_user_byte",
            "ratio",
            ratio(c("slab_io.write_bytes"), sets * spec.value_len as u64),
        ),
        m(
            "slab_io.read_bytes_per_get",
            "B/op",
            ratio(c("slab_io.read_bytes"), gets),
        ),
        m("slab_io.stall_ms", "ms", c("slab_io.stall_ns") as f64 / 1e6),
        m(
            "slab_io.direct_ops",
            "count",
            c("slab_io.direct_ops") as f64,
        ),
        m(
            "slab_io.cached_ops",
            "count",
            c("slab_io.cached_ops") as f64,
        ),
        m("slab_io.mmap_ops", "count", c("slab_io.mmap_ops") as f64),
        m("ssd.vt_p50_us", "us", us(ssd.p50)),
        m(
            "repl.deltas_per_set",
            "ratio",
            ratio(c("server.repl_sent"), sets),
        ),
        m("repl.retrans", "count", c("server.repl_retrans") as f64),
        m("repl.lag_ops_max", "count", c("repl.lag_ops_max") as f64),
        m(
            "store.repl_applied",
            "count",
            c("store.repl_applied") as f64,
        ),
        m(
            "store.repl_stale_drops",
            "count",
            c("store.repl_stale_drops") as f64,
        ),
        m("bench.check_wall_ns_per_op", "ns/op", wall(|t| t.check_ns)),
        m("bench.get_samples", "count", gets as f64),
        m("bench.set_samples", "count", sets as f64),
    ]
}
