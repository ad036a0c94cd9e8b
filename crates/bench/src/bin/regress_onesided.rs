//! Deterministic one-sided-read regression bench: pinned-scale runs of
//! the RPC / direct / adaptive GET paths whose figure JSON and manifest
//! are diffed against committed goldens by `scripts/regress.sh`.
//!
//! Everything is pinned — sizes, ops, seeds — and
//! independent of `NBKV_SCALE`, so the outputs are byte-identical across
//! runs of the same tree. Raw nanosecond values are reported so even
//! one-tick drift in the two-read validation path or the adaptive policy
//! fails the gate. The RDMA reads and bytes per GET come from the
//! `client.direct_reads` and `client.direct_read_bytes` counters.

use nbkv_bench::exp::LatencyExp;
use nbkv_bench::manifest::Manifest;
use nbkv_bench::table::Table;
use nbkv_core::designs::Design;
use nbkv_core::DirectPolicy;
use nbkv_workload::OpMix;

const MEM: u64 = 8 << 20;
const OPS: usize = 600;

/// Pinned small experiment: non-blocking window 64 over one server.
fn small_exp(mix: OpMix, direct: DirectPolicy, data: u64, value_len: usize) -> LatencyExp {
    LatencyExp {
        value_len,
        mix,
        ops_per_client: OPS,
        window: 64,
        direct,
        ..LatencyExp::single(Design::HRdmaOptNonBI, MEM, data)
    }
}

/// Exact latencies and direct-path counters per mix/policy, including an
/// eviction shape whose flushed keys read as stale (their pages are
/// zeroed) and fall back to RPC GETs served from SSD.
fn regress_onesided(m: &mut Manifest) -> Table {
    let mut t = Table::new(
        "regress_onesided",
        "Regression: exact one-sided GET counters (ns), pinned small scale",
        &[
            "case",
            "policy",
            "mean (ns)",
            "ops",
            "direct",
            "stale",
            "ssd-fb",
            "lost",
            "flips",
            "rdma reads/get",
            "rdma B/get",
        ],
    );
    // (case label, mix, data bytes, value len, policies)
    let ram = 4 << 20;
    let evict = 12 << 20;
    let cases: [(&str, OpMix, u64, usize, &[DirectPolicy]); 3] = [
        (
            "read-heavy/ram",
            nbkv_bench::figs::onesided::READ_HEAVY,
            ram,
            1 << 10,
            &[
                DirectPolicy::Off,
                DirectPolicy::Always,
                DirectPolicy::Adaptive,
            ],
        ),
        (
            "write-heavy/ram",
            OpMix::WRITE_HEAVY,
            ram,
            1 << 10,
            &[DirectPolicy::Off, DirectPolicy::Adaptive],
        ),
        (
            "read-heavy/evict",
            nbkv_bench::figs::onesided::READ_HEAVY,
            evict,
            2 << 10,
            &[DirectPolicy::Always],
        ),
    ];
    for (case, mix, data, value_len, policies) in cases {
        for &direct in policies {
            let label = nbkv_bench::figs::onesided::policy_label(direct);
            let (r, cluster_reg) = small_exp(mix, direct, data, value_len).run_obs();
            let reg = m.record_report(&format!("{case}/{label}"), &r);
            reg.merge(&cluster_reg);
            let gets = (r.hits + r.misses).max(1) as f64;
            let per_get = |name: &str| cluster_reg.counter(name) as f64 / gets;
            t.row(vec![
                case.to_string(),
                label.to_string(),
                r.mean_latency_ns.to_string(),
                r.ops.to_string(),
                cluster_reg.counter("client.direct_hits").to_string(),
                cluster_reg.counter("client.stale_retries").to_string(),
                cluster_reg.counter("client.ssd_fallbacks").to_string(),
                cluster_reg.counter("client.direct_lost").to_string(),
                cluster_reg.counter("client.mode_flips").to_string(),
                format!("{:.2}", per_get("client.direct_reads")),
                format!("{:.0}", per_get("client.direct_read_bytes")),
            ]);
        }
    }
    t.note(
        "pinned: 8 MiB memory, 1-2 KiB values, 600 ops, window 64, seed 42; \
         NBKV_SCALE does not apply.",
    );
    t.note(
        "the evict case preloads 12 MiB into 8 MiB of memory, so direct reads hit \
         descriptors marked not-in-RAM and must fall back (ssd-fb > 0).",
    );
    t
}

fn main() {
    nbkv_bench::figs::banner("regress_onesided");
    // Fixed scale/seed: the manifest must not vary with the environment.
    let mut m = Manifest::new_fixed("regress_onesided", 1.0, 42);
    regress_onesided(&mut m).emit();
    m.emit();
}
