//! Free-form experiment runner: pick a design, sizes, mix, and device from
//! the command line and get a full report. The escape hatch for questions
//! the fixed figure harnesses don't answer.
//!
//! ```text
//! cargo run --release -p nbkv-bench --bin explore -- \
//!     --design h-rdma-opt-nonb-i --mem-mb 256 --data-mb 384 \
//!     --value-kb 32 --ops 4000 --read-pct 50 --device sata \
//!     --servers 1 --clients 1
//! ```

use nbkv_core::designs::Design;
use nbkv_storesim::{nvme_p3700, sata_ssd};
use nbkv_workload::OpMix;

use nbkv_bench::exp::LatencyExp;
use nbkv_bench::table::{us, us_f, Table};

fn parse_design(s: &str) -> Option<Design> {
    let norm = s.to_lowercase();
    Design::ALL
        .into_iter()
        .find(|d| d.label().to_lowercase() == norm)
}

struct Args(Vec<String>);

impl Args {
    fn get(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn num<T: std::str::FromStr>(&self, flag: &str, default: T) -> T {
        self.get(flag)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }
}

fn main() {
    let args = Args(std::env::args().skip(1).collect());
    if args.0.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "flags: --design <label> --mem-mb N --data-mb N --value-kb N --ops N \
             --read-pct N --device sata|nvme --servers N --clients N --window N \
             --direct off|always|adaptive"
        );
        println!("designs: {}", Design::ALL.map(|d| d.label()).join(", "));
        return;
    }
    let design = args
        .get("--design")
        .and_then(parse_design)
        .unwrap_or(Design::HRdmaOptNonBI);
    let mem = args.num("--mem-mb", 256u64) << 20;
    let data = args.num("--data-mb", 384u64) << 20;
    let value_len = (args.num("--value-kb", 32usize)) << 10;
    let device = match args.get("--device") {
        Some("nvme") => nvme_p3700(),
        _ => sata_ssd(),
    };

    let exp = LatencyExp {
        design,
        mem_bytes: mem,
        data_bytes: data,
        value_len,
        ops_per_client: args.num("--ops", 4000usize),
        mix: OpMix {
            read_pct: args.num("--read-pct", 50u8).min(100),
        },
        device,
        servers: args.num("--servers", 1usize).max(1),
        clients: args.num("--clients", 1usize).max(1),
        window: args.num("--window", 64usize).max(1),
        ssd_capacity: 16 * mem,
        batch: 0,
        direct: match args.get("--direct") {
            Some("always") => nbkv_core::DirectPolicy::Always,
            Some("adaptive") => nbkv_core::DirectPolicy::Adaptive,
            _ => nbkv_core::DirectPolicy::Off,
        },
        replication: nbkv_core::ReplicationConfig::disabled(),
        crash: None,
        resilience: None,
    };

    eprintln!(
        "running: {} | mem {} MiB x{} servers | data {} MiB | kv {} KiB | {} ops x{} clients | {}",
        design.label(),
        mem >> 20,
        exp.servers,
        data >> 20,
        value_len >> 10,
        exp.ops_per_client,
        exp.clients,
        device.name,
    );
    let r = exp.run();

    let mut t = Table::new(
        "explore",
        &format!("{} custom run", design.label()),
        &["metric", "value"],
    );
    let gets = (r.hits + r.misses).max(1);
    t.row(vec!["mean latency (us)".into(), us(r.mean_latency_ns)]);
    t.row(vec!["p99 latency (us)".into(), us(r.p99_latency_ns)]);
    t.row(vec![
        "throughput (ops/s)".into(),
        format!("{:.0}", r.throughput_ops_per_sec()),
    ]);
    t.row(vec!["overlap %".into(), format!("{:.1}", r.overlap_pct)]);
    t.row(vec![
        "miss rate %".into(),
        format!("{:.2}", 100.0 * r.misses as f64 / gets as f64),
    ]);
    t.row(vec![
        "ssd-hit rate %".into(),
        format!("{:.2}", 100.0 * r.ssd_hits as f64 / gets as f64),
    ]);
    t.row(vec![
        "backend queries".into(),
        r.backend_fetches.to_string(),
    ]);
    t.row(vec![
        "stage: slab alloc (us)".into(),
        us_f(r.breakdown.slab_alloc_ns),
    ]);
    t.row(vec![
        "stage: check+load (us)".into(),
        us_f(r.breakdown.check_load_ns),
    ]);
    t.row(vec![
        "stage: cache update (us)".into(),
        us_f(r.breakdown.cache_update_ns),
    ]);
    t.row(vec![
        "stage: server resp (us)".into(),
        us_f(r.breakdown.response_ns),
    ]);
    t.row(vec![
        "stage: client wait (us)".into(),
        us_f(r.breakdown.client_wait_ns),
    ]);
    t.row(vec![
        "stage: miss penalty (us)".into(),
        us_f(r.breakdown.miss_penalty_ns),
    ]);
    println!("{}", t.to_markdown());
}
