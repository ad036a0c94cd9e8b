//! Server-count scaling sweep: aggregated throughput as the cluster grows
//! from 1 to 8 servers under a fixed per-client load (an extension of the
//! paper's Figure 7(c) scalability story).

use nbkv_bench::exp::{scaled_bytes, scaled_ops, LatencyExp};
use nbkv_bench::manifest::Manifest;
use nbkv_bench::table::Table;
use nbkv_core::designs::Design;
use nbkv_workload::{OpMix, RunReport};

fn run_point(design: Design, servers: usize) -> RunReport {
    let agg_mem = scaled_bytes(1 << 30);
    LatencyExp {
        design,
        mem_bytes: (agg_mem / servers as u64).max(2 << 20),
        data_bytes: 2 * agg_mem,
        value_len: 8 << 10,
        ops_per_client: scaled_ops(1000).max(200) / 4,
        mix: OpMix::WRITE_HEAVY,
        device: nbkv_storesim::sata_ssd(),
        servers,
        clients: 32,
        window: 32,
        ssd_capacity: 4 * agg_mem / servers as u64,
        batch: 0,
        direct: nbkv_core::DirectPolicy::Off,
        replication: nbkv_core::ReplicationConfig::disabled(),
        crash: None,
        resilience: None,
    }
    .run()
}

fn main() {
    nbkv_bench::figs::banner("scaling");
    let mut m = Manifest::new("scaling");
    let mut t = Table::new(
        "scaling",
        "Aggregated throughput (ops/s) vs server count, 32 clients, 8 KiB kv",
        &[
            "servers",
            "H-RDMA-Opt-Block",
            "H-RDMA-Opt-NonB-i",
            "NonB-i speedup vs 1 server",
        ],
    );
    let mut base_nonb = 0.0;
    for servers in [1usize, 2, 4, 8] {
        let block_r = run_point(Design::HRdmaOptBlock, servers);
        let nonb_r = run_point(Design::HRdmaOptNonBI, servers);
        m.record_report(
            &format!("s{servers}/{}", Design::HRdmaOptBlock.label()),
            &block_r,
        );
        m.record_report(
            &format!("s{servers}/{}", Design::HRdmaOptNonBI.label()),
            &nonb_r,
        );
        let block = block_r.throughput_ops_per_sec();
        let nonb = nonb_r.throughput_ops_per_sec();
        if servers == 1 {
            base_nonb = nonb;
        }
        t.row(vec![
            servers.to_string(),
            format!("{block:.0}"),
            format!("{nonb:.0}"),
            format!("{:.1}x", nonb / base_nonb.max(1.0)),
        ]);
    }
    t.note("expected: throughput grows with server count (the paper's underlying scalability premise); non-blocking keeps its advantage at every size.");
    t.emit();
    m.emit();
}
