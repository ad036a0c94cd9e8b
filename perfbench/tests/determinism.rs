//! Determinism self-test: the modelled system must not depend on
//! anything but the seed — not on the repetition, and not on tracing.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use nbkv_perfbench::drive::run_rep;
use nbkv_perfbench::spec;

const DIVISOR: u64 = 8;

fn shrunk(name: &str) -> spec::Spec {
    spec::by_name(name)
        .expect("workload exists")
        .shrunk(DIVISOR)
}

fn same_seed_same_results(name: &str) {
    let s = shrunk(name);
    let a = run_rep(&s, 7, false);
    let b = run_rep(&s, 7, false);
    assert_eq!(a.vt, b.vt);
    assert!(a.vt.attempted > 0 && !a.vt.counters.is_empty());
}

fn tracing_leaves_results_alone(name: &str) {
    let s = shrunk(name);
    let plain = run_rep(&s, 11, false);
    let traced = run_rep(&s, 11, true);
    assert_eq!(plain.vt, traced.vt);
    let (spans, observed) = traced.traced.expect("traced repetition records spans");
    assert!(!spans.is_empty());
    assert_eq!(observed.ops.len() as u64, plain.vt.attempted);
}

fn output_check_passes(name: &str) {
    let vt = run_rep(&shrunk(name), 3, false).vt;
    assert_eq!((vt.wrong, vt.failed), (0, 0), "{:?}", vt.first_wrong);
}

/// One test module per workload, so a failure names its workload.
macro_rules! per_workload {
    ($($module:ident => $name:literal),* $(,)?) => {$(
        mod $module {
            #[test]
            fn one_seed_gives_identical_virtual_results_and_counters() {
                super::same_seed_same_results($name);
            }

            #[test]
            fn tracing_does_not_perturb_the_modelled_system() {
                super::tracing_leaves_results_alone($name);
            }

            #[test]
            fn output_check_passes() {
                super::output_check_passes($name);
            }
        }
    )*};
}

per_workload! {
    ssd_spill_32k => "ssd-spill-32k",
    ram_read_direct_1k => "ram-read-direct-1k",
    batch_write_1k => "batch-write-1k",
    repl_block_4k => "repl-block-4k",
}

#[test]
fn seeds_change_the_inputs() {
    let s = shrunk("repl-block-4k");
    let a = run_rep(&s, 1, false);
    let b = run_rep(&s, 2, false);
    assert_eq!(a.vt.attempted, b.vt.attempted);
    assert_ne!(a.vt.counters, b.vt.counters);
}

#[test]
fn reports_every_metric_benchmark_json_lists() {
    let listed = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let section = |key: &str| -> Vec<String> {
        let start = listed.find(&format!("\"{key}\"")).expect("section present");
        let body = &listed[start..];
        let end = body.find(']').expect("section closes");
        body[..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| rest[..rest.find('"').expect("name closes")].to_string())
            .collect()
    };
    let s = spec::by_name("batch-write-1k")
        .expect("workload exists")
        .shrunk(64);
    let out = nbkv_perfbench::run(
        &s,
        &nbkv_perfbench::Options {
            seed: 1,
            seconds: std::time::Duration::ZERO,
            trace: true,
            trace_out: None,
        },
    );
    let names = |ms: &[nbkv_perfbench::Metric]| -> Vec<String> {
        ms.iter().map(|m| m.name.to_string()).collect()
    };
    let e2e = names(&out.end_to_end);
    let layer = names(&out.per_layer);
    for n in section("end_to_end") {
        assert!(e2e.contains(&n), "end-to-end metric {n} not reported");
    }
    for n in section("per_layer") {
        assert!(layer.contains(&n), "per-layer metric {n} not reported");
    }
}
