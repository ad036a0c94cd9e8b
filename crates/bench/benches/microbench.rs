//! Real-time microbenchmarks of the substrate data structures: these
//! measure how fast the *simulator itself* runs (wall-clock), complementing
//! the virtual-time figure harnesses.
//!
//! `cargo bench -p nbkv-bench --bench microbench` prints one line per
//! benchmark: mean wall-clock ns per iteration.

use std::hint::black_box;
use std::time::{Duration, Instant};

use bytes::Bytes;
use nbkv_core::client::Ring;
use nbkv_core::proto::{ApiFlavor, Request, Response, SetMode};
use nbkv_core::server::slab::{SlabConfig, SlabPool};
use nbkv_simrt::Sim;
use nbkv_storesim::LruMap;
use nbkv_workload::Zipf;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Each benchmark doubles its iteration count until one timed batch takes
/// at least this long.
const MIN_BATCH: Duration = Duration::from_millis(20);

/// Time `f` and print its mean ns per iteration.
fn bench<T>(label: &str, mut f: impl FnMut() -> T) {
    // Warm-up.
    for _ in 0..2 {
        black_box(f());
    }
    let mut iters = 1u64;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let took = start.elapsed();
        if took >= MIN_BATCH {
            let mean = took.as_nanos() / u128::from(iters);
            println!("bench {label}: {mean} ns/iter ({iters} iters)");
            return;
        }
        iters *= 2;
    }
}

fn bench_executor() {
    bench("simrt/spawn_and_run_1000_tasks", || {
        let sim = Sim::new();
        for i in 0..1000u64 {
            let s = sim.clone();
            sim.spawn(async move {
                s.sleep(Duration::from_nanos(i % 97)).await;
            });
        }
        sim.run();
        sim.stats().timer_events
    });
    bench("simrt/timer_heap_10k_events", || {
        let sim = Sim::new();
        for i in 0..10_000u64 {
            sim.schedule_in(Duration::from_nanos(i * 7 % 1013), |_| {});
        }
        sim.run();
    });
}

fn bench_slab() {
    let mut pool = SlabPool::new(SlabConfig::with_mem(8 << 20));
    let class = pool.class_for(1024).expect("class");
    bench("slab/alloc_write_free_cycle", || {
        let id = pool.try_alloc(class).expect("alloc");
        pool.write_item(id, b"bench-key", &[7u8; 900], 0, 0, None);
        pool.free_chunk(id);
        id
    });
}

fn bench_lru() {
    let mut lru: LruMap<u64, ()> = LruMap::new();
    for i in 0..10_000u64 {
        lru.insert(i, ());
    }
    let mut i = 10_000u64;
    bench("lru/insert_touch_pop", || {
        lru.insert(i, ());
        lru.touch(&(i / 2));
        lru.pop_lru();
        i += 1;
    });
}

fn bench_proto() {
    for size in [64usize, 4 << 10, 32 << 10] {
        let req = Request::Set {
            req_id: 42,
            flavor: ApiFlavor::NonBlockingI,
            mode: SetMode::Set,
            flags: 7,
            expire_at_ns: 0,
            key: Bytes::from_static(b"bench-key-000001"),
            value: Bytes::from(vec![9u8; size]),
        };
        bench(&format!("proto/set_encode/{size}"), || req.encode());
        let wire = req.encode();
        bench(&format!("proto/set_decode/{size}"), || {
            Request::decode(&wire).expect("decode")
        });
        let resp = Response::Get {
            req_id: 42,
            status: nbkv_core::proto::OpStatus::Hit,
            stages: Default::default(),
            flags: 0,
            cas: 1,
            value: Some(Bytes::from(vec![9u8; size])),
        };
        bench(&format!("proto/get_resp_roundtrip/{size}"), || {
            Response::decode(&resp.encode()).expect("decode")
        });
    }
}

fn bench_workload_gen() {
    let zipf = Zipf::new(100_000, 0.99);
    let mut rng = StdRng::seed_from_u64(3);
    bench("workload/zipf_sample_100k_ranks", || zipf.sample(&mut rng));
    let ring = Ring::new(16);
    let mut i = 0u64;
    bench("workload/ring_select_16_servers", || {
        i += 1;
        ring.select(format!("user{i:012}").as_bytes())
    });
}

fn main() {
    bench_executor();
    bench_slab();
    bench_lru();
    bench_proto();
    bench_workload_gen();
}
