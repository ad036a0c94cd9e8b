//! Client robustness under hostile response streams: a fake server
//! answers pending `iget`/`iset`/`incr` ops with arbitrary frames — random
//! bytes, damaged valid responses, valid responses of every kind carrying
//! ids drawn from the ops it has seen, and batch frames of those. The
//! client must never panic, must settle every op, and must get every
//! send-window permit back.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use nbkv_core::proto::{OpStatus, Request, Response, StageTimes};
use nbkv_core::{BatchPolicy, Client, ClientConfig, ResiliencePolicy};
use nbkv_fabric::Fabric;
use nbkv_simrt::Sim;
use proptest::prelude::*;

const MAX_OUTSTANDING: usize = 8;

/// A valid response, resolved against the ids the fake server has seen.
#[derive(Clone, Copy)]
struct Reply {
    /// Set, Get, Delete, Counter, ReplAck.
    kind: u8,
    /// Index (mod the number seen) of the op id it answers.
    pick: usize,
    status: u8,
    with_value: bool,
}

#[derive(Clone)]
enum Frame {
    Noise(Vec<u8>),
    Whole(Reply),
    Truncated(Reply, usize),
    Flipped(Reply, usize, u8),
    Batch(Vec<Reply>),
}

fn arb_reply() -> impl Strategy<Value = Reply> {
    (0u8..5, any::<usize>(), 0u8..8, any::<bool>()).prop_map(|(kind, pick, status, with_value)| {
        Reply {
            kind,
            pick,
            status,
            with_value,
        }
    })
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        prop::collection::vec(any::<u8>(), 0..48).prop_map(Frame::Noise),
        arb_reply().prop_map(Frame::Whole),
        (arb_reply(), any::<usize>()).prop_map(|(r, at)| Frame::Truncated(r, at)),
        (arb_reply(), any::<usize>(), 1u8..=255).prop_map(|(r, at, x)| Frame::Flipped(r, at, x)),
        prop::collection::vec(arb_reply(), 1..5).prop_map(Frame::Batch),
    ]
}

fn response(r: Reply, seen: &[u64]) -> Response {
    let req_id = if seen.is_empty() {
        r.pick as u64
    } else {
        seen[r.pick % seen.len()]
    };
    let status = [
        OpStatus::Stored,
        OpStatus::Hit,
        OpStatus::Miss,
        OpStatus::Deleted,
        OpStatus::NotFound,
        OpStatus::Exists,
        OpStatus::NotStored,
        OpStatus::Error,
    ][r.status as usize];
    let stages = StageTimes::default();
    match r.kind {
        0 => Response::Set {
            req_id,
            status,
            stages,
        },
        1 => Response::Get {
            req_id,
            status,
            stages,
            flags: 3,
            cas: 9,
            value: r.with_value.then(|| Bytes::from_static(b"fuzz")),
        },
        2 => Response::Delete {
            req_id,
            status,
            stages,
        },
        3 => Response::Counter {
            req_id,
            status,
            stages,
            value: 41,
        },
        _ => Response::ReplAck {
            req_id,
            status,
            stages,
            seq: 1,
        },
    }
}

fn render(frame: &Frame, seen: &[u64]) -> Bytes {
    match frame {
        Frame::Noise(bytes) => Bytes::from(bytes.clone()),
        Frame::Whole(r) => response(*r, seen).encode(),
        Frame::Truncated(r, at) => {
            let wire = response(*r, seen).encode();
            wire.slice(..at % wire.len())
        }
        Frame::Flipped(r, at, x) => {
            let mut wire = response(*r, seen).encode().to_vec();
            let i = at % wire.len();
            wire[i] ^= x;
            Bytes::from(wire)
        }
        Frame::Batch(members) => {
            let members = members.iter().map(|r| response(*r, seen)).collect();
            Response::batch(0, members).unwrap().encode()
        }
    }
}

/// The correct answer to `op` (used once the fuzzing phase is over).
fn echo(op: &Request) -> Response {
    let (req_id, status, stages) = (op.req_id(), OpStatus::Stored, StageTimes::default());
    match op {
        Request::Get { .. } => Response::Get {
            req_id,
            status: OpStatus::Miss,
            stages,
            flags: 0,
            cas: 0,
            value: None,
        },
        Request::Counter { .. } => Response::Counter {
            req_id,
            status,
            stages,
            value: 1,
        },
        _ => Response::Set {
            req_id,
            status,
            stages,
        },
    }
}

/// A client whose one connection leads to a fuzzing server: each request
/// frame it receives is answered with the next three fuzz frames;
/// once `echo_mode` is set, every op is answered correctly instead.
fn fuzzed_client(
    sim: &Sim,
    frames: Vec<Frame>,
    batched: bool,
    echo_mode: Rc<Cell<bool>>,
) -> Rc<Client> {
    let fabric = Fabric::new(sim, nbkv_fabric::profiles::fdr_rdma());
    let (client_side, server_side) = fabric.connect();
    let (tx, rx) = server_side.split();
    sim.spawn(async move {
        let seen = RefCell::new(Vec::new());
        let mut next = frames.iter();
        while let Some(frame) = rx.recv().await {
            let ops = match Request::decode(&frame).expect("client sends valid frames") {
                Request::Batch { ops, .. } => ops,
                op => vec![op],
            };
            seen.borrow_mut().extend(ops.iter().map(|op| op.req_id()));
            let replies: Vec<Bytes> = if echo_mode.get() {
                ops.iter().map(|op| echo(op).encode()).collect()
            } else {
                let seen = seen.borrow();
                next.by_ref().take(3).map(|f| render(f, &seen)).collect()
            };
            for reply in replies {
                if tx.send(reply).await.is_err() {
                    return;
                }
            }
        }
    });
    let cfg = ClientConfig {
        max_outstanding: MAX_OUTSTANDING,
        resilience: ResiliencePolicy::single_attempt(Duration::from_millis(2)),
        batch: batched.then(BatchPolicy::default),
        ..ClientConfig::default()
    };
    Client::new(sim, vec![client_side], cfg)
}

fn key(i: usize) -> Bytes {
    Bytes::from(format!("fuzz-{i}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// No byte stream panics the client; after `wait_timeout` on every
    /// handle nothing is left outstanding, and every window permit is back:
    /// a fresh burst of `max_outstanding` ops issues and completes.
    #[test]
    fn arbitrary_response_frames_never_panic_or_leak(
        ops in prop::collection::vec(0u8..3, 1..12),
        frames in prop::collection::vec(arb_frame(), 0..36),
        batched in any::<bool>(),
    ) {
        let sim = Sim::new();
        let echo_mode = Rc::new(Cell::new(false));
        let client = fuzzed_client(&sim, frames, batched, Rc::clone(&echo_mode));
        let sim2 = sim.clone();
        sim.run_until(async move {
            let mut handles = Vec::new();
            for (i, op) in ops.iter().enumerate() {
                match op {
                    0 => handles.push(client.iget(key(i)).await.unwrap()),
                    1 => handles.push(
                        client
                            .iset(key(i), Bytes::from_static(b"v"), 0, None)
                            .await
                            .unwrap(),
                    ),
                    _ => {
                        let c = Rc::clone(&client);
                        sim2.spawn(async move {
                            let _ = c.incr(key(i), 1).await;
                        });
                    }
                }
            }
            client.flush_batches();
            for h in &handles {
                let _ = h.wait_timeout(Duration::from_millis(1)).await;
            }
            // Let the blocking `incr`s run out their 2 ms deadline.
            sim2.sleep(Duration::from_millis(5)).await;
            assert_eq!(client.outstanding(), 0);
            let st = client.stats();
            assert!(st.completed <= st.issued, "{st:?}");

            echo_mode.set(true);
            let burst = async {
                let mut fresh = Vec::new();
                for i in 0..MAX_OUTSTANDING {
                    fresh.push(client.iget(key(100 + i)).await.unwrap());
                }
                client.flush_batches();
                for h in &fresh {
                    assert_eq!(h.wait().await.status, OpStatus::Miss);
                }
            };
            assert!(
                nbkv_simrt::timeout(&sim2, Duration::from_millis(5), burst).await.is_ok(),
                "window permits leaked"
            );
            assert_eq!(client.outstanding(), 0);
        });
        sim.shutdown();
    }
}
