//! Client-side doorbell batching: a per-server coalescing queue that
//! packs pending non-blocking ops into one [`Request::Batch`] frame.
//!
//! Small-message RDMA throughput is dominated by per-message overhead
//! (descriptor post, header, base link latency); coalescing N small ops
//! into one frame pays those once. The flush policy mirrors doorbell
//! batching on real verbs hardware:
//!
//! - **count** — the queue reached [`BatchPolicy::max_ops`];
//! - **size** — queued wire bytes reached [`BatchPolicy::max_bytes`]
//!   (large frames stop amortizing and start adding serialization delay);
//! - **deadline** — [`BatchPolicy::max_delay`] of virtual time elapsed
//!   since the first op entered an empty queue (bounded added latency);
//! - **doorbell** — the application rang the doorbell explicitly via
//!   [`crate::Client::flush_batches`] (e.g. at the end of a
//!   `get_multi` burst).
//!
//! A flushed frame holds exactly one send-window permit regardless of how
//! many ops it carries ([`WindowSlot`]); the permit returns when the last
//! member completes. Single-op flushes go out as plain unbatched frames,
//! so a batch-enabled client that happens to issue one op at a time is
//! bit-identical to an unbatched one.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use nbkv_fabric::TransportTx;
use nbkv_obs::Histogram;

use crate::client::request::{InFlight, ReqState};
use crate::proto::Request;

/// Flush policy for the per-server coalescing queues.
#[derive(Debug, Clone, Copy)]
pub struct BatchPolicy {
    /// Flush once this many ops are queued for one server.
    pub max_ops: usize,
    /// Flush once the queued ops' wire bytes reach this threshold.
    pub max_bytes: usize,
    /// Flush this long (virtual time) after the first op entered an
    /// empty queue — the bound on batching-added latency.
    pub max_delay: Duration,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_ops: 16,
            max_bytes: 32 << 10,
            max_delay: Duration::from_micros(3),
        }
    }
}

/// Why a queue was flushed (counted per flush in
/// [`ClientStats`](crate::ClientStats)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FlushReason {
    Count,
    Size,
    Deadline,
    Doorbell,
}

/// One server's coalescing queue. `epoch` advances on every flush so a
/// pending deadline task can tell whether "its" generation of ops is
/// still queued — the deadline fires exactly once per armed generation.
#[derive(Default)]
struct BatchQueue {
    ops: Vec<Request>,
    states: Vec<Rc<RefCell<ReqState>>>,
    bytes: usize,
    epoch: u64,
}

/// The client's batching engine: one [`BatchQueue`] per server plus the
/// transports and the client's in-flight table.
pub(crate) struct Batcher {
    policy: BatchPolicy,
    queues: Vec<RefCell<BatchQueue>>,
    txs: Vec<TransportTx>,
    reqs: Rc<InFlight>,
    ops_hist: RefCell<Histogram>,
    /// Descriptor-chain post + doorbell ring, paid once per flushed
    /// frame — the client-CPU half of the doorbell-batching win.
    issue_cost: Duration,
}

impl Batcher {
    pub(crate) fn new(
        policy: BatchPolicy,
        txs: Vec<TransportTx>,
        reqs: Rc<InFlight>,
        issue_cost: Duration,
    ) -> Rc<Batcher> {
        let queues = (0..txs.len()).map(|_| RefCell::default()).collect();
        Rc::new(Batcher {
            policy,
            queues,
            txs,
            reqs,
            ops_hist: RefCell::new(Histogram::new()),
            issue_cost,
        })
    }

    /// Ops-per-batch distribution (one sample per flushed frame).
    pub(crate) fn ops_per_batch(&self) -> Histogram {
        self.ops_hist.borrow().clone()
    }

    /// Queue one op for `server`. The op's `ReqState` must already be in
    /// the pending table (cancellation before flush removes it there, and
    /// the flush skips it). Arms the deadline on first-into-empty, and
    /// flushes immediately when a count/size threshold trips.
    pub(crate) fn enqueue(
        self: &Rc<Self>,
        server: usize,
        req: Request,
        state: Rc<RefCell<ReqState>>,
    ) {
        debug_assert!(req.flavor().is_nonblocking(), "only non-blocking ops batch");
        let (was_empty, trip) = {
            let mut q = self.queues[server].borrow_mut();
            let was_empty = q.ops.is_empty();
            q.bytes += 4 + req.wire_len();
            q.ops.push(req);
            q.states.push(state);
            let trip = if q.ops.len() >= self.policy.max_ops {
                Some(FlushReason::Count)
            } else if q.bytes >= self.policy.max_bytes {
                Some(FlushReason::Size)
            } else {
                None
            };
            (was_empty, trip)
        };
        if let Some(reason) = trip {
            let b = Rc::clone(self);
            self.reqs
                .sim
                .spawn(async move { b.flush(server, reason).await });
        } else if was_empty {
            // Arm the flush deadline for this generation of the queue.
            let b = Rc::clone(self);
            let armed_epoch = self.queues[server].borrow().epoch;
            let delay = self.policy.max_delay;
            self.reqs.sim.spawn(async move {
                b.reqs.sim.sleep(delay).await;
                if b.queues[server].borrow().epoch == armed_epoch {
                    b.flush(server, FlushReason::Deadline).await;
                }
            });
        }
    }

    /// Ring the doorbell: flush every non-empty queue now.
    pub(crate) fn flush_all(self: &Rc<Self>) {
        for server in 0..self.queues.len() {
            if self.queues[server].borrow().ops.is_empty() {
                continue;
            }
            let b = Rc::clone(self);
            self.reqs
                .sim
                .spawn(async move { b.flush(server, FlushReason::Doorbell).await });
        }
    }

    /// Drain `server`'s queue into one fabric frame. Cancelled members
    /// (already gone from the pending table) are dropped from the frame;
    /// a single survivor goes out as a plain unbatched request.
    async fn flush(self: Rc<Self>, server: usize, reason: FlushReason) {
        let (ops, states) = {
            let mut q = self.queues[server].borrow_mut();
            q.epoch += 1;
            q.bytes = 0;
            (std::mem::take(&mut q.ops), std::mem::take(&mut q.states))
        };
        let (ops, states): (Vec<_>, Vec<_>) = ops
            .into_iter()
            .zip(states)
            .filter(|(op, _)| self.reqs.is_pending(op.req_id()))
            .unzip();
        let n = ops.len();
        if n == 0 {
            return;
        }

        {
            let mut st = self.reqs.stats.borrow_mut();
            match reason {
                FlushReason::Count => st.flush_on_count += 1,
                FlushReason::Size => st.flush_on_size += 1,
                FlushReason::Deadline => st.flush_on_deadline += 1,
                FlushReason::Doorbell => st.flush_on_doorbell += 1,
            }
            if n > 1 {
                st.batches_sent += 1;
                st.batched_ops += n as u64;
            }
        }
        self.ops_hist.borrow_mut().record(n as u64);

        // Post the descriptor chain and ring the doorbell: one issue cost
        // for the whole frame, however many ops it carries.
        if !self.issue_cost.is_zero() {
            self.reqs.sim.sleep(self.issue_cost).await;
        }

        // One send-window permit per *frame*, shared by every member. A
        // member cancelled while the frame paid its issue charge gives its
        // share straight back (it still rides the frame; its answer is an
        // orphan).
        let slot = self.reqs.acquire_slot(n).await;
        for (op, state) in ops.iter().zip(&states) {
            if self.reqs.is_pending(op.req_id()) {
                state.borrow_mut().slot = Some(Rc::clone(&slot));
            } else {
                self.reqs.release(Some(Rc::clone(&slot)));
            }
        }

        let ids: Vec<u64> = ops.iter().map(|op| op.req_id()).collect();
        let frame = if n == 1 {
            ops.into_iter().next().expect("n == 1").encode()
        } else {
            let flavor = ops[0].flavor();
            Request::batch(self.reqs.alloc_id(), flavor, ops)
                .expect("flush builds non-empty, non-nested batches")
                .encode()
        };
        match self.txs[server].send(frame).await {
            Ok(ticket) => {
                let sent_at = ticket.sent_at();
                for state in &states {
                    state.borrow_mut().sent_at = Some(sent_at);
                }
                ticket.wait_sent().await;
                for state in &states {
                    state.borrow_mut().mark_sent();
                }
            }
            Err(_) => {
                // The connection died under the frame: fail every member
                // so waiters do not hang and the frame's permit returns.
                for req_id in ids {
                    self.reqs.fail(req_id);
                }
            }
        }
    }
}
