//! A verbs-flavoured veneer: queue pairs and completion queues.
//!
//! This mirrors the shape of the ibverbs API the paper's RDMA engine is
//! built on: work requests are *posted* (never blocking), and completions
//! surface later on completion queues. Send completions fire when the NIC
//! has finished reading the buffer (`sent_at`); receive completions fire
//! when a message arrives and a receive work request is available to
//! consume it.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use bytes::Bytes;
use nbkv_simrt::{Notify, Sim, SimTime};

use crate::conn::pair;
use crate::fault::{FaultPlan, SALT_DROP};
use crate::latency::LatencyModel;
use crate::link::{Disconnected, Link};

/// Out-of-bounds access against a [`RemoteWindow`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowOutOfBounds {
    /// Requested start offset.
    pub offset: usize,
    /// Requested span length.
    pub len: usize,
    /// The window's actual length.
    pub window_len: usize,
}

impl std::fmt::Display for WindowOutOfBounds {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "window access [{}, {}) out of bounds (window len {})",
            self.offset,
            self.offset + self.len,
            self.window_len
        )
    }
}

impl std::error::Error for WindowOutOfBounds {}

/// Completion opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WcOpcode {
    /// A posted send finished (buffer reusable).
    Send,
    /// A message arrived and was matched to a posted receive.
    Recv,
    /// A one-sided RDMA write finished (remote memory updated, no remote
    /// CPU involvement).
    RdmaWrite,
    /// A one-sided RDMA read finished (data available in `data`).
    RdmaRead,
}

/// A work completion.
#[derive(Debug, Clone)]
pub struct WorkCompletion {
    /// Caller-chosen work-request id.
    pub wr_id: u64,
    /// What completed.
    pub opcode: WcOpcode,
    /// Payload length.
    pub byte_len: usize,
    /// Received payload (for `Recv` completions).
    pub data: Option<Bytes>,
    /// Virtual instant the completion was generated.
    pub completed_at: SimTime,
}

/// A completion queue; poll it to harvest completions.
#[derive(Clone, Default)]
pub struct CompletionQueue {
    events: Rc<RefCell<VecDeque<WorkCompletion>>>,
    notify: Notify,
}

impl CompletionQueue {
    fn push(&self, wc: WorkCompletion) {
        self.events.borrow_mut().push_back(wc);
        self.notify.notify_waiters();
    }

    /// Harvest up to `max` completions (like `ibv_poll_cq`).
    pub fn poll(&self, max: usize) -> Vec<WorkCompletion> {
        let mut q = self.events.borrow_mut();
        let n = max.min(q.len());
        q.drain(..n).collect()
    }

    /// Completions currently queued.
    pub fn len(&self) -> usize {
        self.events.borrow().len()
    }

    /// True if no completions are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Wait for (and remove) the completion carrying `wr_id`. Completions
    /// for other work requests are left in place for their own waiters,
    /// so concurrent posters can share one CQ.
    pub async fn next_for(&self, wr_id: u64) -> WorkCompletion {
        loop {
            {
                let mut q = self.events.borrow_mut();
                if let Some(pos) = q.iter().position(|wc| wc.wr_id == wr_id) {
                    return q.remove(pos).expect("position is in bounds");
                }
            }
            self.notify.notified().await;
        }
    }
}

struct RecvState {
    /// Messages that arrived before a receive WR was posted.
    unclaimed: VecDeque<Bytes>,
    /// Posted receive WRs awaiting messages.
    posted: VecDeque<u64>,
}

/// A remotely-accessible registered memory window (the target of one-sided
/// operations). The owning side exposes it; the peer reads/writes it
/// without involving the owner's CPU.
#[derive(Clone, Default)]
pub struct RemoteWindow {
    mem: Rc<RefCell<Vec<u8>>>,
}

impl RemoteWindow {
    /// Allocate a window of `len` zeroed bytes.
    pub fn new(len: usize) -> Self {
        RemoteWindow {
            mem: Rc::new(RefCell::new(vec![0u8; len])),
        }
    }

    /// Window length.
    pub fn len(&self) -> usize {
        self.mem.borrow().len()
    }

    /// True if the window is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Local (owner-side) read of the window contents.
    ///
    /// Panics on out-of-bounds spans; see [`RemoteWindow::try_peek`] for
    /// the checked variant.
    pub fn peek(&self, offset: usize, len: usize) -> Bytes {
        self.read_with(offset, len, Bytes::copy_from_slice)
    }

    /// Local (owner-side) write into the window.
    ///
    /// Panics on out-of-bounds spans; see [`RemoteWindow::try_poke`] for
    /// the checked variant.
    pub fn poke(&self, offset: usize, data: &[u8]) {
        self.write_with(offset, data.len(), |dst| dst.copy_from_slice(data));
    }

    fn check(&self, offset: usize, len: usize) -> Result<(), WindowOutOfBounds> {
        let window_len = self.len();
        match offset.checked_add(len) {
            Some(end) if end <= window_len => Ok(()),
            _ => Err(WindowOutOfBounds {
                offset,
                len,
                window_len,
            }),
        }
    }

    /// Owner-side in-place read: runs `f` over `[offset, offset + len)`
    /// without copying. Panics on out-of-bounds spans.
    pub fn read_with<R>(&self, offset: usize, len: usize, f: impl FnOnce(&[u8]) -> R) -> R {
        f(&self.mem.borrow()[offset..offset + len])
    }

    /// Owner-side in-place write: runs `f` over `[offset, offset + len)`.
    /// Panics on out-of-bounds spans.
    pub fn write_with<R>(&self, offset: usize, len: usize, f: impl FnOnce(&mut [u8]) -> R) -> R {
        f(&mut self.mem.borrow_mut()[offset..offset + len])
    }

    /// Checked read of the window contents.
    pub fn try_peek(&self, offset: usize, len: usize) -> Result<Bytes, WindowOutOfBounds> {
        self.check(offset, len)?;
        Ok(self.peek(offset, len))
    }

    /// Checked write into the window.
    pub fn try_poke(&self, offset: usize, data: &[u8]) -> Result<(), WindowOutOfBounds> {
        self.check(offset, data.len())?;
        self.poke(offset, data);
        Ok(())
    }
}

/// One side of a reliable-connected queue pair.
pub struct QueuePair {
    sim: Sim,
    tx: Link,
    send_cq: CompletionQueue,
    recv_cq: CompletionQueue,
    recv: Rc<RefCell<RecvState>>,
    /// The peer's exposed memory window (for one-sided operations).
    peer_window: RefCell<Option<RemoteWindow>>,
    /// Fault schedule for one-sided operations. The transport's link-level
    /// plan never sees them (they bypass `Link::send`'s delivery path), so
    /// chaos runs attach a plan here: a dropped operation consumes the
    /// wire round trip but its completion never lands on the CQ.
    os_faults: RefCell<Option<FaultPlan>>,
    os_seq: Cell<u64>,
    os_dropped: Cell<u64>,
}

impl QueuePair {
    /// Create a connected QP pair over a link with `model`.
    pub fn connect(sim: &Sim, model: LatencyModel) -> (QueuePair, QueuePair) {
        let (a, b) = pair(sim, model);
        (Self::wrap(sim, a), Self::wrap(sim, b))
    }

    fn wrap(sim: &Sim, conn: crate::conn::Conn) -> QueuePair {
        let (tx, rx) = conn.split();
        let recv = Rc::new(RefCell::new(RecvState {
            unclaimed: VecDeque::new(),
            posted: VecDeque::new(),
        }));
        let recv_cq = CompletionQueue::default();
        let qp = QueuePair {
            sim: sim.clone(),
            tx,
            send_cq: CompletionQueue::default(),
            recv_cq: recv_cq.clone(),
            recv: Rc::clone(&recv),
            peer_window: RefCell::new(None),
            os_faults: RefCell::new(None),
            os_seq: Cell::new(0),
            os_dropped: Cell::new(0),
        };
        // Pump task: match arrivals against posted receive WRs.
        let sim2 = sim.clone();
        sim.spawn(async move {
            while let Some(msg) = rx.recv().await {
                let mut st = recv.borrow_mut();
                match st.posted.pop_front() {
                    Some(wr_id) => recv_cq.push(WorkCompletion {
                        wr_id,
                        opcode: WcOpcode::Recv,
                        byte_len: msg.len(),
                        data: Some(msg),
                        completed_at: sim2.now(),
                    }),
                    None => st.unclaimed.push_back(msg),
                }
            }
        });
        qp
    }

    /// Post a send WR. If `signaled`, a `Send` completion lands on the send
    /// CQ when the NIC finishes reading the buffer.
    pub fn post_send(
        &self,
        wr_id: u64,
        payload: Bytes,
        signaled: bool,
    ) -> Result<(), Disconnected> {
        let len = payload.len();
        let ticket = self.tx.send(payload)?;
        if signaled {
            let cq = self.send_cq.clone();
            self.sim.schedule_at(ticket.sent_at(), move |sim| {
                cq.push(WorkCompletion {
                    wr_id,
                    opcode: WcOpcode::Send,
                    byte_len: len,
                    data: None,
                    completed_at: sim.now(),
                });
            });
        }
        Ok(())
    }

    /// Post a receive WR; it consumes the next (or an already-arrived)
    /// message and produces a `Recv` completion.
    pub fn post_recv(&self, wr_id: u64) {
        let mut st = self.recv.borrow_mut();
        match st.unclaimed.pop_front() {
            Some(msg) => self.recv_cq.push(WorkCompletion {
                wr_id,
                opcode: WcOpcode::Recv,
                byte_len: msg.len(),
                data: Some(msg),
                completed_at: self.sim.now(),
            }),
            None => st.posted.push_back(wr_id),
        }
    }

    /// Bind the peer's exposed [`RemoteWindow`] so one-sided operations
    /// can target it (models exchanging rkeys at connection setup).
    pub fn bind_peer_window(&self, window: RemoteWindow) {
        *self.peer_window.borrow_mut() = Some(window);
    }

    /// True once a peer window has been bound.
    pub fn has_peer_window(&self) -> bool {
        self.peer_window.borrow().is_some()
    }

    /// Attach a deterministic fault schedule to this QP's one-sided
    /// operations (drops and scripted down windows apply; a dropped
    /// operation never produces a completion).
    pub fn set_onesided_faults(&self, plan: Option<FaultPlan>) {
        *self.os_faults.borrow_mut() = plan;
    }

    /// One-sided operations whose completions were swallowed by the fault
    /// plan.
    pub fn onesided_dropped(&self) -> u64 {
        self.os_dropped.get()
    }

    /// Whether the fault plan swallows the one-sided op posted now.
    fn os_fault_drops(&self) -> bool {
        let seq = self.os_seq.get();
        self.os_seq.set(seq + 1);
        let faults = self.os_faults.borrow();
        let Some(plan) = faults.as_ref() else {
            return false;
        };
        let dropped = plan.is_down_at(self.sim.now()) || plan.roll(seq, SALT_DROP) < plan.drop_prob;
        if dropped {
            self.os_dropped.set(self.os_dropped.get() + 1);
        }
        dropped
    }

    /// One-sided RDMA WRITE: place `data` at `remote_offset` in the peer's
    /// window without involving the peer's CPU. The completion fires one
    /// full network traversal after the post (when the data is placed).
    pub fn post_rdma_write(
        &self,
        wr_id: u64,
        remote_offset: usize,
        data: Bytes,
    ) -> Result<(), Disconnected> {
        let window = self
            .peer_window
            .borrow()
            .clone()
            .expect("bind_peer_window before one-sided ops");
        if !self.tx.is_open() {
            return Err(Disconnected);
        }
        let len = data.len();
        // One-sided ops traverse the same wire: serialization + propagation.
        let ticket = self.tx.send(Bytes::new())?; // header descriptor
        if self.os_fault_drops() {
            return Ok(()); // wire consumed, completion lost
        }
        let model = self.tx.model();
        let placed_at = ticket.sent_at() + model.serialization(len) + model.propagation();
        let cq = self.send_cq.clone();
        self.sim.schedule_at(placed_at, move |sim| {
            window.poke(remote_offset, &data);
            cq.push(WorkCompletion {
                wr_id,
                opcode: WcOpcode::RdmaWrite,
                byte_len: len,
                data: None,
                completed_at: sim.now(),
            });
        });
        Ok(())
    }

    /// One-sided RDMA READ: fetch `len` bytes from `remote_offset` in the
    /// peer's window. The completion carries the data after a full round
    /// trip (request propagation + data transfer back). A span outside the
    /// window (say, from a stale descriptor) completes with `data: None`,
    /// as a NIC reports a remote access error, instead of panicking.
    pub fn post_rdma_read(
        &self,
        wr_id: u64,
        remote_offset: usize,
        len: usize,
    ) -> Result<(), Disconnected> {
        let window = self
            .peer_window
            .borrow()
            .clone()
            .expect("bind_peer_window before one-sided ops");
        if !self.tx.is_open() {
            return Err(Disconnected);
        }
        if self.os_fault_drops() {
            return Ok(()); // read posted, completion lost
        }
        let model = self.tx.model();
        // Request goes out (tiny), data comes back (len bytes).
        let done_at =
            self.sim.now() + model.propagation() + model.serialization(len) + model.propagation();
        let cq = self.send_cq.clone();
        self.sim.schedule_at(done_at, move |sim| {
            let data = window.try_peek(remote_offset, len).ok();
            cq.push(WorkCompletion {
                wr_id,
                opcode: WcOpcode::RdmaRead,
                byte_len: len,
                data,
                completed_at: sim.now(),
            });
        });
        Ok(())
    }

    /// The send completion queue.
    pub fn send_cq(&self) -> &CompletionQueue {
        &self.send_cq
    }

    /// The receive completion queue.
    pub fn recv_cq(&self) -> &CompletionQueue {
        &self.recv_cq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn model() -> LatencyModel {
        LatencyModel::from_bandwidth_gbps(Duration::from_micros(2), 1.0)
    }

    #[test]
    fn signaled_send_completes_at_sent_time() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let (qp_a, _qp_b) = QueuePair::connect(&sim2, model());
            qp_a.post_send(7, Bytes::from(vec![0u8; 952]), true)
                .unwrap();
            assert!(qp_a.send_cq().is_empty());
            sim2.sleep(Duration::from_micros(1)).await; // 1000B wire = 1us
            let wcs = qp_a.send_cq().poll(16);
            assert_eq!(wcs.len(), 1);
            assert_eq!(wcs[0].wr_id, 7);
            assert_eq!(wcs[0].opcode, WcOpcode::Send);
        });
    }

    #[test]
    fn unsignaled_send_produces_no_completion() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let (qp_a, _qp_b) = QueuePair::connect(&sim2, model());
            qp_a.post_send(1, Bytes::from_static(b"x"), false).unwrap();
            sim2.sleep(Duration::from_millis(1)).await;
            assert!(qp_a.send_cq().is_empty());
        });
    }

    #[test]
    fn posted_recv_matches_arrival() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let (qp_a, qp_b) = QueuePair::connect(&sim2, model());
            qp_b.post_recv(42);
            qp_a.post_send(1, Bytes::from_static(b"hello"), false)
                .unwrap();
            sim2.sleep(Duration::from_micros(10)).await;
            let wcs = qp_b.recv_cq().poll(16);
            assert_eq!(wcs.len(), 1);
            assert_eq!(wcs[0].wr_id, 42);
            assert_eq!(&wcs[0].data.as_ref().unwrap()[..], b"hello");
        });
    }

    #[test]
    fn early_arrival_waits_for_recv_wr() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let (qp_a, qp_b) = QueuePair::connect(&sim2, model());
            qp_a.post_send(1, Bytes::from_static(b"early"), false)
                .unwrap();
            sim2.sleep(Duration::from_micros(10)).await;
            assert!(qp_b.recv_cq().is_empty());
            qp_b.post_recv(9);
            let wcs = qp_b.recv_cq().poll(16);
            assert_eq!(wcs.len(), 1);
            assert_eq!(wcs[0].wr_id, 9);
        });
    }

    #[test]
    fn completions_preserve_message_order() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let (qp_a, qp_b) = QueuePair::connect(&sim2, model());
            for i in 0..5u64 {
                qp_b.post_recv(i);
            }
            for i in 0..5u8 {
                qp_a.post_send(i as u64, Bytes::from(vec![i; 4]), false)
                    .unwrap();
            }
            sim2.sleep(Duration::from_millis(1)).await;
            let wcs = qp_b.recv_cq().poll(16);
            assert_eq!(wcs.len(), 5);
            for (i, wc) in wcs.iter().enumerate() {
                assert_eq!(wc.wr_id, i as u64);
                assert_eq!(wc.data.as_ref().unwrap()[0], i as u8);
            }
        });
    }

    #[test]
    fn cq_poll_respects_max() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let (qp_a, _qp_b) = QueuePair::connect(&sim2, LatencyModel::zero());
            for i in 0..10u64 {
                qp_a.post_send(i, Bytes::from_static(b"z"), true).unwrap();
            }
            sim2.sleep(Duration::from_micros(1)).await;
            assert_eq!(qp_a.send_cq().poll(3).len(), 3);
            assert_eq!(qp_a.send_cq().len(), 7);
        });
    }
}

#[cfg(test)]
mod one_sided_tests {
    use super::*;
    use std::time::Duration;

    fn model() -> LatencyModel {
        LatencyModel::from_bandwidth_gbps(Duration::from_micros(2), 1.0)
    }

    #[test]
    fn rdma_write_places_data_without_peer_cpu() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let (qp_a, _qp_b) = QueuePair::connect(&sim2, model());
            let window = RemoteWindow::new(4096);
            qp_a.bind_peer_window(window.clone());
            qp_a.post_rdma_write(1, 100, Bytes::from_static(b"one-sided"))
                .unwrap();
            assert!(qp_a.send_cq().is_empty(), "completion is asynchronous");
            sim2.sleep(Duration::from_micros(50)).await;
            let wcs = qp_a.send_cq().poll(4);
            assert_eq!(wcs.len(), 1);
            assert_eq!(wcs[0].opcode, WcOpcode::RdmaWrite);
            // The data landed in the peer's memory; its CPU never ran.
            assert_eq!(&window.peek(100, 9)[..], b"one-sided");
        });
    }

    #[test]
    fn rdma_read_fetches_remote_bytes() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let (qp_a, _qp_b) = QueuePair::connect(&sim2, model());
            let window = RemoteWindow::new(1024);
            window.poke(0, b"server-resident-value");
            qp_a.bind_peer_window(window);
            qp_a.post_rdma_read(2, 0, 21).unwrap();
            sim2.sleep(Duration::from_micros(100)).await;
            let wcs = qp_a.send_cq().poll(4);
            assert_eq!(wcs.len(), 1);
            assert_eq!(wcs[0].opcode, WcOpcode::RdmaRead);
            assert_eq!(&wcs[0].data.as_ref().unwrap()[..], b"server-resident-value");
        });
    }

    #[test]
    fn out_of_window_rdma_read_completes_without_data() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let (qp_a, _qp_b) = QueuePair::connect(&sim2, model());
            qp_a.bind_peer_window(RemoteWindow::new(64));
            qp_a.post_rdma_read(1, 60, 8).unwrap(); // straddles the end
            qp_a.post_rdma_read(2, usize::MAX, 2).unwrap(); // offset+len overflows
            qp_a.post_rdma_read(3, 0, 8).unwrap();
            sim2.sleep(Duration::from_micros(100)).await;
            let wcs = qp_a.send_cq().poll(4);
            assert_eq!(wcs.len(), 3, "every read completes");
            for wc in &wcs {
                assert_eq!(wc.opcode, WcOpcode::RdmaRead);
                assert_eq!(wc.data.is_some(), wc.wr_id == 3, "wr {}", wc.wr_id);
            }
        });
    }

    #[test]
    fn rdma_read_takes_a_round_trip() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let (qp_a, _qp_b) = QueuePair::connect(&sim2, model());
            let window = RemoteWindow::new(64);
            qp_a.bind_peer_window(window);
            qp_a.post_rdma_read(3, 0, 16).unwrap();
            // Two propagations (2us each) + 16B serialization.
            sim2.sleep(Duration::from_micros(3)).await;
            assert!(qp_a.send_cq().is_empty(), "not before a round trip");
            sim2.sleep(Duration::from_micros(2)).await;
            assert_eq!(qp_a.send_cq().poll(1).len(), 1);
        });
    }

    #[test]
    #[should_panic(expected = "bind_peer_window")]
    fn one_sided_without_window_panics() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let (qp_a, _qp_b) = QueuePair::connect(&sim2, model());
            let _ = qp_a.post_rdma_write(1, 0, Bytes::from_static(b"x"));
        });
    }

    #[test]
    fn try_peek_and_try_poke_reject_out_of_bounds() {
        let w = RemoteWindow::new(16);
        assert_eq!(&w.try_peek(0, 16).unwrap()[..], &[0u8; 16]);
        w.try_poke(8, b"12345678").unwrap();
        assert_eq!(&w.try_peek(8, 8).unwrap()[..], b"12345678");

        // Reads past the end, including overflowing spans.
        let err = w.try_peek(8, 9).unwrap_err();
        assert_eq!(
            err,
            WindowOutOfBounds {
                offset: 8,
                len: 9,
                window_len: 16
            }
        );
        assert!(w.try_peek(16, 1).is_err());
        assert!(w.try_peek(usize::MAX, 2).is_err(), "offset+len overflow");
        assert!(w.try_poke(9, b"12345678").is_err());
        assert!(err.to_string().contains("out of bounds"));

        // Errors leave the window untouched.
        assert_eq!(&w.try_peek(8, 8).unwrap()[..], b"12345678");
        // Empty spans at the boundary are fine.
        assert!(w.try_peek(16, 0).is_ok());
        assert!(w.try_poke(16, b"").is_ok());
    }

    #[test]
    fn next_for_waits_and_routes_by_wr_id() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let (qp_a, _qp_b) = QueuePair::connect(&sim2, model());
            let window = RemoteWindow::new(64);
            window.poke(0, b"abcd");
            window.poke(4, b"efgh");
            qp_a.bind_peer_window(window);
            let qp_a = Rc::new(qp_a);
            // Two concurrent readers on the same CQ: each must get its own
            // completion even though the other's may land first.
            let qp1 = Rc::clone(&qp_a);
            let t1 = sim2.spawn(async move {
                qp1.post_rdma_read(1, 0, 4).unwrap();
                qp1.send_cq().next_for(1).await
            });
            let qp2 = Rc::clone(&qp_a);
            let t2 = sim2.spawn(async move {
                qp2.post_rdma_read(2, 4, 60).unwrap(); // larger = slower
                qp2.send_cq().next_for(2).await
            });
            let wc2 = t2.await;
            let wc1 = t1.await;
            assert_eq!(&wc1.data.as_ref().unwrap()[..4], b"abcd");
            assert_eq!(&wc2.data.as_ref().unwrap()[..4], b"efgh");
            assert!(qp_a.send_cq().is_empty());
        });
    }

    #[test]
    fn onesided_fault_plan_swallows_completions() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let (qp_a, _qp_b) = QueuePair::connect(&sim2, model());
            qp_a.bind_peer_window(RemoteWindow::new(64));
            qp_a.set_onesided_faults(Some(FaultPlan::drops(7, 1.0)));
            qp_a.post_rdma_read(1, 0, 8).unwrap();
            sim2.sleep(Duration::from_millis(1)).await;
            assert!(qp_a.send_cq().is_empty(), "dropped read must not complete");
            assert_eq!(qp_a.onesided_dropped(), 1);

            // Clearing the plan restores delivery.
            qp_a.set_onesided_faults(None);
            qp_a.post_rdma_read(2, 0, 8).unwrap();
            sim2.sleep(Duration::from_millis(1)).await;
            assert_eq!(qp_a.send_cq().poll(4).len(), 1);
            assert_eq!(qp_a.onesided_dropped(), 1);
        });
    }
}
