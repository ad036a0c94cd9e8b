//! Request handles: the Rust shape of the paper's `memcached_req`.
//!
//! Every issued operation returns a [`ReqHandle`] holding a completion
//! flag, the eventual server response, and timing. [`ReqHandle::wait`] is
//! `memcached_wait`; [`ReqHandle::test`] is `memcached_test`.
//!
//! [`InFlight`] is the client's one in-flight table. Every op is
//! registered there once and lands there once (or is forgotten), whichever
//! transport carried it: one-sided read, batch frame or single frame.

use std::cell::{Cell, RefCell};
use std::collections::hash_map::{Entry, HashMap};
use std::rc::Rc;

use bytes::Bytes;
use nbkv_simrt::{Notify, Semaphore, Sim, SimTime};
use std::time::Duration;

use crate::client::runtime::ClientStats;
use crate::proto::{OpStatus, Request, Response, StageTimes};

/// The client's send window: a semaphore bounding in-flight *fabric
/// frames* plus direct occupancy accounting. The high-water mark tracks
/// acquired permits — not the pending-op table, which diverges from
/// window occupancy once a batch frame shares one permit across many ops.
struct SendWindow {
    sem: Semaphore,
    in_flight: Cell<u64>,
    hwm: Cell<u64>,
}

impl SendWindow {
    async fn acquire(&self) {
        self.sem.acquire().await.forget();
        let n = self.in_flight.get() + 1;
        self.in_flight.set(n);
        self.hwm.set(self.hwm.get().max(n));
    }

    fn release(&self) {
        debug_assert!(self.in_flight.get() > 0, "release without acquire");
        self.in_flight.set(self.in_flight.get().saturating_sub(1));
        self.sem.add_permits(1);
    }
}

/// One acquired send-window slot, shared by every op travelling in the
/// same fabric frame (one op for a single frame, N for a batch): the
/// number of member ops still holding it. The last member to land or be
/// forgotten returns the frame's window permit.
pub(crate) type WindowSlot = Rc<Cell<usize>>;

/// The client's in-flight table, shared by the client, its progress
/// tasks, its direct-read tasks, its batcher and every [`ReqHandle`]: the
/// pending-op map, the send window, the counters and the request-id
/// allocator.
pub(crate) struct InFlight {
    pub(crate) sim: Sim,
    pending: RefCell<HashMap<u64, Rc<RefCell<ReqState>>>>,
    window: SendWindow,
    pub(crate) stats: RefCell<ClientStats>,
    next_id: Cell<u64>,
}

impl InFlight {
    pub(crate) fn new(sim: Sim, max_outstanding: usize) -> Rc<InFlight> {
        Rc::new(InFlight {
            sim,
            pending: RefCell::new(HashMap::new()),
            window: SendWindow {
                sem: Semaphore::new(max_outstanding),
                in_flight: Cell::new(0),
                hwm: Cell::new(0),
            },
            stats: RefCell::new(ClientStats::default()),
            next_id: Cell::new(1),
        })
    }

    /// Allocate a request id (op or batch frame).
    pub(crate) fn alloc_id(&self) -> u64 {
        let id = self.next_id.get();
        self.next_id.set(id + 1);
        id
    }

    /// The id [`alloc_id`](Self::alloc_id) hands out next.
    pub(crate) fn peek_id(&self) -> u64 {
        self.next_id.get()
    }

    /// Acquire one send-window slot for a frame of `members` ops.
    pub(crate) async fn acquire_slot(&self, members: usize) -> WindowSlot {
        debug_assert!(members > 0);
        self.window.acquire().await;
        Rc::new(Cell::new(members))
    }

    /// High-water mark of concurrently-held frame slots.
    pub(crate) fn window_hwm(&self) -> u64 {
        self.window.hwm.get()
    }

    /// Ops currently in flight.
    pub(crate) fn outstanding(&self) -> usize {
        self.pending.borrow().len()
    }

    pub(crate) fn is_pending(&self, req_id: u64) -> bool {
        self.pending.borrow().contains_key(&req_id)
    }

    /// Register `req` as in flight and count it issued. `slot` is `None`
    /// while the op waits in a batch queue (the flush assigns it).
    pub(crate) fn register(
        self: &Rc<Self>,
        req: &Request,
        issued_at: SimTime,
        slot: Option<WindowSlot>,
    ) -> ReqHandle {
        let state = Rc::new(RefCell::new(ReqState {
            expect: req.response_opcode(),
            response: None,
            notify: Notify::new(),
            issued_at,
            sent_at: None,
            completed_at: issued_at,
            slot,
            sent: false,
            direct_fallback: false,
        }));
        let req_id = req.req_id();
        self.pending.borrow_mut().insert(req_id, Rc::clone(&state));
        self.stats.borrow_mut().issued += 1;
        ReqHandle {
            reqs: Rc::clone(self),
            state,
            req_id,
        }
    }

    /// Land `resp` on its pending op: fill the op's state, wake its
    /// waiters, release its share of the frame's window slot, and count it
    /// completed. A response for no pending op (late, duplicate, cancelled)
    /// or of the wrong kind for its op is counted as an orphan and leaves
    /// the table untouched. Returns the landed op's state.
    pub(crate) fn land(&self, resp: Response) -> Option<Rc<RefCell<ReqState>>> {
        let state = match self.pending.borrow_mut().entry(resp.req_id()) {
            Entry::Occupied(e) if e.get().borrow().expect == resp.opcode() => Some(e.remove()),
            _ => None,
        };
        let Some(state) = state else {
            self.stats.borrow_mut().orphans += 1;
            return None;
        };
        let slot = {
            let mut s = state.borrow_mut();
            s.response = Some(resp);
            s.sent = true;
            s.completed_at = self.sim.now();
            s.notify.notify_waiters();
            s.slot.take()
        };
        self.release(slot);
        self.stats.borrow_mut().completed += 1;
        Some(state)
    }

    /// Complete a pending op with an `Error` response of its own kind (the
    /// connection died under it). A no-op when the op is not pending.
    pub(crate) fn fail(&self, req_id: u64) {
        let expect = match self.pending.borrow().get(&req_id) {
            Some(s) => s.borrow().expect,
            None => return,
        };
        self.land(Response::error(expect, req_id));
    }

    /// Drop a pending op that will get no response (its send failed, or
    /// the caller cancelled it) and release its window-slot share. Returns
    /// `true` if the op was pending.
    pub(crate) fn forget(&self, req_id: u64) -> bool {
        let Some(state) = self.pending.borrow_mut().remove(&req_id) else {
            return false;
        };
        let slot = state.borrow_mut().slot.take();
        self.release(slot);
        true
    }

    /// One member of `slot`'s frame is done; the last one out returns the
    /// frame's window permit.
    pub(crate) fn release(&self, slot: Option<WindowSlot>) {
        if let Some(slot) = slot {
            let remaining = slot.get();
            debug_assert!(remaining > 0, "slot over-released");
            slot.set(remaining - 1);
            if remaining == 1 {
                self.window.release();
            }
        }
    }
}

/// Outcome of a completed operation.
#[derive(Debug, Clone)]
pub struct Completion {
    /// Operation status.
    pub status: OpStatus,
    /// Value for get hits.
    pub value: Option<Bytes>,
    /// Stored flags for get hits.
    pub flags: u32,
    /// CAS token for get hits (pass to [`crate::Client::cas`]).
    pub cas: u64,
    /// Counter value after incr/decr.
    pub counter: u64,
    /// Server-side stage breakdown.
    pub stages: StageTimes,
    /// When the request was issued (virtual time).
    pub issued_at: SimTime,
    /// When the NIC finished serializing the request onto the link
    /// (send-completion time; equals `issued_at` for failed sends).
    pub sent_at: SimTime,
    /// When the response completed at the client (virtual time).
    pub completed_at: SimTime,
}

impl Completion {
    /// End-to-end latency in virtual nanoseconds.
    pub fn latency_ns(&self) -> u64 {
        self.completed_at
            .saturating_since(self.issued_at)
            .as_nanos() as u64
    }

    /// True if the operation found/stored what it asked for.
    pub fn is_success(&self) -> bool {
        matches!(
            self.status,
            OpStatus::Stored | OpStatus::Hit | OpStatus::Deleted
        )
    }

    /// The full request-lifecycle timeline, combining the client-side
    /// stamps with the server's absolute stamps (all on the one shared
    /// virtual clock). `None` when the server did not stamp the response
    /// (e.g. a pre-observability peer) or the stamps are inconsistent
    /// (e.g. a retried request whose issue stamp post-dates the original
    /// attempt's server processing).
    pub fn timeline(&self) -> Option<nbkv_obs::ReqTimeline> {
        if self.stages.server_recv_at_ns == 0 {
            return None;
        }
        let tl = nbkv_obs::ReqTimeline {
            issued_ns: self.issued_at.as_nanos(),
            nic_out_ns: self.sent_at.as_nanos(),
            server_recv_ns: self.stages.server_recv_at_ns,
            comm_done_ns: self.stages.comm_done_at_ns,
            store_done_ns: self.stages.store_done_at_ns,
            completed_ns: self.completed_at.as_nanos(),
            ssd_ns: self.stages.ssd_ns,
            overlapped_flush: self.stages.overlapped_flush,
        };
        tl.is_monotone().then_some(tl)
    }
}

pub(crate) struct ReqState {
    /// Wire opcode of the response kind that answers this op
    /// ([`Request::response_opcode`]); any other kind is an orphan. Only
    /// the opcode is kept: the request would pin its key and value.
    expect: u8,
    /// The landed response; `Some` means done.
    response: Option<Response>,
    notify: Notify,
    pub(crate) issued_at: SimTime,
    pub(crate) sent_at: Option<SimTime>,
    /// When the response landed (meaningful once `response` is `Some`).
    completed_at: SimTime,
    /// The send-window slot of the frame this op travelled in. Set when
    /// the frame is posted (at issue for a single frame or direct read, at
    /// flush for a coalesced op); `None` while the op sits in a batch queue.
    pub(crate) slot: Option<WindowSlot>,
    /// True once the NIC has finished reading the op's buffers (the
    /// `bset`/`bget` buffer-reuse point). `notify` fires on this
    /// transition too.
    pub(crate) sent: bool,
    /// True if this op started as a one-sided direct read and fell back
    /// to RPC — its end-to-end latency includes the failed direct attempt
    /// and must not feed the adaptive policy's RPC-latency EWMA.
    pub(crate) direct_fallback: bool,
}

impl ReqState {
    /// The NIC finished reading the op's buffers: wake `bset`/`bget`.
    pub(crate) fn mark_sent(&mut self) {
        self.sent = true;
        self.notify.notify_waiters();
    }
}

/// Handle to an in-flight (or completed) request — the `memcached_req` of
/// Listing 1.
#[derive(Clone)]
pub struct ReqHandle {
    pub(crate) reqs: Rc<InFlight>,
    pub(crate) state: Rc<RefCell<ReqState>>,
    pub(crate) req_id: u64,
}

impl ReqHandle {
    /// True once the server's response has arrived.
    pub fn is_done(&self) -> bool {
        self.state.borrow().response.is_some()
    }

    /// Abandon an in-flight request: drop it from the outstanding table and
    /// release its share of the frame's send-window slot. Returns `true`
    /// if the request was still in flight (a completed or already-
    /// cancelled request is a no-op). A response that arrives after
    /// cancellation is counted as an orphan in [`crate::ClientStats`]. An
    /// op cancelled while still queued in a batch is dropped from the
    /// frame at flush time (it never touched the window).
    pub fn cancel(&self) -> bool {
        !self.is_done() && self.reqs.forget(self.req_id)
    }

    /// Non-blocking completion check (`memcached_test`): `Some` with the
    /// outcome if complete, `None` if still in flight.
    pub fn test(&self) -> Option<Completion> {
        build_completion(&self.state.borrow())
    }

    /// Wait for completion, giving up after `dur` of virtual time.
    ///
    /// Real memcached clients run with operation timeouts; a request to a
    /// crashed or unreachable server would otherwise wait forever. On
    /// timeout the request is [cancelled](Self::cancel) — its outstanding
    /// entry and send-window slot are reclaimed, so timed-out operations
    /// cannot leak the client's issue window. (To keep waiting instead,
    /// use [`nbkv_simrt::timeout`] around [`wait`](Self::wait) directly.)
    pub async fn wait_timeout(&self, dur: Duration) -> Result<Completion, nbkv_simrt::Elapsed> {
        match nbkv_simrt::timeout(&self.reqs.sim, dur, self.wait()).await {
            Ok(c) => Ok(c),
            Err(elapsed) => {
                self.cancel();
                Err(elapsed)
            }
        }
    }

    /// Wait (in virtual time) for completion (`memcached_wait`).
    pub async fn wait(&self) -> Completion {
        loop {
            let notified = {
                let s = self.state.borrow();
                if let Some(c) = build_completion(&s) {
                    return c;
                }
                s.notify.notified()
            };
            notified.await;
        }
    }

    /// Wait until the op's buffers are reusable (`bset`/`bget`): its
    /// frame's send completion fired, or the op already finished.
    pub(crate) async fn wait_sent(&self) {
        loop {
            let notified = {
                let s = self.state.borrow();
                if s.sent || s.response.is_some() {
                    return;
                }
                s.notify.notified()
            };
            notified.await;
        }
    }
}

/// The caller-facing outcome of a landed op; `None` while in flight.
fn build_completion(s: &ReqState) -> Option<Completion> {
    let resp = s.response.as_ref()?;
    let (value, flags, cas, counter) = match resp {
        Response::Get {
            value, flags, cas, ..
        } => (value.clone(), *flags, *cas, 0),
        Response::Counter { value, .. } => (None, 0, 0, *value),
        _ => (None, 0, 0, 0),
    };
    Some(Completion {
        status: resp.status(),
        value,
        flags,
        cas,
        counter,
        stages: resp.stages(),
        issued_at: s.issued_at,
        sent_at: s.sent_at.unwrap_or(s.issued_at),
        completed_at: s.completed_at,
    })
}
