//! The discrete-event executor.
//!
//! A [`Sim`] owns a set of single-threaded async tasks and a timer heap
//! keyed by virtual time. Running the simulation alternates between two
//! phases:
//!
//! 1. **Drain**: poll every ready task until no task is runnable at the
//!    current virtual instant.
//! 2. **Advance**: pop the earliest timer event, jump the clock to its
//!    deadline, and fire it (waking a task or running a scheduled closure).
//!
//! Determinism: ready tasks run in wake order and timer events tie-break on
//! a monotonically increasing sequence number, so two runs of the same
//! program produce identical timelines.
//!
//! Cancellation: a timer registered for a [`Sleep`](crate::Sleep) is
//! cancelled when the `Sleep` is dropped before its deadline (for example
//! a [`timeout`](crate::timeout) whose future finished first). A cancelled
//! timer releases its waker at once, never advances the clock and never
//! counts as a timer event; its heap entry is skipped when popped, and the
//! heap is compacted whenever dead entries outnumber live ones, so the heap
//! stays bounded by the live timers.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::task::{Context, Poll, Wake, Waker};
use std::time::Duration;

use crate::task::JoinHandle;
use crate::time::SimTime;

/// Identifier of a spawned task within one [`Sim`].
pub(crate) type TaskId = usize;

type LocalFuture = Pin<Box<dyn Future<Output = ()>>>;

/// A timer event: either wake a waiting future or run a closure at a
/// scheduled virtual instant.
enum Event {
    Wake(Waker),
    Call(Box<dyn FnOnce(&Sim)>),
}

/// A timer-heap entry. The event itself lives in the slot table, so a
/// cancelled timer frees its event at once and leaves only this small
/// entry behind, which is skipped when popped or dropped by compaction.
struct TimerEntry {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A slot of the timer table: the pending event of the timer whose `seq`
/// it holds, or `None` once that timer fired or was cancelled.
struct TimerSlot {
    seq: u64,
    event: Option<Event>,
}

/// Handle to a registered timer, used to cancel it. A handle whose timer
/// already fired (or whose slot was reused) is recognised by its `seq`.
#[derive(Clone, Copy)]
pub(crate) struct TimerHandle {
    slot: u32,
    seq: u64,
}

/// The timer heap plus the slot table that owns the events.
#[derive(Default)]
struct Timers {
    heap: BinaryHeap<Reverse<TimerEntry>>,
    slots: Vec<TimerSlot>,
    free: Vec<u32>,
    /// Timers registered and neither fired nor cancelled.
    live: usize,
}

impl Timers {
    fn push(&mut self, at: SimTime, seq: u64, event: Event) -> TimerHandle {
        let entry = TimerSlot {
            seq,
            event: Some(event),
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = entry;
                slot
            }
            None => {
                self.slots.push(entry);
                (self.slots.len() - 1) as u32
            }
        };
        self.heap.push(Reverse(TimerEntry { at, seq, slot }));
        self.live += 1;
        TimerHandle { slot, seq }
    }

    /// Take the event out of `handle`'s slot if its timer is still pending.
    fn take(&mut self, handle: TimerHandle) -> Option<Event> {
        let slot = self.slots.get_mut(handle.slot as usize)?;
        if slot.seq != handle.seq {
            return None;
        }
        let event = slot.event.take()?;
        self.free.push(handle.slot);
        self.live -= 1;
        Some(event)
    }

    /// Pop the earliest live timer, skipping cancelled entries.
    fn pop(&mut self) -> Option<(SimTime, Event)> {
        while let Some(Reverse(e)) = self.heap.pop() {
            let handle = TimerHandle {
                slot: e.slot,
                seq: e.seq,
            };
            if let Some(event) = self.take(handle) {
                return Some((e.at, event));
            }
        }
        None
    }

    /// Cancel a pending timer; compacts the heap once dead entries
    /// outnumber live ones.
    fn cancel(&mut self, handle: TimerHandle) -> Option<Event> {
        let event = self.take(handle)?;
        if self.heap.len() - self.live > self.live {
            let slots = &self.slots;
            self.heap.retain(|Reverse(e)| {
                let s = &slots[e.slot as usize];
                s.seq == e.seq && s.event.is_some()
            });
        }
        Some(event)
    }
}

/// Waker state shared with the (conceptually external) wake path.
///
/// `Waker` must be `Send + Sync`, so the ready queue lives behind a
/// [`Mutex`] even though the simulation itself is single-threaded; the lock
/// is never contended.
struct Shared {
    /// Ready tasks with the slot generation they were woken for.
    ready: Mutex<VecDeque<(TaskId, u64)>>,
}

impl Shared {
    /// Lock the ready queue. Only queue pushes, pops and clears run under
    /// the lock, so a poisoned lock still holds a consistent queue.
    fn ready(&self) -> MutexGuard<'_, VecDeque<(TaskId, u64)>> {
        self.ready.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

struct TaskWaker {
    id: TaskId,
    generation: u64,
    shared: Arc<Shared>,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.shared.ready().push_back((self.id, self.generation));
    }
}

struct TaskSlot {
    /// `None` while the task is being polled (taken out to avoid holding a
    /// `RefCell` borrow across user code).
    future: Option<LocalFuture>,
    waker: Waker,
    /// Generation of the slot's occupant; a wake carrying an older
    /// generation (a finished task's leftover waker) is ignored.
    generation: u64,
}

/// Executor statistics, exposed for tests and debugging.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Total tasks ever spawned.
    pub tasks_spawned: u64,
    /// Total `Future::poll` invocations.
    pub polls: u64,
    /// Timer events fired.
    pub timer_events: u64,
    /// Tasks currently alive (spawned and not yet complete).
    pub tasks_alive: u64,
    /// Timers registered and neither fired nor cancelled.
    pub pending_timers: u64,
}

struct World {
    now: SimTime,
    timers: Timers,
    tasks: Vec<Option<TaskSlot>>,
    free: Vec<TaskId>,
    generations: Vec<u64>,
    seq: u64,
    stats: SimStats,
}

impl World {
    fn new() -> Self {
        World {
            now: SimTime::ZERO,
            timers: Timers::default(),
            tasks: Vec::new(),
            free: Vec::new(),
            generations: Vec::new(),
            seq: 0,
            stats: SimStats::default(),
        }
    }

    fn push_timer(&mut self, at: SimTime, event: Event) -> TimerHandle {
        let at = at.max(self.now);
        self.seq += 1;
        self.timers.push(at, self.seq, event)
    }
}

/// Handle to a discrete-event simulation.
///
/// Cloning is cheap (reference-counted); clone the handle into every task
/// that needs to read the clock, sleep, or spawn further tasks.
///
/// # Example
/// ```
/// use std::time::Duration;
/// use nbkv_simrt::Sim;
///
/// let sim = Sim::new();
/// let out = sim.run_until({
///     let sim = sim.clone();
///     async move {
///         sim.sleep(Duration::from_micros(3)).await;
///         sim.now().as_nanos()
///     }
/// });
/// assert_eq!(out, 3_000);
/// ```
#[derive(Clone)]
pub struct Sim {
    world: Rc<RefCell<World>>,
    shared: Arc<Shared>,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// Create a fresh simulation with the clock at zero.
    pub fn new() -> Self {
        Sim {
            world: Rc::new(RefCell::new(World::new())),
            shared: Arc::new(Shared {
                ready: Mutex::new(VecDeque::new()),
            }),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.world.borrow().now
    }

    /// Executor statistics snapshot.
    pub fn stats(&self) -> SimStats {
        let w = self.world.borrow();
        SimStats {
            pending_timers: w.timers.live as u64,
            ..w.stats
        }
    }

    /// Spawn a task; it starts running at the current virtual instant.
    ///
    /// The returned [`JoinHandle`] can be awaited for the task's output, or
    /// dropped to detach the task.
    pub fn spawn<F>(&self, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        let (handle, complete) = JoinHandle::new_pair();
        let wrapped: LocalFuture = Box::pin(async move {
            complete.finish(fut.await);
        });
        self.spawn_raw(wrapped);
        handle
    }

    fn spawn_raw(&self, future: LocalFuture) {
        let id;
        let generation = {
            let mut w = self.world.borrow_mut();
            id = match w.free.pop() {
                Some(id) => id,
                None => {
                    w.tasks.push(None);
                    w.generations.push(0);
                    w.tasks.len() - 1
                }
            };
            let generation = w.generations[id];
            let waker = Waker::from(Arc::new(TaskWaker {
                id,
                generation,
                shared: Arc::clone(&self.shared),
            }));
            w.tasks[id] = Some(TaskSlot {
                future: Some(future),
                waker,
                generation,
            });
            w.stats.tasks_spawned += 1;
            w.stats.tasks_alive += 1;
            generation
        };
        self.shared.ready().push_back((id, generation));
    }

    /// Schedule `f` to run at virtual time `at` (clamped to now if in the
    /// past). Used by simulation components to model asynchronous hardware
    /// (e.g. "this packet arrives at `deliver_at`").
    pub fn schedule_at<F>(&self, at: SimTime, f: F)
    where
        F: FnOnce(&Sim) + 'static,
    {
        self.world
            .borrow_mut()
            .push_timer(at, Event::Call(Box::new(f)));
    }

    /// Schedule `f` to run `after` from now.
    pub fn schedule_in<F>(&self, after: Duration, f: F)
    where
        F: FnOnce(&Sim) + 'static,
    {
        let at = self.now() + after;
        self.schedule_at(at, f);
    }

    /// Register `waker` to be woken at virtual time `at`.
    pub(crate) fn register_timer(&self, at: SimTime, waker: Waker) -> TimerHandle {
        self.world.borrow_mut().push_timer(at, Event::Wake(waker))
    }

    /// Cancel a timer that has not fired yet (a no-op if it has).
    pub(crate) fn cancel_timer(&self, handle: TimerHandle) {
        // Called from `Drop`, which must not panic: should the world be
        // borrowed, the timer is left to fire as a stale wake instead.
        let event = match self.world.try_borrow_mut() {
            Ok(mut w) => w.timers.cancel(handle),
            Err(_) => None,
        };
        // Drop the waker outside the borrow.
        drop(event);
    }

    /// Run the simulation until there is nothing left to do: no runnable
    /// task and no pending timer. Returns the final virtual time: that of
    /// the last event that fired (cancelled timers never move the clock).
    ///
    /// Tasks still blocked on never-signalled wakers (e.g. a channel whose
    /// senders are all alive but idle) are left pending — this is the
    /// discrete-event notion of a quiescent (possibly deadlocked) system.
    pub fn run(&self) -> SimTime {
        loop {
            self.drain_ready();
            if !self.advance_clock() {
                break;
            }
        }
        self.now()
    }

    /// Spawn `fut` as the root task and run until it completes, returning
    /// its output.
    ///
    /// # Panics
    /// Panics if the simulation goes quiescent before the root task
    /// finishes (a deadlock in the simulated program).
    pub fn run_until<F>(&self, fut: F) -> F::Output
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        let mut handle = self.spawn(fut);
        loop {
            self.drain_ready();
            if let Some(out) = handle.try_take() {
                return out;
            }
            if !self.advance_clock() {
                panic!(
                    "simulation quiesced at {} before the root task completed \
                     (deadlock in simulated program?)",
                    self.now()
                );
            }
        }
    }

    /// Tear down the simulation: drop every remaining task (including
    /// infinite server/worker loops) and all pending timers.
    ///
    /// Long-lived simulation components typically hold a `Sim` handle
    /// while their driver tasks live in the executor — a reference cycle
    /// (`world -> task -> component -> Sim -> world`) that keeps the whole
    /// object graph alive after `run_until` returns. Call `shutdown` when
    /// an experiment is finished to break the cycle and release memory;
    /// harness code that builds many simulations in one process must do
    /// this.
    pub fn shutdown(&self) {
        let dropped = {
            let mut w = self.world.borrow_mut();
            let timers = std::mem::take(&mut w.timers);
            w.free.clear();
            w.stats.tasks_alive = 0;
            // Futures may themselves own Sim handles; take them out before
            // dropping so re-entrant drops see a consistent world.
            let tasks = w
                .tasks
                .iter_mut()
                .filter_map(Option::take)
                .collect::<Vec<_>>();
            (timers, tasks)
        };
        drop(dropped);
        self.shared.ready().clear();
    }

    /// Poll every ready task until the ready queue is empty.
    fn drain_ready(&self) {
        loop {
            let next = { self.shared.ready().pop_front() };
            match next {
                Some((id, generation)) => self.poll_task(id, generation),
                None => break,
            }
        }
    }

    /// Fire the earliest timer event, advancing the clock. Returns false if
    /// no timers remain.
    fn advance_clock(&self) -> bool {
        let event = {
            let mut w = self.world.borrow_mut();
            match w.timers.pop() {
                Some((at, event)) => {
                    debug_assert!(at >= w.now, "timer heap went backwards");
                    w.now = at;
                    w.stats.timer_events += 1;
                    event
                }
                None => return false,
            }
        };
        match event {
            Event::Wake(waker) => waker.wake(),
            Event::Call(f) => f(self),
        }
        true
    }

    fn poll_task(&self, id: TaskId, generation: u64) {
        // Take the future out so no RefCell borrow is held across user code
        // (which may spawn, wake, or schedule re-entrantly).
        let (mut future, waker) = {
            let mut w = self.world.borrow_mut();
            let taken = match w.tasks.get_mut(id).and_then(Option::as_mut) {
                // Stale wake (task finished, slot possibly reused by a
                // newer task) or re-entrant poll: skip.
                Some(slot) if slot.generation == generation => match slot.future.take() {
                    None => return,
                    Some(future) => (future, slot.waker.clone()),
                },
                _ => return,
            };
            w.stats.polls += 1;
            taken
        };

        let mut cx = Context::from_waker(&waker);
        let poll = future.as_mut().poll(&mut cx);

        let mut w = self.world.borrow_mut();
        match poll {
            Poll::Ready(()) => {
                // Guard against the slot having been recycled while the
                // future ran (cannot normally happen, but cheap to check).
                let matches = w
                    .tasks
                    .get(id)
                    .and_then(Option::as_ref)
                    .is_some_and(|s| s.generation == generation);
                if matches {
                    w.tasks[id] = None;
                    w.generations[id] += 1;
                    w.free.push(id);
                    w.stats.tasks_alive -= 1;
                }
            }
            Poll::Pending => {
                if let Some(Some(slot)) = w.tasks.get_mut(id) {
                    if slot.generation == generation {
                        slot.future = Some(future);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn clock_starts_at_zero() {
        let sim = Sim::new();
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn run_until_returns_output() {
        let sim = Sim::new();
        let v = sim.run_until(async { 41 + 1 });
        assert_eq!(v, 42);
    }

    #[test]
    fn sleep_advances_virtual_clock_only() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        let wall = std::time::Instant::now();
        sim.run_until(async move {
            sim2.sleep(Duration::from_secs(3600)).await;
        });
        assert_eq!(sim.now(), SimTime::ZERO + Duration::from_secs(3600));
        // An hour of virtual time takes (much) less than a second of wall time.
        assert!(wall.elapsed() < std::time::Duration::from_secs(1));
    }

    #[test]
    fn scheduled_calls_fire_in_time_order() {
        let sim = Sim::new();
        let log: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        for (delay_us, tag) in [(30u64, 3u32), (10, 1), (20, 2)] {
            let log = Rc::clone(&log);
            sim.schedule_in(Duration::from_micros(delay_us), move |_| {
                log.borrow_mut().push(tag);
            });
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_fire_in_submission_order() {
        let sim = Sim::new();
        let log: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        for tag in 0..10u32 {
            let log = Rc::clone(&log);
            sim.schedule_in(Duration::from_micros(5), move |_| {
                log.borrow_mut().push(tag);
            });
        }
        sim.run();
        assert_eq!(*log.borrow(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn spawned_tasks_interleave_deterministically() {
        let sim = Sim::new();
        let log: Rc<RefCell<Vec<(u64, u32)>>> = Rc::new(RefCell::new(Vec::new()));
        for id in 0..3u32 {
            let sim2 = sim.clone();
            let log = Rc::clone(&log);
            sim.spawn(async move {
                for step in 0..3u32 {
                    sim2.sleep(Duration::from_micros(10 * (id as u64 + 1)))
                        .await;
                    log.borrow_mut()
                        .push((sim2.now().as_nanos() / 1_000, id * 10 + step));
                }
            });
        }
        sim.run();
        let got = log.borrow().clone();
        // Tasks 0/1/2 sleep in 10/20/30us periods; ties break by timer
        // registration order (task1's t=20 timer was registered at t=0,
        // before task0's, which was registered at t=10).
        let expected = vec![
            (10, 0),
            (20, 10),
            (20, 1),
            (30, 20),
            (30, 2),
            (40, 11),
            (60, 21),
            (60, 12),
            (90, 22),
        ];
        assert_eq!(got, expected);
    }

    #[test]
    fn run_is_deterministic_across_runs() {
        fn timeline() -> Vec<u64> {
            let sim = Sim::new();
            let log: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
            for i in 1..=20u64 {
                let sim2 = sim.clone();
                let log = Rc::clone(&log);
                sim.spawn(async move {
                    sim2.sleep(Duration::from_nanos(i * 7 % 13)).await;
                    log.borrow_mut().push(sim2.now().as_nanos() * 100 + i);
                });
            }
            sim.run();
            let out = log.borrow().clone();
            out
        }
        assert_eq!(timeline(), timeline());
    }

    #[test]
    fn schedule_at_in_past_is_clamped_to_now() {
        let sim = Sim::new();
        let fired_at: Rc<Cell<u64>> = Rc::new(Cell::new(u64::MAX));
        let sim2 = sim.clone();
        let fired = Rc::clone(&fired_at);
        sim.run_until(async move {
            sim2.sleep(Duration::from_micros(100)).await;
            let f = Rc::clone(&fired);
            let s3 = sim2.clone();
            sim2.schedule_at(SimTime::from_micros(1), move |sim| {
                f.set(sim.now().as_nanos());
            });
            s3.sleep(Duration::from_micros(1)).await;
        });
        assert_eq!(fired_at.get(), 100_000);
    }

    #[test]
    fn stats_count_tasks_and_events() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let hs: Vec<_> = (0..5)
                .map(|_| {
                    let s = sim2.clone();
                    sim2.spawn(async move { s.sleep(Duration::from_micros(1)).await })
                })
                .collect();
            for h in hs {
                h.await;
            }
        });
        let stats = sim.stats();
        assert_eq!(stats.tasks_spawned, 6); // root + 5
        assert_eq!(stats.tasks_alive, 0);
        assert!(stats.timer_events >= 5);
        assert!(stats.polls >= 11);
    }

    #[test]
    fn shutdown_drops_leaked_task_graphs() {
        struct Component {
            sim: Sim, // cycle: world -> task -> component -> sim -> world
            payload: Vec<u8>,
        }
        let observer: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
        let weak = {
            let sim = Sim::new();
            let comp = Rc::new(Component {
                sim: sim.clone(),
                payload: vec![7u8; 1024],
            });
            let weak = Rc::downgrade(&comp);
            let obs = Rc::clone(&observer);
            sim.spawn(async move {
                // Infinite loop holding the component alive.
                loop {
                    obs.borrow_mut().push(comp.payload[0]);
                    comp.sim.sleep(Duration::from_micros(10)).await;
                }
            });
            let s2 = sim.clone();
            sim.run_until(async move { s2.sleep(Duration::from_micros(35)).await });
            assert!(weak.upgrade().is_some(), "task keeps component alive");
            sim.shutdown();
            weak
        };
        assert!(weak.upgrade().is_none(), "shutdown must break the cycle");
        assert_eq!(observer.borrow().len(), 4); // t=0,10,20,30
    }

    #[test]
    fn dropped_sleep_cancels_its_timer() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.run_until(async move {
            let mut sleep = Box::pin(s.sleep(Duration::from_millis(500)));
            // Poll once so the timer registers, then abandon it.
            std::future::poll_fn(|cx| {
                assert!(sleep.as_mut().poll(cx).is_pending());
                Poll::Ready(())
            })
            .await;
            assert_eq!(s.stats().pending_timers, 1);
            drop(sleep);
            assert_eq!(s.stats().pending_timers, 0);
        });
        assert_eq!(sim.run(), SimTime::ZERO);
        assert_eq!(sim.stats().timer_events, 0);
    }

    #[test]
    fn finished_timeout_cancels_its_deadline() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.spawn(async move {
            let inner = s.sleep(Duration::from_micros(3));
            let out = crate::timeout(&s, Duration::from_millis(500), inner).await;
            assert!(out.is_ok());
            assert_eq!(s.stats().pending_timers, 0);
        });
        // The run ends at the last live event, not the abandoned deadline.
        assert_eq!(sim.run(), SimTime::from_micros(3));
        assert_eq!(sim.stats().timer_events, 1);
    }

    #[test]
    fn live_timers_fire_in_order_around_cancelled_ones() {
        let sim = Sim::new();
        let log: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        for i in 0..60u32 {
            let s = sim.clone();
            let log = Rc::clone(&log);
            sim.spawn(async move {
                let at = Duration::from_micros(10 + u64::from(i % 4));
                if i % 3 == 0 {
                    // Registers a deadline at `at`, then abandons it at 1us.
                    let quick = s.sleep(Duration::from_micros(1));
                    assert!(crate::timeout(&s, at, quick).await.is_ok());
                } else {
                    s.sleep(at).await;
                    log.borrow_mut().push(i);
                }
            });
        }
        assert_eq!(sim.run(), SimTime::from_micros(13));
        // Live timers fire by deadline, ties in registration (spawn) order.
        let mut expected: Vec<u32> = (0..60).filter(|i| i % 3 != 0).collect();
        expected.sort_by_key(|i| i % 4);
        assert_eq!(*log.borrow(), expected);
        assert_eq!(sim.stats().timer_events, 20 + 40);
        assert_eq!(sim.stats().pending_timers, 0);
    }

    #[test]
    fn timer_heap_stays_bounded_by_live_timers() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.run_until(async move {
            let keep: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn({
                        let s = s.clone();
                        async move { s.sleep(Duration::from_secs(1)).await }
                    })
                })
                .collect();
            crate::yield_now().await;
            for _ in 0..1000 {
                let quick = s.sleep(Duration::from_nanos(1));
                assert!(crate::timeout(&s, Duration::from_secs(2), quick)
                    .await
                    .is_ok());
                let w = s.world.borrow();
                let dead = w.timers.heap.len() - w.timers.live;
                assert!(
                    dead <= w.timers.live,
                    "{dead} dead entries, {} live",
                    w.timers.live
                );
            }
            assert_eq!(s.stats().pending_timers, 8);
            drop(keep);
        });
    }

    #[test]
    fn leftover_waker_of_a_finished_task_does_not_poll_the_slot_reuser() {
        let sim = Sim::new();
        let stash: Rc<RefCell<Option<Waker>>> = Rc::new(RefCell::new(None));
        let st = Rc::clone(&stash);
        sim.spawn(std::future::poll_fn(move |cx| {
            *st.borrow_mut() = Some(cx.waker().clone());
            Poll::Ready(())
        }));
        sim.run();
        // The next task reuses the finished task's slot.
        let polls = Rc::new(Cell::new(0u32));
        let p = Rc::clone(&polls);
        sim.spawn(std::future::poll_fn(move |_| {
            p.set(p.get() + 1);
            Poll::<()>::Pending
        }));
        sim.run();
        assert_eq!(polls.get(), 1);
        assert_eq!(sim.world.borrow().tasks.len(), 1, "slot was reused");
        stash.borrow_mut().take().unwrap().wake();
        sim.run();
        assert_eq!(polls.get(), 1, "stale wake polled the slot's new task");
    }

    #[test]
    #[should_panic(expected = "quiesced")]
    fn run_until_panics_on_deadlock() {
        let sim = Sim::new();
        sim.run_until(async {
            std::future::pending::<()>().await;
        });
    }
}
