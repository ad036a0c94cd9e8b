//! Wall-clock spans around the benchmark's calls into each layer.
//!
//! Spans live in memory while a traced repetition runs and are written
//! out when the run ends. Client futures are timed with [`SelfTime`],
//! which charges only the wall time spent inside their own `poll` calls:
//! between polls the executor runs server, fabric and store tasks, and
//! those must not count as client time.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::future::Future;
use std::io::{self, Write};
use std::path::Path;
use std::pin::Pin;
use std::task::{Context, Poll};
use std::time::Instant;

/// Parent of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `build_cluster`.
    Build,
    /// Preload through the client API (inside its own `run_until`).
    Preload,
    /// The measured phase's `Sim::run_until`.
    RunUntil,
    /// `KeyChooser::next_key` and `OpMix::choose`.
    Plan,
    /// One poll of an issue call (`iset`/`iget`/`set`/`get`) or a
    /// `flush_batches` call.
    Issue,
    /// One poll of `ReqHandle::wait`.
    Wait,
    /// The benchmark's own bookkeeping and output check per completion.
    Check,
}

impl Layer {
    /// Span name as written to the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Build => "cluster.build",
            Layer::Preload => "workload.preload",
            Layer::RunUntil => "simrt.run_until",
            Layer::Plan => "workload.plan",
            Layer::Issue => "client.issue",
            Layer::Wait => "client.wait",
            Layer::Check => "bench.check",
        }
    }
}

/// One timed interval, in wall nanoseconds since the tracer was made.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was timed.
    pub layer: Layer,
    /// Start.
    pub start_ns: u64,
    /// End.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// The op this span served (`client << 32 | op index`), or `u64::MAX`.
    pub op: u64,
}

/// In-memory span recorder for one repetition.
pub struct Tracer {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    parent: Cell<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            parent: Cell::new(NO_PARENT),
        }
    }
}

impl Tracer {
    /// Wall nanoseconds since the tracer was made.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a span that started at `start_ns` and ends now, under the
    /// currently open root span.
    pub fn record(&self, layer: Layer, start_ns: u64, op: u64) {
        let end_ns = self.now_ns();
        self.spans.borrow_mut().push(Span {
            layer,
            start_ns,
            end_ns,
            parent: self.parent.get(),
            op,
        });
    }

    /// Open a root span; spans recorded until [`close`](Self::close) are
    /// its children.
    pub fn open(&self, layer: Layer) -> u32 {
        let mut spans = self.spans.borrow_mut();
        let idx = spans.len() as u32;
        let now = self.now_ns();
        spans.push(Span {
            layer,
            start_ns: now,
            end_ns: now,
            parent: NO_PARENT,
            op: u64::MAX,
        });
        self.parent.set(idx);
        idx
    }

    /// Close the root span `idx`.
    pub fn close(&self, idx: u32) {
        let now = self.now_ns();
        self.spans.borrow_mut()[idx as usize].end_ns = now;
        self.parent.set(NO_PARENT);
    }

    /// Take the recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Run `f`, recording a span around it when tracing.
pub fn timed<T>(tracer: Option<&Tracer>, layer: Layer, op: u64, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => {
            let start = t.now_ns();
            let out = f();
            t.record(layer, start, op);
            out
        }
        None => f(),
    }
}

/// Await `fut`, recording one span per poll when tracing.
pub async fn polled<F: Future>(
    tracer: Option<&Tracer>,
    layer: Layer,
    op: u64,
    fut: F,
) -> F::Output {
    match tracer {
        Some(tracer) => {
            let fut = std::pin::pin!(fut);
            SelfTime {
                fut,
                tracer,
                layer,
                op,
            }
            .await
        }
        None => fut.await,
    }
}

/// Poll-self-time wrapper: a span per `poll` of the inner future.
struct SelfTime<'a, F> {
    fut: Pin<&'a mut F>,
    tracer: &'a Tracer,
    layer: Layer,
    op: u64,
}

impl<F: Future> Future for SelfTime<'_, F> {
    type Output = F::Output;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        let start = self.tracer.now_ns();
        let out = self.fut.as_mut().poll(cx);
        self.tracer.record(self.layer, start, self.op);
        out
    }
}

/// Wall time per layer derived from one repetition's spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    /// `run_until` minus the part of it its child spans cover: executor,
    /// server, fabric and store tasks.
    pub sim_self_ns: u64,
    /// Sum of `workload.plan` spans.
    pub plan_ns: u64,
    /// Sum of `client.issue` poll spans.
    pub issue_ns: u64,
    /// Sum of `client.wait` poll spans.
    pub wait_ns: u64,
    /// Sum of `bench.check` spans.
    pub check_ns: u64,
}

/// Attribute wall time to layers: each layer's total span time, and the
/// `run_until` root's self time (its length minus the union of its
/// children).
pub fn layer_times(spans: &[Span]) -> LayerTimes {
    let mut t = LayerTimes::default();
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        let d = s.end_ns - s.start_ns;
        match s.layer {
            Layer::Plan => t.plan_ns += d,
            Layer::Issue => t.issue_ns += d,
            Layer::Wait => t.wait_ns += d,
            Layer::Check => t.check_ns += d,
            Layer::Build | Layer::Preload | Layer::RunUntil => {}
        }
        if s.parent != NO_PARENT {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    for (i, s) in spans.iter().enumerate() {
        if s.layer == Layer::RunUntil {
            let kids = children.get_mut(&(i as u32)).map_or(0, |k| covered(k));
            t.sim_self_ns += (s.end_ns - s.start_ns) - kids;
        }
    }
    t
}

/// Length of the union of `intervals`.
fn covered(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Write spans as tab-separated `name start_ns end_ns parent op` lines.
pub fn write_spans(path: &Path, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "name\tstart_ns\tend_ns\tparent\top")?;
    for s in spans {
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            s.parent as i64
        };
        let op = if s.op == u64::MAX { -1 } else { s.op as i128 };
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}",
            s.layer.name(),
            s.start_ns,
            s.end_ns,
            parent,
            op
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_of_overlapping_intervals() {
        let mut v = vec![(5, 10), (0, 3), (8, 12), (20, 21)];
        assert_eq!(covered(&mut v), 3 + 7 + 1);
        assert_eq!(covered(&mut []), 0);
    }

    #[test]
    fn root_self_time_excludes_children() {
        let spans = [
            Span {
                layer: Layer::RunUntil,
                start_ns: 0,
                end_ns: 100,
                parent: NO_PARENT,
                op: u64::MAX,
            },
            Span {
                layer: Layer::Issue,
                start_ns: 10,
                end_ns: 30,
                parent: 0,
                op: 0,
            },
            Span {
                layer: Layer::Wait,
                start_ns: 50,
                end_ns: 55,
                parent: 0,
                op: 0,
            },
        ];
        let t = layer_times(&spans);
        assert_eq!(t.sim_self_ns, 75);
        assert_eq!((t.issue_ns, t.wait_ns), (20, 5));
    }
}
