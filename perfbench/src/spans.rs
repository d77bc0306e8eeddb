//! Host-time tracing from the benchmark's side of each crate boundary.
//!
//! A span is recorded around every call the benchmark makes into a layer
//! (name, layer, start, end, parent span, cell). Spans stay in memory and
//! are written out once, when the run ends. The NIC coalescer hooks run
//! millions of times, so they are counted and timed in aggregate by a
//! delegating [`Coalescer`] instead of one span per call.

use omx_nic::{Coalescer, Decision, PacketMeta};
use omx_sim::json::Json;
use omx_sim::{Time, TimeDelta};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Common time origin of every span in the process.
fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    origin().elapsed().as_nanos() as u64
}

#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span within the same cell.
    pub parent: Option<usize>,
    pub cell: u32,
    pub pass: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The spans of one cell. Inert (no clock reads) when tracing is off.
#[derive(Debug, Clone, Default)]
pub struct CellTrace {
    enabled: bool,
    cell: u32,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span.
pub struct SpanId(Option<usize>);

impl CellTrace {
    pub fn new(cell: u32, enabled: bool) -> CellTrace {
        CellTrace {
            enabled,
            cell,
            ..CellTrace::default()
        }
    }

    pub fn open(&mut self, layer: &'static str, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            layer,
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            cell: self.cell,
            pass: 0,
        });
        self.open.push(idx);
        SpanId(Some(idx))
    }

    pub fn close(&mut self, id: SpanId) {
        if let Some(idx) = id.0 {
            self.spans[idx].end_ns = now_ns();
            self.open.retain(|&i| i != idx);
        }
    }
}

/// Self time of each span: its duration minus the part its direct
/// children cover (children never overlap each other).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Counters shared by the two NICs' [`TimedCoalescer`]s of one cell.
#[derive(Debug, Default)]
pub struct CoalescerStats {
    calls: AtomicU64,
    busy_ns: AtomicU64,
}

impl CoalescerStats {
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    pub fn busy_ns(&self) -> u64 {
        self.busy_ns.load(Ordering::Relaxed)
    }

    fn add(&self, start: Instant) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.busy_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

/// Delegates every hook to the real strategy and times it.
pub struct TimedCoalescer {
    inner: Box<dyn Coalescer>,
    stats: Arc<CoalescerStats>,
}

impl TimedCoalescer {
    pub fn new(inner: Box<dyn Coalescer>, stats: Arc<CoalescerStats>) -> Self {
        TimedCoalescer { inner, stats }
    }
}

impl Coalescer for TimedCoalescer {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_packet_arrival(&mut self, now: Time, meta: &PacketMeta) -> Decision {
        let start = Instant::now();
        let d = self.inner.on_packet_arrival(now, meta);
        self.stats.add(start);
        d
    }

    fn on_dma_complete(
        &mut self,
        now: Time,
        marked: bool,
        pending_dmas: usize,
        ready_packets: u32,
    ) -> Decision {
        let start = Instant::now();
        let d = self
            .inner
            .on_dma_complete(now, marked, pending_dmas, ready_packets);
        self.stats.add(start);
        d
    }

    fn on_timer(&mut self, now: Time) -> Decision {
        let start = Instant::now();
        let d = self.inner.on_timer(now);
        self.stats.add(start);
        d
    }

    fn on_interrupt(&mut self, now: Time) {
        let start = Instant::now();
        self.inner.on_interrupt(now);
        self.stats.add(start);
    }

    fn fallback_delay(&self) -> Option<TimeDelta> {
        self.inner.fallback_delay()
    }
}

/// Render spans as JSON records, parents as indices into the same list.
pub fn spans_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("layer", Json::Str(s.layer.into())),
                    ("name", Json::Str(s.name.into())),
                    ("start_ns", Json::U64(s.start_ns)),
                    ("end_ns", Json::U64(s.end_ns)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                    ),
                    ("cell", Json::U64(u64::from(s.cell))),
                    ("pass", Json::U64(u64::from(s.pass))),
                ])
            })
            .collect(),
    )
}
