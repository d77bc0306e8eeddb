//! Pins the event queue's "no steady-state allocation" claim.
//!
//! A counting global allocator wraps the system one. After a warm-up that
//! sizes every slab, heap and bucket vector, one million push / pop /
//! cancel operations in the `pingpong` shape — thousands of live 20 ms
//! retransmit deadlines whose level-2 buckets keep coming due and
//! cascading, under µs-scale traffic and a re-armed coalescing timer —
//! must not allocate once.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use omx_sim::{EventQueue, EventToken, Time};

struct Counting;

thread_local! {
    // Per thread, so the test harness's own threads are not counted.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

#[derive(Clone, Copy)]
enum Ev {
    /// One round trip every 4,096 ns; arms the next one.
    Frame,
    /// µs-scale follow-up of a frame (an ack).
    Ack,
    /// Coalescing timer, re-armed by every frame, so it never fires.
    Coalesce,
    /// Retransmit deadline 20 ms out that is never cancelled.
    Rto,
}

/// The `pingpong` queue shape, driven one dispatched event at a time.
struct PingPong {
    q: EventQueue<Ev>,
    coalesce: Option<EventToken>,
    frames: u64,
    ops: u64,
}

impl PingPong {
    fn new() -> Self {
        let mut q = EventQueue::new();
        q.push(Time::ZERO, Ev::Frame);
        PingPong {
            q,
            coalesce: None,
            frames: 0,
            ops: 1,
        }
    }

    /// Dispatch one event. Frames alternate between one and two deadlines
    /// on the same instant, so about 7,300 deadlines stay live and every
    /// level-2 bucket receives the same 1,536.
    fn step(&mut self) {
        let (now, ev) = self.q.pop().expect("the frame chain never ends");
        self.ops += 1;
        if let Ev::Frame = ev {
            let t = now.as_nanos();
            self.q.push(Time::from_nanos(t + 4_096), Ev::Frame);
            self.q.push(Time::from_nanos(t + 1_500), Ev::Ack);
            if let Some(tok) = self.coalesce.take() {
                assert!(self.q.cancel(tok));
                self.ops += 1;
            }
            self.coalesce = Some(self.q.push(Time::from_nanos(t + 75_000), Ev::Coalesce));
            let rtos = 1 + self.frames % 2;
            for _ in 0..rtos {
                self.q.push(Time::from_nanos(t + 20_000_000), Ev::Rto);
            }
            self.ops += 3 + rtos;
            self.frames += 1;
        }
        assert!(!matches!(ev, Ev::Coalesce), "re-armed timer fired");
    }
}

#[test]
fn steady_state_cascades_do_not_allocate() {
    let mut pp = PingPong::new();
    // Warm up past one full turn of the level-2 ring (64 × 4.2 ms), so
    // every bucket of every level has held its steady-state maximum.
    while pp.q.len() < 7_000 || pp.frames < 80_000 {
        pp.step();
    }
    let live = pp.q.len();
    let (ops0, before) = (pp.ops, allocations());
    while pp.ops - ops0 < 1_000_000 {
        pp.step();
    }
    let allocated = allocations() - before;
    assert_eq!(
        allocated, 0,
        "{allocated} allocations in 1M steady-state ops"
    );
    assert!((7_000..7_500).contains(&live), "{live} live events");
    assert!(pp.q.len().abs_diff(live) <= 2);
}
