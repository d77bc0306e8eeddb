//! Property tests for the event queue: ordering, FIFO ties, cancellation.
//!
//! Randomised with the crate's own deterministic [`SimRng`] (fixed seeds, so
//! failures reproduce exactly) instead of an external property-test harness.

use omx_sim::rng::SimRng;
use omx_sim::{EventQueue, Time};

/// Events always pop in nondecreasing time order, with FIFO order among
/// equal timestamps, regardless of push order.
#[test]
fn pop_order_is_time_then_fifo() {
    let mut rng = SimRng::new(0x5EED_0001);
    for _case in 0..128 {
        let n = rng.range_u64(1, 200) as usize;
        let times: Vec<u64> = (0..n).map(|_| rng.range_u64(0, 1_000)).collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(Time::from_nanos(t), (t, i));
        }
        let mut last: Option<(u64, usize)> = None;
        let mut popped = 0;
        while let Some((at, (t, i))) = q.pop() {
            popped += 1;
            assert_eq!(at.as_nanos(), t);
            if let Some((lt, li)) = last {
                assert!(
                    t > lt || (t == lt && i > li),
                    "order violated: ({lt},{li}) then ({t},{i})"
                );
            }
            last = Some((t, i));
        }
        assert_eq!(popped, times.len());
    }
}

/// Cancelled events never pop; everything else always pops exactly once.
#[test]
fn cancellation_is_exact() {
    let mut rng = SimRng::new(0x5EED_0002);
    for _case in 0..128 {
        let n = rng.range_u64(1, 200) as usize;
        let times: Vec<u64> = (0..n).map(|_| rng.range_u64(0, 500)).collect();
        let cancel_mask: Vec<bool> = (0..n).map(|_| rng.chance(0.5)).collect();
        let mut q = EventQueue::new();
        let tokens: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (i, q.push(Time::from_nanos(t), i)))
            .collect();
        let mut cancelled = std::collections::HashSet::new();
        for (i, tok) in &tokens {
            if cancel_mask[*i] {
                assert!(q.cancel(*tok), "first cancel must succeed");
                assert!(!q.cancel(*tok), "second cancel must fail");
                cancelled.insert(*i);
            }
        }
        assert_eq!(q.len(), times.len() - cancelled.len());
        let mut seen = std::collections::HashSet::new();
        while let Some((_, i)) = q.pop() {
            assert!(!cancelled.contains(&i), "cancelled event {i} popped");
            assert!(seen.insert(i), "event {i} popped twice");
        }
        assert_eq!(seen.len(), times.len() - cancelled.len());
    }
}

/// Model-based check: drive the real queue and a naive sorted-`Vec`
/// reference model through arbitrary interleavings of push / cancel / pop /
/// peek and assert every observable result is identical. The model is the
/// executable spec of "ordered multiset keyed by (time, insertion seq)":
/// whatever layout the queue uses internally (heap, wheel, slab reuse), its
/// behaviour must be indistinguishable from this.
#[test]
fn queue_matches_sorted_vec_model() {
    #[derive(Clone, Copy)]
    struct ModelEntry {
        time: u64,
        seq: u64,
        id: u64,
    }

    let mut rng = SimRng::new(0x5EED_0004);
    for case in 0..256 {
        let ops = rng.range_u64(1, 400) as usize;
        let mut q = EventQueue::new();
        // Reference: entries kept sorted by (time, seq); front pops first.
        let mut model: Vec<ModelEntry> = Vec::new();
        let mut seq = 0u64;
        let mut next_id = 0u64;
        // Live tokens, with a parallel list of (id, model-seq) for cancel.
        let mut live: Vec<(omx_sim::EventToken, u64)> = Vec::new();
        // Tokens already consumed (popped or cancelled); must stay dead.
        let mut dead: Vec<omx_sim::EventToken> = Vec::new();
        let mut floor = 0u64; // pops are monotone; pushes must respect it

        for _ in 0..ops {
            match rng.range_u64(0, 100) {
                // Push (45%) — horizons spanning every wheel level
                // (~65 µs, ~4.2 ms, ~268 ms), the heap overflow past
                // them, and exact repeats of queued times.
                0..=44 => {
                    let t = match rng.range_u64(0, 10) {
                        // Same-time FIFO ties, including ties split between
                        // a wheel bucket and the heap across a promotion.
                        0..=1 if !model.is_empty() => {
                            model[rng.range_u64(0, model.len() as u64) as usize].time
                        }
                        0..=3 => floor + rng.range_u64(0, 100_000),
                        4..=5 => floor + rng.range_u64(0, 5_000_000),
                        6..=8 => floor + rng.range_u64(0, 300_000_000),
                        _ => floor + rng.range_u64(0, 10_000_000_000), // far future
                    };
                    let id = next_id;
                    next_id += 1;
                    let tok = q.push(Time::from_nanos(t), id);
                    let s = seq;
                    seq += 1;
                    let pos = model
                        .binary_search_by_key(&(t, s), |e| (e.time, e.seq))
                        .unwrap_err();
                    model.insert(
                        pos,
                        ModelEntry {
                            time: t,
                            seq: s,
                            id,
                        },
                    );
                    live.push((tok, s));
                }
                // Cancel a live token (20%).
                45..=64 => {
                    if live.is_empty() {
                        continue;
                    }
                    let k = rng.range_u64(0, live.len() as u64) as usize;
                    let (tok, s) = live.swap_remove(k);
                    assert!(q.cancel(tok), "case {case}: live token must cancel");
                    let pos = model
                        .iter()
                        .position(|e| e.seq == s)
                        .expect("model has live entry");
                    model.remove(pos);
                    dead.push(tok);
                }
                // Cancel a dead token (10%) — must be rejected.
                65..=74 => {
                    if let Some(&tok) = dead.last() {
                        assert!(!q.cancel(tok), "case {case}: dead token cancelled");
                    }
                }
                // Pop (15%).
                75..=89 => {
                    let got = q.pop();
                    if model.is_empty() {
                        assert!(got.is_none(), "case {case}: pop from empty");
                    } else {
                        let e = model.remove(0);
                        let (at, id) = got.expect("model non-empty but pop was None");
                        assert_eq!(
                            (at.as_nanos(), id),
                            (e.time, e.id),
                            "case {case}: pop mismatch"
                        );
                        floor = e.time;
                        let k = live.iter().position(|&(_, s)| s == e.seq).unwrap();
                        let (tok, _) = live.swap_remove(k);
                        dead.push(tok);
                    }
                }
                // Peek (10%).
                _ => {
                    let expect = model.first().map(|e| e.time);
                    assert_eq!(
                        q.peek_time().map(|t| t.as_nanos()),
                        expect,
                        "case {case}: peek mismatch"
                    );
                }
            }
            assert_eq!(q.len(), model.len(), "case {case}: len mismatch");
            assert_eq!(q.is_empty(), model.is_empty());
        }

        // Drain: the tail must come out exactly in model order.
        while let Some(e) = if model.is_empty() {
            None
        } else {
            Some(model.remove(0))
        } {
            let (at, id) = q.pop().expect("queue drained before model");
            assert_eq!((at.as_nanos(), id), (e.time, e.id), "case {case}: drain");
        }
        assert!(q.pop().is_none());
    }
}

/// Interleaved push/pop keeps the min-heap property observable: any pop
/// returns a time ≥ the previous pop.
#[test]
fn interleaved_operations_stay_ordered() {
    let mut rng = SimRng::new(0x5EED_0003);
    for _case in 0..128 {
        let ops = rng.range_u64(1, 300) as usize;
        let mut q = EventQueue::new();
        let mut last_popped = 0u64;
        let mut clock = 0u64; // scheduling must be >= last pop for realism
        for _ in 0..ops {
            let t = rng.range_u64(0, 1000);
            if rng.chance(0.5) {
                if let Some((at, ())) = q.pop() {
                    assert!(at.as_nanos() >= last_popped);
                    last_popped = at.as_nanos();
                }
            } else {
                let at = clock + t; // non-decreasing baseline
                q.push(Time::from_nanos(at.max(last_popped)), ());
                clock = clock.max(at / 2);
            }
        }
    }
}
