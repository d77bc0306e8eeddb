//! Tracked performance baseline of the simulation substrate.
//!
//! `omx-bench perf` runs the substrate micro-benchmarks (the same workloads
//! as `cargo bench --bench engine`, plus a timer re-arm stress), **the
//! `e2e/*` whole-simulation benches** (full clusters driven to completion,
//! reported in frames/sec), **and the `campaign/*` wall-clock benches**
//! (whole quick campaigns on the work-stealing pool, parallel and serial),
//! and writes a machine-readable report to `BENCH_sim.json` in the working
//! directory. Each entry carries a tracked baseline, so a regression shows
//! up as a `speedup_vs_baseline` below 1.0 without digging through CI logs.
//!
//! Baselines come from three sources, in order (after the first full run
//! no entry is ever `null`):
//!
//! 1. the static pre-optimisation anchors pinned in this module,
//! 2. the `baseline_mean_ns` recorded for the same id in the
//!    `BENCH_sim.json` already on disk (baselines persist once captured),
//! 3. for a **full** run of a bench with neither: the run's own mean is
//!    captured as the baseline (smoke means are too noisy to anchor a
//!    gate on, so smoke never self-captures).
//!
//! `campaign/<name>` entries are special: their baseline is the
//! **serial mean measured in the same run** (the matching
//! `campaign/<name>_serial` entry, forced through the `--jobs 1` path), so
//! `speedup_vs_baseline` is the live parallel-over-serial campaign speedup
//! on this machine — near-linear in cores for `faults`/`scale`.
//!
//! `e2e/<name>_par` entries work the same way for the conservative
//! parallel DES core (DESIGN §12): the matching `e2e/<name>_par_serial`
//! entry runs the identical simulation on the serial engine (forced
//! through `with_sim_jobs(1)`), and its same-run mean is the parallel
//! entry's baseline — so `speedup_vs_baseline` is the live
//! single-simulation engine speedup at this run's `--sim-jobs` width, the
//! number the ROADMAP's parallel-DES item tracks. Two shapes are paired:
//! the drained 16-node alltoall (concurrent barrier epochs) and the
//! stop-voted two-node pingpong (the global-stop-vote path, dominated by
//! single-active inline windows). Each parallel entry also contributes a
//! per-segment wall-time breakdown (`engine_segments`: dispatch / merge /
//! barrier / fast-forward, cumulative across the entry's runs) so a
//! speedup shortfall can be attributed to a specific engine phase.
//!
//! `--smoke` runs one warmup and one timed iteration per workload — enough
//! for CI to prove the binary works and to publish a report artifact without
//! burning minutes on statistics. In smoke mode the run doubles as a
//! regression gate: any bench with a recorded baseline whose mean regresses
//! more than 2× past it fails the run (see [`regressions`]), and on a
//! machine with ≥ 4 cores a `campaign/*` parallel speedup below 2× fails it
//! too (see [`speedup_shortfalls`]). It is also an exact **work gate**:
//! every `e2e/*` entry's `events` and `frames` must equal the committed
//! `BENCH_sim.json` (see [`work_mismatches`]). `--iters N` overrides every
//! bench's timed iteration count (the gates still apply to the resulting
//! means).
//!
//! Report schema (`omx-bench-perf/5`):
//!
//! ```json
//! {
//!   "schema": "omx-bench-perf/5",
//!   "mode": "full" | "smoke",
//!   "jobs": 4,        // campaign pool width this run (--jobs / OMX_JOBS / cores)
//!   "sim_jobs": 1,    // parallel-engine width this run (--sim-jobs / OMX_SIM_JOBS)
//!   "cores": 4,       // std::thread::available_parallelism
//!   "benches": [
//!     {
//!       "id": "event_queue/push_cancel_pop_10k",
//!       "mean_ns": 410000, "min_ns": 395000, "iters": 20,
//!       "baseline_mean_ns": 1988000,    // null for new benches
//!       "speedup_vs_baseline": 4.85     // baseline_mean / mean; null if no baseline
//!     },
//!     {
//!       "id": "e2e/pingpong_small_50k",
//!       "mean_ns": 1, "min_ns": 1, "iters": 5,
//!       "baseline_mean_ns": 1, "speedup_vs_baseline": 1.0,
//!       "frames": 120000,               // e2e/* only: frames the cluster carried
//!       "frames_per_sec": 1.0e8,        // e2e/* only: frames / mean wall time
//!       "events": 2000000,              // e2e/* only: events the engine dispatched
//!       "events_per_frame": 16.7        // e2e/* only: events / frames
//!     },
//!     {
//!       "id": "campaign/scale_quick",    // whole scale --quick campaign, pooled
//!       "mean_ns": 600000000, "min_ns": 590000000, "iters": 1,
//!       "baseline_mean_ns": 1800000000,  // = campaign/scale_quick_serial mean, same run
//!       "speedup_vs_baseline": 3.0       // live parallel-vs-serial speedup
//!     }
//!   ],
//!   "engine_segments": [                 // one per e2e/*_par entry
//!     {
//!       "id": "e2e/scale_alltoall_16n_par",
//!       "runs": 6,                       // warmup + timed iterations covered
//!       "dispatch_ns": 40000000,         // worker/inline event dispatch
//!       "merge_ns": 2000000,             // lineage replay + effect apply
//!       "barrier_ns": 3000000,           // epoch barrier waits (coordinator view)
//!       "fast_forward_ns": 500000        // shard reassembly + engine catch-up
//!     }
//!   ]
//! }
//! ```
//!
//! `frames` counts simulated Ethernet frames carried by the fabric in one
//! bench iteration and `events` the events dispatched to carry them (both
//! deterministic — fixed seeds), so `frames_per_sec` is the end-to-end
//! simulator throughput the ROADMAP tracks and `events_per_frame` the model
//! work behind each frame.
//!
//! The `campaign/*` serial-vs-parallel pairs are additionally summarised
//! into `results/campaign_speedup.json` (see [`write_campaign_comparison`])
//! — the artifact CI uploads so the pool's speedup is tracked per run.

use crate::experiments::{faults, scale};
use crate::timing::{measure, BenchStats};
use omx_core::prelude::*;
use omx_mpi::{MpiWorld, Op, WorldSpec};
use omx_sim::json::Json;
use omx_sim::{pool, Engine, EventQueue, Model, Scheduler, Time};

/// Mean per-iteration wall time (ns) of each workload on the tracked
/// reference machine, captured with the pre-optimisation implementation
/// (`event_queue/*`, `engine/*`: the pre-PR-2 `BinaryHeap` + tombstone-set
/// queue; `e2e/*`: the pre-PR-5 map-based protocol state and `Box<dyn
/// Coalescer>` NIC dispatch). New workloads without a pre-optimisation
/// equivalent carry no baseline. `e2e/scale_alltoall_16n_telemetry` is the
/// exception: its baseline is the cost measured when the telemetry
/// subsystem landed, so the gate catches windowed sampling turning from
/// observation into load.
const BASELINE_MEAN_NS: &[(&str, u64)] = &[
    ("event_queue/push_pop_10k_fifo", 1_654_000),
    ("event_queue/push_cancel_pop_10k", 1_988_000),
    ("engine/dispatch_100k_chained_events", 5_816_000),
    ("e2e/pingpong_small_50k", 884_195_000),
    ("e2e/table1_medium_cell", 10_859_000),
    ("e2e/scale_alltoall_16n", 16_967_000),
    ("e2e/scale_alltoall_16n_telemetry", 10_263_000),
];

struct Chain {
    remaining: u64,
}

impl Model for Chain {
    type Event = ();
    fn handle(&mut self, _now: Time, _ev: (), sched: &mut Scheduler<()>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            sched.schedule_in(10, ());
        }
    }
}

fn push_pop_10k_fifo() -> EventQueue<u64> {
    let mut q = EventQueue::<u64>::new();
    for i in 0..10_000u64 {
        q.push(Time::from_nanos(i), i);
    }
    while q.pop().is_some() {}
    q
}

fn push_cancel_pop_10k() -> EventQueue<u64> {
    let mut q = EventQueue::<u64>::new();
    let tokens: Vec<_> = (0..10_000u64)
        .map(|i| q.push(Time::from_nanos(i % 512), i))
        .collect();
    for t in tokens.iter().step_by(2) {
        q.cancel(*t);
    }
    while q.pop().is_some() {}
    q
}

/// The NIC coalescing pattern: a short-horizon timer cancelled and re-armed
/// once per delivered packet, behind an earlier backstop event. Every push
/// lands in the timer wheel and every cancel is an O(1) bucket removal.
fn timer_rearm_100k() -> EventQueue<u64> {
    let mut q = EventQueue::<u64>::new();
    q.push(Time::ZERO, 0);
    let mut tok = q.push(Time::from_nanos(60_000), 1);
    for i in 0..100_000u64 {
        q.cancel(tok);
        tok = q.push(Time::from_nanos(60_000 + (i % 1_000)), 1);
    }
    q
}

fn dispatch_100k_chained_events() -> u64 {
    let mut eng = Engine::new(Chain { remaining: 100_000 });
    eng.prime(Time::ZERO, ());
    eng.run(Time::MAX, u64::MAX);
    eng.events_processed()
}

/// The deterministic work of one `e2e/*` iteration: frames the fabric
/// carried and events the engine dispatched. Both are fixed for a fixed
/// configuration, so unlike wall time they gate exactly on any host (see
/// [`work_mismatches`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Work {
    frames: u64,
    events: u64,
}

impl Work {
    fn of(cluster: &Cluster) -> Work {
        Work {
            frames: cluster.metrics().frames_carried,
            events: cluster.events_processed(),
        }
    }

    fn of_mpi(report: &omx_mpi::MpiRunReport) -> Work {
        Work {
            frames: report.metrics.frames_carried,
            events: report.events,
        }
    }
}

/// 50 000 128-byte ping-pongs on a two-node cluster under the paper's
/// open-mx strategy. Every frame takes the small-message eager path, so
/// this is the per-packet protocol + NIC dispatch cost laid bare.
fn e2e_pingpong_small_50k() -> Work {
    let mut cluster = ClusterBuilder::new()
        .nodes(2)
        .strategy(CoalescingStrategy::OpenMx { delay_us: 75 })
        .build();
    cluster.run_pingpong(PingPongSpec {
        msg_len: 128,
        iterations: 50_000,
        warmup: 0,
    });
    Work::of(&cluster)
}

/// The Table I medium-message cell (32 KiB × 400, window 32, default
/// strategy): fragment reassembly and the retransmit-timer path under a
/// windowed stream.
fn e2e_table1_medium_cell() -> Work {
    let mut cluster = ClusterBuilder::new()
        .nodes(2)
        .strategy(CoalescingStrategy::Timeout { delay_us: 75 })
        .build();
    cluster.run_stream(StreamSpec {
        msg_len: 32 << 10,
        messages: 400,
        window: 32,
    });
    Work::of(&cluster)
}

/// A 16-node (32-rank) 16 KiB alltoall through the bounded-buffer switch —
/// the scale campaign's heaviest shape: rendezvous pulls, convergent
/// traffic, and the full MPI stack above the protocol layer.
fn e2e_scale_alltoall_16n() -> Work {
    let mut cfg = ClusterConfig::default();
    cfg.nic.strategy = CoalescingStrategy::Timeout { delay_us: 75 };
    cfg.fabric.switch_buffer_frames = 32;
    cfg.seed = 0xE2E;
    let spec = WorldSpec {
        ranks: 32,
        ranks_per_node: 2,
    };
    let (report, _sanitizer) =
        MpiWorld::new(spec, cfg).run_drained(|_| vec![Op::Alltoall { bytes: 16 << 10 }]);
    Work::of_mpi(&report)
}

/// The same 16-node alltoall with windowed telemetry enabled (100 µs
/// windows, the `omx-bench timeline` configuration): pins the sampling
/// tick + snapshot overhead on top of `e2e/scale_alltoall_16n`.
fn e2e_scale_alltoall_16n_telemetry() -> Work {
    let mut cfg = ClusterConfig::default();
    cfg.nic.strategy = CoalescingStrategy::Timeout { delay_us: 75 };
    cfg.fabric.switch_buffer_frames = 32;
    cfg.seed = 0xE2E;
    let spec = WorldSpec {
        ranks: 32,
        ranks_per_node: 2,
    };
    let mut world = MpiWorld::new(spec, cfg);
    world.enable_telemetry(TelemetryConfig::default());
    let (report, _sanitizer) = world.run_drained(|_| vec![Op::Alltoall { bytes: 16 << 10 }]);
    Work::of_mpi(&report)
}

/// The `BENCH_sim.json` already in the working directory, if any and if
/// it parses.
pub fn recorded_report() -> Option<Json> {
    let text = std::fs::read_to_string("BENCH_sim.json").ok()?;
    Json::parse(&text).ok()
}

/// `baseline_mean_ns` values recorded in the `BENCH_sim.json` already in
/// the working directory (if any): once a baseline has been captured it
/// persists across regenerations, exactly like the static anchors.
fn prior_baselines() -> Vec<(String, u64)> {
    let Some(json) = recorded_report() else {
        return Vec::new();
    };
    let Some(benches) = json.get("benches").and_then(|b| b.as_arr()) else {
        return Vec::new();
    };
    benches
        .iter()
        .filter_map(|b| {
            Some((
                b.get("id")?.as_str()?.to_string(),
                b.get("baseline_mean_ns")?.as_u64()?,
            ))
        })
        .collect()
}

/// Resolve the tracked baseline for `id`: static anchor → baseline already
/// recorded on disk → (full runs only) capture this run's own mean. After
/// the first full run every bench therefore has a baseline and
/// `speedup_vs_baseline` is never null — which also puts new benches under
/// the CI regression gate from their second run onward.
fn resolve_baseline(
    id: &str,
    prior: &[(String, u64)],
    full_run: bool,
    mean_ns: u64,
) -> Option<u64> {
    if let Some((_, ns)) = BASELINE_MEAN_NS.iter().find(|(k, _)| *k == id) {
        return Some(*ns);
    }
    if let Some((_, ns)) = prior.iter().find(|(k, _)| k == id) {
        return Some(*ns);
    }
    full_run.then_some(mean_ns)
}

fn entry_with_baseline(
    id: &str,
    stats: BenchStats,
    baseline: Option<u64>,
    work: Option<Work>,
) -> Json {
    let mut fields = vec![
        ("id", Json::Str(id.to_string())),
        ("mean_ns", Json::U64(stats.mean_ns)),
        ("min_ns", Json::U64(stats.min_ns)),
        ("iters", Json::U64(u64::from(stats.iters))),
        ("baseline_mean_ns", baseline.map_or(Json::Null, Json::U64)),
        (
            "speedup_vs_baseline",
            baseline.map_or(Json::Null, |b| {
                Json::F64(b as f64 / stats.mean_ns.max(1) as f64)
            }),
        ),
    ];
    if let Some(Work { frames, events }) = work {
        fields.push(("frames", Json::U64(frames)));
        fields.push((
            "frames_per_sec",
            Json::F64(frames as f64 * 1e9 / stats.mean_ns.max(1) as f64),
        ));
        fields.push(("events", Json::U64(events)));
        fields.push((
            "events_per_frame",
            Json::F64(events as f64 / frames.max(1) as f64),
        ));
    }
    Json::obj(fields)
}

/// One whole `omx-bench scale --quick` campaign (60 cells) on the
/// configured pool — the wall-clock number the parallel executor exists to
/// shrink. The result is dropped; cells assert their own invariants.
fn campaign_scale_quick() -> usize {
    scale::run(true, false).cells.len()
}

/// One whole `omx-bench faults --quick` campaign (65 cells).
fn campaign_faults_quick() -> usize {
    faults::run(true, false).cells.len()
}

/// Run the perf suite and return the report. `smoke` = 1 warmup / 1 iter;
/// `iters_override` replaces every bench's timed iteration count.
pub fn run(smoke: bool, iters_override: Option<u32>) -> Json {
    let full_run = !smoke;
    let prior = prior_baselines();
    let (w, n, we, ne) = if smoke { (1, 1, 1, 1) } else { (3, 20, 1, 10) };
    // Whole-simulation runs are orders of magnitude longer than the
    // microbenches; a handful of iterations already gives stable means.
    let (wf, nf) = if smoke { (1, 1) } else { (1, 5) };
    // Whole campaigns are seconds each; no warmup, few iterations.
    let nc = if smoke { 1 } else { 3 };
    let ov = |n: u32| iters_override.unwrap_or(n);

    // (id, stats, frames) for the single-simulation benches, measured
    // strictly serially — one sim on one thread — so their means stay
    // comparable across `--jobs` settings.
    let mut raw: Vec<(&str, BenchStats, Option<Work>)> = vec![
        (
            "event_queue/push_pop_10k_fifo",
            measure(w, ov(n), push_pop_10k_fifo),
            None,
        ),
        (
            "event_queue/push_cancel_pop_10k",
            measure(w, ov(n), push_cancel_pop_10k),
            None,
        ),
        (
            "event_queue/timer_rearm_100k",
            measure(w, ov(n), timer_rearm_100k),
            None,
        ),
        (
            "engine/dispatch_100k_chained_events",
            measure(we, ov(ne), dispatch_100k_chained_events),
            None,
        ),
    ];
    // The e2e family is pinned to the serial engine (`with_sim_jobs(1)`)
    // so its means stay comparable to the historical baselines across
    // `--sim-jobs` settings too — the parallel engine is measured only by
    // the explicit e2e/*_par pair below.
    let mut e2e = |id: &'static str, f: fn() -> Work| {
        let mut work = Work::default();
        let stats = pool::with_sim_jobs(1, || measure(wf, ov(nf), || work = f()));
        raw.push((id, stats, Some(work)));
    };
    e2e("e2e/pingpong_small_50k", e2e_pingpong_small_50k);
    e2e("e2e/table1_medium_cell", e2e_table1_medium_cell);
    e2e("e2e/scale_alltoall_16n", e2e_scale_alltoall_16n);
    e2e(
        "e2e/scale_alltoall_16n_telemetry",
        e2e_scale_alltoall_16n_telemetry,
    );
    let mut benches: Vec<Json> = raw
        .into_iter()
        .map(|(id, stats, work)| {
            let baseline = resolve_baseline(id, &prior, full_run, stats.mean_ns);
            entry_with_baseline(id, stats, baseline, work)
        })
        .collect();

    // campaign/*: serial first (forced through the `--jobs 1` inline
    // path), then parallel on the configured pool; the serial mean of the
    // same run is the parallel entry's baseline, so speedup_vs_baseline is
    // the live pool speedup on this machine.
    type CampaignFn = fn() -> usize;
    let campaigns: [(&str, CampaignFn); 2] = [
        ("campaign/scale_quick", campaign_scale_quick),
        ("campaign/faults_quick", campaign_faults_quick),
    ];
    // Pinned to the serial engine for the same reason as the e2e family:
    // this pair isolates the *pool* speedup. The thread-local
    // `with_sim_jobs` cannot reach cells dispatched to pool workers, so
    // pin the process-wide knob for the duration and restore it after
    // (the perf run owns the process; nothing else writes it).
    let configured_sim_jobs = pool::configured_sim_jobs();
    pool::set_sim_jobs(1);
    for (id, f) in campaigns {
        let serial_id = format!("{id}_serial");
        let serial = pool::with_jobs(1, || measure(0, ov(nc), f));
        let parallel = measure(0, ov(nc), f);
        let serial_baseline = resolve_baseline(&serial_id, &prior, full_run, serial.mean_ns);
        benches.push(entry_with_baseline(
            &serial_id,
            serial,
            serial_baseline,
            None,
        ));
        benches.push(entry_with_baseline(
            id,
            parallel,
            Some(serial.mean_ns),
            None,
        ));
    }
    pool::set_sim_jobs(configured_sim_jobs);

    // e2e/*_par: two end-to-end cells again, serial engine first (forced
    // through `with_sim_jobs(1)`), then on the conservative parallel DES
    // core at this run's `--sim-jobs` width. The serial mean of the same
    // run is the parallel entry's baseline, so `speedup_vs_baseline` is
    // the live engine speedup on this machine. Both runs produce
    // byte-identical simulation output (asserted in
    // tests/engine_determinism.rs) — only wall time may differ. The
    // alltoall is the drained concurrent-epoch shape; the pingpong is the
    // global-stop-vote shape (a strict dependency chain, so its parallel
    // run is an upper bound on engine overhead, not a speedup candidate).
    // Each parallel run's per-segment engine wall time (cumulative over
    // warmup + timed iterations) lands in the report's `engine_segments`.
    let mut engine_segments: Vec<Json> = Vec::new();
    type E2eFn = fn() -> Work;
    let engine_cells: [(&str, E2eFn); 2] = [
        ("e2e/scale_alltoall_16n", e2e_scale_alltoall_16n),
        ("e2e/pingpong_small_50k", e2e_pingpong_small_50k),
    ];
    for (base, f) in engine_cells {
        let mut work_serial = Work::default();
        let serial = pool::with_sim_jobs(1, || measure(wf, ov(nf), || work_serial = f()));
        let _ = omx_core::take_engine_segments(); // reset before the timed pair half
        let mut work_par = Work::default();
        let parallel = measure(wf, ov(nf), || work_par = f());
        let seg = omx_core::take_engine_segments();
        assert_eq!(
            work_serial, work_par,
            "parallel engine diverged from serial for {base}"
        );
        let serial_id = format!("{base}_par_serial");
        let serial_baseline = resolve_baseline(&serial_id, &prior, full_run, serial.mean_ns);
        benches.push(entry_with_baseline(
            &serial_id,
            serial,
            serial_baseline,
            Some(work_serial),
        ));
        benches.push(entry_with_baseline(
            &format!("{base}_par"),
            parallel,
            Some(serial.mean_ns),
            Some(work_par),
        ));
        engine_segments.push(Json::obj(vec![
            ("id", Json::Str(format!("{base}_par"))),
            ("runs", Json::U64(u64::from(wf + ov(nf)))),
            ("dispatch_ns", Json::U64(seg.dispatch_ns)),
            ("merge_ns", Json::U64(seg.merge_ns)),
            ("barrier_ns", Json::U64(seg.barrier_ns)),
            ("fast_forward_ns", Json::U64(seg.fast_forward_ns)),
        ]));
    }

    Json::obj(vec![
        ("schema", Json::Str("omx-bench-perf/5".into())),
        (
            "mode",
            Json::Str(if smoke { "smoke" } else { "full" }.into()),
        ),
        ("jobs", Json::U64(pool::effective_jobs() as u64)),
        ("sim_jobs", Json::U64(pool::effective_sim_jobs() as u64)),
        (
            "cores",
            Json::U64(std::thread::available_parallelism().map_or(1, |c| c.get()) as u64),
        ),
        ("benches", Json::Arr(benches)),
        ("engine_segments", Json::Arr(engine_segments)),
    ])
}

/// Benches whose mean regressed more than `factor`× past their recorded
/// baseline, as `(id, mean_ns, baseline_mean_ns)`. The CI smoke step fails
/// the job on a non-empty result with `factor = 2.0` — loose enough for
/// shared-runner noise on one-iteration timings, tight enough to catch an
/// accidental O(n) slip on the hot path.
///
/// `e2e/*_par` entries are excluded: their baseline is the *same-run
/// serial-engine* mean, and on a host too narrow for the epoch engine to
/// win (1–2 cores, where barriers are pure overhead) "slower than serial"
/// is the expected outcome, not a regression — those pairs are judged by
/// [`engine_speedup_shortfalls`], whose vacuity conditions encode exactly
/// when a speedup can be demanded.
pub fn regressions(report: &Json, factor: f64) -> Vec<(String, u64, u64)> {
    let Some(benches) = report.get("benches").and_then(|b| b.as_arr()) else {
        return Vec::new();
    };
    benches
        .iter()
        .filter_map(|b| {
            let id = b.get("id")?.as_str()?;
            if id.ends_with("_par") {
                return None;
            }
            let mean = b.get("mean_ns")?.as_u64()?;
            let baseline = b.get("baseline_mean_ns")?.as_u64()?;
            (mean as f64 > baseline as f64 * factor).then(|| (id.to_string(), mean, baseline))
        })
        .collect()
}

/// `e2e/*` entries of `report` whose deterministic work differs from the
/// same entry in `recorded` (the committed `BENCH_sim.json`), one message
/// each. `events` and `frames` (hence `events_per_frame`) are fixed for a
/// fixed configuration, so the gate is exact: a single extra or missing
/// event fails it on any host, where a wall-time gate needs slack. An
/// entry the recorded report lacks, or records without work counts, is a
/// mismatch too — the gate cannot pass vacuously.
pub fn work_mismatches(report: &Json, recorded: Option<&Json>) -> Vec<String> {
    let entries = |r: &Json| -> Vec<(String, Option<u64>, Option<u64>)> {
        r.get("benches")
            .and_then(|b| b.as_arr())
            .map(|benches| {
                benches
                    .iter()
                    .filter_map(|b| {
                        let id = b.get("id")?.as_str()?;
                        id.starts_with("e2e/").then(|| {
                            (
                                id.to_string(),
                                b.get("events").and_then(|v| v.as_u64()),
                                b.get("frames").and_then(|v| v.as_u64()),
                            )
                        })
                    })
                    .collect()
            })
            .unwrap_or_default()
    };
    let recorded = recorded.map(entries).unwrap_or_default();
    entries(report)
        .into_iter()
        .filter_map(|(id, events, frames)| {
            let Some((_, rec_events, rec_frames)) = recorded.iter().find(|(r, _, _)| *r == id)
            else {
                return Some(format!("{id}: no recorded work counts"));
            };
            let show = |v: Option<u64>| v.map_or_else(|| "none".to_string(), |v| v.to_string());
            (events != *rec_events || frames != *rec_frames).then(|| {
                format!(
                    "{id}: events {} / frames {}, recorded events {} / frames {}",
                    show(events),
                    show(frames),
                    show(*rec_events),
                    show(*rec_frames)
                )
            })
        })
        .collect()
}

/// The `campaign/*` serial-vs-parallel pairs of a report, as
/// `(id, parallel_mean_ns, serial_mean_ns, speedup)`. The serial mean is
/// the parallel entry's recorded baseline (measured in the same run).
pub fn campaign_speedups(report: &Json) -> Vec<(String, u64, u64, f64)> {
    let Some(benches) = report.get("benches").and_then(|b| b.as_arr()) else {
        return Vec::new();
    };
    benches
        .iter()
        .filter_map(|b| {
            let id = b.get("id")?.as_str()?;
            if !id.starts_with("campaign/") || id.ends_with("_serial") {
                return None;
            }
            let mean = b.get("mean_ns")?.as_u64()?;
            let serial = b.get("baseline_mean_ns")?.as_u64()?;
            Some((
                id.to_string(),
                mean,
                serial,
                serial as f64 / mean.max(1) as f64,
            ))
        })
        .collect()
}

/// Campaign benches whose parallel speedup fell below `min_speedup`, as
/// `(id, speedup)` — the other half of the CI perf gate. Only meaningful
/// when the pool was actually parallel and the machine has cores to spend,
/// so the check is skipped (empty result) when the run's `jobs` was below
/// 2 or the machine has fewer than `min_cores` cores; single-core smoke
/// runs and explicit `--jobs 1` runs pass vacuously.
pub fn speedup_shortfalls(report: &Json, min_speedup: f64, min_cores: u64) -> Vec<(String, f64)> {
    let jobs = report.get("jobs").and_then(|j| j.as_u64()).unwrap_or(1);
    let cores = report.get("cores").and_then(|c| c.as_u64()).unwrap_or(1);
    if jobs < 2 || cores < min_cores {
        return Vec::new();
    }
    campaign_speedups(report)
        .into_iter()
        .filter(|(_, _, _, s)| *s < min_speedup)
        .map(|(id, _, _, s)| (id, s))
        .collect()
}

/// The `e2e/*_par` engine serial-vs-parallel pairs of a report, as
/// `(id, parallel_mean_ns, serial_mean_ns, speedup)`. The serial mean is
/// the parallel entry's recorded baseline (measured in the same run on the
/// serial engine).
pub fn engine_speedups(report: &Json) -> Vec<(String, u64, u64, f64)> {
    let Some(benches) = report.get("benches").and_then(|b| b.as_arr()) else {
        return Vec::new();
    };
    benches
        .iter()
        .filter_map(|b| {
            let id = b.get("id")?.as_str()?;
            if !id.starts_with("e2e/") || !id.ends_with("_par") {
                return None;
            }
            let mean = b.get("mean_ns")?.as_u64()?;
            let serial = b.get("baseline_mean_ns")?.as_u64()?;
            Some((
                id.to_string(),
                mean,
                serial,
                serial as f64 / mean.max(1) as f64,
            ))
        })
        .collect()
}

/// `e2e/*_par` benches whose parallel-engine speedup fell below
/// `min_speedup`, as `(id, speedup)` — the parallel-DES half of the CI
/// perf gate. A conservative epoch engine can only win when it has both
/// workers and cores, so the check is skipped (empty result) when the
/// run's `sim_jobs` was below `min_sim_jobs` or the machine has fewer
/// than `min_cores` cores; default `--sim-jobs 1` runs and small CI
/// runners pass vacuously.
pub fn engine_speedup_shortfalls(
    report: &Json,
    min_speedup: f64,
    min_sim_jobs: u64,
    min_cores: u64,
) -> Vec<(String, f64)> {
    let sim_jobs = report.get("sim_jobs").and_then(|j| j.as_u64()).unwrap_or(1);
    let cores = report.get("cores").and_then(|c| c.as_u64()).unwrap_or(1);
    if sim_jobs < min_sim_jobs || cores < min_cores {
        return Vec::new();
    }
    engine_speedups(report)
        .into_iter()
        .filter(|(id, _, _, _)| !ENGINE_GATE_EXEMPT.contains(&id.as_str()))
        .filter(|(_, _, _, s)| *s < min_speedup)
        .map(|(id, _, _, s)| (id, s))
        .collect()
}

/// `e2e/*_par` entries exempt from the speedup gate: shapes whose event
/// graph is a strict dependency chain, where at any instant exactly one
/// partition has work. The parallel engine runs them almost entirely in
/// single-active inline windows, so "no slower than serial" is the best
/// possible outcome and the pair exists to track engine overhead (via the
/// `engine_segments` breakdown), not to demand a speedup.
const ENGINE_GATE_EXEMPT: &[&str] = &["e2e/pingpong_small_50k_par"];

/// Write the `e2e/*_par` engine parallel-vs-serial comparison to
/// `results/engine_speedup.json` — the artifact CI uploads, and the source
/// of the engine-speedup table in EXPERIMENTS.md. Each entry folds in its
/// per-segment breakdown from the report's `engine_segments` (when
/// present), so the artifact answers both "how fast" and "where the time
/// went" in one file.
pub fn write_engine_comparison(report: &Json) -> std::io::Result<()> {
    let segments = report.get("engine_segments").and_then(|s| s.as_arr());
    let segment_of = |id: &str| {
        segments?
            .iter()
            .find(|s| s.get("id").and_then(|v| v.as_str()) == Some(id))
            .cloned()
    };
    let entries: Vec<Json> = engine_speedups(report)
        .into_iter()
        .map(|(id, mean, serial, speedup)| {
            let mut fields = vec![
                ("id", Json::Str(id.clone())),
                ("parallel_mean_ns", Json::U64(mean)),
                ("serial_mean_ns", Json::U64(serial)),
                ("speedup", Json::F64(speedup)),
            ];
            if let Some(seg) = segment_of(&id) {
                for key in [
                    "runs",
                    "dispatch_ns",
                    "merge_ns",
                    "barrier_ns",
                    "fast_forward_ns",
                ] {
                    if let Some(v) = seg.get(key) {
                        fields.push((key, v.clone()));
                    }
                }
            }
            Json::obj(fields)
        })
        .collect();
    let out = Json::obj(vec![
        ("schema", Json::Str("omx-engine-speedup/2".into())),
        (
            "sim_jobs",
            report.get("sim_jobs").cloned().unwrap_or(Json::U64(1)),
        ),
        (
            "cores",
            report.get("cores").cloned().unwrap_or(Json::U64(1)),
        ),
        ("entries", Json::Arr(entries)),
    ]);
    std::fs::create_dir_all("results")?;
    std::fs::write("results/engine_speedup.json", out.render_pretty())
}

/// Write the `campaign/*` parallel-vs-serial comparison to
/// `results/campaign_speedup.json` — the artifact CI uploads, and the
/// source of the speedup table in EXPERIMENTS.md.
pub fn write_campaign_comparison(report: &Json) -> std::io::Result<()> {
    let entries: Vec<Json> = campaign_speedups(report)
        .into_iter()
        .map(|(id, mean, serial, speedup)| {
            Json::obj(vec![
                ("id", Json::Str(id)),
                ("parallel_mean_ns", Json::U64(mean)),
                ("serial_mean_ns", Json::U64(serial)),
                ("speedup", Json::F64(speedup)),
            ])
        })
        .collect();
    let out = Json::obj(vec![
        ("schema", Json::Str("omx-campaign-speedup/1".into())),
        ("jobs", report.get("jobs").cloned().unwrap_or(Json::U64(1))),
        (
            "cores",
            report.get("cores").cloned().unwrap_or(Json::U64(1)),
        ),
        ("entries", Json::Arr(entries)),
    ]);
    std::fs::create_dir_all("results")?;
    std::fs::write("results/campaign_speedup.json", out.render_pretty())
}

/// Render `report` to `BENCH_sim.json` in the working directory.
pub fn write_report(report: &Json) -> std::io::Result<()> {
    std::fs::write("BENCH_sim.json", report.render_pretty())
}

/// Print a human-readable summary of a report produced by [`run`].
pub fn print_summary(report: &Json) {
    let Some(benches) = report.get("benches").and_then(|b| b.as_arr()) else {
        return;
    };
    for b in benches {
        let id = b.get("id").and_then(|v| v.as_str()).unwrap_or("?");
        let mean = b.get("mean_ns").and_then(|v| v.as_u64()).unwrap_or(0);
        let min = b.get("min_ns").and_then(|v| v.as_u64()).unwrap_or(0);
        match b.get("speedup_vs_baseline").and_then(|v| v.as_f64()) {
            Some(s) => println!(
                "{id:<40} mean {:>10} ns  min {:>10} ns  {s:.2}x vs baseline",
                mean, min
            ),
            None => println!(
                "{id:<40} mean {:>10} ns  min {:>10} ns  (no baseline)",
                mean, min
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_produces_all_benches_and_baselines() {
        let report = run(true, None);
        assert_eq!(
            report.get("schema").and_then(|s| s.as_str()),
            Some("omx-bench-perf/5")
        );
        assert!(report.get("jobs").and_then(|j| j.as_u64()).unwrap() >= 1);
        assert!(report.get("sim_jobs").and_then(|j| j.as_u64()).unwrap() >= 1);
        assert!(report.get("cores").and_then(|c| c.as_u64()).unwrap() >= 1);
        let benches = report.get("benches").and_then(|b| b.as_arr()).unwrap();
        assert_eq!(benches.len(), 16);
        for b in benches {
            assert!(b.get("mean_ns").and_then(|v| v.as_u64()).unwrap() > 0);
            let id = b.get("id").and_then(|v| v.as_str()).unwrap();
            if id.starts_with("e2e/") {
                // Deterministic sims carry nonzero, reproducible frame and
                // event counts; the rates are derived from them.
                assert!(b.get("frames").and_then(|v| v.as_u64()).unwrap() > 0);
                assert!(b.get("frames_per_sec").and_then(|v| v.as_f64()).unwrap() > 0.0);
                assert!(b.get("events").and_then(|v| v.as_u64()).unwrap() > 0);
                assert!(b.get("events_per_frame").and_then(|v| v.as_f64()).unwrap() > 1.0);
            } else {
                assert!(b.get("frames").is_none());
                assert!(b.get("events").is_none());
            }
        }
        // Every static anchor resolved, and every campaign parallel entry
        // carries its same-run serial mean as baseline — so the
        // parallel-vs-serial comparison is always present.
        let baseline_of = |id: &str| {
            benches
                .iter()
                .find(|b| b.get("id").and_then(|v| v.as_str()) == Some(id))
                .and_then(|b| b.get("baseline_mean_ns"))
                .and_then(|v| v.as_u64())
        };
        for (id, ns) in BASELINE_MEAN_NS {
            assert_eq!(baseline_of(id), Some(*ns), "static anchor for {id}");
        }
        let speedups = campaign_speedups(&report);
        assert_eq!(speedups.len(), 2);
        for (id, mean, serial, speedup) in &speedups {
            assert!(id.starts_with("campaign/"), "got {id}");
            assert!(*mean > 0 && *serial > 0);
            assert!(*speedup > 0.0);
        }
        // Likewise the parallel-engine entries always carry their same-run
        // serial mean, so the engine comparison is always present — the
        // drained alltoall and the stop-voted pingpong.
        let engines = engine_speedups(&report);
        assert_eq!(engines.len(), 2);
        assert_eq!(engines[0].0, "e2e/scale_alltoall_16n_par");
        assert_eq!(engines[1].0, "e2e/pingpong_small_50k_par");
        for (_, mean, serial, _) in &engines {
            assert!(*mean > 0 && *serial > 0);
        }
        // Each parallel entry contributes a per-segment wall-time
        // breakdown; in this smoke run the engine is parallel only when
        // the ambient --sim-jobs exceeds 1, so just check the shape.
        let segments = report
            .get("engine_segments")
            .and_then(|s| s.as_arr())
            .unwrap();
        assert_eq!(segments.len(), 2);
        for seg in segments {
            assert!(seg
                .get("id")
                .and_then(|v| v.as_str())
                .unwrap()
                .ends_with("_par"));
            assert!(seg.get("runs").and_then(|v| v.as_u64()).unwrap() >= 2);
            for key in ["dispatch_ns", "merge_ns", "barrier_ns", "fast_forward_ns"] {
                assert!(seg.get(key).and_then(|v| v.as_u64()).is_some(), "{key}");
            }
        }
    }

    /// Satellite: baseline resolution never leaves a full-run entry null —
    /// static anchor first, then the baseline recorded on disk, then
    /// self-capture; smoke runs never self-capture.
    #[test]
    fn baseline_resolution_order_and_capture() {
        let prior = vec![("x/prior".to_string(), 500u64)];
        // Static anchor wins even over a prior recording.
        assert_eq!(
            resolve_baseline("event_queue/push_pop_10k_fifo", &prior, false, 1),
            Some(1_654_000)
        );
        // Prior recording wins over self-capture.
        assert_eq!(resolve_baseline("x/prior", &prior, true, 123), Some(500));
        // Full run self-captures a brand-new bench (speedup 1.0, never null)…
        assert_eq!(resolve_baseline("x/new", &prior, true, 123), Some(123));
        // …but a smoke run does not anchor a gate on a 1-iteration mean.
        assert_eq!(resolve_baseline("x/new", &prior, false, 123), None);
    }

    /// The speedup gate trips only on parallel runs on big-enough machines.
    #[test]
    fn speedup_gate_respects_jobs_and_cores() {
        let report = |jobs: u64, cores: u64, mean: u64| {
            Json::obj(vec![
                ("jobs", Json::U64(jobs)),
                ("cores", Json::U64(cores)),
                (
                    "benches",
                    Json::Arr(vec![Json::obj(vec![
                        ("id", Json::Str("campaign/scale_quick".into())),
                        ("mean_ns", Json::U64(mean)),
                        ("baseline_mean_ns", Json::U64(1_000)),
                    ])]),
                ),
            ])
        };
        // 4 cores, parallel, 1.25x speedup < 2x → shortfall.
        let short = speedup_shortfalls(&report(4, 4, 800), 2.0, 4);
        assert_eq!(short.len(), 1);
        assert_eq!(short[0].0, "campaign/scale_quick");
        // Fast enough → clean.
        assert!(speedup_shortfalls(&report(4, 4, 400), 2.0, 4).is_empty());
        // Serial run or small machine → vacuously clean.
        assert!(speedup_shortfalls(&report(1, 4, 800), 2.0, 4).is_empty());
        assert!(speedup_shortfalls(&report(4, 2, 800), 2.0, 4).is_empty());
    }

    /// The engine gate trips only with enough simulation workers AND cores.
    #[test]
    fn engine_speedup_gate_respects_sim_jobs_and_cores() {
        let report = |sim_jobs: u64, cores: u64, mean: u64| {
            Json::obj(vec![
                ("sim_jobs", Json::U64(sim_jobs)),
                ("cores", Json::U64(cores)),
                (
                    "benches",
                    Json::Arr(vec![Json::obj(vec![
                        ("id", Json::Str("e2e/scale_alltoall_16n_par".into())),
                        ("mean_ns", Json::U64(mean)),
                        ("baseline_mean_ns", Json::U64(1_000)),
                    ])]),
                ),
            ])
        };
        // 4 workers on 4 cores, 1.25x < 1.5x → shortfall.
        let short = engine_speedup_shortfalls(&report(4, 4, 800), 1.5, 4, 4);
        assert_eq!(short.len(), 1);
        assert_eq!(short[0].0, "e2e/scale_alltoall_16n_par");
        // Fast enough → clean.
        assert!(engine_speedup_shortfalls(&report(4, 4, 500), 1.5, 4, 4).is_empty());
        // Too few workers or too few cores → vacuously clean.
        assert!(engine_speedup_shortfalls(&report(2, 4, 800), 1.5, 4, 4).is_empty());
        assert!(engine_speedup_shortfalls(&report(4, 1, 800), 1.5, 4, 4).is_empty());
        // The serial-side campaign gate ignores e2e entries entirely.
        assert!(speedup_shortfalls(&report(4, 4, 800), 2.0, 4).is_empty());
        // Dependency-chain shapes are never gated on speedup: their pair
        // tracks engine overhead, not parallel wins.
        let exempt = Json::obj(vec![
            ("sim_jobs", Json::U64(4)),
            ("cores", Json::U64(4)),
            (
                "benches",
                Json::Arr(vec![Json::obj(vec![
                    ("id", Json::Str("e2e/pingpong_small_50k_par".into())),
                    ("mean_ns", Json::U64(800)),
                    ("baseline_mean_ns", Json::U64(1_000)),
                ])]),
            ),
        ]);
        assert!(engine_speedup_shortfalls(&exempt, 1.5, 4, 4).is_empty());
    }

    /// The work gate is exact and fails closed: one event off, a frame
    /// off, a missing recorded entry or no recorded report at all each
    /// fail; only an exact match passes. Non-e2e entries are ignored.
    #[test]
    fn work_gate_is_exact() {
        let report = |entries: &[(&str, u64, u64)]| {
            Json::obj(vec![(
                "benches",
                Json::Arr(
                    entries
                        .iter()
                        .map(|&(id, events, frames)| {
                            Json::obj(vec![
                                ("id", Json::Str(id.into())),
                                ("events", Json::U64(events)),
                                ("frames", Json::U64(frames)),
                            ])
                        })
                        .chain(std::iter::once(Json::obj(vec![(
                            "id",
                            Json::Str("event_queue/push_pop_10k_fifo".into()),
                        )])))
                        .collect(),
                ),
            )])
        };
        let recorded = report(&[("e2e/a", 2_000, 100), ("e2e/b", 500, 50)]);
        let same = report(&[("e2e/a", 2_000, 100), ("e2e/b", 500, 50)]);
        assert!(work_mismatches(&same, Some(&recorded)).is_empty());
        let one_event = report(&[("e2e/a", 2_001, 100), ("e2e/b", 500, 50)]);
        let m = work_mismatches(&one_event, Some(&recorded));
        assert_eq!(m.len(), 1);
        assert!(m[0].starts_with("e2e/a:"), "{m:?}");
        let one_frame = report(&[("e2e/a", 2_000, 100), ("e2e/b", 500, 49)]);
        assert_eq!(work_mismatches(&one_frame, Some(&recorded)).len(), 1);
        let new_entry = report(&[("e2e/a", 2_000, 100), ("e2e/c", 1, 1)]);
        assert_eq!(
            work_mismatches(&new_entry, Some(&recorded)),
            vec!["e2e/c: no recorded work counts".to_string()]
        );
        assert_eq!(work_mismatches(&same, None).len(), 2);
    }

    #[test]
    fn regression_gate_flags_only_means_past_the_factor() {
        let report = Json::obj(vec![(
            "benches",
            Json::Arr(vec![
                // 2× exactly is not a regression; past 2× is.
                Json::obj(vec![
                    ("id", Json::Str("a".into())),
                    ("mean_ns", Json::U64(200)),
                    ("baseline_mean_ns", Json::U64(100)),
                ]),
                Json::obj(vec![
                    ("id", Json::Str("b".into())),
                    ("mean_ns", Json::U64(201)),
                    ("baseline_mean_ns", Json::U64(100)),
                ]),
                // No baseline: never gated.
                Json::obj(vec![
                    ("id", Json::Str("c".into())),
                    ("mean_ns", Json::U64(1_000_000)),
                    ("baseline_mean_ns", Json::Null),
                ]),
                // Engine pair: "slower than same-run serial" is expected on
                // narrow hosts and judged by the engine gate, never here.
                Json::obj(vec![
                    ("id", Json::Str("e2e/scale_alltoall_16n_par".into())),
                    ("mean_ns", Json::U64(1_000)),
                    ("baseline_mean_ns", Json::U64(100)),
                ]),
            ]),
        )]);
        let r = regressions(&report, 2.0);
        assert_eq!(r, vec![("b".to_string(), 201, 100)]);
    }
}
