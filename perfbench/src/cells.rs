//! Workload cells: generation from a seed, and execution through the
//! workspace crates' public APIs.
//!
//! A *cell* is one independent simulation (one cluster, one report). A
//! *pass* is the fixed list of cells a seed draws for a workload; the
//! benchmark repeats the pass until its time is up, so every pass does
//! exactly the same work.

use crate::spans::{CellTrace, CoalescerStats, TimedCoalescer};
use omx_core::prelude::*;
use omx_core::sanitizer::SanitizerReport;
use omx_core::workloads::pingpong::PingActor;
use omx_fabric::DisturbanceConfig;
use omx_mpi::{CollectiveExec, MpiWorld, Op, WorldSpec};
use omx_sim::json::ToJson;
use omx_sim::rng::SimRng;
use omx_sim::stats::Histogram;
use omx_sim::StopCondition;
use std::sync::Arc;

/// The four strategies of the paper's tables, in column order.
const STRATEGIES: [(&str, CoalescingStrategy); 4] = [
    ("default", CoalescingStrategy::Timeout { delay_us: 75 }),
    ("disabled", CoalescingStrategy::Disabled),
    ("open-mx", CoalescingStrategy::OpenMx { delay_us: 75 }),
    ("stream", CoalescingStrategy::Stream { delay_us: 75 }),
];

/// Ping-pong size classes across the Fig. 5/6 axis (1 B–1 MiB), each with
/// the round trips its cells run. The seed picks a small size from the
/// axis points and draws the larger sizes from narrow ranges just below
/// their axis point (4 KiB, 32 KiB, 1 MiB), so every pass keeps the same
/// protocol mix: one-frame eager, fragmented eager at both ends of the
/// medium range, and rendezvous. Small messages run 10k iterations so the
/// growth of events per frame with run length shows.
enum SizeClass {
    Points(&'static [u32]),
    Range(u32, u32),
}

impl SizeClass {
    fn draw(&self, rng: &mut SimRng) -> u32 {
        match *self {
            SizeClass::Points(points) => points[rng.range_u64(0, points.len() as u64) as usize],
            SizeClass::Range(lo, hi) => rng.range_u64(u64::from(lo), u64::from(hi) + 1) as u32,
        }
    }
}

const PINGPONG_CLASSES: [(SizeClass, u32); 4] = [
    (SizeClass::Points(&[1, 4, 16, 64, 128]), 10_000),
    (SizeClass::Range(3_584, 4_096), 2_000),
    (SizeClass::Range(30 << 10, 32 << 10), 500),
    (SizeClass::Range(960 << 10, 1 << 20), 20),
];

/// Table I stream sizes (0 B, 32 KiB, 1 MiB), each with the messages its
/// cells send. The seed draws the size as for ping-pong: a header-sized
/// message from a few small points, the others just below their axis
/// point. A steady stream is exactly periodic, so without this draw every
/// seed would report the same simulated completion interval.
const MSGRATE_CLASSES: [(SizeClass, u32); 3] = [
    (SizeClass::Points(&[0, 1, 4, 16, 64]), 6_000),
    (SizeClass::Range(30 << 10, 32 << 10), 800),
    (SizeClass::Range(960 << 10, 1 << 20), 40),
];

/// Table I window.
const MSGRATE_WINDOW: u32 = 32;

/// Collective world: 16 nodes, 2 ranks each.
const MPI_WORLD: WorldSpec = WorldSpec {
    ranks: 32,
    ranks_per_node: 2,
};

/// Frame-loss probabilities the collectives cells cover.
const MPI_LOSS: [f64; 3] = [0.0, 0.001, 0.01];

/// Bounded switch egress buffers (frames), as in the scale campaign.
const MPI_SWITCH_BUFFER_FRAMES: u32 = 32;

/// Cells per (loss, execution mode) pair; each draws its own loss pattern.
const MPI_CELLS_PER_LOSS: usize = 4;

/// Times each cell runs the four-collective block.
const MPI_REPS: usize = 2;

/// Ring capacity of the packet tracer in traced cells. Only its record
/// count is used, so a small ring keeps memory flat.
const TRACE_RING: usize = 1_024;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PingPong,
    MsgRate,
    Collectives,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::PingPong, Workload::MsgRate, Workload::Collectives];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PingPong => "pingpong",
            Workload::MsgRate => "msgrate",
            Workload::Collectives => "collectives",
        }
    }

    /// Campaign-pool workers: the collectives cells fan out over two
    /// workers; the two 2-node workloads run their cells inline.
    pub fn pool_workers(self) -> usize {
        match self {
            Workload::Collectives => 2,
            _ => 0,
        }
    }
}

#[derive(Debug, Clone)]
pub enum Spec {
    PingPong {
        strategy: usize,
        msg_len: u32,
        iterations: u32,
    },
    Stream {
        strategy: usize,
        msg_len: u32,
        messages: u32,
    },
    Mpi {
        loss: f64,
        offload: bool,
        cluster_seed: u64,
    },
}

#[derive(Debug, Clone)]
pub struct Cell {
    pub id: String,
    pub spec: Spec,
}

/// Draw a workload's pass from `seed`. Every pass covers each class of
/// the workload exactly once, so the seed changes the details (message
/// sizes, loss patterns) but not the mix.
pub fn generate(workload: Workload, seed: u64) -> Vec<Cell> {
    let mut rng = SimRng::new(seed).fork(workload as u64 + 1);
    let mut cells = Vec::new();
    match workload {
        Workload::PingPong => {
            for (strategy, (label, _)) in STRATEGIES.iter().enumerate() {
                for (class, iterations) in &PINGPONG_CLASSES {
                    let msg_len = class.draw(&mut rng);
                    let iterations = *iterations;
                    cells.push(Cell {
                        id: format!("pingpong/{label}/{msg_len}B"),
                        spec: Spec::PingPong {
                            strategy,
                            msg_len,
                            iterations,
                        },
                    });
                }
            }
        }
        Workload::MsgRate => {
            for (class, messages) in &MSGRATE_CLASSES {
                for (strategy, (label, _)) in STRATEGIES.iter().enumerate() {
                    let msg_len = class.draw(&mut rng);
                    let messages = *messages;
                    cells.push(Cell {
                        id: format!("msgrate/{label}/{msg_len}B"),
                        spec: Spec::Stream {
                            strategy,
                            msg_len,
                            messages,
                        },
                    });
                }
            }
        }
        Workload::Collectives => {
            for loss in MPI_LOSS.iter().flat_map(|&l| [l; MPI_CELLS_PER_LOSS]) {
                for offload in [false, true] {
                    let cluster_seed = rng.next_u64();
                    let exec = if offload { "offload" } else { "host" };
                    cells.push(Cell {
                        id: format!("collectives/{exec}/loss{loss}/seed{cluster_seed:x}"),
                        spec: Spec::Mpi {
                            loss,
                            offload,
                            cluster_seed,
                        },
                    });
                }
            }
        }
    }
    cells
}

/// A fixed cell run untimed during set-up, so lazy initialisation and
/// caches are warm before the first timed cell.
pub fn warmup_cell(workload: Workload) -> Cell {
    let spec = match workload {
        Workload::PingPong => Spec::PingPong {
            strategy: 2,
            msg_len: 128,
            iterations: 2_000,
        },
        Workload::MsgRate => Spec::Stream {
            strategy: 0,
            msg_len: 0,
            messages: 2_000,
        },
        Workload::Collectives => Spec::Mpi {
            loss: 0.0,
            offload: false,
            cluster_seed: 1,
        },
    };
    Cell {
        id: format!("{}/warmup", workload.name()),
        spec,
    }
}

/// Simulated latency samples of one cell.
#[derive(Debug, Clone)]
pub enum Latency {
    /// `(latency_ns, messages)` pairs: each message of a 2-node cell counts
    /// at its cell's mean (half round trip, or stream completion interval),
    /// the finest grain the workload actors keep.
    Weighted(Vec<(f64, u64)>),
    /// Per-rank, per-op completion latencies of an MPI cell.
    Hist(Histogram),
}

/// Everything one cell produced that the benchmark checks or reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub id: String,
    /// Digest of the modelled statistics (event counts excluded).
    pub digest: u64,
    /// Engine events (0 for MPI cells: `MpiWorld` does not expose them).
    pub events: u64,
    /// Events minus packet-trace records (traced 2-node cells): what the
    /// driver and actor timers add. Negative when the traced kinds record
    /// more than once per event, as a streaming receiver's batches do.
    pub events_untraced: i64,
    pub frames: u64,
    /// Messages (2-node cells) or per-rank op completions (MPI cells).
    pub delivered: u64,
    pub expected: u64,
    pub payload_bytes: u64,
    /// Simulated time the cell's payload took, nanoseconds.
    pub sim_ns: u64,
    pub latency: Option<Latency>,
    pub metrics: Option<ClusterMetrics>,
    pub offload_frames: u64,
    pub offload_retransmits: u64,
    pub mpi_ops: u64,
    pub mpi_elapsed_ns: u64,
    pub mpi_stolen_ns: u64,
    pub violations: Vec<String>,
    pub trace: CellTrace,
    pub coalescer_calls: u64,
    pub coalescer_busy_ns: u64,
}

/// Run one cell. A panic inside the simulator (a failed completion or
/// sanitizer assertion) is caught and reported as a violation.
pub fn run(cell: &Cell, cell_index: u32, traced: bool) -> Outcome {
    let mut trace = CellTrace::new(cell_index, traced);
    let root = trace.open("perfbench", "cell");
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut out = Outcome {
            id: cell.id.clone(),
            ..Outcome::default()
        };
        match &cell.spec {
            Spec::PingPong { .. } | Spec::Stream { .. } => {
                run_two_node(cell, traced, &mut trace, &mut out)
            }
            Spec::Mpi { .. } => run_mpi(cell, &mut trace, &mut out),
        }
        out
    }));
    let mut out = result.unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".into());
        Outcome {
            id: cell.id.clone(),
            violations: vec![format!("panicked: {msg}")],
            ..Outcome::default()
        }
    });
    if out.delivered != out.expected {
        out.violations.push(format!(
            "delivered {} of {} expected messages/ops",
            out.delivered, out.expected
        ));
    }
    trace.close(root);
    out.trace = trace;
    out
}

fn run_two_node(cell: &Cell, traced: bool, trace: &mut CellTrace, out: &mut Outcome) {
    let (strategy, msg_len) = match cell.spec {
        Spec::PingPong {
            strategy, msg_len, ..
        }
        | Spec::Stream {
            strategy, msg_len, ..
        } => (STRATEGIES[strategy].1, msg_len),
        Spec::Mpi { .. } => unreachable!("two-node runner got an MPI cell"),
    };
    let span = trace.open("omx-core", "build");
    let mut cluster = ClusterBuilder::new().nodes(2).strategy(strategy).build();
    trace.close(span);
    let stats = Arc::new(CoalescerStats::default());
    if traced {
        for node in 0..2 {
            cluster.set_node_strategy(
                node,
                Box::new(TimedCoalescer::new(strategy.build(), Arc::clone(&stats))),
            );
        }
        cluster.enable_tracing(TRACE_RING);
    }
    let span = trace.open("omx-core", "run");
    let mut detail = String::new();
    match cell.spec {
        Spec::PingPong { iterations, .. } => {
            let warmup = iterations / 20;
            let r = cluster.run_pingpong(PingPongSpec {
                msg_len,
                iterations,
                warmup,
            });
            out.sim_ns = cluster.now().as_nanos();
            let round_trips = u64::from(iterations + warmup);
            out.expected = 2 * round_trips;
            out.payload_bytes = 2 * round_trips * u64::from(msg_len);
            // The report rounds the mean to whole nanoseconds; the ping
            // actor's statistics keep every digit.
            let mean_ns = cluster
                .actor::<PingActor>(0, 0)
                .expect("run_pingpong installs the ping actor")
                .stats()
                .mean();
            out.latency = Some(Latency::Weighted(vec![(
                mean_ns,
                2 * u64::from(iterations),
            )]));
            detail = format!(
                "{} {} {} {}",
                r.half_rtt_ns, r.min_half_rtt_ns, r.max_half_rtt_ns, r.interrupts
            );
        }
        Spec::Stream { messages, .. } => {
            let r = cluster.run_stream(StreamSpec {
                msg_len,
                messages,
                window: MSGRATE_WINDOW,
            });
            out.sim_ns = r.span_ns;
            out.expected = u64::from(messages);
            out.payload_bytes = u64::from(messages) * u64::from(msg_len);
            // The receiver's completion interval: the time one message of
            // the windowed stream costs.
            let gap = r.span_ns as f64 / f64::from(messages.saturating_sub(1).max(1));
            out.latency = Some(Latency::Weighted(vec![(gap, u64::from(messages))]));
            detail = format!(
                "{} {} {} {}",
                r.span_ns, r.rx_interrupts, r.rx_wakeups, r.rx_cache_bounces
            );
        }
        Spec::Mpi { .. } => {}
    }
    // Both workloads stop the instant the last message lands; drain the
    // trailing acks and timers so the sanitizer sees a quiescent cluster.
    let stop = drain(&mut cluster);
    trace.close(span);
    if stop != StopCondition::QueueEmpty {
        out.violations
            .push(format!("cluster did not quiesce: {stop:?}"));
    }
    let span = trace.open("omx-core", "metrics");
    let metrics = cluster.metrics();
    trace.close(span);
    let span = trace.open("omx-core", "sanitize");
    let sanitizer = cluster.sanitize();
    trace.close(span);
    out.events = cluster.events_processed();
    if let Some(tracer) = cluster.tracer() {
        out.events_untraced = out.events as i64 - (tracer.len() as u64 + tracer.evicted()) as i64;
    }
    out.coalescer_calls = stats.calls();
    out.coalescer_busy_ns = stats.busy_ns();
    finish(out, metrics, &sanitizer, &detail);
}

/// Step a stopped cluster until its queue is empty. `Cluster::run` honours
/// the actor's stop request after every event, so each call advances one
/// event until nothing is left.
fn drain(cluster: &mut Cluster) -> StopCondition {
    let horizon = cluster.now() + omx_sim::TimeDelta::from_secs(60);
    loop {
        match cluster.run(horizon) {
            StopCondition::PredicateSatisfied => continue,
            stop => return stop,
        }
    }
}

fn run_mpi(cell: &Cell, trace: &mut CellTrace, out: &mut Outcome) {
    let Spec::Mpi {
        loss,
        offload,
        cluster_seed,
    } = cell.spec
    else {
        unreachable!("MPI runner got a two-node cell");
    };
    let mut cfg = ClusterConfig::default();
    cfg.fabric.switch_buffer_frames = MPI_SWITCH_BUFFER_FRAMES;
    cfg.fabric.disturbance = DisturbanceConfig {
        loss_probability: loss,
        ..DisturbanceConfig::none()
    };
    cfg.seed = cluster_seed;
    let exec = if offload {
        CollectiveExec::NicOffload
    } else {
        CollectiveExec::Host
    };
    let block = [
        Op::Alltoall { bytes: 16 << 10 },
        Op::Allreduce { bytes: 8 },
        Op::Barrier,
        Op::Bcast {
            root: 0,
            bytes: 256,
        },
    ];
    let program: Vec<Op> = (0..MPI_REPS).flat_map(|_| block.iter().cloned()).collect();
    let ranks = MPI_WORLD.ranks;
    out.expected = (ranks * program.len()) as u64;
    out.payload_bytes = program.iter().map(|op| op.bytes_sent(ranks)).sum::<u64>() * ranks as u64;

    let span = trace.open("omx-mpi", "world_new");
    let world = MpiWorld::new(MPI_WORLD, cfg).with_collective_exec(exec);
    trace.close(span);
    let span = trace.open("omx-mpi", "run_drained");
    let (report, sanitizer) = world.run_drained(|_| program.clone());
    trace.close(span);

    out.delivered = report.op_latency.count();
    out.sim_ns = report.elapsed_ns;
    out.mpi_ops = report.op_latency.count();
    out.mpi_elapsed_ns = report.elapsed_ns;
    out.mpi_stolen_ns = report.stolen_ns;
    for c in &report.offload {
        out.offload_frames += c.data_tx + c.acks_tx + c.retransmits;
        out.offload_retransmits += c.retransmits;
    }
    let detail = format!(
        "{} {:?} {} {} {} {}",
        report.elapsed_ns,
        report.per_rank_finish_ns,
        report.compute_wall_ns,
        report.stolen_ns,
        report.op_latency.to_json().render(),
        report.offload.to_json().render()
    );
    out.latency = Some(Latency::Hist(report.op_latency));
    finish(out, report.metrics, &sanitizer, &detail);
}

/// Shared tail: fold the sanitizer verdict and the digest into `out`.
fn finish(out: &mut Outcome, metrics: ClusterMetrics, sanitizer: &SanitizerReport, detail: &str) {
    if out.delivered == 0 {
        out.delivered = sanitizer.msgs_delivered;
    }
    out.violations.extend(sanitizer.all_violations());
    out.frames = metrics.frames_carried;
    out.digest = crate::check::digest(&[
        out.id.as_bytes(),
        metrics.to_json().render().as_bytes(),
        detail.as_bytes(),
        format!(
            "{} {} {} {} {}",
            sanitizer.msgs_posted,
            sanitizer.msgs_delivered,
            sanitizer.msgs_send_completed,
            sanitizer.bytes_posted,
            sanitizer.bytes_delivered
        )
        .as_bytes(),
    ]);
    out.metrics = Some(metrics);
}
