//! Seeded benchmark of the Open-MX coalescing simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload pingpong|msgrate|collectives --seed N --seconds S --trace 0|1
//! ```
//!
//! The seed draws one pass of cells (see `cells.rs`); the benchmark sets up
//! (input generation, reference lookup, one warm-up cell), then repeats the
//! pass until `--seconds` have elapsed, setting up again after each pass. Every cell is
//! checked: sanitizer verdict, delivered counts, the digest of its modelled
//! statistics against the stored reference (default seeds only), and
//! exact agreement with the run's first pass. The last stdout line is the
//! JSON result; `--trace 1` reports the per-layer metrics instead of the
//! end-to-end ones and writes the recorded spans under `perfbench/out/`.
//!
//! `--record-refs FILE` re-records the reference digests of every workload
//! for the default seeds.

mod cells;
mod check;
mod spans;

use cells::{Cell, Latency, Outcome, Workload};
use omx_sim::json::Json;
use omx_sim::stats::Histogram;
use omx_sim::Pool;
use std::process::ExitCode;
use std::time::{Duration, Instant};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    // The parallel DES is out of scope: every cell runs the serial engine.
    omx_sim::pool::set_sim_jobs(1);
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--record-refs") {
        return match argv.get(1) {
            Some(path) => record_references(path),
            None => {
                eprintln!("--record-refs needs an output file");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    run(&args)
}

/// One timed repetition of the workload's pass.
struct Pass {
    outcomes: Vec<Outcome>,
    wall_ns: u64,
    traced: bool,
    /// Closure time of each pool worker (collectives only).
    worker_busy_ns: Vec<u64>,
}

fn run_pass(cells: &[Cell], pool: Option<&Pool>, traced: bool) -> Pass {
    let start = Instant::now();
    let timed = |(i, cell): (usize, &Cell)| {
        let t = Instant::now();
        let out = cells::run(cell, i as u32, traced);
        (
            out,
            std::thread::current().id(),
            t.elapsed().as_nanos() as u64,
        )
    };
    let results: Vec<_> = match pool {
        Some(pool) => pool.map(cells.iter().enumerate().collect(), timed),
        None => cells.iter().enumerate().map(timed).collect(),
    };
    let wall_ns = start.elapsed().as_nanos() as u64;
    let mut workers: Vec<(std::thread::ThreadId, u64)> = Vec::new();
    let mut outcomes = Vec::with_capacity(results.len());
    for (out, thread, busy) in results {
        match workers.iter_mut().find(|(t, _)| *t == thread) {
            Some(w) => w.1 += busy,
            None => workers.push((thread, busy)),
        }
        outcomes.push(out);
    }
    let mut worker_busy_ns: Vec<u64> = workers.into_iter().map(|(_, b)| b).collect();
    if let Some(pool) = pool {
        worker_busy_ns.resize(pool.threads().max(worker_busy_ns.len()), 0);
    }
    Pass {
        outcomes,
        wall_ns,
        traced,
        worker_busy_ns,
    }
}

/// Drop what only a reported pass needs; the checks use the rest.
fn keep_checks_only(o: &mut Outcome) {
    o.metrics = None;
    o.latency = None;
}

/// Generate the inputs, look up their references and run the warm-up cell.
fn setup(args: &Args) -> (Vec<Cell>, Option<Vec<u64>>, Option<Pool>, Outcome) {
    let cells = cells::generate(args.workload, args.seed);
    let reference = check::reference(check::REFERENCES, args.workload, args.seed);
    let workers = args.workload.pool_workers();
    let pool = (workers > 0).then(|| Pool::new(workers));
    let mut warm = cells::run(&cells::warmup_cell(args.workload), u32::MAX, false);
    keep_checks_only(&mut warm);
    (cells, reference, pool, warm)
}

fn run(args: &Args) -> ExitCode {
    let t = Instant::now();
    let (cells, reference, pool, warm) = setup(args);
    let mut setup_s = vec![t.elapsed().as_secs_f64()];
    let mut warmups = vec![warm];

    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        // A traced run alternates untraced and traced passes, so both see
        // the same host conditions and their difference is the overhead.
        let traced = args.trace && passes.len() % 2 == 1;
        let mut pass = run_pass(&cells, pool.as_ref(), traced);
        check::check_pass(
            &mut pass.outcomes,
            reference.as_deref(),
            passes.first().map(|p| p.outcomes.as_slice()),
        );
        // Only the first untraced and first traced pass are reported in
        // full; later ones, like the warm-ups, keep what the checks compare,
        // so memory stays flat however many passes fit in the run.
        if passes.iter().any(|p| p.traced == pass.traced) {
            pass.outcomes.iter_mut().for_each(keep_checks_only);
        }
        passes.push(pass);
        // Set up again after every pass: host speed drifts over seconds on
        // a shared machine, so `setup_s` samples the whole run, as
        // `frames_per_s` does, rather than its first instant.
        let t = Instant::now();
        let (_, _, extra_pool, warm) = setup(args);
        setup_s.push(t.elapsed().as_secs_f64());
        drop(extra_pool);
        warmups.push(warm);
        let enough = passes.len() >= if args.trace { 2 } else { 1 };
        if enough && Instant::now() >= deadline {
            break;
        }
    }
    drop(pool);

    let all: Vec<&Outcome> = warmups
        .iter()
        .chain(passes.iter().flat_map(|p| &p.outcomes))
        .collect();
    let attempted = all.len();
    let failed: Vec<&&Outcome> = all.iter().filter(|o| !o.violations.is_empty()).collect();
    for o in failed.iter().take(10) {
        eprintln!(
            "perfbench: cell {} failed: {}",
            o.id,
            o.violations.join("; ")
        );
    }

    let metrics = if args.trace {
        let m = per_layer(&passes);
        write_spans(args, &passes);
        m
    } else {
        end_to_end(&passes, &setup_s)
    };
    let header = Json::obj(vec![
        ("workload", Json::Str(args.workload.name().into())),
        ("seed", Json::U64(args.seed)),
        ("seconds", Json::U64(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("host", host_fingerprint()),
        ("cells_per_pass", Json::U64(cells.len() as u64)),
        ("passes", Json::U64(passes.len() as u64)),
        ("reference_checked", Json::Bool(reference.is_some())),
        (
            "cells_failed",
            Json::Str(format!("{}/{attempted}", failed.len())),
        ),
        (
            "pass_wall_s",
            Json::Arr(
                passes
                    .iter()
                    .map(|p| Json::F64(p.wall_ns as f64 / 1e9))
                    .collect(),
            ),
        ),
        (
            "setup_s",
            Json::Arr(setup_s.iter().map(|&s| Json::F64(s)).collect()),
        ),
        ("deterministic", deterministic_counts(&passes[0].outcomes)),
    ]);
    println!("{}", Json::obj(vec![("perfbench", header)]).render());
    let result = Json::obj(vec![
        ("correct", Json::Bool(failed.is_empty())),
        ("attempted", Json::U64(attempted as u64)),
        ("failed", Json::U64(failed.len() as u64)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .into_iter()
                    .map(|(name, value, unit)| {
                        (
                            name.to_string(),
                            Json::obj(vec![
                                ("value", Json::F64(value)),
                                ("unit", Json::Str(unit.into())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", result.render());
    ExitCode::SUCCESS
}

type Metric = (&'static str, f64, &'static str);

fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Quantile of `(value, weight)` samples, by the rank rule of
/// [`Histogram::quantile`].
fn weighted_quantile(samples: &[(f64, u64)], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: u64 = sorted.iter().map(|s| s.1).sum();
    let target = (q * total.saturating_sub(1) as f64) as u64;
    let mut seen = 0;
    for (value, weight) in sorted {
        seen += weight;
        if seen > target {
            return value;
        }
    }
    0.0
}

/// Simulated-latency quantile over one pass, in microseconds.
fn latency_us(outcomes: &[Outcome], q: f64) -> f64 {
    let mut weighted = Vec::new();
    let mut hist = Histogram::new();
    for o in outcomes {
        match &o.latency {
            Some(Latency::Weighted(w)) => weighted.extend_from_slice(w),
            Some(Latency::Hist(h)) => hist.merge(h),
            None => {}
        }
    }
    let ns = if hist.count() > 0 {
        interpolated_quantile(&hist, q)
    } else {
        weighted_quantile(&weighted, q)
    };
    ns / 1e3
}

/// Quantile of a log-bucketed [`Histogram`], interpolated log-linearly
/// within its bucket. `Histogram::quantile` returns the bucket midpoint,
/// whose 7.5 % steps would hide any smaller change.
fn interpolated_quantile(hist: &Histogram, q: f64) -> f64 {
    // Bucket `i` spans [10^(i/32), 10^((i+1)/32)) ns; see omx_sim::stats.
    const PER_DECADE: f64 = 32.0;
    let json = omx_sim::json::ToJson::to_json(hist);
    let zeros = json.get("zeros").and_then(Json::as_u64).unwrap_or(0);
    let target = q * (hist.count() - 1) as f64;
    let mut seen = zeros as f64;
    if target < seen {
        return 0.0;
    }
    let buckets = json.get("buckets").and_then(Json::as_arr).unwrap_or(&[]);
    for b in buckets {
        let pair = b.as_arr().expect("histogram bucket is [index, count]");
        let (idx, count) = (
            pair[0].as_u64().expect("bucket index") as f64,
            pair[1].as_u64().expect("bucket count") as f64,
        );
        if seen + count > target {
            let within = (target - seen + 0.5) / count;
            return 10f64.powf((idx + within) / PER_DECADE);
        }
        seen += count;
    }
    hist.quantile(q).unwrap_or(0) as f64
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn end_to_end(passes: &[Pass], setup_s: &[f64]) -> Vec<Metric> {
    let first = &passes[0].outcomes;
    let sum = |f: fn(&Outcome) -> u64| first.iter().map(f).sum::<u64>() as f64;
    let frames = sum(|o| o.frames);
    let irqs: f64 = first
        .iter()
        .filter_map(|o| o.metrics.as_ref())
        .map(|m| m.total_interrupts() as f64)
        .sum();
    vec![
        ("setup_s", median(setup_s.to_vec()), "s"),
        (
            "frames_per_s",
            median(
                passes
                    .iter()
                    .map(|p| frames / (p.wall_ns as f64 / 1e9))
                    .collect(),
            ),
            "1/s",
        ),
        ("peak_rss_mb", peak_rss_mb(), "MiB"),
        ("irqs_per_msg", irqs / sum(|o| o.delivered), "irq/msg"),
        ("sim_latency_us_p50", latency_us(first, 0.5), "us"),
        ("sim_latency_us_p99", latency_us(first, 0.99), "us"),
        (
            "sim_goodput_gbps",
            sum(|o| o.payload_bytes) * 8.0 / sum(|o| o.sim_ns),
            "Gbit/s",
        ),
    ]
}

/// Per-pass host time of the spans named `layer`/`name`, in ms.
fn span_ms(pass: &Pass, layer: &str, name: &str) -> f64 {
    pass.outcomes
        .iter()
        .flat_map(|o| &o.trace.spans)
        .filter(|s| s.layer == layer && s.name == name)
        .map(|s| s.duration_ns())
        .sum::<u64>() as f64
        / 1e6
}

/// Per-pass self time of every span of `layer`, in ms. Coalescer time is
/// nested inside `omx-core`/`run` and is attributed to `omx-nic` instead.
fn self_ms(pass: &Pass, layer: &str) -> f64 {
    let mut ns = 0.0;
    for o in &pass.outcomes {
        let own = spans::self_times_ns(&o.trace.spans);
        for (s, t) in o.trace.spans.iter().zip(own) {
            if s.layer == layer {
                ns += t as f64;
            }
        }
        if layer == "omx-core" {
            ns -= o.coalescer_busy_ns as f64;
        }
    }
    ns / 1e6
}

fn per_layer(passes: &[Pass]) -> Vec<Metric> {
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let untraced: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let time = |f: &dyn Fn(&Pass) -> f64| median(traced.iter().map(|p| f(p)).collect());
    let first = &traced[0].outcomes;
    let total = |f: &dyn Fn(&Outcome) -> u64| first.iter().map(f).sum::<u64>() as f64;
    let nodes = |f: &dyn Fn(&omx_core::metrics::NodeMetrics) -> u64| {
        total(&|o| {
            o.metrics
                .as_ref()
                .map_or(0, |m| m.nodes.iter().map(f).sum::<u64>())
        })
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let events = total(&|o| o.events);
    let frames = total(&|o| o.frames);
    let irqs = nodes(&|n| n.nic.interrupts.get());
    let packets = nodes(&|n| n.nic.packets.get());
    let eager = nodes(&|n| n.driver.eager_sent.get());
    let retx = nodes(&|n| n.driver.eager_retransmits.get());
    let mut hold = Histogram::new();
    for m in first.iter().filter_map(|o| o.metrics.as_ref()) {
        for n in &m.nodes {
            hold.merge(&n.nic.coalesce_hold_ns);
        }
    }
    let mut elapsed: Vec<f64> = first
        .iter()
        .filter(|o| o.mpi_ops > 0)
        .map(|o| o.mpi_elapsed_ns as f64 / 1e3)
        .collect();
    if elapsed.is_empty() {
        elapsed.push(0.0);
    }
    let workers = |p: &Pass| p.worker_busy_ns.len().max(1) as f64;
    let busy = |p: &Pass| p.worker_busy_ns.iter().sum::<u64>() as f64;
    let pooled = traced[0].worker_busy_ns.len() > 1;
    let pool_metric = |f: &dyn Fn(&Pass) -> f64| if pooled { time(f) } else { 0.0 };
    let run_ns =
        |p: &Pass| (span_ms(p, "omx-core", "run") + span_ms(p, "omx-mpi", "run_drained")) * 1e6;
    let wall_ms = |ps: &[&Pass]| median(ps.iter().map(|p| p.wall_ns as f64 / 1e6).collect());

    vec![
        ("omx-sim.events", events, "count"),
        (
            "omx-sim.events_per_frame",
            ratio(events, frames),
            "events/frame",
        ),
        (
            "omx-sim.events_per_host_s",
            time(&|p| {
                let ev = p.outcomes.iter().map(|o| o.events).sum::<u64>() as f64;
                ratio(ev, run_ns(p) / 1e9)
            }),
            "1/s",
        ),
        ("omx-sim.pool.busy_s", pool_metric(&|p| busy(p) / 1e9), "s"),
        (
            "omx-sim.pool.idle_frac",
            pool_metric(&|p| 1.0 - busy(p) / (workers(p) * p.wall_ns as f64)),
            "fraction",
        ),
        (
            "omx-sim.pool.imbalance",
            pool_metric(&|p| {
                let max = *p.worker_busy_ns.iter().max().unwrap_or(&0) as f64;
                ratio(max, busy(p) / workers(p))
            }),
            "max/mean",
        ),
        ("omx-fabric.frames", frames, "count"),
        (
            "omx-fabric.frames_dropped",
            total(&|o| o.metrics.as_ref().map_or(0, |m| m.frames_dropped)),
            "count",
        ),
        (
            "omx-fabric.switch_drops",
            total(&|o| o.metrics.as_ref().map_or(0, |m| m.switch_drops)),
            "count",
        ),
        (
            "omx-fabric.switch_occupancy_peak",
            first
                .iter()
                .filter_map(|o| o.metrics.as_ref())
                .map(|m| m.switch_occupancy_peak)
                .max()
                .unwrap_or(0) as f64,
            "frames",
        ),
        ("omx-nic.interrupts", irqs, "count"),
        (
            "omx-nic.packets_per_interrupt",
            ratio(packets, irqs),
            "packets/irq",
        ),
        (
            "omx-nic.marked_share",
            ratio(nodes(&|n| n.nic.marked_packets.get()), packets),
            "fraction",
        ),
        (
            "omx-nic.ring_drops",
            nodes(&|n| n.nic.ring_drops.get()),
            "count",
        ),
        (
            "omx-nic.coalesce_hold_us_p50",
            if hold.count() > 0 {
                interpolated_quantile(&hold, 0.5) / 1e3
            } else {
                0.0
            },
            "us",
        ),
        (
            "omx-nic.offload.frames",
            total(&|o| o.offload_frames),
            "count",
        ),
        (
            "omx-nic.offload.retransmits",
            total(&|o| o.offload_retransmits),
            "count",
        ),
        (
            "omx-nic.coalescer.calls",
            total(&|o| o.coalescer_calls),
            "count",
        ),
        (
            "omx-nic.coalescer.busy_ms",
            time(&|p| p.outcomes.iter().map(|o| o.coalescer_busy_ns).sum::<u64>() as f64 / 1e6),
            "ms",
        ),
        ("omx-host.irqs", nodes(&|n| n.host.irqs.get()), "count"),
        (
            "omx-host.wakeups",
            nodes(&|n| n.host.wakeups.get()),
            "count",
        ),
        (
            "omx-host.irq_busy_us",
            nodes(&|n| n.host.irq_busy_ns.get()) / 1e3,
            "us",
        ),
        (
            "omx-host.cache_bounces",
            nodes(&|n| n.host.cache_bounces.get()),
            "count",
        ),
        ("omx-core.eager_sent", eager, "count"),
        ("omx-core.retransmits", retx, "count"),
        ("omx-core.retx_ratio", ratio(retx, eager), "retx/send"),
        (
            "omx-core.pull_rerequests",
            nodes(&|n| n.driver.pull_rerequests.get()),
            "count",
        ),
        (
            "omx-core.acks_sent",
            nodes(&|n| n.driver.acks_sent.get()),
            "count",
        ),
        (
            "omx-core.duplicates",
            nodes(&|n| n.driver.duplicates.get()),
            "count",
        ),
        (
            "omx-core.build_ms",
            time(&|p| span_ms(p, "omx-core", "build")),
            "ms",
        ),
        (
            "omx-core.run_ms",
            time(&|p| span_ms(p, "omx-core", "run")),
            "ms",
        ),
        (
            "omx-core.metrics_ms",
            time(&|p| span_ms(p, "omx-core", "metrics")),
            "ms",
        ),
        (
            "omx-core.sanitize_ms",
            time(&|p| span_ms(p, "omx-core", "sanitize")),
            "ms",
        ),
        ("omx-core.self_ms", time(&|p| self_ms(p, "omx-core")), "ms"),
        (
            "omx-core.events_untraced",
            first.iter().map(|o| o.events_untraced).sum::<i64>() as f64,
            "count",
        ),
        ("omx-mpi.ops", total(&|o| o.mpi_ops), "count"),
        ("omx-mpi.job_elapsed_us_p50", median(elapsed), "us"),
        ("omx-mpi.stolen_us", total(&|o| o.mpi_stolen_ns) / 1e3, "us"),
        (
            "omx-mpi.world_new_ms",
            time(&|p| span_ms(p, "omx-mpi", "world_new")),
            "ms",
        ),
        (
            "omx-mpi.run_drained_ms",
            time(&|p| span_ms(p, "omx-mpi", "run_drained")),
            "ms",
        ),
        ("omx-mpi.self_ms", time(&|p| self_ms(p, "omx-mpi")), "ms"),
        (
            "perfbench.self_ms",
            time(&|p| self_ms(p, "perfbench")),
            "ms",
        ),
        (
            "perfbench.trace_overhead_ms",
            wall_ms(&traced) - wall_ms(&untraced),
            "ms",
        ),
    ]
}

/// Counts that must repeat exactly for a seed, in any process, traced or
/// not; the pass digest folds in every cell's modelled-statistics digest.
fn deterministic_counts(outcomes: &[Outcome]) -> Json {
    let sum = |f: fn(&Outcome) -> u64| Json::U64(outcomes.iter().map(f).sum());
    let digests: Vec<[u8; 8]> = outcomes.iter().map(|o| o.digest.to_le_bytes()).collect();
    let parts: Vec<&[u8]> = digests.iter().map(|d| d.as_slice()).collect();
    Json::obj(vec![
        ("events", sum(|o| o.events)),
        ("frames", sum(|o| o.frames)),
        (
            "interrupts",
            sum(|o| o.metrics.as_ref().map_or(0, |m| m.total_interrupts())),
        ),
        (
            "retransmits",
            sum(|o| {
                o.offload_retransmits + o.metrics.as_ref().map_or(0, |m| m.total_retransmits())
            }),
        ),
        (
            "digest",
            Json::Str(format!("{:016x}", check::digest(&parts))),
        ),
    ])
}

fn host_fingerprint() -> Json {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown", |(_, m)| m.trim());
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj(vec![
        ("cores", Json::U64(cores as u64)),
        ("cpu_model", Json::Str(model.into())),
        ("os", Json::Str(std::env::consts::OS.into())),
        ("arch", Json::Str(std::env::consts::ARCH.into())),
    ])
}

/// Write every traced pass's spans, with the run's identity, to
/// `perfbench/out/spans-<workload>-seed<seed>.json`.
fn write_spans(args: &Args, passes: &[Pass]) {
    let mut all = Vec::new();
    for (pi, pass) in passes.iter().enumerate().filter(|(_, p)| p.traced) {
        for o in &pass.outcomes {
            let base = all.len();
            all.extend(o.trace.spans.iter().cloned().map(|mut s| {
                s.parent = s.parent.map(|p| p + base);
                s.pass = pi as u32;
                s
            }));
        }
    }
    let doc = Json::obj(vec![
        ("workload", Json::Str(args.workload.name().into())),
        ("seed", Json::U64(args.seed)),
        ("host", host_fingerprint()),
        ("spans", spans::spans_json(&all)),
    ]);
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!(
        "spans-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, doc.render()))
    {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

/// Record the reference digests of every workload for the default seeds.
fn record_references(path: &str) -> ExitCode {
    let mut recorded = Vec::new();
    let mut clean = true;
    for workload in Workload::ALL {
        let workers = workload.pool_workers();
        let pool = (workers > 0).then(|| Pool::new(workers));
        for seed in check::REFERENCE_SEEDS {
            let cells = cells::generate(workload, seed);
            let pass = run_pass(&cells, pool.as_ref(), false);
            for o in pass.outcomes.iter().filter(|o| !o.violations.is_empty()) {
                eprintln!(
                    "perfbench: {} seed {seed}: {}",
                    o.id,
                    o.violations.join("; ")
                );
                clean = false;
            }
            recorded.push((
                workload,
                seed,
                pass.outcomes.iter().map(|o| o.digest).collect(),
            ));
        }
    }
    if !clean {
        eprintln!("perfbench: cells failed; references not written");
        return ExitCode::FAILURE;
    }
    match std::fs::write(path, check::render_references(&recorded)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: writing {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference check can fail: flipping one bit of one stored digest
    /// fails exactly that cell, while the true references pass every cell.
    #[test]
    fn perturbed_reference_fails_its_cell() {
        let seed = check::REFERENCE_SEEDS.start;
        let reference = check::reference(check::REFERENCES, Workload::MsgRate, seed)
            .expect("default seed is recorded");
        let cells = cells::generate(Workload::MsgRate, seed);
        let pass = run_pass(&cells, None, false);

        let mut clean = pass.outcomes.clone();
        check::check_pass(&mut clean, Some(&reference), None);
        assert!(clean.iter().all(|o| o.violations.is_empty()));

        let mut perturbed = reference.clone();
        perturbed[3] ^= 1;
        let mut checked = pass.outcomes.clone();
        check::check_pass(&mut checked, Some(&perturbed), None);
        let failed: Vec<usize> = (0..checked.len())
            .filter(|&i| !checked[i].violations.is_empty())
            .collect();
        assert_eq!(failed, vec![3]);
    }

    #[test]
    fn weighted_quantile_follows_the_histogram_rank_rule() {
        let samples = [(10.0, 1), (20.0, 2), (30.0, 1)];
        assert_eq!(weighted_quantile(&samples, 0.0), 10.0);
        assert_eq!(weighted_quantile(&samples, 0.5), 20.0);
        assert_eq!(weighted_quantile(&samples, 1.0), 30.0);
    }

    #[test]
    fn interpolated_quantile_stays_inside_the_bucket() {
        let mut h = Histogram::new();
        for v in [1_000, 1_010, 1_020, 1_030, 50_000] {
            h.record(v);
        }
        let p50 = interpolated_quantile(&h, 0.5);
        let mid = h.quantile(0.5).expect("non-empty") as f64;
        assert!(
            (p50 / mid - 1.0).abs() < 0.075,
            "p50 {p50} vs bucket midpoint {mid}"
        );
        assert!(interpolated_quantile(&h, 1.0) > 40_000.0);
    }
}
