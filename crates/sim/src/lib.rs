//! # omx-sim — deterministic discrete-event simulation engine
//!
//! This crate is the foundation of the Open-MX interrupt-coalescing
//! reproduction. It provides:
//!
//! * [`Time`] — a nanosecond-resolution simulated clock value,
//! * [`EventQueue`] — a slab-backed, index-tracked 4-ary heap hybridised
//!   with a hierarchical timer wheel: stable FIFO ordering among
//!   simultaneous events, true O(log n) cancellation (O(1) for
//!   short-horizon timers, the coalescing re-arm pattern), and no hashing
//!   or per-event allocation on the hot path,
//! * [`Engine`] / [`Model`] — the simulation driver: a model consumes one
//!   event at a time and schedules follow-up events through a [`Scheduler`],
//! * [`Slab`] — the event queue's generation-stamped token idiom made
//!   generic: dense O(1) state storage with use-after-free panics, used by
//!   the protocol layer to avoid per-packet map lookups,
//! * [`hash`] — [`FxHashMap`]/[`FxHashSet`], maps keyed through a small
//!   deterministic word hasher for the per-event lookups of the model
//!   layers (no SipHash, same hash in every process),
//! * [`rng`] — seeded deterministic random-number helpers so that every
//!   experiment is exactly reproducible,
//! * [`stats`] — counters, histograms and online summary statistics used by
//!   the measurement harness,
//! * [`json`] — the self-contained JSON value model used by the result
//!   writers and the trace exporters (no external serialisation crates),
//! * [`pool`] — a dependency-free work-stealing thread pool ([`Pool`])
//!   with ordered fork-join commit, plus the process-wide `--jobs` /
//!   `OMX_JOBS` worker-count policy and the `--sim-jobs` / `OMX_SIM_JOBS`
//!   policy for the parallel engine,
//! * [`par`] — the substrate for the conservative parallel DES engine:
//!   per-partition event queues, lineage stamps, and the deterministic
//!   merge that reconstructs serial dispatch order across partitions.
//!
//! Determinism is a hard requirement for the paper reproduction
//! (identical seeds must produce identical interrupt counts), and it is
//! preserved at every level of parallelism. The [`engine`] event loop
//! itself is single-threaded; the experiment harness runs many
//! *independent* simulations at once on the [`pool`], committing their
//! results in input order (see the `pool` module docs for the determinism
//! contract); and a single simulation can be partitioned across workers
//! by the conservative epoch engine built on [`par`] (`--sim-jobs N`,
//! DESIGN §12), whose merge replays cross-partition effects in exact
//! serial dispatch order — every report is byte-identical to a serial
//! run either way.

#![warn(missing_docs)]

pub mod engine;
pub mod hash;
pub mod json;
pub mod par;
pub mod pool;
pub mod queue;
pub mod rng;
pub mod slab;
pub mod stats;
pub mod time;

pub use engine::{Engine, Model, Scheduler, StopCondition};
pub use hash::{FxHashMap, FxHashSet};
pub use pool::Pool;
pub use queue::{EventQueue, EventToken};
pub use slab::{Slab, SlabToken};
pub use time::{Time, TimeDelta};
