//! # pscc-runtime
//!
//! Fork-join runtime and parallel primitives used throughout the
//! parallel-scc workspace. The paper ("Parallel Strong Connectivity Based on
//! Faster Reachability", SIGMOD 2023) assumes the binary fork-join
//! work-stealing model of ParlayLib; this crate provides an equivalent
//! blocked-loop model on std scoped threads with dynamic block claiming
//! (no external dependencies), plus the parallel building blocks the
//! algorithms need:
//!
//! * blocked [`par_for`] / [`par_range`] / [`par_range_with`] (per-worker
//!   state) loops with explicit granularity
//!   (the classic *horizontal* granularity control of §3.1),
//! * [`scan`] (exclusive prefix sums), [`fn@pack`] / [`pack_index`]
//!   (parallel compaction, used by the hash bag's `extract_all`),
//! * [`reduce`]-style combinators,
//! * a deterministic splittable PRNG ([`rng::SplitMix64`]) and the
//!   bit-mixing hash [`rng::hash64`] used for sampling and signatures,
//! * [`permute::random_permutation`] for the BGSS prefix-doubling batches,
//! * atomic helpers ([`atomic::AtomicBits`], [`atomic::atomic_max_u64`]),
//! * [`pool::with_threads`] for the processor-count sweeps of Fig. 7/8,
//! * [`PhaseTimer`] for the Fig. 9 breakdown (re-exported from
//!   `pscc_telemetry`, which owns the workspace's timing primitives),
//! * [`background::Background`], a named single-threaded worker for
//!   deferred maintenance (the engine's store compaction runs on one).
//!
//! The parallel primitives are telemetry-aware: `par_range` workers and
//! `Background` jobs propagate the submitting thread's
//! [`pscc_telemetry::TraceContext`], and expose a live-worker gauge and a
//! job-latency histogram through the global metric registry.

pub mod atomic;
pub mod background;
pub mod pack;
pub mod parfor;
pub mod permute;
pub mod pool;
pub mod reduce;
pub mod rng;
pub mod scan;
pub mod sort;

pub use atomic::{atomic_max_u32, atomic_max_u64, atomic_min_u32, AtomicBits};
pub use background::Background;
pub use pack::{pack, pack_index, pack_map, tabulate};
pub use parfor::{par_for, par_for_grain, par_range, par_range_with, DEFAULT_GRAIN};
pub use permute::{random_permutation, random_permutation_of};
pub use pool::{num_workers, with_threads};
pub use pscc_telemetry::{PhaseTimer, Timer};
pub use reduce::{par_count, par_max, par_reduce, par_sum_u64};
pub use rng::{hash64, SplitMix64};
pub use scan::scan_exclusive;
pub use sort::{par_sort_unstable, par_sort_unstable_by_key};
