//! # pscc-telemetry
//!
//! Zero-dependency observability substrate for the parallel-scc workspace:
//!
//! * **Metrics** ([`metrics`]): lock-free [`Counter`]s, [`Gauge`]s, and
//!   fixed-bucket log-scale latency [`Histogram`]s (p50/p90/p99/max) held
//!   in a global name-keyed registry. A hot-path record is one relaxed
//!   atomic op, cheap enough to stay always-on.
//! * **Tracing** ([`trace`]): per-thread span stacks with start/end
//!   timestamps and `key=value` attributes, collected into a bounded
//!   ring-buffer sink — one instrumented `Catalog::apply_delta` yields a
//!   causal trace `normalize → classify → plan(tier) → execute → swap`
//!   with per-stage durations. [`TraceContext`] propagates parentage into
//!   scoped worker threads and background jobs.
//! * **Exposition** ([`snapshot`]): Prometheus-style text rendering, JSON
//!   rendering, and the diffable [`TelemetrySnapshot`] used by tests and
//!   benches.
//! * **Logging** ([`logging`]): the leveled [`log!`](crate::log) macro,
//!   env-filtered by `PSCC_LOG` (off when unset, so tests stay quiet).
//! * **Flight recorder** ([`recorder`]): a bounded, segment-rotated,
//!   crash-surviving on-disk event journal fed by structured events and
//!   the span sink, read back by `pscc-doctor` for post-mortem timeline
//!   reconstruction. Live telemetry dies with the process; the recorder
//!   is what survives it.
//! * **Framed logs** ([`frame`]): the one codec of the recorder's journal
//!   and the store's write-ahead log, and the [`Checksum64`](frame::Checksum64)
//!   that also seals graph snapshots.
//!
//! Everything is hand-rolled on `std` — the workspace builds with no
//! network access, so no crates.io observability stack is available.
//!
//! ## Switching it off
//!
//! Two mechanisms, different costs:
//!
//! * [`set_enabled`]`(false)` is a runtime kill-switch consulted by the
//!   instrumentation call sites (one relaxed load); spans become inert and
//!   timed sections skip their clock reads.
//! * The `telemetry-off` cargo feature compiles every recording operation
//!   down to an empty inlined function, for checking the overhead claim
//!   against a build with no instrumentation text at all.

pub mod frame;
pub mod logging;
pub mod metrics;
pub mod recorder;
pub mod snapshot;
pub mod time;
pub mod trace;

pub use logging::Level;
pub use metrics::{
    counter, gauge, histogram, Counter, Gauge, GaugeGuard, Histogram, HistogramSnapshot,
    HISTOGRAM_BUCKETS,
};
pub use recorder::FlightEvent;
pub use snapshot::{escape_label_value, render_json, render_text, TelemetrySnapshot};
pub use time::{PhaseTimer, Timer};
pub use trace::{
    current_context, snapshot_spans, span, with_context, SpanGuard, SpanRecord, TraceContext,
};

use std::sync::atomic::{AtomicBool, Ordering};

/// Runtime kill-switch; telemetry starts enabled.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether telemetry is currently recording.
///
/// Instrumentation call sites check this before paying for clock reads or
/// span bookkeeping; always `false` under the `telemetry-off` feature.
#[inline]
pub fn enabled() -> bool {
    !cfg!(feature = "telemetry-off") && ENABLED.load(Ordering::Relaxed)
}

/// Turns the runtime telemetry kill-switch on or off (process-global).
///
/// Disabling stops new recordings; metrics already registered keep their
/// values and can still be snapshotted and rendered.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}
