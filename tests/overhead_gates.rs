//! The two always-on overhead gates: warm-batch throughput with the
//! telemetry kill-switch on vs off, and with the post-mortem flight
//! recorder installed vs not, must each stay within 10% of the other side
//! (off skips exactly the clock reads, spans and histogram records the
//! `telemetry-off` feature compiles out; recording only appends to a
//! bounded in-memory ring). A ratio outside `[0.90, 1.10]` in *either*
//! direction fails: the instrumented side cannot truly be 10% faster, so
//! that means the measurement itself is biased — which is how a
//! fixed-order interleave once reported the recorder 38% faster than no
//! recorder.
//!
//! Both toggles are process-global, so both gates live in one test
//! function, and a drop guard restores them whatever the assertions do.
//!
//! Release-only: CI runs this file in its `cargo test --release` step.

use std::path::PathBuf;
use std::time::Instant;

use parallel_scc::engine::Catalog;
use parallel_scc::graph::generators::rmat::rmat_digraph;
use parallel_scc::graph::V;
use parallel_scc::runtime::SplitMix64;
use parallel_scc::telemetry;

const NAME: &str = "gates";
const QUERIES: usize = 10_000;
/// One A/B sample times a *block* of warm batches, not a single one: a
/// lone warm batch is ~60µs, so any timer interrupt landing inside it
/// swings the sample by double digits; over a ~4ms block the tick load
/// averages out and paired samples become comparable.
const AB_SAMPLE_BATCHES: usize = 64;
const AB_ROUNDS: usize = 15;

/// Best-of-N A/B throughput comparison that is robust to ordering bias
/// and to configuration-switch residue.
///
/// The naive interleave (`round % 2 == 0` picks A, A therefore always
/// runs immediately after B and vice versa) systematically favors
/// whichever side inherits the warmer cache and scheduler state from
/// its fixed predecessor — on a single-CPU runner that skew reached
/// 38% on the recorder gate. Two countermeasures:
///
/// * the first mover alternates each round, so over the full run each
///   side goes first equally often, and
/// * after every `configure` one unscored settling run absorbs the
///   toggle's own side-effects before anything scores (e.g. recorder
///   uninstall fsyncs its journal; on one CPU the kernel writeback
///   residue lands squarely on the *next* ~60µs batch, which is how
///   the toggle made the recorder look faster than no recorder).
///
/// Each configured side scores best-of-3 per round, and the returned
/// ratio is the **median of per-round ratios**: within one round the
/// two sides run microseconds apart under near-identical machine
/// state, so pairing cancels slow drift, and the median discards the
/// rounds a 1-CPU runner's scheduler stormed through — a single bad
/// round cannot move the gate the way it moves a global best-of.
///
/// Returns `(best_a_seconds, best_b_seconds, median_b_over_a)`; the
/// ratio is > 1 when side A ran faster.
fn ab_compare(
    rounds: usize,
    mut configure: impl FnMut(bool),
    mut run: impl FnMut() -> f64,
) -> (f64, f64, f64) {
    for &a in &[true, false] {
        configure(a);
        let _ = run(); // warm both sides before either scores
    }
    let mut best = [f64::INFINITY; 2];
    let mut ratios = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let order = if round % 2 == 0 { [true, false] } else { [false, true] };
        let mut round_best = [f64::INFINITY; 2];
        for &a in &order {
            configure(a);
            let _ = run(); // settle: absorb configure side-effects
            let side = usize::from(!a);
            for _ in 0..3 {
                round_best[side] = round_best[side].min(run());
            }
        }
        best[0] = best[0].min(round_best[0]);
        best[1] = best[1].min(round_best[1]);
        ratios.push(round_best[1] / round_best[0]);
    }
    ratios.sort_by(f64::total_cmp);
    (best[0], best[1], ratios[rounds / 2])
}

/// Puts the process-global toggles back and removes the recorder's
/// scratch directory, also when an assertion unwinds through the test.
struct RestoreGlobals(PathBuf);

impl Drop for RestoreGlobals {
    fn drop(&mut self) {
        telemetry::set_enabled(true);
        telemetry::recorder::uninstall();
        std::fs::remove_dir_all(&self.0).ok();
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "sized for release builds; CI runs it with --release")]
fn telemetry_and_flight_recorder_cost_under_a_tenth_of_warm_batch_throughput() {
    let g = rmat_digraph(16, 400_000, 0xbe7c4);
    let n = g.n() as u64;
    let catalog = Catalog::new();
    catalog.insert(NAME, g);
    let mut rng = SplitMix64::new(0xba7c);
    let queries: Vec<(V, V)> =
        (0..QUERIES).map(|_| (rng.next_below(n) as V, rng.next_below(n) as V)).collect();
    // Builds the index and fills the memo: every sample below is warm.
    let _ = catalog.answer_batch(NAME, &queries).expect("registered");

    let timed_warm_sample = || {
        let t = Instant::now();
        for _ in 0..AB_SAMPLE_BATCHES {
            let _ = catalog.answer_batch(NAME, &queries).expect("registered");
        }
        t.elapsed().as_secs_f64()
    };
    let qps = |seconds: f64| (QUERIES * AB_SAMPLE_BATCHES) as f64 / seconds;

    let mut recorder_dir = std::env::temp_dir();
    recorder_dir.push(format!("pscc_overhead_gates_fdr_{}", std::process::id()));
    std::fs::remove_dir_all(&recorder_dir).ok();
    std::fs::create_dir_all(&recorder_dir).expect("recorder scratch dir");
    let restore = RestoreGlobals(recorder_dir);

    let (on, off, telemetry_ratio) =
        ab_compare(AB_ROUNDS, telemetry::set_enabled, timed_warm_sample);
    telemetry::set_enabled(true);
    println!(
        "telemetry: enabled {:.0} qps, disabled {:.0} qps, ratio {telemetry_ratio:.4}",
        qps(on),
        qps(off)
    );

    // With the recorder installed the span sink also journals into the
    // in-memory ring: the full always-on post-mortem cost on the hot
    // query path (the ring is bounded; no I/O happens until a flush).
    let (on, off, recorder_ratio) = ab_compare(
        AB_ROUNDS,
        |on| {
            if on {
                telemetry::recorder::install(&restore.0).expect("install recorder");
            } else {
                telemetry::recorder::uninstall();
            }
        },
        timed_warm_sample,
    );
    println!(
        "recorder: installed {:.0} qps, uninstalled {:.0} qps, ratio {recorder_ratio:.4}",
        qps(on),
        qps(off)
    );

    for (what, ratio) in [("telemetry", telemetry_ratio), ("recorder", recorder_ratio)] {
        assert!(
            (0.90..=1.10).contains(&ratio),
            "the {what} overhead A/B landed outside [0.90, 1.10]: ratio {ratio:.4}"
        );
    }
}
