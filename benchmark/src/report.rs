//! Result files: one per run, one per full pass, and the comparison of two.
//!
//! A full pass runs every workload in a process of its own (clean peak
//! RSS, clean telemetry registry in the program under test), `--repeat`
//! times with consecutive seeds, and writes `benchmark/out/result.json`
//! with every value, the median, and the quartile spread the acceptance
//! procedure uses. `--compare` judges two such files metric by metric.

use crate::json::Json;
use crate::run::{Options, Outcome};
use crate::spec::{Better, Metric, END_TO_END, GRAPH_SEED, PER_LAYER, WORKLOADS};
use crate::stats::{median, spread};
use crate::{Args, OUT_DIR};
use std::process::{Command, ExitCode};

/// What `width` in a result file covers. The server takes no width: its
/// lane and delta threads call the engine at the runtime's default.
const WIDTH_SCOPE: &str =
    "calls the benchmark makes itself (index build, kernel, submit, recovery); \
                           the server's own threads run at nproc, so serve_qps, point_rtt_p50_us \
                           and delta_ack_* are taken at nproc whatever --width says";

fn run_file(workload: &str, trace: bool, seed: u64) -> String {
    format!("{OUT_DIR}/run-{workload}-t{}-s{seed}.json", trace as u8)
}

fn first_line(path: &str, prefix: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines().find_map(|l| l.strip_prefix(prefix)).map(|v| v.trim().to_string())
}

fn machine(nproc: usize) -> Vec<(&'static str, Json)> {
    let cpu = first_line("/proc/cpuinfo", "model name")
        .map(|v| v.trim_start_matches([':', ' ', '\t']).to_string());
    let l2 = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index2/size").ok();
    vec![
        ("nproc", Json::Num(nproc as f64)),
        ("cpu_model", cpu.map_or(Json::Null, Json::Str)),
        ("l2_cache", l2.map_or(Json::Null, |s| Json::str(s.trim()))),
    ]
}

/// Everything one run measured, for the full pass to collect.
pub fn write_run_file(opts: &Options, trace: bool, nproc: usize, wall: f64, outcome: &Outcome) {
    let mut doc = vec![
        ("workload", Json::str(opts.workload.name)),
        ("seed", Json::Num(opts.seed as f64)),
        ("graph_seed", Json::Num(GRAPH_SEED as f64)),
        ("seconds", Json::Num(opts.seconds)),
        ("trace", Json::Bool(trace)),
        ("width", Json::Num(opts.width as f64)),
        ("width_scope", Json::str(WIDTH_SCOPE)),
        ("conns", Json::Num(opts.conns as f64)),
    ];
    doc.extend(machine(nproc));
    doc.extend([
        ("wall_s", Json::Num(wall)),
        ("attempted", Json::Num(outcome.ledger.attempted as f64)),
        ("failed", Json::Num(outcome.ledger.failed as f64)),
        (
            "checks",
            Json::Arr(
                outcome
                    .ledger
                    .kinds
                    .iter()
                    .map(|(what, attempted, failed)| {
                        Json::obj([
                            ("what", Json::str(*what)),
                            ("attempted", Json::Num(*attempted as f64)),
                            ("failed", Json::Num(*failed as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "phases",
            Json::Arr(
                outcome
                    .phases
                    .iter()
                    .map(|p| {
                        Json::obj([
                            ("name", Json::str(p.name)),
                            ("seconds", Json::Num(p.seconds)),
                            ("samples", Json::Num(p.samples as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("notes", Json::Arr(outcome.notes.iter().map(Json::str).collect())),
        ("metrics", Json::obj(outcome.metrics.iter().map(|(name, v)| (*name, Json::Num(*v))))),
        ("extras", Json::obj(outcome.extras.iter().map(|(name, v)| (*name, Json::Num(*v))))),
    ]);
    let path = run_file(opts.workload.name, trace, opts.seed);
    if let Err(e) = std::fs::write(&path, Json::obj(doc).pretty()) {
        eprintln!("pscc-benchmark: cannot write {path}: {e}");
    }
}

fn tool_version(program: &str, args: &[&str]) -> Json {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or(Json::Null, |o| Json::str(String::from_utf8_lossy(&o.stdout).trim()))
}

/// The values of one metric over the repeats of one workload.
fn metric_entry(m: &Metric, values: &[f64]) -> Json {
    let mut entry = vec![("unit", Json::str(m.unit)), ("better", Json::str(m.better.as_str()))];
    if let Some(bound) = m.bound {
        entry.push(("bound", Json::Num(bound)));
    }
    entry.push(("values", Json::nums(values)));
    entry.push(("median", Json::Num(median(values))));
    entry.push(("spread", spread(values).map_or(Json::Null, Json::Num)));
    Json::obj(entry)
}

/// Every workload, each run in its own child process; with `--trace 1` a
/// second, separate traced pass follows the untraced one.
pub fn run_all(args: &Args, nproc: usize) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("pscc-benchmark: cannot find my own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let started = std::time::Instant::now();
    let passes: &[bool] = if args.trace { &[false, true] } else { &[false] };
    let mut all_ok = true;
    let mut workloads = Vec::new();
    for w in &WORKLOADS {
        let mut sections = Vec::new();
        let mut runs = Vec::new();
        for &trace in passes {
            let table: &[Metric] = if trace { &PER_LAYER } else { &END_TO_END };
            let mut values: Vec<Vec<f64>> = vec![Vec::new(); table.len()];
            for r in 0..args.repeat as u64 {
                let seed = args.seed + r;
                let mut child = Command::new(&exe);
                child.args(["--workload", w.name, "--seed", &seed.to_string()]);
                child.args(["--trace", if trace { "1" } else { "0" }]);
                for (flag, value) in [
                    ("--seconds", args.seconds.map(|v| v.to_string())),
                    ("--width", args.width.map(|v| v.to_string())),
                    ("--conns", args.conns.map(|v| v.to_string())),
                ] {
                    if let Some(value) = value {
                        child.args([flag, &value]);
                    }
                }
                if args.quick {
                    child.arg("--quick");
                }
                if args.corrupt {
                    child.arg("--corrupt");
                }
                // `status()` lets the child print as it goes and waits for
                // it to end; its numbers come back through the run file
                // (an earlier run's must not stand in for a child that died).
                let path = run_file(w.name, trace, seed);
                let _ = std::fs::remove_file(&path);
                let ok = child.status().is_ok_and(|s| s.success());
                all_ok &= ok;
                let Some(run) =
                    std::fs::read_to_string(&path).ok().and_then(|t| Json::parse(&t).ok())
                else {
                    eprintln!("pscc-benchmark: {} seed {seed} left no readable {path}", w.name);
                    all_ok = false;
                    continue;
                };
                for (m, column) in table.iter().zip(values.iter_mut()) {
                    if let Some(v) =
                        run.get("metrics").and_then(|ms| ms.get(m.name)).and_then(Json::as_f64)
                    {
                        column.push(v);
                    }
                }
                runs.push(run);
            }
            let section: Vec<(&str, Json)> = table
                .iter()
                .zip(&values)
                .filter(|(_, v)| !v.is_empty())
                .map(|(m, v)| (m.name, metric_entry(m, v)))
                .collect();
            sections.push((if trace { "per_layer" } else { "end_to_end" }, Json::obj(section)));
        }
        let attempted: f64 = runs.iter().filter_map(|r| r.get("attempted")?.as_f64()).sum();
        let failed: f64 = runs.iter().filter_map(|r| r.get("failed")?.as_f64()).sum();
        sections.push(("attempted", Json::Num(attempted)));
        sections.push(("failed", Json::Num(failed)));
        sections.push(("failed_share", Json::Num(failed / attempted.max(1.0))));
        sections.push(("runs", Json::Arr(runs)));
        workloads.push((w.name, Json::obj(sections)));
    }

    let mut meta = vec![
        ("seed", Json::Num(args.seed as f64)),
        ("repeat", Json::Num(args.repeat as f64)),
        ("trace", Json::Bool(args.trace)),
        ("quick", Json::Bool(args.quick)),
        ("width", Json::Num(args.width.unwrap_or(nproc) as f64)),
        ("width_scope", Json::str(WIDTH_SCOPE)),
        ("conns", Json::Num(args.conns.unwrap_or(nproc) as f64)),
        ("graph_seed", Json::Num(GRAPH_SEED as f64)),
        ("fsync_policy", Json::str("fsync per WAL append (the store's default)")),
        ("rustc", tool_version("rustc", &["--version"])),
        ("git_commit", tool_version("git", &["rev-parse", "HEAD"])),
        ("wall_s", Json::Num(started.elapsed().as_secs_f64())),
    ];
    meta.extend(machine(nproc));
    let workloads = Json::obj(workloads);
    let derived = derived_checks(&workloads);
    let result = Json::obj([
        ("benchmark", Json::str("pscc-benchmark")),
        ("meta", Json::obj(meta)),
        ("workloads", workloads),
        ("derived", derived),
        ("claim", Json::Null),
    ]);
    print_summary(&result);
    if !args.quick {
        let path = format!("{OUT_DIR}/result.json");
        match std::fs::write(&path, result.pretty()) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("pscc-benchmark: cannot write {path}: {e}");
                all_ok = false;
            }
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("pscc-benchmark: at least one run failed its checks");
        ExitCode::FAILURE
    }
}

fn med(workloads: &Json, workload: &str, section: &str, metric: &str) -> Option<f64> {
    workloads.get(workload)?.get(section)?.get(metric)?.get("median")?.as_f64()
}

/// Relations between metrics that the README states and a reader should
/// be able to re-check from the file: the kernel phases against `scc_s`,
/// the server stage budget against the window round trip, the memo hit
/// ratio per read mix, and the round-bound / work-bound contrast.
fn derived_checks(workloads: &Json) -> Json {
    let mut out = Vec::new();
    for w in &WORKLOADS {
        let get = |section: &str, metric: &str| med(workloads, w.name, section, metric);
        let mut rows = Vec::new();
        let phases: Option<f64> =
            ["trim", "first_scc", "multi_search", "table_resize", "labeling", "other"]
                .iter()
                .map(|p| get("per_layer", &format!("core.phase.{p}_s")))
                .sum();
        if let (Some(sum), Some(traced), Some(scc)) =
            (phases, get("per_layer", "core.scc_s"), get("end_to_end", "scc_s"))
        {
            rows.push(("core_phases_sum_s", Json::Num(sum)));
            rows.push(("core_phases_over_traced_scc_s", Json::Num(sum / traced)));
            rows.push(("core_phases_over_scc_s", Json::Num(sum / scc)));
        }
        let stages: Option<f64> = ["parse", "lane_wait", "engine", "format", "wire"]
            .iter()
            .map(|s| get("per_layer", &format!("server.stage.{s}_us")))
            .sum();
        // The untraced pass measures the window round trip too, though it
        // is no end-to-end metric (see the README): its median over the
        // runs is what the traced budget has to reproduce.
        let untraced_windows: Vec<f64> = workloads
            .get(w.name)
            .and_then(|doc| doc.get("runs"))
            .map_or(&[][..], Json::items)
            .iter()
            .filter_map(|run| run.get("extras")?.get("serve_window_p50_us")?.as_f64())
            .collect();
        if let (Some(sum), false) = (stages, untraced_windows.is_empty()) {
            rows.push(("server_stage_budget_us", Json::Num(sum)));
            rows.push((
                "server_stage_budget_over_untraced_window_p50",
                Json::Num(sum / median(&untraced_windows)),
            ));
        }
        if let (Some(forkjoin), Some(rounds), Some(scc)) = (
            get("per_layer", "runtime.forkjoin_empty_us"),
            get("per_layer", "core.rounds"),
            get("end_to_end", "scc_s"),
        ) {
            rows.push((
                "forkjoin_empty_x_rounds_share_of_scc_s",
                Json::Num(forkjoin * rounds / 1e6 / scc),
            ));
        }
        if let Some(ratio) = get("per_layer", "engine.memo.hit_ratio") {
            rows.push(("memo_hit_ratio", Json::Num(ratio)));
        }
        if !rows.is_empty() {
            out.push((w.name, Json::obj(rows)));
        }
    }
    let per_round = |w: &str| med(workloads, w, "per_layer", "core.per_round_us");
    if let (Some(lattice), Some(social)) = (per_round("scc-lattice"), per_round("scc-social")) {
        out.push(("per_round_us_social_over_lattice", Json::Num(social / lattice)));
    }
    Json::obj(out)
}

fn print_summary(result: &Json) {
    println!("\n== summary (median over repeats; spread = (q3 - q1) / median) ==");
    for (workload, doc) in result.get("workloads").map_or(&[][..], Json::entries) {
        for section in ["end_to_end", "per_layer"] {
            for (name, m) in doc.get(section).map_or(&[][..], Json::entries) {
                let value = m.get("median").and_then(Json::as_f64).unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                let mut line = format!("{workload:<12} {name:<36} {value:>16.6} {unit:<10}");
                if let Some(bound) = m.get("bound").and_then(Json::as_f64) {
                    line += &format!(" bound {bound:.2}");
                    if let Some(spread) = m.get("spread").and_then(Json::as_f64) {
                        let verdict = if spread > bound {
                            "SPREAD EXCEEDS BOUND"
                        } else if spread > bound / 3.0 {
                            "spread above a third of the bound"
                        } else {
                            "steady"
                        };
                        line += &format!(" spread {spread:.4} {verdict}");
                    }
                }
                println!("{line}");
            }
        }
        let failed = doc.get("failed").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let attempted = doc.get("attempted").and_then(Json::as_f64).unwrap_or(f64::NAN);
        println!(
            "{workload:<12} failed_share {:.9} ({failed} failed of {attempted} attempted)",
            failed / attempted.max(1.0)
        );
    }
    for (name, value) in result.get("derived").map_or(&[][..], Json::entries) {
        println!("derived {name}: {}", value.compact());
    }
}

/// Counts that repeat exactly for one seed and graph, so two files of the
/// same code and seed must agree on them to the unit.
fn repeats_exactly(name: &str) -> bool {
    matches!(
        name,
        "core.rounds" | "core.searches" | "core.batches" | "core.trimmed" | "core.novgc_rounds"
    ) || (name.starts_with("engine.delta.") && name.ends_with("_n"))
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("workloads").is_none() {
        return Err(format!("{path}: not a pscc-benchmark result file"));
    }
    Ok(doc)
}

/// How one end-to-end metric of B stands against A.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    Within,
    Better,
    Regressed,
    /// The runs' own spread exceeds the bound: nothing can be said.
    Unresolved,
}

pub fn judge(better: Better, bound: f64, a: f64, b: f64, spread: Option<f64>) -> Verdict {
    let worse = better.worsening(a, b);
    if spread.is_some_and(|s| s > bound) {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

pub fn compare_files(a_path: &str, b_path: &str) -> ExitCode {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("pscc-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let meta = |doc: &Json, key: &str| doc.get("meta").and_then(|m| m.get(key)).cloned();
    let same_inputs = ["seed", "repeat"].iter().all(|k| meta(&a, k) == meta(&b, k));
    println!("A = {a_path}\nB = {b_path}");
    println!("relative difference is signed so that + is worse; same inputs: {same_inputs}");
    let (mut within, mut better, mut regressed, mut unresolved, mut mismatched) = (0, 0, 0, 0, 0);
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let side = |doc: &Json, key: &str| {
                doc.get("workloads")?
                    .get(w.name)?
                    .get("end_to_end")?
                    .get(m.name)?
                    .get(key)?
                    .as_f64()
            };
            let (Some(va), Some(vb)) = (side(&a, "median"), side(&b, "median")) else { continue };
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let spread =
                [side(&a, "spread"), side(&b, "spread")].into_iter().flatten().reduce(f64::max);
            let verdict = judge(m.better, bound, va, vb, spread);
            match verdict {
                Verdict::Within => within += 1,
                Verdict::Better => better += 1,
                Verdict::Regressed => regressed += 1,
                Verdict::Unresolved => unresolved += 1,
            }
            let spread_text = spread
                .map_or("spread unknown (single runs)".to_string(), |s| format!("spread {s:.4}"));
            println!(
                "{:<12} {:<22} A {va:>16.6} B {vb:>16.6} {:<10} diff {:+.4} bound {bound:.2} {spread_text}: {}",
                w.name,
                m.name,
                m.unit,
                m.better.worsening(va, vb),
                match verdict {
                    Verdict::Within => "within bound",
                    Verdict::Better => "better beyond bound",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "unresolved (spread exceeds bound)",
                }
            );
        }
        for m in &PER_LAYER {
            let side = |doc: &Json| {
                doc.get("workloads")?
                    .get(w.name)?
                    .get("per_layer")?
                    .get(m.name)?
                    .get("median")?
                    .as_f64()
            };
            let (Some(va), Some(vb)) = (side(&a), side(&b)) else { continue };
            let mut line =
                format!("{:<12} {:<36} A {va:>16.6} B {vb:>16.6} {:<10}", w.name, m.name, m.unit);
            if va != 0.0 {
                line += &format!(" diff {:+.4}", m.better.worsening(va, vb));
            }
            if same_inputs && repeats_exactly(m.name) {
                if va == vb {
                    line += " (exact count: identical)";
                } else {
                    line += " EXACT COUNT DIFFERS";
                    mismatched += 1;
                }
            }
            println!("{line}");
        }
    }
    println!(
        "end-to-end pairings: {within} within bound, {better} better, {regressed} regressed, \
         {unresolved} unresolved; exact counts differing: {mismatched}"
    );
    if regressed == 0 && mismatched == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Better::{Higher, Lower};

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        assert_eq!(judge(Lower, 0.10, 100.0, 109.0, None), Verdict::Within);
        assert_eq!(judge(Lower, 0.10, 100.0, 111.0, Some(0.02)), Verdict::Regressed);
        assert_eq!(judge(Lower, 0.10, 100.0, 80.0, Some(0.02)), Verdict::Better);
        assert_eq!(judge(Higher, 0.10, 100.0, 80.0, Some(0.02)), Verdict::Regressed);
        assert_eq!(judge(Higher, 0.10, 100.0, 120.0, Some(0.02)), Verdict::Better);
        // A spread wider than the bound says nothing either way.
        assert_eq!(judge(Lower, 0.10, 100.0, 150.0, Some(0.11)), Verdict::Unresolved);
        assert_eq!(judge(Lower, 0.10, 100.0, 100.0, Some(0.11)), Verdict::Unresolved);
    }

    #[test]
    fn exact_counts_are_the_seeded_ones() {
        assert!(repeats_exactly("core.rounds"));
        assert!(repeats_exactly("engine.delta.dag_spliced_n"));
        assert!(!repeats_exactly("engine.delta.dag_spliced_ms"));
        assert!(!repeats_exactly("server.batches_formed"));
    }
}
