//! The repo's reference benchmark. See `README.md` beside this package and
//! `BENCHMARK.json` at the repo root.
//!
//! ```text
//! pscc-benchmark --workload W --seed S --seconds T --trace 0|1   one run (what the driver calls)
//! pscc-benchmark --seed S [--trace 1] [--repeat N] [--quick]     every workload, each in its own process
//! pscc-benchmark --compare A.json B.json                         two result files, metric by metric
//! ```

mod inputs;
mod json;
mod layers;
mod report;
mod run;
mod spec;
mod stats;
mod trace;
mod wire;

use json::Json;
use std::path::PathBuf;
use std::process::ExitCode;

/// Directory (inside the checkout) for data dirs, traces and result files.
const OUT_DIR: &str = "benchmark/out";

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    width: Option<usize>,
    conns: Option<usize>,
    repeat: usize,
    quick: bool,
    corrupt: bool,
    compare: Option<(String, String)>,
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("pscc-benchmark: {problem}");
    eprintln!(
        "usage: pscc-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
         [--width N] [--conns N] [--repeat N] [--quick] [--corrupt] | --compare A.json B.json"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { repeat: 1, ..Args::default() };
    let mut it = std::env::args().skip(1);
    fn value<T: std::str::FromStr>(
        flag: &str,
        it: &mut impl Iterator<Item = String>,
    ) -> Result<T, String> {
        let raw = it.next().ok_or(format!("{flag} needs a value"))?;
        raw.parse().map_err(|_| format!("{flag}: cannot read {raw:?}"))
    }
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(&flag, &mut it)?),
            "--seed" => args.seed = value(&flag, &mut it)?,
            "--seconds" => args.seconds = Some(value(&flag, &mut it)?),
            "--trace" => {
                args.trace = match value::<u8>(&flag, &mut it)? {
                    0 => false,
                    1 => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--width" => args.width = Some(value(&flag, &mut it)?),
            "--conns" => args.conns = Some(value(&flag, &mut it)?),
            "--repeat" => args.repeat = value(&flag, &mut it)?,
            "--quick" => args.quick = true,
            "--corrupt" => args.corrupt = true,
            "--compare" => args.compare = Some((value(&flag, &mut it)?, value(&flag, &mut it)?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.seconds.is_some_and(|s| !(s > 0.0 && s <= 600.0)) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    if args.repeat == 0 {
        return Err("--repeat must be at least 1".to_string());
    }
    if args.corrupt && args.trace {
        return Err("--corrupt flips an answer of the end-to-end pass: use --trace 0".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(problem) => return usage(&problem),
    };
    if let Some((a, b)) = &args.compare {
        return report::compare_files(a, b);
    }
    // More threads or connections than cores would measure the scheduler,
    // not the program: the load generator shares these cores.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    for (flag, asked) in [("--width", args.width), ("--conns", args.conns)] {
        if asked.is_some_and(|v| v == 0 || v > nproc) {
            return usage(&format!("{flag} must be between 1 and nproc = {nproc}"));
        }
    }
    if !std::path::Path::new("benchmark/Cargo.toml").exists() {
        return usage("run from the repository root (benchmark/Cargo.toml not found)");
    }
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        return usage(&format!("cannot create {OUT_DIR}: {e}"));
    }
    match &args.workload {
        Some(name) => match spec::workload(name) {
            Some(workload) => run_one(workload, &args, nproc),
            None => {
                let names: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
                usage(&format!("unknown workload {name:?}; known: {names:?}"))
            }
        },
        None => report::run_all(&args, nproc),
    }
}

/// One workload, in this process: the mode the driver calls. Prints every
/// metric by name with its unit, then the one-line JSON result.
fn run_one(workload: &'static spec::Workload, args: &Args, nproc: usize) -> ExitCode {
    let seconds = args.seconds.unwrap_or(if args.quick { 2.0 } else { spec::RUN_SECONDS as f64 });
    let opts = run::Options {
        workload,
        seed: args.seed,
        seconds,
        width: args.width.unwrap_or(nproc),
        conns: args.conns.unwrap_or(nproc),
        repeats: if args.quick { 1 } else { 3 },
        corrupt: args.corrupt,
        out_dir: PathBuf::from(OUT_DIR),
    };
    let started = std::time::Instant::now();
    let steal = run::StealMeter::start();
    let (outcome, table) = if args.trace {
        (layers::per_layer(&opts), &spec::PER_LAYER[..])
    } else {
        (run::end_to_end(&opts), &spec::END_TO_END[..])
    };
    let wall = started.elapsed().as_secs_f64();
    let steal_share = steal.share();

    println!(
        "workload {} seed {} seconds {seconds} trace {} width {} conns {} nproc {nproc}",
        workload.name, opts.seed, args.trace as u8, opts.width, opts.conns
    );
    println!("why   {}", workload.why);
    for phase in &outcome.phases {
        println!("phase {:<18} {:>8.3} s  {:>7} samples", phase.name, phase.seconds, phase.samples);
    }
    for note in &outcome.notes {
        println!("note  {note}");
    }
    println!("note  cpu steal during the run: {:.2} % of busy time", 100.0 * steal_share);
    for (what, attempted, failed) in &outcome.ledger.kinds {
        println!("check {what:<20} attempted {attempted:>9} failed {failed}");
    }
    let mut metrics = Vec::new();
    for m in table {
        let value = outcome
            .metrics
            .iter()
            .find(|(name, _)| *name == m.name)
            .unwrap_or_else(|| panic!("pass did not measure {}", m.name))
            .1;
        println!("{:<36} {:>16.6} {:<10} ({} is better)", m.name, value, m.unit, m.better.as_str());
        metrics
            .push((m.name, Json::obj([("value", Json::Num(value)), ("unit", Json::str(m.unit))])));
    }
    let ledger = &outcome.ledger;
    let failed_share = ledger.failed as f64 / ledger.attempted.max(1) as f64;
    println!(
        "failed_share {failed_share:.9} ({} failed of {} attempted); wall {wall:.1} s",
        ledger.failed, ledger.attempted
    );
    report::write_run_file(&opts, args.trace, nproc, wall, &outcome);
    let result = Json::obj([
        ("correct", Json::Bool(ledger.failed == 0)),
        ("attempted", Json::Num(ledger.attempted.max(1) as f64)),
        ("failed", Json::Num(ledger.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", result.compact());
    if ledger.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
