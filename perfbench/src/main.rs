//! `perfbench` — the repo's benchmark: six workloads over the threaded
//! `sns-rt` request path and the virtual-time `sns-sim`/`sns-san` stack,
//! driven through public APIs only. See README.md beside this package
//! for what each workload and metric means.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload rt_submit --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One process measures one workload (so `peak_rss_mb` is that
//! workload's); `--workload all` runs each in a child process. The last
//! line of standard output is the JSON result object; the exit code is
//! non-zero when an output check fails.

mod layers;
mod load;
mod report;
mod reps;
mod rt_pipeline;
mod rt_submit;
mod san_flow;
mod sim_engine;
mod sim_transend;
mod spans;

use std::process::{Command, ExitCode};

use load::Opts;
use report::{Report, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use spans::SpanSink;

const USAGE: &str =
    "usage: perfbench --workload <name>|all [--seed N] [--seconds S] [--trace 0|1] [--quick]
       perfbench --list | --benchmark-json";

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    mode: Mode,
}

#[derive(PartialEq)]
enum Mode {
    Run,
    List,
    BenchmarkJson,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        quick: false,
        mode: Mode::Run,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--workload" => cli.workload = Some(value("--workload")?),
            "--seed" => {
                cli.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                cli.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                cli.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--quick" => cli.quick = true,
            "--list" => cli.mode = Mode::List,
            "--benchmark-json" => cli.mode = Mode::BenchmarkJson,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if cli.mode == Mode::Run {
        match &cli.workload {
            None => return Err("--workload is required".into()),
            Some(w) if w != "all" && !WORKLOADS.iter().any(|(n, _)| n == w) => {
                return Err(format!("unknown workload {w}"));
            }
            Some(_) => {}
        }
    }
    Ok(cli)
}

/// First line of a command's output, or "unknown": the host shape
/// every report carries.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn host_line() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "nproc={nproc} rustc=\"{}\" commit={}",
        first_line("rustc", &["-V"]),
        first_line("git", &["rev-parse", "--short", "HEAD"])
    )
}

fn run_workload(name: &str, o: &Opts, sink: &mut SpanSink) -> Report {
    let mut r = Report::default();
    // The unit-cost probes are CPU-bound, and for a few seconds after a
    // CPU-bound stretch the authoring host delivers wake-ups late (the
    // first clusters after one serve 15 % fewer requests). The rt
    // workloads are all wake-ups, so they run before the probes; the
    // virtual-time ones price their own counts with the unit costs, so
    // they run after.
    let rt = name.starts_with("rt_");
    if o.trace && !rt {
        layers::probe_all(o, &mut r, sink);
    }
    match name {
        "rt_submit" => rt_submit::run(o, sink, &mut r),
        "rt_pipeline" => rt_pipeline::run(o, sink, &mut r),
        "sim_transend" => sim_transend::run(o, sink, &mut r),
        "sim_route" => sim_engine::run_route(o, sink, &mut r),
        "sim_timers" => sim_engine::run_timers(o, sink, &mut r),
        "san_flow_day" => san_flow::run(o, sink, &mut r),
        other => unreachable!("parse() admits only known workloads, got {other}"),
    }
    if o.trace && rt {
        layers::probe_all(o, &mut r, sink);
    }
    if o.trace {
        // A layer this workload never entered cost it nothing.
        for m in PER_LAYER {
            if r.get(m.name).is_none() {
                r.set(m.name, 0.0);
            }
        }
    }
    r
}

/// Runs every workload in its own child process and passes their
/// output through; fails if any child does.
fn run_all(cli: &Cli) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot find own binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = Vec::new();
    for (name, _) in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name])
            .args(["--seed", &cli.seed.to_string()])
            .args(["--seconds", &cli.seconds.to_string()])
            .args(["--trace", if cli.trace { "1" } else { "0" }]);
        if cli.quick {
            cmd.arg("--quick");
        }
        match cmd.status() {
            Ok(s) if s.success() => {}
            Ok(_) | Err(_) => failed.push(*name),
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: failed workloads: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match cli.mode {
        Mode::List => {
            print!("{}", report::list_text());
            return ExitCode::SUCCESS;
        }
        Mode::BenchmarkJson => {
            print!("{}", report::benchmark_json());
            return ExitCode::SUCCESS;
        }
        Mode::Run => {}
    }
    // Numbers from an unoptimised build describe nothing a user runs.
    if cfg!(debug_assertions) && !cli.quick {
        eprintln!("perfbench: refusing to report numbers from a debug build; use --release (or --quick for a smoke run)");
        return ExitCode::from(2);
    }
    let o = Opts {
        seed: cli.seed,
        seconds: if cli.quick {
            cli.seconds / 10.0
        } else {
            cli.seconds
        },
        trace: cli.trace,
        quick: cli.quick,
    };
    let workload = cli.workload.as_deref().expect("parse() requires it");
    if workload == "all" {
        return run_all(&cli);
    }

    let mut sink = SpanSink::new(workload, cli.seed);
    let report = run_workload(workload, &o, &mut sink);
    let table = if o.trace { PER_LAYER } else { END_TO_END };
    println!(
        "perfbench {workload} seed={} seconds={} trace={} quick={} {}",
        cli.seed,
        o.seconds,
        u8::from(o.trace),
        o.quick,
        host_line()
    );
    print!("{}", report.text(table));
    if o.trace {
        match sink.write() {
            Ok(path) => println!("  spans written to {}", path.display()),
            Err(e) => println!("  spans not written: {e}"),
        }
    }
    if o.quick {
        println!("  --quick: smoke run, these are not numbers");
    }
    println!("{}", report.result_line(table));
    if report.correct(table) {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {workload} failed: {} operations failed, failing checks: {:?}",
            report.failed,
            report.failed_checks()
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let cli = parse(&args(
            "--workload sim_route --seed 42 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(cli.workload.as_deref(), Some("sim_route"));
        assert_eq!((cli.seed, cli.seconds, cli.trace), (42, 10.0, true));
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--seed 1")).is_err(), "a run needs a workload");
        assert!(parse(&args("--workload all --trace 2")).is_err());
        assert!(parse(&args("--workload all --seconds 0")).is_err());
        assert!(parse(&args("--list")).is_ok());
    }

    /// Later changes may delete these APIs and cannot edit the
    /// benchmark to repair it, so its sources must never name them.
    /// (The names are split here so this file passes its own grep.)
    #[test]
    fn sources_name_no_api_that_may_be_deleted() {
        let forbidden = [
            concat!("with_async", "_logic"),
            concat!("with_sched", "uler"),
            concat!("SchedulerKind", "::Heap"),
            concat!("Sharded", "Sim"),
            concat!("to_ch", "rome"),
            concat!("Chrome", "Sink"),
            concat!("Quo", "rum"),
            concat!("sns_test", "kit"),
            concat!("sns_be", "nch"),
        ];
        let sources = [
            ("main.rs", include_str!("main.rs")),
            ("layers.rs", include_str!("layers.rs")),
            ("load.rs", include_str!("load.rs")),
            ("report.rs", include_str!("report.rs")),
            ("reps.rs", include_str!("reps.rs")),
            ("rt_pipeline.rs", include_str!("rt_pipeline.rs")),
            ("rt_submit.rs", include_str!("rt_submit.rs")),
            ("san_flow.rs", include_str!("san_flow.rs")),
            ("sim_engine.rs", include_str!("sim_engine.rs")),
            ("sim_transend.rs", include_str!("sim_transend.rs")),
            ("spans.rs", include_str!("spans.rs")),
            ("Cargo.toml", include_str!("../Cargo.toml")),
        ];
        for (file, text) in sources {
            for f in forbidden {
                assert!(!text.contains(f), "{file} names the deletable API {f}");
            }
        }
    }
}
