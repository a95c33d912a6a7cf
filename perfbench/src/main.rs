//! `futrace-perfbench`: runs one workload through every analysis path —
//! on-the-fly serial detection, offline replay (serial, sharded,
//! supervised), online detection on the pool, and a durable daemon
//! session over loopback — checks every verdict, and prints the
//! end-to-end metrics, or with `--trace 1` the per-layer metrics of a
//! traced run. The last line of standard output is one JSON object.
//!
//! Usage: `futrace-perfbench --workload futures|loops|racy [--seed N]
//! [--seconds S] [--trace 0|1]`. See `README.md`.

mod bench;
mod clock;
mod paths;
mod programs;
mod traced;

use bench::{Config, Report};
use futrace::benchsuite::registry::Scale;
use programs::{Workload, DEFAULT_SEED};
use std::path::PathBuf;

const USAGE: &str = "usage: futrace-perfbench --workload futures|loops|racy \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Parses the command line; every flag is checked before any work runs.
fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut cfg = Config {
        workload: Workload::Futures,
        seed: DEFAULT_SEED,
        seconds: 30.0,
        traced: false,
        scale: Scale::Perf,
        reps: None,
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(bad)?);
            }
            "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|_| bad())?;
                if !(cfg.seconds >= 0.0 && cfg.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                cfg.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    Ok(cfg)
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// with its unit.
fn render_json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("futrace-perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let report = match bench::run(&cfg) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("futrace-perfbench: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "# workload={} seed={} traced={} repetitions={} attempted={} failed={}",
        cfg.workload.name(),
        cfg.seed,
        cfg.traced,
        report.repetitions,
        report.attempted,
        report.failed
    );
    for m in &report.metrics {
        println!("{:<38} {:>18.6} {}", m.name, m.value, m.unit);
    }
    for note in &report.notes {
        println!("# {note}");
    }
    println!("{}", render_json(&report));
}

#[cfg(test)]
mod tests {
    use super::*;
    use futrace::benchsuite::registry;
    use futrace::runtime::{run_serial, EventLog};

    /// The self-test: one repetition of every workload at `Scale::Tiny`,
    /// untraced and traced, on the default seed and on another. Every
    /// metric is printed with its unit (and declared in `BENCHMARK.json`),
    /// no operation fails (so every planted program is reported racy on
    /// every path), and the traced run's spans nest (`bench::run` checks
    /// that before it reports).
    #[test]
    fn every_workload_passes_at_tiny_scale() {
        let manifest =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        for seed in [DEFAULT_SEED, 1] {
            for workload in Workload::ALL {
                for traced in [false, true] {
                    let cfg = Config {
                        workload,
                        seed,
                        seconds: 0.0,
                        traced,
                        scale: Scale::Tiny,
                        reps: Some(1),
                        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
                    };
                    let what = format!("{} seed={seed} traced={traced}", workload.name());
                    let report = bench::run(&cfg).unwrap_or_else(|e| panic!("{what}: {e}"));
                    assert_eq!(report.failed, 0, "{what}: failed operations");
                    assert!(report.attempted > 0, "{what}: nothing attempted");
                    let want: &[(&str, &str)] = if traced {
                        &traced::PER_LAYER
                    } else {
                        &bench::END_TO_END
                    };
                    assert_eq!(report.metrics.len(), want.len(), "{what}");
                    let json = render_json(&report);
                    for (m, (name, unit)) in report.metrics.iter().zip(want) {
                        assert_eq!((m.name, m.unit), (*name, *unit), "{what}");
                        assert!(m.value.is_finite(), "{what}: {name} is {}", m.value);
                        let printed = format!(
                            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                            m.value
                        );
                        assert!(json.contains(&printed), "{what}: {name} not printed");
                        let declared = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                        assert!(manifest.contains(&declared), "{name} not in BENCHMARK.json");
                    }
                }
            }
        }
        let racy = Workload::Racy.programs(Scale::Tiny, DEFAULT_SEED);
        assert_eq!(racy.iter().filter(|p| p.expect_races()).count(), 8);
    }

    /// The default seed runs the registry's own parameters, so numbers
    /// line up with `BENCH_dtrg.json`; another seed changes every kernel's
    /// inputs.
    #[test]
    fn default_seed_reproduces_the_registry() {
        for workload in Workload::ALL {
            let reseeded = workload.programs(Scale::Tiny, 1);
            for (prog, other) in workload
                .programs(Scale::Tiny, DEFAULT_SEED)
                .iter()
                .zip(reseeded)
            {
                let mut log = EventLog::new();
                run_serial(&mut log, |ctx| prog.run(ctx));
                let want = registry::find(prog.name)
                    .expect("registry kernel")
                    .record(Scale::Tiny, prog.planted);
                assert_eq!(log.events, want.events, "{}", prog.label());
                assert_ne!(format!("{:?}", prog.kernel), format!("{:?}", other.kernel));
            }
        }
    }

    #[test]
    fn bad_flags_are_rejected() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse(&args("--workload loops --seed 3 --seconds 5 --trace 1")).is_ok());
        for bad in [
            "",
            "--workload nope",
            "--workload loops --trace 2",
            "--workload loops --seconds -1",
            "--workload loops --seed",
            "--workload loops --frobnicate 1",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} accepted");
        }
    }
}
