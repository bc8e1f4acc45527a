//! One benchmark for the AM-DGCNN system: two training and two serving
//! workloads, each run in its own process from one seed, printing every
//! end-to-end metric (or, traced, every per-layer metric) and checking
//! its outputs.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path benchmark/Cargo.toml -- \
//!     --workload train-wn18 --seed 1 --seconds 25 --trace 0
//! cargo run --release --offline -q --manifest-path benchmark/Cargo.toml -- \
//!     compare <parent-results-dir> <change-results-dir>
//! ```
//!
//! The last line of standard output is the result object
//! (`correct`, `attempted`, `failed`, `metrics`); the same result, with
//! the workload and seed, is also written under `--out` (default
//! `.bench_out`) for `compare`. The exit code is non-zero when an output
//! check failed.

mod compare;
mod load;
mod metrics;
mod pace;
mod serve;
mod stats;
mod trace;
mod train;

use amdgcnn_data::{PrimeKgConfig, Wn18Config};
use amdgcnn_obs::Obs;
use metrics::{Outcome, END_TO_END, PER_LAYER};
use pace::Pace;
use serve::ServeSpec;
use stats::PeakRss;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use trace::Tracer;
use train::{Data, TrainSpec};

/// What every workload gets: its seed, how long to measure, the tracing
/// handles (bench-side spans and the libraries' `Obs` spans, both off in
/// untraced runs), the machine's pace and a private scratch directory.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
    pub obs: Obs,
    pub scratch: PathBuf,
    /// Peak memory of the run, without the repeated set-ups.
    pub peak: PeakRss,
    pub pace: Pace,
    ids: AtomicU64,
}

impl Ctx {
    /// A number not handed out before in this run, for scratch file names.
    pub fn next_id(&self) -> u64 {
        self.ids.fetch_add(1, Ordering::Relaxed)
    }
}

enum Workload {
    Train(TrainSpec),
    Serve(ServeSpec),
}

/// Set-ups per run: `setup_s` reports their median. PrimeKG's set-ups
/// take several times longer, so its workloads make fewer.
const SETUP_REPS: usize = 7;
const SLOW_SETUP_REPS: usize = 5;

/// The serving shape on each dataset. The rates are fixed here once:
/// nominal and peak at about 40% and 80% of the open-loop `max_qps`
/// measured at the commit that introduced the benchmark (see the README
/// for the calibration).
fn serve_spec(data: Data) -> ServeSpec {
    let (nominal, peak, probe_pairs, commit_hz, setup_reps) = match data {
        Data::PrimeKg(_) => (880.0, 1760.0, 512, 0.0, SLOW_SETUP_REPS),
        Data::Wn18(_) => (4400.0, 8800.0, 1024, 10.0, SETUP_REPS),
    };
    ServeSpec {
        data,
        nominal,
        peak,
        limit_s: 0.050,
        pairs: 4000,
        cache: 1000,
        setup_reps,
        train_links: 100,
        probe_pairs,
        commit_hz,
        ops_per_commit: 2,
    }
}

/// The workloads, at the sizes `BENCHMARK.json` describes.
fn workload(name: &str) -> Option<Workload> {
    let wn18 = Data::Wn18(Wn18Config::default());
    let primekg = Data::PrimeKg(PrimeKgConfig::default());
    Some(match name {
        "train-wn18" => Workload::Train(TrainSpec {
            data: wn18,
            epochs: 3,
            setup_reps: SETUP_REPS,
            rate_samples: 256,
            serve: serve_spec(wn18),
        }),
        "train-primekg" => Workload::Train(TrainSpec {
            data: primekg,
            epochs: 10,
            setup_reps: SLOW_SETUP_REPS,
            rate_samples: 256,
            serve: serve_spec(primekg),
        }),
        "serve-primekg" => Workload::Serve(serve_spec(primekg)),
        "serve-wn18-mutating" => Workload::Serve(serve_spec(wn18)),
        _ => return None,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 25.0,
        trace: false,
        out: PathBuf::from(".bench_out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => args.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

const USAGE: &str = "usage: benchmark --workload <train-wn18|train-primekg|serve-primekg|\
serve-wn18-mutating> --seed <n> [--seconds <s>] [--trace 0|1] [--out <dir>]\n       \
benchmark compare <parent-results-dir> <change-results-dir>";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match compare::main(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("compare: {e}\n{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workload(&args.workload) else {
        eprintln!("unknown workload {}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    am_dgcnn::runtime::tune_allocator_for_batching();
    cap_malloc_arenas();
    let scratch = args.out.join("tmp").join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("cannot create {}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tracer: if args.trace {
            Tracer::enabled()
        } else {
            Tracer::disabled()
        },
        obs: if args.trace {
            Obs::enabled()
        } else {
            Obs::disabled()
        },
        scratch,
        peak: PeakRss::default(),
        pace: Pace::default(),
        ids: AtomicU64::new(0),
    };
    let mut outcome = match &spec {
        Workload::Train(s) => train::run(&ctx, s),
        Workload::Serve(s) => serve::run(&ctx, s),
    };
    outcome.set("peak_rss_mb", ctx.peak.mb());
    let _ = std::fs::remove_dir_all(&ctx.scratch);
    finish(&args, &ctx, &outcome)
}

/// Cap glibc's malloc arenas at twice the core count. This is a setting
/// of the benchmark only: the libraries and their binaries do not make it,
/// so memory is measured under a tighter arena limit than they run with.
/// Every graph roll starts a server on fresh threads, and with glibc's
/// default of eight arenas per core the peak memory of the mutating
/// workload moved by a fifth from run to run with the arena each new
/// worker happened to land in; at two per core it stays within a few
/// percent.
fn cap_malloc_arenas() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        // From glibc's malloc.h.
        const M_ARENA_MAX: i32 = -8;
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let arenas = i32::try_from(2 * cores).unwrap_or(i32::MAX);
        // SAFETY: mallopt only reads its two integer arguments, and glibc
        // accepts M_ARENA_MAX at any point in the process's life.
        unsafe {
            mallopt(M_ARENA_MAX, arenas);
        }
    }
}

/// Print the metrics and problems, save the result and span files, and
/// print the result line last.
fn finish(args: &Args, ctx: &Ctx, outcome: &Outcome) -> ExitCode {
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    for (name, unit) in defs {
        let v = outcome.values.get(name).copied().unwrap_or(0.0);
        println!("{:<28} {v:>14.4} {unit}", name);
    }
    println!(
        "(reference kernel: median {:.4} ms in this run, against {:.4} ms at the reference speed)",
        ctx.pace.kernel_median_s() * 1e3,
        pace::REFERENCE_S * 1e3
    );
    for p in &outcome.problems {
        eprintln!("check failed: {p}");
    }
    let line = outcome.result_json(defs);
    let saved = save_result(args, &line).and_then(|()| {
        if args.trace {
            let path = args
                .out
                .join("traces")
                .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
            ctx.tracer.write(&path)
        } else {
            Ok(())
        }
    });
    if let Err(e) = saved {
        eprintln!("cannot save the result under {}: {e}", args.out.display());
    }
    println!("{line}");
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `<out>/results/<workload>/seed<n>-trace<0|1>.json`: the result line
/// with the workload and seed added, one file per run, for `compare`.
fn save_result(args: &Args, line: &str) -> std::io::Result<()> {
    let dir: &Path = &args.out.join("results").join(&args.workload);
    std::fs::create_dir_all(dir)?;
    let body = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"result\":{line}}}\n",
        args.workload, args.seed, args.trace
    );
    std::fs::write(
        dir.join(format!(
            "seed{}-trace{}.json",
            args.seed,
            u8::from(args.trace)
        )),
        body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A context with a scratch directory of its own (tests run in
    /// parallel and must not share files).
    fn ctx(name: &str, trace: bool, seconds: f64) -> Ctx {
        let scratch = std::env::temp_dir().join(format!(
            "amdgcnn-benchmark-test-{}-{name}-{trace}",
            std::process::id()
        ));
        std::fs::create_dir_all(&scratch).expect("scratch dir");
        Ctx {
            seed: 7,
            seconds,
            tracer: if trace {
                Tracer::enabled()
            } else {
                Tracer::disabled()
            },
            obs: if trace {
                Obs::enabled()
            } else {
                Obs::disabled()
            },
            scratch,
            peak: PeakRss::default(),
            pace: Pace::default(),
            ids: AtomicU64::new(0),
        }
    }

    /// A serving shape small and slow enough for an unoptimized build.
    fn tiny_serve(data: Data, commit_hz: f64) -> ServeSpec {
        ServeSpec {
            nominal: 40.0,
            peak: 80.0,
            limit_s: 2.0,
            pairs: 300,
            cache: 100,
            setup_reps: 2,
            train_links: 20,
            probe_pairs: 16,
            commit_hz,
            ..serve_spec(data)
        }
    }

    /// The run checked out, every end-to-end metric is set and, traced,
    /// every per-layer time is measured: a result whose time reads the
    /// same on every run, as a layer left at 0 would, is refused, so the
    /// traced runs probe the layers their workload does not run.
    fn assert_complete(o: &Outcome, trace: bool) {
        assert!(o.correct(), "problems: {:?}", o.problems);
        for (name, _) in END_TO_END.iter().filter(|(n, _)| *n != "peak_rss_mb") {
            let v = o.values.get(name).copied().unwrap_or(0.0);
            assert!(v > 0.0, "{name} = {v}");
        }
        if trace {
            let times = PER_LAYER
                .iter()
                .filter(|(_, unit)| ["s", "ms", "us"].contains(unit));
            for (name, _) in times {
                let v = o.values.get(name).copied().unwrap_or(0.0);
                assert!(v > 0.0, "{name} = {v}");
            }
        }
    }

    #[test]
    fn tiny_training_runs_check_out() {
        for (trace, data) in [
            (false, Data::Wn18(Wn18Config::tiny())),
            (true, Data::PrimeKg(PrimeKgConfig::tiny())),
        ] {
            let c = ctx("train", trace, 3.0);
            let o = train::run(
                &c,
                &TrainSpec {
                    data,
                    epochs: 2,
                    setup_reps: 2,
                    rate_samples: 40,
                    serve: tiny_serve(data, 0.0),
                },
            );
            // Two epochs of a tiny split need not separate the models.
            let o = Outcome {
                problems: o
                    .problems
                    .into_iter()
                    .filter(|p| !p.contains("does not beat"))
                    .collect(),
                ..o
            };
            assert_complete(&o, trace);
            let _ = std::fs::remove_dir_all(&c.scratch);
        }
    }

    #[test]
    fn tiny_serving_runs_check_out() {
        // PrimeKG's dense k-hop is too slow for an unoptimized build to
        // saturate the server within the run; both shapes use WN18.
        for (trace, commit_hz) in [(true, 0.0), (false, 10.0)] {
            let c = ctx("serve", trace, 4.0);
            let o = serve::run(&c, &tiny_serve(Data::Wn18(Wn18Config::tiny()), commit_hz));
            assert_complete(&o, trace);
            let _ = std::fs::remove_dir_all(&c.scratch);
        }
    }

    #[test]
    fn arguments_parse_and_reject_nonsense() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload train-wn18 --seed 3 --seconds 5 --trace 1",
        ))
        .expect("valid");
        assert_eq!((a.seed, a.seconds, a.trace), (3, 5.0, true));
        assert!(parse_args(&argv("--workload x --trace 2")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
        assert!(parse_args(&argv("--workload x --bogus 1")).is_err());
        for name in [
            "train-wn18",
            "train-primekg",
            "serve-primekg",
            "serve-wn18-mutating",
        ] {
            assert!(workload(name).is_some(), "{name}");
        }
    }
}
