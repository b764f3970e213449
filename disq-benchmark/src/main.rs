//! `disq-benchmark`: seeded workloads over the DisQ workspace that
//! print end-to-end metrics (untraced) or per-layer metrics (traced),
//! check the program's outputs, and end with one JSON result line.
//!
//! ```text
//! disq-benchmark --workload <serve_c1|serve_open|plan_cold|scan_1m>
//!                --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! See `README.md` beside this package for the metric table, the layer
//! map and how to read the output.

mod client;
mod layers;
mod plan;
mod report;
mod scan;
mod schedule;
mod serve;
mod stats;
mod timed;

use report::{Report, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use std::time::Instant;

// Per-thread allocation counters (`alloc.*`) and the heap high-water
// mark (`peak_heap_mb`) both come from the counting allocator.
#[global_allocator]
static ALLOC: disq_trace::CountingAlloc = disq_trace::CountingAlloc;

/// Fewest set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Cheap set-ups repeat until they have taken this long in total (at
/// most [`SETUP_MAX_REPS`] times), so a median of milliseconds-long
/// set-ups rests on many samples.
const SETUP_BUDGET_S: f64 = 1.0;

/// Most set-ups per run.
const SETUP_MAX_REPS: usize = 100;

const USAGE: &str = "usage: disq-benchmark --workload <serve_c1|serve_open|plan_cold|scan_1m> \
                     --seed <u64> --seconds <n> --trace <0|1>";

/// The workloads, by name.
pub const WORKLOADS: [&str; 4] = ["serve_c1", "serve_open", "plan_cold", "scan_1m"];

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Measurement window in seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got '{value}'");
            match flag.as_str() {
                "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
                "--workload" => return Err(bad("unknown workload")),
                "--seed" => seed = Some(value.parse().map_err(|_| bad("expected a u64"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad("expected seconds"))?;
                    if !(s > 0.0 && s <= 3600.0) {
                        return Err(bad("expected 0 < seconds <= 3600"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("expected 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag '{flag}'")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// Runs `build` at least [`SETUP_REPS`] times, and on until the builds
/// have taken [`SETUP_BUDGET_S`] (at most [`SETUP_MAX_REPS`] times),
/// dropping each result before the next build so only one set-up is
/// ever resident. Returns the last one and the wall time (s) of each
/// build but the first when more than [`SETUP_REPS`] ran: the first
/// cheap set-up of a process runs on a cold CPU and allocator and,
/// measured alone, doubled the run-to-run spread of `setup_s`.
pub fn repeated_setup<T, E>(mut build: impl FnMut() -> Result<T, E>) -> Result<(T, Vec<f64>), E> {
    let mut kept = None;
    let mut times: Vec<f64> = Vec::with_capacity(SETUP_MAX_REPS);
    while times.len() < SETUP_REPS
        || (times.len() < SETUP_MAX_REPS && times.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(kept.take());
        let t = Instant::now();
        kept = Some(build()?);
        times.push(t.elapsed().as_secs_f64());
    }
    if times.len() > SETUP_REPS {
        times.remove(0);
    }
    Ok((kept.expect("SETUP_REPS > 0"), times))
}

fn run(args: &Args) -> Result<Report, String> {
    match args.workload.as_str() {
        "serve_c1" => serve::closed(args),
        "serve_open" => serve::open(args),
        "plan_cold" => plan::run(args),
        "scan_1m" => scan::run(args),
        other => Err(format!("unknown workload '{other}'")),
    }
}

/// Pins the calling thread, and so every thread it spawns later, to
/// the CPU it is running on. Returns the CPU, or `None` where pinning is
/// unavailable.
///
/// Workloads that run one operation at a time are pinned: on a small
/// shared host the largest source of their run-to-run spread was where
/// the scheduler put the client and the daemon's connection thread,
/// which ping-pong across CPUs or not (`serve_c1` p50 over repeated runs
/// of one seed: 160–172 µs free, 144–148 µs pinned). `serve_open` is not
/// pinned: its two connections stand for concurrent users, and one CPU
/// would serialize exactly the overlap it exists to measure.
#[cfg(target_os = "linux")]
fn pin_to_current_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `sched_getcpu` takes no arguments and only reports the
    // calling thread's current CPU.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    // 1024 bits: the kernel's and glibc's `cpu_set_t` size.
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, aligned buffer of exactly the byte
    // length passed, which the kernel only reads; pid 0 names the
    // calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
fn pin_to_current_cpu() -> Option<usize> {
    None
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pinned = (args.workload != "serve_open")
        .then(pin_to_current_cpu)
        .flatten();
    match pinned {
        Some(cpu) => println!("host: {cpus} CPUs available; every thread pinned to CPU {cpu}"),
        None => println!("host: {cpus} CPUs available; threads not pinned"),
    }
    // Each workload starts the heap high-water mark once its own sample
    // buffers exist, so the mark spans set-up and measurement of the
    // program, not the benchmark's bookkeeping.
    let mut report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    let peak = disq_trace::watermark_stop();
    report.set("peak_heap_mb", peak as f64 / (1024.0 * 1024.0));
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    let (text, correct) = report.render(catalogue);
    print!("{text}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn command_line_is_checked() {
        let a = parse("--workload scan_1m --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("scan_1m", 7, 10.0, true)
        );
        assert!(
            !parse("--workload plan_cold --seed 1 --seconds 2")
                .unwrap()
                .trace
        );
        assert!(parse("--workload nope --seed 1 --seconds 2").is_err());
        assert!(parse("--workload plan_cold --seed -1 --seconds 2").is_err());
        assert!(parse("--workload plan_cold --seed 1 --seconds 0").is_err());
        assert!(parse("--workload plan_cold --seed 1 --seconds 2 --trace 2").is_err());
        assert!(parse("--workload plan_cold --seconds 2").is_err());
        assert!(parse("--workload plan_cold --seed 1 --seconds").is_err());
    }

    /// A one-second run of every workload, untraced and traced, passes
    /// its checks and reports its whole catalogue.
    #[test]
    fn one_second_smoke_of_every_workload() {
        for workload in WORKLOADS {
            for trace in [false, true] {
                let args = Args {
                    workload: workload.into(),
                    seed: 11,
                    seconds: 1.0,
                    trace,
                };
                let mut report = run(&args).unwrap_or_else(|e| panic!("{workload}: {e}"));
                report.set("peak_heap_mb", 1.0);
                let catalogue = if trace { PER_LAYER } else { END_TO_END };
                let (text, correct) = report.render(catalogue);
                assert!(correct, "{workload} trace={trace}:\n{text}");
            }
        }
    }
}
