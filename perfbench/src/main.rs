//! The MIX benchmark: one seeded command per workload.
//!
//! ```text
//! mix-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run builds its inputs from `--seed`, sets up the system several
//! times (reporting the median set-up time), checks the workload's
//! correctness pin before timing anything, and then measures for
//! `--seconds`. With `--trace 0` it reports the end-to-end metrics; with
//! `--trace 1` it reports the per-layer breakdown instead (see
//! `layers.rs`). The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. A failed pin prints
//! the mismatch and exits non-zero without a result line.

mod adhoc;
mod browse;
mod client;
mod drain;
mod layers;
mod measure;
mod scatter;
mod workload;

use measure::{median_f, process_cpu_us, Report};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Stop, Workload};

/// How many times a run builds its system; the median is `setup_s`.
const SETUPS: usize = 5;

/// Time slices of the measured run. A gated latency is the median over
/// slices of each slice's value, so a burst of host contention (this
/// box shares its CPUs) that covers a few slices does not move it.
const SLICES: u32 = 10;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0).max(1.0),
        trace: trace.unwrap_or(false),
    })
}

/// Build the named workload once; `tracer` goes into every mediator.
pub fn build(
    name: &str,
    seed: u64,
    tracer: Option<mix::prelude::TracerHandle>,
) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "browse_wire" => Box::new(browse::BrowseWire::setup(seed, tracer)),
        "drain_local" => Box::new(drain::DrainLocal::setup(seed, tracer)),
        "adhoc_compile" => Box::new(adhoc::AdhocCompile::setup(seed, tracer)),
        "scatter_rtt" => Box::new(scatter::ScatterRtt::setup(seed, tracer)),
        other => return Err(format!("unknown workload {other}")),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mix-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload={} seed={} seconds={} trace={} cpus={}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );

    // Set up several times; keep the last system, report the median.
    let mut setup_times = Vec::new();
    let mut wl = None;
    for _ in 0..SETUPS {
        drop(wl.take());
        let t = Instant::now();
        match build(&args.workload, args.seed, None) {
            Ok(mut w) => {
                w.warm_up();
                setup_times.push(t.elapsed().as_secs_f64());
                wl = Some(w);
            }
            Err(e) => {
                eprintln!("mix-perfbench: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let mut wl = wl.expect("at least one set-up ran");
    println!("{}", wl.describe());

    // Correctness before timing: a mismatch fails the run with no result.
    let t = Instant::now();
    if let Err(e) = wl.check() {
        println!("CORRECTNESS FAILURE: {e}");
        eprintln!("mix-perfbench: correctness pin failed: {e}");
        return ExitCode::from(1);
    }
    println!(
        "correctness pin passed in {:.2}s",
        t.elapsed().as_secs_f64()
    );

    let budget = Duration::from_secs_f64(args.seconds);
    let (report, attempted, failed) = if args.trace {
        layers::traced_run(&args.workload, args.seed, wl, budget)
    } else {
        // Consecutive time slices, each with its own CPU reading; the
        // gated metrics are medians over slices.
        let mut slices = Vec::new();
        let mut next = 0;
        for _ in 0..SLICES {
            let cpu0 = process_cpu_us();
            let logs = wl.run(Stop::from_for(next, budget / SLICES));
            next += logs.len();
            slices.push((logs, process_cpu_us() - cpu0));
        }
        drop(wl);
        let mut r = Report::default();
        r.add("setup_s", median_f(&setup_times), "s", setup_times.len());
        let (attempted, failed) = workload::end_to_end(&slices, &mut r);
        (r, attempted, failed)
    };
    report.print_table();
    println!("{}", report.json(true, attempted.max(1), failed));
    ExitCode::SUCCESS
}
