//! The nxsim benchmark: end-to-end metrics through the entry points users
//! call, and (with `--trace 1`) a per-layer split from spans recorded
//! around each layer call.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload mixed|text|all --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run drives three parts, interleaved: the software codec on
//! 4 MiB buffers (`bulk`), the `Nx` facade's default path, which is the
//! cycle model (`accel`), and the multi-tenant service (`service`). The
//! workload picks the content of the buffers.
//!
//! Human-readable metric lines come first; the last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Every output is verified; any failed operation or check
//! makes the run exit with code 1.

mod accel;
mod bulk;
mod service;
mod trace;
mod util;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use trace::Tracer;
use util::{median, Corpus, Outcome};

/// Set-up repetitions in fresh child processes, on top of the run's own,
/// so `setup_s` is a median that includes first-use work such as
/// profile training.
const SETUP_CHILDREN: usize = 8;

/// Where spans and the simulated-statistics ledger are written, relative
/// to the working directory.
const OUT_DIR: &str = "perfbench-out";

/// How far the traced per-layer sum may stray from the untraced
/// operation time, as a share of the latter.
const TRACE_BOUND: f64 = 0.25;

/// Workloads and the content of their bulk buffers and `scan` payloads.
/// Every workload runs every part, so each reports every metric.
const WORKLOADS: [(&str, Corpus); 2] = [("mixed", Corpus::Mixed), ("text", Corpus::Text)];

/// Shares of `--seconds` given to the `bulk`, `accel` and `service`
/// parts of a run.
const SHARES: [f64; 3] = [0.25, 0.2, 0.55];

/// One part of a run. The scheduler interleaves the parts' steps, so
/// host drift within a run hits every metric alike.
pub trait Part {
    /// Does one unit of work (a round or a load phase); `budget_s` is the
    /// part's share of the run in seconds.
    fn step(&mut self, budget_s: f64, o: &mut Outcome, tr: Option<&mut Tracer>);
    /// Whether the part's work is done after `used_s` of `budget_s`.
    fn done(&self, used_s: f64, budget_s: f64) -> bool;
    /// Reports the part's metrics: end-to-end untraced, per-layer traced.
    fn finish(&mut self, o: &mut Outcome, tr: Option<&mut Tracer>);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        setup_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            a.setup_only = true;
            continue;
        }
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {v}");
        match flag.as_str() {
            "--workload" => a.workload = v.clone(),
            "--seed" => a.seed = v.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = v.parse().map_err(|_| bad())?,
            "--trace" => a.trace = v == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.workload != "all" && corpus(&a.workload).is_none() {
        return Err(format!(
            "unknown workload {:?} (mixed, text or all)",
            a.workload
        ));
    }
    if !a.seconds.is_finite() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn corpus(workload: &str) -> Option<Corpus> {
    WORKLOADS.iter().find(|w| w.0 == workload).map(|w| w.1)
}

/// Every part of a run, set up and warmed.
struct Suite {
    bulk: bulk::Bulk,
    accel: accel::Accel,
    service: service::ServicePart,
}

fn setup(corpus: Corpus, seed: u64) -> Suite {
    let inputs = util::Inputs { seed, corpus };
    Suite {
        bulk: bulk::setup(seed, inputs),
        accel: accel::setup(inputs),
        service: service::setup(seed, corpus),
    }
}

impl Suite {
    /// Runs the parts for about `seconds` in all, each step going to the
    /// part furthest behind its share, then lets each report.
    fn run(&mut self, seconds: f64, traced: bool) -> (Outcome, Option<Tracer>) {
        let mut o = Outcome::default();
        let mut tr = traced.then(Tracer::new);
        let parts: [&mut dyn Part; 3] = [&mut self.bulk, &mut self.accel, &mut self.service];
        let budget = SHARES.map(|s| s * seconds);
        let mut used = [0.0f64; 3];
        loop {
            let next = (0..parts.len())
                .filter(|&i| !parts[i].done(used[i], budget[i]))
                .min_by(|&i, &j| (used[i] / budget[i]).total_cmp(&(used[j] / budget[j])));
            let Some(i) = next else { break };
            let t = Instant::now();
            parts[i].step(budget[i], &mut o, tr.as_mut());
            used[i] += t.elapsed().as_secs_f64();
            util::release_free_memory();
        }
        for p in parts {
            p.finish(&mut o, tr.as_mut());
        }
        (o, tr)
    }
}

/// Set-up time of one fresh child process, in seconds.
fn child_setup(a: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args([
            "--workload",
            &a.workload,
            "--seed",
            &a.seed.to_string(),
            "--setup-only",
        ])
        .output()
        .map_err(|e| format!("set-up child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match (out.status.success(), text.trim().parse::<f64>()) {
        (true, Ok(s)) => Ok(s),
        _ => Err(format!("set-up child failed: {}", out.status)),
    }
}

/// Compares this run's simulated statistics with the ones an earlier run
/// of the same build, workload and seed recorded, and records them if
/// none did.
fn check_sim_ledger(workload: &str, seed: u64, sim: &[accel::SimStats]) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let bin = std::fs::read(&exe).map_err(|e| format!("read {}: {e}", exe.display()))?;
    let build = format!("{:08x}{:x}", nx_deflate::crc32::crc32(&bin), bin.len());
    let path = Path::new(OUT_DIR).join(format!("sim-{build}-{workload}-seed{seed}.txt"));
    let now = format!("{sim:?}\n");
    match std::fs::read_to_string(&path) {
        Ok(before) if before == now => Ok(()),
        Ok(before) => Err(format!(
            "simulated statistics differ from an earlier run of this build: {} vs {}",
            before.trim(),
            now.trim()
        )),
        Err(_) => {
            std::fs::create_dir_all(OUT_DIR).map_err(|e| e.to_string())?;
            std::fs::write(&path, now).map_err(|e| e.to_string())
        }
    }
}

fn print_result(o: &Outcome) {
    for m in &o.metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    println!("operations attempted {} failed {}", o.attempted, o.failed);
    for e in &o.errors {
        eprintln!("FAILED: {e}");
    }
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            // JSON has no infinities; a non-finite value already failed
            // the run.
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0,
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    );
}

/// Runs every workload, each in a child process of its own so each has
/// its own set-up and peak memory, and prints one combined result whose
/// metric names carry the workload as a prefix.
fn run_all(a: &Args) -> ExitCode {
    let mut all = Outcome::default();
    for (w, _) in WORKLOADS {
        let run = std::env::current_exe().and_then(|exe| {
            Command::new(exe)
                .args(["--workload", w, "--seed", &a.seed.to_string()])
                .args(["--seconds", &a.seconds.to_string()])
                .args(["--trace", if a.trace { "1" } else { "0" }])
                .output()
        });
        let out = match run {
            Ok(out) => out,
            Err(e) => {
                all.fail(format!("{w}: {e}"));
                continue;
            }
        };
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        for line in String::from_utf8_lossy(&out.stdout).lines() {
            let words: Vec<&str> = line.split_whitespace().collect();
            match words.as_slice() {
                ["metric", name, "=", value, unit] => all.metric(
                    format!("{w}.{name}"),
                    value.parse().unwrap_or(f64::NAN),
                    unit,
                ),
                ["operations", "attempted", n, "failed", f] => {
                    all.attempted += n.parse::<u64>().unwrap_or(0);
                    all.failed += f.parse::<u64>().unwrap_or(1);
                }
                _ => {}
            }
        }
        if !out.status.success() {
            all.errors.push(format!("{w}: exited with {}", out.status));
            all.failed = all.failed.max(1);
        }
    }
    print_result(&all);
    if all.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if a.workload == "all" {
        return run_all(&a);
    }
    let corpus = corpus(&a.workload).expect("parse_args checked the workload");
    if a.setup_only {
        let t = Instant::now();
        let suite = setup(corpus, a.seed);
        let s = t.elapsed().as_secs_f64();
        drop(suite);
        println!("{s}");
        return ExitCode::SUCCESS;
    }

    let t = Instant::now();
    let mut suite = setup(corpus, a.seed);
    let mut setups = vec![t.elapsed().as_secs_f64()];
    let mut setup_errors = Vec::new();
    for _ in 0..SETUP_CHILDREN {
        match child_setup(&a) {
            Ok(s) => setups.push(s),
            Err(e) => setup_errors.push(e),
        }
    }

    let (mut o, tracer) = suite.run(a.seconds, a.trace);
    if let Err(e) = check_sim_ledger(&a.workload, a.seed, &suite.accel.sim) {
        o.fail(e);
    }
    for e in setup_errors {
        o.fail(e);
    }
    match tracer {
        Some(t) => {
            let mut all = Vec::new();
            for (part, shares) in t.overhead() {
                let m = median(shares);
                if m.is_nan() || m.abs() > TRACE_BOUND {
                    o.fail(format!(
                        "{part}: per-layer times sum to {:.3} of the untraced operation time",
                        1.0 + m
                    ));
                }
                all.extend_from_slice(shares);
            }
            o.metric("trace.overhead_share", median(&all), "share");
            let path: PathBuf = Path::new(OUT_DIR).join(format!("trace-{}.tsv", a.workload));
            if let Err(e) = t.write_tsv(&path) {
                eprintln!("perfbench: could not write {}: {e}", path.display());
            }
        }
        None => {
            o.metric("setup_s", median(&setups), "s");
            o.metric("peak_rss_mib", util::peak_rss_mib(), "MiB");
        }
    }
    let broken: Vec<String> = o
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name.clone())
        .collect();
    for name in broken {
        o.fail(format!("metric {name} is not a finite number"));
    }
    print_result(&o);
    if o.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
