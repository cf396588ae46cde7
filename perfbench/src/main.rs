//! The dynslice benchmark: one command, four workloads, every metric by
//! name and unit, every answer checked against separately computed
//! references.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--rounds R]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of one untraced window.
//! `--trace 1` runs an untraced window and then a traced one, and prints
//! the per-layer metrics of the traced window plus the tracing overhead.
//! `--rounds R` replaces the time limit with exactly `R` whole rounds,
//! which makes every count repeat exactly for a given seed (the repeat
//! check uses it). The last line of standard output is the JSON result;
//! progress notes go to stderr.
//! `perfbench reference ...` is the reference child (see `reference.rs`).

mod cold;
mod paged;
mod plan;
mod reference;
mod serve;
mod span;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use plan::Plan;
use span::Tracer;

/// Per-layer metrics, in `BENCHMARK.json` order. Every traced run prints
/// all of them; a layer the workload does not exercise reads 0.
pub const LAYERS: &[(&str, &str)] = &[
    ("lang.compile_ms", "ms"),
    ("analysis.ms", "ms"),
    ("runtime.trace_ms", "ms"),
    ("runtime.events", "count"),
    ("graph.build_ms", "ms"),
    ("graph.bytes", "bytes"),
    ("graph.pairs", "count"),
    ("graph.dynamic_edges", "count"),
    ("graph.nodes", "count"),
    ("graph.pairs_saved", "count"),
    ("graph.demoted", "count"),
    ("slice.ms", "ms"),
    ("slice.instances_visited", "count"),
    ("slice.shortcut_hits", "count"),
    ("slice.shortcuts_materialized", "count"),
    ("slice.shortcut_hit_ratio", "ratio"),
    ("slice.stmts", "count"),
    ("snapshot.decode_ms", "ms"),
    ("snapshot.encode_ms", "ms"),
    ("snapshot.bytes", "bytes"),
    ("snapshot.hit", "count"),
    ("snapshot.miss", "count"),
    ("paged.slice_ms", "ms"),
    ("paged.opt_slice_ms", "ms"),
    ("paged.slowdown_vs_opt", "ratio"),
    ("paged.hits", "count"),
    ("paged.misses", "count"),
    ("paged.hit_ratio", "ratio"),
    ("paged.bytes_read", "bytes"),
    ("paged.resident_bytes", "bytes"),
    ("paged.spilled_bytes", "bytes"),
    ("paged.resident_vs_opt", "ratio"),
    ("paged.spill_ms", "ms"),
    ("sessions.cache_hits", "count"),
    ("sessions.cache_misses", "count"),
    ("sessions.cache_hit_ratio", "ratio"),
    ("sessions.loaded", "count"),
    ("sessions.evicted", "count"),
    ("sessions.rejected", "count"),
    ("sessions.load_wait_ms", "ms"),
    ("sessions.weigh_ms", "ms"),
    ("sessions.resident_bytes", "bytes"),
    ("server.health_rtt_us", "us"),
    ("server.hit_rtt_us", "us"),
    ("server.dispatch_us", "us"),
    ("server.miss_overhead_us", "us"),
    ("protocol.encode_us", "us"),
    ("protocol.decode_us", "us"),
    ("net.bytes_per_op", "bytes"),
    ("paper.fp_vs_opt_bytes", "ratio"),
    ("paper.lp_vs_opt_slice_time", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// How long a window runs: whole rounds until `seconds` have passed, or
/// exactly `rounds` rounds.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    pub seconds: f64,
    pub rounds: Option<u64>,
}

impl Window {
    fn more(&self, start: Instant, rounds_done: u64) -> bool {
        match self.rounds {
            Some(n) => rounds_done < n,
            None => rounds_done == 0 || start.elapsed().as_secs_f64() < self.seconds,
        }
    }
}

/// Why an operation failed: the program returned an error, or its answer
/// failed a check.
pub enum Failure {
    Error(String),
    Wrong(String),
}

/// What one window measured.
#[derive(Default)]
pub struct Ops {
    pub latencies_ms: Vec<f64>,
    pub failed: u64,
    pub wrong: u64,
    pub elapsed_s: f64,
    /// Whole rounds run.
    pub rounds: u64,
    /// The first failure, for the error report.
    pub first_failure: Option<String>,
}

impl Ops {
    pub fn attempted(&self) -> u64 {
        self.latencies_ms.len() as u64
    }
}

/// Runs whole rounds of `round` through `op` until `window` ends. `op`
/// gets the tracer (its span "op" is already open) and returns the
/// result of its checks; latency covers the span "op" only, so checks
/// and trace-only instrumentation that `op` defers to `after` stay out
/// of it.
pub fn drive<T, R>(
    round: &[T],
    window: &Window,
    tracer: &Tracer,
    mut op: impl FnMut(&T, &Tracer) -> R,
    mut after: impl FnMut(&T, R, f64, &Tracer) -> Result<(), Failure>,
) -> Ops {
    let mut ops = Ops::default();
    let start = Instant::now();
    let mut rounds = 0;
    while window.more(start, rounds) {
        for item in round {
            tracer.next_op();
            let t = Instant::now();
            let r = tracer.span("op", || op(item, tracer));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            ops.latencies_ms.push(ms);
            if let Err(f) = after(item, r, ms, tracer) {
                ops.failed += 1;
                let text = match f {
                    Failure::Error(e) => e,
                    Failure::Wrong(e) => {
                        ops.wrong += 1;
                        format!("wrong answer: {e}")
                    }
                };
                ops.first_failure.get_or_insert(text);
            }
        }
        rounds += 1;
    }
    ops.elapsed_s = start.elapsed().as_secs_f64();
    ops.rounds = rounds;
    ops
}

/// What a workload hands back to be printed.
pub struct Report {
    /// Wall time of each set-up repetition, in seconds.
    pub setups_s: Vec<f64>,
    /// The untraced window.
    pub ops: Ops,
    /// The traced window (trace runs only).
    pub traced: Option<Ops>,
    /// Tail percentile of this workload.
    pub tail_pct: f64,
    /// Resident bytes by the program's own accounting.
    pub resident_bytes: f64,
    /// Per-layer metrics of the traced window.
    pub layers: BTreeMap<&'static str, f64>,
}

/// Shared run settings.
pub struct Ctx {
    pub window: Window,
    pub trace: bool,
    pub scratch: PathBuf,
    /// Where the traced window's spans are written.
    pub spans_path: PathBuf,
}

/// Number of set-up repetitions per run; `setup_s` is their median.
pub const SETUPS: usize = 9;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    rounds: Option<u64>,
    scratch: Option<PathBuf>,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        rounds: None,
        scratch: None,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |what: &str| format!("bad value for {flag}: {what}");
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = value()?.parse().map_err(|_| bad("integer expected"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|_| bad("number expected"))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1 expected")),
                }
            }
            "--rounds" => a.rounds = Some(value()?.parse().map_err(|_| bad("integer expected"))?),
            "--scratch" => a.scratch = Some(PathBuf::from(value()?)),
            "--out" => a.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if a.workload.is_empty() {
        return Err(format!(
            "--workload is required ({})",
            plan::WORKLOADS.join(", ")
        ));
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// A scratch directory under `.perfbench/` in the working directory,
/// removed when dropped.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("reference") {
        reference_main(&args[1..])
    } else {
        bench_main(&args)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn reference_main(args: &[String]) -> Result<(), String> {
    let a = parse_args(args)?;
    let plan = Plan::new(&a.workload, a.seed)?;
    let scratch = a.scratch.ok_or("reference needs --scratch")?;
    let out = a.out.ok_or("reference needs --out")?;
    reference::run_child(&plan, &scratch, &out)
}

fn bench_main(args: &[String]) -> Result<(), String> {
    let a = parse_args(args)?;
    let plan = Plan::new(&a.workload, a.seed)?;
    let root = PathBuf::from(".perfbench");
    let scratch = Scratch(root.join(format!("run-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0).map_err(|e| format!("creating scratch dir: {e}"))?;
    let refs = reference::compute_in_child(&plan, &scratch.0)?;
    let ctx = Ctx {
        window: Window {
            seconds: a.seconds,
            rounds: a.rounds,
        },
        trace: a.trace,
        scratch: scratch.0.clone(),
        spans_path: root
            .join("spans")
            .join(format!("{}-seed{}.tsv", a.workload, a.seed)),
    };
    let report = match plan.workload {
        "cold_pipeline" => cold::run(&plan, &refs, &ctx)?,
        "serve_mix" => serve::run_mix(&plan, &refs, &ctx)?,
        "session_churn" => serve::run_churn(&plan, &refs, &ctx)?,
        _ => paged::run(&plan, &refs, &ctx)?,
    };
    let peak_rss = dynslice::obs::peak_resident_bytes().ok_or("VmHWM unavailable")?;
    println!("{}", result_json(&report, peak_rss, a.trace));
    Ok(())
}

fn result_json(r: &Report, peak_rss: u64, trace: bool) -> String {
    let mb = |b: f64| b / (1024.0 * 1024.0);
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    let (mut attempted, mut failed, mut wrong) = (r.ops.attempted(), r.ops.failed, r.ops.wrong);
    let mut first_failure = r.ops.first_failure.clone();
    if trace {
        let t = r
            .traced
            .as_ref()
            .expect("trace runs record a traced window");
        attempted += t.attempted();
        failed += t.failed;
        wrong += t.wrong;
        first_failure = first_failure.or_else(|| t.first_failure.clone());
        let base = span::median(&r.ops.latencies_ms);
        let overhead = if base > 0.0 {
            (span::median(&t.latencies_ms) - base) / base * 100.0
        } else {
            0.0
        };
        for (name, unit) in LAYERS {
            let v = if *name == "trace.overhead_pct" {
                overhead
            } else {
                r.layers.get(name).copied().unwrap_or(0.0)
            };
            metrics.push((name.to_string(), v, unit));
        }
    } else {
        let ok = (r.ops.attempted() - r.ops.failed) as f64;
        metrics.push(("setup_s".into(), span::median(&r.setups_s), "s"));
        metrics.push(("ops_per_s".into(), ok / r.ops.elapsed_s, "1/s"));
        metrics.push(("op_p50_ms".into(), span::median(&r.ops.latencies_ms), "ms"));
        metrics.push((
            "op_tail_ms".into(),
            span::percentile(&r.ops.latencies_ms, r.tail_pct),
            "ms",
        ));
        metrics.push(("resident_mb".into(), mb(r.resident_bytes), "MB"));
        metrics.push(("peak_rss_mb".into(), mb(peak_rss as f64), "MB"));
    }
    if let Some(f) = &first_failure {
        eprintln!("perfbench: {failed} failed operations; first: {f}");
    }
    eprintln!(
        "perfbench: {} ops in {:.2} s window, tail p{} over {} samples",
        r.ops.attempted(),
        r.ops.elapsed_s,
        r.tail_pct,
        r.ops.latencies_ms.len()
    );
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        wrong == 0
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread, and every thread it starts later, to the
/// first CPU it may run on. The service workloads call it: one
/// closed-loop client never has two requests in flight, so a second core
/// adds only cross-core wake-ups between the client, reader, worker and
/// loader threads; on a 2-core VM those made serve_mix's median latency
/// vary by ±13% between runs of one seed (±5% pinned). The single-threaded
/// workloads stay free to move off a busy core.
pub fn pin_to_one_cpu() -> Result<(), String> {
    const WORDS: usize = 16; // a glibc `cpu_set_t`: 1024 bits
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..WORDS * 64)
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("no CPU allowed")?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

/// Wall time of `f` in seconds, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Writes `plan`'s sources to `dir`, returning one path per program.
pub fn write_sources(plan: &Plan, dir: &Path) -> Result<Vec<PathBuf>, String> {
    plan.programs
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let path = dir.join(format!("program-{i}.minic"));
            std::fs::write(&path, &p.source)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            Ok(path)
        })
        .collect()
}
