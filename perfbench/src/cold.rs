//! `cold_pipeline`: one-shot `dynslice slice` use, the paper's own
//! pipeline. One operation takes one suite program from source to a few
//! slices on a fresh graph: `lang` compile → `analysis` → `runtime`
//! trace → sequential OPT build in `graph` → K criteria in `slicing`,
//! with the cold shortcut memo a fresh graph has. Operations rotate
//! through all ten suite programs; no server, cache or disk is touched.

use std::collections::BTreeMap;

use dynslice::{
    AnySlicer, CompactGraph, Criterion, OptConfig, OptSlicer, ProgramAnalysis, Session, Slice,
    SliceStats, Slicer,
};

use crate::plan::Plan;
use crate::reference;
use crate::span::{mean, Tracer};
use crate::{drive, timed, Ctx, Failure, Ops, Report, SETUPS};

/// One op's products, kept for the checks after the op's span closes.
struct Done {
    slices: Vec<Result<(Slice, SliceStats), String>>,
    graph: OptSlicer,
    events: u64,
}

/// The pipeline, one layer call per span.
fn pipeline(
    source: &str,
    tape: &[i64],
    criteria: &[Criterion],
    tr: &Tracer,
) -> Result<Done, String> {
    let program = tr
        .span("lang", || dynslice::compile(source))
        .map_err(|d| d.to_string())?;
    let analysis = tr.span("analysis", || ProgramAnalysis::compute(&program));
    let session = Session { program, analysis };
    let trace = tr.span("runtime", || session.run(tape.to_vec()));
    let opt = tr.span("graph", || {
        OptSlicer::build(
            &session.program,
            &session.analysis,
            &trace.events,
            &OptConfig::default(),
        )
    });
    let slices = criteria
        .iter()
        .map(|c| {
            tr.span("slicing", || opt.slice_with_stats(c))
                .map_err(|e| e.to_string())
        })
        .collect();
    Ok(Done {
        slices,
        graph: opt,
        events: trace.events.len() as u64,
    })
}

pub fn run(plan: &Plan, refs: &[reference::Program], ctx: &Ctx) -> Result<Report, String> {
    let criteria: Vec<Vec<Criterion>> = refs
        .iter()
        .map(|r| r.answers.iter().map(|a| a.criterion).collect())
        .collect();

    // Set-up: the front end over every program (compile + analyses).
    let mut setups_s = Vec::new();
    for _ in 0..SETUPS {
        let (compiled, s) = timed(|| {
            plan.programs
                .iter()
                .map(|p| Session::compile(&p.source))
                .collect::<Result<Vec<_>, _>>()
        });
        compiled.map_err(|d| d.to_string())?;
        setups_s.push(s);
    }

    let round: Vec<usize> = (0..plan.programs.len()).collect();
    let window = |tracer: &Tracer, layer: &mut Layer| -> Ops {
        drive(
            &round,
            &ctx.window,
            tracer,
            |&i, tr| {
                pipeline(
                    &plan.programs[i].source,
                    &plan.programs[i].tape,
                    &criteria[i],
                    tr,
                )
            },
            |&i, done, _ms, tr| {
                let done = done.map_err(Failure::Error)?;
                if tr.on() {
                    layer.record(done.graph.graph(), done.events, &done.slices);
                }
                for (k, s) in done.slices.into_iter().enumerate() {
                    let (slice, _) = s.map_err(Failure::Error)?;
                    refs[i]
                        .check(k, slice.stmts.iter().map(|s| s.0))
                        .map_err(Failure::Wrong)?;
                }
                Ok(())
            },
        )
    };
    let ops = window(&Tracer::new(false), &mut Layer::default());
    // The largest graph an operation held, weighed after the window:
    // weighing materializes every shortcut closure, which no operation
    // does. Every round builds the same graphs, so rebuilding gives the
    // same weights.
    let mut resident = 0u64;
    for (p, c) in plan.programs.iter().zip(&criteria) {
        let done = pipeline(&p.source, &p.tape, c, &Tracer::new(false))?;
        resident = resident.max(AnySlicer::Opt(done.graph).resident_bytes());
    }
    let mut layers = BTreeMap::new();
    let traced = if ctx.trace {
        let tracer = Tracer::new(true);
        let mut layer = Layer::default();
        let traced = window(&tracer, &mut layer);
        tracer
            .write(&ctx.spans_path)
            .map_err(|e| format!("writing spans: {e}"))?;
        let n = traced.attempted() as f64;
        let self_ms = tracer.self_times();
        let per_op = |name: &str| self_ms.get(name).map_or(0.0, |(ms, _)| ms / n);
        layers.insert("lang.compile_ms", per_op("lang"));
        layers.insert("analysis.ms", per_op("analysis"));
        layers.insert("runtime.trace_ms", per_op("runtime"));
        layers.insert("graph.build_ms", per_op("graph"));
        layers.insert("slice.ms", per_op("slicing"));
        layer.finish(traced.rounds, &mut layers);
        // The paper's headline ratios: FP graph bytes over OPT's, and LP
        // slice time (reference process) over OPT's cold slice time.
        let fp_bytes: u64 = refs.iter().map(|r| r.fp_bytes).sum();
        layers.insert(
            "paper.fp_vs_opt_bytes",
            fp_bytes as f64 / layers["graph.bytes"],
        );
        let lp_ms: f64 = refs.iter().map(|r| r.lp_slice_ms).sum::<f64>()
            / refs.iter().map(|r| r.answers.len()).sum::<usize>() as f64;
        let opt_ms = mean(&tracer.durations("slicing"));
        layers.insert("paper.lp_vs_opt_slice_time", lp_ms / opt_ms);
        Some(traced)
    } else {
        None
    };
    Ok(Report {
        setups_s,
        ops,
        traced,
        tail_pct: 95.0,
        resident_bytes: resident as f64,
        layers,
    })
}

/// Counts gathered from the traced window's products.
#[derive(Default)]
struct Layer {
    events: u64,
    bytes: u64,
    pairs: u64,
    dynamic_edges: u64,
    nodes: u64,
    saved: u64,
    demoted: u64,
    slices: u64,
    visited: u64,
    hits: u64,
    materialized: u64,
    stmts: u64,
}

impl Layer {
    fn record(
        &mut self,
        g: &CompactGraph,
        events: u64,
        slices: &[Result<(Slice, SliceStats), String>],
    ) {
        let size = g.size(false);
        self.events += events;
        self.bytes += size.bytes();
        self.pairs += size.pairs;
        self.dynamic_edges += size.dynamic_edges;
        self.nodes += size.nodes;
        self.saved += g.stats.total_saved();
        self.demoted += g.stats.demoted;
        for (slice, stats) in slices.iter().flatten() {
            self.slices += 1;
            self.visited += stats.instances_visited;
            self.hits += stats.shortcut_hits;
            self.materialized += stats.shortcuts_materialized;
            self.stmts += slice.len() as u64;
        }
    }

    /// Counts are per round (every round is the same ten operations);
    /// `slice.stmts` is the mean slice size; the hit ratio is memoized
    /// shortcut closures used over closures used or built.
    fn finish(&self, rounds: u64, out: &mut BTreeMap<&'static str, f64>) {
        let per_round = |v: u64| v as f64 / rounds as f64;
        out.insert("runtime.events", per_round(self.events));
        out.insert("graph.bytes", per_round(self.bytes));
        out.insert("graph.pairs", per_round(self.pairs));
        out.insert("graph.dynamic_edges", per_round(self.dynamic_edges));
        out.insert("graph.nodes", per_round(self.nodes));
        out.insert("graph.pairs_saved", per_round(self.saved));
        out.insert("graph.demoted", per_round(self.demoted));
        out.insert("slice.instances_visited", per_round(self.visited));
        out.insert("slice.shortcut_hits", per_round(self.hits));
        out.insert("slice.shortcuts_materialized", per_round(self.materialized));
        out.insert(
            "slice.shortcut_hit_ratio",
            ratio(self.hits, self.hits + self.materialized),
        );
        out.insert("slice.stmts", ratio(self.stmts, self.slices));
    }
}

pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}
