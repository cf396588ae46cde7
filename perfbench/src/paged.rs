//! `paged_budget`: the §4.2 hybrid. The pointer-heavy programs are served
//! by `graph::paged` with their timestamp-pair blocks spilled to disk and
//! a resident-block budget well below their label working set. One
//! operation is one slice; block-cache misses and spill reads dominate.
//! No server is involved, and slices run one at a time (the batch engine
//! is not used).

use std::collections::BTreeMap;

use dynslice::{
    build_compact, Criterion, OptConfig, OptSlicer, PagedGraph, PagedStats, Session, Slicer,
};

use crate::cold::ratio;
use crate::plan::Plan;
use crate::reference;
use crate::span::{mean, Tracer};
use crate::{drive, timed, Ctx, Failure, Report, SETUPS};

/// Resident label blocks per program (each block holds 4096 pairs): a
/// quarter of the ~4 blocks each graph spills.
pub const BUDGET_BLOCKS: usize = 1;

pub fn run(plan: &Plan, refs: &[reference::Program], ctx: &Ctx) -> Result<Report, String> {
    // Set-up: compile, trace, build and spill every program.
    let mut setups_s = Vec::new();
    let mut spill_ms = Vec::new();
    let mut graphs = Vec::new();
    for rep in 0..SETUPS {
        let (built, s) = timed(|| {
            plan.programs
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    let session = Session::compile(&p.source).map_err(|d| d.to_string())?;
                    let trace = session.run(p.tape.clone());
                    let graph = build_compact(
                        &session.program,
                        &session.analysis,
                        &trace.events,
                        &OptConfig::default(),
                    );
                    let path = ctx.scratch.join(format!("spill-{rep}-{i}.pg"));
                    let (paged, s) = timed(|| PagedGraph::spill(graph, path, BUDGET_BLOCKS));
                    spill_ms.push(s * 1e3);
                    paged.map_err(|e| format!("{}: spill: {e}", p.name))
                })
                .collect::<Result<Vec<_>, String>>()
        });
        // Dropping the previous repetition's graphs removes their spills.
        graphs = built?;
        setups_s.push(s);
    }

    // One round: each criterion index across the programs in turn.
    let k = refs.iter().map(|r| r.answers.len()).min().unwrap_or(0);
    let round: Vec<(usize, usize)> = (0..k)
        .flat_map(|j| (0..graphs.len()).map(move |i| (i, j)))
        .collect();
    let criteria: Vec<Vec<Criterion>> = refs
        .iter()
        .map(|r| r.answers.iter().map(|a| a.criterion).collect())
        .collect();

    let window = |tracer: &Tracer, opt: &[OptSlicer], samples: &mut Samples| {
        drive(
            &round,
            &ctx.window,
            tracer,
            |&(i, j), _| Slicer::slice_with_stats(&graphs[i], &criteria[i][j]),
            |&(i, j), result, ms, tr| {
                let (slice, stats) = result.map_err(|e| Failure::Error(e.to_string()))?;
                refs[i]
                    .check(j, slice.stmts.iter().map(|s| s.0))
                    .map_err(Failure::Wrong)?;
                if tr.on() {
                    samples.paged_ms.push(ms);
                    samples.visited += stats.instances_visited;
                    let (_, s) = timed(|| {
                        std::hint::black_box(opt[i].slice_with_stats(&criteria[i][j]).ok())
                    });
                    samples.opt_ms.push(s * 1e3);
                }
                Ok(())
            },
        )
    };
    let ops = window(&Tracer::new(false), &[], &mut Samples::default());
    let resident: u64 = graphs.iter().map(PagedGraph::resident_bytes).sum();
    let mut layers = BTreeMap::new();
    let traced = if ctx.trace {
        // The same graphs in memory, traversed without shortcuts as the
        // paged backend does, for the slowdown and residency ratios.
        let opt = plan
            .programs
            .iter()
            .map(|p| {
                let session = Session::compile(&p.source).map_err(|d| d.to_string())?;
                let trace = session.run(p.tape.clone());
                let mut o = session.opt(&trace, &OptConfig::default());
                o.shortcuts = false;
                Ok(o)
            })
            .collect::<Result<Vec<_>, String>>()?;
        let before = total_stats(&graphs);
        let tracer = Tracer::new(true);
        let mut samples = Samples::default();
        let traced = window(&tracer, &opt, &mut samples);
        let stats = total_stats(&graphs) - before;
        tracer
            .write(&ctx.spans_path)
            .map_err(|e| format!("writing spans: {e}"))?;
        let rounds = traced.rounds as f64;
        let paged_ms = mean(&samples.paged_ms);
        let opt_ms = mean(&samples.opt_ms);
        let resident_now: u64 = graphs.iter().map(PagedGraph::resident_bytes).sum();
        let opt_bytes: u64 = opt.iter().map(|o| o.graph().size(false).bytes()).sum();
        layers.insert("paged.slice_ms", paged_ms);
        layers.insert("paged.opt_slice_ms", opt_ms);
        layers.insert("paged.slowdown_vs_opt", paged_ms / opt_ms);
        layers.insert("paged.hits", stats.hits as f64 / rounds);
        layers.insert("paged.misses", stats.misses as f64 / rounds);
        layers.insert(
            "paged.hit_ratio",
            ratio(stats.hits, stats.hits + stats.misses),
        );
        layers.insert("paged.bytes_read", stats.bytes_read as f64 / rounds);
        layers.insert("paged.resident_bytes", resident_now as f64);
        layers.insert(
            "paged.spilled_bytes",
            graphs.iter().map(PagedGraph::spilled_bytes).sum::<u64>() as f64,
        );
        layers.insert(
            "paged.resident_vs_opt",
            resident_now as f64 / opt_bytes as f64,
        );
        layers.insert("paged.spill_ms", mean(&spill_ms));
        layers.insert("slice.instances_visited", samples.visited as f64 / rounds);
        Some(traced)
    } else {
        None
    };
    Ok(Report {
        setups_s,
        ops,
        traced,
        tail_pct: 85.0,
        resident_bytes: resident as f64,
        layers,
    })
}

#[derive(Default)]
struct Samples {
    paged_ms: Vec<f64>,
    opt_ms: Vec<f64>,
    visited: u64,
}

fn total_stats(graphs: &[PagedGraph]) -> PagedStats {
    graphs.iter().fold(PagedStats::default(), |acc, g| {
        let s = g.stats();
        PagedStats {
            hits: acc.hits + s.hits,
            misses: acc.misses + s.misses,
            bytes_read: acc.bytes_read + s.bytes_read,
        }
    })
}
