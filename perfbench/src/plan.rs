//! Seeded inputs: which suite programs each workload runs, at what scale,
//! on which input tapes, and how slice criteria are drawn. The same
//! `(workload, seed)` always yields the same inputs, in the timed
//! process and in the reference process alike.

use dynslice::workloads::{by_name, Rng};
use dynslice::Criterion;

/// The four workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "cold_pipeline",
    "serve_mix",
    "session_churn",
    "paged_budget",
];

/// One program the workload runs: a suite program's source at the
/// workload's scale plus a seeded input tape.
#[derive(Clone, Debug)]
pub struct Program {
    /// Session name (suite name, suffixed when one program runs on
    /// several tapes).
    pub name: String,
    /// MiniC source.
    pub source: String,
    /// Input tape.
    pub tape: Vec<i64>,
}

/// Everything a workload's inputs are made of.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Workload name.
    pub workload: &'static str,
    /// The programs, in a fixed order.
    pub programs: Vec<Program>,
    /// Criteria drawn per program.
    pub criteria_per_program: usize,
    /// Seed every other draw derives from.
    pub seed: u64,
}

/// Tape length: longer than any main loop at the scales used, so every
/// iteration reads a seeded value.
const TAPE_LEN: usize = 512;

impl Plan {
    /// The inputs of `workload` for `seed`.
    pub fn new(workload: &str, seed: u64) -> Result<Plan, String> {
        let (workload, names, scale, tapes_each, criteria): (
            &'static str,
            &[&str],
            f64,
            usize,
            usize,
        ) = match workload {
            "cold_pipeline" => (
                "cold_pipeline",
                &[
                    "300.twolf",
                    "256.bzip2",
                    "255.vortex",
                    "197.parser",
                    "181.mcf",
                    "164.gzip",
                    "134.perl",
                    "130.li",
                    "126.gcc",
                    "099.go",
                ],
                0.15,
                4,
                3,
            ),
            "serve_mix" => (
                "serve_mix",
                &["255.vortex", "164.gzip", "134.perl", "130.li", "256.bzip2"],
                0.2,
                2,
                SERVE_POOL,
            ),
            "session_churn" => ("session_churn", &["130.li"], 0.2, 6, 4),
            "paged_budget" => (
                "paged_budget",
                &["300.twolf", "181.mcf", "099.go"],
                0.15,
                2,
                4,
            ),
            other => {
                return Err(format!(
                    "unknown workload `{other}` (expected one of {})",
                    WORKLOADS.join(", ")
                ))
            }
        };
        let mut programs = Vec::new();
        for name in names {
            let w = by_name(name).ok_or_else(|| format!("suite program `{name}` is missing"))?;
            let source = w.source(scale);
            for t in 0..tapes_each {
                let mut rng = Rng(mix(seed, &format!("tape/{name}/{t}")));
                let tape = (0..TAPE_LEN).map(|_| rng.below(23) as i64).collect();
                let name = if tapes_each == 1 {
                    name.to_string()
                } else {
                    format!("{name}~{t}")
                };
                programs.push(Program {
                    name,
                    source: source.clone(),
                    tape,
                });
            }
        }
        Ok(Plan {
            workload,
            programs,
            criteria_per_program: criteria,
            seed,
        })
    }

    /// A generator for draws tagged `what`, independent of every other
    /// tag.
    pub fn rng(&self, what: &str) -> Rng {
        Rng(mix(self.seed, &format!("{}/{what}", self.workload)))
    }

    /// Draws `self.criteria_per_program` criteria for program `index`
    /// from the cells its run defined: the sorted cells are cut into that
    /// many equal strata and one cell is drawn from each, so every seed
    /// gets the same mix of regions (globals, locals, heap) and so a
    /// similar slice-cost mix.
    pub fn pick_criteria(&self, index: usize, mut cells: Vec<dynslice::Cell>) -> Vec<Criterion> {
        cells.sort();
        cells.dedup();
        let k = self.criteria_per_program.min(cells.len());
        let mut rng = self.rng(&format!("criteria/{index}"));
        (0..k)
            .map(|i| {
                let lo = i * cells.len() / k;
                let hi = (i + 1) * cells.len() / k;
                Criterion::CellLastDef(cells[lo + rng.below((hi - lo) as u64) as usize])
            })
            .collect()
    }
}

/// Criteria per session in `serve_mix`: the pool its skewed requests draw
/// from, half again as large as serve's default per-session result cache
/// (128 entries).
pub const SERVE_POOL: usize = 192;

/// Mixes a seed with a tag (FNV-1a over the tag, folded into the seed).
fn mix(seed: u64, tag: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for b in tag.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Samples ranks `0..n` with probability proportional to
/// `1 / (rank + 1)^s` (a Zipf law).
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let cdf = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect::<Vec<_>>();
        let total = acc;
        Zipf {
            cdf: cdf.into_iter().map(|c| c / total).collect(),
        }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = (rng.next() >> 11) as f64 / (1u64 << 53) as f64;
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// A seeded permutation of `0..n`.
pub fn permutation(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.below(i as u64 + 1) as usize);
    }
    p
}
