//! Reference answers, computed in a child process so their cost stays out
//! of the timed process's set-up time and peak RSS.
//!
//! The child rebuilds the workload's inputs from the seed, traces each
//! program, draws the criteria, and slices them with the FP full-graph
//! slicer; the LP demand-driven slicer must agree on every criterion.
//! Neither shares graph code with OPT or the paged backend, which are
//! what the timed process measures. The child also checks two properties
//! of every reference slice — the criterion's defining statement is in
//! it, and every statement in it executed — and hands the parent what it
//! needs to check the same properties of every timed answer.

use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use dynslice::criteria::{format_criterion, parse_criterion};
use dynslice::{Criterion, Session, Slicer};

use crate::plan::Plan;

/// One criterion with its reference slice.
#[derive(Clone, Debug)]
pub struct Answer {
    pub criterion: Criterion,
    /// The statement whose instance the criterion names.
    pub def_stmt: u32,
    /// The slice, ascending statement ids.
    pub stmts: Vec<u32>,
}

/// Reference data for one program of the plan.
#[derive(Clone, Debug, Default)]
pub struct Program {
    pub answers: Vec<Answer>,
    /// Which statements executed, indexed by statement id.
    pub executed: Vec<bool>,
    /// FP graph bytes under the repository's size model.
    pub fp_bytes: u64,
    /// Total LP slice time over `answers`, in ms.
    pub lp_slice_ms: f64,
}

impl Program {
    /// Checks one timed answer for criterion `k`: containing the defining
    /// statement, executed throughout, and equal to the reference slice.
    /// The properties come first, so a wrong answer names the one it
    /// breaks.
    pub fn check(&self, k: usize, got: impl IntoIterator<Item = u32>) -> Result<(), String> {
        let want = &self.answers[k];
        let got: Vec<u32> = got.into_iter().collect();
        if !got.contains(&want.def_stmt) {
            return Err(format!(
                "{}: defining statement s{} missing",
                format_criterion(&want.criterion),
                want.def_stmt
            ));
        }
        if let Some(s) = got
            .iter()
            .find(|&&s| !self.executed.get(s as usize).copied().unwrap_or(false))
        {
            return Err(format!(
                "{}: statement s{s} never executed",
                format_criterion(&want.criterion)
            ));
        }
        if got != want.stmts {
            return Err(format!(
                "{}: slice of {} statements, reference has {}",
                format_criterion(&want.criterion),
                got.len(),
                want.stmts.len()
            ));
        }
        Ok(())
    }
}

/// Runs the reference child for `plan` and reads its answers back.
pub fn compute_in_child(plan: &Plan, scratch: &Path) -> Result<Vec<Program>, String> {
    let out = scratch.join("reference.txt");
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let status = Command::new(exe)
        .args(["reference", "--workload", plan.workload])
        .args(["--seed", &plan.seed.to_string()])
        .arg("--scratch")
        .arg(scratch)
        .arg("--out")
        .arg(&out)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot start the reference process: {e}"))?;
    if !status.success() {
        return Err(format!("reference process failed ({status})"));
    }
    let text = std::fs::read_to_string(&out).map_err(|e| format!("reading references: {e}"))?;
    let refs = parse(&text)?;
    if refs.len() != plan.programs.len() || refs.iter().any(|p| p.answers.is_empty()) {
        return Err("reference file does not cover every program".into());
    }
    Ok(refs)
}

/// The child's work: computes and cross-checks every reference answer
/// and writes them to `out`.
pub fn run_child(plan: &Plan, scratch: &Path, out: &Path) -> Result<(), String> {
    let mut text = String::new();
    for (i, p) in plan.programs.iter().enumerate() {
        let session = Session::compile(&p.source).map_err(|d| format!("{}: {d}", p.name))?;
        let trace = session.run(p.tape.clone());
        if trace.truncated {
            return Err(format!("{}: trace truncated", p.name));
        }
        let fp = session.fp(&trace);
        let lp_path = scratch.join(format!("reference-lp-{i}.bin"));
        let lp = session
            .lp(&trace, &lp_path)
            .map_err(|e| format!("{}: LP build: {e}", p.name))?;
        let criteria = plan.pick_criteria(i, fp.graph().last_def.keys().copied().collect());
        let mut lines = String::new();
        let mut lp_ms = 0.0;
        for c in &criteria {
            let name = format_criterion(c);
            let slice = fp
                .slice(c)
                .map_err(|e| format!("{}: FP {name}: {e}", p.name))?;
            let t = Instant::now();
            let lp_slice = lp
                .slice(c)
                .map_err(|e| format!("{}: LP {name}: {e}", p.name))?;
            lp_ms += t.elapsed().as_secs_f64() * 1e3;
            if lp_slice.stmts != slice.stmts {
                return Err(format!(
                    "{}: FP and LP disagree on {name} ({} vs {} statements)",
                    p.name,
                    slice.len(),
                    lp_slice.len()
                ));
            }
            let def = match c {
                Criterion::CellLastDef(cell) => fp.graph().last_def[cell].0,
                Criterion::Output(k) => fp.graph().outputs[*k].0,
            };
            let stmts: Vec<u32> = slice.stmts.iter().map(|s| s.0).collect();
            if !slice.stmts.contains(&def) {
                return Err(format!(
                    "{}: FP slice of {name} lacks its defining statement",
                    p.name
                ));
            }
            if let Some(s) = stmts.iter().find(|&&s| !trace.executed[s as usize]) {
                return Err(format!(
                    "{}: FP slice of {name} holds unexecuted s{s}",
                    p.name
                ));
            }
            let _ = writeln!(lines, "criterion {name} {} {}", def.0, csv(&stmts));
        }
        drop(lp);
        std::fs::remove_file(&lp_path).ok();
        let executed: Vec<u32> = trace
            .executed
            .iter()
            .enumerate()
            .filter(|(_, e)| **e)
            .map(|(s, _)| s as u32)
            .collect();
        let _ = writeln!(
            text,
            "program {} {lp_ms} {}",
            fp.graph().size().bytes(),
            csv(&executed)
        );
        text.push_str(&lines);
    }
    std::fs::write(out, text).map_err(|e| format!("writing references: {e}"))
}

fn csv(ids: &[u32]) -> String {
    let mut s = String::with_capacity(ids.len() * 4);
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{id}");
    }
    if s.is_empty() {
        s.push('-');
    }
    s
}

fn ids(field: &str) -> Result<Vec<u32>, String> {
    if field == "-" {
        return Ok(Vec::new());
    }
    field
        .split(',')
        .map(|v| v.parse().map_err(|_| format!("bad id `{v}`")))
        .collect()
}

fn parse(text: &str) -> Result<Vec<Program>, String> {
    let mut out: Vec<Program> = Vec::new();
    for line in text.lines() {
        let f: Vec<&str> = line.split(' ').collect();
        match f.as_slice() {
            ["program", bytes, lp_ms, executed] => {
                let mut flags = Vec::new();
                for s in ids(executed)? {
                    if flags.len() <= s as usize {
                        flags.resize(s as usize + 1, false);
                    }
                    flags[s as usize] = true;
                }
                out.push(Program {
                    answers: Vec::new(),
                    executed: flags,
                    fp_bytes: bytes.parse().map_err(|_| "bad fp bytes")?,
                    lp_slice_ms: lp_ms.parse().map_err(|_| "bad lp time")?,
                });
            }
            ["criterion", c, def, stmts] => {
                let program = out.last_mut().ok_or("criterion before any program")?;
                program.answers.push(Answer {
                    criterion: parse_criterion(c)?,
                    def_stmt: def.parse().map_err(|_| "bad defining statement")?,
                    stmts: ids(stmts)?,
                });
            }
            _ => return Err(format!("bad reference line `{line}`")),
        }
    }
    Ok(out)
}
