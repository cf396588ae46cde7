//! Spans recorded around calls into the program's layers, plus the
//! order statistics the benchmark reports.
//!
//! A span has a name, start, end, parent span and the id of the
//! operation it belongs to. Spans stay in memory while the window runs
//! and are written out once it ends. A layer's self time is its span's
//! duration minus the time its child spans cover. A disabled tracer
//! records nothing and only calls the closure, so untraced runs execute
//! the same code path.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start: Instant,
    end: Instant,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    op: Cell<u64>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            op: Cell::new(0),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Starts a new operation: later spans carry its id.
    pub fn next_op(&self) {
        self.op.set(self.op.get() + 1);
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                op: self.op.get(),
                parent: self.open.borrow().last().copied(),
                start,
                end: start,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let r = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end = Instant::now();
        r
    }

    /// Self time per span name: `(total ms, span count)`.
    pub fn self_times(&self) -> BTreeMap<&'static str, (f64, u64)> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u128; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += (s.end - s.start).as_nanos();
            }
        }
        let mut out: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let own = (s.end - s.start).as_nanos().saturating_sub(child_ns[i]);
            let e = out.entry(s.name).or_default();
            e.0 += own as f64 / 1e6;
            e.1 += 1;
        }
        out
    }

    /// Durations (ms) of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64() * 1e3)
            .collect()
    }

    /// Writes every span as one tab-separated line:
    /// `id name op parent start_us end_us` (`-` for no parent).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::from("id\tname\top\tparent\tstart_us\tend_us\n");
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{i}\t{}\t{}\t{parent}\t{:.3}\t{:.3}",
                s.name,
                s.op,
                (s.start - self.origin).as_secs_f64() * 1e6,
                (s.end - self.origin).as_secs_f64() * 1e6,
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

/// Nearest-rank percentile `p` (0–100) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of `values` (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of `values`; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}
