//! The two service workloads, both against `dynslice::serve` on a
//! loopback TCP port, driven by one closed-loop client on one connection.
//!
//! * `serve_mix`: read-mostly traffic. The server holds resident OPT
//!   sessions of several suite programs; sessions and criteria are drawn
//!   with skewed popularity, so the per-session result cache answers most
//!   requests and misses carry the traversal cost.
//! * `session_churn`: writes beside reads. The workload visits more
//!   sessions than the memory budget holds; each operation is an async
//!   `load` restored from the snapshot directory warmed in set-up,
//!   followed by a `wait` slice, so every operation admits a session,
//!   evicts one, decodes a snapshot and waits on the loader.
//!
//! The server runs in this process on its own threads (the program's
//! code path: `serve` over a `SessionManager`), so its counters can be
//! read directly between windows.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use dynslice::protocol::{Request, Response, ResponseBody};
use dynslice::{
    serve, snapshot, Algo, AnySlicer, Criterion, OptConfig, OptSlicer, OwnedSlicer,
    ProgramAnalysis, Registry, ServeConfig, ServeSummary, Session, SessionManager, SliceClient,
    Slicer, SlicerConfig, Transport,
};

use crate::cold::ratio;
use crate::plan::{permutation, Plan, Zipf};
use crate::reference;
use crate::span::{mean, median, Tracer};
use crate::{drive, timed, write_sources, Ctx, Failure, Report, SETUPS};

/// Requests in one `serve_mix` round: enough that each session's round
/// asks for more distinct criteria than its result cache holds, since the
/// window repeats the round.
const MIX_ROUND: usize = 10_000;
/// Zipf exponents of session and criterion popularity in `serve_mix`.
const SESSION_SKEW: f64 = 0.8;
const CRITERION_SKEW: f64 = 0.8;
/// Memory budget of `session_churn`, in MB: room for two of its six
/// sessions, never three.
const CHURN_BUDGET_MB: f64 = 0.5;
/// Server worker threads. One closed-loop client never has two requests
/// in flight, and one worker keeps every session build on one thread (and
/// one allocator arena), which keeps peak RSS steady from run to run.
const WORKERS: usize = 1;
/// Health probes timed after the traced `serve_mix` window.
const HEALTH_PROBES: usize = 400;

/// The sessionless default trace every `serve` instance is launched with.
const DEFAULT_PROGRAM: &str = "fn main() { print 1; }";

/// A `serve` instance on its own thread.
struct Server {
    manager: Arc<SessionManager>,
    reg: Arc<Registry>,
    addr: String,
    thread: JoinHandle<io::Result<ServeSummary>>,
}

impl Server {
    fn start(
        manager: SessionManager,
        config: ServeConfig,
        scratch: &Path,
    ) -> Result<Server, String> {
        let reg = Arc::new(Registry::new());
        let manager = Arc::new(manager);
        let default = OwnedSlicer::build(
            DEFAULT_PROGRAM,
            Vec::new(),
            Algo::Opt,
            &slicer_config(scratch),
            &reg,
        )
        .map_err(|e| format!("default session: {e}"))?;
        let transport =
            Transport::tcp("127.0.0.1:0").map_err(|e| format!("binding a loopback port: {e}"))?;
        let addr = transport
            .local_addr()
            .ok_or("TCP transport has no address")?
            .to_string();
        let thread = std::thread::spawn({
            let (manager, reg) = (Arc::clone(&manager), Arc::clone(&reg));
            move || serve(default.slicer(), &manager, &config, vec![transport], &reg)
        });
        Ok(Server {
            manager,
            reg,
            addr,
            thread,
        })
    }

    fn connect(&self) -> Result<SliceClient, String> {
        SliceClient::builder()
            .tcp(self.addr.clone())
            .connect()
            .map_err(|e| format!("connect: {e}"))
    }

    /// Shuts the server down over `client` and joins its thread.
    fn stop(self, mut client: SliceClient) -> Result<(), String> {
        client.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        drop(client);
        self.thread
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("serve: {e}"))?;
        Ok(())
    }

    /// Sum of the resident sessions' weights (what the budget charges).
    fn resident_bytes(&self) -> u64 {
        self.manager.list().iter().map(|s| s.resident_bytes).sum()
    }

    /// Result-cache hits and misses over every session, retired ones too.
    fn cache_counts(&self) -> (u64, u64) {
        self.manager
            .final_reports()
            .values()
            .fold((0, 0), |(h, m), r| {
                (
                    h + r.counters.get("cache_hits").copied().unwrap_or(0),
                    m + r.counters.get("cache_misses").copied().unwrap_or(0),
                )
            })
    }

    /// The counters this module reports, for before/after deltas.
    fn counters(&self) -> BTreeMap<&'static str, u64> {
        let c = self.manager.counters();
        let (hits, misses) = self.cache_counts();
        BTreeMap::from([
            ("sessions.cache_hits", hits),
            ("sessions.cache_misses", misses),
            ("sessions.loaded", c.loaded),
            ("sessions.evicted", c.evicted),
            ("sessions.rejected", c.rejected),
            ("snapshot.hit", self.reg.counter("snapshot.hit")),
            ("snapshot.miss", self.reg.counter("snapshot.miss")),
            (
                "slice.instances_visited",
                self.reg.counter("opt.instances_visited"),
            ),
            ("slice.shortcut_hits", self.reg.counter("opt.shortcut_hits")),
            (
                "slice.shortcuts_materialized",
                self.reg.counter("opt.shortcuts_materialized"),
            ),
        ])
    }
}

fn slicer_config(scratch: &Path) -> SlicerConfig {
    SlicerConfig {
        scratch_dir: scratch.to_path_buf(),
        ..SlicerConfig::default()
    }
}

/// Counter deltas between two [`Server::counters`] readings, per round.
fn deltas(
    before: &BTreeMap<&'static str, u64>,
    after: &BTreeMap<&'static str, u64>,
    rounds: u64,
    out: &mut BTreeMap<&'static str, f64>,
) {
    for (k, v) in after {
        out.insert(k, (v - before[k]) as f64 / rounds as f64);
    }
    let hits = after["sessions.cache_hits"] - before["sessions.cache_hits"];
    let misses = after["sessions.cache_misses"] - before["sessions.cache_misses"];
    out.insert("sessions.cache_hit_ratio", ratio(hits, hits + misses));
    let sc_hits = after["slice.shortcut_hits"] - before["slice.shortcut_hits"];
    let sc_made = after["slice.shortcuts_materialized"] - before["slice.shortcuts_materialized"];
    out.insert(
        "slice.shortcut_hit_ratio",
        ratio(sc_hits, sc_hits + sc_made),
    );
}

fn answer(resp: Response) -> Result<(Vec<u32>, bool), Failure> {
    match resp.body {
        ResponseBody::Slice { stmts, cached, .. } => Ok((stmts, cached)),
        ResponseBody::Error { kind, message } => {
            Err(Failure::Error(format!("{}: {message}", kind.as_str())))
        }
        other => Err(Failure::Error(format!("expected a slice, got {other:?}"))),
    }
}

/// One program compiled, traced and built in this process, for the
/// in-process slice times the traced windows subtract.
fn mirror(p: &crate::plan::Program) -> Result<OptSlicer, String> {
    let s = Session::compile(&p.source).map_err(|d| d.to_string())?;
    let t = s.run(p.tape.clone());
    Ok(s.opt(&t, &OptConfig::default()))
}

pub fn run_mix(plan: &Plan, refs: &[reference::Program], ctx: &Ctx) -> Result<Report, String> {
    crate::pin_to_one_cpu()?;
    let paths = write_sources(plan, &ctx.scratch)?;
    let n = plan.programs.len();
    let config = ServeConfig {
        workers: WORKERS,
        ..ServeConfig::default()
    };
    let manager = SessionManager::new(
        Algo::Opt,
        slicer_config(&ctx.scratch),
        n,
        None,
        config.cache_capacity,
    );
    let server = Server::start(manager, config, &ctx.scratch)?;
    let (mut client, setups_s) = set_up(&server, plan, &paths, || Ok(()))?;

    // One round: requests drawn with skewed popularity. Session ranks
    // follow plan order; criterion ranks are a seeded shuffle of each
    // session's pool, independent of slice size, so answers of every size
    // are among the popular ones.
    let mut rng = plan.rng("requests");
    let sessions = Zipf::new(n, SESSION_SKEW);
    let pools: Vec<(Zipf, Vec<usize>)> = refs
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let ranks = permutation(r.answers.len(), &mut plan.rng(&format!("ranks/{i}")));
            (Zipf::new(ranks.len(), CRITERION_SKEW), ranks)
        })
        .collect();
    let round: Vec<(usize, usize)> = (0..MIX_ROUND)
        .map(|_| {
            let s = sessions.sample(&mut rng);
            let (zipf, ranks) = &pools[s];
            (s, ranks[zipf.sample(&mut rng)])
        })
        .collect();
    let criteria: Vec<Vec<Criterion>> = refs
        .iter()
        .map(|r| r.answers.iter().map(|a| a.criterion).collect())
        .collect();

    let mut next_id = 1000u64;
    let mut window = |client: &mut SliceClient, tracer: &Tracer, extra: &mut MixTrace| {
        drive(
            &round,
            &ctx.window,
            tracer,
            |&(s, k), _| {
                next_id += 1;
                let req = Request::slice_in(next_id, &plan.programs[s].name, &criteria[s][k]);
                let resp = client.roundtrip(&req);
                (req, resp)
            },
            |&(s, k), (req, resp), ms, tr| {
                let resp = resp.map_err(|e| Failure::Error(format!("transport: {e}")))?;
                let line = tr.on().then(|| resp.to_json());
                let (stmts, cached) = answer(resp)?;
                refs[s]
                    .check(k, stmts.iter().copied())
                    .map_err(Failure::Wrong)?;
                if let Some(line) = line {
                    let slice_ms = (!cached).then(|| {
                        let mirror = &extra.mirrors[s];
                        timed(|| {
                            std::hint::black_box(mirror.slice_with_stats(&criteria[s][k]).ok())
                        })
                        .1 * 1e3
                    });
                    extra.record(&req, &line, ms, slice_ms);
                }
                Ok(())
            },
        )
    };
    let ops = window(&mut client, &Tracer::new(false), &mut MixTrace::default());
    let resident = server.resident_bytes();
    let mut layers = BTreeMap::new();
    let traced = if ctx.trace {
        let mut extra = MixTrace::default();
        for (p, r) in plan.programs.iter().zip(refs) {
            let m = mirror(p)?;
            // Warm the memo like the server's graphs, which have already
            // answered the untraced window's misses.
            for a in &r.answers {
                m.slice_with_stats(&a.criterion)
                    .map_err(|e| e.to_string())?;
            }
            extra.mirrors.push(m);
        }
        let before = server.counters();
        let tracer = Tracer::new(true);
        let traced = window(&mut client, &tracer, &mut extra);
        let after = server.counters();
        tracer
            .write(&ctx.spans_path)
            .map_err(|e| format!("writing spans: {e}"))?;
        deltas(&before, &after, traced.rounds, &mut layers);
        let health: Vec<f64> = (0..HEALTH_PROBES)
            .map(|_| {
                let t = Instant::now();
                client.health().map(|_| t.elapsed().as_secs_f64() * 1e6)
            })
            .collect::<io::Result<_>>()
            .map_err(|e| format!("health: {e}"))?;
        let health_us = median(&health);
        let hit_us = median(&extra.hit_us);
        layers.insert("server.health_rtt_us", health_us);
        layers.insert("server.hit_rtt_us", hit_us);
        layers.insert("server.dispatch_us", hit_us - health_us);
        layers.insert("server.miss_overhead_us", median(&extra.miss_overhead_us));
        layers.insert("protocol.encode_us", median(&extra.encode_us));
        layers.insert("protocol.decode_us", median(&extra.decode_us));
        layers.insert("net.bytes_per_op", mean(&extra.bytes));
        layers.insert("slice.ms", mean(&extra.slice_ms));
        layers.insert("sessions.resident_bytes", server.resident_bytes() as f64);
        Some(traced)
    } else {
        None
    };
    server.stop(client)?;
    Ok(Report {
        setups_s,
        ops,
        traced,
        tail_pct: 95.0,
        resident_bytes: resident as f64,
        layers,
    })
}

/// What the traced `serve_mix` window samples besides spans.
#[derive(Default)]
struct MixTrace {
    mirrors: Vec<OptSlicer>,
    hit_us: Vec<f64>,
    miss_overhead_us: Vec<f64>,
    slice_ms: Vec<f64>,
    encode_us: Vec<f64>,
    decode_us: Vec<f64>,
    bytes: Vec<f64>,
}

impl MixTrace {
    /// Samples one answered request: its round trip, the codec on its
    /// own request and response lines, and for a miss (`slice_ms` is the
    /// in-process slice time) the overhead around the traversal.
    fn record(&mut self, req: &Request, line: &str, ms: f64, slice_ms: Option<f64>) {
        let (encoded, enc_s) = timed(|| req.to_json());
        let (_, dec_s) = timed(|| std::hint::black_box(Response::parse(line)));
        self.encode_us.push(enc_s * 1e6);
        self.decode_us.push(dec_s * 1e6);
        self.bytes.push((encoded.len() + line.len() + 2) as f64);
        match slice_ms {
            None => self.hit_us.push(ms * 1e3),
            Some(slice) => {
                self.slice_ms.push(slice);
                self.miss_overhead_us.push((ms - slice) * 1e3);
            }
        }
    }
}

/// The set-up both service workloads time: dial and handshake one
/// connection, then load every program as a named OPT session (blocking
/// loads, so each build finishes before the next starts). Runs
/// [`SETUPS`] times against one server; between repetitions every
/// session is unloaded and `reset` runs, untimed. Returns the last
/// connection.
fn set_up(
    server: &Server,
    plan: &Plan,
    paths: &[PathBuf],
    mut reset: impl FnMut() -> Result<(), String>,
) -> Result<(SliceClient, Vec<f64>), String> {
    let mut setups_s = Vec::new();
    let mut client: Option<SliceClient> = None;
    for _ in 0..SETUPS {
        if let Some(mut old) = client.take() {
            for p in &plan.programs {
                // Sessions the budget evicted answer `unknown_session`.
                old.unload(&p.name)
                    .map_err(|e| format!("unload {}: {e}", p.name))?;
            }
            reset()?;
        }
        let (started, s) = timed(|| -> Result<SliceClient, String> {
            let mut c = server.connect()?;
            for (i, p) in plan.programs.iter().enumerate() {
                let path = paths[i].to_string_lossy();
                let resp = c
                    .roundtrip(&Request::load(
                        i as u64,
                        &p.name,
                        &path,
                        &p.tape,
                        Some("opt"),
                    ))
                    .map_err(|e| format!("load {}: {e}", p.name))?;
                if !matches!(resp.body, ResponseBody::Loaded { .. }) {
                    return Err(format!("load {}: {:?}", p.name, resp.body));
                }
            }
            Ok(c)
        });
        client = Some(started?);
        setups_s.push(s);
    }
    Ok((client.expect("at least one set-up"), setups_s))
}

pub fn run_churn(plan: &Plan, refs: &[reference::Program], ctx: &Ctx) -> Result<Report, String> {
    crate::pin_to_one_cpu()?;
    let paths = write_sources(plan, &ctx.scratch)?;
    let n = plan.programs.len();
    let snapshot_dir = ctx.scratch.join("snapshots");
    let config = ServeConfig {
        workers: WORKERS,
        ..ServeConfig::default()
    };
    let mut manager = SessionManager::new(
        Algo::Opt,
        slicer_config(&ctx.scratch),
        n,
        Some((CHURN_BUDGET_MB * 1024.0 * 1024.0) as u64),
        config.cache_capacity,
    );
    manager.set_snapshot_dir(&snapshot_dir);
    let server = Server::start(manager, config, &ctx.scratch)?;
    // Each repetition starts from an empty snapshot directory, so every
    // set-up builds and encodes every snapshot.
    let (mut client, setups_s) = set_up(&server, plan, &paths, || {
        std::fs::remove_dir_all(&snapshot_dir).or_else(|e| match e.kind() {
            io::ErrorKind::NotFound => Ok(()),
            _ => Err(format!("clearing snapshots: {e}")),
        })
    })?;

    // One round: every session once per criterion index, in a seeded
    // visiting order. Each session comes back only after all the others,
    // so it has always been evicted by then.
    let order = permutation(n, &mut plan.rng("visits"));
    let k = refs.iter().map(|r| r.answers.len()).min().unwrap_or(0);
    let round: Vec<(usize, usize)> = (0..k)
        .flat_map(|j| order.iter().map(move |&i| (i, j)))
        .collect();

    let mut next_id = 1000u64;
    let mut window = |client: &mut SliceClient, tracer: &Tracer, extra: &mut ChurnTrace| {
        drive(
            &round,
            &ctx.window,
            tracer,
            |&(s, j), tr| {
                let p = &plan.programs[s];
                let path = paths[s].to_string_lossy();
                next_id += 2;
                let ack = tr.span("load_ack", || {
                    client.roundtrip(&Request::load_async(
                        next_id,
                        &p.name,
                        &path,
                        &p.tape,
                        Some("opt"),
                    ))
                });
                let t = Instant::now();
                let slice = tr.span("wait_slice", || {
                    let crit = &refs[s].answers[j].criterion;
                    client.roundtrip(&Request {
                        wait: true,
                        ..Request::slice_in(next_id + 1, &p.name, crit)
                    })
                });
                (ack, slice, t.elapsed().as_secs_f64() * 1e3)
            },
            |&(s, j), (ack, slice, wait_ms), _ms, tr| {
                match ack
                    .map_err(|e| Failure::Error(format!("transport: {e}")))?
                    .body
                {
                    ResponseBody::Loading { .. } => {}
                    other => {
                        return Err(Failure::Error(format!(
                            "expected a loading ack, got {other:?}"
                        )))
                    }
                }
                let slice = slice.map_err(|e| Failure::Error(format!("transport: {e}")))?;
                let (stmts, _) = answer(slice)?;
                refs[s]
                    .check(j, stmts.iter().copied())
                    .map_err(Failure::Wrong)?;
                if tr.on() {
                    extra
                        .record(
                            &plan.programs[s],
                            &refs[s].answers[j].criterion,
                            wait_ms,
                            tr,
                        )
                        .map_err(Failure::Error)?;
                }
                Ok(())
            },
        )
    };
    let ops = window(&mut client, &Tracer::new(false), &mut ChurnTrace::default());
    let resident = server.resident_bytes();
    let mut layers = BTreeMap::new();
    let traced = if ctx.trace {
        let mut extra = ChurnTrace {
            dir: snapshot_dir.clone(),
            ..ChurnTrace::default()
        };
        let before = server.counters();
        let tracer = Tracer::new(true);
        let traced = window(&mut client, &tracer, &mut extra);
        let after = server.counters();
        tracer
            .write(&ctx.spans_path)
            .map_err(|e| format!("writing spans: {e}"))?;
        deltas(&before, &after, traced.rounds, &mut layers);
        for (name, span) in [
            ("snapshot.decode_ms", "inproc.decode"),
            ("lang.compile_ms", "inproc.lang"),
            ("analysis.ms", "inproc.analysis"),
            ("slice.ms", "inproc.slice"),
            ("sessions.weigh_ms", "inproc.weigh"),
        ] {
            layers.insert(name, mean(&tracer.durations(span)));
        }
        layers.insert("sessions.load_wait_ms", median(&extra.load_wait_ms));
        layers.insert("sessions.resident_bytes", server.resident_bytes() as f64);
        // Encode cost and size of the snapshots set-up wrote.
        let mut encode_ms = Vec::new();
        let mut bytes = Vec::new();
        for p in &plan.programs {
            let raw = std::fs::read(snapshot_path(&snapshot_dir, p))
                .map_err(|e| format!("reading snapshot of {}: {e}", p.name))?;
            let snap = snapshot::decode(&raw).map_err(|e| e.to_string())?;
            encode_ms.push(timed(|| std::hint::black_box(snapshot::encode(&snap))).1 * 1e3);
            bytes.push(raw.len() as f64);
        }
        layers.insert("snapshot.encode_ms", mean(&encode_ms));
        layers.insert("snapshot.bytes", mean(&bytes));
        layers.insert("slice.stmts", ratio(extra.stmts, traced.attempted()));
        Some(traced)
    } else {
        None
    };
    server.stop(client)?;
    Ok(Report {
        setups_s,
        ops,
        traced,
        tail_pct: 95.0,
        resident_bytes: resident as f64,
        layers,
    })
}

fn snapshot_path(dir: &Path, p: &crate::plan::Program) -> PathBuf {
    let digest = snapshot::digest(&p.source, &p.tape, &OptConfig::default());
    dir.join(format!("{digest:016x}.dsnap"))
}

/// What the traced `session_churn` window samples besides spans.
#[derive(Default)]
struct ChurnTrace {
    dir: PathBuf,
    load_wait_ms: Vec<f64>,
    stmts: u64,
}

impl ChurnTrace {
    /// Replays the server's restore in this process, one span per layer
    /// (snapshot decode, compile, analyses, admission weighing, slice),
    /// and takes the slice time off the wait the client saw.
    fn record(
        &mut self,
        p: &crate::plan::Program,
        c: &Criterion,
        wait_ms: f64,
        tr: &Tracer,
    ) -> Result<(), String> {
        let raw = std::fs::read(snapshot_path(&self.dir, p)).map_err(|e| e.to_string())?;
        let snap = tr
            .span("inproc.decode", || snapshot::decode(&raw))
            .map_err(|e| e.to_string())?;
        let program = tr
            .span("inproc.lang", || dynslice::compile(&snap.source))
            .map_err(|d| d.to_string())?;
        tr.span("inproc.analysis", || {
            std::hint::black_box(ProgramAnalysis::compute(&program))
        });
        // Admission weighs the new session before the slice runs.
        let held = AnySlicer::Opt(OptSlicer::from_graph(snap.graph));
        tr.span("inproc.weigh", || {
            std::hint::black_box(held.resident_bytes())
        });
        let t = Instant::now();
        let (slice, _) = tr
            .span("inproc.slice", || held.slice_with_stats(c))
            .map_err(|e| e.to_string())?;
        self.load_wait_ms
            .push(wait_ms - t.elapsed().as_secs_f64() * 1e3);
        self.stmts += slice.len() as u64;
        Ok(())
    }
}
