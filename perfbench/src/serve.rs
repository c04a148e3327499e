//! `serve`: an in-process warehouse service on `127.0.0.1:0`, driven
//! closed-loop by one client (CI uploaders wait for the reply). The
//! traffic follows the per-build triage workflow the service is built for
//! (README "Serve", DESIGN §14): a build uploads its T1–T8 traces under
//! one build id, the upload round is repeated and answered from the
//! dedup index (as `bench-snapshot --serve` measures it), and the build's
//! catalogue is queried. One operation is one build. The traces are
//! recorded during set-up, so the VM does nothing in the timed loop:
//! trace decode and the warehouse do all the work, with writes next to
//! reads.
//!
//! The request count of a round is fixed, so the warehouse ends every
//! round at the same size; a run repeats rounds on a fresh warehouse until
//! its time is up.
//!
//! The benchmark process is pinned to one vCPU, so client, server and
//! handler threads hand requests over on one CPU. Unpinned, those
//! hand-offs cross between vCPUs, and runs of the same code spread 1.4–2.8
//! times as wide in build latency and throughput with two clients, and
//! 3.4–3.6 times with one (perfbench/README.md, "The host"). The client
//! times the calibration sort between builds, so each build is converted
//! to the reference host speed with samples taken next to it.

use std::collections::BTreeSet;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::time::Instant;

use helgrind_core::{
    analyze_trace_bytes, warning_fingerprint, DetectorConfig, EraserDetector, ReplayDetector,
    SuppressionSet,
};
use raceline_trace::{decode_epoch, parse_trace, TraceWriter};
use raceline_warehouse::render::CATALOGUE_MAGIC;
use raceline_warehouse::wlog::TraceWarnings;
use raceline_warehouse::{
    analyze_for_warehouse, client, content_hash, json, render_catalogue, server, Service,
    ServiceConfig, WarehouseLog,
};
use vexec::filter::FilterTool;
use vexec::sched::RoundRobin;
use vexec::vm::{run_program, VmOptions};

use crate::bench::{
    guarded, Counters, Layers, OpResult, Outcome, Window, Work, CALIB_EVERY, MIN_OPS,
};
use crate::host::Calibrator;
use crate::spans::{append_spans, Ledger, Span, Split, Tracer};
use crate::stack;
use crate::stats::shuffle;

/// Client connections: one, since the benchmark runs on one vCPU (two
/// clients on one vCPU time-slice each other's builds).
pub const CLIENTS: usize = 1;
/// Concurrent analysis slots of the service (`serve --jobs`).
pub const JOBS: usize = 2;
/// Regression cases a build uploads: T1–T8.
pub const CASES: usize = 8;
/// Requests of one build: its upload, the repeated upload, one query.
pub const PER_BUILD: usize = 2 * CASES + 1;
/// Builds per client per round: 176 × 17 = 2,992 requests, the whole
/// number of builds nearest the 3,000-request probe the workload was
/// designed from.
pub const BUILDS_PER_CLIENT: usize = 176;
/// Builds per client in the set-up warm-up round.
const WARMUP_BUILDS: usize = 1;
const ENGINE: &str = "hwlc-dr";

#[derive(Clone, Copy, Debug)]
enum Req {
    Fresh { build: u64, case: usize },
    Dup { build: u64, case: usize },
    Query,
}

/// One recorded regression case and its known answers.
struct Case {
    bytes: Vec<u8>,
    hash: u64,
    events: u64,
    /// Distinct warnings of the inline `hwlc-dr` check of the program.
    inline_warnings: u64,
    /// The case's warnings as the sequential fold commits them.
    warnings: TraceWarnings,
}

/// A directory inside the working tree that is removed when dropped, on
/// success, failure or unwinding panic alike.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> Result<Self, String> {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::current_dir()
            .map_err(|e| format!("cwd: {e}"))?
            .join(".perfbench-tmp")
            .join(format!("{name}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(TempDir(dir))
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The parent goes too once no other run uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

pub struct Serve {
    cases: Vec<Case>,
    plan: Vec<Vec<Req>>,
    tmp: TempDir,
    rounds: u64,
}

/// Per-client request lists, build by build: the build's T1–T8 uploads,
/// the same eight uploaded again (each answered as a duplicate), then a
/// catalogue query. The seed orders the cases within each upload round.
/// Build ids are disjoint between clients and a duplicate repeats its own
/// client's earlier upload, so every answer is known whatever the
/// interleaving.
fn plan(seed: u64) -> Vec<Vec<Req>> {
    (0..CLIENTS)
        .map(|c| {
            let mut rng =
                vexec::SplitMix64::new(seed ^ (c as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut reqs = Vec::with_capacity(BUILDS_PER_CLIENT * PER_BUILD);
            for k in 0..BUILDS_PER_CLIENT {
                let build = 1 + (c + CLIENTS * k) as u64;
                for dup in [false, true] {
                    let mut cases: Vec<usize> = (0..CASES).collect();
                    shuffle(&mut cases, rng.next_u64());
                    reqs.extend(cases.into_iter().map(|case| {
                        if dup {
                            Req::Dup { build, case }
                        } else {
                            Req::Fresh { build, case }
                        }
                    }));
                }
                reqs.push(Req::Query);
            }
            reqs
        })
        .collect()
}

fn service(spool: PathBuf) -> Result<Service, String> {
    Service::open(ServiceConfig {
        spool,
        engine: ENGINE.to_string(),
        hb_reference: false,
        jobs: JOBS,
    })
}

fn decode_only(bytes: &[u8]) -> Result<usize, String> {
    let parsed = parse_trace(bytes).map_err(|e| e.to_string())?;
    let nsyms = parsed.header.symbols.len() as u32;
    let mut records = 0;
    for desc in &parsed.epochs {
        records += decode_epoch(bytes, desc, nsyms).map_err(|e| e.to_string())?.len();
    }
    Ok(records)
}

/// What one client thread of one round produced.
#[derive(Default)]
struct ClientRun {
    /// Latency of each build, ms.
    latency_ms: Vec<f64>,
    /// Midpoint of each build, s on the window's time axis, when the
    /// round calibrates.
    build_at_s: Vec<f64>,
    /// Calibration samples taken between builds: s on the window's time
    /// axis, and sort ms.
    calib: Vec<(f64, f64)>,
    /// Time the client spent calibrating, s: kept out of the window.
    calib_s: f64,
    results: Vec<OpResult>,
    ledger: Ledger,
    counters: Counters,
    dups: u64,
    submits: u64,
    spans: Vec<Span>,
}

impl ClientRun {
    /// Record one request's answer.
    fn tally(&mut self, req: &Req, r: OpResult) {
        if matches!(req, Req::Fresh { .. } | Req::Dup { .. }) {
            self.submits += 1;
        }
        if matches!(req, Req::Dup { .. }) && r.is_ok() {
            self.dups += 1;
        }
        self.results.push(r);
    }
}

/// What one round produced.
struct RoundRun {
    clients: Vec<ClientRun>,
    window_s: f64,
    /// The final catalogue check, and the number of builds it holds.
    final_check: OpResult,
    builds: usize,
}

impl Serve {
    /// Record the cases, compute their known answers, plan the requests
    /// and warm up with one short round.
    pub fn setup(
        seed: u64,
        out: &mut Outcome,
        mut tr: Option<(&mut Tracer, &mut Vec<Split>, &mut Counters)>,
    ) -> Result<Self, String> {
        let cfg = DetectorConfig::hwlc_dr();
        let mut cases = Vec::new();
        for tc in sipsim::testcases() {
            let mut bytes = Vec::with_capacity(1 << 20);
            let (built, events) = match tr.as_mut() {
                None => {
                    let built = tc.build();
                    let mut tool = FilterTool::new(TraceWriter::new(&mut bytes));
                    let r = run_program(&built.program, &mut tool, &mut RoundRobin::new());
                    let summary = tool
                        .into_parts()
                        .0
                        .finish(&r.termination, &r.stats, r.faults.as_ref())
                        .map_err(|e| e.to_string())?;
                    (built, summary.events)
                }
                Some((tr, splits, counters)) => {
                    let built = tr.time("sipsim.build_ms", || tc.build());
                    let prog = stack::compile(tr, &built.program);
                    let mut tool = FilterTool::new(TraceWriter::new(&mut bytes));
                    let (r, run) = prog.run_spanned(
                        tr,
                        &mut tool,
                        &mut RoundRobin::new(),
                        VmOptions::default(),
                    );
                    let (writer, filter) = tool.into_parts();
                    let summary = tr
                        .time("trace.encode_ms", || {
                            writer.finish(&r.termination, &r.stats, r.faults.as_ref())
                        })
                        .map_err(|e| e.to_string())?;
                    let split = prog.split(
                        tr,
                        run,
                        &VmOptions::default(),
                        RoundRobin::new,
                        "trace.encode_ms",
                    );
                    stack::count_run(counters, &r, &filter, &prog.code, &[], &split);
                    splits.push(split);
                    counters.add_ratio(
                        "trace.bytes_per_event",
                        summary.bytes as f64,
                        summary.events as f64,
                    );
                    (built, summary.events)
                }
            };
            let mut det = FilterTool::new(EraserDetector::new(cfg));
            run_program(&built.program, &mut det, &mut RoundRobin::new());
            let inline: BTreeSet<String> =
                det.inner().sink.reports().iter().map(warning_fingerprint).collect();
            let (warnings, analyzed_events) = analyze_for_warehouse(&bytes, ENGINE, cfg)?;
            // The recorded trace must replay to the inline answer before it
            // can serve as one.
            let agree = warnings.len() == inline.len() && analyzed_events == events;
            out.record(&if agree {
                Ok(Work::default())
            } else {
                Err(format!(
                    "{}: trace replays to {} warning(s)/{analyzed_events} events, inline {}/{events}",
                    tc.name,
                    warnings.len(),
                    inline.len()
                ))
            });
            let hash = content_hash(&bytes);
            cases.push(Case {
                bytes,
                hash,
                events,
                inline_warnings: inline.len() as u64,
                warnings,
            });
        }
        if cases.len() != CASES {
            return Err(format!("sipsim has {} regression cases, expected {CASES}", cases.len()));
        }
        let mut w = Serve { plan: plan(seed), cases, tmp: TempDir::new("serve")?, rounds: 0 };
        let warm = w.round(WARMUP_BUILDS, Instant::now(), None, false);
        w.count_warmup(&warm, out);
        Ok(w)
    }

    /// One round on a fresh warehouse: the first `builds` builds of each
    /// client's plan, then the final catalogue check against a sequential
    /// fold of the same uploads. Traced, clients span their requests on
    /// the time axis of `epoch`, the start of the run, and time the
    /// reference calls against a twin service. With `axis`, the start of
    /// the measured window, clients take calibration samples between
    /// builds.
    fn round(
        &mut self,
        builds: usize,
        epoch: Instant,
        axis: Option<Instant>,
        traced: bool,
    ) -> RoundRun {
        let per_client = builds * PER_BUILD;
        let n = self.rounds;
        self.rounds += 1;
        let failed_round = |e: String| RoundRun {
            clients: vec![ClientRun {
                results: (0..per_client * CLIENTS).map(|_| Err(e.clone())).collect(),
                ..ClientRun::default()
            }],
            window_s: 0.0,
            final_check: Err(e.clone()),
            builds: 0,
        };
        let spool = self.tmp.path().join(format!("r{n}"));
        let twin_spool = self.tmp.path().join(format!("t{n}"));
        let svc = match service(spool.clone()) {
            Ok(s) => s,
            Err(e) => return failed_round(e),
        };
        let twin = match traced.then(|| service(twin_spool.clone())).transpose() {
            Ok(t) => t,
            Err(e) => return failed_round(e),
        };
        let listener = match TcpListener::bind("127.0.0.1:0") {
            Ok(l) => l,
            Err(e) => return failed_round(format!("bind: {e}")),
        };
        let addr = match listener.local_addr() {
            Ok(a) => a.to_string(),
            Err(e) => return failed_round(format!("local_addr: {e}")),
        };
        let this = &*self;
        let run = std::thread::scope(|s| {
            let server = s.spawn(|| server::serve(&svc, listener));
            let start = Instant::now();
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let (addr, twin) = (&addr, twin.as_ref());
                    s.spawn(move || {
                        let reqs = &this.plan[c][..per_client];
                        let traced = traced.then(|| {
                            let mut tr = Tracer::new(epoch);
                            // Operation ids: client in the high half.
                            tr.set_op((c as u64) << 32);
                            (tr, twin.expect("traced rounds have a twin"))
                        });
                        this.client(addr, reqs, traced, axis)
                    })
                })
                .collect();
            let clients: Vec<ClientRun> = handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| ClientRun {
                        results: vec![Err("client thread panicked".to_string())],
                        ..ClientRun::default()
                    })
                })
                .collect();
            let window_s = start.elapsed().as_secs_f64();
            let (final_check, builds) = this.final_check(&addr, per_client);
            // Shut the server down; retry in case the accept loop raced.
            let mut stopped = false;
            for _ in 0..3 {
                if client::request(&addr, &client::cmd("shutdown"), None).is_ok_and(|r| r.ok()) {
                    stopped = true;
                    break;
                }
            }
            let served = server.join();
            let final_check = match (stopped, served) {
                (true, Ok(Ok(()))) => final_check,
                _ => Err("server did not shut down cleanly".to_string()),
            };
            RoundRun { clients, window_s, final_check, builds }
        });
        drop(svc);
        drop(twin);
        let _ = std::fs::remove_dir_all(&spool);
        let _ = std::fs::remove_dir_all(&twin_spool);
        run
    }

    /// The served catalogue must equal `render_catalogue` of a sequential
    /// fold of the round's fresh uploads.
    fn final_check(&self, addr: &str, per_client: usize) -> (OpResult, usize) {
        let mut oracle = WarehouseLog::new(ENGINE, false);
        for reqs in &self.plan {
            for req in &reqs[..per_client] {
                if let Req::Fresh { build, case } = *req {
                    let c = &self.cases[case];
                    oracle.fold_ingest(build, c.hash, c.events, &c.warnings);
                }
            }
        }
        let builds = oracle.traces.keys().map(|&(b, _)| b).collect::<BTreeSet<_>>().len();
        let expected = render_catalogue(&oracle);
        let r = match client::request(addr, &client::cmd("query"), None) {
            Ok(r) if r.ok() && r.body == expected.as_bytes() => Ok(Work::default()),
            Ok(r) if r.ok() => Err("final catalogue differs from the sequential fold".to_string()),
            Ok(r) => Err(format!("final query refused: {}", r.error().unwrap_or("?"))),
            Err(e) => Err(e),
        };
        (r, builds)
    }

    /// One client's closed loop over its builds. An operation is one
    /// build: its latency runs from the first upload to the answer to the
    /// build's query, the time a CI job spends in triage. With `axis`,
    /// the client times the calibration sort between builds, at most one
    /// per [`CALIB_EVERY`]: the process is pinned to one vCPU, so the
    /// sort runs on the CPU the build ran on, next to it in time.
    fn client(
        &self,
        addr: &str,
        reqs: &[Req],
        mut traced: Option<(Tracer, &Service)>,
        axis: Option<Instant>,
    ) -> ClientRun {
        let mut run = ClientRun::default();
        let mut calib = axis.map(|axis| (axis, Calibrator::new(), Instant::now()));
        for (b, build) in reqs.chunks(PER_BUILD).enumerate() {
            let t = Instant::now();
            let latency_ms = match traced.as_mut() {
                None => {
                    for req in build {
                        let r = guarded(|| self.request(addr, req));
                        run.tally(req, r);
                    }
                    t.elapsed().as_secs_f64() * 1e3
                }
                Some((tr, twin)) => {
                    tr.set_op((tr.op() & !0xFFFF_FFFF) | b as u64);
                    self.traced_build(addr, build, tr, twin, &mut run)
                }
            };
            run.latency_ms.push(latency_ms);
            if let Some((axis, calibrator, last)) = calib.as_mut() {
                let on_axis = |i: Instant| i.duration_since(*axis).as_secs_f64();
                run.build_at_s.push(on_axis(t) + latency_ms / 2e3);
                if last.elapsed() >= CALIB_EVERY {
                    let c = Instant::now();
                    calibrator.sample(on_axis(c));
                    *last = Instant::now();
                    run.calib_s += (*last - c).as_secs_f64();
                }
            }
        }
        if let Some((_, calibrator, _)) = calib {
            run.calib = calibrator.samples;
        }
        run.counters.add_ratio("warehouse.dedup_hit_ratio", run.dups as f64, run.submits as f64);
        if let Some((tr, _)) = traced {
            run.spans = tr.into_spans();
        }
        run
    }

    /// One build under spans, a span per request, then each request's
    /// upload again through the public layers below the wire, to split
    /// it. Returns the traced latency.
    fn traced_build(
        &self,
        addr: &str,
        build: &[Req],
        tr: &mut Tracer,
        twin: &Service,
        run: &mut ClientRun,
    ) -> f64 {
        let root = tr.begin("op");
        let mut ids = Vec::with_capacity(build.len());
        for req in build {
            let id = tr.begin("warehouse.request");
            let r = guarded(|| self.request(addr, req));
            tr.end(id);
            ids.push(id);
            run.tally(req, r);
        }
        tr.end(root);
        // The reference calls run after the build's root span closes, so
        // they are no part of its latency; a duplicate's reference still
        // follows its fresh upload's, as on the wire.
        let splits: Vec<Split> = build
            .iter()
            .zip(ids)
            .map(|(req, span)| Split {
                span,
                refs: self.reference(req, tr, twin),
                top: "warehouse.wire_ms",
            })
            .collect();
        run.ledger.fold(tr.spans(), root, &splits);
        tr.duration_ms(root)
    }

    /// Cumulative reference times of one request's layers below the wire,
    /// for [`Split`]: the upload through `content_hash`, a decode-only
    /// pass, `analyze_trace_bytes`, `analyze_for_warehouse` and
    /// `Service::submit` on the twin warehouse; a query through
    /// `Service::query`.
    fn reference(&self, req: &Req, tr: &mut Tracer, twin: &Service) -> Vec<(&'static str, f64)> {
        let cfg = DetectorConfig::hwlc_dr();
        match *req {
            Req::Fresh { build, case } => {
                let bytes = &self.cases[case].bytes;
                let (_, hash) = tr.measure("ref.hash", || content_hash(bytes));
                let (_, decode) = tr.measure("ref.decode", || decode_only(bytes));
                let (_, replay) = tr.measure("ref.replay", || {
                    let det = ReplayDetector::by_name(ENGINE, cfg, SuppressionSet::new());
                    analyze_trace_bytes(bytes, det, 1, 0).map(|o| o.reports.len())
                });
                let (_, analyze) =
                    tr.measure("ref.analyze", || analyze_for_warehouse(bytes, ENGINE, cfg));
                let (_, submit) = tr.measure("ref.submit", || twin.submit(build, bytes));
                vec![
                    ("trace.decode_ms", decode),
                    ("core.replay.ms", replay),
                    ("warehouse.analyze_ms", analyze),
                    ("warehouse.dedup_ms", analyze + hash),
                    ("warehouse.commit_ms", submit),
                ]
            }
            Req::Dup { build, case } => {
                let (_, submit) =
                    tr.measure("ref.submit", || twin.submit(build, &self.cases[case].bytes));
                vec![("warehouse.dedup_ms", submit)]
            }
            Req::Query => {
                let (_, query) = tr.measure("ref.query", || twin.query().len());
                vec![("warehouse.query_ms", query)]
            }
        }
    }

    /// One request and its answer key.
    fn request(&self, addr: &str, req: &Req) -> OpResult {
        match *req {
            Req::Fresh { build, case } => {
                let c = &self.cases[case];
                let r = client::submit(addr, build, &c.bytes)?;
                if !r.ok() {
                    return Err(format!("submit refused: {}", r.error().unwrap_or("?")));
                }
                let dup = json::get_bool(&r.header, "duplicate");
                let warnings = json::get_u64(&r.header, "warnings");
                let events = json::get_u64(&r.header, "events");
                if dup != Some(false)
                    || warnings != Some(c.inline_warnings)
                    || events != Some(c.events)
                {
                    return Err(format!(
                        "fresh submit of build {build}: duplicate={dup:?} warnings={warnings:?} events={events:?}, \
                         expected false/{}/{}",
                        c.inline_warnings, c.events
                    ));
                }
                Ok(Work { events: c.events, dialogs: 0 })
            }
            Req::Dup { build, case } => {
                let r = client::submit(addr, build, &self.cases[case].bytes)?;
                match (r.ok(), json::get_bool(&r.header, "duplicate")) {
                    (true, Some(true)) => Ok(Work::default()),
                    _ => Err(format!(
                        "duplicate submit of build {build} not answered as a duplicate"
                    )),
                }
            }
            Req::Query => {
                let r = client::request(addr, &client::cmd("query"), None)?;
                if r.ok() && r.body.starts_with(format!("{CATALOGUE_MAGIC}\n").as_bytes()) {
                    Ok(Work::default())
                } else {
                    Err("query did not return a catalogue".to_string())
                }
            }
        }
    }

    /// Count a warm-up round's answers; its timings are set-up time.
    fn count_warmup(&self, round: &RoundRun, out: &mut Outcome) {
        for r in round.clients.iter().flat_map(|c| &c.results) {
            out.record(r);
        }
        out.record(&round.final_check);
    }

    /// Fold a round into the outcome; with layers, traced rounds go to the
    /// ledger and untraced ones to the twin latencies.
    fn count(&self, round: RoundRun, out: &mut Outcome, layers: Option<(&mut Layers, bool)>) {
        for c in &round.clients {
            for r in &c.results {
                out.record(r);
                if let Ok(work) = r {
                    out.work.events += work.events;
                    out.completed += 1;
                }
            }
        }
        out.record(&round.final_check);
        match layers {
            None => {
                for c in &round.clients {
                    out.latency_ms.extend_from_slice(&c.latency_ms);
                    out.op_at_s.extend_from_slice(&c.build_at_s);
                    // One client: its calibration paused the whole round.
                    out.window_s -= c.calib_s;
                }
                out.window_s += round.window_s;
            }
            Some((layers, true)) => {
                out.latency_ms
                    .extend(round.clients.iter().flat_map(|c| c.latency_ms.iter().copied()));
                out.window_s += round.window_s;
                for c in round.clients {
                    layers.ops.merge(&c.ledger);
                    layers.ops_counters.merge(&c.counters);
                    append_spans(&mut out.spans, c.spans);
                }
                layers.ops_counters.set("warehouse.builds", round.builds as f64);
            }
            Some((layers, false)) => {
                layers
                    .untraced_ms
                    .extend(round.clients.iter().flat_map(|c| c.latency_ms.iter().copied()));
            }
        }
    }
}

/// Layers serve cannot isolate from outside the service, and why.
const NOT_ISOLATED: &[(&str, &str)] = &[
    (
        "core.eraser.ms",
        "the detector runs inside the service's replay; its time is part of core.replay.ms",
    ),
    ("core.engine.accesses", "engine counters stay inside the service's replay"),
    ("core.report.render_ms", "the service commits fingerprints, it renders no reports"),
];

/// Measure serve: untraced, set up and run rounds for `seconds`, repeating
/// the set-up in a fresh process between rounds every
/// [`crate::bench::SETUP_EVERY`]; traced, set up once under spans and
/// alternate untraced and traced rounds.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let epoch = Instant::now();
    let mut layers = trace.then(Layers::default);
    let mut w = match layers.as_mut() {
        Some(layers) => {
            let mut tr = Tracer::new(epoch);
            let mut splits = Vec::new();
            let root = tr.begin("setup");
            let w = Serve::setup(
                seed,
                &mut out,
                Some((&mut tr, &mut splits, &mut layers.setup_counters)),
            )?;
            tr.end(root);
            layers.setup.fold(tr.spans(), root, &splits);
            out.setup_s.push(tr.duration_ms(root) / 1e3);
            out.spans = tr.into_spans();
            w
        }
        None => {
            let w = Serve::setup(seed, &mut out, None)?;
            out.setup_s.push(epoch.elapsed().as_secs_f64());
            w
        }
    };
    let mut win = Window::start();
    let mut k = 0u64;
    while win.elapsed_s() < seconds || out.latency_ms.len() < MIN_OPS {
        let traced = layers.is_some() && k % 2 == 1;
        // Untraced runs calibrate between builds; traced runs between
        // rounds, for host.calib_ms only.
        let axis = layers.is_none().then(|| win.axis());
        let round = w.round(BUILDS_PER_CLIENT, epoch, axis, traced);
        out.notes.retain(|(n, _)| n != "warehouse.builds");
        out.notes.push(("warehouse.builds".to_string(), round.builds.to_string()));
        for c in &round.clients {
            win.record(&c.calib, c.calib_s);
        }
        w.count(round, &mut out, layers.as_mut().map(|l| (l, traced)));
        if layers.is_none() {
            win.setup_sample("serve", seed, &mut out)?;
        } else {
            win.tick();
        }
        k += 1;
    }
    let window_s = out.window_s;
    win.close(&mut out);
    // Throughput counts the rounds' client windows, not warehouse set-up
    // and teardown between rounds.
    out.window_s = window_s;
    if let Some(layers) = layers.as_mut() {
        layers.not_isolated.extend_from_slice(NOT_ISOLATED);
    }
    out.layers = layers;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_follows_the_per_build_workflow() {
        for seed in [0, 1, 0xDEAD_BEEF] {
            let plan = plan(seed);
            let mut builds = BTreeSet::new();
            for reqs in &plan {
                assert_eq!(reqs.len(), BUILDS_PER_CLIENT * PER_BUILD);
                for build_reqs in reqs.chunks(PER_BUILD) {
                    let Req::Fresh { build, .. } = build_reqs[0] else {
                        panic!("a build starts with its upload: {build_reqs:?}")
                    };
                    assert!(builds.insert(build), "build ids are unique across clients");
                    let (mut fresh, mut dups) = (BTreeSet::new(), BTreeSet::new());
                    for (k, req) in build_reqs.iter().enumerate() {
                        match *req {
                            Req::Fresh { build: b, case } if k < CASES && b == build => {
                                assert!(fresh.insert(case))
                            }
                            Req::Dup { build: b, case } if (CASES..2 * CASES).contains(&k) => {
                                assert_eq!(b, build, "a duplicate repeats its own build");
                                assert!(dups.insert(case))
                            }
                            Req::Query => assert_eq!(k, 2 * CASES, "the query ends the build"),
                            _ => panic!("request {k} of build {build} out of place: {req:?}"),
                        }
                    }
                    assert_eq!(fresh, (0..CASES).collect(), "the upload covers T1-T8");
                    assert_eq!(dups, fresh, "the repeated upload covers the same cases");
                }
            }
        }
        assert_ne!(format!("{:?}", plan(1)), format!("{:?}", plan(2)), "the seed orders uploads");
    }
}
