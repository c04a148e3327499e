//! The measurement loop shared by every workload, and the records it
//! produces.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::host::Calibrator;
use crate::spans::{Ledger, Span, Split, Tracer};

/// Operations every run measures at least, whatever `--seconds` says:
/// enough for a p90 with ten samples beyond it.
pub const MIN_OPS: usize = 100;

/// Gap between calibration samples in the measured window: the host's
/// speed modes last from a twentieth of a second to seconds, and each
/// operation is converted with the samples nearest it.
pub const CALIB_EVERY: Duration = Duration::from_millis(50);

/// Gap between set-up repetitions in the measured window. Each runs in a
/// fresh process, so every one is as cold as the first; `setup_s` is the
/// median of the run's own set-up and these repetitions.
pub const SETUP_EVERY: Duration = Duration::from_secs(1);

/// Guest work one operation completed.
#[derive(Clone, Copy, Debug, Default)]
pub struct Work {
    /// Guest events analysed.
    pub events: u64,
    /// SIP dialogs served (soak only).
    pub dialogs: u64,
}

/// Result of one operation: its work, or why it broke its answer key.
pub type OpResult = Result<Work, String>;

/// Named counters of a traced run: means per record and ratios of sums.
#[derive(Default)]
pub struct Counters {
    sums: BTreeMap<&'static str, (f64, u64)>,
    ratios: BTreeMap<&'static str, (f64, f64)>,
    fixed: BTreeMap<&'static str, f64>,
}

impl Counters {
    /// One sample of a per-operation count; reported as the mean.
    pub fn add(&mut self, name: &'static str, v: f64) {
        let e = self.sums.entry(name).or_insert((0.0, 0));
        e.0 += v;
        e.1 += 1;
    }

    /// One numerator/denominator pair; reported as Σnum / Σden.
    pub fn add_ratio(&mut self, name: &'static str, num: f64, den: f64) {
        let e = self.ratios.entry(name).or_insert((0.0, 0.0));
        e.0 += num;
        e.1 += den;
    }

    /// A value computed once for the whole run.
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.fixed.insert(name, v);
    }

    /// Add another set of counters (a second client thread's).
    pub fn merge(&mut self, other: &Counters) {
        for (&name, &(sum, n)) in &other.sums {
            let e = self.sums.entry(name).or_insert((0.0, 0));
            e.0 += sum;
            e.1 += n;
        }
        for (&name, &(num, den)) in &other.ratios {
            self.add_ratio(name, num, den);
        }
        self.fixed.extend(other.fixed.iter().map(|(&k, &v)| (k, v)));
    }

    /// The value of a counter set once for the whole run.
    pub fn fixed(&self, name: &str) -> Option<f64> {
        self.fixed.get(name).copied()
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        if let Some(v) = self.fixed(name) {
            return Some(v);
        }
        if let Some(&(sum, n)) = self.sums.get(name) {
            return Some(sum / n as f64);
        }
        self.ratios.get(name).map(|&(num, den)| crate::stats::ratio(num, den))
    }
}

/// Layer records of one traced run: operation layers and set-up layers
/// are kept apart, since one is per operation and the other per set-up.
#[derive(Default)]
pub struct Layers {
    pub ops: Ledger,
    pub ops_counters: Counters,
    pub setup: Ledger,
    pub setup_counters: Counters,
    /// Latency of the untraced twin of each traced operation, ms.
    pub untraced_ms: Vec<f64>,
    /// Layers this workload cannot isolate, with the reason.
    pub not_isolated: Vec<(&'static str, &'static str)>,
}

/// Everything one run measured.
#[derive(Default)]
pub struct Outcome {
    /// Duration of each set-up, s: the run's own first.
    pub setup_s: Vec<f64>,
    /// Wall latency of each timed operation, ms.
    pub latency_ms: Vec<f64>,
    /// Midpoint of each timed operation, s since the window started.
    pub op_at_s: Vec<f64>,
    /// Measured window with calibration samples taken out, s.
    pub window_s: f64,
    pub work: Work,
    /// Completed operations in the window.
    pub completed: u64,
    pub attempted: u64,
    pub failed: u64,
    /// First few failure messages, for the log.
    pub failures: Vec<String>,
    /// Calibration samples: s since the window started, and ms.
    pub calib: Vec<(f64, f64)>,
    /// Per-layer records; traced runs only.
    pub layers: Option<Layers>,
    /// Extra `name value` facts for the log (warehouse size, ...).
    pub notes: Vec<(String, String)>,
    /// Every span of a traced run, for `--spans`.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Count one operation's result (set-up warm-ups included).
    pub fn record(&mut self, r: &OpResult) {
        self.attempted += 1;
        if let Err(e) = r {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(e.clone());
            }
        }
    }
}

/// Run `f`, turning a panic into a failed operation.
pub fn guarded(f: impl FnOnce() -> OpResult) -> OpResult {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".to_string());
        Err(format!("panic: {msg}"))
    })
}

/// A single-threaded workload: set up, then operations by index.
pub trait Workload: Sized {
    /// The workload's name on the command line.
    const NAME: &'static str;

    /// Build every input and warm up. Warm-up results go through `out`
    /// like any other operation's. With a tracer, set-up calls are
    /// spanned.
    fn setup(seed: u64, out: &mut Outcome, tr: Option<&mut Tracer>) -> Result<Self, String>;

    /// Operation `i`, untraced: the path a user of raceline runs.
    fn op(&mut self, i: u64) -> OpResult;

    /// Operation `i` through the same public calls split into spans, with
    /// the reference runs that divide them into layers. Returns the
    /// result, the root span and the splits for the ledger.
    fn op_traced(
        &mut self,
        i: u64,
        tr: &mut Tracer,
        c: &mut Counters,
    ) -> (OpResult, usize, Vec<Split>);

    /// Traced-run facts computed once at the end.
    fn finish_traced(&mut self, _layers: &mut Layers) {}
}

/// The measured window. Calibration samples and set-up repetitions are
/// interleaved with the operations, so both sample the host's speed across
/// the whole run, and their time is kept out of the window.
pub struct Window {
    start: Instant,
    excluded: Duration,
    last_calib: Instant,
    last_setup: Instant,
    calib: Calibrator,
}

impl Window {
    pub fn start() -> Self {
        let now = Instant::now();
        Window {
            start: now,
            excluded: Duration::ZERO,
            last_calib: now,
            last_setup: now,
            calib: Calibrator::new(),
        }
    }

    /// Measured time so far, interleaved work excluded, s.
    pub fn elapsed_s(&self) -> f64 {
        (self.start.elapsed() - self.excluded).as_secs_f64()
    }

    /// Wall time since the window started, interleaved work included, s:
    /// the time axis of the calibration samples.
    pub fn now_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// The start of the window, the zero of [`Window::now_s`].
    pub fn axis(&self) -> Instant {
        self.start
    }

    /// Add calibration samples taken elsewhere on the window's time axis
    /// (between serve's builds), and the time they took.
    pub fn record(&mut self, samples: &[(f64, f64)], took_s: f64) {
        self.calib.samples.extend_from_slice(samples);
        self.excluded += Duration::from_secs_f64(took_s);
    }

    /// Take the calibration samples that are due: one per
    /// [`CALIB_EVERY`] since the last, so that an operation longer than
    /// that (a serve round) is sampled for its whole length.
    pub fn tick(&mut self) {
        let due = self.last_calib.elapsed().as_secs_f64() / CALIB_EVERY.as_secs_f64();
        if due >= 1.0 {
            let c = Instant::now();
            for _ in 0..due as usize {
                self.calib.sample(self.now_s());
            }
            self.excluded += c.elapsed();
            self.last_calib = Instant::now();
        }
    }

    /// Set `workload` up in a fresh process if a set-up repetition is due,
    /// recording its duration and counting its warm-up operations.
    pub fn setup_sample(
        &mut self,
        workload: &str,
        seed: u64,
        out: &mut Outcome,
    ) -> Result<(), String> {
        if self.last_setup.elapsed() < SETUP_EVERY {
            return Ok(());
        }
        let t = Instant::now();
        let (setup_s, attempted, failed) = cold_setup(workload, seed)?;
        let took = t.elapsed();
        self.excluded += took;
        self.last_setup = Instant::now();
        out.setup_s.push(setup_s);
        out.attempted += attempted;
        out.failed += failed;
        if failed > 0 && out.failures.len() < 8 {
            out.failures.push(format!("{failed} warm-up operation(s) of a set-up repetition"));
        }
        Ok(())
    }

    pub fn close(mut self, out: &mut Outcome) {
        out.window_s = self.elapsed_s();
        if self.calib.samples.is_empty() {
            self.calib.sample(self.now_s());
        }
        self.calib.samples.sort_by(|a, b| a.0.total_cmp(&b.0));
        out.calib = self.calib.samples;
    }
}

/// Time `setup`, the first work of its process: one cold set-up sample,
/// with its warm-up operations counted. The state it builds is dropped
/// after the clock stops, as the run's own set-up keeps its state.
pub fn setup_only<S>(
    setup: impl FnOnce(&mut Outcome) -> Result<S, String>,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let t = Instant::now();
    let state = setup(&mut out)?;
    out.setup_s.push(t.elapsed().as_secs_f64());
    drop(state);
    Ok(out)
}

/// The line a `--setup-only` process prints last.
pub fn setup_line(out: &Outcome) -> String {
    let setup_s = out.setup_s.first().copied().unwrap_or(f64::NAN);
    format!("setup_s {setup_s} attempted {} failed {}", out.attempted, out.failed)
}

/// Set `workload` up in a fresh process: (set-up s, attempted, failed).
fn cold_setup(workload: &str, seed: u64) -> Result<(f64, u64, u64), String> {
    let child = crate::self_command()?
        .args(["--workload", workload, "--seed", &seed.to_string(), "--setup-only", "1"])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("set-up repetition: {e}"))?;
    let stdout = String::from_utf8_lossy(&child.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let f: Vec<&str> = last.split_whitespace().collect();
    match (child.status.success(), f.as_slice()) {
        (true, ["setup_s", s, "attempted", a, "failed", n]) => {
            let bad = || format!("set-up repetition printed {last:?}");
            let (s, a, n) = (s.parse(), a.parse(), n.parse());
            Ok((s.map_err(|_| bad())?, a.map_err(|_| bad())?, n.map_err(|_| bad())?))
        }
        _ => Err(format!("set-up repetition exited {} with {last:?}", child.status)),
    }
}

fn count_work(out: &mut Outcome, r: &OpResult) {
    out.record(r);
    if let Ok(work) = r {
        out.work.events += work.events;
        out.work.dialogs += work.dialogs;
        out.completed += 1;
    }
}

/// Measure workload `W`. Untraced: set up, then run operations for
/// `seconds`, repeating the set-up in a fresh process every
/// [`SETUP_EVERY`]. Traced: set up once under spans, then alternate each
/// traced operation with its untraced twin.
pub fn run<W: Workload>(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let epoch = Instant::now();
    if trace {
        let mut tr = Tracer::new(epoch);
        let mut layers = Layers::default();
        let root = tr.begin("setup");
        let mut w = W::setup(seed, &mut out, Some(&mut tr))?;
        tr.end(root);
        layers.setup.fold(tr.spans(), root, &[]);
        out.setup_s.push(tr.duration_ms(root) / 1e3);

        let mut win = Window::start();
        let mut i = 0u64;
        while win.elapsed_s() < seconds || (i as usize) < MIN_OPS {
            let t = Instant::now();
            let r = guarded(|| w.op(i));
            layers.untraced_ms.push(t.elapsed().as_secs_f64() * 1e3);
            out.record(&r);

            tr.set_op(i);
            let mark = tr.spans().len();
            match catch_unwind(AssertUnwindSafe(|| {
                w.op_traced(i, &mut tr, &mut layers.ops_counters)
            })) {
                Ok((r, root, splits)) => {
                    out.latency_ms.push(tr.duration_ms(root));
                    count_work(&mut out, &r);
                    layers.ops.fold(tr.spans(), root, &splits);
                }
                Err(_) => {
                    tr.abandon(mark);
                    count_work(&mut out, &Err("panic in traced operation".to_string()));
                }
            }
            win.tick();
            i += 1;
        }
        win.close(&mut out);
        w.finish_traced(&mut layers);
        out.layers = Some(layers);
        out.spans = tr.into_spans();
        return Ok(out);
    }

    let mut w = W::setup(seed, &mut out, None)?;
    out.setup_s.push(epoch.elapsed().as_secs_f64());
    let mut win = Window::start();
    let mut i = 0u64;
    while win.elapsed_s() < seconds || (i as usize) < MIN_OPS {
        let (t, at_s) = (Instant::now(), win.now_s());
        let r = guarded(|| w.op(i));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        out.latency_ms.push(ms);
        out.op_at_s.push(at_s + ms / 2e3);
        count_work(&mut out, &r);
        win.tick();
        win.setup_sample(W::NAME, seed, &mut out)?;
        i += 1;
    }
    win.close(&mut out);
    Ok(out)
}
