//! Fig 3/4: the transparent instrumentation pipeline. Mini-C++ source goes
//! through preprocess → parse → automatic delete-annotation → compile, and
//! the resulting "binary" runs on the VM under the race detector. A
//! third-party unit compiled *without* source instrumentation keeps its
//! destructor false positive; the instrumented build loses it.
//!
//! Run with: `cargo run --example annotate_pipeline`

use minicpp::pipeline::{run_pipeline, SourceFile};
use raceline::prelude::*;

/// The application: two workers share a session object under a lock; the
/// second one to finish deletes it (outside the lock — the destructor's
/// vptr writes are the compiler's, not the programmer's).
const APP: &str = "
class SipObject { int refs; virtual ~SipObject() {} };
class Session : SipObject { int dialogs; ~Session() {} };

mutex g_m;
int g_pending;

void use_session(Session* s) {
    lock(g_m);
    s->refresh();   // virtual call: dispatch reads the vptr
    s->dialogs = s->dialogs + 1;
    g_pending = g_pending - 1;
    int last = g_pending == 0;
    unlock(g_m);
    if (last == 1) {
        delete s;   // <- the site the annotation pass rewrites
    }
}

void worker(Session* s) {
    use_session(s);
}

void main() {
    g_pending = 2;
    Session* s = new Session;
    s->dialogs = 0;
    thread a = spawn worker(s);
    thread b = spawn worker(s);
    join(a);
    join(b);
}
";

fn run_detected(program: &Program, cfg: DetectorConfig) -> usize {
    let mut det = AnyDetector::new(cfg);
    let r = run_program(program, &mut det, &mut RoundRobin::new());
    assert!(r.termination.is_clean(), "{:?}", r.termination);
    for rep in det.sink.reports() {
        println!("{}", rep.render());
    }
    det.sink.race_location_count()
}

fn main() {
    // Build 1: instrumented (the paper's compiler-wrapper shell script).
    let instrumented = run_pipeline(&[SourceFile::new("session.cpp", APP)]).unwrap();
    println!("instrumented build: {} delete site(s) annotated", instrumented.deletes_annotated);
    println!("---- annotated source (stage 2 output, Fig 4 style) ----");
    for (name, src) in &instrumented.annotated_sources {
        println!("// {name}");
        println!("{src}");
    }

    // Build 2: plain (third-party source unavailable).
    let plain = run_pipeline(&[SourceFile::without_instrumentation("session.cpp", APP)]).unwrap();

    println!("==== plain build under HWLC+DR detector ====");
    let plain_warnings = run_detected(&plain.program, DetectorConfig::hwlc_dr());
    println!("warning locations: {plain_warnings}\n");

    println!("==== instrumented build under HWLC+DR detector ====");
    let inst_warnings = run_detected(&instrumented.program, DetectorConfig::hwlc_dr());
    println!("warning locations: {inst_warnings}\n");

    assert!(plain_warnings > 0, "unannotated destructor writes warn");
    assert_eq!(inst_warnings, 0, "annotation removes the destructor FP");
    println!(
        "summary: {} -> {} warnings after automatic annotation",
        plain_warnings, inst_warnings
    );
}
