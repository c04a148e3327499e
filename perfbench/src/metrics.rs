//! Metric definitions and the printed result: every metric by name with
//! its unit, the stamp, and the final JSON line.

use crate::bench::{Layers, Outcome};
use crate::host::{self, CALIB_REF_MS};
use crate::spans::GLUE;
use crate::stats::{mean, median, percentile, ratio};
use crate::Args;

/// A metric as `BENCHMARK.json` declares it.
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def { name, unit, better }
}

pub const END_TO_END: &[Def] = &[
    def("setup_s", "s", "lower"),
    def("latency_p50_ms", "ms", "lower"),
    def("latency_p90_ms", "ms", "lower"),
    def("events_per_s", "1/s", "higher"),
    def("requests_per_s", "1/s", "higher"),
    def("peak_rss_mib", "MiB", "lower"),
];

/// Per-layer metrics of the traced run. Names ending in `_ms` or `.ms`
/// are layer self times from the span ledger; the rest are counters.
pub const PER_LAYER: &[Def] = &[
    def("vexec.vm.dispatch_ms", "ms", "lower"),
    def("vexec.vm.ns_per_event", "ns", "lower"),
    def("vexec.vm.events", "count", "lower"),
    def("vexec.vm.slots", "count", "lower"),
    def("vexec.vm.threads_created", "count", "lower"),
    def("vexec.vm.fused_ratio", "ratio", "higher"),
    def("vexec.filter.ms", "ms", "lower"),
    def("vexec.filter.hit_ratio", "ratio", "higher"),
    def("vexec.ir.lower_ms", "ms", "lower"),
    def("vexec.ir.compile_ms", "ms", "lower"),
    def("vexec.ir.instrs", "count", "lower"),
    def("core.eraser.ms", "ms", "lower"),
    def("core.djit.ms", "ms", "lower"),
    def("core.hybrid.ms", "ms", "lower"),
    def("core.engine.accesses", "count", "lower"),
    def("core.shadow.peak_granules", "count", "lower"),
    def("core.hb.epoch_hit_ratio", "ratio", "higher"),
    def("core.report.render_ms", "ms", "lower"),
    def("core.report.locations", "count", "lower"),
    def("vexec.faults.kills", "count", "lower"),
    def("core.shadow.end_granules", "count", "lower"),
    def("sipsim.soak.dialogs_per_s", "1/s", "higher"),
    def("trace.encode_ms", "ms", "lower"),
    def("trace.bytes_per_event", "B", "lower"),
    def("trace.decode_ms", "ms", "lower"),
    def("core.replay.ms", "ms", "lower"),
    def("warehouse.analyze_ms", "ms", "lower"),
    def("warehouse.commit_ms", "ms", "lower"),
    def("warehouse.dedup_ms", "ms", "lower"),
    def("warehouse.dedup_hit_ratio", "ratio", "higher"),
    def("warehouse.query_ms", "ms", "lower"),
    def("warehouse.builds", "count", "lower"),
    def("warehouse.wire_ms", "ms", "lower"),
    def("sipsim.build_ms", "ms", "lower"),
    def("sipsim.classify_ms", "ms", "lower"),
    def("bench.other_ms", "ms", "lower"),
    def("ladder.native_ms", "ms", "lower"),
    def("ladder.vm_x", "x", "lower"),
    def("ladder.slowdown_x", "x", "lower"),
    def("host.calib_ms", "ms", "lower"),
    def("bench.traced_latency_ms", "ms", "lower"),
    def("bench.untraced_latency_ms", "ms", "lower"),
    def("bench.trace_overhead_ms", "ms", "lower"),
    def("bench.negative_layers", "count", "lower"),
];

/// A layer self time from the span ledger (as opposed to a counter or a
/// whole-run figure).
fn is_time_layer(name: &str) -> bool {
    let timed = name.ends_with("_ms") || name.ends_with(".ms");
    name == GLUE || timed && !name.starts_with("bench.") && !name.starts_with("ladder.")
}

/// One workload's printed result.
pub struct Reported {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

/// Where a per-layer value came from.
enum Source {
    /// Mean per traced operation.
    Op,
    /// Once per traced set-up (the layer works only during set-up here).
    Setup,
    /// Computed over the whole run.
    Run,
    /// This workload does not exercise the layer.
    Absent,
}

fn layer_value(name: &'static str, out: &Outcome, l: &Layers) -> (f64, Source) {
    let per_op = |ms: f64| ms / l.ops.ops.max(1) as f64;
    let traced = per_op(l.ops.latency_ms);
    let untraced = mean(&l.untraced_ms);
    match name {
        "host.calib_ms" => (calib_median(out), Source::Run),
        "bench.traced_latency_ms" => (traced, Source::Run),
        "bench.untraced_latency_ms" => (untraced, Source::Run),
        "bench.trace_overhead_ms" => (traced - untraced, Source::Run),
        "bench.negative_layers" => {
            ((l.ops.negatives.len() + l.setup.negatives.len()) as f64, Source::Run)
        }
        _ if is_time_layer(name) => {
            if let Some(&ms) = l.ops.layer_ms.get(name) {
                (per_op(ms), Source::Op)
            } else if let Some(&ms) = l.setup.layer_ms.get(name) {
                (ms, Source::Setup)
            } else {
                (0.0, Source::Absent)
            }
        }
        _ => {
            if let Some(v) = l.ops_counters.fixed(name) {
                (v, Source::Run)
            } else if let Some(v) = l.ops_counters.get(name) {
                (v, Source::Op)
            } else if let Some(v) = l.setup_counters.get(name) {
                (v, Source::Setup)
            } else {
                (0.0, Source::Absent)
            }
        }
    }
}

/// Print one workload's result lines and return what the JSON line needs.
pub fn report(workload: &str, args: &Args, out: &Outcome) -> Result<Reported, String> {
    println!(
        "perfbench workload={workload} seed={} seconds={} trace={}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    stamp(workload, args, out);
    for (name, value) in &out.notes {
        println!("note {name} {value}");
    }
    for f in &out.failures {
        eprintln!("perfbench: {workload}: failed: {f}");
    }
    println!(
        "failed_ratio {} ({} failed of {} attempted)",
        crate::stats::ratio(out.failed as f64, out.attempted as f64),
        out.failed,
        out.attempted
    );
    let mut correct = out.failed == 0 && out.attempted > 0;
    let mut metrics = Vec::new();
    match &out.layers {
        None => {
            // Times are converted to the reference host speed: each
            // operation with the calibration samples nearest it, set-up
            // with the run's median sample. The wall value is printed next
            // to each.
            let setup_factor = host::ref_factor(&out.calib)?;
            if out.op_at_s.len() != out.latency_ms.len() {
                return Err("an operation has no time to convert it at".to_string());
            }
            let ref_ms: Vec<f64> = out
                .latency_ms
                .iter()
                .zip(&out.op_at_s)
                .map(|(&ms, &t)| host::local_factor(&out.calib, t).map(|f| ms * f))
                .collect::<Result<_, _>>()?;
            let pct = |v: &[f64], p: f64| {
                let mut sorted = v.to_vec();
                sorted.sort_by(f64::total_cmp);
                percentile(&sorted, p).ok_or_else(|| format!("too few operations for a p{p}"))
            };
            let n = ref_ms.len();
            let ((p50, beyond50), (p90, beyond90)) = (pct(&ref_ms, 50.0)?, pct(&ref_ms, 90.0)?);
            let (wall50, wall90) = (pct(&out.latency_ms, 50.0)?.0, pct(&out.latency_ms, 90.0)?.0);
            let wall_setup = median(&out.setup_s).ok_or("no set-up measured")?;
            // The window at the reference speed: the wall window scaled as
            // the operations' time was.
            let busy_ms: f64 = out.latency_ms.iter().sum();
            let window = out.window_s * ratio(ref_ms.iter().sum(), busy_ms);
            let (events, ops) = (out.work.events as f64, out.completed as f64);
            let values = [
                (
                    wall_setup * setup_factor,
                    format!(
                        "median of {} cold set-ups; wall {wall_setup}; the run's own {}",
                        out.setup_s.len(),
                        out.setup_s[0] * setup_factor
                    ),
                ),
                (p50, format!("n={n}, {beyond50} beyond; wall {wall50}")),
                (p90, format!("n={n}, {beyond90} beyond; wall {wall90}")),
                (
                    events / window,
                    format!("{events} events in {window:.3} s; wall {}", events / out.window_s),
                ),
                (
                    ops / window,
                    format!("{ops} operations in {window:.3} s; wall {}", ops / out.window_s),
                ),
                (host::peak_rss_mib()?, "VmHWM at end of run".to_string()),
            ];
            for (d, (v, how)) in END_TO_END.iter().zip(values) {
                println!("metric {} {v} {} ({how}; {} is better)", d.name, d.unit, d.better);
                if !(v.is_finite() && v > 0.0) {
                    correct = false;
                }
                metrics.push((d.name, v, d.unit));
            }
        }
        Some(l) => {
            for d in PER_LAYER {
                let (v, src) = layer_value(d.name, out, l);
                let how = match src {
                    Source::Op => "mean per traced operation",
                    Source::Setup => "per set-up",
                    Source::Run => "whole run",
                    Source::Absent => "not exercised by this workload",
                };
                println!("layer {} {v} {} ({how}; {} is better)", d.name, d.unit, d.better);
                metrics.push((d.name, if v.is_finite() { v } else { 0.0 }, d.unit));
                correct &= v.is_finite();
            }
            for (name, why) in &l.not_isolated {
                println!("not_isolated {name}: {why}");
            }
            for neg in l.ops.negatives.iter().chain(&l.setup.negatives).take(8) {
                println!("negative_layer {} {} ms", neg.layer, neg.ms);
            }
        }
    }
    Ok(Reported { correct, attempted: out.attempted, failed: out.failed, metrics })
}

fn calib_median(out: &Outcome) -> f64 {
    host::calib_median(&out.calib).unwrap_or(0.0)
}

/// The stamp: code identity, host, build profile and sample counts.
fn stamp(workload: &str, args: &Args, out: &Outcome) {
    let root = std::env::current_dir().unwrap_or_default();
    let rev = host::git_rev(&root).unwrap_or_else(|| "none".to_string());
    let digest = host::source_digest(&root).unwrap_or_else(|e| format!("unavailable: {e}"));
    println!(
        "stamp {{\"workload\":{workload:?},\"seed\":{},\"trace\":{},\"rev\":{rev:?},\"source_fnv1a\":{digest:?},\
         \"nproc\":{},\"profile\":{:?},\"setup_reps\":{},\"latency_samples\":{},\"calib_samples\":{},\
         \"host.calib_ms\":{},\"calib_ref_ms\":{CALIB_REF_MS},\"pinned\":{:?}}}",
        args.seed,
        u8::from(args.trace),
        host::nproc(),
        host::profile(),
        out.setup_s.len(),
        out.latency_ms.len(),
        out.calib.len(),
        calib_median(out),
        host::pinned(),
    );
}

/// The final JSON line.
pub fn result_json(r: &Reported) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, v, unit)| format!("{name:?}:{{\"value\":{v},\"unit\":{unit:?}}}"))
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must declare exactly the metrics printed here.
    #[test]
    fn benchmark_json_matches_the_definitions() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let declared = |section: &str| -> Vec<String> {
            let start = text.find(&format!("\"{section}\"")).expect("section present");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').unwrap()].to_string())
                .collect()
        };
        let names = |defs: &[Def]| defs.iter().map(|d| d.name.to_string()).collect::<Vec<_>>();
        assert_eq!(declared("end_to_end"), names(END_TO_END));
        assert_eq!(declared("per_layer"), names(PER_LAYER));
        for d in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                d.name, d.unit, d.better
            );
            assert!(text.contains(&entry), "BENCHMARK.json entry for {}", d.name);
        }
    }

    #[test]
    fn result_json_has_exactly_the_contract_keys() {
        let r = Reported {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("setup_s", 0.5, "s")],
        };
        assert_eq!(
            result_json(&r),
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"}}}"#
        );
    }
}
