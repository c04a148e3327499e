//! Quickstart: build a small multi-threaded guest program, run it under
//! the three detector configurations of the paper (Original, HWLC,
//! HWLC+DR), and print the warnings.
//!
//! Run with: `cargo run --example quickstart`

use raceline::prelude::*;

/// A guest program with one real race (an unlocked counter) and one
/// properly locked counter.
fn build_program() -> Program {
    let mut pb = ProgramBuilder::new();
    let racy = pb.global("g_racy_counter", 8);
    let safe = pb.global("g_safe_counter", 8);
    let mutex_cell = pb.global("g_mutex", 8);

    let loc = pb.loc("quickstart.cpp", 10, "worker");
    let mut w = ProcBuilder::new(0);
    w.at(loc);
    let m = w.load_new(mutex_cell, 8);
    w.begin_repeat(5u64);
    // Locked update: fine.
    w.lock(m);
    let v = w.load_new(safe, 8);
    w.store(safe, Expr::Reg(v).add(1u64.into()), 8);
    w.unlock(m);
    // Unlocked update: a data race.
    let u = w.load_new(racy, 8);
    w.store(racy, Expr::Reg(u).add(1u64.into()), 8);
    w.end_repeat();
    let worker = pb.add_proc("worker", w);

    let mloc = pb.loc("quickstart.cpp", 30, "main");
    let mut main = ProcBuilder::new(0);
    main.at(mloc);
    let m = main.new_mutex();
    main.store(mutex_cell, m, 8);
    let h1 = main.spawn(worker, vec![]);
    let h2 = main.spawn(worker, vec![]);
    main.join(h1);
    main.join(h2);
    let main_id = pb.add_proc("main", main);
    pb.set_entry(main_id);
    pb.finish()
}

fn main() {
    let program = build_program();

    for (name, cfg) in [
        ("Original", DetectorConfig::original()),
        ("HWLC", DetectorConfig::hwlc()),
        ("HWLC+DR", DetectorConfig::hwlc_dr()),
    ] {
        let mut detector = AnyDetector::new(cfg);
        let result = run_program(&program, &mut detector, &mut RoundRobin::new());
        println!("=== configuration: {name} ===");
        println!(
            "run: {:?}, {} events, {} threads",
            result.termination, result.stats.events, result.stats.threads_created
        );
        println!("distinct warning locations: {}", detector.sink.location_count());
        for report in detector.sink.reports() {
            println!("{}", report.render());
        }
    }

    // The same program under ten random schedules: the unlocked counter is
    // always caught (it empties the lockset in every interleaving).
    let mut found = 0;
    for seed in 0..10 {
        let mut det = AnyDetector::new(DetectorConfig::hwlc_dr());
        run_program(&program, &mut det, &mut SeededRandom::new(seed));
        if det.sink.race_location_count() > 0 {
            found += 1;
        }
    }
    println!("race found in {found}/10 random schedules");
}
