//! Quickstart: the paper's running example (Fig. 1 / Fig. 4 / Fig. 5),
//! end to end.
//!
//! Builds the three-process application — hard `P1` feeding soft `P2` and
//! `P3` — synthesizes the static FTSS schedule and the FTQS quasi-static
//! tree, and replays three illustrative cycles: the average case, an early
//! completion of `P1` (which triggers a schedule switch, Fig. 4b5), and a
//! transient fault on `P1` (recovered by re-execution inside the shared
//! slack, Fig. 3).
//!
//! Run with `cargo run --example quickstart`.

use ftqs::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Model (paper Fig. 1 with the Fig. 4a utility functions) ---------
    let ms = Time::from_ms;
    let mut b = Application::builder(ms(300), FaultModel::new(1, ms(10)));
    let p1 = b.add_hard("P1", ExecutionTimes::uniform(ms(30), ms(70))?, ms(180));
    let p2 = b.add_soft(
        "P2",
        ExecutionTimes::uniform(ms(30), ms(70))?,
        UtilityFunction::step(40.0, [(ms(90), 20.0), (ms(200), 10.0), (ms(250), 0.0)])?,
    );
    let p3 = b.add_soft(
        "P3",
        ExecutionTimes::uniform(ms(40), ms(80))?,
        UtilityFunction::step(40.0, [(ms(110), 30.0), (ms(150), 10.0), (ms(220), 0.0)])?,
    );
    b.add_dependency(p1, p2)?;
    b.add_dependency(p1, p3)?;
    let app = b.build()?;
    println!(
        "application: {} processes, period {}",
        app.len(),
        app.period()
    );

    // --- Static fault-tolerant schedule (FTSS) ---------------------------
    // One engine session serves both synthesis runs below.
    let mut session = Engine::new().session();
    let ftss_report = session.synthesize(&app, &SynthesisRequest::ftss())?;
    let schedule = ftss_report.root_schedule();
    let names: Vec<&str> = schedule
        .order_key()
        .iter()
        .map(|&p| app.process(p).name())
        .collect();
    println!("FTSS order: {} (the paper's S2)", names.join(" -> "));
    let analysis = schedule.analyze(&app);
    println!(
        "worst-case completion of P1 with 1 fault: {} (deadline {})",
        analysis.worst_completion(0),
        ms(180)
    );

    // --- Quasi-static tree (FTQS) -----------------------------------------
    let report = session.synthesize(&app, &SynthesisRequest::ftqs(8))?;
    println!(
        "\nquasi-static tree: {} schedules, depth {}, synthesized in {} us",
        report.stats.schedules, report.stats.depth, report.timing.synthesis_micros
    );
    let tree = report.tree;
    for (id, node, sched) in tree.iter_schedules() {
        let order: Vec<&str> = sched
            .order_key()
            .iter()
            .map(|&p| app.process(p).name())
            .collect();
        println!(
            "  node {id}: [{}] ({} switch arcs)",
            order.join(", "),
            node.arcs.len()
        );
    }

    // --- Replay three cycles ----------------------------------------------
    let runner = FlatRuntime::new(&app, &tree);

    let avg = runner.run(&ExecutionScenario::average_case(&app));
    println!("\naverage-case cycle: utility {:.1}", avg.utility);

    // P1 completes at its best case: the tree switches to the P2-first
    // sub-schedule and harvests more utility (Fig. 4b5).
    let attempts = app.faults().k + 1;
    let mut durations: Vec<Vec<Time>> = app
        .processes()
        .map(|p| vec![app.process(p).times().aet(); attempts])
        .collect();
    durations[p1.index()] = vec![ms(30); attempts];
    let early = ExecutionScenario::from_tables(
        durations,
        app.processes().map(|_| vec![false; attempts]).collect(),
    );
    let out = runner.run(&early);
    println!(
        "early-P1 cycle:     utility {:.1} ({} switch(es))",
        out.utility,
        out.trace.switch_count()
    );

    // A transient fault hits P1: re-execution inside the recovery slack.
    let mut faulty: Vec<Vec<bool>> = app.processes().map(|_| vec![false; attempts]).collect();
    faulty[p1.index()][0] = true;
    let fault_sc = ExecutionScenario::from_tables(
        app.processes()
            .map(|p| vec![app.process(p).times().wcet(); attempts])
            .collect(),
        faulty,
    );
    let out = runner.run(&fault_sc);
    println!(
        "faulty-P1 cycle:    utility {:.1}, P1 completed at {}, deadline kept: {}",
        out.utility,
        out.completions[p1.index()].expect("hard process completes"),
        out.deadline_miss.is_none()
    );
    println!("\ntrace of the faulty cycle:");
    print!(
        "{}",
        out.trace.render(|n| app.process(n).name().to_string())
    );

    Ok(())
}
