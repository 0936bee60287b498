//! Oracle pin over the workload families: for every [`Family`] preset,
//! over a few seeds and sizes, the `Session` FTSS schedule must equal
//! `oracle::ftss_reference` (or fail with the same error), and the
//! `Session` FTQS trees at budgets 16 and 40 must equal
//! `oracle::ftqs_reference` in tree digest and root utility bits.
//!
//! `ftqs-core`'s own equivalence suite draws its corpus from one private
//! generator; these presets add the shapes the benches and the service
//! run (layered Fig. 9 graphs, series-parallel graphs, polarized
//! multi-source graphs, hyper-period unrolls), which reach scheduler
//! states that generator does not. Each preset is also checked with its
//! hard deadlines rounded up to a coarse grid: the presets draw deadlines
//! fine enough that two hard processes almost never share one, so without
//! that variant no case depends on how EDF breaks deadline ties.

use ftqs_core::ftqs::FtqsConfig;
use ftqs_core::oracle::{ftqs_reference, ftss_reference};
use ftqs_core::{
    ftsf, tree_digest, Application, Engine, Error, FtssConfig, ScheduleContext, Session,
    SynthesisRequest,
};
use ftqs_workloads::family::{self, Family};
use ftqs_workloads::spec;

const SIZES: [usize; 3] = [10, 16, 24];
const SEEDS: std::ops::Range<u64> = 0..4;
const BUDGETS: [usize; 2] = [16, 40];
/// Grid (ms) the tied-deadline variant rounds hard deadlines up to.
const TIE_GRID_MS: u64 = 200;

/// `app` with every hard deadline rounded up to a multiple of
/// [`TIE_GRID_MS`], capped at the period.
fn with_tied_deadlines(app: &Application) -> Application {
    let period = app.period().as_ms();
    let mut text = String::new();
    for line in spec::render(app).lines() {
        let mut words = Vec::new();
        let mut after_deadline = false;
        for w in line.split(' ') {
            match w.parse::<u64>() {
                Ok(d) if after_deadline => {
                    words.push(
                        (d.div_ceil(TIE_GRID_MS) * TIE_GRID_MS)
                            .min(period)
                            .to_string(),
                    );
                }
                _ => words.push(w.to_string()),
            }
            after_deadline = w == "deadline";
        }
        text.push_str(&words.join(" "));
        text.push('\n');
    }
    spec::parse(&text).expect("a rendered spec with in-period deadlines parses")
}

/// Asserts that `app` synthesizes to the reference FTSS schedule and FTQS
/// trees; returns whether it was schedulable.
fn assert_matches_reference(session: &mut Session, app: &Application, label: &str) -> bool {
    let fast = session.synthesize(app, &SynthesisRequest::ftss());
    let slow = ftss_reference(app, &ScheduleContext::root(app), &FtssConfig::default());
    match (fast, slow) {
        (Ok(report), Ok(reference)) => {
            assert_eq!(report.root_schedule(), &reference, "{label}: FTSS diverges");
        }
        (Err(Error::Scheduling(a)), Err(b)) => {
            assert_eq!(a, b, "{label}: FTSS errors diverge");
            return false;
        }
        (a, b) => panic!("{label}: FTSS feasibility diverges: {a:?} vs {b:?}"),
    }
    for budget in BUDGETS {
        let fast = session
            .synthesize(app, &SynthesisRequest::ftqs(budget))
            .expect("FTSS-schedulable");
        let slow = ftqs_reference(app, &FtqsConfig::with_budget(budget)).expect("FTSS-schedulable");
        assert_eq!(
            tree_digest(&fast.tree),
            tree_digest(&slow),
            "{label} budget {budget}: FTQS trees diverge"
        );
        assert_eq!(
            fast.utility.expected_average_case.to_bits(),
            ftsf::expected_utility(app, slow.root_schedule()).to_bits(),
            "{label} budget {budget}: root utilities diverge"
        );
    }
    true
}

fn assert_family_matches_reference(family: Family) {
    let mut session = Engine::new().session();
    let mut schedulable = 0;
    for size in SIZES {
        for seed in SEEDS {
            let app = family::build(family, size, seed);
            let label = format!("{family} size {size} seed {seed}");
            schedulable += usize::from(assert_matches_reference(&mut session, &app, &label));
            let tied = with_tied_deadlines(&app);
            assert_matches_reference(&mut session, &tied, &format!("{label} tied deadlines"));
        }
    }
    assert!(
        schedulable * 2 >= SIZES.len() * SEEDS.count(),
        "{family}: only {schedulable} schedulable presets; the pin checks too few trees"
    );
}

#[test]
fn fig9_matches_reference() {
    assert_family_matches_reference(Family::Fig9);
}

#[test]
fn series_parallel_matches_reference() {
    assert_family_matches_reference(Family::SeriesParallel);
}

#[test]
fn polar_matches_reference() {
    assert_family_matches_reference(Family::Polar);
}

#[test]
fn hyper_matches_reference() {
    assert_family_matches_reference(Family::Hyper);
}
