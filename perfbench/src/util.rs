//! Shared measurement helpers: seeds, set-up timing, latency summaries,
//! outcome accounting and peak memory.

use ftqs_core::ftqs::FtqsConfig;
use ftqs_core::{ftsf, oracle, tree_digest, Application, SchedulingError};
use std::time::{Duration, Instant};

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 15;

/// Host CPUs as the standard library reports them.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// SplitMix64 finalizer: decorrelates derived seeds.
#[must_use]
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Median of `values` (upper median for even lengths; 0 when empty).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Runs `build` [`SETUP_REPS`] times, timing each, and returns the last
/// result with the per-repetition seconds. Earlier results are dropped
/// outside the timed region.
pub fn timed_setups<T>(mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let started = Instant::now();
        let value = build();
        times.push(started.elapsed().as_secs_f64());
        kept = Some(value);
    }
    (kept.expect("at least one set-up repetition"), times)
}

/// Percentiles a tail may be reported at, lowest first.
const TAIL_LADDER: [f64; 6] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

/// Consecutive ops per latency window. At this size every window's tail
/// is p90 with 50 samples beyond it, whatever the workload's rate.
const OPS_PER_WINDOW: usize = 500;

/// Median and tail of one window's per-op latencies.
#[derive(Debug, Clone, Copy)]
struct Latency {
    p50_ms: f64,
    /// The highest ladder percentile with at least ten samples beyond it.
    tail_pct: f64,
    tail_ms: f64,
    beyond_tail: usize,
}

/// Nearest-rank percentile summary of latencies given in nanoseconds.
fn latency(ns: &mut [u64]) -> Latency {
    ns.sort_unstable();
    let n = ns.len();
    let rank = |p: f64| ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1));
    let at = |p: f64| ns.get(rank(p) - 1).map_or(0.0, |&v| v as f64 / 1e6);
    let tail_pct = TAIL_LADDER
        .iter()
        .copied()
        .rfind(|&p| n.saturating_sub(rank(p)) >= 10)
        .unwrap_or(50.0);
    Latency {
        p50_ms: at(50.0),
        tail_pct,
        tail_ms: at(tail_pct),
        beyond_tail: n.saturating_sub(rank(tail_pct)),
    }
}

/// Streams a measured phase's ops into windows of [`OPS_PER_WINDOW`]
/// consecutive completions and keeps, per window, its throughput, p50
/// and tail. The run reports the median of each over windows, so a burst
/// of host noise in a few windows does not move it. Memory stays
/// constant however many ops complete, so `peak_rss_mb` does not grow
/// with throughput.
#[derive(Debug)]
pub struct Windows {
    /// Units of work per op (scenarios per batch, else 1).
    units: f64,
    open: Vec<u64>,
    open_since_ns: u64,
    last_done_ns: u64,
    ops: u64,
    throughput: Vec<f64>,
    p50_ms: Vec<f64>,
    tail_ms: Vec<f64>,
    tail: Option<Latency>,
}

impl Windows {
    #[must_use]
    pub fn new(units: f64) -> Self {
        Windows {
            units,
            open: Vec::with_capacity(OPS_PER_WINDOW),
            open_since_ns: 0,
            last_done_ns: 0,
            ops: 0,
            throughput: Vec::new(),
            p50_ms: Vec::new(),
            tail_ms: Vec::new(),
            tail: None,
        }
    }

    /// Records one op that completed `done_ns` after the phase began.
    pub fn push(&mut self, done_ns: u64, latency_ns: u64) {
        self.ops += 1;
        self.open.push(latency_ns);
        self.last_done_ns = done_ns;
        if self.open.len() == OPS_PER_WINDOW {
            self.close();
        }
    }

    fn close(&mut self) {
        let span_s = (self.last_done_ns - self.open_since_ns).max(1) as f64 / 1e9;
        self.throughput
            .push(self.open.len() as f64 * self.units / span_s);
        let l = latency(&mut self.open);
        self.p50_ms.push(l.p50_ms);
        self.tail_ms.push(l.tail_ms);
        self.tail = Some(l);
        self.open.clear();
        self.open_since_ns = self.last_done_ns;
    }

    /// Every end-to-end metric but `success_rate`, called right after the
    /// measured phase: the set-up median, the medians over full windows
    /// (a phase too short for one full window counts as one partial
    /// window), and the peak resident set so far. Also returns a report
    /// line with the window count, tail percentile and sample counts.
    #[must_use]
    pub fn finish(mut self, setup_times: &[f64]) -> (Vec<(&'static str, f64)>, String) {
        let rss = peak_rss_mib();
        if self.throughput.is_empty() && !self.open.is_empty() {
            self.close();
        }
        let (pct, beyond) = self.tail.map_or((0.0, 0), |l| (l.tail_pct, l.beyond_tail));
        let note = format!(
            "latency: {} ops in the phase, {} windows of {OPS_PER_WINDOW} consecutive ops; \
             tail per window p{pct} with {beyond} samples beyond; medians over windows",
            self.ops,
            self.throughput.len()
        );
        let metrics = vec![
            ("setup_s", median(setup_times)),
            ("throughput_per_s", median(&self.throughput)),
            ("latency_p50_ms", median(&self.p50_ms)),
            ("latency_tail_ms", median(&self.tail_ms)),
            ("peak_rss_mb", rss),
        ];
        (metrics, note)
    }
}

#[must_use]
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Per-workload outcome table: every attempted op ends in exactly one
/// of these buckets.
#[derive(Debug, Default, Clone)]
pub struct Outcomes {
    pub attempted: u64,
    pub succeeded: u64,
    /// `Unschedulable` answers: correct answers, not failures. The
    /// oracle confirms a seeded sample of them.
    pub unschedulable: u64,
    pub worker_panic: u64,
    pub deadline: u64,
    pub malformed: u64,
    /// Missing or duplicate responses, unexpected errors, and outputs
    /// that disagree with the oracle.
    pub check_mismatch: u64,
    /// The first few failure descriptions, for the log.
    pub messages: Vec<String>,
}

impl Outcomes {
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.worker_panic + self.deadline + self.malformed + self.check_mismatch
    }

    /// Records a failed output check (the op itself was already counted).
    pub fn mismatch(&mut self, message: String) {
        self.check_mismatch += 1;
        self.note(message);
    }

    pub fn note(&mut self, message: String) {
        if self.messages.len() < 8 {
            self.messages.push(message);
        }
    }

    pub fn merge(&mut self, other: Outcomes) {
        self.attempted += other.attempted;
        self.succeeded += other.succeeded;
        self.unschedulable += other.unschedulable;
        self.worker_panic += other.worker_panic;
        self.deadline += other.deadline;
        self.malformed += other.malformed;
        self.check_mismatch += other.check_mismatch;
        for m in other.messages {
            self.note(m);
        }
    }
}

/// Peak resident set size of this process so far, in MiB: `VmHWM` from
/// `/proc/self/status`, the high-water mark of the current address space.
/// `exec` starts a fresh one, so under `cargo run` this is the
/// benchmark's own peak, not cargo's.
#[must_use]
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Oracle result for one job: the tree digest, expected-utility bits and
/// tree shape, or `None` when the oracle finds it unschedulable.
pub type Expected = Option<(ftqs_core::ContentDigest, u64, usize, usize)>;

pub fn oracle_expect(app: &Application, budget: usize) -> Result<Expected, String> {
    match oracle::ftqs_reference(app, &FtqsConfig::with_budget(budget)) {
        Ok(tree) => Ok(Some((
            tree_digest(&tree),
            ftsf::expected_utility(app, tree.root_schedule()).to_bits(),
            tree.len(),
            tree.arc_count(),
        ))),
        Err(SchedulingError::Unschedulable { .. }) => Ok(None),
        Err(e) => Err(format!("oracle failed: {e}")),
    }
}
