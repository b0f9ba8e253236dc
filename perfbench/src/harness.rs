//! The measurement window shared by every workload: warm-up, the measured
//! window (alternating traced and untraced slices in a traced run), engine
//! counter deltas and sampled background-work gauges.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use farm_core::{Engine, EngineStatsSnapshot, PipelineTimings};
use farm_net::{NetStatsSnapshot, PhaseHistogramSnapshot};

use crate::report::LatencyHist;
use crate::trace::Tracer;

/// Warm-up before the measured window, so that the install backlog and the
/// truncation watermarks are in steady state when it opens. (Clock
/// synchronisation has converged before set-up ends.)
pub const WARMUP: Duration = Duration::from_secs(1);
/// Length of one traced or untraced slice of a traced run.
const SLICE: Duration = Duration::from_millis(100);
/// Gauge sampling period of a traced run.
const SAMPLE_EVERY: Duration = Duration::from_millis(2);

/// Lease expiry of every benchmark cluster. The default 10 ms lease is
/// shorter than a scheduling stall of the control thread on a host with
/// fewer CPUs than runnable threads; such a stall evicts a live node (its
/// clients then fail with `CoordinatorDead`). Failure detection is not
/// measured here, so the lease is long enough that no stall trips it.
const LEASE: Duration = Duration::from_secs(1);

/// The cluster configuration every workload starts from: `farm_bench`'s
/// benchmark cluster of `nodes` machines with 3-way replication.
pub fn cluster(nodes: usize) -> farm_kernel::ClusterConfig {
    farm_kernel::ClusterConfig {
        lease_expiry: LEASE,
        ..farm_bench::bench_cluster(nodes)
    }
}

/// What a client should do with the operation it is about to start.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Slot {
    /// Warm-up: run, but record nothing.
    Warmup,
    /// Measured window: `traced` says whether to record spans, `sub` is the
    /// untraced sub-window the operation counts towards.
    Measure { traced: bool, sub: usize },
}

impl Slot {
    pub fn measure(self) -> bool {
        matches!(self, Slot::Measure { .. })
    }

    pub fn traced(self) -> bool {
        matches!(self, Slot::Measure { traced: true, .. })
    }
}

/// `Window::phase` values: warm-up, stop, then `MEASURE + 2·sub + traced`.
const WARMUP_PHASE: usize = 0;
const STOP: usize = 1;
const MEASURE: usize = 2;

/// The phase every client polls before each operation.
#[derive(Default)]
pub struct Window {
    phase: AtomicUsize,
}

impl Window {
    /// The slot for the next operation, or `None` once the window closed.
    pub fn slot(&self) -> Option<Slot> {
        match self.phase.load(Ordering::Relaxed) {
            WARMUP_PHASE => Some(Slot::Warmup),
            STOP => None,
            p => Some(Slot::Measure {
                traced: (p - MEASURE) % 2 == 1,
                sub: (p - MEASURE) / 2,
            }),
        }
    }

    fn measure(&self, sub: usize, traced: bool) {
        self.phase
            .store(MEASURE + 2 * sub + traced as usize, Ordering::Relaxed);
    }

    fn stop(&self) {
        self.phase.store(STOP, Ordering::Relaxed);
    }
}

/// Commits of one untraced sub-window.
#[derive(Clone)]
pub struct Sub {
    /// Begin-to-commit latency of the measured kind.
    pub latency: LatencyHist,
    /// Committed transactions of the measured kind.
    pub measured: u64,
    /// Committed transactions, all kinds.
    pub commits: u64,
}

impl Sub {
    fn new() -> Self {
        Sub {
            latency: LatencyHist::new(),
            measured: 0,
            commits: 0,
        }
    }
}

/// What one client counted inside the measured window.
pub struct Tally {
    /// Untraced sub-windows, by index.
    pub subs: Vec<Sub>,
    /// Committed measured-kind transactions in traced slices.
    pub traced_measured: u64,
    /// Client transactions finished (committed or failed).
    pub txns: u64,
    /// Committed transactions, all kinds.
    pub commits: u64,
    /// Commit attempts, retries included.
    pub attempts: u64,
    /// Transactions that failed with a non-retryable error.
    pub failed: u64,
    /// Correctness violations the client saw, and the first one's message.
    pub violations: u64,
    pub first_violation: Option<String>,
    /// Read-only transactions that needed a retry.
    pub ro_retries: u64,
    pub tracer: Tracer,
    /// Attempts and aborts per TPC-C transaction kind.
    pub kind_attempts: [u64; crate::tpcc::KINDS.len()],
    pub kind_aborts: [u64; crate::tpcc::KINDS.len()],
    /// Pipeline cycle accounting over the window (pipelined client only).
    pub pipeline: Option<PipelineTimings>,
}

impl Tally {
    pub fn new() -> Self {
        Tally {
            subs: Vec::new(),
            traced_measured: 0,
            txns: 0,
            commits: 0,
            attempts: 0,
            failed: 0,
            violations: 0,
            first_violation: None,
            ro_retries: 0,
            tracer: Tracer::default(),
            kind_attempts: [0; crate::tpcc::KINDS.len()],
            kind_aborts: [0; crate::tpcc::KINDS.len()],
            pipeline: None,
        }
    }

    /// Counts a transaction that committed in `slot` after `attempts`
    /// attempts; `latency_ns` is set when it is of the measured kind.
    pub fn commit(&mut self, slot: Slot, attempts: u64, latency_ns: Option<u64>) {
        let Slot::Measure { traced, sub } = slot else {
            return;
        };
        self.txns += 1;
        self.commits += 1;
        self.attempts += attempts;
        if traced {
            self.traced_measured += latency_ns.is_some() as u64;
            return;
        }
        if self.subs.len() <= sub {
            self.subs.resize_with(sub + 1, Sub::new);
        }
        let s = &mut self.subs[sub];
        s.commits += 1;
        if let Some(ns) = latency_ns {
            s.measured += 1;
            s.latency.record(ns);
        }
    }

    /// Records a failed transaction.
    pub fn fail(&mut self, message: String) {
        self.txns += 1;
        self.failed += 1;
        self.violate(message);
    }

    /// Records a correctness violation.
    pub fn violate(&mut self, message: String) {
        self.violations += 1;
        if self.first_violation.is_none() {
            self.first_violation = Some(message);
        }
    }

    fn merge(&mut self, o: &Tally) {
        if self.subs.len() < o.subs.len() {
            self.subs.resize_with(o.subs.len(), Sub::new);
        }
        for (a, b) in self.subs.iter_mut().zip(&o.subs) {
            a.latency.merge(&b.latency);
            a.measured += b.measured;
            a.commits += b.commits;
        }
        self.traced_measured += o.traced_measured;
        self.txns += o.txns;
        self.commits += o.commits;
        self.attempts += o.attempts;
        self.failed += o.failed;
        self.violations += o.violations;
        if self.first_violation.is_none() {
            self.first_violation.clone_from(&o.first_violation);
        }
        self.ro_retries += o.ro_retries;
        self.tracer.merge(&o.tracer);
        for k in 0..self.kind_attempts.len() {
            self.kind_attempts[k] += o.kind_attempts[k];
            self.kind_aborts[k] += o.kind_aborts[k];
        }
        if let Some(p) = &o.pipeline {
            self.pipeline.get_or_insert_with(Default::default).merge(p);
        }
    }
}

/// Cluster-wide engine counters at one instant.
#[derive(Clone, Copy, Default)]
pub struct Counters {
    pub engine: EngineStatsSnapshot,
    pub net: NetStatsSnapshot,
    pub phases: PhaseHistogramSnapshot,
    /// Clock timestamps issued, uncertainty waits and their nanoseconds.
    pub clock_ts: u64,
    pub clock_waits: u64,
    pub clock_wait_ns: u64,
}

impl Counters {
    pub fn take(engine: &Engine) -> Counters {
        let mut c = Counters {
            engine: engine.aggregate_stats(),
            ..Counters::default()
        };
        for node in engine.nodes() {
            let stats = node.handle().stats();
            c.net = c.net.merged(&stats.snapshot());
            c.phases = c.phases.merged(&stats.phases().snapshot());
            let (ts, waits, wait_ns, _) = node.handle().clock().stats().snapshot();
            c.clock_ts += ts;
            c.clock_waits += waits;
            c.clock_wait_ns += wait_ns;
        }
        c
    }

    pub fn delta(&self, earlier: &Counters) -> Counters {
        Counters {
            engine: self.engine.delta(&earlier.engine),
            net: self.net.delta(&earlier.net),
            phases: self.phases.delta(&earlier.phases),
            clock_ts: self.clock_ts - earlier.clock_ts,
            clock_waits: self.clock_waits - earlier.clock_waits,
            clock_wait_ns: self.clock_wait_ns - earlier.clock_wait_ns,
        }
    }
}

/// Maxima of the background-work gauges sampled during a traced window.
#[derive(Clone, Copy, Default, Debug)]
pub struct Gauges {
    pub pending_installs: usize,
    pub truncation_lag: u64,
    pub backup_log_len: usize,
    pub active: usize,
    pub max_inflight: u64,
}

impl Gauges {
    fn sample(&mut self, engine: &Engine) {
        let nodes = engine.nodes();
        let pending: usize = nodes.iter().map(|n| n.pending_installs()).sum();
        let logs: usize = nodes.iter().map(|n| n.backup_log_len()).sum();
        let active: usize = nodes.iter().map(|n| n.active_transactions()).sum();
        let lag = nodes
            .iter()
            .flat_map(|n| {
                let mark = n.truncation_watermark();
                nodes
                    .iter()
                    .filter(move |d| d.id() != n.id())
                    .map(move |d| mark.saturating_sub(n.delivered_truncation(d.id())))
            })
            .max()
            .unwrap_or(0);
        self.pending_installs = self.pending_installs.max(pending);
        self.backup_log_len = self.backup_log_len.max(logs);
        self.active = self.active.max(active);
        self.truncation_lag = self.truncation_lag.max(lag);
    }
}

/// Everything one window measured.
pub struct Measured {
    pub tally: Tally,
    /// Client threads that ran.
    pub clients: usize,
    /// Seconds of measured window.
    pub window_s: f64,
    /// Seconds of each untraced sub-window (a traced run has one, made of
    /// all its untraced slices).
    pub sub_s: Vec<f64>,
    /// Seconds of traced slices.
    pub traced_s: f64,
    pub counters: Counters,
    pub gauges: Gauges,
}

impl Measured {
    /// Per-sub-window values of `f(sub) / seconds`.
    pub fn rates(&self, f: impl Fn(&Sub) -> u64) -> Vec<f64> {
        self.tally
            .subs
            .iter()
            .zip(&self.sub_s)
            .map(|(s, secs)| f(s) as f64 / secs)
            .collect()
    }

    /// Latency quantile `q` of each sub-window that has enough samples
    /// beyond it, in microseconds.
    pub fn latency_us(&self, q: f64) -> Vec<f64> {
        self.tally
            .subs
            .iter()
            .filter_map(|s| s.latency.quantile_ns(q))
            .map(|ns| ns / 1e3)
            .collect()
    }

    /// Committed measured-kind transactions per second in untraced and in
    /// traced slices.
    pub fn untraced_and_traced_rates(&self) -> (f64, f64) {
        let untraced: u64 = self.tally.subs.iter().map(|s| s.measured).sum();
        (
            untraced as f64 / self.sub_s.iter().sum::<f64>(),
            self.tally.traced_measured as f64 / self.traced_s,
        )
    }

    /// Latency samples of the measured kind.
    pub fn latency_samples(&self) -> u64 {
        self.tally.subs.iter().map(|s| s.latency.len()).sum()
    }
}

/// A client body: runs operations until [`Window::slot`] returns `None`.
pub type Client<'a> = Box<dyn FnOnce(&Window) -> Tally + Send + 'a>;

/// Runs `clients` on their own threads through warm-up and a measured
/// window of `seconds`. Untraced, the window is `seconds` sub-windows of
/// one second each. Traced, it alternates untraced and traced slices while
/// the main thread samples gauges.
pub fn run_window(
    engine: &Arc<Engine>,
    seconds: u64,
    traced: bool,
    clients: Vec<Client<'_>>,
) -> Measured {
    let window = Window::default();
    let client_count = clients.len();
    let mut gauges = Gauges::default();
    let mut sub_s = Vec::new();
    let mut traced_s = 0.0;
    let (tallies, before, window_s) = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|client| {
                let window = &window;
                s.spawn(move || client(window))
            })
            .collect();
        std::thread::sleep(WARMUP);
        if traced {
            // NetStats keeps its in-flight high-water mark since start;
            // restart it so the maximum covers the window only.
            for node in engine.nodes() {
                node.handle().stats().reset();
            }
        }
        let before = Counters::take(engine);
        let start = Instant::now();
        let end = start + Duration::from_secs(seconds);
        if traced {
            let mut untraced_s = 0.0;
            let mut slice_start = start;
            let mut tracing = false;
            window.measure(0, false);
            loop {
                let now = Instant::now();
                let slice_done = now - slice_start >= SLICE;
                if slice_done || now >= end {
                    let secs = (now - slice_start).as_secs_f64();
                    *if tracing {
                        &mut traced_s
                    } else {
                        &mut untraced_s
                    } += secs;
                    if now >= end {
                        break;
                    }
                    tracing = !tracing;
                    window.measure(0, tracing);
                    slice_start = now;
                }
                gauges.sample(engine);
                std::thread::sleep(SAMPLE_EVERY);
            }
            sub_s.push(untraced_s);
        } else {
            let mut sub_start = start;
            for sub in 0..seconds as usize {
                window.measure(sub, false);
                let sub_end = start + Duration::from_secs(sub as u64 + 1);
                std::thread::sleep(sub_end.saturating_duration_since(Instant::now()));
                let now = Instant::now();
                sub_s.push((now - sub_start).as_secs_f64());
                sub_start = now;
            }
        }
        window.stop();
        let window_s = start.elapsed().as_secs_f64();
        let tallies: Vec<Tally> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (tallies, before, window_s)
    });
    let counters = Counters::take(engine).delta(&before);
    gauges.max_inflight = engine
        .nodes()
        .iter()
        .map(|n| n.handle().stats().max_inflight())
        .max()
        .unwrap_or(0);
    let mut tally = Tally::new();
    for t in &tallies {
        tally.merge(t);
    }
    Measured {
        tally,
        clients: client_count,
        window_s,
        sub_s,
        traced_s,
        counters,
        gauges,
    }
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// Median of `values`; NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
