//! The campaign driver: one API that owns a *set* of experiment runs.
//!
//! Every evaluation artifact of the paper — a table, a figure, a sweep — is
//! a list of [`ExperimentPoint`]s run under the same [`RunOptions`]. A
//! [`Campaign`] executes such a list across OS threads: each point is an
//! independently seeded, self-contained simulation, so points are
//! embarrassingly parallel and the worker count changes *wall-clock only*,
//! never results. The returned [`CampaignReport`] holds the per-point
//! [`RunReport`]s in submission order (whatever order the workers finished
//! in) plus the aggregate tables the paper's figures are built from, and
//! serializes to JSON through [`tc_types::Json`].
//!
//! ```no_run
//! use tc_system::campaign::Campaign;
//! use tc_system::experiment::table2_points;
//! use tc_system::RunOptions;
//!
//! let report = Campaign::new(table2_points())
//!     .options(RunOptions::smoke())
//!     .threads(4)
//!     .on_progress(|event| eprintln!("{event}"))
//!     .run();
//! assert_eq!(report.runs.len(), 3);
//! println!("{}", report.render_runtime_table("Table 2 configurations"));
//! ```
//!
//! # Determinism contract
//!
//! `threads(1)` and `threads(N)` produce bit-identical reports (including
//! the engine high-water marks and `events_delivered`): every point builds
//! its own `System` from `(config, workload)` with its own seed, no state is
//! shared between points, and reports are reassembled in submission order.
//! `tests/campaign.rs` pins this contract in CI.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use tc_protocols::ProtocolRegistry;
use tc_types::{InvariantViolation, Json, TrafficClass};

use crate::experiment::ExperimentPoint;
use crate::report::RunReport;
use crate::runner::RunOptions;

/// A progress notification delivered to [`Campaign::on_progress`] callbacks.
///
/// Callbacks run on the worker thread that produced the event, so with
/// `threads(N)` they must tolerate concurrent invocation (the bound is
/// `Send + Sync`).
#[derive(Debug, Clone, Copy)]
pub enum CampaignEvent<'a> {
    /// A worker picked up a point.
    Started {
        /// Submission-order index of the point.
        index: usize,
        /// Total number of points in the campaign.
        total: usize,
        /// The point's label.
        label: &'a str,
    },
    /// A worker finished a point.
    Finished {
        /// Submission-order index of the point.
        index: usize,
        /// Total number of points in the campaign.
        total: usize,
        /// The point's label.
        label: &'a str,
        /// Whether the run passed verification.
        ok: bool,
        /// Wall-clock seconds the point took.
        wall_seconds: f64,
    },
}

impl fmt::Display for CampaignEvent<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignEvent::Started {
                index,
                total,
                label,
            } => write!(f, "[{}/{total}] running {label} ...", index + 1),
            CampaignEvent::Finished {
                index,
                total,
                label,
                ok,
                wall_seconds,
            } => write!(
                f,
                "[{}/{total}] {label}: {} in {wall_seconds:.1} s",
                index + 1,
                if *ok { "ok" } else { "VERIFICATION FAILED" }
            ),
        }
    }
}

/// A boxed progress callback; see [`Campaign::on_progress`].
type ProgressCallback = Box<dyn Fn(CampaignEvent<'_>) + Send + Sync>;

/// One completed run of a campaign: the point's label plus its report.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRun {
    /// The experiment point's label.
    pub label: String,
    /// The measurements of the run.
    pub report: RunReport,
}

/// A builder-style driver that runs a list of [`ExperimentPoint`]s, possibly
/// across OS threads.
pub struct Campaign {
    points: Vec<ExperimentPoint>,
    options: RunOptions,
    threads: usize,
    registry: ProtocolRegistry,
    progress: Option<ProgressCallback>,
}

impl fmt::Debug for Campaign {
    // Manual: the boxed progress callback has no `Debug`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Campaign")
            .field("points", &self.points.len())
            .field("options", &self.options)
            .field("threads", &self.threads)
            .field("registry", &self.registry)
            .field("progress", &self.progress.is_some())
            .finish()
    }
}

impl Campaign {
    /// Creates a campaign over `points` with [`RunOptions::standard`]
    /// options, one worker thread per available core (capped at the point
    /// count), and the default protocol registry.
    pub fn new(points: Vec<ExperimentPoint>) -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Campaign {
            points,
            options: RunOptions::standard(),
            threads: cores,
            registry: tc_protocols::default_registry().clone(),
            progress: None,
        }
    }

    /// Sets the run options applied to every point.
    pub fn options(mut self, options: RunOptions) -> Self {
        self.options = options;
        self
    }

    /// Sets the number of worker threads. `1` runs the points serially on
    /// the calling thread's schedule; any `N` produces bit-identical
    /// reports, only the wall-clock changes. Values are clamped to at least
    /// one.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Uses `registry` instead of the default protocol registry to construct
    /// controllers, so campaigns can sweep experimental protocol variants.
    pub fn registry(mut self, registry: ProtocolRegistry) -> Self {
        self.registry = registry;
        self
    }

    /// Installs a progress callback. It is invoked from worker threads, so
    /// with more than one thread it must tolerate concurrent calls.
    pub fn on_progress(
        mut self,
        callback: impl Fn(CampaignEvent<'_>) + Send + Sync + 'static,
    ) -> Self {
        self.progress = Some(Box::new(callback));
        self
    }

    /// Runs every point and returns the collected reports in submission
    /// order.
    ///
    /// Work is distributed dynamically: workers claim the next unstarted
    /// point from a shared counter, so a campaign of unevenly sized points
    /// (64-node sweeps next to smoke runs) keeps all cores busy until the
    /// tail. The claim order affects only scheduling — each point's
    /// simulation is hermetic, and the report vector is indexed by
    /// submission order, not completion order.
    pub fn run(self) -> CampaignReport {
        let total = self.points.len();
        let workers = self.threads.min(total.max(1));
        let results: Mutex<Vec<(usize, RunReport)>> = Mutex::new(Vec::with_capacity(total));
        let started = Instant::now();

        self.execute(workers, &|index, report| {
            results
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push((index, report));
        });

        let mut collected = results.into_inner().unwrap_or_else(|e| e.into_inner());
        collected.sort_unstable_by_key(|(index, _)| *index);
        debug_assert_eq!(collected.len(), total);
        let runs = collected
            .into_iter()
            .zip(&self.points)
            .map(|((_, report), point)| CampaignRun {
                label: point.label.clone(),
                report,
            })
            .collect();

        CampaignReport {
            runs,
            options: self.options,
            threads: workers,
            wall_seconds: started.elapsed().as_secs_f64(),
        }
    }

    /// The one worker pool behind [`Campaign::run`] and
    /// [`Campaign::run_streaming`]: `workers` scoped threads claim points
    /// dynamically off a shared counter, emit the progress events, run each
    /// point hermetically, and hand `(index, report)` to `on_done` (invoked
    /// concurrently from worker threads; the caller synchronizes). Keeping
    /// both public paths on this loop is what keeps their scheduling — and
    /// therefore the bit-identical-aggregates contract — in lockstep.
    fn execute(&self, workers: usize, on_done: &(impl Fn(usize, RunReport) + Sync)) {
        let total = self.points.len();
        let next = AtomicUsize::new(0);
        // A panic in one point used to strand the campaign: the panicking
        // worker died, the survivors ground through every remaining point,
        // and the eventual re-panic from the thread scope had lost which
        // point failed. Now the first panic is caught, the other workers
        // abort their next claim, and the panic resurfaces with the failing
        // point's label attached.
        let abort = AtomicBool::new(false);
        let first_panic: Mutex<Option<(String, Box<dyn std::any::Any + Send>)>> = Mutex::new(None);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    if abort.load(Ordering::Relaxed) {
                        break;
                    }
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= total {
                        break;
                    }
                    let point = &self.points[index];
                    if let Some(progress) = &self.progress {
                        progress(CampaignEvent::Started {
                            index,
                            total,
                            label: &point.label,
                        });
                    }
                    let point_started = Instant::now();
                    let report = match catch_unwind(AssertUnwindSafe(|| {
                        point.run_with(self.options, &self.registry)
                    })) {
                        Ok(report) => report,
                        Err(payload) => {
                            abort.store(true, Ordering::Relaxed);
                            let mut slot = first_panic.lock().unwrap_or_else(|e| e.into_inner());
                            if slot.is_none() {
                                *slot = Some((point.label.clone(), payload));
                            }
                            break;
                        }
                    };
                    if let Some(progress) = &self.progress {
                        progress(CampaignEvent::Finished {
                            index,
                            total,
                            label: &point.label,
                            ok: report.verified().is_ok(),
                            wall_seconds: point_started.elapsed().as_secs_f64(),
                        });
                    }
                    on_done(index, report);
                });
            }
        });
        let first_panic = first_panic.into_inner().unwrap_or_else(|e| e.into_inner());
        if let Some((label, payload)) = first_panic {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            panic!("campaign point '{label}' panicked: {message}");
        }
    }

    /// Runs every point like [`Campaign::run`], but *streams* each completed
    /// [`CampaignRun`] to `sink` in submission order and drops it immediately
    /// after folding it into the aggregates — the campaign never holds more
    /// than the out-of-order completion window of full `RunReport`s in
    /// memory, so thousand-point parameter scans stay flat.
    ///
    /// The returned [`CampaignSummary`] carries exactly the aggregates
    /// [`CampaignReport`] computes — built from the same per-run rows, in the
    /// same submission order — so the streamed aggregates are bit-identical
    /// to the buffered path's (pinned by tests). `sink` is called under a
    /// lock, one run at a time, in submission order, from whichever worker
    /// thread completed the gap-filling point.
    pub fn run_streaming<F>(self, sink: F) -> CampaignSummary
    where
        F: FnMut(usize, &CampaignRun) + Send,
    {
        /// Reorders worker completions back into submission order, feeds the
        /// sink, folds the aggregate rows, and drops each report.
        struct Emitter<F> {
            next_emit: usize,
            /// Completed runs waiting for an earlier point to finish.
            pending: std::collections::BTreeMap<usize, CampaignRun>,
            sink: F,
            /// First run's cycles/transaction (the normalization baseline).
            baseline: Option<f64>,
            /// High-water mark of `pending` — the reorder buffer's worst
            /// occupancy over the run.
            peak_pending: usize,
            runtime: Vec<RuntimeRow>,
            traffic: Vec<TrafficRow>,
            miss_latency: Vec<MissLatencyRow>,
            failures: Vec<(String, InvariantViolation)>,
        }

        impl<F: FnMut(usize, &CampaignRun)> Emitter<F> {
            fn submit(&mut self, index: usize, run: CampaignRun) {
                self.pending.insert(index, run);
                self.peak_pending = self.peak_pending.max(self.pending.len());
                while let Some(run) = self.pending.remove(&self.next_emit) {
                    let index = self.next_emit;
                    self.next_emit += 1;
                    let baseline = *self
                        .baseline
                        .get_or_insert_with(|| run.report.cycles_per_transaction());
                    self.runtime.push(RuntimeRow::from_run(&run, baseline));
                    self.traffic.push(TrafficRow::from_run(&run));
                    self.miss_latency.push(MissLatencyRow::from_run(&run));
                    if let Err(violation) = run.report.verified() {
                        self.failures.push((run.label.clone(), violation));
                    }
                    (self.sink)(index, &run);
                    // `run` drops here: the full RunReport is released.
                }
            }
        }

        let total = self.points.len();
        let workers = self.threads.min(total.max(1));
        let emitter = Mutex::new(Emitter {
            next_emit: 0,
            pending: std::collections::BTreeMap::new(),
            sink,
            baseline: None,
            peak_pending: 0,
            runtime: Vec::with_capacity(total),
            traffic: Vec::with_capacity(total),
            miss_latency: Vec::with_capacity(total),
            failures: Vec::new(),
        });
        let started = Instant::now();

        self.execute(workers, &|index, report| {
            emitter.lock().unwrap_or_else(|e| e.into_inner()).submit(
                index,
                CampaignRun {
                    label: self.points[index].label.clone(),
                    report,
                },
            );
        });

        let emitter = emitter.into_inner().unwrap_or_else(|e| e.into_inner());
        debug_assert_eq!(emitter.next_emit, total);
        CampaignSummary {
            points: total,
            options: self.options,
            threads: workers,
            wall_seconds: started.elapsed().as_secs_f64(),
            peak_reorder_buffer: emitter.peak_pending,
            runtime: emitter.runtime,
            traffic: emitter.traffic,
            miss_latency: emitter.miss_latency,
            failures: emitter.failures,
        }
    }
}

/// The aggregate results of a streamed campaign ([`Campaign::run_streaming`]):
/// the same per-run aggregate rows a buffered [`CampaignReport`] computes,
/// without retaining any full [`RunReport`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSummary {
    /// Number of points that ran.
    pub points: usize,
    /// The options every point ran under.
    pub options: RunOptions,
    /// Worker threads actually used.
    pub threads: usize,
    /// Wall-clock seconds for the whole campaign.
    pub wall_seconds: f64,
    /// Peak occupancy of the streaming reorder buffer: the most completed
    /// runs ever held back waiting for an earlier point. Bounded by the
    /// worker count when the sink is the bottleneck. Scheduling-dependent —
    /// like `wall_seconds`, it is *excluded* from the determinism contract
    /// (and reported as 0 by [`CampaignReport::summary`], which never
    /// buffers out of order).
    pub peak_reorder_buffer: usize,
    /// The normalized-runtime aggregate, in submission order.
    pub runtime: Vec<RuntimeRow>,
    /// The traffic-breakdown aggregate, in submission order.
    pub traffic: Vec<TrafficRow>,
    /// The miss-latency aggregate, in submission order.
    pub miss_latency: Vec<MissLatencyRow>,
    /// Label and first violation of every run that failed verification.
    pub failures: Vec<(String, InvariantViolation)>,
}

impl CampaignSummary {
    /// `Ok` if every run passed verification; otherwise the first failing
    /// label and violation.
    ///
    /// # Errors
    ///
    /// Returns the label of the first unverified run plus its first
    /// violation.
    pub fn verified(&self) -> Result<(), (String, InvariantViolation)> {
        match self.failures.first() {
            None => Ok(()),
            Some((label, violation)) => Err((label.clone(), violation.clone())),
        }
    }
}

/// One row of the normalized-runtime aggregate (Figures 4a / 5a).
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeRow {
    /// Point label.
    pub label: String,
    /// Cycles per transaction (the paper's figure of merit).
    pub cycles_per_transaction: f64,
    /// Runtime normalized against the campaign's first point.
    pub normalized: f64,
    /// Percentage of misses served cache-to-cache.
    pub cache_to_cache_pct: f64,
}

impl RuntimeRow {
    /// Builds the row for one run. `baseline` is the first run's
    /// cycles-per-transaction — shared by the buffered and streaming paths
    /// so their aggregates are bit-identical.
    fn from_run(run: &CampaignRun, baseline: f64) -> RuntimeRow {
        RuntimeRow {
            label: run.label.clone(),
            cycles_per_transaction: run.report.cycles_per_transaction(),
            normalized: run.report.cycles_per_transaction() / baseline,
            cache_to_cache_pct: 100.0 * run.report.misses.cache_to_cache_fraction(),
        }
    }
}

/// One row of the traffic-breakdown aggregate (Figures 4b / 5b).
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficRow {
    /// Point label.
    pub label: String,
    /// Bytes per miss for every [`TrafficClass`], in the paper's stacked-bar
    /// order.
    pub per_class: Vec<(TrafficClass, f64)>,
    /// Total link-crossing bytes per miss.
    pub total: f64,
}

impl TrafficRow {
    fn from_run(run: &CampaignRun) -> TrafficRow {
        let breakdown = run.report.traffic_breakdown();
        TrafficRow {
            label: run.label.clone(),
            total: breakdown.total(),
            per_class: breakdown.per_class,
        }
    }
}

/// One row of the miss-latency aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct MissLatencyRow {
    /// Point label.
    pub label: String,
    /// Total misses in the run.
    pub misses: u64,
    /// Average miss latency in nanoseconds.
    pub avg_latency_ns: f64,
    /// Median end-to-end miss latency in nanoseconds.
    pub p50_latency_ns: u64,
    /// 99th-percentile end-to-end miss latency in nanoseconds.
    pub p99_latency_ns: u64,
    /// Worst end-to-end miss latency in nanoseconds.
    pub max_latency_ns: u64,
    /// Per-node completion-share skew in parts per million (0 = perfectly
    /// fair).
    pub completion_skew_ppm: u64,
    /// Percentage of misses served cache-to-cache.
    pub cache_to_cache_pct: f64,
    /// Percentage of misses that needed at least one reissue or a persistent
    /// request (zero for the non-token protocols).
    pub reissued_pct: f64,
}

impl MissLatencyRow {
    fn from_run(run: &CampaignRun) -> MissLatencyRow {
        let misses = &run.report.misses;
        let [_, once, more, persistent] = run.report.reissue.percentages();
        MissLatencyRow {
            label: run.label.clone(),
            misses: misses.total_misses(),
            avg_latency_ns: misses.average_miss_latency(),
            p50_latency_ns: run.report.miss_latency_p50,
            p99_latency_ns: run.report.miss_latency_p99,
            max_latency_ns: run.report.miss_latency_max,
            completion_skew_ppm: run.report.completion_skew_ppm,
            cache_to_cache_pct: 100.0 * misses.cache_to_cache_fraction(),
            reissued_pct: once + more + persistent,
        }
    }
}

/// Everything a finished campaign measured: per-point reports in submission
/// order plus the aggregate tables.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Per-point runs, in the order the points were submitted.
    pub runs: Vec<CampaignRun>,
    /// The options every point ran under.
    pub options: RunOptions,
    /// Worker threads actually used.
    pub threads: usize,
    /// Wall-clock seconds for the whole campaign.
    pub wall_seconds: f64,
}

impl CampaignReport {
    /// The per-point reports, in submission order.
    pub fn reports(&self) -> impl Iterator<Item = &RunReport> {
        self.runs.iter().map(|run| &run.report)
    }

    /// A sub-report over `count` runs starting at `start` (used to render a
    /// flattened multi-section campaign section by section). Wall-clock and
    /// thread count are inherited from the whole campaign.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, start: usize, count: usize) -> CampaignReport {
        CampaignReport {
            runs: self.runs[start..start + count].to_vec(),
            options: self.options,
            threads: self.threads,
            wall_seconds: self.wall_seconds,
        }
    }

    /// `Ok` if every run passed verification; otherwise the first failing
    /// label and violation.
    ///
    /// # Errors
    ///
    /// Returns the label of the first unverified run plus its first
    /// violation.
    pub fn verified(&self) -> Result<(), (String, InvariantViolation)> {
        for run in &self.runs {
            if let Err(violation) = run.report.verified() {
                return Err((run.label.clone(), violation));
            }
        }
        Ok(())
    }

    /// The normalized-runtime aggregate, normalized against the first run.
    pub fn runtime_rows(&self) -> Vec<RuntimeRow> {
        let baseline = self
            .runs
            .first()
            .map(|run| run.report.cycles_per_transaction())
            .unwrap_or(1.0);
        self.runs
            .iter()
            .map(|run| RuntimeRow::from_run(run, baseline))
            .collect()
    }

    /// The traffic-breakdown aggregate, in bytes per miss.
    pub fn traffic_rows(&self) -> Vec<TrafficRow> {
        self.runs.iter().map(TrafficRow::from_run).collect()
    }

    /// The miss-latency aggregate.
    pub fn miss_latency_rows(&self) -> Vec<MissLatencyRow> {
        self.runs.iter().map(MissLatencyRow::from_run).collect()
    }

    /// The aggregate-only view of this report — what
    /// [`Campaign::run_streaming`] returns. Used by tests to pin the
    /// streaming path bit-identical to the buffered one.
    pub fn summary(&self) -> CampaignSummary {
        CampaignSummary {
            points: self.runs.len(),
            options: self.options,
            threads: self.threads,
            wall_seconds: self.wall_seconds,
            peak_reorder_buffer: 0,
            runtime: self.runtime_rows(),
            traffic: self.traffic_rows(),
            miss_latency: self.miss_latency_rows(),
            failures: self
                .runs
                .iter()
                .filter_map(|run| {
                    run.report
                        .verified()
                        .err()
                        .map(|violation| (run.label.clone(), violation))
                })
                .collect(),
        }
    }

    /// Renders the normalized-runtime aggregate as an aligned text table,
    /// mirroring the "normalized runtime" bars of Figures 4a and 5a (smaller
    /// is better).
    pub fn render_runtime_table(&self, title: &str) -> String {
        let mut out = format!(
            "{title}\n{:<38} {:>16} {:>12} {:>12}\n",
            "configuration", "cycles/txn", "normalized", "c2c misses"
        );
        for row in self.runtime_rows() {
            out.push_str(&format!(
                "{:<38} {:>16.0} {:>12.3} {:>11.1}%\n",
                row.label, row.cycles_per_transaction, row.normalized, row.cache_to_cache_pct
            ));
        }
        out
    }

    /// Renders the traffic-breakdown aggregate as an aligned text table,
    /// mirroring the stacked bars of Figures 4b and 5b.
    pub fn render_traffic_table(&self, title: &str) -> String {
        let mut out = format!(
            "{title}\n{:<24} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}\n",
            "configuration", "data+wb", "requests", "fwd+inv", "other", "reissue+per", "total"
        );
        for run in &self.runs {
            let breakdown = run.report.traffic_breakdown();
            out.push_str(&format!(
                "{:<24} {:>12.1} {:>12.1} {:>12.1} {:>12.1} {:>12.1} {:>12.1}\n",
                run.label,
                breakdown.class(TrafficClass::DataResponseOrWriteback),
                breakdown.class(TrafficClass::Request),
                breakdown.class(TrafficClass::ForwardedOrInvalidation),
                breakdown.class(TrafficClass::OtherControl),
                breakdown.class(TrafficClass::ReissueOrPersistent),
                breakdown.total()
            ));
        }
        out
    }

    /// Renders the miss-latency aggregate as an aligned text table.
    pub fn render_miss_latency_table(&self, title: &str) -> String {
        let mut out = format!(
            "{title}\n{:<38} {:>10} {:>14} {:>9} {:>9} {:>9} {:>10} {:>12} {:>10}\n",
            "configuration",
            "misses",
            "avg lat (ns)",
            "p50",
            "p99",
            "max",
            "skew ppm",
            "c2c misses",
            "reissued"
        );
        for row in self.miss_latency_rows() {
            out.push_str(&format!(
                "{:<38} {:>10} {:>14.1} {:>9} {:>9} {:>9} {:>10} {:>11.1}% {:>9.2}%\n",
                row.label,
                row.misses,
                row.avg_latency_ns,
                row.p50_latency_ns,
                row.p99_latency_ns,
                row.max_latency_ns,
                row.completion_skew_ppm,
                row.cache_to_cache_pct,
                row.reissued_pct
            ));
        }
        out
    }

    /// Serializes the whole campaign — per-point reports and the three
    /// aggregates — as compact JSON.
    pub fn to_json(&self) -> String {
        let runtime = self.runtime_rows().into_iter().map(|row| {
            Json::obj([
                ("label", Json::Str(row.label)),
                (
                    "cycles_per_transaction",
                    Json::fixed(row.cycles_per_transaction, 2),
                ),
                ("normalized", Json::fixed(row.normalized, 4)),
            ])
        });
        let traffic = self.traffic_rows().into_iter().map(|row| {
            let classes = row
                .per_class
                .iter()
                .map(|&(class, bytes)| (class_key(class), Json::fixed(bytes, 2)));
            Json::obj(
                std::iter::once(("label", Json::Str(row.label)))
                    .chain(classes)
                    .chain([("total", Json::fixed(row.total, 2))]),
            )
        });
        let miss_latency = self.miss_latency_rows().into_iter().map(|row| {
            Json::obj([
                ("label", Json::Str(row.label)),
                ("misses", Json::u64(row.misses)),
                ("avg_latency_ns", Json::fixed(row.avg_latency_ns, 2)),
                ("p50_latency_ns", Json::u64(row.p50_latency_ns)),
                ("p99_latency_ns", Json::u64(row.p99_latency_ns)),
                ("max_latency_ns", Json::u64(row.max_latency_ns)),
                ("completion_skew_ppm", Json::u64(row.completion_skew_ppm)),
                ("cache_to_cache_pct", Json::fixed(row.cache_to_cache_pct, 2)),
                ("reissued_pct", Json::fixed(row.reissued_pct, 3)),
            ])
        });
        Json::obj([
            ("points", Json::u64(self.runs.len() as u64)),
            ("threads", Json::u64(self.threads as u64)),
            ("ops_per_node", Json::u64(self.options.ops_per_node)),
            ("max_cycles", Json::u64(self.options.max_cycles)),
            ("faults", Json::Str(self.options.faults.to_string())),
            ("adversary", Json::Str(self.options.adversary.to_string())),
            ("wall_seconds", Json::fixed(self.wall_seconds, 3)),
            (
                "runs",
                Json::Arr(
                    self.runs
                        .iter()
                        .map(|run| run_json(&run.label, &run.report))
                        .collect(),
                ),
            ),
            ("normalized_runtime", Json::Arr(runtime.collect())),
            ("traffic_bytes_per_miss", Json::Arr(traffic.collect())),
            ("miss_latency", Json::Arr(miss_latency.collect())),
        ])
        .to_string()
    }
}

/// Serializes one run as a compact JSON object — the canonical per-run
/// wire form. [`CampaignReport::to_json`]'s `runs` array is built from
/// exactly these objects, and the campaign service streams them verbatim,
/// which is what makes "served result == one-shot result" a *byte*-level
/// contract rather than a semantic one. Every field is a deterministic
/// function of the simulation (no wall-clock, no thread count).
pub fn run_to_json(label: &str, report: &RunReport) -> String {
    run_json(label, report).to_string()
}

/// The shared body behind [`run_to_json`] and [`CampaignReport::to_json`].
fn run_json(label: &str, r: &RunReport) -> Json {
    let mut members = vec![
        ("label", Json::Str(label.to_string())),
        ("protocol", Json::Str(r.protocol.name().to_string())),
        ("topology", Json::Str(r.topology.name().to_string())),
        ("workload", Json::Str(r.workload.clone())),
        ("num_nodes", Json::u64(r.num_nodes as u64)),
        ("runtime_cycles", Json::u64(r.runtime_cycles)),
        ("total_ops", Json::u64(r.total_ops)),
        ("total_transactions", Json::u64(r.total_transactions)),
        (
            "cycles_per_transaction",
            Json::fixed(r.cycles_per_transaction(), 2),
        ),
        ("misses", Json::u64(r.misses.total_misses())),
        (
            "avg_miss_latency_ns",
            Json::fixed(r.misses.average_miss_latency(), 2),
        ),
        ("miss_latency_p50_ns", Json::u64(r.miss_latency_p50)),
        ("miss_latency_p99_ns", Json::u64(r.miss_latency_p99)),
        ("miss_latency_max_ns", Json::u64(r.miss_latency_max)),
        ("completion_skew_ppm", Json::u64(r.completion_skew_ppm)),
        ("bytes_per_miss", Json::fixed(r.bytes_per_miss(), 2)),
        ("events_delivered", Json::u64(r.engine.events_delivered)),
        (
            "peak_state_entries",
            Json::u64(r.engine.state.total_entries()),
        ),
        ("peak_state_bytes", Json::u64(r.engine.state.state_bytes)),
        ("faults", Json::Str(r.faults.to_string())),
    ];
    if !r.faults.is_none() {
        let fs = &r.engine.faults;
        members.extend([
            ("faults_dropped", Json::u64(fs.dropped)),
            ("faults_duplicated", Json::u64(fs.duplicated)),
            ("faults_delayed", Json::u64(fs.delayed)),
            ("faults_reordered", Json::u64(fs.reordered)),
            ("faults_link_deferred", Json::u64(fs.link_deferred)),
            ("reissue_timeouts", Json::u64(fs.reissue_timeouts)),
            (
                "persistent_activations",
                Json::u64(fs.persistent_activations),
            ),
            ("max_recovery_ns", Json::u64(fs.max_recovery_ns)),
        ]);
    }
    if !r.adversary.is_none() {
        let adv = &r.engine.adversary;
        members.extend([
            ("adversary", Json::Str(r.adversary.to_string())),
            ("adversary_reordered", Json::u64(adv.reordered)),
            ("adversary_targeted", Json::u64(adv.targeted)),
            ("adversary_stormed", Json::u64(adv.stormed)),
            ("adversary_max_skew_ns", Json::u64(adv.max_skew_ns)),
        ]);
    }
    members.push(("violations", Json::u64(r.violations.len() as u64)));
    Json::obj(members)
}

/// Stable JSON key for a traffic class.
fn class_key(class: TrafficClass) -> &'static str {
    match class {
        TrafficClass::Request => "requests",
        TrafficClass::ForwardedOrInvalidation => "forwarded_or_invalidation",
        TrafficClass::DataResponseOrWriteback => "data_or_writeback",
        TrafficClass::OtherControl => "other_control",
        TrafficClass::ReissueOrPersistent => "reissue_or_persistent",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_types::{ProtocolKind, SystemConfig};
    use tc_workloads::WorkloadProfile;

    fn small_points() -> Vec<ExperimentPoint> {
        ProtocolKind::ALL
            .iter()
            .map(|&protocol| {
                let mut config = SystemConfig::isca03_default()
                    .with_nodes(4)
                    .with_protocol(protocol)
                    .with_seed(7);
                config.l2.size_bytes = 256 * 1024;
                ExperimentPoint::new(
                    format!("{protocol}-smoke"),
                    config,
                    WorkloadProfile::specjbb(),
                )
            })
            .collect()
    }

    fn tiny_options() -> RunOptions {
        RunOptions {
            ops_per_node: 250,
            max_cycles: 20_000_000,
            ..RunOptions::default()
        }
    }

    #[test]
    fn campaign_preserves_submission_order_and_labels() {
        let points = small_points();
        let labels: Vec<String> = points.iter().map(|p| p.label.clone()).collect();
        let report = Campaign::new(points)
            .options(tiny_options())
            .threads(3)
            .run();
        let got: Vec<String> = report.runs.iter().map(|r| r.label.clone()).collect();
        assert_eq!(got, labels);
        assert!(report.verified().is_ok());
        assert_eq!(report.threads, 3);
        assert!(report.wall_seconds > 0.0);
    }

    #[test]
    fn progress_events_fire_once_per_point() {
        use std::sync::atomic::AtomicU64;
        let started = std::sync::Arc::new(AtomicU64::new(0));
        let finished = std::sync::Arc::new(AtomicU64::new(0));
        let (s, f) = (started.clone(), finished.clone());
        let report = Campaign::new(small_points())
            .options(tiny_options())
            .threads(2)
            .on_progress(move |event| match event {
                CampaignEvent::Started { .. } => {
                    s.fetch_add(1, Ordering::Relaxed);
                }
                CampaignEvent::Finished { ok, .. } => {
                    assert!(ok);
                    f.fetch_add(1, Ordering::Relaxed);
                }
            })
            .run();
        assert_eq!(started.load(Ordering::Relaxed), report.runs.len() as u64);
        assert_eq!(finished.load(Ordering::Relaxed), report.runs.len() as u64);
    }

    #[test]
    fn aggregates_are_normalized_against_the_first_point() {
        let report = Campaign::new(small_points())
            .options(tiny_options())
            .threads(1)
            .run();
        let runtime = report.runtime_rows();
        assert_eq!(runtime.len(), 4);
        assert!((runtime[0].normalized - 1.0).abs() < 1e-12);
        let traffic = report.traffic_rows();
        assert!(traffic.iter().all(|row| row.total >= 0.0));
        let latency = report.miss_latency_rows();
        assert!(latency.iter().all(|row| row.misses > 0));
        // The renderers must not panic and must mention every label.
        let text = format!(
            "{}{}{}",
            report.render_runtime_table("runtime"),
            report.render_traffic_table("traffic"),
            report.render_miss_latency_table("latency")
        );
        for run in &report.runs {
            assert!(text.contains(&run.label));
        }
    }

    #[test]
    fn slice_returns_contiguous_sections() {
        let report = Campaign::new(small_points())
            .options(tiny_options())
            .threads(2)
            .run();
        let head = report.slice(0, 2);
        let tail = report.slice(2, 2);
        assert_eq!(head.runs.len(), 2);
        assert_eq!(tail.runs.len(), 2);
        assert_eq!(head.runs[0], report.runs[0]);
        assert_eq!(tail.runs[1], report.runs[3]);
    }

    /// The crash-path contract: a panic inside one point must fail the
    /// campaign promptly and resurface naming the failing point — not
    /// strand the caller behind every remaining point and a label-less
    /// thread-scope re-panic.
    #[test]
    fn a_panicking_point_fails_fast_and_names_itself() {
        let mut points = small_points();
        // `System::build` panics on an invalid configuration; zero nodes is
        // reliably invalid.
        points.insert(
            1,
            ExperimentPoint::new(
                "explosive-point".to_string(),
                SystemConfig::isca03_default().with_nodes(0).with_seed(7),
                WorkloadProfile::specjbb(),
            ),
        );
        let payload = catch_unwind(AssertUnwindSafe(|| {
            Campaign::new(points)
                .options(tiny_options())
                .threads(2)
                .run()
        }))
        .expect_err("campaign must propagate the point's panic");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            message.contains("explosive-point"),
            "panic must name the failing point, got: {message}"
        );
    }

    #[test]
    fn empty_campaign_is_a_no_op() {
        let report = Campaign::new(Vec::new()).threads(8).run();
        assert!(report.runs.is_empty());
        assert!(report.verified().is_ok());
        assert!(report.to_json().contains("\"points\":0"));
        let summary = Campaign::new(Vec::new())
            .threads(8)
            .run_streaming(|_, _| {});
        assert_eq!(summary.points, 0);
        assert!(summary.verified().is_ok());
    }

    /// The streaming satellite's contract: `run_streaming` must produce
    /// aggregates bit-identical to the buffered path at any thread count,
    /// and deliver runs to the sink in submission order exactly once.
    #[test]
    fn streaming_aggregates_are_bit_identical_to_buffered() {
        let buffered = Campaign::new(small_points())
            .options(tiny_options())
            .threads(1)
            .run();
        let reference = buffered.summary();
        for threads in [1usize, 3] {
            let seen = Mutex::new(Vec::new());
            let summary = Campaign::new(small_points())
                .options(tiny_options())
                .threads(threads)
                .run_streaming(|index, run| {
                    seen.lock().unwrap().push((index, run.label.clone()));
                });
            let seen = seen.into_inner().unwrap();
            // Submission order, each point exactly once.
            assert_eq!(
                seen.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
                (0..buffered.runs.len()).collect::<Vec<_>>(),
                "threads={threads}"
            );
            for ((_, label), run) in seen.iter().zip(&buffered.runs) {
                assert_eq!(label, &run.label, "threads={threads}");
            }
            // Bit-identical aggregates (wall-clock and thread count are the
            // only legitimately differing fields).
            assert_eq!(summary.runtime, reference.runtime, "threads={threads}");
            assert_eq!(summary.traffic, reference.traffic, "threads={threads}");
            assert_eq!(
                summary.miss_latency, reference.miss_latency,
                "threads={threads}"
            );
            assert_eq!(summary.failures, reference.failures, "threads={threads}");
            assert_eq!(summary.points, reference.points);
            assert_eq!(summary.options, reference.options);
            assert!(summary.verified().is_ok());
        }
    }

    #[test]
    fn json_carries_the_state_plane_fields() {
        let mut points = small_points();
        points.truncate(1);
        let report = Campaign::new(points)
            .options(tiny_options())
            .threads(1)
            .run();
        let json = report.to_json();
        assert!(json.contains("\"peak_state_bytes\":"));
        assert!(json.contains("\"peak_state_entries\":"));
        assert!(report.runs[0].report.engine.state.state_bytes > 0);
        assert!(report.runs[0].report.engine.state.mshr_peak > 0);
    }

    #[test]
    fn json_is_structurally_balanced_and_carries_the_runs() {
        let report = Campaign::new(small_points())
            .options(tiny_options())
            .threads(2)
            .run();
        let json = report.to_json();
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(
            json.matches('[').count(),
            json.matches(']').count(),
            "{json}"
        );
        for run in &report.runs {
            assert!(json.contains(&format!("\"label\":\"{}\"", run.label)));
        }
        assert!(json.contains("\"normalized_runtime\":["));
        assert!(json.contains("\"traffic_bytes_per_miss\":["));
        assert!(json.contains("\"miss_latency\":["));
        assert!(json.contains("\"events_delivered\":"));
    }

    /// The slow-sink contract: when the consumer lags the workers, the
    /// reorder buffer must stay bounded by the worker count (workers block
    /// on the emitter lock rather than piling completed runs up without
    /// limit), and delivery must still be exactly-once in submission order.
    #[test]
    fn streaming_reorder_buffer_stays_bounded_under_a_slow_sink() {
        let points = small_points();
        let expected: Vec<String> = points.iter().map(|p| p.label.clone()).collect();
        let threads = 4usize;
        let seen = Mutex::new(Vec::new());
        let summary = Campaign::new(points)
            .options(tiny_options())
            .threads(threads)
            .run_streaming(|index, run| {
                // Lag the consumer: every worker finishes its point before
                // the first emitted run leaves the sink.
                std::thread::sleep(std::time::Duration::from_millis(100));
                seen.lock().unwrap().push((index, run.label.clone()));
            });
        let seen = seen.into_inner().unwrap();
        assert_eq!(
            seen.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
            (0..expected.len()).collect::<Vec<_>>()
        );
        for ((_, label), want) in seen.iter().zip(&expected) {
            assert_eq!(label, want);
        }
        assert!(
            summary.peak_reorder_buffer <= threads,
            "reorder buffer held {} runs with only {} workers",
            summary.peak_reorder_buffer,
            threads
        );
        assert!(summary.verified().is_ok());
    }

    /// The wire-format contract: the writer's output must be accepted by
    /// the reader, and re-serialize byte-identically (the reader preserves
    /// member order and raw number tokens).
    #[test]
    fn campaign_json_parses_and_reserializes_byte_identically() {
        let report = Campaign::new(small_points())
            .options(tiny_options())
            .threads(2)
            .run();
        let json = report.to_json();
        let parsed = tc_types::Json::parse(&json).expect("writer output must parse");
        assert_eq!(parsed.to_string(), json);
        // Same contract for the per-run wire form the campaign service streams.
        for run in &report.runs {
            let line = run_to_json(&run.label, &run.report);
            let parsed = tc_types::Json::parse(&line).expect("run line must parse");
            assert_eq!(parsed.to_string(), line);
            assert_eq!(
                parsed.get("label").and_then(tc_types::Json::as_str),
                Some(run.label.as_str())
            );
        }
    }

    /// The snapshot-plane contract for full reports: a `RunReport` must
    /// survive save_state -> load_state exactly (every field participates
    /// in `PartialEq`).
    #[test]
    fn run_report_round_trips_through_the_snapshot_codec() {
        let report = Campaign::new(small_points())
            .options(tiny_options())
            .threads(1)
            .run();
        for run in &report.runs {
            let mut w = tc_sim::SnapWriter::new();
            run.report.save_state(&mut w);
            let payload = w.into_bytes();
            let mut r = tc_sim::SnapReader::new(&payload);
            let restored = RunReport::load_state(&mut r).expect("round trip must decode");
            r.finish().expect("no trailing bytes");
            assert_eq!(restored, run.report, "label={}", run.label);
        }
    }
}
