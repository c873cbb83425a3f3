//! The rolling-model monitor: a lifecycle-managed scoring head.
//!
//! The frozen [`StreamingDiagnoser`](crate::StreamingDiagnoser) scores
//! forever against the models it was born with — correct for the paper's
//! experiments, wrong for a deployment that runs for months while traffic
//! drifts. [`Monitor`] wraps the same scoring code path in a three-state
//! lifecycle:
//!
//! ```text
//!             window reaches warmup_bins
//!   Warmup ───────────────────────────────▶ Fitted ◀──────────┐
//!   (absorb bins,                           │  ▲              │
//!    nothing to score)                      │  │ model swap   │ model
//!                          staleness budget │  │ (resets      │ swap
//!                          exceeded         │  │  staleness)  │
//!                                           ▼  │              │
//!                                         Degraded            │
//!                                  (keeps scoring; verdicts   │
//!                                   flagged stale)            │
//!                                           │                 │
//!                               scheduled cadence reached,    │
//!                               drift alarm-rate tripped,     │
//!                               or refit_now()                │
//!                                           ▼                 │
//!                                        Refitting ───────────┘
//!                                   (window.fit; on failure the
//!                                    old model keeps serving and
//!                                    the retry backoff grows)
//! ```
//!
//! * **Warmup** — bins accumulate into the [`TrainingWindow`]; there is
//!   no model yet, so bins pass unscored (reported as
//!   [`Verdict::Warmup`], never silently dropped).
//! * **Fitted** — every bin is scored against the live model via the
//!   exact code path batch diagnosis replays, then absorbed into the
//!   sliding window.
//! * **Refitting** — entered when a trigger fires, *after* the
//!   triggering bin was scored: the window's retained rows are refitted
//!   with the full `refit_rounds` trimming semantics (the same
//!   `fit_rounds` the batch fit runs), and the new model is swapped in **between
//!   bins** — the bin that triggered the refit was judged by the old
//!   model, the next bin by the new one, and no bin is ever scored twice
//!   or stalled. A refit that fails (degenerate window) keeps the old
//!   model serving and reports the failure in the step's
//!   [`RefitReport`].
//!
//! Two automatic triggers, both off the scored stream itself:
//!
//! * **Scheduled** — every `refit_interval` scored bins, the "model is
//!   only as old as one interval" guarantee.
//! * **Drift** — when the recent alarm fraction over the last
//!   [`DriftPolicy::window`] bins reaches
//!   [`DriftPolicy::alarm_fraction`]. A subspace model fitted on stale
//!   traffic alarms on *normal* bins once the traffic mix moves; a
//!   sustained alarm rate far above `1 − α` is the cheapest reliable
//!   drift signal, and refitting on the window (which already contains
//!   the post-drift bins, with genuinely anomalous ones excluded by the
//!   trimming rounds) re-centers the model.
//!
//! Three more mechanisms make the lifecycle survive operational faults
//! instead of merely clean drift:
//!
//! * **Quarantine** — a bin whose rows carry NaN or infinite values is
//!   never scored (a NaN makes every threshold comparison false, i.e. a
//!   silent *Clean*) and never absorbed (one retained NaN fails every
//!   later fit of the window). It is counted, reported as
//!   [`Verdict::Quarantined`], and the lifecycle moves on.
//! * **Retry backoff** — a failed refit leaves the old model serving and
//!   schedules the next automatic attempt after a bounded
//!   exponential-in-bins backoff ([`RetryPolicy`]): consecutive failures
//!   mean the window is still unhealthy, and re-burning a full
//!   `O(window·p²)` fit every chunk learns nothing new.
//! * **Degraded serving** — when the serving model's age (bins observed
//!   since the last successful swap) exceeds the configured staleness
//!   budget, the monitor enters [`MonitorState::Degraded`]: it keeps
//!   scoring (a stale verdict beats none), flags every verdict via
//!   [`MonitorStep::stale`], and surfaces the full picture through
//!   [`Monitor::health`].

use crate::pipeline::{DiagnoserConfig, Diagnosis, FittedDiagnoser, RefitTrace};
use crate::stream::{score_rows_against, thresholds_for};
use crate::window::TrainingWindow;
use crate::DiagnosisError;
use entromine_entropy::FinalizedBin;
use entromine_subspace::EmpiricalSharpness;
use std::collections::VecDeque;

/// Drift-triggered refit policy: refit when at least `alarm_fraction` of
/// the last `window` scored bins fired.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftPolicy {
    /// How many recent bins the alarm-rate estimate looks at.
    pub window: usize,
    /// The alarm fraction that declares drift (e.g. `0.25`: a quarter of
    /// recent bins alarming means the model no longer describes normal
    /// traffic).
    pub alarm_fraction: f64,
}

impl Default for DriftPolicy {
    fn default() -> Self {
        DriftPolicy {
            window: 36,
            alarm_fraction: 0.25,
        }
    }
}

/// Bounded exponential backoff for refit attempts after a failure.
///
/// A failed refit means the window is unhealthy (degenerate rows, a
/// poisoned bin that slipped past ingest, too few usable bins). The
/// trigger condition that fired it is usually still true on the next bin,
/// so without a backoff the monitor would re-burn a full `O(window·p²)`
/// fit per bin. The first retry waits `initial_bins`; each consecutive
/// failure multiplies the wait by `growth`, capped at `max_bins` so a
/// long outage can never push the next attempt arbitrarily far out. Any
/// successful swap resets the sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Backoff after the first failure, in bins. `0` means one window
    /// chunk ([`MonitorConfig::chunk_bins`]) — the roll granularity at
    /// which the window's content materially changes.
    pub initial_bins: usize,
    /// Multiplier applied per additional consecutive failure (`1` keeps
    /// the legacy fixed cadence). Must be at least 1.
    pub growth: u32,
    /// Hard ceiling on the backoff, in bins. `0` means one window
    /// capacity ([`MonitorConfig::window_bins`]) — by then the entire
    /// window content has turned over.
    pub max_bins: usize,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            initial_bins: 0,
            growth: 2,
            max_bins: 0,
        }
    }
}

impl RetryPolicy {
    /// The backoff after `consecutive_failures` (≥ 1) failures in a row,
    /// with the `0`-sentinels resolved against the monitor's chunk and
    /// window sizes. Saturating, and never below 1 bin.
    fn backoff_bins(
        &self,
        consecutive_failures: u32,
        chunk_bins: usize,
        window_bins: usize,
    ) -> usize {
        let base = if self.initial_bins == 0 {
            chunk_bins.max(1)
        } else {
            self.initial_bins
        };
        let cap = if self.max_bins == 0 {
            window_bins.max(1)
        } else {
            self.max_bins
        };
        let mut backoff = base;
        for _ in 1..consecutive_failures {
            backoff = backoff.saturating_mul(self.growth.max(1) as usize);
            if backoff >= cap {
                break;
            }
        }
        backoff.clamp(1, cap.max(1))
    }
}

/// Configuration of a [`Monitor`].
#[derive(Debug, Clone, Copy)]
pub struct MonitorConfig {
    /// The detection pipeline configuration (dimension selection, alpha,
    /// refit-round trimming, fit engine, threshold policy) — the same
    /// knobs the batch [`Diagnoser`](crate::Diagnoser) takes.
    pub diagnoser: DiagnoserConfig,
    /// Bins to absorb before the first fit (Warmup → Fitted transition).
    /// The paper trains on multi-week archives; a day of 5-minute bins is
    /// a practical floor.
    pub warmup_bins: usize,
    /// Sliding training-window capacity in bins.
    pub window_bins: usize,
    /// Window roll granularity: the window drops its oldest `chunk_bins`
    /// rows whenever it overflows.
    pub chunk_bins: usize,
    /// Scheduled refit cadence in scored bins; `None` disables scheduled
    /// refits.
    pub refit_interval: Option<usize>,
    /// Drift-triggered refit policy; `None` disables the drift trigger.
    pub drift: Option<DriftPolicy>,
    /// Backoff schedule for automatic refit attempts after a failure.
    pub retry: RetryPolicy,
    /// Staleness budget in observed bins: when the serving model is older
    /// than this (no successful swap for more than `staleness_budget`
    /// bins), the monitor enters [`MonitorState::Degraded`] — it keeps
    /// scoring but flags verdicts as stale. `None` disables the budget.
    ///
    /// The default is `None` because staleness is already bounded by the
    /// scheduled refit cadence in a healthy deployment; set it to a small
    /// multiple of [`refit_interval`](Self::refit_interval) to make
    /// *unhealthy* deployments (refits failing for a whole backoff chain)
    /// visible to operators and downstream consumers.
    pub staleness_budget: Option<usize>,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            diagnoser: DiagnoserConfig::default(),
            warmup_bins: 288,
            window_bins: 2016,
            chunk_bins: 72,
            refit_interval: Some(288),
            drift: Some(DriftPolicy::default()),
            retry: RetryPolicy::default(),
            staleness_budget: None,
        }
    }
}

/// Lifecycle phase of a [`Monitor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonitorState {
    /// Accumulating the first training window; nothing to score against.
    Warmup,
    /// A model is live and scoring every bin.
    Fitted,
    /// A model is live and scoring every bin, but it is older than the
    /// configured staleness budget (refits have been failing or blocked
    /// for that long). Serving continues — a stale verdict beats none —
    /// with every verdict flagged via [`MonitorStep::stale`].
    Degraded,
    /// A refit is in progress (visible to observers only while
    /// [`observe_rows`](Monitor::observe_rows) executes one; the swap
    /// completes before the call returns).
    Refitting,
}

/// What initiated a refit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefitTrigger {
    /// The warmup window filled: the first fit.
    Warmup,
    /// The scheduled cadence elapsed.
    Scheduled,
    /// The recent alarm rate tripped the drift policy.
    Drift,
    /// [`Monitor::refit_now`] was called.
    Manual,
}

/// The outcome of one refit attempt.
#[derive(Debug, Clone)]
pub enum RefitOutcome {
    /// The new model was swapped in; scoring continues against it from
    /// the next bin.
    Swapped,
    /// The window could not be fitted; the previous model (if any) keeps
    /// serving.
    Failed(DiagnosisError),
}

/// A completed refit attempt, reported on the step that ran it.
#[derive(Debug, Clone)]
pub struct RefitReport {
    /// What initiated the refit.
    pub trigger: RefitTrigger,
    /// Bins in the training window at fit time.
    pub window_bins: usize,
    /// Whether the model swapped.
    pub outcome: RefitOutcome,
    /// Empirical-threshold sharpness warnings for the new model (empty
    /// under the analytic policy or when the window resolves the
    /// quantile) — the structured "too few training bins for this alpha"
    /// signal.
    pub warnings: Vec<(&'static str, EmpiricalSharpness)>,
    /// Per-round trace of the fit (empty when the fit failed before
    /// producing a model).
    pub trace: RefitTrace,
    /// Wall-clock of the whole fit attempt, milliseconds (covers failed
    /// attempts too). Observational only — never feeds back into the
    /// models.
    pub fit_ms: f64,
}

/// The monitor's judgement of one observed bin.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// No model yet; the bin was absorbed into the warmup window.
    Warmup {
        /// Bins still needed before the first fit.
        remaining: usize,
    },
    /// Scored clean.
    Clean,
    /// Scored anomalous.
    Anomalous(Box<Diagnosis>),
    /// The bin's rows carried NaN or infinite values: it was neither
    /// scored (a NaN silently defeats every threshold comparison) nor
    /// absorbed into the training window (one retained NaN fails every
    /// later fit). Counted in [`Monitor::quarantined_bins`].
    Quarantined,
}

/// The full result of observing one bin: the verdict, plus the refit (if
/// any) that ran after scoring it.
#[derive(Debug, Clone)]
pub struct MonitorStep {
    /// The observed time bin.
    pub bin: usize,
    /// The monitor's judgement of the bin.
    pub verdict: Verdict,
    /// `true` when the bin was judged by a model older than the
    /// configured staleness budget (the monitor was
    /// [`Degraded`](MonitorState::Degraded) at scoring time): the verdict
    /// is still the best available answer, but downstream consumers
    /// should treat it with reduced confidence.
    pub stale: bool,
    /// A refit that completed after this bin was scored (the very next
    /// bin is judged by the new model).
    pub refit: Option<RefitReport>,
}

impl MonitorStep {
    /// The diagnosis, if the bin was scored anomalous.
    pub fn diagnosis(&self) -> Option<&Diagnosis> {
        match &self.verdict {
            Verdict::Anomalous(d) => Some(d),
            _ => None,
        }
    }
}

/// One operator-readable snapshot of a monitor's serving health: the
/// lifecycle state, the quarantine and refit-failure counters, the
/// model's age against its staleness budget, and the retry backoff still
/// pending. Cheap to produce (copies of counters — no scoring state is
/// touched), so it can be polled every bin.
#[derive(Debug, Clone)]
pub struct HealthReport {
    /// Current lifecycle state.
    pub state: MonitorState,
    /// Bins observed (scored, absorbed during warmup, or quarantined).
    pub bins_observed: u64,
    /// Bins scored against a model.
    pub bins_scored: u64,
    /// Bins refused for non-finite rows — never scored, never absorbed.
    pub quarantined_bins: u64,
    /// Anomalous verdicts emitted.
    pub detections: u64,
    /// Completed model swaps (the warmup fit included).
    pub refits: u64,
    /// Refit attempts that failed (the old model kept serving).
    pub failed_refits: u64,
    /// Failures since the last successful swap; `0` when healthy. This is
    /// the exponent of the retry backoff.
    pub consecutive_refit_failures: u32,
    /// Bins until automatic triggers may attempt the next refit (`0`: no
    /// backoff pending).
    pub backoff_remaining_bins: usize,
    /// Age of the serving model: bins observed since the last successful
    /// swap (`0` during warmup).
    pub model_age_bins: usize,
    /// The configured staleness budget ([`MonitorConfig::staleness_budget`]).
    pub staleness_budget: Option<usize>,
    /// `true` when the model's age exceeds the staleness budget — the
    /// monitor is serving in [`MonitorState::Degraded`].
    pub degraded: bool,
    /// The error of the most recent *failed* refit since the last
    /// successful swap, if any.
    pub last_refit_error: Option<DiagnosisError>,
}

/// How many recent [`RefitReport`]s a monitor retains for
/// [`Monitor::recent_refits`]. Bounded so months of uptime cannot grow
/// the monitor's working set; 16 comfortably covers the longest failure
/// chain a capped exponential backoff can produce before the window has
/// fully turned over.
const RECENT_REFITS: usize = 16;

/// A lifecycle-managed streaming monitor: warmup, rolling sliding-window
/// refits, atomic model swaps between bins — warmup, scheduled and
/// drift-triggered refits, failure-tolerant swaps.
#[derive(Debug, Clone)]
pub struct Monitor {
    config: MonitorConfig,
    state: MonitorState,
    window: TrainingWindow,
    fitted: Option<FittedDiagnoser>,
    thresholds: (f64, f64, f64),
    /// Scored bins since the live model was fitted.
    since_fit: usize,
    /// Bins observed since the last successful model swap — the model's
    /// age measured against the staleness budget. Unlike `since_fit`,
    /// quarantined bins age the model too: during a garbage storm nothing
    /// is scored, yet the model keeps falling behind the traffic.
    since_swap: usize,
    /// Bins to wait after a *failed* refit before automatic triggers may
    /// try again, produced by the [`RetryPolicy`] backoff schedule.
    refit_cooldown: usize,
    /// Failed refits since the last successful swap — the exponent of
    /// the retry backoff.
    consecutive_failures: u32,
    /// Ring of recent scored-bin outcomes (true = alarmed) feeding the
    /// drift trigger.
    recent: VecDeque<bool>,
    /// Bounded ring of the most recent refit reports (newest last), so
    /// operators can see the failure chains the backoff policy acts on.
    recent_refits: VecDeque<RefitReport>,
    /// The most recent failed refit's error since the last swap.
    last_refit_error: Option<DiagnosisError>,
    bins_observed: u64,
    bins_scored: u64,
    quarantined: u64,
    detections: u64,
    refits: u64,
    failed_refits: u64,
    /// Row scratch recycled across [`observe_bin`](Self::observe_bin)
    /// calls: `(bytes, packets, unfolded entropy)` — no per-bin
    /// allocations on the serve path.
    row_scratch: (Vec<f64>, Vec<f64>, Vec<f64>),
}

impl Monitor {
    /// A monitor for `n_flows` OD flows in the Warmup state.
    ///
    /// # Errors
    ///
    /// `BadConfig` on a nonsensical lifecycle configuration (zero or
    /// inconsistent window sizes, warmup shorter than 4 bins, a drift
    /// policy with an empty window or an out-of-`(0, 1]` alarm fraction,
    /// invalid alpha) — validated here so a misconfigured monitor fails
    /// before it ever watches traffic.
    pub fn new(n_flows: usize, config: MonitorConfig) -> Result<Self, DiagnosisError> {
        config.diagnoser.validate_alpha()?;
        if config.warmup_bins < 4 {
            return Err(DiagnosisError::BadConfig(
                "warmup needs at least 4 bins to model variation",
            ));
        }
        if config.window_bins < config.warmup_bins {
            return Err(DiagnosisError::BadConfig(
                "window capacity cannot be smaller than the warmup window",
            ));
        }
        // Rolling drops whole chunks, so the window can shrink to
        // `window_bins - chunk_bins + 1` bins right after a roll. If that
        // floor undercuts the warmup length, a later refit would silently
        // swap in a model trained on far less data than the operator's own
        // declared minimum — reject the configuration instead.
        if config.window_bins.saturating_sub(config.chunk_bins) + 1 < config.warmup_bins {
            return Err(DiagnosisError::BadConfig(
                "chunk size too coarse: one roll would shrink the window below warmup_bins",
            ));
        }
        if config.refit_interval == Some(0) {
            return Err(DiagnosisError::BadConfig(
                "scheduled refit interval must be at least 1 bin",
            ));
        }
        if config.retry.growth == 0 {
            return Err(DiagnosisError::BadConfig(
                "retry backoff growth factor must be at least 1",
            ));
        }
        if config.staleness_budget == Some(0) {
            return Err(DiagnosisError::BadConfig(
                "staleness budget must be at least 1 bin",
            ));
        }
        if let Some(drift) = config.drift {
            if drift.window == 0 {
                return Err(DiagnosisError::BadConfig(
                    "drift policy needs a non-empty recent window",
                ));
            }
            if !(drift.alarm_fraction > 0.0 && drift.alarm_fraction <= 1.0) {
                return Err(DiagnosisError::BadConfig(
                    "drift alarm fraction must lie in (0, 1]",
                ));
            }
        }
        let window = TrainingWindow::new(n_flows, config.window_bins, config.chunk_bins)?;
        Ok(Monitor {
            config,
            state: MonitorState::Warmup,
            window,
            fitted: None,
            thresholds: (0.0, 0.0, 0.0),
            since_fit: 0,
            since_swap: 0,
            refit_cooldown: 0,
            consecutive_failures: 0,
            recent: VecDeque::new(),
            recent_refits: VecDeque::new(),
            last_refit_error: None,
            bins_observed: 0,
            bins_scored: 0,
            quarantined: 0,
            detections: 0,
            refits: 0,
            failed_refits: 0,
            row_scratch: (Vec::new(), Vec::new(), Vec::new()),
        })
    }

    /// The lifecycle configuration.
    pub fn config(&self) -> &MonitorConfig {
        &self.config
    }

    /// Current lifecycle state.
    pub fn state(&self) -> MonitorState {
        self.state
    }

    /// The live model, once out of Warmup.
    pub fn fitted(&self) -> Option<&FittedDiagnoser> {
        self.fitted.as_ref()
    }

    /// The live Q-thresholds `(bytes, packets, entropy)`, meaningful once
    /// out of Warmup.
    pub fn thresholds(&self) -> (f64, f64, f64) {
        self.thresholds
    }

    /// The sliding training window.
    pub fn window(&self) -> &TrainingWindow {
        &self.window
    }

    /// Opens a sharded ingest plane feeding this monitor. The config's
    /// flow count is overridden with the monitor's own, so the plane's
    /// [`FinalizedBin`] rows always fit [`observe_bin`](Self::observe_bin);
    /// everything else (bin length, lateness, horizon) is taken from
    /// `config` as given.
    pub fn ingest_plane(
        &self,
        mut config: entromine_entropy::StreamConfig,
        shards: usize,
    ) -> Result<entromine_entropy::ShardedGridBuilder, entromine_entropy::StreamError> {
        config.n_flows = self.window.n_flows();
        entromine_entropy::ShardedGridBuilder::new(config, shards)
    }

    /// Bins observed (scored or absorbed during warmup).
    pub fn bins_observed(&self) -> u64 {
        self.bins_observed
    }

    /// Bins scored against a model.
    pub fn bins_scored(&self) -> u64 {
        self.bins_scored
    }

    /// Anomalous verdicts emitted.
    pub fn detections(&self) -> u64 {
        self.detections
    }

    /// Completed model swaps (the warmup fit included).
    pub fn refits(&self) -> u64 {
        self.refits
    }

    /// Bins refused for non-finite rows — never scored, never absorbed.
    pub fn quarantined_bins(&self) -> u64 {
        self.quarantined
    }

    /// The most recent refit reports, oldest first (bounded ring of the
    /// last [`RECENT_REFITS`](Monitor::recent_refits) attempts, successes
    /// and failures alike) — the failure chains the retry backoff acts
    /// on, visible to operators in one place.
    pub fn recent_refits(&self) -> impl Iterator<Item = &RefitReport> {
        self.recent_refits.iter()
    }

    /// One operator-readable snapshot of serving health: state, counters,
    /// model age against the staleness budget, pending retry backoff.
    pub fn health(&self) -> HealthReport {
        HealthReport {
            state: self.state,
            bins_observed: self.bins_observed,
            bins_scored: self.bins_scored,
            quarantined_bins: self.quarantined,
            detections: self.detections,
            refits: self.refits,
            failed_refits: self.failed_refits,
            consecutive_refit_failures: self.consecutive_failures,
            backoff_remaining_bins: self.refit_cooldown,
            model_age_bins: self.since_swap,
            staleness_budget: self.config.staleness_budget,
            degraded: self.model_is_stale(),
            last_refit_error: self.last_refit_error.clone(),
        }
    }

    /// Whether the serving model has outlived the staleness budget.
    fn model_is_stale(&self) -> bool {
        match (self.fitted.as_ref(), self.config.staleness_budget) {
            (Some(_), Some(budget)) => self.since_swap > budget,
            _ => false,
        }
    }

    /// Re-derives the resting state from the serving model and its age —
    /// called whenever either may have changed.
    fn update_serving_state(&mut self) {
        self.state = match (self.fitted.is_some(), self.model_is_stale()) {
            (false, _) => MonitorState::Warmup,
            (true, false) => MonitorState::Fitted,
            (true, true) => MonitorState::Degraded,
        };
    }

    /// Observes one finalized bin from the ingest plane. The measurement
    /// rows are materialized into recycled scratch, so a warm monitor
    /// serves bins without per-bin row allocations.
    pub fn observe_bin(&mut self, fb: &FinalizedBin) -> Result<MonitorStep, DiagnosisError> {
        let (mut bytes, mut packets, mut entropy) = std::mem::take(&mut self.row_scratch);
        fb.bytes_row_into(&mut bytes);
        fb.packets_row_into(&mut packets);
        fb.unfolded_entropy_row_into(&mut entropy);
        let out = self.observe_rows(fb.bin, &bytes, &packets, &entropy);
        self.row_scratch = (bytes, packets, entropy);
        out
    }

    /// Observes one bin given its three measurement rows: score (when a
    /// model is live), absorb into the window, then run any triggered
    /// refit — in that order, so the model swap always lands between
    /// bins.
    pub fn observe_rows(
        &mut self,
        bin: usize,
        bytes_row: &[f64],
        packets_row: &[f64],
        entropy_raw: &[f64],
    ) -> Result<MonitorStep, DiagnosisError> {
        self.bins_observed += 1;
        // Quarantine gate: a non-finite row can neither be scored (NaN
        // defeats every threshold comparison — a silent Clean) nor
        // absorbed (one retained NaN fails every later fit of the
        // window). Refuse it up front, count it, and keep the lifecycle
        // moving — the backoff still drains and pending triggers still
        // fire, so a garbage storm cannot stall recovery.
        let finite = |row: &[f64]| row.iter().all(|v| v.is_finite());
        if !finite(bytes_row) || !finite(packets_row) || !finite(entropy_raw) {
            self.quarantined += 1;
            if self.fitted.is_some() {
                self.since_swap += 1;
            }
            let stale = self.model_is_stale();
            self.refit_cooldown = self.refit_cooldown.saturating_sub(1);
            let refit = self
                .pending_trigger()
                .map(|trigger| self.run_refit(trigger));
            self.update_serving_state();
            return Ok(MonitorStep {
                bin,
                verdict: Verdict::Quarantined,
                stale,
                refit,
            });
        }
        if self.fitted.is_some() {
            self.since_swap += 1;
        }
        let stale = self.model_is_stale();
        let verdict = match &self.fitted {
            None => Verdict::Warmup {
                remaining: self
                    .config
                    .warmup_bins
                    .saturating_sub(self.window.len() + 1),
            },
            Some(fitted) => {
                let diagnosis = score_rows_against(
                    fitted,
                    self.thresholds,
                    bin,
                    bytes_row,
                    packets_row,
                    entropy_raw,
                )?;
                self.bins_scored += 1;
                self.since_fit += 1;
                if let Some(drift) = self.config.drift {
                    self.recent.push_back(diagnosis.is_some());
                    while self.recent.len() > drift.window {
                        self.recent.pop_front();
                    }
                }
                match diagnosis {
                    None => Verdict::Clean,
                    Some(d) => {
                        self.detections += 1;
                        Verdict::Anomalous(Box::new(d))
                    }
                }
            }
        };
        self.window
            .push_bin(bin, bytes_row, packets_row, entropy_raw)?;
        self.refit_cooldown = self.refit_cooldown.saturating_sub(1);

        let refit = self
            .pending_trigger()
            .map(|trigger| self.run_refit(trigger));
        self.update_serving_state();
        Ok(MonitorStep {
            bin,
            verdict,
            stale,
            refit,
        })
    }

    /// Forces a refit on the current window, regardless of triggers.
    pub fn refit_now(&mut self) -> RefitReport {
        self.run_refit(RefitTrigger::Manual)
    }

    /// Which automatic trigger, if any, fires right now.
    fn pending_trigger(&self) -> Option<RefitTrigger> {
        if self.refit_cooldown > 0 {
            // A recent refit attempt failed; wait for the window to have
            // materially changed before burning another O(window·p²) fit.
            return None;
        }
        if self.fitted.is_none() {
            return (self.window.len() >= self.config.warmup_bins).then_some(RefitTrigger::Warmup);
        }
        if let Some(interval) = self.config.refit_interval {
            if self.since_fit >= interval {
                return Some(RefitTrigger::Scheduled);
            }
        }
        if let Some(drift) = self.config.drift {
            if self.recent.len() >= drift.window {
                let alarms = self.recent.iter().filter(|&&a| a).count();
                if alarms as f64 >= drift.alarm_fraction * self.recent.len() as f64 {
                    return Some(RefitTrigger::Drift);
                }
            }
        }
        None
    }

    /// Fits the window and swaps the model in; on failure the old model
    /// keeps serving. Never panics, never leaves the monitor stalled.
    fn run_refit(&mut self, trigger: RefitTrigger) -> RefitReport {
        self.state = MonitorState::Refitting;
        let window_bins = self.window.len();
        let alpha = self.config.diagnoser.alpha;
        let fit_start = std::time::Instant::now();
        let result = self
            .window
            .fit(&self.config.diagnoser)
            .and_then(|(fitted, trace)| Ok((thresholds_for(&fitted, alpha)?, fitted, trace)));
        let fit_ms = fit_start.elapsed().as_secs_f64() * 1e3;
        let report = match result {
            Ok((thresholds, fitted, trace)) => {
                let warnings = fitted.sharpness_warnings(alpha);
                self.fitted = Some(fitted);
                self.thresholds = thresholds;
                self.refits += 1;
                self.since_fit = 0;
                self.since_swap = 0;
                self.refit_cooldown = 0;
                self.consecutive_failures = 0;
                self.last_refit_error = None;
                // The drift estimate restarts: alarms under the old model
                // say nothing about the new one.
                self.recent.clear();
                RefitReport {
                    trigger,
                    window_bins,
                    outcome: RefitOutcome::Swapped,
                    warnings,
                    trace,
                    fit_ms,
                }
            }
            Err(e) => {
                // Back off: without this, the still-true trigger condition
                // would re-run a full window fit on every subsequent bin.
                // The wait grows exponentially with consecutive failures
                // (bounded by the policy's cap): a window that failed to
                // fit twice in a row needs substantially fresher content,
                // not another attempt one chunk later.
                self.consecutive_failures = self.consecutive_failures.saturating_add(1);
                self.failed_refits += 1;
                self.refit_cooldown = self.config.retry.backoff_bins(
                    self.consecutive_failures,
                    self.config.chunk_bins,
                    self.config.window_bins,
                );
                self.last_refit_error = Some(e.clone());
                RefitReport {
                    trigger,
                    window_bins,
                    outcome: RefitOutcome::Failed(e),
                    warnings: Vec::new(),
                    trace: RefitTrace::default(),
                    fit_ms,
                }
            }
        };
        if self.recent_refits.len() >= RECENT_REFITS {
            self.recent_refits.pop_front();
        }
        self.recent_refits.push_back(report.clone());
        self.update_serving_state();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic diurnal rows. `shift` models a *structural* drift: only
    /// even-indexed flows move, so the displacement is orthogonal to the
    /// shared diurnal mode and lands in the residual subspace (a uniform
    /// level shift would hide inside the normal subspace and never
    /// alarm — the very reason deployments need the volume detectors too).
    fn rows(p: usize, bin: usize, shift: f64) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let phase = (bin as f64 / 48.0) * std::f64::consts::TAU;
        let jitter = |i: usize| ((bin * 31 + i * 17) % 101) as f64 / 101.0;
        let skew = |i: usize| if i.is_multiple_of(2) { shift } else { 0.0 };
        let bytes: Vec<f64> = (0..p)
            .map(|i| 1e5 * (1.0 + 0.1 * phase.sin()) * (1.0 + skew(i)) + 300.0 * jitter(i))
            .collect();
        let packets: Vec<f64> = bytes.iter().map(|b| b / 100.0).collect();
        let entropy: Vec<f64> = (0..4 * p)
            .map(|i| 2.0 + 0.2 * phase.cos() + 0.02 * jitter(i) + skew(i))
            .collect();
        (bytes, packets, entropy)
    }

    fn quick_config() -> MonitorConfig {
        MonitorConfig {
            diagnoser: DiagnoserConfig {
                dim: entromine_subspace::DimSelection::Fixed(2),
                refit_rounds: 1,
                ..Default::default()
            },
            warmup_bins: 24,
            window_bins: 48,
            chunk_bins: 8,
            refit_interval: Some(16),
            drift: Some(DriftPolicy {
                window: 8,
                alarm_fraction: 0.5,
            }),
            retry: RetryPolicy::default(),
            staleness_budget: None,
        }
    }

    #[test]
    fn config_validated() {
        let ok = quick_config();
        assert!(Monitor::new(4, ok).is_ok());
        let mut bad = ok;
        bad.warmup_bins = 2;
        assert!(Monitor::new(4, bad).is_err());
        let mut bad = ok;
        bad.window_bins = 10;
        assert!(Monitor::new(4, bad).is_err());
        let mut bad = ok;
        bad.refit_interval = Some(0);
        assert!(Monitor::new(4, bad).is_err());
        let mut bad = ok;
        bad.drift = Some(DriftPolicy {
            window: 0,
            alarm_fraction: 0.5,
        });
        assert!(Monitor::new(4, bad).is_err());
        let mut bad = ok;
        bad.drift = Some(DriftPolicy {
            window: 5,
            alarm_fraction: 1.5,
        });
        assert!(Monitor::new(4, bad).is_err());
        let mut bad = ok;
        bad.diagnoser.alpha = 1.5;
        assert!(Monitor::new(4, bad).is_err());
        // A chunk as large as the whole window would let one roll
        // collapse the window far below the declared warmup length.
        let mut bad = ok;
        bad.window_bins = 24;
        bad.chunk_bins = 24;
        assert!(Monitor::new(4, bad).is_err());
        let mut tight = ok;
        tight.window_bins = 31;
        tight.chunk_bins = 8; // post-roll floor = 24 = warmup: allowed
        assert!(Monitor::new(4, tight).is_ok());
        let mut too_tight = ok;
        too_tight.window_bins = 30;
        too_tight.chunk_bins = 8; // post-roll floor 23 < 24: rejected
        assert!(Monitor::new(4, too_tight).is_err());
    }

    #[test]
    fn failed_refit_backs_off_one_chunk() {
        // Drive the monitor into Fitted, then force a refit failure by
        // manual refit on a window that... cannot fail once warm. Instead
        // exercise the cooldown directly through the warmup trigger: a
        // manual refit during warmup fails (too few bins) and must
        // suppress the automatic warmup fit for chunk_bins bins.
        let config = quick_config();
        let mut m = Monitor::new(4, config).unwrap();
        for bin in 0..23 {
            let (b, p, e) = rows(4, bin, 0.0);
            m.observe_rows(bin, &b, &p, &e).unwrap();
        }
        // 23 bins absorbed; a manual refit needs 4+ bins so it succeeds —
        // use an empty monitor instead for the failure path.
        let mut failing = Monitor::new(4, config).unwrap();
        let (b, p, e) = rows(4, 0, 0.0);
        failing.observe_rows(0, &b, &p, &e).unwrap();
        let report = failing.refit_now();
        assert!(matches!(report.outcome, RefitOutcome::Failed(_)));
        // The cooldown suppresses the automatic warmup trigger: feed
        // enough bins to pass warmup_bins and verify the fit lands only
        // after the cooldown (chunk_bins = 8) has drained, not at the
        // first eligible bin.
        let mut fit_at = None;
        for bin in 1..40 {
            let (b, p, e) = rows(4, bin, 0.0);
            let step = failing.observe_rows(bin, &b, &p, &e).unwrap();
            if step.refit.is_some() && fit_at.is_none() {
                fit_at = Some(bin);
            }
        }
        // Warmup completes at bin 23 (24 bins held); the failure at bin 0
        // set an 8-bin cooldown which drained long before, so the fit
        // fires on schedule — the cooldown must delay retries, never
        // permanently stall the lifecycle.
        assert_eq!(fit_at, Some(23));
        assert_eq!(failing.state(), MonitorState::Fitted);
    }

    /// The degenerate-window config shared by the garbage-storm tests:
    /// tiny window, 4-bin chunks, scheduled refits every 4 scored bins.
    fn tiny_config() -> MonitorConfig {
        MonitorConfig {
            diagnoser: DiagnoserConfig {
                dim: entromine_subspace::DimSelection::Fixed(2),
                refit_rounds: 0,
                ..Default::default()
            },
            warmup_bins: 8,
            window_bins: 16,
            chunk_bins: 4,
            refit_interval: Some(4),
            drift: None,
            retry: RetryPolicy::default(),
            staleness_budget: None,
        }
    }

    #[test]
    fn non_finite_bins_are_quarantined_and_cannot_flip_the_model() {
        // The regression the quarantine exists for: a NaN row used to
        // flow straight into the training window, flipping every
        // subsequent refit into failure until it rolled out. Now it must
        // be refused at the door — the monitor that
        // saw the NaN bin stays bitwise identical to one that never did.
        let config = tiny_config();
        let mut poisoned = Monitor::new(4, config).unwrap();
        let mut clean = Monitor::new(4, config).unwrap();
        let mut quarantined_steps = 0;
        for bin in 0..32 {
            let (b, p, e) = rows(4, bin, 0.0);
            clean.observe_rows(bin, &b, &p, &e).unwrap();
            // The poisoned monitor additionally sees a garbage bin before
            // every real one: NaN, +Inf, -Inf rows in rotation.
            let bad = match bin % 3 {
                0 => f64::NAN,
                1 => f64::INFINITY,
                _ => f64::NEG_INFINITY,
            };
            let step = poisoned
                .observe_rows(1000 + bin, &[bad; 4], &[bad; 4], &[bad; 16])
                .unwrap();
            assert!(matches!(step.verdict, Verdict::Quarantined));
            quarantined_steps += 1;
            poisoned.observe_rows(bin, &b, &p, &e).unwrap();
        }
        assert_eq!(poisoned.quarantined_bins(), quarantined_steps);
        assert_eq!(clean.quarantined_bins(), 0);
        // Same refit history, same window content, bitwise-equal serving
        // thresholds: the garbage changed nothing but the counters.
        assert_eq!(poisoned.refits(), clean.refits());
        assert_eq!(poisoned.window().bins(), clean.window().bins());
        assert_eq!(poisoned.thresholds(), clean.thresholds());
        assert_eq!(poisoned.state(), MonitorState::Fitted);
        // Quarantined bins were never scored.
        assert_eq!(poisoned.bins_scored(), clean.bins_scored());
    }

    #[test]
    fn failing_refits_back_off_exponentially_until_the_window_heals() {
        // A garbage bin of huge-but-finite values passes the quarantine
        // gate (it is real, scorable data — and it alarms) but overflows
        // the fit's centered products to Inf, so every fit fails until the
        // poisoned chunk rolls out. The monitor must keep serving the old
        // model and retry on the RetryPolicy's doubling cadence — 4, 8,
        // then 16 bins (capped at the window) — never once per bin.
        let mut m = Monitor::new(4, tiny_config()).unwrap();
        let mut attempts: Vec<(usize, bool)> = Vec::new();
        for bin in 0..44 {
            let (b, p, e) = if bin == 8 {
                (vec![1e300; 4], vec![1e300; 4], vec![1e300; 16])
            } else {
                rows(4, bin, 0.0)
            };
            let step = m.observe_rows(bin, &b, &p, &e).unwrap();
            if let Some(r) = &step.refit {
                attempts.push((bin, matches!(r.outcome, RefitOutcome::Swapped)));
            }
        }
        // Warmup fit at bin 7; the scheduled refit at bin 11 hits the
        // poisoned window and fails. Backoffs double: 4 bins (retry at
        // 15, fails), 8 bins (retry at 23, fails — the poisoned chunk
        // 8..12 only rolls out at bin 24), then 16 bins: the retry at 39
        // sees a healed window and swaps.
        let failed: Vec<usize> = attempts
            .iter()
            .filter(|(_, ok)| !ok)
            .map(|&(bin, _)| bin)
            .collect();
        assert_eq!(failed, vec![11, 15, 23], "doubling backoff cadence");
        let recovered = attempts
            .iter()
            .find(|&&(bin, ok)| ok && bin > 7)
            .expect("monitor must recover after the poisoned chunk rolls out");
        assert_eq!(recovered.0, 39);
        assert_eq!(m.state(), MonitorState::Fitted);
        let health = m.health();
        assert_eq!(health.failed_refits, 3);
        assert_eq!(health.consecutive_refit_failures, 0, "reset on swap");
        assert!(health.last_refit_error.is_none(), "cleared on swap");
        // The old model never stopped serving: every bin got a verdict.
        assert_eq!(m.bins_observed(), 44);
        assert_eq!(m.bins_scored(), 44 - 8);
        // The refit ring shows the whole failure chain, oldest first:
        // warmup swap, three failures, healing swap at 39, and the
        // scheduled swap at 43 (cadence restarted by the swap).
        let ring: Vec<bool> = m
            .recent_refits()
            .map(|r| matches!(r.outcome, RefitOutcome::Swapped))
            .collect();
        assert_eq!(ring, vec![true, false, false, false, true, true]);
    }

    #[test]
    fn stale_model_degrades_but_keeps_scoring() {
        // Refits kept failing past the staleness budget: the monitor must
        // enter Degraded, flag verdicts stale, and recover to Fitted on
        // the next successful swap.
        let mut config = tiny_config();
        config.staleness_budget = Some(12);
        let mut m = Monitor::new(4, config).unwrap();
        let mut degraded_bins: Vec<usize> = Vec::new();
        let mut stale_verdicts = 0u64;
        for bin in 0..44 {
            let (b, p, e) = if bin == 8 {
                (vec![1e300; 4], vec![1e300; 4], vec![1e300; 16])
            } else {
                rows(4, bin, 0.0)
            };
            let step = m.observe_rows(bin, &b, &p, &e).unwrap();
            if m.state() == MonitorState::Degraded {
                degraded_bins.push(bin);
            }
            if step.stale {
                assert!(!matches!(step.verdict, Verdict::Warmup { .. }));
                stale_verdicts += 1;
            }
        }
        // The warmup model swaps at bin 7; with every refit failing, its
        // age exceeds the 12-bin budget at bin 20 and the monitor serves
        // Degraded until the healing swap at bin 39.
        assert_eq!(degraded_bins.first(), Some(&20));
        assert_eq!(degraded_bins.last(), Some(&38));
        assert!(stale_verdicts > 0, "degraded bins carry stale verdicts");
        assert_eq!(m.state(), MonitorState::Fitted, "recovered after swap");
        // The healing swap at 39 restarted the cadence; the scheduled
        // swap at bin 43 (the last bin) left a fresh model serving.
        assert_eq!(m.health().model_age_bins, 0);
        assert!(!m.health().degraded);
    }

    #[test]
    fn warmup_fits_then_scores_every_bin() {
        let config = quick_config();
        let mut m = Monitor::new(4, config).unwrap();
        assert_eq!(m.state(), MonitorState::Warmup);
        let mut warmup_fit_at = None;
        for bin in 0..40 {
            let (b, p, e) = rows(4, bin, 0.0);
            let step = m.observe_rows(bin, &b, &p, &e).unwrap();
            match (bin < 24, &step.verdict) {
                (true, Verdict::Warmup { remaining }) => {
                    assert_eq!(*remaining, 23 - bin);
                }
                (false, v) => assert!(
                    !matches!(v, Verdict::Warmup { .. }),
                    "bin {bin} not scored: {v:?}"
                ),
                (true, v) => panic!("bin {bin} scored during warmup: {v:?}"),
            }
            if let Some(r) = &step.refit {
                if warmup_fit_at.is_none() {
                    assert_eq!(r.trigger, RefitTrigger::Warmup);
                    assert!(matches!(r.outcome, RefitOutcome::Swapped));
                    warmup_fit_at = Some(bin);
                }
            }
        }
        assert_eq!(warmup_fit_at, Some(23), "first fit after 24 absorbed bins");
        assert_eq!(m.state(), MonitorState::Fitted);
        assert_eq!(m.bins_observed(), 40);
        // Warmup bins unscored, everything after scored exactly once.
        assert_eq!(m.bins_scored(), 40 - 24);
        assert!(m.refits() >= 1);
    }

    #[test]
    fn scheduled_refits_fire_on_cadence() {
        let mut config = quick_config();
        config.drift = None;
        let mut m = Monitor::new(4, config).unwrap();
        let mut scheduled = Vec::new();
        for bin in 0..80 {
            let (b, p, e) = rows(4, bin, 0.0);
            let step = m.observe_rows(bin, &b, &p, &e).unwrap();
            if let Some(r) = &step.refit {
                if r.trigger == RefitTrigger::Scheduled {
                    scheduled.push(bin);
                }
            }
        }
        // First fit at bin 23; scheduled refits every 16 scored bins.
        assert_eq!(scheduled, vec![39, 55, 71]);
    }

    #[test]
    fn manual_refit_and_failure_keeps_old_model() {
        let config = quick_config();
        let mut m = Monitor::new(4, config).unwrap();
        // Refit with an under-filled window fails but leaves Warmup state
        // intact and the monitor serving.
        let (b, p, e) = rows(4, 0, 0.0);
        m.observe_rows(0, &b, &p, &e).unwrap();
        let report = m.refit_now();
        assert!(matches!(report.outcome, RefitOutcome::Failed(_)));
        assert_eq!(m.state(), MonitorState::Warmup);
        assert_eq!(m.refits(), 0);
        // Fill warmup; manual refit then succeeds.
        for bin in 1..24 {
            let (b, p, e) = rows(4, bin, 0.0);
            m.observe_rows(bin, &b, &p, &e).unwrap();
        }
        assert_eq!(m.state(), MonitorState::Fitted);
        let report = m.refit_now();
        assert!(matches!(report.outcome, RefitOutcome::Swapped));
        assert_eq!(report.trigger, RefitTrigger::Manual);
    }

    #[test]
    fn drift_trigger_fires_on_sustained_alarms() {
        let mut config = quick_config();
        config.refit_interval = None; // isolate the drift trigger
        let mut m = Monitor::new(4, config).unwrap();
        for bin in 0..24 {
            let (b, p, e) = rows(4, bin, 0.0);
            m.observe_rows(bin, &b, &p, &e).unwrap();
        }
        assert_eq!(m.state(), MonitorState::Fitted);
        // A sustained level shift: every bin alarms under the stale
        // model until the drift trigger refits onto the new regime.
        let mut drift_refit = None;
        for bin in 24..80 {
            let (b, p, e) = rows(4, bin, 0.5);
            let step = m.observe_rows(bin, &b, &p, &e).unwrap();
            if let Some(r) = &step.refit {
                if r.trigger == RefitTrigger::Drift && drift_refit.is_none() {
                    assert!(matches!(r.outcome, RefitOutcome::Swapped));
                    drift_refit = Some(bin);
                }
            }
        }
        let drift_bin = drift_refit.expect("drift refit must fire");
        // The ring needs `window` post-shift bins before it can trip.
        assert!(drift_bin >= 24 + 8 - 1, "tripped too early: {drift_bin}");
        assert!(drift_bin < 40, "tripped too late: {drift_bin}");
    }
}
