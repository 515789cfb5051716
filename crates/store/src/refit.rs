//! Incremental HYDRA refitting from streamed observations.
//!
//! The refitter folds each observation into a small fixed-size *anchor
//! grid* per server — running `(count, Σclients, Σmrt)` sums in a handful
//! of cells below and above the saturation transition region — plus
//! running least-squares sums for the clients→throughput gradient and a
//! running maximum per buy-percentage bucket for relationship 3. A refit
//! then rebuilds the HYDRA model from the cell *means* through the normal
//! [`HistoricalModel::builder`] path, pinning the gradient from the exact
//! running sums via [`HistoricalModelBuilder::gradient`].
//!
//! Two properties fall out of this design:
//!
//! * **Incremental ≡ batch.** Folding observations one at a time and then
//!   fitting produces bit-identical sums — and therefore bit-identical
//!   coefficients — to folding the same observations in one pass, because
//!   the state is nothing but order-independent-within-a-cell running
//!   sums accumulated in a single deterministic order.
//! * **Replay determinism.** The refitter's entire state is a pure
//!   function of the observation sequence; replaying a log through
//!   [`Refitter::fold`] reconstructs the exact model that was serving
//!   before a crash.
//!
//! Refits trigger two ways: every `refit_window` folded observations, or
//! early when *drift* is detected — the current fit's relative error over
//! a ring of recent typical observations exceeds `drift_threshold`,
//! meaning the live system no longer behaves like the data the model was
//! fitted on.
//!
//! Drift scoring is O(1) per fold: each ring entry stores its relative
//! error against the last fit, scored once when it enters the ring, and
//! the whole ring is re-scored only when the last fit changes
//! ([`Refitter::fit`], [`Refitter::seed`]). The score is the mean of the
//! stored errors summed in ring order, so it is bit-identical to
//! re-predicting every entry on every fold.
//!
//! The drift trigger has hysteresis. It fires only while *armed*; every
//! successful fit re-arms it only if the new fit brings the score to or
//! under the threshold, and any later fold whose score is at or under the
//! threshold re-arms it. A fit that cannot explain the ring therefore does
//! not re-trigger on the next observation — the window trigger still
//! refits on schedule — while a failed fit (`None`) leaves the trigger
//! armed so the next fold retries. The arm state is a pure function of
//! the fold/fit sequence, so replay stays deterministic.

use crate::record::Observation;
use perfpred_core::{PerformanceModel, ServerArch, Workload};
use perfpred_hydra::{HistoricalModel, ServerObservations, TRANSITION_HIGH, TRANSITION_LOW};
use std::collections::BTreeMap;
use std::fmt;

/// Anchor cells per region (lower and upper each get this many).
const CELLS: usize = 4;
/// Upper-region cells span client fractions `[TRANSITION_HIGH, UPPER_SPAN)`
/// of the saturation point.
const UPPER_SPAN: f64 = 0.9;
/// Buy-percentage bucket width for relationship-3 points.
const BUY_BUCKET_PCT: f32 = 5.0;

/// Why a refit ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefitTrigger {
    /// Initial model installed from a calibration dataset, not the log.
    Seed,
    /// The observation window filled.
    Window,
    /// Drift detection fired before the window filled.
    Drift,
}

impl RefitTrigger {
    /// Stable lowercase name for JSON/metrics.
    pub fn name(self) -> &'static str {
        match self {
            RefitTrigger::Seed => "seed",
            RefitTrigger::Window => "window",
            RefitTrigger::Drift => "drift",
        }
    }
}

impl fmt::Display for RefitTrigger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Tuning knobs for [`Refitter`].
#[derive(Debug, Clone, Copy)]
pub struct RefitOptions {
    /// Observations folded between scheduled refits.
    pub refit_window: usize,
    /// Mean relative error over the drift ring that triggers an early
    /// refit. Non-finite or non-positive disables drift detection.
    pub drift_threshold: f64,
    /// Recent typical observations kept for drift scoring.
    pub drift_window: usize,
    /// Gradient assumed for locating the saturation point `n* = mx / m`
    /// while bucketing observations (the *fitted* gradient comes from the
    /// running sums, this one only anchors the grid). The default is the
    /// case study's nominal `1000 / 7020`.
    pub nominal_gradient: f64,
    /// Client think time handed to the model builder, ms.
    pub think_time_ms: f64,
}

impl Default for RefitOptions {
    fn default() -> Self {
        RefitOptions {
            refit_window: 128,
            drift_threshold: 0.25,
            drift_window: 64,
            nominal_gradient: 1_000.0 / 7_020.0,
            think_time_ms: 7_000.0,
        }
    }
}

/// One anchor cell: running sums of the observations that landed in it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Cell {
    count: u64,
    sum_clients: f64,
    sum_mrt: f64,
}

impl Cell {
    fn fold(&mut self, clients: f64, mrt: f64) {
        self.count += 1;
        self.sum_clients += clients;
        self.sum_mrt += mrt;
    }

    fn mean(&self) -> Option<(f64, f64)> {
        if self.count == 0 {
            return None;
        }
        let n = self.count as f64;
        Some((self.sum_clients / n, self.sum_mrt / n))
    }
}

/// Per-server incremental state.
#[derive(Debug, Clone)]
struct ServerState {
    /// The architecture drift samples are predicted against: the server's
    /// name and benchmarked max throughput at unit speed, built once.
    arch: ServerArch,
    n_star: f64,
    lower: [Cell; CELLS],
    upper: [Cell; CELLS],
    /// Running least-squares sums for the gradient fit through the origin.
    grad_sum_nx: f64,
    grad_sum_nn: f64,
    /// Relationship-3 calibration: running max throughput per buy bucket.
    buy_max_rps: BTreeMap<u32, f64>,
    folded: u64,
}

impl ServerState {
    fn new(arch: &ServerArch, nominal_gradient: f64) -> ServerState {
        ServerState {
            arch: ServerArch::new(arch.name.clone(), 1.0, arch.max_throughput_rps),
            n_star: arch.max_throughput_rps / nominal_gradient,
            lower: [Cell::default(); CELLS],
            upper: [Cell::default(); CELLS],
            grad_sum_nx: 0.0,
            grad_sum_nn: 0.0,
            buy_max_rps: BTreeMap::new(),
            folded: 0,
        }
    }

    fn fold(&mut self, obs: &Observation) {
        self.folded += 1;
        let n = f64::from(obs.clients);
        let frac = n / self.n_star;
        if obs.buy_pct == 0.0 {
            // Anchor-grid cells only take typical-workload points — mixed
            // workloads change the MRT curve itself (relationship 3 covers
            // them below).
            if frac <= TRANSITION_LOW {
                let idx = ((frac / TRANSITION_LOW) * CELLS as f64) as usize;
                self.lower[idx.min(CELLS - 1)].fold(n, obs.mrt_ms);
            } else if frac >= TRANSITION_HIGH {
                let idx = (((frac - TRANSITION_HIGH) / UPPER_SPAN) * CELLS as f64) as usize;
                self.upper[idx.min(CELLS - 1)].fold(n, obs.mrt_ms);
            }
            // Points inside the transition region are logged but not
            // anchored: §4.2 fits the two equations outside it.
            if obs.throughput_rps > 0.0 && frac <= UPPER_SPAN {
                self.grad_sum_nx += n * obs.throughput_rps;
                self.grad_sum_nn += n * n;
            }
        } else if obs.throughput_rps > 0.0 && frac >= 1.0 {
            // A saturated mixed-workload point calibrates relationship 3:
            // max throughput as a function of buy percentage.
            let bucket = (obs.buy_pct / BUY_BUCKET_PCT).round() as u32;
            let entry = self.buy_max_rps.entry(bucket).or_insert(0.0);
            if obs.throughput_rps > *entry {
                *entry = obs.throughput_rps;
            }
        }
    }

    /// True once both equations have their two-point minimum (§4.2).
    fn established(&self) -> bool {
        self.lower.iter().filter(|c| c.count > 0).count() >= 2
            && self.upper.iter().filter(|c| c.count > 0).count() >= 2
    }

    fn observations(&self) -> ServerObservations {
        let mut obs =
            ServerObservations::new(self.arch.name.as_str(), self.arch.max_throughput_rps);
        for cell in &self.lower {
            if let Some((n, mrt)) = cell.mean() {
                obs = obs.with_lower(n, mrt);
            }
        }
        for cell in &self.upper {
            if let Some((n, mrt)) = cell.mean() {
                obs = obs.with_upper(n, mrt);
            }
        }
        obs
    }

    fn r3_points(&self) -> Vec<(f64, f64)> {
        self.buy_max_rps
            .iter()
            .map(|(&bucket, &rps)| (f64::from(bucket) * f64::from(BUY_BUCKET_PCT), rps))
            .collect()
    }
}

/// A view of one server's anchor grid, for tests and `GET /models`.
#[derive(Debug, Clone, PartialEq)]
pub struct AnchorGrid {
    /// `(count, Σclients, Σmrt)` per lower-region cell.
    pub lower: Vec<(u64, f64, f64)>,
    /// `(count, Σclients, Σmrt)` per upper-region cell.
    pub upper: Vec<(u64, f64, f64)>,
    /// Running gradient sums `(Σ n·x, Σ n²)`.
    pub gradient_sums: (f64, f64),
}

/// One typical observation in the drift ring.
#[derive(Debug, Clone, Copy)]
struct DriftSample {
    /// Index into [`Refitter::servers`].
    server: usize,
    clients: u32,
    mrt_ms: f64,
    /// Relative error of the last fit at this point; `None` when there is
    /// no fit yet or the point cannot be scored.
    error: Option<f64>,
}

/// Relative error of `model` at a typical-workload point, or `None` when
/// the model cannot predict it or the measurement is not positive.
fn relative_error(
    model: &HistoricalModel,
    arch: &ServerArch,
    clients: u32,
    mrt_ms: f64,
) -> Option<f64> {
    let p = model.predict(arch, &Workload::typical(clients)).ok()?;
    (p.mrt_ms.is_finite() && mrt_ms > 0.0).then(|| (p.mrt_ms - mrt_ms).abs() / mrt_ms)
}

/// The incremental refitter. Pure state machine: no I/O, no clocks — its
/// behaviour is a deterministic function of the folded sequence.
pub struct Refitter {
    opts: RefitOptions,
    /// Sorted by name: the fit's assembly order and the lookup order.
    servers: Vec<ServerState>,
    folded: u64,
    skipped_unknown: u64,
    since_refit: usize,
    /// Ring of recent typical observations scored against the last fit.
    drift_ring: Vec<DriftSample>,
    drift_next: usize,
    /// Whether the drift trigger may fire (see the module docs).
    armed: bool,
    last_fit: Option<HistoricalModel>,
}

impl Refitter {
    /// A refitter aware of `servers` (their benchmarked max throughputs
    /// anchor each grid). Observations naming unknown servers are counted
    /// and skipped.
    pub fn new(servers: &[ServerArch], opts: RefitOptions) -> Refitter {
        // A later duplicate name replaces an earlier one.
        let servers: BTreeMap<&str, ServerState> = servers
            .iter()
            .map(|s| (s.name.as_str(), ServerState::new(s, opts.nominal_gradient)))
            .collect();
        Refitter {
            opts,
            servers: servers.into_values().collect(),
            folded: 0,
            skipped_unknown: 0,
            since_refit: 0,
            drift_ring: Vec::new(),
            drift_next: 0,
            armed: true,
            last_fit: None,
        }
    }

    /// Installs an externally fitted model (e.g. the calibration-dataset
    /// seed) as the baseline for drift scoring. The arm state is left as
    /// it is: a seed is not a refit.
    pub fn seed(&mut self, model: HistoricalModel) {
        self.last_fit = Some(model);
        self.rescore();
    }

    /// Folds one observation. Returns the trigger when this observation
    /// warrants a refit attempt — the caller then runs [`Refitter::fit`]
    /// and publishes on success.
    pub fn fold(&mut self, obs: &Observation) -> Option<RefitTrigger> {
        let Ok(server) = self
            .servers
            .binary_search_by(|s| s.arch.name.as_str().cmp(obs.server.as_str()))
        else {
            self.skipped_unknown += 1;
            return None;
        };
        let state = &mut self.servers[server];
        state.fold(obs);
        self.folded += 1;
        self.since_refit += 1;

        if obs.buy_pct == 0.0 {
            let error = self
                .last_fit
                .as_ref()
                .and_then(|m| relative_error(m, &state.arch, obs.clients, obs.mrt_ms));
            let sample = DriftSample {
                server,
                clients: obs.clients,
                mrt_ms: obs.mrt_ms,
                error,
            };
            if self.drift_ring.len() < self.opts.drift_window.max(1) {
                self.drift_ring.push(sample);
            } else {
                self.drift_ring[self.drift_next] = sample;
                self.drift_next = (self.drift_next + 1) % self.drift_ring.len();
            }
        }

        let over = self.over_threshold();
        if over == Some(false) {
            self.armed = true;
        }
        if self.since_refit >= self.opts.refit_window.max(1) {
            self.since_refit = 0;
            return Some(RefitTrigger::Window);
        }
        if over == Some(true) && self.armed {
            self.since_refit = 0;
            return Some(RefitTrigger::Drift);
        }
        None
    }

    /// Re-scores every ring entry against the last fit.
    fn rescore(&mut self) {
        let Some(model) = &self.last_fit else {
            return;
        };
        for s in &mut self.drift_ring {
            s.error = relative_error(model, &self.servers[s.server].arch, s.clients, s.mrt_ms);
        }
    }

    /// Drift score: mean relative error of the *refitter's own* last fit
    /// over the scored entries of the ring, summed in ring order. Scoring
    /// against our own fit — never the registry — keeps replay a pure
    /// function of the log. `None` before the first fit or seed, or while
    /// no ring entry could be scored. Costs one pass over the ring's
    /// stored errors; nothing is predicted.
    pub fn drift_score(&self) -> Option<f64> {
        self.last_fit.as_ref()?;
        let (sum, scored) = self
            .drift_ring
            .iter()
            .filter_map(|s| s.error)
            .fold((0.0, 0usize), |(sum, n), e| (sum + e, n + 1));
        (scored > 0).then(|| sum / scored as f64)
    }

    /// Whether the drift score is over the threshold: `None` while drift
    /// detection is disabled, the ring is not yet full, or there is no
    /// score.
    fn over_threshold(&self) -> Option<bool> {
        let threshold = self.opts.drift_threshold;
        if threshold <= 0.0 || !threshold.is_finite() {
            return None;
        }
        if self.drift_ring.len() < self.opts.drift_window.max(1) {
            return None;
        }
        self.drift_score().map(|score| score > threshold)
    }

    /// Attempts a full fit from the current anchor grids. `None` until at
    /// least one server is established (two points per equation, §4.2);
    /// `Some` is the batch-equivalent HYDRA model.
    pub fn fit(&mut self) -> Option<HistoricalModel> {
        let mut builder = HistoricalModel::builder().think_time_ms(self.opts.think_time_ms);
        let mut any = false;
        let mut grad_nx = 0.0;
        let mut grad_nn = 0.0;
        let mut r3_best: Option<Vec<(f64, f64)>> = None;
        // Name order makes the assembly order deterministic.
        for state in &self.servers {
            if !state.established() {
                continue;
            }
            builder = builder.observations(state.observations());
            any = true;
            grad_nx += state.grad_sum_nx;
            grad_nn += state.grad_sum_nn;
            let r3 = state.r3_points();
            if r3.len() >= 2 && r3_best.as_ref().is_none_or(|b| r3.len() > b.len()) {
                r3_best = Some(r3);
            }
        }
        if !any {
            return None;
        }
        if grad_nn > 0.0 {
            builder = builder.gradient(grad_nx / grad_nn);
        }
        if let Some(points) = r3_best {
            builder = builder.r3_points(&points);
        }
        let model = builder.build().ok()?;
        self.last_fit = Some(model.clone());
        self.rescore();
        // A fit that leaves the ring over the threshold cannot be helped by
        // refitting the same data again: disarm until drift dips back.
        self.armed = self.over_threshold() != Some(true);
        Some(model)
    }

    /// Observations folded (excluding unknown-server skips).
    pub fn folded(&self) -> u64 {
        self.folded
    }

    /// Observations skipped because their server is not registered.
    pub fn skipped_unknown(&self) -> u64 {
        self.skipped_unknown
    }

    /// The last model this refitter fitted (or was seeded with).
    pub fn last_fit(&self) -> Option<&HistoricalModel> {
        self.last_fit.as_ref()
    }

    /// The raw anchor-grid sums for `server` — exact, not rounded — so
    /// tests can assert bit-identity between incremental and batch folds.
    pub fn anchor_grid(&self, server: &str) -> Option<AnchorGrid> {
        let state = self.servers.iter().find(|s| s.arch.name == server)?;
        let cells = |cells: &[Cell; CELLS]| {
            cells
                .iter()
                .map(|c| (c.count, c.sum_clients, c.sum_mrt))
                .collect()
        };
        Some(AnchorGrid {
            lower: cells(&state.lower),
            upper: cells(&state.upper),
            gradient_sums: (state.grad_sum_nx, state.grad_sum_nn),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic MRT shaped like the paper's curves: exponential below
    /// saturation, linear above.
    fn mrt_at(n: f64, n_star: f64, scale: f64) -> f64 {
        let frac = n / n_star;
        if frac < 1.0 {
            scale * 20.0 * (1.8 * frac).exp()
        } else {
            scale * (7.0 * n / 1.3 - 6_000.0).max(100.0)
        }
    }

    fn trace(scale: f64, count: u32) -> Vec<Observation> {
        let n_star = 186.0 / (1_000.0 / 7_020.0);
        (0..count)
            .map(|i| {
                let frac = 0.15 + 1.45 * f64::from(i % 29) / 28.0;
                let n = (frac * n_star).round().max(1.0);
                let mut o = Observation::typical("AppServF", n as u32, mrt_at(n, n_star, scale));
                if frac <= 0.9 {
                    o.throughput_rps = (1_000.0 / 7_020.0) * n;
                }
                o.timestamp_us = u64::from(i);
                o
            })
            .collect()
    }

    #[test]
    fn window_trigger_fires_every_refit_window_folds() {
        let mut r = Refitter::new(
            &[ServerArch::app_serv_f()],
            RefitOptions {
                refit_window: 10,
                drift_threshold: 0.0,
                ..RefitOptions::default()
            },
        );
        let mut triggers = 0;
        for obs in trace(1.0, 35) {
            if r.fold(&obs).is_some() {
                triggers += 1;
            }
        }
        assert_eq!(triggers, 3);
        assert_eq!(r.folded(), 35);
    }

    #[test]
    fn fit_requires_an_established_server() {
        let mut r = Refitter::new(&[ServerArch::app_serv_f()], RefitOptions::default());
        assert!(r.fit().is_none(), "no data, no model");
        // Only lower-region points: still not established.
        for obs in trace(1.0, 200)
            .into_iter()
            .filter(|o| f64::from(o.clients) < 0.5 * 186.0 / (1_000.0 / 7_020.0))
        {
            r.fold(&obs);
        }
        assert!(r.fit().is_none());
        // The full sweep establishes it.
        for obs in trace(1.0, 60) {
            r.fold(&obs);
        }
        let model = r.fit().expect("established after a full sweep");
        assert!(model.gradient() > 0.0);
    }

    #[test]
    fn unknown_servers_are_counted_and_skipped() {
        let mut r = Refitter::new(&[ServerArch::app_serv_f()], RefitOptions::default());
        assert!(r
            .fold(&Observation::typical("NoSuchBox", 100, 50.0))
            .is_none());
        assert_eq!(r.folded(), 0);
        assert_eq!(r.skipped_unknown(), 1);
    }

    #[test]
    fn drift_fires_when_the_workload_shifts() {
        let opts = RefitOptions {
            refit_window: 1_000_000, // never fire on the window
            drift_threshold: 0.25,
            drift_window: 16,
            ..RefitOptions::default()
        };
        let mut r = Refitter::new(&[ServerArch::app_serv_f()], opts);
        for obs in trace(1.0, 60) {
            assert!(r.fold(&obs).is_none());
        }
        r.fit().expect("baseline fit");
        // Same operating points, 60 % slower: relative error ≈ 0.6.
        let mut fired = None;
        for obs in trace(1.6, 60) {
            if let Some(t) = r.fold(&obs) {
                fired = Some(t);
                break;
            }
        }
        assert_eq!(fired, Some(RefitTrigger::Drift));
    }

    #[test]
    fn drift_never_fires_without_a_baseline_fit() {
        let opts = RefitOptions {
            refit_window: 1_000_000,
            drift_threshold: 0.01,
            drift_window: 4,
            ..RefitOptions::default()
        };
        let mut r = Refitter::new(&[ServerArch::app_serv_f()], opts);
        for obs in trace(1.0, 100) {
            assert!(r.fold(&obs).is_none(), "no last fit, no drift");
        }
    }

    #[test]
    fn incremental_fold_matches_one_shot_fold_bit_for_bit() {
        let opts = RefitOptions::default();
        let data = trace(1.0, 150);

        let mut one_shot = Refitter::new(&[ServerArch::app_serv_f()], opts);
        for obs in &data {
            one_shot.fold(obs);
        }
        // Interleave fits between folds — fitting must not perturb state.
        let mut incremental = Refitter::new(&[ServerArch::app_serv_f()], opts);
        for (i, obs) in data.iter().enumerate() {
            incremental.fold(obs);
            if i % 17 == 0 {
                let _ = incremental.fit();
            }
        }
        let a = one_shot.anchor_grid("AppServF").unwrap();
        let b = incremental.anchor_grid("AppServF").unwrap();
        assert_eq!(a, b, "anchor sums must be bit-identical");
        let ma = one_shot.fit().unwrap();
        let mb = incremental.fit().unwrap();
        assert_eq!(
            perfpred_hydra::persist::serialize(&ma),
            perfpred_hydra::persist::serialize(&mb)
        );
    }

    /// Today's trace at operating point `i` with every other sweep scaled
    /// 0.4× or 1.6×: no single fit explains both halves.
    fn noisy(count: u32) -> Vec<Observation> {
        trace(1.0, count)
            .into_iter()
            .enumerate()
            .map(|(i, mut o)| {
                o.mrt_ms *= if (i / 29) % 2 == 0 { 0.4 } else { 1.6 };
                o
            })
            .collect()
    }

    /// An observation of `server` the refitter's last fit predicts exactly,
    /// times `scale`.
    fn on_fit(r: &Refitter, arch: &ServerArch, clients: u32, scale: f64) -> Observation {
        let unit = ServerArch::new(arch.name.clone(), 1.0, arch.max_throughput_rps);
        let p = r
            .last_fit()
            .unwrap()
            .predict(&unit, &Workload::typical(clients))
            .unwrap();
        Observation::typical(&arch.name, clients, scale * p.mrt_ms)
    }

    #[test]
    fn drift_score_matches_a_full_recompute_bit_for_bit() {
        let servers = ServerArch::case_study_servers();
        let opts = RefitOptions {
            refit_window: 1_000_000,
            drift_window: 24,
            ..RefitOptions::default()
        };
        let mut r = Refitter::new(&servers, opts);
        // The full-recompute loop the incremental score replaces: re-predict
        // every ring entry against the last fit, in ring order.
        let mut ring: Vec<(String, u32, f64)> = Vec::new();
        let mut next = 0;
        let full = |r: &Refitter, ring: &[(String, u32, f64)]| {
            let model = r.last_fit()?;
            let (mut sum, mut scored) = (0.0, 0usize);
            for (server, clients, mrt) in ring {
                let mx = servers
                    .iter()
                    .rfind(|s| &s.name == server)?
                    .max_throughput_rps;
                let arch = ServerArch::new(server.clone(), 1.0, mx);
                let Ok(p) = model.predict(&arch, &Workload::typical(*clients)) else {
                    continue;
                };
                if p.mrt_ms.is_finite() && *mrt > 0.0 {
                    sum += (p.mrt_ms - mrt).abs() / mrt;
                    scored += 1;
                }
            }
            (scored > 0).then(|| sum / scored as f64)
        };
        let mut data = noisy(120);
        data.extend(trace(1.3, 90).into_iter().map(|mut o| {
            o.server = "AppServS".into();
            o
        }));
        for (i, mut obs) in data.into_iter().enumerate() {
            if i % 5 == 4 {
                obs.buy_pct = 20.0; // not a drift sample
            }
            r.fold(&obs);
            if obs.buy_pct == 0.0 {
                let sample = (obs.server.clone(), obs.clients, obs.mrt_ms);
                if ring.len() < opts.drift_window {
                    ring.push(sample);
                } else {
                    ring[next] = sample;
                    next = (next + 1) % ring.len();
                }
            }
            if i % 23 == 22 {
                let _ = r.fit();
            }
            let (a, b) = (r.drift_score(), full(&r, &ring));
            assert_eq!(
                a.map(f64::to_bits),
                b.map(f64::to_bits),
                "fold {i}: {a:?} vs {b:?}"
            );
        }
        assert!(r.drift_score().is_some());
    }

    #[test]
    fn a_fit_that_leaves_drift_over_the_threshold_does_not_refire() {
        let opts = RefitOptions {
            refit_window: 1_000_000,
            drift_threshold: 0.25,
            drift_window: 16,
            ..RefitOptions::default()
        };
        let mut r = Refitter::new(&[ServerArch::app_serv_f()], opts);
        let data = noisy(290);
        for obs in &data[..116] {
            assert!(r.fold(obs).is_none(), "no fit yet");
        }
        r.fit().expect("established");
        assert!(r.drift_score().unwrap() > 0.25, "{:?}", r.drift_score());
        for obs in &data[116..] {
            assert_eq!(r.fold(obs), None, "a refit cannot explain this ring");
        }
        assert!(r.drift_score().unwrap() > 0.25);
    }

    #[test]
    fn a_dip_under_the_threshold_rearms_the_drift_trigger() {
        let arch = ServerArch::app_serv_f();
        let opts = RefitOptions {
            refit_window: 1_000_000,
            drift_threshold: 0.25,
            drift_window: 16,
            ..RefitOptions::default()
        };
        let mut r = Refitter::new(std::slice::from_ref(&arch), opts);
        for obs in &noisy(116) {
            r.fold(obs);
        }
        r.fit().expect("established");
        assert!(r.drift_score().unwrap() > 0.25, "disarmed");
        // Points the fit predicts exactly push the score under the
        // threshold; none of them fires.
        for clients in 200..216 {
            let obs = on_fit(&r, &arch, clients, 1.0);
            assert_eq!(r.fold(&obs), None);
        }
        assert!(r.drift_score().unwrap() <= 0.25);
        // A later shift fires again.
        let mut fired = None;
        for clients in 200..216 {
            let obs = on_fit(&r, &arch, clients, 2.0);
            if let Some(t) = r.fold(&obs) {
                fired = Some(t);
                break;
            }
        }
        assert_eq!(fired, Some(RefitTrigger::Drift));
    }

    #[test]
    fn a_drift_trigger_whose_fit_fails_stays_armed() {
        let arch = ServerArch::app_serv_f();
        let mut seedfit = Refitter::new(std::slice::from_ref(&arch), RefitOptions::default());
        for obs in trace(1.0, 60) {
            seedfit.fold(&obs);
        }
        let opts = RefitOptions {
            refit_window: 1_000_000,
            drift_threshold: 0.25,
            drift_window: 4,
            ..RefitOptions::default()
        };
        let mut r = Refitter::new(std::slice::from_ref(&arch), opts);
        r.seed(seedfit.fit().unwrap());
        // 1.6× the seed's own answers: drift on every fold once the ring
        // fills, and only lower-region points so far, so no fit.
        let mut drifts = 0;
        for clients in [200, 210, 220, 230, 240, 250] {
            let obs = on_fit(&r, &arch, clients, 1.6);
            if let Some(trigger) = r.fold(&obs) {
                assert_eq!(trigger, RefitTrigger::Drift);
                assert!(r.fit().is_none(), "not established");
                drifts += 1;
            }
        }
        assert_eq!(drifts, 3, "every fold from the fourth retries");
    }

    /// Observations shaped like the serving benchmark's write stream: three
    /// servers, clients over 0.15–1.55 of saturation, a response time flat
    /// below saturation and linear above, a quarter of them at a 10–30 %
    /// buy mix, and ±5 % seeded noise.
    fn bench_shaped(count: u64) -> Vec<Observation> {
        let servers = ServerArch::case_study_servers();
        let mut state = 7u64;
        let mut next = || {
            state = perfpred_core::hash::splitmix64(state);
            state
        };
        (0..count)
            .map(|i| {
                let arch = &servers[(next() % servers.len() as u64) as usize];
                let mx = arch.max_throughput_rps;
                let frac = 0.15 + 1.40 * (next() >> 11) as f64 / (1u64 << 53) as f64;
                let clients = ((frac * mx * 7.02).round() as u32).max(1);
                let buy_pct = if next() % 4 == 0 {
                    10 * (1 + next() % 3)
                } else {
                    0
                };
                let lower = 20.0 + 40.0 * frac.powi(4);
                let upper = 1_000.0 * f64::from(clients) / mx - 7_000.0;
                let noise = 1.0 + 0.1 * ((next() >> 11) as f64 / (1u64 << 53) as f64 - 0.5);
                let mrt_ms = lower.max(upper) * (1.0 + buy_pct as f64 / 200.0) * noise;
                Observation {
                    server: arch.name.clone(),
                    clients,
                    buy_pct: buy_pct as f32,
                    mrt_ms,
                    throughput_rps: f64::from(clients) * 1_000.0 / (7_000.0 + mrt_ms),
                    timestamp_us: i,
                }
            })
            .collect()
    }

    #[test]
    fn a_noisy_paper_shaped_stream_does_not_refit_on_every_fold() {
        let opts = RefitOptions::default();
        let mut r = Refitter::new(&ServerArch::case_study_servers(), opts);
        let data = bench_shaped(20_000);
        let mut refits = 0u64;
        for obs in &data {
            if r.fold(obs).is_some() && r.fit().is_some() {
                refits += 1;
            }
        }
        let per_obs = refits as f64 / data.len() as f64;
        assert!(
            per_obs <= 2.0 / opts.refit_window as f64,
            "{refits} refits over {} observations",
            data.len()
        );
    }

    #[test]
    fn mixed_workload_points_feed_relationship_3() {
        let n_star = 186.0 / (1_000.0 / 7_020.0);
        let mut r = Refitter::new(&[ServerArch::app_serv_f()], RefitOptions::default());
        for obs in trace(1.0, 60) {
            r.fold(&obs);
        }
        // Saturated mixed-workload samples at 0 % / 10 % / 20 % buys.
        for (buy, mx) in [(0.0f32, 186.0), (10.0, 160.0), (20.0, 140.0)] {
            let mut o = Observation::typical("AppServF", (1.2 * n_star) as u32, 900.0);
            o.buy_pct = buy;
            o.throughput_rps = mx;
            if buy == 0.0 {
                continue; // typical points go to the grid, not R3
            }
            r.fold(&o);
        }
        let model = r.fit().unwrap();
        // R3 needs ≥ 2 buckets; 10 % and 20 % qualify.
        assert!(model.r3().is_some());
    }
}
