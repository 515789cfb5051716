//! Versioned model registry with hot swap.
//!
//! The refitter publishes each newly fitted [`HistoricalModel`] as an
//! immutable [`ModelVersion`]; the serve daemon's request threads read the
//! *current* version by cloning its `Arc` under a read lock, so a refit
//! never stalls in-flight predictions for longer than one pointer swap and
//! a prediction never observes a half-swapped model.
//!
//! Safety model: there is no `unsafe` here. Every version is an `Arc`, and
//! a reader owns a strong reference for as long as it uses one, so a
//! version lives exactly as long as the registry or some reader still
//! holds it. That is what lets the registry retain only the last
//! [`RETAINED_VERSIONS`] versions: evicting one from the history drops the
//! registry's reference, and a reader still predicting from it keeps it
//! alive until the reader is done. Version numbers come from their own
//! counter, so they keep counting past evictions.

use crate::refit::RefitTrigger;
use perfpred_core::{PerformanceModel, PredictError, Prediction, ServerArch, Workload};
use perfpred_hydra::HistoricalModel;
use std::collections::VecDeque;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Versions the registry keeps for `GET /models`; older ones are evicted.
pub const RETAINED_VERSIONS: usize = 256;

/// One published model generation.
#[derive(Debug)]
pub struct ModelVersion {
    /// Monotonic version number, starting at 1.
    pub version: u64,
    /// The fitted model.
    pub model: HistoricalModel,
    /// Observations folded into the refitter when this fit was produced.
    pub observations: u64,
    /// Why the refit ran.
    pub trigger: RefitTrigger,
}

#[derive(Default)]
struct State {
    /// The version readers are served; survives a rewind until the next
    /// publish.
    current: Option<Arc<ModelVersion>>,
    /// The last [`RETAINED_VERSIONS`] published versions, oldest first.
    history: VecDeque<Arc<ModelVersion>>,
    /// The last version number assigned since creation or rewind.
    last: u64,
}

/// The registry: the current [`ModelVersion`] plus the most recent ones.
#[derive(Default)]
pub struct ModelRegistry {
    state: RwLock<State>,
}

impl ModelRegistry {
    /// An empty registry (version 0: nothing fitted yet).
    pub fn new() -> ModelRegistry {
        ModelRegistry::default()
    }

    fn read(&self) -> RwLockReadGuard<'_, State> {
        // Every update below leaves the state valid at each step, so a
        // panic elsewhere while the lock was held cannot corrupt it.
        self.state.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> RwLockWriteGuard<'_, State> {
        self.state.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Retires every published version so the history can be rebuilt from
    /// scratch — the follower rollback path, where a divergent log tail is
    /// discarded and the surviving prefix replayed. Version numbering
    /// restarts at 1, which is exactly what makes the rebuilt registry
    /// byte-identical to one that never saw the dropped tail. `current`
    /// keeps serving the last retired version until the rebuild's first
    /// publish, so reads never hit an empty registry mid-rollback.
    pub fn rewind(&self) {
        let mut state = self.write();
        state.history.clear();
        state.last = 0;
    }

    /// Publishes a fitted model as the next version and hot-swaps it in,
    /// evicting the oldest retained version past [`RETAINED_VERSIONS`].
    /// Returns the version number assigned.
    pub fn publish(&self, model: HistoricalModel, observations: u64, trigger: RefitTrigger) -> u64 {
        let mut state = self.write();
        let version = state.last + 1;
        let entry = Arc::new(ModelVersion {
            version,
            model,
            observations,
            trigger,
        });
        if state.history.len() == RETAINED_VERSIONS {
            state.history.pop_front();
        }
        state.history.push_back(Arc::clone(&entry));
        state.current = Some(entry);
        state.last = version;
        version
    }

    /// The current model version. `None` until the first
    /// [`publish`](Self::publish).
    pub fn current(&self) -> Option<Arc<ModelVersion>> {
        self.read().current.clone()
    }

    /// The current version number; 0 while the registry is empty.
    pub fn version(&self) -> u64 {
        self.read().current.as_ref().map_or(0, |v| v.version)
    }

    /// Snapshot of the retained versions (at most [`RETAINED_VERSIONS`]),
    /// oldest first.
    pub fn versions(&self) -> Vec<Arc<ModelVersion>> {
        self.read().history.iter().cloned().collect()
    }
}

/// A [`PerformanceModel`] view over a registry: every call delegates to
/// whatever model is current at that instant, which is what lets the serve
/// daemon's prediction cache and routing stay oblivious to refits.
#[derive(Clone)]
pub struct RegistryModel {
    registry: Arc<ModelRegistry>,
}

impl RegistryModel {
    /// Wraps a shared registry.
    pub fn new(registry: Arc<ModelRegistry>) -> RegistryModel {
        RegistryModel { registry }
    }

    /// The backing registry.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    fn current(&self) -> Result<Arc<ModelVersion>, PredictError> {
        self.registry.current().ok_or_else(|| {
            PredictError::Calibration(
                "no historical model fitted yet: feed observations to /observe \
                 or seed the store from a calibration dataset"
                    .into(),
            )
        })
    }
}

impl PerformanceModel for RegistryModel {
    fn method_name(&self) -> &str {
        "historical"
    }

    fn predict(
        &self,
        server: &ServerArch,
        workload: &Workload,
    ) -> Result<Prediction, PredictError> {
        self.current()?.model.predict(server, workload)
    }

    fn max_clients(
        &self,
        server: &ServerArch,
        template: &Workload,
        rt_goal_ms: f64,
    ) -> Result<u32, PredictError> {
        self.current()?
            .model
            .max_clients(server, template, rt_goal_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfpred_hydra::ServerObservations;
    use std::sync::atomic::Ordering;

    fn fitted(c_low: f64) -> HistoricalModel {
        let mx = 186.0;
        let n_star = mx / 0.1424;
        HistoricalModel::builder()
            .observations(
                ServerObservations::new("AppServF", mx)
                    .with_lower(0.15 * n_star, c_low)
                    .with_lower(0.60 * n_star, c_low * 1.4)
                    .with_upper(1.20 * n_star, 1_000.0 / mx * 1.20 * n_star - 7_000.0)
                    .with_upper(1.55 * n_star, 1_000.0 / mx * 1.55 * n_star - 7_000.0),
            )
            .gradient(0.1424)
            .build()
            .unwrap()
    }

    #[test]
    fn empty_registry_reports_version_zero_and_calibration_error() {
        let reg = Arc::new(ModelRegistry::new());
        assert_eq!(reg.version(), 0);
        assert!(reg.current().is_none());
        let model = RegistryModel::new(reg);
        let err = model
            .predict(&ServerArch::app_serv_f(), &Workload::typical(100))
            .unwrap_err();
        assert!(matches!(err, PredictError::Calibration(_)), "{err}");
    }

    #[test]
    fn publish_bumps_version_and_swaps_the_served_model() {
        let reg = Arc::new(ModelRegistry::new());
        let model = RegistryModel::new(Arc::clone(&reg));
        let server = ServerArch::app_serv_f();
        let wl = Workload::typical(200);

        assert_eq!(reg.publish(fitted(20.0), 10, RefitTrigger::Window), 1);
        let before = model.predict(&server, &wl).unwrap().mrt_ms;

        assert_eq!(reg.publish(fitted(32.0), 20, RefitTrigger::Drift), 2);
        assert_eq!(reg.version(), 2);
        let after = model.predict(&server, &wl).unwrap().mrt_ms;
        assert!(
            after > before,
            "slower fit must serve slower predictions: {before} vs {after}"
        );

        let versions = reg.versions();
        assert_eq!(versions.len(), 2);
        assert_eq!(versions[0].version, 1);
        assert_eq!(versions[0].trigger, RefitTrigger::Window);
        assert_eq!(versions[1].trigger, RefitTrigger::Drift);
    }

    #[test]
    fn readers_holding_an_old_version_survive_a_swap() {
        let reg = Arc::new(ModelRegistry::new());
        reg.publish(fitted(20.0), 10, RefitTrigger::Window);
        let held = reg.current().unwrap();
        reg.publish(fitted(32.0), 20, RefitTrigger::Window);
        // The old Arc keeps predicting from the old fit.
        let server = ServerArch::app_serv_f();
        let wl = Workload::typical(200);
        let old = held.model.predict(&server, &wl).unwrap().mrt_ms;
        let new = reg
            .current()
            .unwrap()
            .model
            .predict(&server, &wl)
            .unwrap()
            .mrt_ms;
        assert!(old < new);
        assert_eq!(held.version, 1);
    }

    #[test]
    fn rewind_restarts_numbering_without_breaking_live_readers() {
        let reg = Arc::new(ModelRegistry::new());
        reg.publish(fitted(20.0), 10, RefitTrigger::Window);
        reg.publish(fitted(32.0), 20, RefitTrigger::Drift);
        let held = reg.current().unwrap();
        reg.rewind();
        // The retired current keeps serving until the rebuild publishes.
        assert_eq!(reg.version(), 2);
        assert!(reg.versions().is_empty());
        assert_eq!(held.version, 2);
        let server = ServerArch::app_serv_f();
        let wl = Workload::typical(200);
        assert!(held.model.predict(&server, &wl).is_ok());
        // Rebuilding restarts numbering at 1 — the property that makes a
        // rolled-back follower's registry byte-identical to the primary's.
        assert_eq!(reg.publish(fitted(20.0), 10, RefitTrigger::Window), 1);
        assert_eq!(reg.version(), 1);
        assert_eq!(reg.versions().len(), 1);
    }

    #[test]
    fn concurrent_readers_and_publishers_do_not_tear() {
        let reg = Arc::new(ModelRegistry::new());
        reg.publish(fitted(20.0), 1, RefitTrigger::Seed);
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let reg = Arc::clone(&reg);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let model = RegistryModel::new(reg);
                let server = ServerArch::app_serv_f();
                let wl = Workload::typical(150);
                let mut last = 0.0;
                while !stop.load(Ordering::Relaxed) {
                    let p = model.predict(&server, &wl).unwrap();
                    assert!(p.mrt_ms.is_finite() && p.mrt_ms > 0.0);
                    last = p.mrt_ms;
                }
                last
            }));
        }
        let publishes = 2 * RETAINED_VERSIONS as u64;
        for i in 0..publishes {
            reg.publish(fitted(20.0 + (i % 50) as f64), i, RefitTrigger::Window);
        }
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reg.version(), publishes + 1);
        assert_eq!(reg.versions().len(), RETAINED_VERSIONS);
    }

    #[test]
    fn history_keeps_the_last_retained_versions_and_numbering_continues() {
        let reg = ModelRegistry::new();
        let model = fitted(20.0);
        let publishes = 4 * RETAINED_VERSIONS as u64;
        for i in 1..=publishes {
            let trigger = if i % 3 == 0 {
                RefitTrigger::Drift
            } else {
                RefitTrigger::Window
            };
            assert_eq!(reg.publish(model.clone(), 10 * i, trigger), i);
            assert!(reg.versions().len() <= RETAINED_VERSIONS);
        }
        assert_eq!(reg.version(), publishes);
        let versions = reg.versions();
        assert_eq!(versions.len(), RETAINED_VERSIONS);
        let first = publishes - RETAINED_VERSIONS as u64 + 1;
        for (v, expected) in versions.iter().zip(first..) {
            assert_eq!(v.version, expected);
            assert_eq!(v.observations, 10 * expected);
        }
        assert_eq!(reg.publish(model, 0, RefitTrigger::Window), publishes + 1);
        assert_eq!(reg.versions().last().unwrap().version, publishes + 1);
    }

    #[test]
    fn a_reader_holding_an_evicted_version_still_predicts() {
        let reg = ModelRegistry::new();
        reg.publish(fitted(20.0), 1, RefitTrigger::Window);
        let held = reg.current().unwrap();
        let server = ServerArch::app_serv_f();
        let wl = Workload::typical(200);
        let before = held.model.predict(&server, &wl).unwrap().mrt_ms;
        for i in 0..2 * RETAINED_VERSIONS as u64 {
            reg.publish(fitted(32.0), i, RefitTrigger::Window);
        }
        assert!(reg.versions().iter().all(|v| v.version != 1), "evicted");
        assert_eq!(held.version, 1);
        let after = held.model.predict(&server, &wl).unwrap().mrt_ms;
        assert_eq!(before.to_bits(), after.to_bits());
    }

    #[test]
    fn rewind_after_eviction_restarts_numbering_at_one() {
        let reg = ModelRegistry::new();
        for i in 0..RETAINED_VERSIONS as u64 + 10 {
            reg.publish(fitted(20.0), i, RefitTrigger::Window);
        }
        reg.rewind();
        assert!(reg.versions().is_empty());
        assert_eq!(reg.version(), RETAINED_VERSIONS as u64 + 10);
        assert_eq!(reg.publish(fitted(20.0), 1, RefitTrigger::Window), 1);
        assert_eq!(reg.publish(fitted(20.0), 2, RefitTrigger::Drift), 2);
        let versions = reg.versions();
        assert_eq!(versions.len(), 2);
        assert_eq!((versions[0].version, versions[1].version), (1, 2));
    }
}
