//! The assembled observation store: log + refitter + registry.
//!
//! [`ObservationStore`] is the single entry point the serve daemon uses.
//! One mutex guards *both* the log and the refitter so the durable append
//! order is exactly the fold order — the property that makes replay after
//! a restart reconstruct the serving model bit for bit. The registry hot
//! swap happens inside the same critical section (publishing is cheap:
//! one `Arc` swap under the registry's write lock), while readers only
//! clone the current `Arc` under its read lock via
//! [`ModelRegistry::current`] and never wait for a fold or a fit.

use crate::log::{LogOptions, ObservationLog, ReplayReport};
use crate::record::{Observation, StoreError};
use crate::refit::{RefitOptions, RefitTrigger, Refitter};
use crate::registry::ModelRegistry;
use perfpred_core::faults::{self, FaultPlan, FaultSite};
use perfpred_core::{metrics, metrics::names, ServerArch};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// A watchable record counter: the replication sender parks on this
/// instead of polling the log. [`ObservationStore::ingest`] advances it
/// (outside the store's main mutex) after every durable append.
#[derive(Debug, Default)]
pub struct LogWatch {
    len: Mutex<u64>,
    grew: Condvar,
}

impl LogWatch {
    /// Publishes a new log length (monotonic; stale advances are ignored).
    pub fn advance(&self, len: u64) {
        let mut cur = self.len.lock().unwrap();
        if len > *cur {
            *cur = len;
            self.grew.notify_all();
        }
    }

    /// The last published length.
    #[allow(clippy::len_without_is_empty)] // a counter, not a container
    pub fn len(&self) -> u64 {
        *self.len.lock().unwrap()
    }

    /// Forces the published length to exactly `len`, downward included —
    /// only the follower rollback path uses this, on a node that is not
    /// streaming to anyone (a follower's hub answers not-primary before
    /// ever parking on the watch).
    pub fn reset(&self, len: u64) {
        let mut cur = self.len.lock().unwrap();
        *cur = len;
        self.grew.notify_all();
    }

    /// Blocks until the published length exceeds `n` (returning the new
    /// length) or `timeout` elapses (returning the current one). Senders
    /// use the timeout return to emit heartbeats on an idle log.
    pub fn wait_beyond(&self, n: u64, timeout: Duration) -> u64 {
        let guard = self.len.lock().unwrap();
        let (guard, _) = self
            .grew
            .wait_timeout_while(guard, timeout, |len| *len <= n)
            .unwrap();
        *guard
    }
}

/// One refit that happened during an ingest call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefitEvent {
    /// Version number the new model was published under.
    pub version: u64,
    /// What triggered it.
    pub trigger: RefitTrigger,
}

/// What an [`ObservationStore::ingest`] call did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestOutcome {
    /// Observations accepted (validated, logged, folded).
    pub accepted: u64,
    /// Refits published while folding this batch, in order.
    pub refits: Vec<RefitEvent>,
}

struct Inner {
    /// `None` for a purely in-memory store (tests, `--store-dir` unset).
    log: Option<ObservationLog>,
    refitter: Refitter,
    /// Construction parameters, retained so [`ObservationStore::rollback_to`]
    /// can rebuild a fresh refitter over the surviving log prefix.
    servers: Vec<ServerArch>,
    refit_opts: RefitOptions,
}

/// Durable observation intake with continuous refit and hot model reload.
pub struct ObservationStore {
    inner: Mutex<Inner>,
    registry: Arc<ModelRegistry>,
    watch: Arc<LogWatch>,
    /// Captured once at construction (not re-read per call) so a test's
    /// store keeps its injected faults even when another test in the same
    /// binary swaps the process-global plan.
    faults: Option<Arc<FaultPlan>>,
}

impl ObservationStore {
    /// An in-memory store: observations fold into the refitter but nothing
    /// is persisted.
    pub fn in_memory(servers: &[ServerArch], opts: RefitOptions) -> ObservationStore {
        ObservationStore {
            inner: Mutex::new(Inner {
                log: None,
                refitter: Refitter::new(servers, opts),
                servers: servers.to_vec(),
                refit_opts: opts,
            }),
            registry: Arc::new(ModelRegistry::new()),
            watch: Arc::new(LogWatch::default()),
            faults: faults::active(),
        }
    }

    /// Opens (creating if needed) the durable store in `dir`, replaying
    /// the log through the refit pipeline so the registry comes back up
    /// holding exactly the model the log justifies. Returns the store and
    /// what recovery found.
    pub fn open(
        dir: &Path,
        log_opts: LogOptions,
        servers: &[ServerArch],
        refit_opts: RefitOptions,
    ) -> Result<(ObservationStore, ReplayReport), StoreError> {
        let mut refitter = Refitter::new(servers, refit_opts);
        let registry = Arc::new(ModelRegistry::new());
        let mut replayed = 0u64;
        let (log, report) = ObservationLog::open(dir, log_opts, |obs| {
            // Replay runs the exact ingest fold path: same triggers, same
            // publishes, same version numbering.
            if let Some(trigger) = refitter.fold(&obs) {
                if let Some(model) = refitter.fit() {
                    registry.publish(model, refitter.folded(), trigger);
                }
            }
            replayed += 1;
        })?;
        metrics::counter(names::STORE_OBSERVATIONS_TOTAL).add(replayed);
        let watch = Arc::new(LogWatch::default());
        watch.advance(log.len());
        Ok((
            ObservationStore {
                inner: Mutex::new(Inner {
                    log: Some(log),
                    refitter,
                    servers: servers.to_vec(),
                    refit_opts,
                }),
                registry,
                watch,
                faults: faults::active(),
            },
            report,
        ))
    }

    /// Replaces the store's captured fault plan — how chaos tests arm a
    /// specific store instance without touching the process-global plan
    /// other tests in the same binary might be reading.
    pub fn with_faults(mut self, plan: Option<Arc<FaultPlan>>) -> ObservationStore {
        self.faults = plan;
        self
    }

    /// The shared registry (hand this to the serve daemon's model host).
    pub fn registry(&self) -> Arc<ModelRegistry> {
        Arc::clone(&self.registry)
    }

    /// Seeds the registry with an externally calibrated model — used when
    /// the daemon starts in calibrated mode so predictions work before the
    /// first refit. Only applies while the registry is still empty, so a
    /// replayed log always wins over the seed.
    pub fn seed_if_empty(&self, model: perfpred_hydra::HistoricalModel) -> Option<u64> {
        let mut inner = self.inner.lock().unwrap();
        if self.registry.version() != 0 {
            return None;
        }
        inner.refitter.seed(model.clone());
        Some(self.registry.publish(model, 0, RefitTrigger::Seed))
    }

    /// Validates, logs and folds a batch of observations, publishing any
    /// refits it triggers. All-or-nothing on validation: one bad
    /// observation rejects the whole batch before anything is written.
    pub fn ingest(&self, batch: &[Observation]) -> Result<IngestOutcome, StoreError> {
        for obs in batch {
            obs.validate()?;
        }
        let mut inner = self.inner.lock().unwrap();
        // Injected I/O failure, placed *before* the append so a fired
        // fault fails the batch atomically: nothing reaches the log and
        // nothing folds into the refitter, exactly like a real write
        // error surfaced by append_batch. Recovery therefore replays a
        // state byte-identical to one where the batch never arrived.
        if self
            .faults
            .as_ref()
            .is_some_and(|f| f.fires(FaultSite::StoreIoErr))
        {
            metrics::counter(names::STORE_INJECTED_IO_ERRORS_TOTAL).incr();
            return Err(StoreError::Io(std::io::Error::other(
                "injected store I/O fault",
            )));
        }
        let mut appended_len = None;
        if let Some(log) = inner.log.as_mut() {
            log.append_batch(batch)?;
            appended_len = Some(log.len());
        }
        let mut outcome = IngestOutcome {
            accepted: batch.len() as u64,
            refits: Vec::new(),
        };
        for obs in batch {
            if let Some(trigger) = inner.refitter.fold(obs) {
                if let Some(model) = inner.refitter.fit() {
                    let observations = inner.refitter.folded();
                    let version = self.registry.publish(model, observations, trigger);
                    outcome.refits.push(RefitEvent { version, trigger });
                }
            }
        }
        drop(inner);
        if let Some(len) = appended_len {
            self.watch.advance(len);
        }
        metrics::counter(names::STORE_OBSERVATIONS_TOTAL).add(outcome.accepted);
        if !outcome.refits.is_empty() {
            metrics::counter(names::STORE_REFITS_TOTAL).add(outcome.refits.len() as u64);
            // Added even when zero, so the series appears beside the total.
            let drift = outcome
                .refits
                .iter()
                .filter(|r| r.trigger == RefitTrigger::Drift)
                .count();
            metrics::counter(names::STORE_DRIFT_REFITS_TOTAL).add(drift as u64);
        }
        Ok(outcome)
    }

    /// Rolls the durable log back to its first `keep` records, rebuilding
    /// the refitter and registry by replaying the surviving prefix — the
    /// follower-side divergence recovery path. Replay determinism makes
    /// the rebuilt state byte-identical to one that never appended the
    /// dropped tail, so resyncing from the new primary converges to its
    /// exact log bytes and version history. Reads keep serving the
    /// pre-rollback model until the replay's first publish.
    ///
    /// On error the store is left without a log (appends would silently
    /// stop persisting), so the caller must fence the node rather than
    /// keep ingesting.
    pub fn rollback_to(&self, keep: u64) -> Result<(), StoreError> {
        let mut inner = self.inner.lock().unwrap();
        let Some(log) = inner.log.take() else {
            return Err(StoreError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "rollback requires a durable log",
            )));
        };
        if keep > log.len() {
            let len = log.len();
            inner.log = Some(log);
            return Err(StoreError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("cannot roll back to {keep}: log holds only {len} records"),
            )));
        }
        let dir = log.dir().to_path_buf();
        drop(log); // close the append handle before file surgery
        ObservationLog::truncate_records(&dir, keep)?;
        let mut refitter = Refitter::new(&inner.servers, inner.refit_opts);
        self.registry.rewind();
        let (log, _report) = ObservationLog::open(&dir, LogOptions::default(), |obs| {
            if let Some(trigger) = refitter.fold(&obs) {
                if let Some(model) = refitter.fit() {
                    self.registry.publish(model, refitter.folded(), trigger);
                }
            }
        })?;
        inner.refitter = refitter;
        inner.log = Some(log);
        self.watch.reset(keep);
        metrics::counter("store.rollbacks").incr();
        Ok(())
    }

    /// Forces the log tail to disk (no-op for in-memory stores).
    pub fn sync(&self) -> Result<(), StoreError> {
        if let Some(log) = self.inner.lock().unwrap().log.as_mut() {
            log.sync()?;
        }
        Ok(())
    }

    /// Total observations folded into the refitter (replayed + ingested,
    /// excluding unknown-server skips).
    pub fn observations(&self) -> u64 {
        self.inner.lock().unwrap().refitter.folded()
    }

    /// The refitter's current drift score: the mean relative error of its
    /// last fit over the drift ring (see [`Refitter::drift_score`]).
    pub fn drift_score(&self) -> Option<f64> {
        self.inner.lock().unwrap().refitter.drift_score()
    }

    /// Observations skipped because their server is unknown.
    pub fn skipped_unknown(&self) -> u64 {
        self.inner.lock().unwrap().refitter.skipped_unknown()
    }

    /// Records in the durable log, if any.
    pub fn log_len(&self) -> Option<u64> {
        self.inner.lock().unwrap().log.as_ref().map(|l| l.len())
    }

    /// The durable log's directory, if any — replication senders open a
    /// [`crate::SegmentReader`] on it.
    pub fn log_dir(&self) -> Option<PathBuf> {
        self.inner
            .lock()
            .unwrap()
            .log
            .as_ref()
            .map(|l| l.dir().to_path_buf())
    }

    /// The watchable log-length counter replication senders park on.
    /// Always present; it only ever advances for durable stores.
    pub fn watch(&self) -> Arc<LogWatch> {
        Arc::clone(&self.watch)
    }

    /// The cluster epoch in the log's manifest (`None` for in-memory).
    pub fn epoch(&self) -> Option<u64> {
        self.inner.lock().unwrap().log.as_ref().map(|l| l.epoch())
    }

    /// Persists a new cluster epoch (no-op for in-memory stores).
    pub fn set_epoch(&self, epoch: u64) -> Result<(), StoreError> {
        if let Some(log) = self.inner.lock().unwrap().log.as_mut() {
            log.set_epoch(epoch)?;
        }
        Ok(())
    }

    /// The current serving model serialized (for determinism assertions).
    pub fn current_model_serialized(&self) -> Option<String> {
        self.registry
            .current()
            .map(|v| perfpred_hydra::persist::serialize(&v.model))
    }
}
