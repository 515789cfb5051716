//! Lightweight process-wide metrics: atomic counters and log-bucketed
//! histograms behind a named registry.
//!
//! The registry exists so the hot paths of the workspace — the layered
//! queuing solver, the simulation engine, the resource manager's
//! allocation loops and the prediction cache — can report what they did
//! (iterations run, events processed, predictions served from cache)
//! without threading handles through every call signature. Everything is
//! `std`-only and lock-free on the record path: a metric handle is an
//! `Arc` resolved once per name through an `RwLock`-guarded map, and all
//! updates after that are plain atomics. Hot loops should accumulate
//! locally and flush once (see `TradeSim::run`), keeping registry lookups
//! out of per-event code.
//!
//! Names are dotted lowercase paths, e.g. `lqns.solve.iterations` or
//! `predcache.hits`. [`snapshot`] captures every registered metric for
//! reporting; [`reset`] zeroes values between experiments while keeping
//! the registered handles alive (outstanding `Arc`s keep working).
//!
//! # Scoped collection
//!
//! By default every metric lands in one process-wide registry, which is
//! fine for a single experiment but makes concurrent experiments clobber
//! each other's counters. A [`Scope`] gives a piece of work its own
//! registry: while a scope is entered on a thread (see [`Scope::enter`]),
//! `counter`/`histogram`/`snapshot`/`reset` on that thread resolve into
//! the scope's registry instead of the global one. Scopes are cheap
//! `Arc` handles — clone one into worker threads (or capture it with
//! [`current_scope`]) and re-enter it there so spawned workers report
//! into the same window as their parent.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Well-known metric names shared across crates, so producers (the
/// observation store) and consumers (the serve daemon's `/metrics`
/// exposition, smoke tests) agree on spelling without a dependency edge.
pub mod names {
    /// Counts every observation folded into the continuous refitter —
    /// rendered as `store_observations_total` in the exposition.
    pub const STORE_OBSERVATIONS_TOTAL: &str = "store.observations_total";
    /// Counts every successful refit + model publish — rendered as
    /// `store_refits_total` in the exposition.
    pub const STORE_REFITS_TOTAL: &str = "store.refits_total";
    /// Counts solver jobs shed because their request deadline had already
    /// expired — rendered as `serve_deadline_expired_total`.
    pub const SERVE_DEADLINE_EXPIRED_TOTAL: &str = "serve.deadline_expired_total";
    /// Counts `/predict` responses answered in degraded mode (fallback to
    /// a non-queuing model) — rendered as `serve_degraded_total`.
    pub const SERVE_DEGRADED_TOTAL: &str = "serve.degraded_total";
    /// Counts ingests failed by an injected `store_io_err` fault —
    /// rendered as `store_injected_io_errors_total`.
    pub const STORE_INJECTED_IO_ERRORS_TOTAL: &str = "store.injected_io_errors_total";
}

/// A monotonically increasing atomic counter.
///
/// Aligned to a 64-byte cache line: counters are handed out as individual
/// `Arc` allocations, and without the alignment two hot counters (or a
/// counter and an unrelated allocation) can land on one line and pay
/// cross-core false-sharing invalidations on every `incr`.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// One cache-line-aligned counter lane of a [`ShardedCounter`].
#[derive(Debug, Default)]
#[repr(align(64))]
struct PaddedLane {
    value: AtomicU64,
}

/// A counter striped across per-shard lanes, each padded to its own
/// 64-byte cache line.
///
/// A plain [`Counter`] bumped from every reactor shard makes all cores
/// contend on one cache line; a `ShardedCounter` gives each shard a
/// private lane (`lane(i).`[`add`](ShardedLane::add)) so the steady-state
/// increment never leaves the owning core. Reads ([`get`](Self::get), and
/// the registry snapshot behind `/metrics`) sum the lanes — aggregation
/// happens at scrape time, not on the hot path.
#[derive(Debug)]
pub struct ShardedCounter {
    lanes: Box<[PaddedLane]>,
}

impl ShardedCounter {
    /// A counter with `lanes` stripes (at least one).
    pub fn new(lanes: usize) -> Self {
        ShardedCounter {
            lanes: (0..lanes.max(1)).map(|_| PaddedLane::default()).collect(),
        }
    }

    /// The number of lanes.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// A handle to lane `i` (wrapping, so any shard id is safe).
    pub fn lane(&self, i: usize) -> ShardedLane<'_> {
        ShardedLane {
            lane: &self.lanes[i % self.lanes.len()],
        }
    }

    /// The aggregate across all lanes.
    pub fn get(&self) -> u64 {
        self.lanes
            .iter()
            .map(|l| l.value.load(Ordering::Relaxed))
            .sum()
    }

    /// Zeroes every lane.
    pub fn reset(&self) {
        for l in self.lanes.iter() {
            l.value.store(0, Ordering::Relaxed);
        }
    }
}

/// One shard's private view of a [`ShardedCounter`].
#[derive(Debug, Clone, Copy)]
pub struct ShardedLane<'a> {
    lane: &'a PaddedLane,
}

impl ShardedLane<'_> {
    /// Adds one to this lane.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n` to this lane.
    pub fn add(&self, n: u64) {
        self.lane.value.fetch_add(n, Ordering::Relaxed);
    }
}

/// Number of logarithmic buckets in a [`Histogram`].
///
/// Bucket `i` holds values in `[2^(i-1), 2^i)` relative to a 1 µs-scale
/// resolution floor; with 64 buckets the range comfortably covers
/// sub-microsecond latencies through multi-hour wall times and iteration
/// counts in the millions.
const BUCKETS: usize = 64;

/// A lock-free histogram of non-negative `f64` samples.
///
/// Tracks exact count/sum/min/max plus power-of-two buckets for quantile
/// estimates. Quantiles are approximate (bucket upper bounds); count, sum
/// and extremes are exact.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    /// Sum of samples, stored as `f64::to_bits` and updated via CAS.
    sum_bits: AtomicU64,
    /// Min/max stored as `f64::to_bits` (samples are clamped non-negative,
    /// so bit patterns order like the floats themselves).
    min_bits: AtomicU64,
    max_bits: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(0f64.to_bits()),
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Bucket index for a (non-negative) sample: log2 of the value scaled
    /// so that bucket 0 covers `[0, 1e-6)` — fine enough for microsecond
    /// latencies recorded in milliseconds.
    fn bucket_of(v: f64) -> usize {
        let scaled = v / 1e-6;
        if scaled < 1.0 {
            return 0;
        }
        let exp = scaled.log2().floor() as usize + 1;
        exp.min(BUCKETS - 1)
    }

    /// Upper bound of bucket `i`, in the sample's own units.
    fn bucket_upper(i: usize) -> f64 {
        if i == 0 {
            1e-6
        } else {
            2f64.powi(i as i32) * 1e-6
        }
    }

    /// Records one sample. Negative and non-finite samples are clamped to
    /// zero so a stray NaN cannot poison the aggregates.
    pub fn record(&self, sample: f64) {
        let v = if sample.is_finite() && sample > 0.0 {
            sample
        } else {
            0.0
        };
        self.count.fetch_add(1, Ordering::Relaxed);
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        // CAS-add on the f64 sum.
        let _ = self
            .sum_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + v).to_bits())
            });
        let _ = self
            .min_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                (v < f64::from_bits(bits)).then(|| v.to_bits())
            });
        let _ = self
            .max_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                (v > f64::from_bits(bits)).then(|| v.to_bits())
            });
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Mean of recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() / n as f64
        }
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count() == 0 {
            0.0
        } else {
            f64::from_bits(self.min_bits.load(Ordering::Relaxed))
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> f64 {
        f64::from_bits(self.max_bits.load(Ordering::Relaxed))
    }

    /// Approximate quantile `q ∈ [0, 1]`: the upper bound of the bucket
    /// holding the `q`-th sample, clamped to the observed max.
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return Self::bucket_upper(i).min(self.max());
            }
        }
        self.max()
    }

    /// Resets every aggregate to the empty state.
    pub fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum_bits.store(0f64.to_bits(), Ordering::Relaxed);
        self.min_bits
            .store(f64::INFINITY.to_bits(), Ordering::Relaxed);
        self.max_bits.store(0f64.to_bits(), Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

#[derive(Debug, Default)]
struct Registry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    sharded: RwLock<BTreeMap<String, Arc<ShardedCounter>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    fn sharded_counter(&self, name: &str, lanes: usize) -> Arc<ShardedCounter> {
        if let Some(c) = self
            .sharded
            .read()
            .expect("metrics registry lock")
            .get(name)
        {
            return Arc::clone(c);
        }
        let mut map = self.sharded.write().expect("metrics registry lock");
        Arc::clone(
            map.entry(name.to_owned())
                .or_insert_with(|| Arc::new(ShardedCounter::new(lanes))),
        )
    }

    fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = self
            .counters
            .read()
            .expect("metrics registry lock")
            .get(name)
        {
            return Arc::clone(c);
        }
        let mut map = self.counters.write().expect("metrics registry lock");
        Arc::clone(map.entry(name.to_owned()).or_default())
    }

    fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = self
            .histograms
            .read()
            .expect("metrics registry lock")
            .get(name)
        {
            return Arc::clone(h);
        }
        let mut map = self.histograms.write().expect("metrics registry lock");
        Arc::clone(map.entry(name.to_owned()).or_default())
    }

    fn reset(&self) {
        for c in self
            .counters
            .read()
            .expect("metrics registry lock")
            .values()
        {
            c.reset();
        }
        for c in self.sharded.read().expect("metrics registry lock").values() {
            c.reset();
        }
        for h in self
            .histograms
            .read()
            .expect("metrics registry lock")
            .values()
        {
            h.reset();
        }
    }

    fn snapshot(&self) -> MetricsSnapshot {
        // Plain and sharded counters render identically: the lanes are an
        // implementation detail of the write path, aggregated at scrape.
        let mut counters: Vec<CounterSnapshot> = self
            .counters
            .read()
            .expect("metrics registry lock")
            .iter()
            .map(|(name, c)| CounterSnapshot {
                name: name.clone(),
                value: c.get(),
            })
            .chain(
                self.sharded
                    .read()
                    .expect("metrics registry lock")
                    .iter()
                    .map(|(name, c)| CounterSnapshot {
                        name: name.clone(),
                        value: c.get(),
                    }),
            )
            .collect();
        counters.sort_by(|a, b| a.name.cmp(&b.name));
        let histograms = self
            .histograms
            .read()
            .expect("metrics registry lock")
            .iter()
            .map(|(name, h)| HistogramSnapshot {
                name: name.clone(),
                count: h.count(),
                sum: h.sum(),
                mean: h.mean(),
                min: h.min(),
                max: h.max(),
                p50: h.quantile(0.50),
                p95: h.quantile(0.95),
                p99: h.quantile(0.99),
            })
            .collect();
        MetricsSnapshot {
            counters,
            histograms,
        }
    }
}

fn global_registry() -> &'static Arc<Registry> {
    static REGISTRY: OnceLock<Arc<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(Arc::default)
}

thread_local! {
    /// The registry the current thread records into, when a [`Scope`] has
    /// been entered here; `None` means the global registry.
    static ACTIVE: RefCell<Option<Arc<Registry>>> = const { RefCell::new(None) };
}

/// The registry metric lookups on this thread currently resolve to.
fn active_registry() -> Arc<Registry> {
    ACTIVE.with(|a| match &*a.borrow() {
        Some(reg) => Arc::clone(reg),
        None => Arc::clone(global_registry()),
    })
}

/// An isolated metrics registry for one unit of work (e.g. one experiment
/// running concurrently with others).
///
/// While entered on a thread, all name-based metric operations on that
/// thread (`counter`, `histogram`, `snapshot`, `reset`) use the scope's
/// private registry. Clone the scope into spawned worker threads and
/// [`enter`](Scope::enter) it there to aggregate their activity too.
#[derive(Clone, Default)]
pub struct Scope {
    registry: Arc<Registry>,
}

impl std::fmt::Debug for Scope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scope").finish_non_exhaustive()
    }
}

impl Scope {
    /// Creates a scope with a fresh, empty registry.
    pub fn new() -> Self {
        Scope::default()
    }

    /// Makes this scope the destination for metrics recorded on the
    /// current thread until the returned guard drops (scopes nest; the
    /// previous destination is restored).
    #[must_use = "the scope is only active while the guard lives"]
    pub fn enter(&self) -> ScopeGuard {
        let prev = ACTIVE.with(|a| a.replace(Some(Arc::clone(&self.registry))));
        ScopeGuard {
            prev,
            _not_send: std::marker::PhantomData,
        }
    }

    /// Captures the current value of every metric recorded in this scope.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// True when both scopes share one registry.
    pub fn same_as(&self, other: &Scope) -> bool {
        Arc::ptr_eq(&self.registry, &other.registry)
    }
}

/// Restores the thread's previous metrics destination on drop.
/// Returned by [`Scope::enter`]; not `Send` — it must drop on the thread
/// that entered the scope.
#[derive(Debug)]
pub struct ScopeGuard {
    prev: Option<Arc<Registry>>,
    // Thread-local restore must happen on the entering thread.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        ACTIVE.with(|a| *a.borrow_mut() = self.prev.take());
    }
}

/// The scope active on the current thread, if any — capture before
/// spawning workers and re-enter inside them so their metrics land in the
/// caller's window.
pub fn current_scope() -> Option<Scope> {
    ACTIVE.with(|a| {
        a.borrow().as_ref().map(|reg| Scope {
            registry: Arc::clone(reg),
        })
    })
}

/// Returns the counter registered under `name` in the active registry
/// (the entered [`Scope`]'s, else the global one), creating it on first
/// use.
pub fn counter(name: &str) -> Arc<Counter> {
    active_registry().counter(name)
}

/// Returns the sharded counter registered under `name` in the active
/// registry, creating it with `lanes` stripes on first use (an existing
/// counter keeps its lane count; `ShardedCounter::lane` wraps, so any
/// shard id stays valid either way).
pub fn sharded_counter(name: &str, lanes: usize) -> Arc<ShardedCounter> {
    active_registry().sharded_counter(name, lanes)
}

/// Returns the histogram registered under `name` in the active registry
/// (the entered [`Scope`]'s, else the global one), creating it on first
/// use.
pub fn histogram(name: &str) -> Arc<Histogram> {
    active_registry().histogram(name)
}

/// Zeroes every metric in the active registry. Handles held by callers
/// stay valid.
pub fn reset() {
    active_registry().reset();
}

/// Point-in-time value of one counter.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSnapshot {
    /// Registered metric name.
    pub name: String,
    /// Counter value at snapshot time.
    pub value: u64,
}

/// Point-in-time aggregate of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Registered metric name.
    pub name: String,
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: f64,
    /// Mean sample.
    pub mean: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Approximate median sample.
    pub p50: f64,
    /// Approximate 95th-percentile sample.
    pub p95: f64,
    /// Approximate 99th-percentile sample.
    pub p99: f64,
}

/// Everything the registry currently holds, sorted by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// All registered counters.
    pub counters: Vec<CounterSnapshot>,
    /// All registered histograms.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Looks up a counter value by name (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }

    /// Looks up a histogram snapshot by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// True when nothing was recorded since the last reset.
    pub fn is_empty(&self) -> bool {
        self.counters.iter().all(|c| c.value == 0) && self.histograms.iter().all(|h| h.count == 0)
    }

    /// Renders a compact plain-text report (metrics with zero activity are
    /// skipped).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for c in &self.counters {
            if c.value > 0 {
                let _ = writeln!(out, "  {:<42} {}", c.name, c.value);
            }
        }
        for h in &self.histograms {
            if h.count > 0 {
                let _ = writeln!(
                    out,
                    "  {:<42} n={} mean={:.3} p95={:.3} max={:.3}",
                    h.name, h.count, h.mean, h.p95, h.max
                );
            }
        }
        out
    }

    /// Renders the snapshot in the Prometheus text exposition format, the
    /// wire shape the serving daemon's `GET /metrics` answers with.
    ///
    /// Dotted metric names become underscore-separated (`predcache.hits` →
    /// `predcache_hits`); counters carry a `counter` TYPE line, histograms
    /// are exported as summaries with `quantile`-labelled samples plus the
    /// exact `_sum` and `_count` series.
    pub fn render_exposition(&self) -> String {
        use std::fmt::Write as _;
        fn sanitize(name: &str) -> String {
            name.chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                .collect()
        }
        let mut out = String::new();
        for c in &self.counters {
            let name = sanitize(&c.name);
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {}", c.value);
        }
        for h in &self.histograms {
            let name = sanitize(&h.name);
            let _ = writeln!(out, "# TYPE {name} summary");
            for (label, v) in [("0.5", h.p50), ("0.95", h.p95), ("0.99", h.p99)] {
                let _ = writeln!(out, "{name}{{quantile=\"{label}\"}} {v}");
            }
            let _ = writeln!(out, "{name}_sum {}", h.sum);
            let _ = writeln!(out, "{name}_count {}", h.count);
        }
        out
    }
}

/// Captures the current value of every metric in the active registry
/// (the entered [`Scope`]'s, else the global one).
pub fn snapshot() -> MetricsSnapshot {
    active_registry().snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_and_resets() {
        let c = Counter::new();
        c.incr();
        c.add(41);
        assert_eq!(c.get(), 42);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn histogram_tracks_exact_aggregates() {
        let h = Histogram::new();
        for v in [1.0, 2.0, 3.0, 4.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 10.0).abs() < 1e-12);
        assert!((h.mean() - 2.5).abs() < 1e-12);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 4.0);
    }

    #[test]
    fn histogram_quantiles_are_order_of_magnitude_right() {
        let h = Histogram::new();
        for i in 1..=100 {
            h.record(f64::from(i));
        }
        let p50 = h.quantile(0.5);
        let p95 = h.quantile(0.95);
        // Log buckets: within a factor of 2 of the true quantile.
        assert!((25.0..=128.0).contains(&p50), "p50 {p50}");
        assert!(p95 >= p50);
        assert!(p95 <= h.max());
    }

    #[test]
    fn histogram_ignores_nan_and_negative_magnitudes() {
        let h = Histogram::new();
        h.record(f64::NAN);
        h.record(-5.0);
        h.record(f64::INFINITY);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 0.0);
        assert_eq!(h.max(), 0.0);
    }

    #[test]
    fn registry_returns_same_instance_per_name() {
        let a = counter("test.registry.same");
        let b = counter("test.registry.same");
        a.incr();
        assert_eq!(b.get(), 1);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn snapshot_and_reset_roundtrip() {
        // Scoped: a reset of the process-wide registry would zero the
        // metrics of tests running alongside this one.
        let scope = Scope::new();
        let _g = scope.enter();
        counter("test.snap.counter").add(7);
        histogram("test.snap.hist").record(3.5);
        let snap = snapshot();
        assert_eq!(snap.counter("test.snap.counter"), 7);
        let h = snap.histogram("test.snap.hist").unwrap();
        assert_eq!(h.count, 1);
        assert!(snap.render().contains("test.snap.counter"));
        // Reset zeroes registered metrics but keeps handles alive.
        let held = counter("test.snap.counter");
        reset();
        assert_eq!(held.get(), 0);
        held.add(2);
        assert_eq!(snapshot().counter("test.snap.counter"), 2);
    }

    #[test]
    fn exposition_format_lists_counters_and_summaries() {
        let scope = Scope::new();
        let _g = scope.enter();
        counter("test.expo.requests").add(3);
        let h = histogram("test.expo.latency_ms");
        for v in [1.0, 2.0, 4.0] {
            h.record(v);
        }
        let text = snapshot().render_exposition();
        assert!(text.contains("# TYPE test_expo_requests counter"));
        assert!(text.contains("test_expo_requests 3"));
        assert!(text.contains("# TYPE test_expo_latency_ms summary"));
        assert!(text.contains("test_expo_latency_ms{quantile=\"0.99\"}"));
        assert!(text.contains("test_expo_latency_ms_count 3"));
        assert!(text.contains("test_expo_latency_ms_sum 7"));
    }

    #[test]
    fn snapshot_quantiles_are_ordered() {
        let h = Histogram::new();
        for i in 1..=1_000 {
            h.record(f64::from(i) / 10.0);
        }
        assert!(h.quantile(0.5) <= h.quantile(0.95));
        assert!(h.quantile(0.95) <= h.quantile(0.99));
        assert!(h.quantile(0.99) <= h.max());
    }

    #[test]
    fn scope_isolates_metrics_from_global_registry() {
        let global = counter("test.scope.shared");
        global.reset();
        let scope = Scope::new();
        {
            let _guard = scope.enter();
            counter("test.scope.shared").add(5);
            histogram("test.scope.hist").record(2.0);
            assert_eq!(snapshot().counter("test.scope.shared"), 5);
        }
        // Global registry saw nothing; the scope kept everything.
        assert_eq!(global.get(), 0);
        assert_eq!(scope.snapshot().counter("test.scope.shared"), 5);
        assert_eq!(
            scope.snapshot().histogram("test.scope.hist").unwrap().count,
            1
        );
        // Outside the guard we are back on the global registry (identity
        // check: immune to concurrent tests calling the global reset()).
        assert!(Arc::ptr_eq(&counter("test.scope.shared"), &global));
        assert_eq!(scope.snapshot().counter("test.scope.shared"), 5);
    }

    #[test]
    fn scopes_nest_and_restore() {
        let outer = Scope::new();
        let inner = Scope::new();
        let _og = outer.enter();
        counter("test.nest").incr();
        {
            let _ig = inner.enter();
            counter("test.nest").add(10);
            assert!(current_scope().unwrap().same_as(&inner));
        }
        counter("test.nest").incr();
        assert!(current_scope().unwrap().same_as(&outer));
        assert_eq!(outer.snapshot().counter("test.nest"), 2);
        assert_eq!(inner.snapshot().counter("test.nest"), 10);
    }

    #[test]
    fn scope_propagates_across_threads() {
        let scope = Scope::new();
        let _guard = scope.enter();
        let captured = current_scope().expect("scope is active");
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let _g = captured.enter();
                    counter("test.scope.cross_thread").add(100);
                });
            }
        });
        assert_eq!(scope.snapshot().counter("test.scope.cross_thread"), 400);
    }

    #[test]
    fn counters_are_cache_line_padded() {
        assert_eq!(std::mem::align_of::<Counter>(), 64);
        assert_eq!(std::mem::size_of::<Counter>(), 64);
        // Sharded lanes each own a full line, so lane i and lane i+1
        // never share one.
        let sharded = ShardedCounter::new(4);
        let a = std::ptr::from_ref(sharded.lane(0).lane) as usize;
        let b = std::ptr::from_ref(sharded.lane(1).lane) as usize;
        assert_eq!(b - a, 64);
    }

    #[test]
    fn sharded_counter_aggregates_lanes_on_read() {
        let scope = Scope::new();
        let _g = scope.enter();
        let c = sharded_counter("test.sharded.accepted", 4);
        assert_eq!(c.lanes(), 4);
        c.lane(0).incr();
        c.lane(1).add(10);
        c.lane(5).add(100); // wraps onto lane 1
        assert_eq!(c.get(), 111);
        // Scrapes see the aggregate under the plain counter name.
        assert_eq!(snapshot().counter("test.sharded.accepted"), 111);
        assert!(snapshot()
            .render_exposition()
            .contains("test_sharded_accepted 111"));
        // Same name resolves to the same instance; reset zeroes lanes.
        let again = sharded_counter("test.sharded.accepted", 9);
        assert!(Arc::ptr_eq(&c, &again));
        assert_eq!(again.lanes(), 4);
        reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn sharded_lanes_record_concurrently_without_loss() {
        let c = ShardedCounter::new(8);
        std::thread::scope(|s| {
            for i in 0..8 {
                let lane = c.lane(i);
                s.spawn(move || {
                    for _ in 0..10_000 {
                        lane.incr();
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let c = counter("test.concurrent.counter");
        let h = histogram("test.concurrent.hist");
        c.reset();
        h.reset();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1_000 {
                        c.incr();
                        h.record(1.0);
                    }
                });
            }
        });
        assert_eq!(c.get(), 8_000);
        assert_eq!(h.count(), 8_000);
        assert!((h.sum() - 8_000.0).abs() < 1e-9);
    }
}
