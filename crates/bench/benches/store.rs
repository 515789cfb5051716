//! Observation-store performance: ingest throughput through the full
//! log-append + incremental-fold pipeline, raw log append and replay
//! rates, each ingest stage on its own (fold, drift re-score, fit,
//! publish), registry reads under a concurrent publisher, a
//! 10M-observation in-memory soak, and a recovery bit-identity check.
//!
//! The store closes the paper's calibration loop online — §6's HYDRA
//! calibration, re-run continuously as observations arrive — so its costs
//! must stay far off the serving path's µs budget: ingest is bounded by
//! one 64-byte record write plus O(1) anchor-cell folds (one drift-sample
//! prediction each), and a refit is a handful of closed-form regressions
//! over the folded grid plus one re-score of the drift ring.
//!
//! Results land in `BENCH.json` under `section.store` via
//! [`perfpred_bench::timing::Recorder`], including the derived
//! `ingest_obs_per_s` / `replay_obs_per_s` rates, `refits_per_obs` /
//! `versions_published` for one pass of the ingest trace, the soak's
//! rate and resident set, and a `recovery_bit_identical` flag (replaying
//! a log must rebuild the exact serialized model the live store
//! published).

use perfpred_bench::timing::{group, Recorder};
use perfpred_core::ServerArch;
use perfpred_hydra::HistoricalModel;
use perfpred_store::{
    LogOptions, ModelRegistry, Observation, ObservationLog, ObservationStore, RefitOptions,
    RefitTrigger, Refitter,
};
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// A scratch directory under the system temp dir, cleared on entry.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "perfpred-bench-store-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A synthetic AppServF measurement sweep shaped like the paper's curves:
/// exponential MRT growth below saturation, linear above — the same shape
/// the store's integration tests use.
fn trace(scale: f64, count: u32) -> Vec<Observation> {
    let m = 1_000.0 / 7_020.0;
    let n_star = 186.0 / m;
    (0..count)
        .map(|i| {
            let frac = 0.15 + 1.45 * f64::from(i % 29) / 28.0;
            let n = (frac * n_star).round().max(1.0);
            let mrt = if frac < 1.0 {
                scale * 20.0 * (1.8 * frac).exp()
            } else {
                scale * (7.0 * n / 1.3 - 6_000.0).max(100.0)
            };
            let mut o = Observation::typical("AppServF", n as u32, mrt);
            if frac <= 0.9 {
                o.throughput_rps = m * n;
            }
            o.timestamp_us = u64::from(i) * 250_000;
            o
        })
        .collect()
}

fn opts() -> RefitOptions {
    RefitOptions {
        refit_window: 128,
        ..RefitOptions::default()
    }
}

/// Ingest through the full pipeline: validate + append + fold + (every
/// window, or on drift) refit + publish. The derived obs/s rates are the
/// acceptance numbers — ≥ 1M obs/s in memory.
fn bench_ingest(rec: &mut Recorder) {
    group("store_ingest");
    let servers = [ServerArch::app_serv_f()];
    const TOTAL: u32 = 16_384;
    const BATCH: usize = 512;
    let data = trace(1.0, TOTAL);

    let dir = scratch("ingest");
    let store = ObservationStore::open(&dir, LogOptions::default(), &servers, opts())
        .expect("open scratch store")
        .0;
    let stat = rec_bench_once(rec, "store_ingest/16384_obs_batch_512", 10, || {
        for chunk in data.chunks(BATCH) {
            store.ingest(black_box(chunk)).expect("ingest");
        }
    });
    let obs_per_s = f64::from(TOTAL) / stat;
    rec.note("ingest_obs_per_s", obs_per_s);
    rec.note("ingest_batch", BATCH);
    println!("store_ingest: {obs_per_s:.0} obs/s through append+fold+refit");
    let _ = std::fs::remove_dir_all(&dir);

    // In-memory variant isolates the fold/refit cost from the log write.
    let store = ObservationStore::in_memory(&servers, opts());
    let stat = rec_bench_once(rec, "store_ingest/16384_obs_in_memory", 10, || {
        for chunk in data.chunks(BATCH) {
            store.ingest(black_box(chunk)).expect("ingest");
        }
    });
    rec.note("ingest_in_memory_obs_per_s", f64::from(TOTAL) / stat);

    // Refit count over exactly one pass of the trace, on a fresh store.
    let store = ObservationStore::in_memory(&servers, opts());
    for chunk in data.chunks(BATCH) {
        store.ingest(chunk).expect("ingest");
    }
    let versions = store.registry().version();
    rec.note("versions_published", versions);
    rec.note("refits_per_obs", versions as f64 / f64::from(TOTAL));
    println!("store_ingest: {versions} versions published over {TOTAL} observations");
}

/// Each ingest stage on its own: a fold (which scores its drift sample
/// against the last fit), a drift-ring re-score, a fit, and a publish.
/// `store_refit/fit_established_grid` is what a trigger pays: the fit plus
/// the re-score of the full 64-entry ring every successful fit runs;
/// `fit_established_grid_ring_1` is the same fit with a one-entry ring.
/// Returns the fitted model for the registry benches.
fn bench_stages(rec: &mut Recorder) -> HistoricalModel {
    group("store_refit");
    const FOLDS: u32 = 16_384;
    let servers = ServerArch::case_study_servers();
    let established = |opts: RefitOptions| {
        let mut refitter = Refitter::new(&servers, opts);
        for obs in trace(1.0, 2_048) {
            refitter.fold(&obs);
        }
        refitter
    };
    let mut refitter = established(opts());
    rec.bench("store_refit/fit_established_grid", 50, || {
        black_box(refitter.fit()).expect("established grid fits")
    });
    let mut small_ring = established(RefitOptions {
        drift_window: 1,
        ..opts()
    });
    rec.bench("store_refit/fit_established_grid_ring_1", 50, || {
        black_box(small_ring.fit()).expect("established grid fits")
    });
    // `seed` installs a model and re-scores the ring, exactly as a fit
    // does after building one; the model clone is a few hundred bytes.
    let model = refitter.fit().expect("established grid fits");
    rec.bench("store_refit/drift_rescore_64", 50, || {
        refitter.seed(black_box(model.clone()))
    });

    // Folds only (triggers ignored, nothing refitted), against a fit.
    let data = trace(1.0, FOLDS);
    let stat = rec_bench_once(rec, "store_refit/fold_16384", 10, || {
        let mut triggers = 0u32;
        for obs in &data {
            triggers += u32::from(refitter.fold(black_box(obs)).is_some());
        }
        triggers
    });
    rec.note("fold_us", stat / f64::from(FOLDS) * 1e6);

    let registry = ModelRegistry::new();
    let mut n = 0u64;
    rec.bench("store_refit/publish", 1_000, || {
        n += 1;
        registry.publish(black_box(model.clone()), n, RefitTrigger::Window)
    });
    model
}

/// Registry reads: `current()` clones the serving `Arc` under a read lock.
/// Timed alone and while another thread publishes as fast as it can.
fn bench_registry_reads(rec: &mut Recorder, model: &HistoricalModel) {
    group("store_registry");
    const READS: u32 = 100_000;
    let registry = ModelRegistry::new();
    registry.publish(model.clone(), 0, RefitTrigger::Seed);
    let read = || {
        for _ in 0..READS {
            black_box(registry.current());
        }
    };
    let alone = rec_bench_once(rec, "store_registry/current_100000", 10, read);
    let stop = AtomicBool::new(false);
    let (contended, published) = std::thread::scope(|s| {
        let publisher = s.spawn(|| {
            let mut n = 0u64;
            while !stop.load(Ordering::Relaxed) {
                n += 1;
                registry.publish(model.clone(), n, RefitTrigger::Window);
            }
            n
        });
        let stat = rec_bench_once(
            rec,
            "store_registry/current_100000_concurrent_publisher",
            10,
            read,
        );
        stop.store(true, Ordering::Relaxed);
        (stat, publisher.join().expect("publisher thread"))
    });
    rec.note("current_ns", alone / f64::from(READS) * 1e9);
    rec.note(
        "current_ns_concurrent_publisher",
        contended / f64::from(READS) * 1e9,
    );
    rec.note("concurrent_publishes", published);
    rec.note("retained_versions", registry.versions().len() as u64);
}

/// The process's resident set in KiB, from `/proc/self/status` (0 where
/// that file does not exist).
fn vm_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}

/// 10M observations through one in-memory store: the rate, and the
/// resident set before and after. The registry is bounded and the
/// refitter's state is fixed-size, so RSS must stay flat.
fn soak(rec: &mut Recorder) {
    group("store_soak");
    const TOTAL: u64 = 10_000_000;
    const BATCH: usize = 512;
    let servers = [ServerArch::app_serv_f()];
    let data = trace(1.0, 16_384);
    let store = ObservationStore::in_memory(&servers, opts());
    let rss_start = vm_rss_kb();
    let started = Instant::now();
    let mut sent = 0u64;
    for chunk in data.chunks(BATCH).cycle() {
        if sent >= TOTAL {
            break;
        }
        store.ingest(black_box(chunk)).expect("ingest");
        sent += chunk.len() as u64;
    }
    let secs = started.elapsed().as_secs_f64();
    let rss_end = vm_rss_kb();
    let versions = store.registry().version();
    println!(
        "store_soak: {sent} obs in {secs:.2} s ({:.0} obs/s), {versions} versions, \
         VmRSS {rss_start} -> {rss_end} KiB",
        sent as f64 / secs
    );
    rec.note("soak_observations", sent);
    rec.note("soak_obs_per_s", sent as f64 / secs);
    rec.note("soak_versions_published", versions);
    rec.note("soak_rss_start_kb", rss_start);
    rec.note("soak_rss_end_kb", rss_end);
    assert!(
        rss_end <= rss_start + 5 * 1024,
        "RSS grew from {rss_start} to {rss_end} KiB over the soak"
    );
}

/// Raw segmented-log append (no folding), and replay of the result.
fn bench_log(rec: &mut Recorder) {
    group("store_log");
    const TOTAL: u32 = 16_384;
    let data = trace(1.0, TOTAL);

    let dir = scratch("log");
    let (mut log, _) =
        ObservationLog::open(&dir, LogOptions::default(), |_| {}).expect("open scratch log");
    let stat = rec_bench_once(rec, "store_log/append_16384", 10, || {
        log.append_batch(black_box(&data)).expect("append");
    });
    rec.note("log_append_obs_per_s", f64::from(TOTAL) / stat);
    log.sync().expect("sync");
    let records = log.len();
    drop(log);

    // Replay rate: scan + CRC-check + decode every surviving record.
    let stat = rec_bench_once(rec, "store_log/replay", 10, || {
        let mut n = 0u64;
        let (_, report) =
            ObservationLog::open(&dir, LogOptions::default(), |_| n += 1).expect("replay");
        assert_eq!(n, report.records);
        black_box(report.records)
    });
    rec.note("replay_obs_per_s", records as f64 / stat);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Recovery bit-identity: replaying the log must rebuild byte-for-byte
/// the serialized model the live store last published.
fn check_recovery(rec: &mut Recorder) {
    group("store_recovery");
    let servers = [ServerArch::app_serv_f()];
    let dir = scratch("recovery");
    let live = ObservationStore::open(&dir, LogOptions::default(), &servers, opts())
        .expect("open live store")
        .0;
    for chunk in trace(1.0, 1_024).chunks(100) {
        live.ingest(chunk).expect("ingest");
    }
    live.sync().expect("sync");
    let live_version = live.registry().version();
    let live_model = live.current_model_serialized().expect("live model");
    drop(live);

    let (recovered, report) = ObservationStore::open(&dir, LogOptions::default(), &servers, opts())
        .expect("reopen store");
    let identical = recovered.registry().version() == live_version
        && recovered.current_model_serialized().as_deref() == Some(live_model.as_str());
    println!(
        "store_recovery: {} records -> version {} (bit-identical: {identical})",
        report.records, live_version,
    );
    rec.note("recovery_records", report.records);
    rec.note("recovery_version", live_version);
    rec.note("recovery_bit_identical", identical);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(identical, "replayed model differs from the live fit");
}

/// Runs [`Recorder::bench`] and returns the mean sample seconds so the
/// caller can derive a rate note.
fn rec_bench_once<R>(rec: &mut Recorder, name: &str, samples: u32, f: impl FnMut() -> R) -> f64 {
    let stat = perfpred_bench::timing::bench(name, samples, f);
    let mean = stat.mean_s;
    rec.record(stat);
    mean
}

fn main() {
    let mut rec = Recorder::new("store");
    bench_ingest(&mut rec);
    bench_log(&mut rec);
    let model = bench_stages(&mut rec);
    bench_registry_reads(&mut rec, &model);
    soak(&mut rec);
    check_recovery(&mut rec);
    rec.write();
}
