//! Answer checks: the daemons' answers against the same public predictors
//! called in this process.
//!
//! * Sampled `/predict` answers must carry predictions bit-identical to
//!   `ModelHost::predict_inline` for the method that served them.
//! * On `observe-mix` every write must be acked, the daemon's
//!   `GET /models` must count every observation sent, and its model
//!   version and historical answers must match an in-process observation
//!   store fed the same batches in send order.
//! * Behind the router, each answer must be byte-identical to a serve
//!   node's answer to the same body.

use crate::gen::one_line;
use crate::stream::{self, Workload};
use perfpred_core::{Json, Prediction, ServerArch};
use perfpred_serve::{Method, ModelHost, ServeConfig};
use perfpred_store::{Observation, ObservationStore, RefitOptions};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Accumulates what the generator saw and checks it on demand.
pub struct Checker {
    workload: Workload,
    host: ModelHost,
    /// Fed every acked batch; serves the expected historical answers.
    store: ObservationStore,
    shadow_host: ModelHost,
    /// Observations sent in write batches, over every phase so far.
    sent: u64,
    /// Write batches that were not acked, over every phase so far.
    failed_writes: u64,
    samples: Vec<(String, Vec<u8>)>,
    checked: u64,
}

impl Checker {
    /// A checker for `workload` with the daemon's default model set-up.
    pub fn new(workload: Workload) -> Checker {
        let cache = ServeConfig::default().cache;
        let servers = ServerArch::case_study_servers();
        let store = ObservationStore::in_memory(&servers, RefitOptions::default());
        let shadow_host = ModelHost::paper_with_registry(&cache, store.registry());
        Checker {
            workload,
            host: ModelHost::paper(&cache),
            store,
            shadow_host,
            sent: 0,
            failed_writes: 0,
            samples: Vec::new(),
            checked: 0,
        }
    }

    /// Takes one phase's acked batches (in send order), sampled answers,
    /// observations sent and write batches not acked.
    pub fn absorb(
        &mut self,
        acked: Vec<Vec<Observation>>,
        samples: Vec<(String, Vec<u8>)>,
        sent: u64,
        failed_writes: u64,
    ) {
        self.sent += sent;
        self.failed_writes += failed_writes;
        for batch in acked {
            // After a lost write the in-process store no longer follows the
            // daemon's; `check_store` fails the run then anyway.
            if self.failed_writes == 0 {
                self.store
                    .ingest(&batch)
                    .expect("generated observations are valid");
                self.shadow_host.note_model_version();
            }
        }
        self.samples.extend(samples);
    }

    /// Runs every check that applies and reports `{"ok", "checked", "errors"}`.
    pub fn verify(&mut self, addr: &str, nodes: &[String]) -> Json {
        let mut errors = Vec::new();
        for (body, answer) in std::mem::take(&mut self.samples) {
            self.checked += 1;
            if let Err(e) = self.check_answer(&body, &answer) {
                errors.push(format!("{body}: {e}"));
            }
        }
        if self.workload == Workload::ObserveMix {
            if let Err(e) = self.check_store(addr) {
                errors.push(e);
            }
        }
        if !nodes.is_empty() {
            if let Err(e) = self.check_routed(addr, nodes) {
                errors.push(e);
            }
        }
        let mut j = Json::obj();
        j.set("ok", errors.is_empty());
        j.set("checked", self.checked);
        j.set("errors", errors.len() as u64);
        j.set(
            "first_errors",
            Json::Arr(
                errors
                    .iter()
                    .take(5)
                    .map(|e| Json::from(e.as_str()))
                    .collect(),
            ),
        );
        j
    }

    /// One sampled answer against the in-process predictor that served it.
    fn check_answer(&self, body: &str, answer: &[u8]) -> Result<(), String> {
        let (method, server, load) = stream::read_key(body)?;
        let doc = Json::parse(std::str::from_utf8(answer).map_err(|e| e.to_string())?)?;
        let field = |k: &str| doc.get(k).and_then(Json::as_str).unwrap_or("");
        if field("method") != method || field("server") != server {
            return Err(format!(
                "answer is for {} on {}",
                field("method"),
                field("server")
            ));
        }
        let served_by = match field("served_by") {
            "lqns-cache" => Method::Lqns,
            other => Method::parse(other)?,
        };
        // A historical answer depends on the model version current when it
        // was served; those are checked once writes have stopped.
        if served_by == Method::Historical {
            return Ok(());
        }
        let arch = self.host.server(&server).ok_or("unknown server")?;
        let expected = self
            .host
            .predict_inline(served_by, arch, &load)
            .ok_or("method not hosted in-process")?
            .map_err(|e| format!("in-process predict failed: {e}"))?;
        same_prediction(&doc, &expected)
    }

    /// Every write was acked, `GET /models` counts every observation sent,
    /// and the model version and historical answers match the in-process
    /// store fed the same batches.
    fn check_store(&self, addr: &str) -> Result<(), String> {
        if self.failed_writes > 0 {
            return Err(format!(
                "{} write batches were not acked",
                self.failed_writes
            ));
        }
        let (status, models) = roundtrip(addr, "GET", "/models", "")?;
        let models = parse_ok(status, &models)?;
        let count = models
            .get("observations")
            .and_then(Json::as_f64)
            .unwrap_or(-1.0);
        if count != self.sent as f64 {
            return Err(format!(
                "/models counts {count} observations, {} were sent",
                self.sent
            ));
        }
        let version = models.get("current").and_then(Json::as_f64).unwrap_or(-1.0);
        if version != self.store.registry().version() as f64 {
            return Err(format!(
                "/models is at version {version}, the in-process store at {}",
                self.store.registry().version()
            ));
        }
        for body in self
            .workload
            .all_read_bodies()
            .expect("observe-mix has a fixed key set")
        {
            let (status, answer) = roundtrip(addr, "POST", "/predict", &body)?;
            let doc = parse_ok(status, &answer)?;
            let (_, server, load) = stream::read_key(&body)?;
            let arch = self.shadow_host.server(&server).ok_or("unknown server")?;
            let expected = self
                .shadow_host
                .predict_inline(Method::Historical, arch, &load)
                .ok_or("no historical model in-process")?
                .map_err(|e| format!("in-process predict failed: {e}"))?;
            same_prediction(&doc, &expected).map_err(|e| format!("historical {body}: {e}"))?;
        }
        Ok(())
    }

    /// Routed answers are byte-identical to each node's own answer, once
    /// every node has the key cached (the `cached` flag is per node).
    fn check_routed(&self, router: &str, nodes: &[String]) -> Result<(), String> {
        let bodies = self.workload.all_read_bodies().unwrap_or_default();
        for body in bodies {
            let mut direct = Vec::new();
            for node in nodes {
                roundtrip(node, "POST", "/predict", &body)?;
                direct.push(roundtrip(node, "POST", "/predict", &body)?);
            }
            let routed = roundtrip(router, "POST", "/predict", &body)?;
            if direct.iter().any(|d| *d != routed) {
                return Err(format!(
                    "routed answer to {body} differs from a direct one: {}",
                    String::from_utf8_lossy(&routed.1)
                ));
            }
        }
        Ok(())
    }
}

/// The answer's `prediction` has exactly the expected bits.
fn same_prediction(doc: &Json, expected: &Prediction) -> Result<(), String> {
    let p = doc.get("prediction").ok_or("answer has no prediction")?;
    let num = |k: &str| p.get(k).and_then(Json::as_f64);
    let same = |got: Option<f64>, want: f64| match got {
        Some(g) => g.to_bits() == want.to_bits(),
        None => !want.is_finite(),
    };
    let classes: Vec<Option<f64>> = p
        .get("per_class_mrt_ms")
        .and_then(Json::as_arr)
        .map(|a| a.iter().map(Json::as_f64).collect())
        .unwrap_or_default();
    let ok = same(num("mrt_ms"), expected.mrt_ms)
        && same(num("throughput_rps"), expected.throughput_rps)
        && classes.len() == expected.per_class_mrt_ms.len()
        && classes
            .iter()
            .zip(&expected.per_class_mrt_ms)
            .all(|(g, w)| same(*g, *w))
        && match expected.utilization {
            Some(u) => same(num("utilization"), u),
            None => matches!(p.get("utilization"), Some(Json::Null)),
        }
        && p.get("saturated").and_then(Json::as_bool) == Some(expected.saturated);
    if ok {
        Ok(())
    } else {
        Err(format!(
            "prediction {} differs from in-process {expected:?}",
            one_line(p)
        ))
    }
}

fn parse_ok(status: u16, body: &[u8]) -> Result<Json, String> {
    let text = String::from_utf8_lossy(body);
    if status != 200 {
        return Err(format!("status {status}: {text}"));
    }
    Json::parse(&text)
}

/// One request on a fresh connection: `(status, body)`.
fn roundtrip(addr: &str, method: &str, path: &str, body: &str) -> Result<(u16, Vec<u8>), String> {
    let run = || -> io::Result<(u16, Vec<u8>)> {
        let mut s = TcpStream::connect(addr)?;
        s.set_read_timeout(Some(Duration::from_secs(10)))?;
        write!(
            s,
            "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )?;
        let mut raw = Vec::new();
        s.read_to_end(&mut raw)?;
        let text = String::from_utf8_lossy(&raw);
        let status = text
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::other("bad status line"))?;
        let start = text
            .find("\r\n\r\n")
            .ok_or_else(|| io::Error::other("no end of head"))?
            + 4;
        Ok((status, raw[start..].to_vec()))
    };
    run().map_err(|e| format!("{method} {path} on {addr}: {e}"))
}
