//! The traced replay: a workload's seeded stream run in this process
//! through the public functions of each layer, with a span around every
//! call.
//!
//! Per request the replay does what a serve node does, one layer at a
//! time: `conn::parse_head` on the wire bytes; `Json::parse` of the body;
//! `PredictionCache::peek` (and a cold lqns solve plus `insert` on a miss,
//! as the solver pool would); for writes `ObservationStore::ingest`, with
//! `Refitter::fold`/`fit` and `ModelRegistry::publish` timed on a
//! standalone refitter and registry fed the same observations; then
//! `App::handle` and `Response::write_into`. `routed-hot` adds the
//! router's own body parse and `Ring::route`.
//!
//! `App::handle` calls the decode, peek and ingest layers itself, so those
//! spans are recorded as its children although they run just before it on
//! the same input: a span's self time is its duration minus its
//! children's durations, and `serve.handle`'s self time is the handler's
//! own work. Spans (request id, span id, parent, name, start, end) stay in
//! memory and are written out when the replay ends.

use crate::gen::one_line;
use crate::stream::{self, Kind, Req, Workload};
use perfpred_cluster::{Ring, RouterConfig};
use perfpred_core::{Json, PerformanceModel, ServerArch};
use perfpred_resman::RuntimeOptions;
use perfpred_serve::admission::AdmissionController;
use perfpred_serve::batch::JobQueue;
use perfpred_serve::conn::{parse_head, HeadOutcome};
use perfpred_serve::http::Request;
use perfpred_serve::router::App;
use perfpred_serve::{ModelHost, ServeConfig, Shutdown};
use perfpred_store::{LogOptions, ModelRegistry, ObservationStore, RefitOptions, Refitter};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Command-line settings of `perfbench trace`.
pub struct TraceArgs {
    /// Which stream to replay.
    pub workload: Workload,
    /// Stream seed.
    pub seed: u64,
    /// Offered rate of the live reference phases whose streams are replayed.
    pub rate: f64,
    /// Length of each of those phases.
    pub secs: f64,
    /// Their names, in the order they ran.
    pub phases: Vec<String>,
    /// Phases the live run sent before it, as `(name, rate, secs)`; their
    /// writes are replayed untraced first so the store starts from the
    /// same state.
    pub pre: Vec<(String, f64, f64)>,
    /// Wall-clock budget for the whole replay.
    pub budget: Duration,
    /// Where the spans go.
    pub spans: PathBuf,
    /// Temporary directory for the replay's observation logs.
    pub tmp: PathBuf,
}

const NO_PARENT: u32 = u32::MAX;

struct Span {
    req: u32,
    parent: u32,
    name: &'static str,
    start: u64,
    end: u64,
}

/// Span recorder; with `on == false` it only runs the closures, which is
/// the untraced baseline for the overhead figure.
struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// Reserves a span slot so children can name it before it runs.
    fn reserve(&mut self, req: u32, parent: u32, name: &'static str) -> u32 {
        if !self.on {
            return NO_PARENT;
        }
        self.spans.push(Span {
            req,
            parent,
            name,
            start: 0,
            end: 0,
        });
        (self.spans.len() - 1) as u32
    }

    /// Times `f` into the reserved slot `id`.
    fn fill<R>(&mut self, id: u32, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start = self.t0.elapsed().as_nanos() as u64;
        let out = f();
        let end = self.t0.elapsed().as_nanos() as u64;
        let s = &mut self.spans[id as usize];
        s.start = start;
        s.end = end;
        out
    }

    /// Records a span around `f`.
    fn span<R>(&mut self, req: u32, parent: u32, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.reserve(req, parent, name);
        self.fill(id, f)
    }
}

/// Everything one replay pass mutates, built fresh per pass.
struct World {
    app: App,
    ingest_store: ObservationStore,
    refitter: Refitter,
    registry: ModelRegistry,
    ring: Ring,
    out: Vec<u8>,
    req: Request,
    observations: u64,
    solves: u64,
}

impl World {
    fn new(dir: &Path) -> Result<World, String> {
        let servers = ServerArch::case_study_servers();
        let open = |name: &str| {
            let dir = dir.join(name);
            ObservationStore::open(
                &dir,
                LogOptions::default(),
                &servers,
                RefitOptions::default(),
            )
            .map(|(store, _)| store)
            .map_err(|e| format!("cannot open store in {}: {e}", dir.display()))
        };
        let store = Arc::new(open("app")?);
        let host = ModelHost::build(
            ServeConfig::default().models,
            ServeConfig::default().seed,
            &ServeConfig::default().cache,
            &store,
        );
        let admission = AdmissionController::new(RuntimeOptions::default())
            .map_err(|e| format!("admission defaults rejected: {e}"))?;
        let app = App::with_store(host, admission, JobQueue::new(1024), Shutdown::new(), store);
        Ok(World {
            app,
            ingest_store: open("ingest")?,
            refitter: Refitter::new(&servers, RefitOptions::default()),
            registry: ModelRegistry::new(),
            ring: {
                let cfg = RouterConfig::default();
                Ring::new(
                    &["node-a".into(), "node-b".into()],
                    cfg.vnodes,
                    cfg.load_factor,
                )
            },
            out: Vec::with_capacity(4096),
            req: Request {
                method: String::new(),
                path: String::new(),
                body: Vec::new(),
                keep_alive: true,
            },
            observations: 0,
            solves: 0,
        })
    }

    /// One request through every layer.
    fn replay(&mut self, tr: &mut Tracer, id: u32, r: &Req, routed: bool) -> Result<(), String> {
        let root = tr.reserve(id, NO_PARENT, "request");
        let start = Instant::now();
        if routed {
            let ring = &self.ring;
            tr.span(id, root, "router.route", || {
                let key = Json::parse(&r.body)
                    .ok()
                    .and_then(|j| j.get("server").and_then(Json::as_str).map(str::to_string))
                    .unwrap_or_default();
                ring.route(&key, &[true, true], &[0, 0])
            });
        }
        let req = &mut self.req;
        let parsed = tr.span(id, root, "serve.parse", || match parse_head(&r.wire, req) {
            HeadOutcome::Complete(info) => {
                req.body.clear();
                req.body
                    .extend_from_slice(&r.wire[info.head_len..info.total_len()]);
                true
            }
            _ => false,
        });
        if !parsed {
            return Err(format!("replayed request did not parse: {}", r.body));
        }
        let handle = tr.reserve(id, root, "serve.handle");
        tr.span(id, handle, "json.decode", || Json::parse(&r.body))?;
        match r.kind {
            Kind::Read => {
                let (method, server, load) = stream::read_key(&r.body)?;
                let host = &self.app.host;
                let arch = host.server(&server).ok_or("unknown server")?;
                let hit = tr.span(id, handle, "cache.peek", || match method.as_str() {
                    "lqns" => host.lqns.peek(arch, &load).is_some(),
                    "hybrid" => host
                        .hybrid
                        .as_ref()
                        .is_some_and(|c| c.peek(arch, &load).is_some()),
                    _ => host.historical.peek(arch, &load).is_some(),
                });
                if method == "lqns" && !hit {
                    // The solver pool's job: a cold solve, memoized.
                    tr.span(id, root, "lqns.solve", || {
                        let result = host.lqns.inner().predict(arch, &load);
                        host.lqns.insert(arch, &load, result);
                    });
                    self.solves += 1;
                }
            }
            Kind::Write => {
                let ingest = tr.reserve(id, handle, "store.ingest");
                for obs in &r.batch {
                    let refitter = &mut self.refitter;
                    if let Some(trigger) = tr.span(id, ingest, "store.fold", || refitter.fold(obs))
                    {
                        if let Some(model) = tr.span(id, ingest, "store.fit", || refitter.fit()) {
                            let (registry, folded) = (&self.registry, refitter.folded());
                            tr.span(id, ingest, "store.publish", || {
                                registry.publish(model, folded, trigger)
                            });
                        }
                    }
                }
                let store = &self.ingest_store;
                tr.fill(ingest, || store.ingest(&r.batch))
                    .map_err(|e| format!("replayed ingest failed: {e}"))?;
                self.observations += r.batch.len() as u64;
            }
        }
        let (app, req) = (&self.app, &self.req);
        let response = tr.fill(handle, || app.handle(req));
        if response.status != 200 {
            return Err(format!(
                "replayed request answered {}: {}",
                response.status,
                String::from_utf8_lossy(&response.body)
            ));
        }
        let out = &mut self.out;
        out.clear();
        tr.span(id, root, "serve.encode", || response.write_into(out, true));
        if tr.on {
            let s = &mut tr.spans[root as usize];
            s.start = start.duration_since(tr.t0).as_nanos() as u64;
            s.end = tr.t0.elapsed().as_nanos() as u64;
        }
        Ok(())
    }
}

/// One live phase's requests in send order.
fn requests(a: &TraceArgs, phase: &str, rate: f64, secs: f64) -> Vec<Req> {
    let [c0, c1] = stream::schedule(a.workload, a.seed, phase, rate, secs);
    let mut all: Vec<Req> = c0.into_iter().chain(c1).collect();
    all.sort_by_key(|r| r.at_ns);
    all
}

/// One pass over at most `limit` requests, stopping at `deadline`.
fn pass(
    a: &TraceArgs,
    pre: &[Req],
    reqs: &[Req],
    limit: usize,
    traced: bool,
    n: usize,
    deadline: Instant,
) -> Result<(usize, Duration, Tracer, Counts), String> {
    let dir = a.tmp.join(format!("pass-{n}"));
    let mut world = World::new(&dir)?;
    let routed = a.workload == Workload::RoutedHot;
    let mut untraced = Tracer {
        on: false,
        t0: Instant::now(),
        spans: Vec::new(),
    };
    for r in pre {
        world.replay(&mut untraced, 0, r, routed)?;
    }
    world.observations = 0;
    world.solves = 0;
    let mut tr = Tracer {
        on: traced,
        t0: Instant::now(),
        spans: Vec::with_capacity(if traced {
            limit.min(reqs.len()) * 12
        } else {
            0
        }),
    };
    let started = Instant::now();
    let mut done = 0;
    for (i, r) in reqs.iter().take(limit).enumerate() {
        if i % 64 == 0 && Instant::now() >= deadline {
            break;
        }
        world.replay(&mut tr, i as u32, r, routed)?;
        done += 1;
    }
    let took = started.elapsed();
    let counts = Counts {
        observations: world.observations,
        solves: world.solves,
    };
    drop(world);
    let _ = std::fs::remove_dir_all(&dir);
    Ok((done, took, tr, counts))
}

/// What a pass did besides its spans.
struct Counts {
    observations: u64,
    solves: u64,
}

/// Runs the replay, writes the spans, and prints the per-layer figures.
pub fn run(a: TraceArgs) -> Result<(), String> {
    std::fs::create_dir_all(&a.tmp).map_err(|e| format!("{}: {e}", a.tmp.display()))?;
    let pre: Vec<Req> = a
        .pre
        .iter()
        .flat_map(|(name, rate, secs)| requests(&a, name, *rate, *secs))
        .filter(|r| r.kind == Kind::Write)
        .collect();
    let reqs: Vec<Req> = a
        .phases
        .iter()
        .flat_map(|name| requests(&a, name, a.rate, a.secs))
        .collect();
    let begin = Instant::now();
    // Pass 0 sizes the replay to a sixth of the budget; then untraced and
    // traced passes over the same requests alternate until the budget is
    // spent (at least two of each), and the fastest of each kind is kept.
    let (limit, _, _, _) = pass(&a, &pre, &reqs, reqs.len(), true, 0, begin + a.budget / 6)?;
    let far = begin + a.budget * 4;
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut last = None;
    let mut n = 1;
    while traced.len() < 2 || (begin.elapsed() < a.budget && traced.len() < 16) {
        let on = n % 2 == 0;
        let (done, took, tr, counts) = pass(&a, &pre, &reqs, limit, on, n, far)?;
        if done != limit {
            return Err("replay pass stopped early".into());
        }
        if on {
            traced.push(took);
            last = Some((tr, counts));
        } else {
            plain.push(took);
        }
        n += 1;
    }
    let _ = std::fs::remove_dir_all(&a.tmp);
    let (tr, counts) = last.expect("every even pass is traced");
    let best = |v: &[Duration]| v.iter().min().copied().unwrap_or_default().as_secs_f64();
    let overhead_pct = (best(&traced) / best(&plain) - 1.0) * 100.0;
    write_spans(&a.spans, &tr)?;
    println!("{}", one_line(&report(&tr, &counts, limit, overhead_pct)));
    Ok(())
}

fn write_spans(path: &Path, tr: &Tracer) -> Result<(), String> {
    let err = |e: std::io::Error| format!("{}: {e}", path.display());
    let mut f = std::io::BufWriter::new(std::fs::File::create(path).map_err(err)?);
    writeln!(f, "req\tspan\tparent\tname\tstart_ns\tend_ns").map_err(err)?;
    for (i, s) in tr.spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            "-".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            f,
            "{}\t{i}\t{parent}\t{}\t{}\t{}",
            s.req, s.name, s.start, s.end
        )
        .map_err(err)?;
    }
    f.flush().map_err(err)
}

/// Self times by layer: totals, call counts, and the per-request sum.
fn report(tr: &Tracer, world: &Counts, requests: usize, overhead_pct: f64) -> Json {
    let mut child_ns = vec![0u64; tr.spans.len()];
    for s in &tr.spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.end - s.start;
        }
    }
    // name -> (calls, total ns, self ns)
    let mut by: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for (i, s) in tr.spans.iter().enumerate() {
        let e = by.entry(s.name).or_default();
        let total = s.end - s.start;
        e.0 += 1;
        e.1 += total;
        e.2 += total.saturating_sub(child_ns[i]);
    }
    let n = requests.max(1) as f64;
    let get = |name: &str| by.get(name).copied().unwrap_or_default();
    let per_req = |name: &str| get(name).2 as f64 / 1e3 / n;
    let per_call = |name: &str| {
        let (calls, _, self_ns) = get(name);
        if calls == 0 {
            0.0
        } else {
            self_ns as f64 / 1e3 / calls as f64
        }
    };
    let self_sum_us: f64 = by
        .iter()
        .filter(|(name, _)| **name != "request")
        .map(|(_, v)| v.2 as f64 / 1e3)
        .sum::<f64>()
        / n;
    let mut j = Json::obj();
    j.set("requests", requests as u64);
    j.set("spans", tr.spans.len() as u64);
    j.set("serve.parse_us", per_req("serve.parse"));
    j.set("serve.handle_us", per_req("serve.handle"));
    j.set("serve.encode_us", per_req("serve.encode"));
    j.set("json.decode_us", per_req("json.decode"));
    j.set("cache.peek_us", per_call("cache.peek"));
    j.set("router.route_us", per_req("router.route"));
    j.set("lqns.solve_us", per_call("lqns.solve"));
    j.set("lqns.solves", world.solves);
    let ingest_total = get("store.ingest").1 as f64 / 1e3;
    j.set(
        "store.ingest_us_per_obs",
        if world.observations == 0 {
            0.0
        } else {
            ingest_total / world.observations as f64
        },
    );
    j.set("store.fold_us", per_call("store.fold"));
    j.set("store.fit_us", per_call("store.fit"));
    j.set("store.publish_us", per_call("store.publish"));
    j.set("self_sum_us_per_req", self_sum_us);
    j.set("overhead_pct", overhead_pct);
    j
}
