//! The router front tier: one `perfpred-router` in front of N serve
//! nodes.
//!
//! Requests are routed on the consistent-hash [`Ring`] keyed by the
//! *server-config name* in the request body (`"server": "AppServF"`),
//! so each serve node keeps a warm prediction cache for the configs it
//! owns; bounded-load spill keeps a hot config from melting one node.
//! `POST /observe` ignores the ring and always goes to the current
//! primary (the only writable node — see [`crate::repl`]); everything
//! else fans out across admitted replicas.
//!
//! Health: a prober thread GETs `/healthz` on every upstream each
//! interval. The response carries `model_version` and `cluster_role`
//! (one request answers liveness, staleness and who-is-primary at
//! once). Three consecutive failures eject an upstream; readmission
//! requires the jittered exponential backoff to expire *and* a probe to
//! succeed. An upstream whose model version trails the fleet maximum by
//! more than `max_version_lag` is treated as unhealthy — it would serve
//! predictions from a stale model.
//!
//! Connections are pooled keep-alive on both sides: the client loop
//! serves many requests per accepted connection, and each upstream keeps
//! a small stack of idle connections that forwarding checks out and
//! returns. Each client connection holds one thread, so at most
//! [`MAX_CLIENT_CONNS`] are served at once; the accept loop answers the
//! next one 503 and closes it.

use crate::ring::Ring;
use perfpred_core::http::{self, ReadOutcome, Request, Response};
use perfpred_core::{metrics, Json};
use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Router tuning.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Listen host.
    pub host: String,
    /// Listen port (0 = ephemeral).
    pub port: u16,
    /// Upstream serve nodes, as `host:port` strings.
    pub upstreams: Vec<String>,
    /// Virtual nodes per upstream on the hash ring.
    pub vnodes: usize,
    /// Bounded-load factor `c` (≤ 1.0 disables spill).
    pub load_factor: f64,
    /// Health probe cadence.
    pub probe_interval: Duration,
    /// Consecutive probe failures before eject.
    pub eject_after: u32,
    /// Model versions an upstream may trail the fleet max before it is
    /// considered stale (and ejected from reads).
    pub max_version_lag: u64,
    /// Per-request upstream I/O timeout.
    pub io_timeout: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            host: "127.0.0.1".into(),
            port: 0,
            upstreams: Vec::new(),
            vnodes: 64,
            load_factor: 1.25,
            probe_interval: Duration::from_millis(200),
            eject_after: 3,
            max_version_lag: 8,
            io_timeout: Duration::from_secs(5),
        }
    }
}

/// Mutable health view of one upstream.
#[derive(Debug)]
struct Health {
    admitted: bool,
    consecutive_failures: u32,
    /// While `Some`, the upstream is ejected until this instant.
    ejected_until: Option<Instant>,
    backoff_exp: u32,
    is_primary: bool,
    probes_failed: u64,
}

/// One upstream serve node: address, health, load and connection pool.
#[derive(Debug)]
struct Upstream {
    addr: String,
    health: Mutex<Health>,
    model_version: AtomicU64,
    in_flight: AtomicUsize,
    pool: Mutex<VecDeque<TcpStream>>,
}

const POOL_IDLE_MAX: usize = 8;
/// Most client connections (and so connection threads) served at once.
/// An idle keep-alive client holds its thread for the 30 s read timeout,
/// and a trickling one indefinitely, so without a cap client count alone
/// would grow the router's thread count without bound.
pub const MAX_CLIENT_CONNS: usize = 1024;
const BACKOFF_BASE: Duration = Duration::from_millis(500);
const BACKOFF_CAP: Duration = Duration::from_secs(15);

impl Upstream {
    fn new(addr: &str) -> Upstream {
        Upstream {
            addr: addr.to_string(),
            health: Mutex::new(Health {
                admitted: true,
                consecutive_failures: 0,
                ejected_until: None,
                backoff_exp: 0,
                is_primary: false,
                probes_failed: 0,
            }),
            model_version: AtomicU64::new(0),
            in_flight: AtomicUsize::new(0),
            pool: Mutex::new(VecDeque::new()),
        }
    }

    fn checkout(&self, timeout: Duration) -> io::Result<TcpStream> {
        if let Some(conn) = self.pool.lock().unwrap().pop_front() {
            return Ok(conn);
        }
        let addr =
            self.addr.to_socket_addrs()?.next().ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidInput, "unresolvable upstream")
            })?;
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(stream)
    }

    fn checkin(&self, conn: TcpStream) {
        let mut pool = self.pool.lock().unwrap();
        if pool.len() < POOL_IDLE_MAX {
            pool.push_back(conn);
        }
    }

    /// Transport-level failure seen by forwarding: counts toward eject.
    fn note_failure(&self, eject_after: u32) {
        let mut h = self.health.lock().unwrap();
        h.consecutive_failures += 1;
        if h.admitted && h.consecutive_failures >= eject_after {
            h.admitted = false;
            let exp = h.backoff_exp.min(5);
            let base = BACKOFF_BASE.as_millis() as u64 * (1u64 << exp);
            // Deterministic jitter (±25%) from the address hash and the
            // eject count, so restarted upstreams don't thunder back in
            // lock-step.
            let salt = crate::ring::fnv1a64(self.addr.as_bytes()) ^ u64::from(h.backoff_exp);
            let jitter = (base / 4).max(1);
            let backoff =
                Duration::from_millis(base - jitter / 2 + (salt % jitter)).min(BACKOFF_CAP);
            h.ejected_until = Some(Instant::now() + backoff);
            h.backoff_exp += 1;
            metrics::counter("router.ejects").incr();
        }
    }

    fn note_success(&self) {
        let mut h = self.health.lock().unwrap();
        h.consecutive_failures = 0;
        if !h.admitted {
            h.admitted = true;
            h.ejected_until = None;
            h.backoff_exp = 0;
            metrics::counter("router.readmits").incr();
        }
    }
}

/// One immutable routing generation: the ring plus the upstream set it
/// was built from. `POST /admin/upstreams` builds a fresh `Topology` and
/// swaps the shared `Arc` — every in-flight request keeps routing (and
/// retrying) against the snapshot it captured at arrival, so a swap can
/// neither double-send a request across generations nor strand it
/// against a half-updated ring.
#[derive(Debug)]
struct Topology {
    ring: Ring,
    upstreams: Vec<Arc<Upstream>>,
}

impl Topology {
    /// Indices admitted for reads, honoring ejection windows + staleness.
    /// The staleness baseline is the max version among *health-admitted*
    /// upstreams: a dead node's last probed version is frozen in time and
    /// must not hold the survivors to a bar none of them can reach until
    /// the new primary has refitted past the ghost.
    fn admitted(&self, max_version_lag: u64) -> Vec<bool> {
        let views: Vec<(bool, u64)> = self
            .upstreams
            .iter()
            .map(|u| {
                let h = u.health.lock().unwrap();
                (h.admitted, u.model_version.load(Ordering::Relaxed))
            })
            .collect();
        let max_version = views
            .iter()
            .filter(|(alive, _)| *alive)
            .map(|(_, v)| *v)
            .max()
            .unwrap_or(0);
        views
            .into_iter()
            .map(|(alive, v)| alive && max_version.saturating_sub(v) <= max_version_lag)
            .collect()
    }

    fn loads(&self) -> Vec<usize> {
        self.upstreams
            .iter()
            .map(|u| u.in_flight.load(Ordering::Relaxed))
            .collect()
    }
}

/// Shared router state: the current topology generation plus counters.
#[derive(Debug)]
pub struct RouterState {
    topology: RwLock<Arc<Topology>>,
    cfg: RouterConfig,
    started: Instant,
    requests: AtomicU64,
    forward_errors: AtomicU64,
    topology_swaps: AtomicU64,
    /// Live client connections, each holding a [`ClientSlot`].
    clients: AtomicUsize,
}

impl RouterState {
    fn new(cfg: RouterConfig) -> Arc<RouterState> {
        let upstreams = cfg
            .upstreams
            .iter()
            .map(|a| Arc::new(Upstream::new(a)))
            .collect();
        Arc::new(RouterState {
            topology: RwLock::new(Arc::new(Topology {
                ring: Ring::new(&cfg.upstreams, cfg.vnodes, cfg.load_factor),
                upstreams,
            })),
            cfg: cfg.clone(),
            started: Instant::now(),
            requests: AtomicU64::new(0),
            forward_errors: AtomicU64::new(0),
            topology_swaps: AtomicU64::new(0),
            clients: AtomicUsize::new(0),
        })
    }

    /// Captures the current topology generation (one `Arc` clone under a
    /// read lock held for nanoseconds).
    fn topology(&self) -> Arc<Topology> {
        Arc::clone(&self.topology.read().unwrap())
    }

    /// Atomically replaces the upstream set: a fresh ring over `addrs`,
    /// reusing the live [`Upstream`] (health, pools, in-flight counts)
    /// for every address that survives the swap so an unchanged node
    /// keeps its probe history and warm connections. Returns the new
    /// generation number.
    fn reload_upstreams(&self, addrs: &[String]) -> io::Result<u64> {
        if addrs.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "upstream set must not be empty",
            ));
        }
        let mut seen = std::collections::BTreeSet::new();
        for a in addrs {
            if !seen.insert(a.as_str()) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("duplicate upstream '{a}'"),
                ));
            }
        }
        let current = self.topology();
        let upstreams = addrs
            .iter()
            .map(|a| {
                current
                    .upstreams
                    .iter()
                    .find(|u| u.addr == *a)
                    .map_or_else(|| Arc::new(Upstream::new(a)), Arc::clone)
            })
            .collect();
        let next = Arc::new(Topology {
            ring: Ring::new(addrs, self.cfg.vnodes, self.cfg.load_factor),
            upstreams,
        });
        *self.topology.write().unwrap() = next;
        metrics::counter("router.topology_swaps").incr();
        Ok(self.topology_swaps.fetch_add(1, Ordering::Relaxed) + 1)
    }

    /// The `/router/status` document.
    fn status_json(&self) -> Json {
        let topo = self.topology();
        let mut m = Json::obj();
        m.set("uptime_s", self.started.elapsed().as_secs_f64());
        m.set("requests", self.requests.load(Ordering::Relaxed));
        m.set(
            "forward_errors",
            self.forward_errors.load(Ordering::Relaxed),
        );
        m.set(
            "topology_swaps",
            self.topology_swaps.load(Ordering::Relaxed),
        );
        m.set("client_conns", self.clients.load(Ordering::Relaxed));
        let admitted = topo.admitted(self.cfg.max_version_lag);
        let mut list = Vec::new();
        for (i, u) in topo.upstreams.iter().enumerate() {
            let h = u.health.lock().unwrap();
            let mut o = Json::obj();
            o.set("addr", u.addr.as_str());
            o.set("admitted", admitted[i]);
            o.set("primary", h.is_primary);
            o.set("model_version", u.model_version.load(Ordering::Relaxed));
            o.set("in_flight", u.in_flight.load(Ordering::Relaxed));
            o.set("consecutive_failures", u64::from(h.consecutive_failures));
            o.set("probes_failed", h.probes_failed);
            list.push(o);
        }
        m.set("upstreams", list);
        m
    }
}

/// The bound router: accept loop plus prober thread.
#[derive(Debug)]
pub struct RouterServer {
    listener: TcpListener,
    addr: SocketAddr,
    state: Arc<RouterState>,
}

impl RouterServer {
    /// Binds the listen socket and starts the health prober.
    pub fn bind(cfg: RouterConfig) -> io::Result<RouterServer> {
        if cfg.upstreams.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "router needs at least one --upstreams entry",
            ));
        }
        let listener = TcpListener::bind((cfg.host.as_str(), cfg.port))?;
        let addr = listener.local_addr()?;
        let state = RouterState::new(cfg);
        let prober = Arc::clone(&state);
        std::thread::Builder::new()
            .name("router-probe".into())
            .spawn(move || loop {
                probe_all(&prober);
                std::thread::sleep(prober.cfg.probe_interval);
            })?;
        Ok(RouterServer {
            listener,
            addr,
            state,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serves forever: a thread per client connection, keep-alive, at
    /// most [`MAX_CLIENT_CONNS`] at once.
    pub fn run(&self) -> io::Result<()> {
        for conn in self.listener.incoming() {
            let Ok(stream) = conn else { continue };
            let Some(slot) = ClientSlot::claim(&self.state) else {
                metrics::counter("router.accept_overflow").incr();
                shed(stream);
                continue;
            };
            // A failed spawn drops the closure, and the slot with it.
            let _ = std::thread::Builder::new()
                .name("router-conn".into())
                .spawn(move || {
                    let _ = serve_client(stream, &slot.0);
                });
        }
        Ok(())
    }
}

/// One claimed client-connection slot; dropping it frees the slot, so a
/// connection thread that panics still gives its slot back.
struct ClientSlot(Arc<RouterState>);

impl ClientSlot {
    /// `None` once [`MAX_CLIENT_CONNS`] slots are held. Only the accept
    /// loop claims, so the check and the increment cannot interleave.
    fn claim(state: &Arc<RouterState>) -> Option<ClientSlot> {
        if state.clients.fetch_add(1, Ordering::Relaxed) >= MAX_CLIENT_CONNS {
            state.clients.fetch_sub(1, Ordering::Relaxed);
            return None;
        }
        Some(ClientSlot(Arc::clone(state)))
    }
}

impl Drop for ClientSlot {
    fn drop(&mut self) {
        self.0.clients.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Answers a connection over the cap 503 with `Connection: close`, then
/// drains it so the client reads the 503 through a FIN, not a reset.
fn shed(stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    let resp = Response::error(503, "router is overloaded, retry later");
    if resp.write_to(&mut &stream, false).is_ok() {
        http::drain_then_close(stream);
    }
}

/// One probe round: GET /healthz on every upstream of the current
/// topology generation (an upstream removed mid-round still gets its
/// last probe — harmless, its `Arc` dies when the round ends).
fn probe_all(state: &RouterState) {
    let topo = state.topology();
    for u in &topo.upstreams {
        // Respect the ejection window: no probe until backoff expires.
        {
            let h = u.health.lock().unwrap();
            if let Some(until) = h.ejected_until {
                if Instant::now() < until {
                    continue;
                }
            }
        }
        match probe_one(u, Duration::from_millis(750)) {
            Ok((version, is_primary)) => {
                u.model_version.store(version, Ordering::Relaxed);
                let mut h = u.health.lock().unwrap();
                h.is_primary = is_primary;
                drop(h);
                u.note_success();
            }
            Err(_) => {
                let mut h = u.health.lock().unwrap();
                h.probes_failed += 1;
                h.is_primary = false;
                drop(h);
                u.note_failure(state.cfg.eject_after);
            }
        }
    }
}

/// GET /healthz on one upstream; returns (model_version, is_primary).
fn probe_one(u: &Upstream, timeout: Duration) -> io::Result<(u64, bool)> {
    let mut conn = u.checkout(timeout)?;
    conn.set_read_timeout(Some(timeout))?;
    conn.set_write_timeout(Some(timeout))?;
    write!(
        conn,
        "GET /healthz HTTP/1.1\r\nHost: {}\r\nConnection: keep-alive\r\n\r\n",
        u.addr
    )?;
    let (resp, reusable) = http::read_response(&mut conn)?;
    if resp.status != 200 {
        return Err(io::Error::other(format!("healthz status {}", resp.status)));
    }
    let doc = Json::parse(&resp.body_text())
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("healthz: {e}")))?;
    let version = doc
        .get("model_version")
        .and_then(Json::as_f64)
        .map_or(0, |v| v as u64);
    let role = doc
        .get("cluster_role")
        .and_then(Json::as_str)
        .unwrap_or("primary"); // single-node daemons are writable
    if reusable {
        u.checkin(conn);
    }
    Ok((version, role == "primary"))
}

/// Extracts the consistent-hash key: the `server` field of a JSON body,
/// falling back to the path for body-less requests.
fn hash_key(req: &Request) -> String {
    if !req.body.is_empty() {
        if let Ok(doc) = req.json() {
            if let Some(server) = doc.get("server").and_then(Json::as_str) {
                return server.to_string();
            }
        }
    }
    req.path.clone()
}

/// One client connection: route and forward until close. Framing is the
/// shared codec's, so the router refuses what a serve node refuses —
/// 413/431 for oversized input, and a 400 for framing it cannot parse
/// (`Transfer-Encoding` included) — before anything is forwarded, and
/// then drains and closes the connection.
fn serve_client(stream: TcpStream, state: &RouterState) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let mut buf = Vec::new();
    let mut req = Request::default();
    let mut out = Vec::new();
    loop {
        let outcome = http::read_request(&mut &stream, &mut buf, &mut req)?;
        let resp = match outcome {
            ReadOutcome::Request => route(state, &req),
            ReadOutcome::Reject { status, message } => Response::error(status, message),
            ReadOutcome::Malformed => Response::error(400, "malformed request"),
            ReadOutcome::Idle | ReadOutcome::Closed => return Ok(()),
        };
        let answered_request = outcome == ReadOutcome::Request;
        let keep_alive = answered_request && req.keep_alive;
        out.clear();
        resp.write_into(&mut out, keep_alive);
        (&stream).write_all(&out)?;
        if !keep_alive {
            if !answered_request {
                http::drain_then_close(stream);
            }
            return Ok(());
        }
    }
}

/// Answers one parsed client request: the router's own endpoints, or a
/// forward to an upstream.
fn route(state: &RouterState, req: &Request) -> Response {
    state.requests.fetch_add(1, Ordering::Relaxed);
    match (req.path.as_str(), req.method.as_str()) {
        ("/router/status", "GET") => Response::json(200, &state.status_json()),
        ("/router/status", _) => Response::method_not_allowed("GET"),
        ("/admin/upstreams", "POST") => admin_upstreams(state, req),
        ("/admin/upstreams", _) => Response::method_not_allowed("POST"),
        _ => forward_with_retries(state, req).unwrap_or_else(|| {
            state.forward_errors.fetch_add(1, Ordering::Relaxed);
            Response::error(503, "no healthy upstream")
        }),
    }
}

/// `POST /admin/upstreams`: replace the routed upstream set at runtime.
/// Body: `{"upstreams": ["host:port", ...]}`. Surviving addresses keep
/// their health state and connection pools; the swap is atomic and
/// in-flight requests finish on the topology they started on.
fn admin_upstreams(state: &RouterState, req: &Request) -> Response {
    let doc = match req.json() {
        Ok(d) => d,
        Err(e) => return Response::error(400, &format!("bad JSON: {e}")),
    };
    let addrs: Vec<String> = match doc.get("upstreams").and_then(Json::as_arr) {
        Some(list) => {
            let mut addrs = Vec::with_capacity(list.len());
            for item in list {
                match item.as_str() {
                    Some(s) if !s.trim().is_empty() => addrs.push(s.trim().to_string()),
                    _ => {
                        return Response::error(
                            400,
                            "'upstreams' entries must be non-empty strings",
                        )
                    }
                }
            }
            addrs
        }
        None => return Response::error(400, "need an 'upstreams' array"),
    };
    match state.reload_upstreams(&addrs) {
        Ok(generation) => {
            let mut out = Json::obj();
            out.set(
                "upstreams",
                Json::Arr(addrs.iter().map(|a| Json::from(a.as_str())).collect()),
            );
            out.set("generation", generation);
            Response::json(200, &out)
        }
        Err(e) => Response::error(400, &e.to_string()),
    }
}

/// Picks upstreams (primary for writes, ring for reads) and forwards,
/// trying up to three distinct upstreams on transport failure. The whole
/// attempt chain runs against one topology snapshot captured at entry:
/// a concurrent `/admin/upstreams` swap cannot re-route attempt two onto
/// a node that already saw attempt one, and cannot shrink `tried` under
/// the loop.
fn forward_with_retries(state: &RouterState, req: &Request) -> Option<Response> {
    let topo = state.topology();
    let is_write = req.method == "POST" && req.path == "/observe";
    let mut tried = vec![false; topo.upstreams.len()];
    for _attempt in 0..3 {
        let idx = if is_write {
            // Writes go to the primary, wherever it currently is.
            topo.upstreams
                .iter()
                .enumerate()
                .position(|(i, u)| !tried[i] && u.health.lock().unwrap().is_primary)?
        } else {
            let mut admitted = topo.admitted(state.cfg.max_version_lag);
            for (i, t) in tried.iter().enumerate() {
                if *t {
                    admitted[i] = false;
                }
            }
            topo.ring.route(&hash_key(req), &admitted, &topo.loads())?
        };
        tried[idx] = true;
        let u = &topo.upstreams[idx];
        u.in_flight.fetch_add(1, Ordering::Relaxed);
        let result = forward_once(u, req, state.cfg.io_timeout);
        u.in_flight.fetch_sub(1, Ordering::Relaxed);
        match result {
            Ok(resp) => {
                u.note_success();
                return Some(resp);
            }
            Err(_) => {
                metrics::counter("router.forward_retries").incr();
                u.note_failure(state.cfg.eject_after);
            }
        }
    }
    None
}

/// One forward on one upstream, reusing a pooled connection. A stale
/// pooled connection (closed by the upstream between requests) surfaces
/// as an error here and the caller retries on a fresh one.
fn forward_once(u: &Upstream, req: &Request, timeout: Duration) -> io::Result<Response> {
    let mut conn = u.checkout(timeout)?;
    let mut wire = Vec::with_capacity(160 + req.body.len());
    write!(
        wire,
        "{} {} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
        req.method,
        req.path,
        u.addr,
        req.body.len()
    )?;
    wire.extend_from_slice(&req.body);
    conn.write_all(&wire)?;
    let (resp, reusable) = http::read_response(&mut conn)?;
    if reusable {
        u.checkin(conn);
    }
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal in-process upstream on the shared codec: answers
    /// `/healthz` with the given version and role and echoes everything
    /// else, counting the echoes. Each connection gets its own thread —
    /// the router holds pooled keep-alive connections open, and a stub
    /// serving one connection at a time starves the router's health
    /// probe, which then ejects a healthy upstream.
    fn stub_upstream(model_version: u64, role: &'static str) -> (String, Arc<AtomicU64>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let echoed = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&echoed);
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                let Ok(stream) = conn else { break };
                let counter = Arc::clone(&counter);
                std::thread::spawn(move || {
                    let (mut buf, mut req) = (Vec::new(), Request::default());
                    while let Ok(ReadOutcome::Request) =
                        http::read_request(&mut &stream, &mut buf, &mut req)
                    {
                        let body = if req.path == "/healthz" {
                            format!(
                                "{{\"model_version\": {model_version}, \"cluster_role\": \"{role}\"}}"
                            )
                        } else {
                            counter.fetch_add(1, Ordering::Relaxed);
                            format!("{{\"echo\": \"{} {}\"}}", req.method, req.path)
                        };
                        if Response::text(200, body)
                            .write_to(&mut &stream, true)
                            .is_err()
                        {
                            return;
                        }
                    }
                });
            }
        });
        (addr, echoed)
    }

    /// One request on a fresh `Connection: close` connection.
    fn call(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
        let mut conn = TcpStream::connect(addr).unwrap();
        write!(
            conn,
            "{method} {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let (resp, _) = http::read_response(&mut conn).unwrap();
        (resp.status, resp.body_text())
    }

    fn get(addr: &str, path: &str) -> (u16, String) {
        call(addr, "GET", path, "")
    }

    fn post(addr: &str, path: &str, body: &str) -> (u16, String) {
        call(addr, "POST", path, body)
    }

    #[test]
    fn routes_reads_and_reports_status() {
        let (a, _ha) = stub_upstream(5, "primary");
        let (b, _hb) = stub_upstream(5, "follower");
        let cfg = RouterConfig {
            upstreams: vec![a, b],
            probe_interval: Duration::from_millis(50),
            ..RouterConfig::default()
        };
        let server = RouterServer::bind(cfg).unwrap();
        let addr = server.local_addr().to_string();
        std::thread::spawn(move || server.run());
        // Give the prober a round to discover roles.
        std::thread::sleep(Duration::from_millis(300));

        let (status, body) = get(&addr, "/models");
        assert_eq!(status, 200);
        assert!(body.contains("GET /models"), "{body}");
        let (status, body) = get(&addr, "/router/status");
        assert_eq!(status, 200);
        assert!(body.contains("\"primary\": true"), "{body}");
        assert!(body.contains("\"model_version\": 5"), "{body}");
    }

    #[test]
    fn admin_upstreams_swaps_the_set_and_validates_input() {
        let (a, _ha) = stub_upstream(1, "primary");
        let (b, _hb) = stub_upstream(1, "follower");
        let cfg = RouterConfig {
            upstreams: vec![a.clone()],
            probe_interval: Duration::from_millis(50),
            ..RouterConfig::default()
        };
        let server = RouterServer::bind(cfg).unwrap();
        let addr = server.local_addr().to_string();
        std::thread::spawn(move || server.run());
        std::thread::sleep(Duration::from_millis(200));

        // Bad bodies 400 and leave the set alone.
        for bad in [
            "{not json",
            r#"{"upstreams": []}"#,
            r#"{"upstreams": "x"}"#,
            r#"{"upstreams": [""]}"#,
            r#"{}"#,
        ] {
            let (status, body) = post(&addr, "/admin/upstreams", bad);
            assert_eq!(status, 400, "{bad}: {body}");
        }
        let (status, body) = post(
            &addr,
            "/admin/upstreams",
            &format!(r#"{{"upstreams": ["{a}", "{a}"]}}"#),
        );
        assert_eq!(status, 400, "duplicates must be refused: {body}");

        // A valid swap adds the second node ...
        let (status, body) = post(
            &addr,
            "/admin/upstreams",
            &format!(r#"{{"upstreams": ["{a}", "{b}"]}}"#),
        );
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"generation\": 1"), "{body}");
        let (_, status_body) = get(&addr, "/router/status");
        assert!(status_body.contains(&b), "{status_body}");
        assert!(
            status_body.contains("\"topology_swaps\": 1"),
            "{status_body}"
        );

        // Wrong method answers 405.
        let (status, _) = get(&addr, "/admin/upstreams");
        assert_eq!(status, 405);

        // ... and removing the first still routes everything to b.
        let (status, body) = post(
            &addr,
            "/admin/upstreams",
            &format!(r#"{{"upstreams": ["{b}"]}}"#),
        );
        assert_eq!(status, 200, "{body}");
        for i in 0..5 {
            let (status, body) = get(&addr, &format!("/models?k={i}"));
            assert_eq!(status, 200, "{body}");
        }
        let (_, status_body) = get(&addr, "/router/status");
        assert!(!status_body.contains(&a), "{status_body}");
    }

    #[test]
    fn requests_racing_a_topology_swap_are_never_lost_or_double_sent() {
        let (a, served_a) = stub_upstream(1, "primary");
        let (b, served_b) = stub_upstream(1, "primary");
        let cfg = RouterConfig {
            upstreams: vec![a.clone()],
            probe_interval: Duration::from_millis(50),
            ..RouterConfig::default()
        };
        let server = RouterServer::bind(cfg).unwrap();
        let addr = server.local_addr().to_string();
        std::thread::spawn(move || server.run());
        std::thread::sleep(Duration::from_millis(200));

        // Swapper: flip the upstream set as fast as it can.
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let swapper = {
            let (addr, a, b) = (addr.clone(), a.clone(), b.clone());
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut flip = false;
                let mut swaps = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let body = if flip {
                        format!(r#"{{"upstreams": ["{a}"]}}"#)
                    } else {
                        format!(r#"{{"upstreams": ["{a}", "{b}"]}}"#)
                    };
                    let (status, _) = post(&addr, "/admin/upstreams", &body);
                    assert_eq!(status, 200);
                    swaps += 1;
                    flip = !flip;
                }
                swaps
            })
        };

        // Client threads: every request must come back exactly once, 200.
        let sent = Arc::new(AtomicU64::new(0));
        let clients: Vec<_> = (0..4)
            .map(|t| {
                let addr = addr.clone();
                let sent = Arc::clone(&sent);
                std::thread::spawn(move || {
                    for i in 0..150 {
                        // Distinct paths (the codec drops query strings)
                        // tie every answer to its own request.
                        let path = format!("/models/{t}/{i}");
                        let (status, body) = get(&addr, &path);
                        assert_eq!(status, 200, "{body}");
                        assert!(body.contains(&path), "{body}");
                        sent.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for c in clients {
            c.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        let swaps = swapper.join().unwrap();
        assert!(swaps > 0, "the swapper must have raced the clients");

        // No request was lost (all 600 answered 200 above) and none was
        // double-sent: the upstreams saw exactly as many forwards as the
        // clients sent (both upstreams were healthy throughout, so no
        // transport retry can legitimately duplicate).
        let served = served_a.load(Ordering::Relaxed) + served_b.load(Ordering::Relaxed);
        assert_eq!(served, sent.load(Ordering::Relaxed));
    }

    #[test]
    fn dead_upstream_is_ejected_and_requests_fail_over() {
        let (live, _h) = stub_upstream(1, "primary");
        // A dead address: bind, grab the port, drop the listener.
        let dead = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let cfg = RouterConfig {
            upstreams: vec![dead, live],
            probe_interval: Duration::from_millis(50),
            io_timeout: Duration::from_millis(500),
            ..RouterConfig::default()
        };
        let server = RouterServer::bind(cfg).unwrap();
        let addr = server.local_addr().to_string();
        std::thread::spawn(move || server.run());
        std::thread::sleep(Duration::from_millis(400));

        // Every read lands on the live upstream regardless of hash.
        for i in 0..10 {
            let (status, body) = get(&addr, &format!("/models?k={i}"));
            assert_eq!(status, 200, "{body}");
        }
        let (_, status_body) = get(&addr, "/router/status");
        assert!(status_body.contains("\"admitted\": false"), "{status_body}");
    }

    /// Writes `raw` on a fresh connection, half-closes, and returns every
    /// byte the router sends back before it closes.
    fn exchange_raw(addr: &str, raw: &[u8]) -> String {
        use std::io::Read as _;
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        conn.write_all(raw).unwrap();
        conn.shutdown(std::net::Shutdown::Write).unwrap();
        let mut reply = Vec::new();
        conn.read_to_end(&mut reply)
            .expect("the router must close cleanly, not reset");
        String::from_utf8_lossy(&reply).into_owned()
    }

    #[test]
    fn connections_past_the_cap_get_a_503_and_a_clean_close() {
        use std::io::Read as _;
        let (up, _forwarded) = stub_upstream(1, "primary");
        let server = RouterServer::bind(RouterConfig {
            upstreams: vec![up],
            ..RouterConfig::default()
        })
        .unwrap();
        let addr = server.local_addr().to_string();
        std::thread::spawn(move || server.run());

        // Idle keep-alive clients fill every slot. The accept loop takes
        // connections in arrival order, so once a connection is answered,
        // every one opened before it holds a slot. One request per batch
        // keeps the listen backlog from overflowing into SYN retries.
        let mut held: Vec<TcpStream> = Vec::with_capacity(MAX_CLIENT_CONNS);
        for _ in 0..MAX_CLIENT_CONNS / 64 {
            held.extend((0..64).map(|_| TcpStream::connect(&addr).unwrap()));
            let last = held.last_mut().unwrap();
            last.write_all(b"GET /router/status HTTP/1.1\r\nHost: x\r\n\r\n")
                .unwrap();
            assert_eq!(http::read_response(last).unwrap().0.status, 200);
        }
        assert_eq!(held.len(), MAX_CLIENT_CONNS);

        let mut over = TcpStream::connect(&addr).unwrap();
        over.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut reply = Vec::new();
        over.read_to_end(&mut reply)
            .expect("the connection past the cap must be answered and closed, not left waiting");
        let reply = String::from_utf8_lossy(&reply);
        assert!(reply.starts_with("HTTP/1.1 503 "), "{reply}");
        assert!(reply.contains("Connection: close\r\n"), "{reply}");
        assert!(reply.contains("router is overloaded"), "{reply}");

        // A held connection still serves.
        let conn = &mut held[0];
        conn.write_all(b"GET /router/status HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let (resp, _) = http::read_response(conn).unwrap();
        assert_eq!(resp.status, 200);
        assert!(
            resp.body_text()
                .contains(&format!("\"client_conns\": {MAX_CLIENT_CONNS}")),
            "{}",
            resp.body_text()
        );

        // Closing held connections frees their slots for new clients.
        held.truncate(MAX_CLIENT_CONNS - 8);
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let (status, body) = get(&addr, "/router/status");
            if status == 200 {
                break;
            }
            assert_eq!(status, 503, "{body}");
            assert!(
                Instant::now() < deadline,
                "closed connections never freed their slots"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    #[test]
    fn hostile_input_is_refused_like_a_serve_node_and_never_forwarded() {
        let (up, forwarded) = stub_upstream(1, "primary");
        let server = RouterServer::bind(RouterConfig {
            upstreams: vec![up],
            ..RouterConfig::default()
        })
        .unwrap();
        let addr = server.local_addr().to_string();
        std::thread::spawn(move || server.run());

        let mut flood = String::from("GET /healthz HTTP/1.1\r\nHost: probe\r\n");
        for h in 0..=http::MAX_HEADERS {
            flood.push_str(&format!("X-Flood-{h}: v\r\n"));
        }
        flood.push_str("\r\n");
        let cases: [(&str, Vec<u8>, u16); 4] = [
            ("newline-free stream", vec![b'a'; 64 * 1024], 431),
            (
                // Only the head is sent: the answer must not wait for a body.
                "oversized Content-Length",
                format!(
                    "POST /predict HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                    http::MAX_BODY_BYTES + 1
                )
                .into_bytes(),
                413,
            ),
            ("header flood", flood.into_bytes(), 431),
            (
                "chunked body",
                b"POST /predict HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n"
                    .to_vec(),
                400,
            ),
        ];
        for (name, raw, status) in cases {
            let reply = exchange_raw(&addr, &raw);
            assert!(
                reply.starts_with(&format!("HTTP/1.1 {status} ")),
                "{name}: {reply}"
            );
            assert!(reply.contains("Connection: close\r\n"), "{name}: {reply}");
            assert_eq!(reply.matches("HTTP/1.1 ").count(), 1, "{name}: {reply}");
        }
        assert_eq!(
            forwarded.load(Ordering::Relaxed),
            0,
            "no refused request may reach an upstream"
        );
    }
}
