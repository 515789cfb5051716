//! The benchmark's workloads as seeded request streams.
//!
//! The live generator and the traced replay both build their inputs here,
//! so the replay times exactly the requests the daemons were sent. A
//! stream is a pure function of (workload, seed, phase name, rate,
//! seconds): arrivals are a Poisson process per connection, and every
//! request body is drawn from the workload's key space.

use perfpred_core::{Json, ServerArch, Workload as Load};
use perfpred_store::Observation;

/// Server architectures the daemon hosts (`Experiments::servers`).
pub const SERVERS: [&str; 3] = ["AppServS", "AppServF", "AppServVF"];

/// Client counts of the hot key space: 2 methods × 3 servers × 6 = 36 keys.
const HOT_CLIENTS: [u32; 6] = [100, 250, 400, 550, 700, 850];

/// Client counts of `observe-mix`'s historical reads: 3 servers × 4 = 12 keys.
const READ_CLIENTS: [u32; 4] = [150, 400, 650, 900];

/// `predict-solve` draws clients from this inclusive range and a buy
/// percentage from `0..=SOLVE_MAX_BUY_PCT`: 3 × 2401 × 51 ≈ 367k keys,
/// far more than one run sends, so most requests miss the cache.
const SOLVE_CLIENTS: (u32, u32) = (100, 2500);
const SOLVE_MAX_BUY_PCT: u64 = 50;

/// Observations per `/observe` batch.
const BATCH: usize = 8;

/// Share of `observe-mix`'s requests that are `/observe` writes.
const OBSERVE_WRITE_SHARE: f64 = 0.3;

/// One read in this many is kept with its answer for the in-process check.
const SAMPLE_EVERY: u64 = 50;

/// The four serving workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One node, lqns + hybrid `/predict` over 36 keys: cache hits.
    PredictHot,
    /// One node, lqns `/predict` over ~367k keys: solver-bound.
    PredictSolve,
    /// One node with a durable store: `/observe` batches beside
    /// historical `/predict` reads.
    ObserveMix,
    /// The router in front of a primary and a follower, `predict-hot`'s mix.
    RoutedHot,
}

impl Workload {
    /// Parses a workload name as the benchmark command takes it.
    pub fn parse(s: &str) -> Result<Workload, String> {
        match s {
            "predict-hot" => Ok(Workload::PredictHot),
            "predict-solve" => Ok(Workload::PredictSolve),
            "observe-mix" => Ok(Workload::ObserveMix),
            "routed-hot" => Ok(Workload::RoutedHot),
            other => Err(format!("unknown workload '{other}'")),
        }
    }

    /// `(rate, write probability)` for each of the two connections at a
    /// total offered `rate`. Only `observe-mix` writes, and all its writes
    /// ride connection 0, so the daemon ingests them in send order and an
    /// in-process store fed the same batches reaches the same model.
    fn conn_rates(self, rate: f64) -> [(f64, f64); 2] {
        match self {
            Workload::ObserveMix => [
                (rate * OBSERVE_WRITE_SHARE, 1.0),
                (rate * (1.0 - OBSERVE_WRITE_SHARE), 0.0),
            ],
            _ => [(rate / 2.0, 0.0), (rate / 2.0, 0.0)],
        }
    }

    fn read_body(self, rng: &mut Rng) -> String {
        let server = SERVERS[rng.below(3) as usize];
        match self {
            Workload::PredictHot | Workload::RoutedHot => {
                let method = ["lqns", "hybrid"][rng.below(2) as usize];
                let clients = HOT_CLIENTS[rng.below(HOT_CLIENTS.len() as u64) as usize];
                format!(r#"{{"method":"{method}","server":"{server}","clients":{clients}}}"#)
            }
            Workload::PredictSolve => {
                let span = u64::from(SOLVE_CLIENTS.1 - SOLVE_CLIENTS.0) + 1;
                let clients = SOLVE_CLIENTS.0 + rng.below(span) as u32;
                let buy = rng.below(SOLVE_MAX_BUY_PCT + 1);
                format!(
                    r#"{{"method":"lqns","server":"{server}","clients":{clients},"buy_pct":{buy}}}"#
                )
            }
            Workload::ObserveMix => {
                let clients = READ_CLIENTS[rng.below(READ_CLIENTS.len() as u64) as usize];
                format!(r#"{{"method":"historical","server":"{server}","clients":{clients}}}"#)
            }
        }
    }

    /// Every distinct read body of a small key space (the hot and
    /// historical keys); `None` for `predict-solve`'s sampled space.
    pub fn all_read_bodies(self) -> Option<Vec<String>> {
        let mut out = Vec::new();
        match self {
            Workload::PredictHot | Workload::RoutedHot => {
                for method in ["lqns", "hybrid"] {
                    for server in SERVERS {
                        for clients in HOT_CLIENTS {
                            out.push(format!(
                                r#"{{"method":"{method}","server":"{server}","clients":{clients}}}"#
                            ));
                        }
                    }
                }
            }
            Workload::ObserveMix => {
                for server in SERVERS {
                    for clients in READ_CLIENTS {
                        out.push(format!(
                            r#"{{"method":"historical","server":"{server}","clients":{clients}}}"#
                        ));
                    }
                }
            }
            Workload::PredictSolve => return None,
        }
        Some(out)
    }
}

/// splitmix64: small, seedable, and good enough for arrival times and keys.
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// FNV-1a, to fold names into stream seeds.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// What a request does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `POST /predict`.
    Read,
    /// `POST /observe` with a batch of [`BATCH`] observations.
    Write,
}

/// One scheduled request.
pub struct Req {
    /// Scheduled send time, ns after the phase starts.
    pub at_ns: u64,
    /// Read or write.
    pub kind: Kind,
    /// The JSON body.
    pub body: String,
    /// The full HTTP/1.1 request bytes.
    pub wire: Vec<u8>,
    /// For writes: the observations in the batch, as the daemon parses them.
    pub batch: Vec<Observation>,
    /// Whether the answer is kept for the in-process check.
    pub sample: bool,
}

/// The HTTP/1.1 bytes of a keep-alive `POST path` carrying `body`.
fn post_bytes(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The per-connection request streams of one phase: Poisson arrivals at
/// each connection's share of `rate` for `secs` seconds.
pub fn schedule(w: Workload, seed: u64, phase: &str, rate: f64, secs: f64) -> [Vec<Req>; 2] {
    let servers = ServerArch::case_study_servers();
    let horizon_ns = secs * 1e9;
    let mut out: [Vec<Req>; 2] = [Vec::new(), Vec::new()];
    // `prime` sends writes only, so a store publishes its first model
    // before any historical read arrives.
    let rates = if phase == "prime" {
        [(rate, 1.0), (0.0, 0.0)]
    } else {
        w.conn_rates(rate)
    };
    for (conn, (conn_rate, write_p)) in rates.into_iter().enumerate() {
        if conn_rate <= 0.0 {
            continue;
        }
        let mut rng = Rng::new(seed ^ fnv(phase.as_bytes()) ^ fnv(&[conn as u8, 0x5a]));
        let mut t_ns = 0.0;
        let mut written = 0u64;
        loop {
            t_ns += -rng.unit().ln() / conn_rate * 1e9;
            if t_ns >= horizon_ns {
                break;
            }
            let write = write_p > 0.0 && (write_p >= 1.0 || rng.unit() <= write_p);
            let req = if write {
                let batch: Vec<Observation> = (0..BATCH)
                    .map(|_| {
                        written += 1;
                        observation(&mut rng, &servers, written)
                    })
                    .collect();
                let body = batch_body(&batch);
                Req {
                    at_ns: t_ns as u64,
                    kind: Kind::Write,
                    wire: post_bytes("/observe", &body),
                    body,
                    batch,
                    sample: false,
                }
            } else {
                let body = w.read_body(&mut rng);
                Req {
                    at_ns: t_ns as u64,
                    kind: Kind::Read,
                    wire: post_bytes("/predict", &body),
                    body,
                    batch: Vec::new(),
                    sample: rng.below(SAMPLE_EVERY) == 0,
                }
            };
            out[conn].push(req);
        }
    }
    out
}

/// One paper-shaped observation: clients spread over 0.15–1.55 of the
/// server's saturation point `n* = mx · (Z + 20 ms)`, a response time that
/// is flat below saturation and follows the closed-system law
/// `1000 n / mx − Z` above it (Z = 7 s think time), a quarter of samples at
/// a 10–30% buy mix, and ±5% seeded noise.
fn observation(rng: &mut Rng, servers: &[ServerArch], index: u64) -> Observation {
    let arch = &servers[rng.below(servers.len() as u64) as usize];
    let mx = arch.max_throughput_rps;
    let n_star = mx * 7.02;
    let frac = 0.15 + 1.40 * rng.unit();
    let clients = ((frac * n_star).round() as u32).max(1);
    let buy_pct = if rng.below(4) == 0 {
        10 * (1 + rng.below(3)) as u32
    } else {
        0
    };
    let lower = 20.0 + 40.0 * frac.powi(4);
    let upper = 1_000.0 * f64::from(clients) / mx - 7_000.0;
    let noise = 1.0 + 0.1 * (rng.unit() - 0.5);
    let mrt_ms = lower.max(upper) * (1.0 + f64::from(buy_pct) / 200.0) * noise;
    Observation {
        server: arch.name.clone(),
        clients,
        buy_pct: buy_pct as f32,
        mrt_ms,
        throughput_rps: f64::from(clients) * 1_000.0 / (7_000.0 + mrt_ms),
        timestamp_us: 1_700_000_000_000_000 + index * 1_000,
    }
}

/// `{"batch": [...]}` with every number written so it parses back to the
/// same bits.
fn batch_body(batch: &[Observation]) -> String {
    let items: Vec<String> = batch
        .iter()
        .map(|o| {
            format!(
                r#"{{"server":"{}","clients":{},"buy_pct":{},"mrt_ms":{:?},"throughput_rps":{:?},"timestamp_us":{}}}"#,
                o.server, o.clients, o.buy_pct, o.mrt_ms, o.throughput_rps, o.timestamp_us
            )
        })
        .collect();
    format!(r#"{{"batch":[{}]}}"#, items.join(","))
}

/// A read body's `(method, server, workload)`, built the way the daemon
/// builds it from the fields this benchmark sends.
pub fn read_key(body: &str) -> Result<(String, String, Load), String> {
    let j = Json::parse(body)?;
    let field = |k: &str| j.get(k).ok_or_else(|| format!("read body lacks '{k}'"));
    let method = field("method")?.as_str().ok_or("method")?.to_string();
    let server = field("server")?.as_str().ok_or("server")?.to_string();
    let clients = field("clients")?.as_u32().ok_or("clients")?;
    let load = match j.get("buy_pct").and_then(Json::as_f64) {
        Some(pct) => Load::with_buy_pct(clients, pct),
        None => Load::typical(clients),
    };
    Ok((method, server, load))
}
