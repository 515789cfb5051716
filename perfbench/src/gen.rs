//! The open-loop generator.
//!
//! Two sender threads, each owning one keep-alive connection, send their
//! share of a Poisson schedule whether or not earlier answers are back
//! (HTTP/1.1 pipelining, non-blocking sockets), so a stall in the daemon
//! delays every later request instead of thinning the load. Latency runs
//! from each request's *scheduled* send time; how late the sender itself
//! got to it is reported as send lag.
//!
//! The process is driven over stdin, one command per line, and answers
//! each with one JSON line on stdout:
//!
//! * `phase NAME RATE SECS` — run one open-loop phase (phases named
//!   `ref*` are kept for `reference`);
//! * `reference` — the pooled figures of the `ref*` phases;
//! * `verify` — check answers against the predictors called in-process;
//! * `quit`.

use crate::check::Checker;
use crate::stream::{self, Kind, Req, Workload};
use crate::sys;
use perfpred_core::Json;
use perfpred_store::Observation;
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, BufRead, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

/// How long after a phase's last scheduled send its answers may still
/// arrive. Generous, so an overloaded ladder step ends in late answers
/// rather than in writes of unknown outcome.
const DRAIN: Duration = Duration::from_secs(5);

/// Longest single wait, so a stuck socket cannot hide the drain deadline.
const MAX_WAIT: Duration = Duration::from_millis(50);

/// Command-line settings of `perfbench gen`.
pub struct GenArgs {
    /// Which request mix to send.
    pub workload: Workload,
    /// Stream seed.
    pub seed: u64,
    /// Where load goes: the node, or the router for `routed-hot`.
    pub addr: String,
    /// Serve nodes behind the router (empty when `addr` is a node).
    pub nodes: Vec<String>,
}

/// One connection's result for one phase.
#[derive(Default)]
struct Tally {
    read_lat_ns: Vec<u64>,
    write_lat_ns: Vec<u64>,
    /// How late each request was handed to its connection, ns.
    lag_ns: Vec<u64>,
    sent: u64,
    ok: u64,
    failed: u64,
    /// Failures by status; 0 = transport error or timeout.
    failures: BTreeMap<u16, u64>,
    /// lqns answers the daemon solved for this very request (offloaded to
    /// the solver pool rather than answered from the cache).
    solved: u64,
    /// Observations sent in write batches, whatever their outcome.
    obs_sent: u64,
    /// Write batches that were not acked, whatever the status.
    writes_failed: u64,
    /// Acked write batches in send order.
    acked: Vec<Vec<Observation>>,
    /// Sampled `(request body, answer body)` pairs.
    samples: Vec<(String, Vec<u8>)>,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.read_lat_ns.extend(other.read_lat_ns);
        self.write_lat_ns.extend(other.write_lat_ns);
        self.lag_ns.extend(other.lag_ns);
        self.sent += other.sent;
        self.ok += other.ok;
        self.failed += other.failed;
        for (k, v) in other.failures {
            *self.failures.entry(k).or_default() += v;
        }
        self.solved += other.solved;
        self.obs_sent += other.obs_sent;
        self.writes_failed += other.writes_failed;
        self.acked.extend(other.acked);
        self.samples.extend(other.samples);
    }

    /// A failed request misses every latency limit, so it enters the
    /// latency sample as infinitely late. Every failed write, whatever its
    /// status, is counted for the store check.
    fn fail(&mut self, req: &Req, status: u16) {
        match req.kind {
            Kind::Read => self.read_lat_ns.push(u64::MAX),
            Kind::Write => {
                self.write_lat_ns.push(u64::MAX);
                self.writes_failed += 1;
            }
        }
        self.failed += 1;
        *self.failures.entry(status).or_default() += 1;
    }
}

/// One keep-alive connection; reconnects after a transport failure.
struct Conn {
    addr: String,
    stream: Option<TcpStream>,
    rbuf: Vec<u8>,
}

/// The open stream, connecting first if there is none.
fn ensure<'a>(addr: &str, slot: &'a mut Option<TcpStream>) -> io::Result<&'a mut TcpStream> {
    if slot.is_none() {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        s.set_nonblocking(true)?;
        *slot = Some(s);
    }
    Ok(slot.as_mut().expect("connected above"))
}

/// A complete response at the front of `buf`: `(status, body range, total
/// bytes)`, `Ok(None)` when more bytes are needed.
fn parse_response(buf: &[u8]) -> Result<Option<(u16, std::ops::Range<usize>, usize)>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return if buf.len() > 16 * 1024 {
            Err("response head over 16 KiB".into())
        } else {
            Ok(None)
        };
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 head")?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or("bad status line")?;
    let mut len = None;
    for line in lines {
        if let Some((k, v)) = line.split_once(':') {
            if k.trim().eq_ignore_ascii_case("content-length") {
                len = Some(
                    v.trim()
                        .parse::<usize>()
                        .map_err(|_| "bad content-length")?,
                );
            }
        }
    }
    let len = len.ok_or("response without content-length")?;
    let start = head_end + 4;
    if buf.len() < start + len {
        return Ok(None);
    }
    Ok(Some((status, start..start + len, start + len)))
}

fn contains(hay: &[u8], needle: &[u8]) -> bool {
    hay.windows(needle.len()).any(|w| w == needle)
}

/// Sends `reqs` on schedule over `conn` and collects every answer.
fn run_conn(conn: &mut Conn, reqs: &[Req], t0: Instant, horizon: Duration) -> Tally {
    sys::lower_timer_slack();
    let mut t = Tally::default();
    let deadline = t0 + horizon + DRAIN;
    let mut pending: VecDeque<usize> = VecDeque::new();
    let mut out: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut out_pos = 0usize;
    let mut next = 0usize;
    let mut chunk = vec![0u8; 64 * 1024];
    let Conn {
        addr,
        stream: slot,
        rbuf,
    } = conn;
    'phase: loop {
        // Queue everything that is due.
        let now_ns = t0.elapsed().as_nanos() as u64;
        while next < reqs.len() && reqs[next].at_ns <= now_ns {
            t.lag_ns.push(now_ns - reqs[next].at_ns);
            t.obs_sent += reqs[next].batch.len() as u64;
            out.extend_from_slice(&reqs[next].wire);
            pending.push_back(next);
            t.sent += 1;
            next += 1;
        }
        let stream = match ensure(addr, slot) {
            Ok(s) => s,
            Err(_) => {
                for i in pending.drain(..) {
                    t.fail(&reqs[i], 0);
                }
                out.clear();
                out_pos = 0;
                if Instant::now() >= deadline {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
        };
        let mut broken = false;
        while out_pos < out.len() {
            match stream.write(&out[out_pos..]) {
                Ok(0) => {
                    broken = true;
                    break;
                }
                Ok(n) => out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    broken = true;
                    break;
                }
            }
        }
        if out_pos == out.len() {
            out.clear();
            out_pos = 0;
        }
        // Drain readable bytes.
        while !broken {
            match stream.read(&mut chunk) {
                Ok(0) => broken = true,
                Ok(n) => rbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => broken = true,
            }
        }
        // Match complete answers to the oldest outstanding requests.
        let done_ns = t0.elapsed().as_nanos() as u64;
        let mut consumed = 0usize;
        loop {
            match parse_response(&rbuf[consumed..]) {
                Ok(Some((status, body, total))) => {
                    let Some(i) = pending.pop_front() else {
                        broken = true;
                        break;
                    };
                    let req = &reqs[i];
                    let body = &rbuf[consumed + body.start..consumed + body.end];
                    let lat = done_ns.saturating_sub(req.at_ns);
                    if status == 200 {
                        t.ok += 1;
                        match req.kind {
                            Kind::Write => {
                                t.write_lat_ns.push(lat);
                                t.acked.push(req.batch.clone());
                            }
                            Kind::Read => {
                                t.read_lat_ns.push(lat);
                                if contains(body, br#""method": "lqns""#)
                                    && contains(body, br#""cached": false"#)
                                {
                                    t.solved += 1;
                                }
                                if req.sample {
                                    t.samples.push((req.body.clone(), body.to_vec()));
                                }
                            }
                        }
                    } else {
                        t.fail(req, status);
                    }
                    consumed += total;
                }
                Ok(None) => break,
                Err(_) => {
                    broken = true;
                    break;
                }
            }
        }
        rbuf.drain(..consumed);
        if broken {
            for i in pending.drain(..) {
                t.fail(&reqs[i], 0);
            }
            out.clear();
            out_pos = 0;
            *slot = None;
            rbuf.clear();
            continue 'phase;
        }
        if next == reqs.len() && pending.is_empty() && out.is_empty() {
            break;
        }
        let now = Instant::now();
        if now >= deadline {
            for i in pending.drain(..) {
                t.fail(&reqs[i], 0);
            }
            *slot = None;
            rbuf.clear();
            break;
        }
        let until = if next < reqs.len() {
            (t0 + Duration::from_nanos(reqs[next].at_ns)).saturating_duration_since(now)
        } else {
            deadline - now
        };
        if until.is_zero() {
            continue;
        }
        let fd = slot.as_ref().map(AsRawFd::as_raw_fd);
        if let Some(fd) = fd {
            let events = if out.is_empty() {
                sys::POLLIN
            } else {
                sys::POLLIN | sys::POLLOUT
            };
            sys::wait(fd, events, until.min(MAX_WAIT));
        }
    }
    t
}

/// Nearest-rank percentile of sorted nanoseconds, in milliseconds.
fn pct_ms(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64 / 1e6
}

/// `(p50, p99)` in ms.
fn latency_ms(samples: &[u64]) -> (f64, f64) {
    let mut lat = samples.to_vec();
    lat.sort_unstable();
    (pct_ms(&lat, 0.50), pct_ms(&lat, 0.99))
}

/// The send-lag p99 of a tally, in ms.
fn lag_p99_ms(t: &Tally) -> f64 {
    latency_ms(&t.lag_ns).1
}

/// Renders a JSON value on one line.
pub fn one_line(j: &Json) -> String {
    j.render().lines().map(str::trim_start).collect()
}

/// Runs the command loop until `quit` or end of input.
pub fn run(args: GenArgs) -> Result<(), String> {
    sys::lower_timer_slack();
    let mut conns: Vec<Conn> = (0..2)
        .map(|_| Conn {
            addr: args.addr.clone(),
            stream: None,
            rbuf: Vec::new(),
        })
        .collect();
    let mut checker = Checker::new(args.workload);
    let mut reference: Vec<Tally> = Vec::new();
    let stdin = io::stdin();
    let mut stdout = io::stdout();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        let words: Vec<&str> = line.split_whitespace().collect();
        let reply = match words.as_slice() {
            ["phase", name, rate, secs] => {
                let rate: f64 = rate.parse().map_err(|_| format!("bad rate '{rate}'"))?;
                let secs: f64 = secs.parse().map_err(|_| format!("bad seconds '{secs}'"))?;
                let mut tally = phase(&mut conns, &args, name, rate, secs);
                let summary = summarize(&tally, rate, secs);
                checker.absorb(
                    std::mem::take(&mut tally.acked),
                    std::mem::take(&mut tally.samples),
                    tally.obs_sent,
                    tally.writes_failed,
                );
                if name.starts_with("ref") {
                    reference.push(tally);
                }
                summary
            }
            ["reference"] => pool(&reference),
            ["verify"] => checker.verify(&args.addr, &args.nodes),
            ["quit"] => return Ok(()),
            _ => return Err(format!("unknown command '{line}'")),
        };
        writeln!(stdout, "{}", one_line(&reply)).map_err(|e| e.to_string())?;
        stdout.flush().map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// One open-loop phase on both connections.
fn phase(conns: &mut [Conn], args: &GenArgs, name: &str, rate: f64, secs: f64) -> Tally {
    let streams = stream::schedule(args.workload, args.seed, name, rate, secs);
    let horizon = Duration::from_secs_f64(secs);
    let t0 = Instant::now() + Duration::from_millis(2);
    let mut total = Tally::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(streams.iter())
            .map(|(conn, reqs)| s.spawn(move || run_conn(conn, reqs, t0, horizon)))
            .collect();
        for h in handles {
            total.merge(h.join().expect("sender thread panicked"));
        }
    });
    total
}

/// The reference figures, pooled over every `ref*` phase so far.
fn pool(phases: &[Tally]) -> Json {
    let mut all = Tally::default();
    for t in phases {
        all.read_lat_ns.extend(&t.read_lat_ns);
        all.write_lat_ns.extend(&t.write_lat_ns);
        all.lag_ns.extend(&t.lag_ns);
        all.sent += t.sent;
        all.ok += t.ok;
        all.failed += t.failed;
        all.solved += t.solved;
    }
    let (p50, p99) = latency_ms(&all.read_lat_ns);
    let (write_p50, write_p99) = latency_ms(&all.write_lat_ns);
    let mut j = Json::obj();
    j.set("phases", phases.len() as u64);
    j.set("sent", all.sent);
    j.set("ok", all.ok);
    j.set("failed", all.failed);
    j.set("reads", all.read_lat_ns.len() as u64);
    j.set("writes", all.write_lat_ns.len() as u64);
    j.set("solved", all.solved);
    j.set("p50_ms", p50);
    j.set("p99_ms", p99);
    j.set("write_p50_ms", write_p50);
    j.set("write_p99_ms", write_p99);
    j.set("lag_p99_ms", lag_p99_ms(&all));
    j
}

fn summarize(t: &Tally, rate: f64, secs: f64) -> Json {
    let (p50, p99) = latency_ms(&t.read_lat_ns);
    let (write_p50, write_p99) = latency_ms(&t.write_lat_ns);
    let mut j = Json::obj();
    j.set("offered_rps", rate);
    j.set("seconds", secs);
    j.set("sent", t.sent);
    j.set("ok", t.ok);
    j.set("failed", t.failed);
    let mut failures = Json::obj();
    for (status, n) in &t.failures {
        failures.set(&status.to_string(), *n);
    }
    j.set("failures", failures);
    j.set("reads", t.read_lat_ns.len() as u64);
    j.set("writes", t.write_lat_ns.len() as u64);
    j.set("p50_ms", p50);
    j.set("p99_ms", p99);
    j.set("write_p50_ms", write_p50);
    j.set("write_p99_ms", write_p99);
    j.set("lag_p99_ms", lag_p99_ms(t));
    j.set("solved", t.solved);
    j
}
