//! `perfbench`: the Rust half of the perfpred benchmark (`run.py` is the
//! other half and starts the daemons).
//!
//! ```text
//! perfbench gen   --workload W --seed N --addr HOST:PORT [--nodes A,B]
//! perfbench trace --workload W --seed N --rate R --seconds S --phases A,B,...
//!                 --budget B --spans PATH --tmp DIR [--pre NAME:RATE:SECS,...]
//! perfbench ring  ADDR ADDR
//! ```
//!
//! `gen` is the open-loop load generator (driven over stdin, see
//! [`gen`]); `trace` replays a workload's stream in-process with spans
//! (see [`trace`]); `ring` prints which of two router upstreams owns each
//! server key, so the benchmark can pick ports that spread the keys.

mod check;
mod gen;
mod stream;
mod sys;
mod trace;

use perfpred_cluster::Ring;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") => flags(&args[1..]).and_then(|f| gen::run(gen_args(&f)?)),
        Some("trace") => flags(&args[1..]).and_then(|f| trace::run(trace_args(&f)?)),
        Some("ring") if args.len() == 3 => {
            ring(&args[1..]);
            Ok(())
        }
        _ => Err("usage: perfbench gen|trace|ring ... (see src/main.rs)".into()),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

/// `--name value` pairs.
fn flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, got '{flag}'"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        out.insert(name.to_string(), value.clone());
    }
    Ok(out)
}

fn need<'a>(f: &'a BTreeMap<String, String>, name: &str) -> Result<&'a str, String> {
    f.get(name)
        .map(String::as_str)
        .ok_or_else(|| format!("--{name} is required"))
}

fn num<T: std::str::FromStr>(f: &BTreeMap<String, String>, name: &str) -> Result<T, String> {
    need(f, name)?
        .parse()
        .map_err(|_| format!("--{name}: not a number"))
}

fn gen_args(f: &BTreeMap<String, String>) -> Result<gen::GenArgs, String> {
    Ok(gen::GenArgs {
        workload: stream::Workload::parse(need(f, "workload")?)?,
        seed: num(f, "seed")?,
        addr: need(f, "addr")?.to_string(),
        nodes: f
            .get("nodes")
            .map(|s| s.split(',').map(str::to_string).collect())
            .unwrap_or_default(),
    })
}

fn trace_args(f: &BTreeMap<String, String>) -> Result<trace::TraceArgs, String> {
    let pre = match f.get("pre") {
        None => Vec::new(),
        Some(list) => list
            .split(',')
            .map(|p| {
                let parts: Vec<&str> = p.split(':').collect();
                match parts.as_slice() {
                    [name, rate, secs] => Ok((
                        (*name).to_string(),
                        rate.parse().map_err(|_| format!("--pre rate in '{p}'"))?,
                        secs.parse()
                            .map_err(|_| format!("--pre seconds in '{p}'"))?,
                    )),
                    _ => Err(format!("--pre entry '{p}' is not NAME:RATE:SECS")),
                }
            })
            .collect::<Result<_, String>>()?,
    };
    Ok(trace::TraceArgs {
        workload: stream::Workload::parse(need(f, "workload")?)?,
        seed: num(f, "seed")?,
        rate: num(f, "rate")?,
        secs: num(f, "seconds")?,
        phases: need(f, "phases")?.split(',').map(str::to_string).collect(),
        pre,
        budget: Duration::from_secs_f64(num(f, "budget")?),
        spans: PathBuf::from(need(f, "spans")?),
        tmp: PathBuf::from(need(f, "tmp")?),
    })
}

/// Prints, per server key, the index of the upstream that owns it on the
/// router's ring (default vnodes and load factor, both upstreams idle).
fn ring(addrs: &[String]) {
    let cfg = perfpred_cluster::RouterConfig::default();
    let ring = Ring::new(addrs, cfg.vnodes, cfg.load_factor);
    let owners: Vec<String> = stream::SERVERS
        .iter()
        .map(|s| {
            ring.route(s, &[true, true], &[0, 0])
                .map_or("-".into(), |i| i.to_string())
        })
        .collect();
    println!("{}", owners.join(" "));
}
