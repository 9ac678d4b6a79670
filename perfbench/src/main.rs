//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <cold_query|lone_query|hot_read|routed_mix> \
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds `rwr` from the checkout, generates the workload's inputs from
//! the seed, starts the workload's `rwr` processes, drives them for the
//! given seconds from this process (at most one thread and one connection
//! per core), checks the answers against its own oracle, and prints one
//! JSON line: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. See README.md.

mod gen;
mod net;
mod oracle;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::time::Instant;
use workload::{Cluster, ConnLog, Inputs, Spec, Workload};

/// Stream labels: warm-up and timed requests never repeat each other.
const LABEL_WARM: u64 = 1;
pub(crate) const LABEL_TIMED: u64 = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One named metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn main() {
    let out = parse_args().and_then(|args| {
        let spec = args.workload.spec();
        let bin = net::build_rwr()?;
        let dir = PathBuf::from(".perfbench_run").join(format!(
            "{}-{}-{}",
            spec.name,
            args.seed,
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let result = run(&bin, &spec, &args, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        result
    });
    match out {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(bin: &PathBuf, spec: &Spec, args: &Args, dir: &Path) -> Result<String, String> {
    let inputs = Inputs::make(spec, args.seed, dir)?;
    let cluster = Cluster::start(bin, spec, &inputs, dir)?;
    let warm = warm_up(spec, &inputs, &cluster)?;

    let poll = args.trace.then_some(cluster.replica.as_deref()).flatten();
    let (cpu0, self0, t0) = (
        cluster.cpu_seconds(),
        net::cpu_seconds("self"),
        Instant::now(),
    );
    let logs = workload::drive(
        spec,
        &inputs,
        &cluster.front,
        args.seconds,
        LABEL_TIMED,
        poll,
    )?;
    let elapsed = t0.elapsed().as_secs_f64();
    let server_cpu = cluster.cpu_seconds() - cpu0;
    let client_cpu = net::cpu_seconds("self") - self0;
    let rss: f64 = cluster.pids().into_iter().map(net::peak_rss_mib).sum();

    let attempted: u64 = logs.iter().map(|l| l.attempted).sum();
    let failed: u64 = logs.iter().map(|l| l.failed).sum();
    for e in logs.iter().flat_map(|l| &l.errors) {
        eprintln!("perfbench: failed operation: {e}");
    }
    let mut problems = check(spec, &inputs, &cluster, &warm, &logs);

    let samples: Vec<workload::Sample> = logs.iter().flat_map(|l| l.samples.clone()).collect();
    let ops = samples.len() as f64;
    let metrics = if args.trace {
        let t = trace::Context {
            bin,
            seed: args.seed,
            spec,
            inputs: &inputs,
            cluster: &cluster,
            logs: &logs,
            samples: &samples,
            client_cpu_s: client_cpu,
            dir,
        };
        let (metrics, failed_checks) = trace::run(&t)?;
        problems.extend(failed_checks);
        metrics
    } else {
        let (p50, tail) = workload::p50_and_tail(
            workload::latency(&samples, |s| Some(s.latency_ms)),
            spec.tail_q,
        );
        vec![
            metric("setup_s", cluster.setup_s, "s"),
            metric("ops_per_s", ops / elapsed, "ops/s"),
            metric("latency_p50_ms", p50, "ms"),
            metric("latency_tail_ms", tail, "ms"),
            metric(
                "server_cpu_ms_per_op",
                server_cpu * 1e3 / ops.max(1.0),
                "ms",
            ),
            metric("server_peak_rss_mb", rss, "MiB"),
        ]
    };
    cluster.stop().unwrap_or_else(|e| problems.push(e));
    for p in &problems {
        eprintln!("perfbench: check failed: {p}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(r#""{}":{{"value":{v},"unit":"{}"}}"#, m.name, m.unit)
        })
        .collect();
    Ok(format!(
        r#"{{"correct":{},"attempted":{attempted},"failed":{failed},"metrics":{{{}}}}}"#,
        problems.is_empty(),
        body.join(",")
    ))
}

/// Fills caches and faults in memory before timing. Zipf workloads read
/// every source once; every workload then runs one second of its own mix.
fn warm_up(spec: &Spec, inputs: &Inputs, cluster: &Cluster) -> Result<Vec<ConnLog>, String> {
    if !inputs.sources.is_empty() {
        let mut conn = net::Conn::open(&cluster.front)?;
        for &s in &inputs.sources {
            let op = workload::Op {
                id: s as u64,
                source: s,
                seed: inputs.source_seed(s),
                write: None,
            };
            conn.call_ok(&op.line(0, false))?;
        }
    }
    workload::drive(spec, inputs, &cluster.front, 1.0, LABEL_WARM, None)
}

/// Every correctness check of the end-to-end run; returns what failed.
fn check(
    spec: &Spec,
    inputs: &Inputs,
    cluster: &Cluster,
    warm: &[ConnLog],
    logs: &[ConnLog],
) -> Vec<String> {
    let mut problems = Vec::new();
    let mut push = |r: Result<(), String>| {
        if let Err(e) = r {
            problems.push(e);
        }
    };
    for e in warm.iter().flat_map(|l| &l.errors) {
        push(Err(format!("warm-up operation failed: {e}")));
    }
    if spec.write_share == 0.0 {
        push((|| {
            let answers = workload::reissue(&cluster.front, logs, 0)?;
            workload::oracle_check(&inputs.graph, &answers, &inputs.contract(0.0))?;
            // Every answer — threads = N on lone_query, a cache hit on
            // hot_read — is bit-identical to a fresh serial computation.
            let serial = workload::serial_session(&inputs.graph_file)?;
            for a in &answers {
                let fresh = serial.query(a.op.source, a.op.seed).scores;
                if !oracle::bit_identical(&fresh, &a.scores) {
                    return Err(format!(
                        "answer for source {} seed {} differs from a fresh threads=1 computation",
                        a.op.source, a.op.seed
                    ));
                }
            }
            Ok(())
        })());
        return problems;
    }
    push((|| {
        let all: Vec<&ConnLog> = warm.iter().chain(logs).collect();
        let acks = oracle::AckLog {
            acks: all.iter().map(|l| l.acks.clone()).collect(),
            reads: all.iter().map(|l| l.reads.clone()).collect(),
        };
        let acked = acks.check()?;
        let mut graph = inputs.graph.clone();
        for (_, u, v) in all.iter().flat_map(|l| &l.acked_arcs) {
            graph.insert(*u, *v);
        }
        let fresh = workload::Op {
            id: 1 << 62,
            source: (inputs.key % graph.n as u64) as u32,
            seed: gen::derive(inputs.key, 0xf4e5),
            write: None,
        };
        workload::routed_totals(cluster, acked, graph.num_arcs(), &fresh)?;
        let answers = workload::reissue(&cluster.front, logs, acked)?;
        if let Some(a) = answers.iter().find(|a| a.version != acked) {
            return Err(format!(
                "re-issued read answered at version {}, not {acked}",
                a.version
            ));
        }
        workload::oracle_check(&graph, &answers, &inputs.contract(workload::DYNAMIC_EPS))?;
        Ok(())
    })());
    problems
}
