//! The four workloads: their inputs, the `rwr` processes they start, the
//! load they put on them, and the checks their answers must pass.

use crate::gen::{self, derive, EdgeList, Rng, Sampler};
use crate::net::{self, Conn, Proc};
use crate::oracle::{self, Contract, Verdict};
use crate::stats;
use resacc_service::json::Json;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub const ALPHA: f64 = 0.2;
pub const EPSILON: f64 = 0.5;
/// Per-entry error budget for dynamic cache upgrades on `routed_mix`.
pub const DYNAMIC_EPS: f64 = 0.02;
/// Offset-push threshold of the dynamic upgrades (`rwr serve`'s default).
pub const DYNAMIC_DELTA: f64 = 1e-4;
/// Answers per run re-issued with `"full": true` and checked by the oracle.
const ORACLE_SAMPLE: usize = 6;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ColdQuery,
    LoneQuery,
    HotRead,
    RoutedMix,
}

#[derive(Clone, Copy, Debug)]
pub enum GraphKind {
    /// Undirected Barabási–Albert: nodes, attachments per node.
    Ba(usize, usize),
    /// Directed Chung–Lu power law: nodes, mean out-degree, exponent.
    PowerLaw(usize, usize, f64),
}

/// Everything that defines a workload apart from its seed.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub graph: GraphKind,
    /// `--workers` of every `rwr serve`.
    pub workers: usize,
    /// `--threads` of every `rwr serve` (0 = the machine's core count).
    pub threads: usize,
    /// Client connections (0 = the machine's core count).
    pub conns: usize,
    /// Distinct read sources under the Zipf law (0 = uniform over all
    /// nodes with a fresh seed per request, so the cache never hits).
    pub zipf_sources: usize,
    /// Open-loop arrival rate in requests per second (0 = closed loop).
    pub rate: f64,
    /// Share of operations that are `insert_edges` writes.
    pub write_share: f64,
    /// `--cache` capacity of every `rwr serve`.
    pub cache: usize,
    /// The tail percentile `latency_tail_ms` reports: the highest of
    /// p99/p95/p90 leaving ten samples beyond it at the workload's usual
    /// operation count.
    pub tail_q: f64,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ColdQuery,
        Workload::LoneQuery,
        Workload::HotRead,
        Workload::RoutedMix,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.spec().name == name)
    }

    pub fn spec(self) -> Spec {
        match self {
            Workload::ColdQuery => Spec {
                name: "cold_query",
                graph: GraphKind::Ba(32_768, 8),
                workers: 0,
                threads: 1,
                conns: 0,
                zipf_sources: 0,
                rate: 0.0,
                write_share: 0.0,
                cache: 256,
                tail_q: 0.95,
            },
            Workload::LoneQuery => Spec {
                name: "lone_query",
                graph: GraphKind::PowerLaw(16_384, 8, 2.2),
                workers: 1,
                threads: 0,
                conns: 1,
                zipf_sources: 0,
                rate: 0.0,
                write_share: 0.0,
                cache: 256,
                tail_q: 0.95,
            },
            Workload::HotRead => Spec {
                name: "hot_read",
                graph: GraphKind::Ba(16_384, 6),
                workers: 0,
                threads: 1,
                conns: 1,
                zipf_sources: 300,
                rate: 1000.0,
                write_share: 0.0,
                cache: 1024,
                tail_q: 0.99,
            },
            Workload::RoutedMix => Spec {
                name: "routed_mix",
                graph: GraphKind::Ba(8_192, 5),
                workers: 0,
                threads: 1,
                conns: 0,
                zipf_sources: 200,
                rate: 0.0,
                write_share: 0.2,
                cache: 1024,
                tail_q: 0.99,
            },
        }
    }
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn or_cores(v: usize) -> usize {
    if v == 0 {
        cores()
    } else {
        v
    }
}

/// The seeded inputs of one run.
pub struct Inputs {
    pub key: u64,
    pub graph: EdgeList,
    pub graph_file: PathBuf,
    /// Read sources, most popular first (empty = uniform).
    pub sources: Vec<u32>,
}

impl Inputs {
    pub fn make(spec: &Spec, seed: u64, dir: &Path) -> Result<Inputs, String> {
        let key = derive(
            seed,
            spec.name.bytes().fold(0u64, |h, b| h * 131 + b as u64),
        );
        let graph = match spec.graph {
            GraphKind::Ba(n, m) => gen::barabasi_albert(n, m, derive(key, 1)),
            GraphKind::PowerLaw(n, d, g) => gen::directed_power_law(n, d, g, derive(key, 1)),
        };
        let mut rng = Rng::new(derive(key, 2));
        let mut sources = Vec::new();
        while sources.len() < spec.zipf_sources {
            let s = rng.below(graph.n as u64) as u32;
            if !sources.contains(&s) {
                sources.push(s);
            }
        }
        let mut b = resacc_graph::GraphBuilder::new(graph.n).with_edge_capacity(graph.num_arcs());
        for (u, v) in graph.arcs() {
            b.add_edge(u, v);
        }
        let graph_file = dir.join("graph.racg");
        resacc_graph::binary::save(&b.build(), &graph_file)
            .map_err(|e| format!("writing {}: {e}", graph_file.display()))?;
        Ok(Inputs {
            key,
            graph,
            graph_file,
            sources,
        })
    }

    /// The accuracy contract `rwr serve` runs with on this graph.
    pub fn contract(&self, additive: f64) -> Contract {
        let n = self.graph.n.max(2) as f64;
        Contract {
            epsilon: EPSILON,
            delta: 1.0 / n,
            p_f: 1.0 / n,
            additive,
        }
    }

    /// Per-source seed for Zipf reads: repeated reads of a source repeat
    /// its computation, so the result cache can serve them.
    pub fn source_seed(&self, source: u32) -> u64 {
        derive(self.key, 0x5eed_0000 + source as u64)
    }
}

/// One operation of a request stream.
#[derive(Clone, Debug)]
pub struct Op {
    pub id: u64,
    pub source: u32,
    pub seed: u64,
    /// `Some` for an `insert_edges` write of this arc.
    pub write: Option<(u32, u32)>,
}

impl Op {
    pub fn line(&self, min_version: u64, full: bool) -> String {
        match self.write {
            Some((u, v)) => format!(
                r#"{{"id":{},"op":"insert_edges","edges":[[{u},{v}]]}}"#,
                self.id
            ),
            None => {
                let mv = if min_version > 0 {
                    format!(r#","min_version":{min_version}"#)
                } else {
                    String::new()
                };
                let full = if full { r#","full":true"# } else { "" };
                format!(
                    r#"{{"id":{},"op":"query","source":{},"seed":{},"k":10{mv}{full}}}"#,
                    self.id, self.source, self.seed
                )
            }
        }
    }
}

/// The deterministic request stream of one client connection.
pub struct Stream {
    rng: Rng,
    conn: u64,
    next: u64,
    n: u32,
    zipf: Option<Sampler>,
    sources: Vec<u32>,
    write_share: f64,
    key: u64,
}

impl Stream {
    pub fn new(spec: &Spec, inputs: &Inputs, conn: usize, label: u64) -> Stream {
        Stream {
            rng: Rng::new(derive(inputs.key, (label << 16) | conn as u64)),
            conn: conn as u64,
            next: 0,
            n: inputs.graph.n as u32,
            zipf: (spec.zipf_sources > 0).then(|| Sampler::zipf(spec.zipf_sources, 1.0)),
            sources: inputs.sources.clone(),
            write_share: spec.write_share,
            key: inputs.key,
        }
    }

    pub fn next_op(&mut self) -> Op {
        let id = (self.conn << 40) | self.next;
        self.next += 1;
        if self.write_share > 0.0 && self.rng.f64() < self.write_share {
            let u = self.rng.below(self.n as u64) as u32;
            let mut v = self.rng.below(self.n as u64 - 1) as u32;
            if v >= u {
                v += 1;
            }
            return Op {
                id,
                source: u,
                seed: 0,
                write: Some((u, v)),
            };
        }
        match &self.zipf {
            Some(z) => {
                let source = self.sources[z.sample(&mut self.rng)];
                Op {
                    id,
                    source,
                    seed: derive(self.key, 0x5eed_0000 + source as u64),
                    write: None,
                }
            }
            None => Op {
                id,
                source: self.rng.below(self.n as u64) as u32,
                seed: self.rng.next_u64() >> 1,
                write: None,
            },
        }
    }
}

/// The `rwr` processes of one workload.
pub struct Cluster {
    /// Every process serving the workload, in start order.
    pub procs: Vec<Proc>,
    /// Address clients send load to.
    pub front: String,
    /// The writable backend.
    pub primary: String,
    /// The read replica (`routed_mix` only).
    pub replica: Option<String>,
    /// The router (`routed_mix` only).
    pub router: Option<String>,
    /// Seconds from launching the first process until every one answers.
    pub setup_s: f64,
}

impl Cluster {
    pub fn start(
        bin: &PathBuf,
        spec: &Spec,
        inputs: &Inputs,
        dir: &Path,
    ) -> Result<Cluster, String> {
        let graph = inputs.graph_file.display().to_string();
        let serve = |extra: &[&str]| -> Vec<String> {
            let mut args: Vec<String> = [
                "serve",
                "--graph",
                &graph,
                "--listen",
                "127.0.0.1:0",
                "--alpha",
                "0.2",
                "--epsilon",
                "0.5",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            args.extend(["--workers".into(), or_cores(spec.workers).to_string()]);
            args.extend(["--threads".into(), or_cores(spec.threads).to_string()]);
            args.extend(["--cache".into(), spec.cache.to_string()]);
            args.extend(extra.iter().map(|s| s.to_string()));
            args
        };
        let t0 = Instant::now();
        if spec.write_share == 0.0 {
            let p = Proc::spawn(bin, &serve(&[]))?;
            net::wait_ready(&p.addr)?;
            let addr = p.addr.clone();
            return Ok(Cluster {
                setup_s: t0.elapsed().as_secs_f64(),
                procs: vec![p],
                front: addr.clone(),
                primary: addr,
                replica: None,
                router: None,
            });
        }
        let eps = DYNAMIC_EPS.to_string();
        let pdir = dir.join("primary").display().to_string();
        let rdir = dir.join("replica").display().to_string();
        let durable = ["--fsync", "always", "--dynamic-eps", &eps];
        let mut pargs = durable.to_vec();
        pargs.extend(["--data-dir", &pdir, "--group-commit-window", "0"]);
        pargs.extend(["--replication-listen", "127.0.0.1:0"]);
        let primary = Proc::spawn(bin, &serve(&pargs))?;
        let repl = primary
            .repl_addr
            .clone()
            .ok_or("primary announced no replication listener")?;
        let mut rargs = durable.to_vec();
        rargs.extend(["--data-dir", &rdir, "--replicate-from", &repl]);
        let replica = Proc::spawn(bin, &serve(&rargs))?;
        let backends = format!("{},{}", primary.addr, replica.addr);
        let router_args: Vec<String> =
            ["router", "--backends", &backends, "--listen", "127.0.0.1:0"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        let router = Proc::spawn(bin, &router_args)?;
        for p in [&primary, &replica, &router] {
            net::wait_ready(&p.addr)?;
        }
        wait_routed_ready(&router.addr, &primary.addr, &replica.addr)?;
        Ok(Cluster {
            setup_s: t0.elapsed().as_secs_f64(),
            front: router.addr.clone(),
            primary: primary.addr.clone(),
            replica: Some(replica.addr.clone()),
            router: Some(router.addr.clone()),
            procs: vec![primary, replica, router],
        })
    }

    pub fn pids(&self) -> Vec<u32> {
        self.procs.iter().map(Proc::pid).collect()
    }

    /// Backends that answer reads.
    pub fn serving(&self) -> Vec<String> {
        let mut v = vec![self.primary.clone()];
        v.extend(self.replica.clone());
        v
    }

    pub fn cpu_seconds(&self) -> f64 {
        self.pids()
            .iter()
            .map(|p| net::cpu_seconds(&p.to_string()))
            .sum()
    }

    pub fn stop(self) -> Result<(), String> {
        let mut first_err = Ok(());
        // Front first, so nothing routes to a stopped backend.
        for p in self.procs.into_iter().rev() {
            if let Err(e) = p.stop() {
                first_err = first_err.and(Err(e));
            }
        }
        first_err
    }
}

/// Waits until the replica has applied the primary's version and the
/// router has probed both backends: one writable, one read-only, breakers
/// closed.
fn wait_routed_ready(router: &str, primary: &str, replica: &str) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let version = |addr: &str| -> Result<Option<u64>, String> {
            Ok(net::call_ok(addr, r#"{"op":"stats"}"#)?
                .get("version")
                .and_then(Json::as_u64))
        };
        let caught_up = version(replica)? == version(primary)?;
        let st = net::call_ok(router, r#"{"op":"stats"}"#)?;
        let backends = st
            .get("router")
            .and_then(|r| r.get("backends"))
            .and_then(Json::as_arr)
            .unwrap_or(&[]);
        let closed = backends
            .iter()
            .all(|b| b.get("breaker").and_then(Json::as_str) == Some("closed"));
        let ro = |want: bool| {
            backends
                .iter()
                .filter(|b| b.get("read_only").and_then(Json::as_bool) == Some(want))
                .count()
        };
        if caught_up && closed && backends.len() == 2 && ro(true) == 1 && ro(false) == 1 {
            return Ok(());
        }
        if Instant::now() >= deadline {
            return Err(format!("routed cluster not ready: {}", st.render()));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// One completed request as the client saw it.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Client-observed latency (from the due time in an open loop).
    pub latency_ms: f64,
    /// The server's own `latency_ns` (0 for writes, which carry none).
    pub server_ms: f64,
    pub write: bool,
    /// Open loop: how late the request left after its due time. Closed
    /// loop: the generator's turnaround from the previous answer to this
    /// request.
    pub lateness_ms: f64,
}

/// What one client connection recorded.
#[derive(Default)]
pub struct ConnLog {
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Acked write versions, in ack order.
    pub acks: Vec<u64>,
    /// Acked arcs with their versions.
    pub acked_arcs: Vec<(u64, u32, u32)>,
    /// `(min_version, version)` of each read.
    pub reads: Vec<(u64, u64)>,
    /// The first reads of the timed phase, with their `top` lists, for
    /// re-issue and oracle checks.
    pub kept: Vec<(Op, String)>,
    /// Highest replica lag seen by the ≤ 1 Hz poll (traced runs only).
    pub lag_max: u64,
}

impl ConnLog {
    fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(e);
        }
    }

    /// Records one answered operation; returns its version if it succeeded.
    fn record(&mut self, op: &Op, min_version: u64, raw: &str, timing: Sample) -> Option<u64> {
        self.attempted += 1;
        let json = match Json::parse(raw.trim()) {
            Ok(j) => j,
            Err(e) => {
                self.fail(format!("unparseable response {raw:?}: {e}"));
                return None;
            }
        };
        if json.get("ok").and_then(Json::as_bool) != Some(true) {
            self.fail(format!("op {} failed: {}", op.id, raw.trim()));
            return None;
        }
        let Some(version) = json.get("version").and_then(Json::as_u64) else {
            self.fail(format!(
                "op {} answered without a version: {}",
                op.id,
                raw.trim()
            ));
            return None;
        };
        let server_ms = json.get("latency_ns").and_then(Json::as_u64).unwrap_or(0) as f64 / 1e6;
        self.samples.push(Sample {
            server_ms,
            ..timing
        });
        match op.write {
            Some((u, v)) => {
                self.acks.push(version);
                self.acked_arcs.push((version, u, v));
            }
            None => {
                self.reads.push((min_version, version));
                if self.kept.len() < ORACLE_SAMPLE {
                    let top = json.get("top").map(Json::render).unwrap_or_default();
                    self.kept.push((op.clone(), top));
                }
            }
        }
        Some(version)
    }
}

/// Runs a closed loop on one connection until `end`.
pub fn closed_loop(
    addr: &str,
    stream: &mut Stream,
    end: Instant,
    poll_replica: Option<&str>,
) -> Result<ConnLog, String> {
    let mut conn = Conn::open(addr)?;
    let mut log = ConnLog::default();
    let mut min_version = 0u64;
    let mut last_answer = Instant::now();
    let mut next_poll = Instant::now();
    let mut poll_conn = None;
    while Instant::now() < end {
        let op = stream.next_op();
        let line = op.line(min_version, false);
        let sent = Instant::now();
        let raw = conn.call(&line)?;
        let done = Instant::now();
        let timing = Sample {
            latency_ms: (done - sent).as_secs_f64() * 1e3,
            server_ms: 0.0,
            write: op.write.is_some(),
            lateness_ms: (sent - last_answer).as_secs_f64() * 1e3,
        };
        last_answer = done;
        if let Some(v) = log.record(&op, min_version, &raw, timing) {
            if op.write.is_some() {
                // Read-your-writes: later reads on this connection must see
                // at least this version.
                min_version = min_version.max(v);
            }
        }
        if let Some(replica) = poll_replica {
            if done >= next_poll {
                next_poll = done + Duration::from_secs(1);
                if poll_conn.is_none() {
                    poll_conn = Some(Conn::open(replica)?);
                }
                let st = poll_conn
                    .as_mut()
                    .expect("opened")
                    .call_ok(r#"{"op":"stats"}"#)?;
                let lag = st
                    .get("replication")
                    .and_then(|r| r.get("lag_records"))
                    .and_then(Json::as_u64)
                    .unwrap_or(0);
                log.lag_max = log.lag_max.max(lag);
                last_answer = Instant::now();
            }
        }
    }
    Ok(log)
}

/// Runs an open loop on one connection: requests leave on a fixed
/// schedule (`rate` per second) whether or not earlier ones were answered,
/// pipelined on the connection. This thread sends; a second one reads, so
/// both send and arrival times are taken as they happen.
pub fn open_loop(
    addr: &str,
    stream: &mut Stream,
    rate: f64,
    start: Instant,
    end: Instant,
) -> Result<ConnLog, String> {
    let mut conn = Conn::open(addr)?;
    let mut writer = conn.stream.try_clone().map_err(|e| e.to_string())?;
    let period = Duration::from_secs_f64(1.0 / rate);
    let (tx, rx) = std::sync::mpsc::channel::<(Op, Instant, Instant)>();
    std::thread::scope(|s| {
        let reader = s.spawn(move || -> Result<ConnLog, String> {
            let mut log = ConnLog::default();
            for (op, due, sent) in rx {
                let raw = conn.recv()?;
                let timing = Sample {
                    latency_ms: (Instant::now() - due).as_secs_f64() * 1e3,
                    server_ms: 0.0,
                    write: false,
                    lateness_ms: (sent - due).as_secs_f64() * 1e3,
                };
                log.record(&op, 0, &raw, timing);
            }
            Ok(log)
        });
        let mut due = start;
        let sent = (|| -> Result<(), String> {
            while due < end {
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let op = stream.next_op();
                let line = op.line(0, false);
                tx.send((op, due, Instant::now()))
                    .map_err(|_| "reader thread ended early")?;
                writer
                    .write_all(format!("{line}\n").as_bytes())
                    .map_err(|e| format!("send: {e}"))?;
                due += period;
            }
            Ok(())
        })();
        drop(tx);
        let log = reader
            .join()
            .map_err(|_| "reader thread panicked".to_string())?;
        sent.and(log)
    })
}

/// Drives every connection of the workload for `secs` seconds, one
/// thread per connection (the calling thread drives the last one).
pub fn drive(
    spec: &Spec,
    inputs: &Inputs,
    front: &str,
    secs: f64,
    label: u64,
    poll_replica: Option<&str>,
) -> Result<Vec<ConnLog>, String> {
    let conns = or_cores(spec.conns);
    let start = Instant::now() + Duration::from_millis(5);
    let end = start + Duration::from_secs_f64(secs);
    let run = |c: usize| -> Result<ConnLog, String> {
        let mut stream = Stream::new(spec, inputs, c, label);
        if spec.rate > 0.0 {
            open_loop(front, &mut stream, spec.rate / conns as f64, start, end)
        } else {
            while Instant::now() < start {
                std::hint::spin_loop();
            }
            closed_loop(front, &mut stream, end, poll_replica.filter(|_| c == 0))
        }
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns - 1).map(|c| s.spawn(move || run(c))).collect();
        let last = run(conns - 1);
        let mut logs: Vec<ConnLog> = handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string())?)
            .collect::<Result<_, _>>()?;
        logs.push(last?);
        Ok(logs)
    })
}

/// Parses the `scores` array of a `"full": true` answer.
pub fn full_scores(json: &Json) -> Result<Vec<f64>, String> {
    json.get("scores")
        .and_then(Json::as_arr)
        .ok_or("answer without scores")?
        .iter()
        .map(|s| s.as_f64().ok_or_else(|| "non-numeric score".to_string()))
        .collect()
}

/// A full answer fetched after the timed phase.
pub struct Reissued {
    pub op: Op,
    pub version: u64,
    pub scores: Vec<f64>,
}

/// Re-issues the kept reads with `"full": true`, untimed, and checks that
/// each repeats the `top` list the timed phase received when it was
/// answered at the same version.
pub fn reissue(addr: &str, logs: &[ConnLog], min_version: u64) -> Result<Vec<Reissued>, String> {
    let mut conn = Conn::open(addr)?;
    let mut out = Vec::new();
    for log in logs {
        for (op, top) in &log.kept {
            let json = conn.call_ok(&op.line(min_version, true))?;
            let version = json
                .get("version")
                .and_then(Json::as_u64)
                .ok_or("no version")?;
            let again = json.get("top").map(Json::render).unwrap_or_default();
            if min_version == 0 && &again != top {
                return Err(format!(
                    "query {} from {} seed {} answered {top} in the run and {again} when re-issued",
                    op.id, op.source, op.seed
                ));
            }
            out.push(Reissued {
                op: op.clone(),
                version,
                scores: full_scores(&json)?,
            });
        }
    }
    Ok(out)
}

/// The oracle check of re-issued answers against `graph`.
pub fn oracle_check(
    graph: &EdgeList,
    answers: &[Reissued],
    contract: &Contract,
) -> Result<Verdict, String> {
    let mut verdict = Verdict::default();
    for a in answers {
        let truth = oracle::rwr(graph, a.op.source, ALPHA);
        verdict.add(
            &format!("source {} seed {}", a.op.source, a.op.seed),
            &a.scores,
            &truth,
            contract,
        );
    }
    eprintln!(
        "perfbench: oracle: {} answers, {} guarded scores, {} outside the bound (at most {} allowed), worst relative error {:.4}",
        verdict.answers,
        verdict.guarded,
        verdict.violations,
        verdict.allowed(contract.p_f),
        verdict.worst_rel_err
    );
    verdict.result(contract.p_f)?;
    Ok(verdict)
}

/// A threads = 1 session in this process, through the program's library,
/// on the same graph file and parameters `rwr serve` uses: the reference
/// for fresh serial answers.
pub fn serial_session(graph_file: &Path) -> Result<resacc::RwrSession, String> {
    let graph = resacc_graph::binary::load(graph_file).map_err(|e| e.to_string())?;
    let n = graph.num_nodes().max(2) as f64;
    let params = resacc::RwrParams::new(ALPHA, EPSILON, 1.0 / n, 1.0 / n);
    Ok(resacc::RwrSession::with_config(
        graph,
        params,
        resacc::resacc::ResAccConfig::default().with_threads(1),
    ))
}

/// The routed run's end-of-run totals: the primary's WAL count and both
/// backends' versions match what the client was acked, the backends' edge
/// counts match the oracle's graph, and both backends answer a (source,
/// seed) the run never asked bit-identically.
pub fn routed_totals(
    cluster: &Cluster,
    acked: u64,
    oracle_arcs: usize,
    fresh: &Op,
) -> Result<(), String> {
    let replica = cluster.replica.as_deref().ok_or("no replica")?;
    // The replica applies asynchronously after the last ack's semi-sync
    // wait; give it a moment to apply everything.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let rs = net::call_ok(replica, r#"{"op":"stats"}"#)?;
        if rs.get("version").and_then(Json::as_u64) == Some(acked) || Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let ps = net::call_ok(&cluster.primary, r#"{"op":"stats"}"#)?;
    let wal = ps
        .get("durability")
        .and_then(|d| d.get("wal_appends"))
        .and_then(Json::as_u64);
    if wal != Some(acked) {
        return Err(format!(
            "primary wal_appends {wal:?} != {acked} acked writes"
        ));
    }
    let mut answers = Vec::new();
    for addr in [&cluster.primary, replica] {
        let st = net::call_ok(addr, r#"{"op":"stats"}"#)?;
        let version = st.get("version").and_then(Json::as_u64);
        if version != Some(acked) {
            return Err(format!(
                "{addr} at version {version:?}, highest ack {acked}"
            ));
        }
        let edges = st.get("edges").and_then(Json::as_u64);
        if edges != Some(oracle_arcs as u64) {
            return Err(format!(
                "{addr} holds {edges:?} edges, the acked graph {oracle_arcs}"
            ));
        }
        answers.push(full_scores(&net::call_ok(addr, &fresh.line(0, true))?)?);
    }
    if !oracle::bit_identical(&answers[0], &answers[1]) {
        return Err("primary and replica answer the same (source, seed) differently".into());
    }
    Ok(())
}

/// Latency summary over samples.
pub fn latency(samples: &[Sample], pick: impl Fn(&Sample) -> Option<f64>) -> Vec<f64> {
    samples.iter().filter_map(pick).collect()
}

/// Median and windowed tail of samples in arrival order.
pub fn p50_and_tail(v: Vec<f64>, q: f64) -> (f64, f64) {
    if v.is_empty() {
        return (0.0, 0.0);
    }
    let tail = stats::tail(&v, q);
    (stats::median(&mut v.clone()), tail)
}
