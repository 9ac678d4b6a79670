//! The traced run: per-layer metrics.
//!
//! After the end-to-end phase, this reads every server's `stats`, times
//! the same requests sent through the router and directly to a backend,
//! and replays the workload's request stream through each layer's public
//! functions in this process. Spans are recorded from this file around
//! those calls, kept in memory, and written to
//! `.perfbench_run/trace-<workload>-<seed>.jsonl` at the end.

use crate::gen::{derive, Rng};
use crate::net::{self, Conn, Proc};
use crate::oracle;
use crate::stats::{median, tail};
use crate::workload::{self, Cluster, ConnLog, Inputs, Op, Sample, Spec, Stream, ALPHA, EPSILON};
use crate::{metric, Metric};
use resacc::durability::{self, DurabilityOptions, MutationOp};
use resacc::resacc::{h_hop_fwd, omfwd, ResAccConfig, Scope};
use resacc::{Cancel, ForwardState, RwrParams, RwrSession};
use resacc_service::cache::{CompKey, ResultCache};
use resacc_service::json::Json;
use resacc_service::scheduler::{QueryRequest, Scheduler, SchedulerConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const LABEL_TRACE: u64 = 3;
/// Tolerance between the traced phase spans and the program's own phase
/// timings, and between those and the outer `RwrSession::query` span.
pub const PHASE_TOLERANCE: f64 = 0.25;
/// Requests timed through the router and directly, per kind.
const RELAY_READS: usize = 30;
const RELAY_WRITES: usize = 20;
/// Queries replayed in-process: up to `REPLAY_MAX`, stopping early (but
/// not below `REPLAY_MIN`) once `REPLAY_BUDGET` has passed.
const REPLAY_MAX: usize = 30;
const REPLAY_MIN: usize = 8;
const REPLAY_BUDGET: Duration = Duration::from_secs(5);

pub struct Context<'a> {
    pub bin: &'a PathBuf,
    pub spec: &'a Spec,
    pub inputs: &'a Inputs,
    pub cluster: &'a Cluster,
    pub logs: &'a [ConnLog],
    pub samples: &'a [Sample],
    pub client_cpu_s: f64,
    pub dir: &'a Path,
    pub seed: u64,
}

/// One span: a named interval, the request it belongs to, and the span
/// that caused it.
struct Span {
    name: &'static str,
    trace: u64,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn open(&mut self, name: &'static str, trace: u64, parent: Option<usize>) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            trace,
            parent,
            start: now,
            end: now,
        });
        self.spans.len() - 1
    }

    /// Records, inside span `parent`, a child of duration `dur` that the
    /// program timed itself (its own phase timings of that call).
    fn timed_child(&mut self, name: &'static str, parent: usize, dur: Duration) {
        let (trace, start) = (self.spans[parent].trace, self.spans[parent].start);
        self.spans.push(Span {
            name,
            trace,
            parent: Some(parent),
            start,
            end: start + dur,
        });
    }

    fn close(&mut self, id: usize) -> f64 {
        self.spans[id].end = self.origin.elapsed();
        self.ms(id)
    }

    fn ms(&self, id: usize) -> f64 {
        (self.spans[id].end - self.spans[id].start).as_secs_f64() * 1e3
    }

    fn durations(&self, name: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.ms(i))
            .collect()
    }

    /// Per span name: count, total and self time (the span minus what its
    /// child spans cover), in milliseconds.
    fn self_times(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut child = vec![0.0; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                child[p] += self.ms(i);
            }
        }
        let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let total = self.ms(i);
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += total;
                    r.3 += total - child[i];
                }
                None => rows.push((s.name, 1, total, total - child[i])),
            }
        }
        rows
    }

    fn write(&self, path: &Path) -> Result<(), String> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"trace\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}\n",
                s.name,
                s.trace,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start.as_nanos(),
                s.end.as_nanos()
            ));
        }
        std::fs::write(path, out).map_err(|e| format!("writing {}: {e}", path.display()))
    }
}

fn med(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(&mut v)
    }
}

/// Median per-call time of `f`, in microseconds, over five batches.
fn micro(mut f: impl FnMut()) -> f64 {
    const CALLS: u32 = 2000;
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..CALLS {
                f();
            }
            t.elapsed().as_secs_f64() * 1e6 / CALLS as f64
        })
        .collect();
    med(batches)
}

fn stat(json: &Json, path: &[&str]) -> f64 {
    let mut cur = json;
    for key in path {
        match cur.get(key) {
            Some(next) => cur = next,
            None => return 0.0,
        }
    }
    cur.as_f64().unwrap_or(0.0)
}

/// Server counters read after the untimed end-to-end run.
struct Counters {
    hit_ratio: f64,
    coalesced: f64,
    upgrades: f64,
    fallbacks: f64,
    wal: Option<(f64, f64, f64, f64)>,
    bytes_shipped: f64,
    hedges_per_read: f64,
    retries_per_op: f64,
}

fn counters(c: &Context) -> Result<Counters, String> {
    let (mut hits, mut queries, mut coalesced, mut upgrades, mut fallbacks) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    for addr in c.cluster.serving() {
        let st = net::call_ok(&addr, r#"{"op":"stats"}"#)?;
        hits += stat(&st, &["stats", "cache_hits"]);
        queries += stat(&st, &["stats", "queries"]);
        coalesced += stat(&st, &["stats", "coalesced"]);
        upgrades += stat(&st, &["stats", "cache_upgrades"]);
        fallbacks += stat(&st, &["stats", "cache_upgrade_fallbacks"]);
    }
    let ps = net::call_ok(&c.cluster.primary, r#"{"op":"stats"}"#)?;
    let wal = ps.get("durability").map(|_| {
        (
            stat(&ps, &["durability", "wal_appends"]),
            stat(&ps, &["durability", "wal_batches"]),
            stat(&ps, &["durability", "wal_commit_nanos"]),
            stat(&ps, &["durability", "bytes_appended"]),
        )
    });
    let bytes_shipped = stat(&ps, &["replication", "bytes_shipped"]);
    let (mut hedges_per_read, mut retries_per_op) = (0.0, 0.0);
    if let Some(router) = &c.cluster.router {
        let rs = net::call_ok(router, r#"{"op":"stats"}"#)?;
        let reads = stat(&rs, &["router", "reads"]);
        let ops = reads + stat(&rs, &["router", "mutations"]);
        hedges_per_read = stat(&rs, &["router", "hedges"]) / reads.max(1.0);
        retries_per_op = stat(&rs, &["router", "retries"]) / ops.max(1.0);
    }
    Ok(Counters {
        hit_ratio: hits / queries.max(1.0),
        coalesced,
        upgrades,
        fallbacks,
        wal,
        bytes_shipped,
        hedges_per_read,
        retries_per_op,
    })
}

/// Times the same reads sent via the router and directly to the backend
/// the router serves them from, and writes sent both ways. Workloads
/// without a router get one in front of their server for this step.
fn relay(c: &Context) -> Result<(f64, f64, Vec<f64>), String> {
    let spawned = match &c.cluster.router {
        Some(_) => None,
        None => {
            let args: Vec<String> = [
                "router",
                "--backends",
                &c.cluster.primary,
                "--listen",
                "127.0.0.1:0",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            let p = Proc::spawn(c.bin, &args)?;
            net::wait_ready(&p.addr)?;
            Some(p)
        }
    };
    let router_addr = c
        .cluster
        .router
        .clone()
        .or_else(|| spawned.as_ref().map(|p| p.addr.clone()))
        .expect("a router exists");
    let backend = c
        .cluster
        .replica
        .clone()
        .unwrap_or_else(|| c.cluster.primary.clone());
    let mut direct = Conn::open(&backend)?;
    let mut routed = Conn::open(&router_addr)?;
    let mut stream = Stream::new(c.spec, c.inputs, 0, LABEL_TRACE);
    let mut diffs = Vec::new();
    let time = |conn: &mut Conn, line: &str| -> Result<f64, String> {
        let t = Instant::now();
        conn.call_ok(line)?;
        Ok(t.elapsed().as_secs_f64() * 1e3)
    };
    while diffs.len() < RELAY_READS {
        let op = stream.next_op();
        if op.write.is_some() {
            continue;
        }
        let line = op.line(0, false);
        // Both sides then answer from the backend's cache: the difference
        // is the router's relay alone.
        direct.call_ok(&line)?;
        let (d, r) = if diffs.len() % 2 == 0 {
            let d = time(&mut direct, &line)?;
            (d, time(&mut routed, &line)?)
        } else {
            let r = time(&mut routed, &line)?;
            (time(&mut direct, &line)?, r)
        };
        diffs.push(r - d);
    }
    let mut primary = Conn::open(&c.cluster.primary)?;
    let mut rng = Rng::new(derive(c.inputs.key, LABEL_TRACE));
    let n = c.inputs.graph.n as u64;
    let (mut via, mut plain) = (Vec::new(), Vec::new());
    for i in 0..2 * RELAY_WRITES {
        let (u, v) = (rng.below(n) as u32, rng.below(n) as u32);
        let op = Op {
            id: (7 << 40) | i as u64,
            source: 0,
            seed: 0,
            write: Some((u, if u == v { (v + 1) % n as u32 } else { v })),
        };
        let line = op.line(0, false);
        if i % 2 == 0 {
            plain.push(time(&mut primary, &line)?);
        } else {
            via.push(time(&mut routed, &line)?);
        }
    }
    if let Some(p) = spawned {
        p.stop()?;
    }
    let wait = med(via) - med(plain.clone());
    Ok((med(diffs), wait, plain))
}

/// The in-process replay's findings.
struct Replay {
    tracer: Tracer,
    load_ms: f64,
    counts: Vec<(u64, u64, f64, u64)>,
    phase_sum_ratio: f64,
    session_phase_ratio: f64,
    overhead_pct: f64,
    miss_overhead_ms: f64,
    hit_us: f64,
    get_us: f64,
    parse_us: f64,
    render_us: f64,
    upgrade_ok: usize,
    upgrade_tried: usize,
    store: (f64, f64, f64, f64),
    replayed: usize,
    /// Per replayed query: the `RwrSession::query` span and the program's
    /// own `timings.total()` of that call, in ms.
    queries: Vec<(f64, f64)>,
    /// Property checks that failed.
    problems: Vec<String>,
}

fn replay(c: &Context) -> Result<Replay, String> {
    let mut tr = Tracer::new();
    let file = &c.inputs.graph_file;
    let mut graph = None;
    for _ in 0..3 {
        let s = tr.open("graph::binary::load", 0, None);
        graph = Some(resacc_graph::binary::load(file).map_err(|e| e.to_string())?);
        tr.close(s);
    }
    let graph = graph.expect("loaded");
    let load_ms = med(tr.durations("graph::binary::load"));
    let n = graph.num_nodes();
    let params = RwrParams::new(ALPHA, EPSILON, 1.0 / n.max(2) as f64, 1.0 / n.max(2) as f64);
    let cfg = ResAccConfig::default();
    let session = Arc::new(RwrSession::with_config(graph.clone(), params, cfg));
    let r_max_f = 1.0 / (10.0 * graph.num_edges().max(1) as f64);
    let nt = workload::cores();

    // The workload's own read stream, first connection, distinct requests.
    let mut stream = Stream::new(c.spec, c.inputs, 0, crate::LABEL_TIMED);
    let mut ops: Vec<Op> = Vec::new();
    let mut guard = 0;
    while ops.len() < REPLAY_MAX && guard < 100_000 {
        guard += 1;
        let op = stream.next_op();
        if op.write.is_none()
            && !ops
                .iter()
                .any(|o| o.source == op.source && o.seed == op.seed)
        {
            ops.push(op);
        }
    }
    let budget = Instant::now() + REPLAY_BUDGET;
    let mut problems = Vec::new();
    let mut counts = Vec::new();
    let (mut phase_sum, mut program_sum, mut session_sum) = (0.0, 0.0, 0.0);
    let mut results = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        if i >= REPLAY_MIN && Instant::now() >= budget {
            break;
        }
        let trace = i as u64 + 1;
        let q = tr.open("core::session::query", trace, None);
        let res = session.query(op.source, op.seed);
        let q_ms = tr.close(q);
        tr.timed_child("core::resacc::phases (own timings)", q, res.timings.total());
        let own = res.timings.total().as_secs_f64() * 1e3;
        program_sum += own;
        session_sum += q_ms;
        // The engine's phases composed from their public functions, in the
        // engine's order.
        let mut state = ForwardState::new(n);
        let comp = tr.open("core::resacc::compose", trace, None);
        let s = tr.open("core::resacc::h_hop_fwd", trace, Some(comp));
        let hh = h_hop_fwd(
            &graph,
            op.source,
            ALPHA,
            cfg.r_max_hop,
            Scope::HopLimited(cfg.h),
            cfg.use_loop_accumulation,
            &mut state,
        );
        let mut phases = tr.close(s);
        let s = tr.open("core::resacc::omfwd", trace, Some(comp));
        let of = omfwd(&graph, ALPHA, r_max_f, &hh.boundary, &mut state);
        phases += tr.close(s);
        let residue = state.residue_sum();
        let s = tr.open("core::par::remedy_1t", trace, Some(comp));
        let mut one = state.scores();
        let walks = resacc::monte_carlo::remedy_parallel(
            &graph,
            &state,
            &params,
            cfg.walk_scale,
            op.seed,
            1,
            &mut one,
            &Cancel::never(),
        )
        .map_err(|e| e.to_string())?;
        phases += tr.close(s);
        tr.close(comp);
        let s = tr.open("core::par::remedy_nt", trace, None);
        let mut many = state.scores();
        resacc::monte_carlo::remedy_parallel(
            &graph,
            &state,
            &params,
            cfg.walk_scale,
            op.seed,
            nt,
            &mut many,
            &Cancel::never(),
        )
        .map_err(|e| e.to_string())?;
        tr.close(s);
        phase_sum += phases;

        if !oracle::bit_identical(&one, &res.scores) {
            problems.push(format!("h_hop_fwd -> omfwd -> remedy_parallel differs from RwrSession::query for source {}", op.source));
        }
        if !oracle::bit_identical(&many, &one) {
            problems.push(format!(
                "remedy_parallel at {nt} threads differs from 1 thread for source {}",
                op.source
            ));
        }
        let need = oracle::walks_needed(
            res.residue_sum_final,
            params.epsilon,
            params.delta,
            params.p_f,
        );
        if walks < need || res.walks != walks {
            problems.push(format!(
                "{walks} remedy walks for residue {}: the guarantee needs {need}",
                res.residue_sum_final
            ));
        }
        counts.push((hh.pushes, of.pushes, residue, walks));
        results.push((
            op.clone(),
            res.scores,
            q_ms,
            res.timings.total().as_secs_f64() * 1e3,
        ));
    }
    let phase_sum_ratio = phase_sum / program_sum;
    let session_phase_ratio = program_sum / session_sum;
    if (phase_sum_ratio - 1.0).abs() > PHASE_TOLERANCE {
        problems.push(format!(
            "traced phase spans sum to {phase_sum_ratio:.3}x the program's own phase timings"
        ));
    }
    if !(1.0 - PHASE_TOLERANCE..=1.0).contains(&session_phase_ratio) {
        problems.push(format!(
            "the program's phase timings are {session_phase_ratio:.3}x the RwrSession::query spans"
        ));
    }

    // Tracing overhead: the same queries timed with and without a span
    // around each call, alternating which goes first.
    let (mut traced, mut untraced) = (0.0, 0.0);
    for (i, (op, ..)) in results.iter().take(REPLAY_MIN).enumerate() {
        let plain = || {
            let t = Instant::now();
            std::hint::black_box(session.query(op.source, op.seed));
            t.elapsed().as_secs_f64() * 1e3
        };
        let spanned = |tr: &mut Tracer| {
            let s = tr.open("core::session::query", 4000 + i as u64, None);
            std::hint::black_box(session.query(op.source, op.seed));
            tr.close(s)
        };
        if i % 2 == 0 {
            untraced += plain();
            traced += spanned(&mut tr);
        } else {
            traced += spanned(&mut tr);
            untraced += plain();
        }
    }
    let overhead_pct = (traced - untraced) / untraced * 100.0;

    // Scheduler: a miss runs the engine behind the queue; a repeat hits.
    let scheduler = Scheduler::new(
        session.clone(),
        SchedulerConfig {
            workers: 1,
            threads_per_query: 1,
            ..SchedulerConfig::default()
        },
    );
    let (mut miss_over, mut hits) = (Vec::new(), Vec::new());
    for (i, (op, scores, _, _)) in results.iter().take(REPLAY_MIN).enumerate() {
        let request = QueryRequest {
            id: i as u64,
            source: op.source,
            seed: Some(op.seed),
            ..QueryRequest::default()
        };
        let trace = 1000 + i as u64;
        // The miss is bracketed by two direct runs of the same query, so
        // drift in the engine's own time cancels out of the difference.
        let s = tr.open("core::session::query", trace, None);
        session.query(op.source, op.seed);
        let before = tr.close(s);
        let s = tr.open("service::scheduler::query_miss", trace, None);
        let miss = scheduler.query(request).map_err(|e| e.to_string())?;
        let miss_ms = tr.close(s);
        let s = tr.open("core::session::query", trace, None);
        session.query(op.source, op.seed);
        miss_over.push(miss_ms - (before + tr.close(s)) / 2.0);
        let s = tr.open("service::scheduler::query_hit", trace, None);
        let hit = scheduler.query(request).map_err(|e| e.to_string())?;
        hits.push(tr.close(s) * 1e3);
        if !hit.cached
            || !oracle::bit_identical(&hit.scores, scores)
            || !oracle::bit_identical(&miss.scores, scores)
        {
            problems.push(format!(
                "scheduler answer for source {} differs from RwrSession::query",
                op.source
            ));
        }
    }
    drop(scheduler);

    // Cache lookups on hits.
    let cache = ResultCache::new(1024);
    let keys: Vec<CompKey> = results
        .iter()
        .map(|(op, scores, ..)| {
            let key = CompKey {
                source: op.source,
                params_hash: 1,
                version: 0,
                seed: op.seed,
            };
            cache.insert(key, Arc::new(scores.clone()));
            key
        })
        .collect();
    let mut at = 0;
    let get_us = micro(|| {
        at = (at + 1) % keys.len();
        std::hint::black_box(cache.get(&keys[at]));
    });

    // The wire codec on this workload's request and response shapes.
    let (op, scores, ..) = &results[0];
    let request = op.line(0, false);
    let top: Vec<Json> = resacc::topk::top_k(scores, 10)
        .into_iter()
        .map(|(v, s)| Json::Arr(vec![Json::u64(v as u64), Json::f64(s)]))
        .collect();
    let response = Json::Obj(vec![
        ("id".into(), Json::u64(op.id)),
        ("ok".into(), Json::Bool(true)),
        ("version".into(), Json::u64(0)),
        ("seed".into(), Json::u64(op.seed)),
        ("cached".into(), Json::Bool(true)),
        ("latency_ns".into(), Json::u64(123_456)),
        ("top".into(), Json::Arr(top)),
    ]);
    let parse_us = micro(|| {
        std::hint::black_box(Json::parse(std::hint::black_box(&request)).ok());
    });
    let render_us = micro(|| {
        std::hint::black_box(std::hint::black_box(&response).render());
    });

    // Dynamic upgrades: a cached vector rolled forward across one insert.
    let arcs = write_arcs(c);
    let dynamic = RwrSession::with_config(graph.clone(), params, cfg);
    let (mut upgrade_ok, mut upgrade_tried) = (0, 0);
    for (i, ((op, ..), &(u, v))) in results.iter().zip(&arcs).take(REPLAY_MIN).enumerate() {
        let (res, from) = dynamic.query_versioned(op.source, op.seed);
        dynamic
            .apply_mutation(&MutationOp::InsertEdges(vec![(u, v)]))
            .map_err(|e| e.to_string())?;
        let s = tr.open("core::dynamic::try_upgrade", 2000 + i as u64, None);
        let up = dynamic.try_upgrade_scores(&res.scores, from, workload::DYNAMIC_DELTA);
        tr.close(s);
        upgrade_tried += 1;
        if up.is_ok_and(|(u, _)| u.err_bound <= workload::DYNAMIC_EPS) {
            upgrade_ok += 1;
        }
    }

    // Durable mutations with the routed primary's settings.
    let wal_dir = c.dir.join("trace-wal");
    let opts = DurabilityOptions {
        fsync: true,
        group_commit: true,
        group_commit_window_ms: 0,
        ..DurabilityOptions::default()
    };
    let g0 = graph.clone();
    let recovered =
        durability::open_dir(&wal_dir, opts, move || Ok(g0)).map_err(|e| e.to_string())?;
    let durable = RwrSession::from_recovered(recovered, params, cfg);
    for (i, &(u, v)) in arcs.iter().take(REPLAY_MIN).enumerate() {
        let s = tr.open("core::durability::apply", 3000 + i as u64, None);
        durable
            .apply_mutation(&MutationOp::InsertEdges(vec![(u, v)]))
            .map_err(|e| e.to_string())?;
        tr.close(s);
    }
    let store = durable
        .durability()
        .ok_or("durable session without a store")?;
    let store = (
        store.records_appended() as f64,
        store.batches_committed() as f64,
        store.commit_nanos() as f64,
        store.bytes_appended() as f64,
    );

    Ok(Replay {
        load_ms,
        counts,
        phase_sum_ratio,
        session_phase_ratio,
        overhead_pct,
        miss_overhead_ms: med(miss_over),
        hit_us: med(hits),
        get_us,
        parse_us,
        render_us,
        upgrade_ok,
        upgrade_tried,
        store,
        replayed: results.len(),
        queries: results.iter().map(|r| (r.2, r.3)).collect(),
        problems,
        tracer: tr,
    })
}

/// Arcs for the replay's mutations: the workload's own writes when it has
/// any, else seed-derived ones.
fn write_arcs(c: &Context) -> Vec<(u32, u32)> {
    let mut arcs: Vec<(u32, u32)> = c
        .logs
        .iter()
        .flat_map(|l| l.acked_arcs.iter().map(|&(_, u, v)| (u, v)))
        .take(REPLAY_MIN)
        .collect();
    let mut rng = Rng::new(derive(c.inputs.key, 0xa4c5));
    let n = c.inputs.graph.n as u64;
    while arcs.len() < REPLAY_MIN {
        let (u, v) = (rng.below(n) as u32, rng.below(n) as u32);
        if u != v {
            arcs.push((u, v));
        }
    }
    arcs
}

/// The per-layer metrics, and the traced run's failed property checks.
/// An `Err` means the traced run could not be carried out.
pub fn run(c: &Context) -> Result<(Vec<Metric>, Vec<String>), String> {
    let k = counters(c)?;
    let (read_relay, write_wait, direct_writes) = relay(c)?;
    let r = replay(c)?;
    let tr = &r.tracer;

    eprintln!(
        "perfbench: traced replay of {} ({} queries), per layer:",
        c.spec.name, r.replayed
    );
    eprintln!(
        "{:<34} {:>6} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, count, total, own) in tr.self_times() {
        eprintln!("{name:<34} {count:>6} {total:>12.3} {own:>12.3}");
    }
    let out =
        PathBuf::from(".perfbench_run").join(format!("trace-{}-{}.jsonl", c.spec.name, c.seed));
    tr.write(&out)?;

    let col = |f: fn(&(u64, u64, f64, u64)) -> f64| med(r.counts.iter().map(f).collect());
    let remedy_1t = med(tr.durations("core::par::remedy_1t"));
    let remedy_nt = med(tr.durations("core::par::remedy_nt"));
    // The replay's own session spans, and per call the span minus the
    // program's three phase timings of that same call.
    let query = med(r.queries.iter().map(|q| q.0).collect());
    let session_self = med(r.queries.iter().map(|q| q.0 - q.1).collect());

    let upgrade_ratio = if c.spec.write_share > 0.0 {
        k.upgrades / (k.upgrades + k.fallbacks).max(1.0)
    } else {
        r.upgrade_ok as f64 / r.upgrade_tried.max(1) as f64
    };
    let (appends, batches, commit_ns, bytes) = k.wal.unwrap_or(r.store);
    let lag_max = c.logs.iter().map(|l| l.lag_max).max().unwrap_or(0);
    let bytes_per_record = if c.cluster.replica.is_some() {
        k.bytes_shipped / appends.max(1.0)
    } else {
        0.0
    };

    let samples = c.samples;
    let reads: Vec<f64> = workload::latency(samples, |s| (!s.write).then_some(s.latency_ms));
    let mut writes: Vec<f64> = workload::latency(samples, |s| s.write.then_some(s.latency_ms));
    if writes.is_empty() {
        writes = direct_writes;
    }
    let (write_p50, write_tail) = workload::p50_and_tail(
        writes.clone(),
        crate::stats::tail_quantile_for(writes.len()),
    );
    let server = workload::latency(samples, |s| (!s.write).then_some(s.server_ms));
    let transport = workload::latency(samples, |s| {
        (!s.write).then_some(s.latency_ms - s.server_ms)
    });
    let lateness = workload::latency(samples, |s| Some(s.lateness_ms));
    let lateness_tail = tail(&lateness, c.spec.tail_q);

    let metrics = vec![
        metric("graph.load_ms", r.load_ms, "ms"),
        metric(
            "engine.hhop_ms",
            med(tr.durations("core::resacc::h_hop_fwd")),
            "ms",
        ),
        metric(
            "engine.omfwd_ms",
            med(tr.durations("core::resacc::omfwd")),
            "ms",
        ),
        metric("engine.hhop_pushes", col(|c| c.0 as f64), "count"),
        metric("engine.omfwd_pushes", col(|c| c.1 as f64), "count"),
        metric("engine.residue_after_omfwd", col(|c| c.2), "mass"),
        metric("engine.query_ms", query, "ms"),
        metric("engine.session_self_ms", session_self, "ms"),
        metric("par.remedy_1t_ms", remedy_1t, "ms"),
        metric("par.remedy_nt_ms", remedy_nt, "ms"),
        metric("par.walks", col(|c| c.3 as f64), "count"),
        metric("par.speedup_nt", remedy_1t / remedy_nt, "x"),
        metric(
            "dynamic.upgrade_ms",
            med(tr.durations("core::dynamic::try_upgrade")),
            "ms",
        ),
        metric("dynamic.upgrade_ratio", upgrade_ratio, "ratio"),
        metric(
            "durability.apply_ms",
            med(tr.durations("core::durability::apply")),
            "ms",
        ),
        metric(
            "durability.commit_us_per_record",
            commit_ns / 1e3 / appends.max(1.0),
            "us",
        ),
        metric(
            "durability.records_per_batch",
            appends / batches.max(1.0),
            "count",
        ),
        metric(
            "durability.wal_bytes_per_record",
            bytes / appends.max(1.0),
            "B",
        ),
        metric("replication.bytes_per_record", bytes_per_record, "B"),
        metric("replication.lag_records_max", lag_max as f64, "count"),
        metric("router.read_relay_ms", read_relay, "ms"),
        metric("router.write_ack_wait_ms", write_wait, "ms"),
        metric("router.hedges_per_read", k.hedges_per_read, "ratio"),
        metric("router.retries_per_op", k.retries_per_op, "ratio"),
        metric("cache.hit_ratio", k.hit_ratio, "ratio"),
        metric("cache.get_us", r.get_us, "us"),
        metric("scheduler.hit_us", r.hit_us, "us"),
        metric("scheduler.miss_overhead_ms", r.miss_overhead_ms, "ms"),
        metric("scheduler.coalesced", k.coalesced, "count"),
        metric("server.latency_ms", med(server), "ms"),
        metric("reactor.transport_ms", med(transport), "ms"),
        metric("json.parse_us", r.parse_us, "us"),
        metric("json.render_us", r.render_us, "us"),
        metric("client.read_p50_ms", med(reads), "ms"),
        metric("client.write_p50_ms", write_p50, "ms"),
        metric("client.write_tail_ms", write_tail, "ms"),
        metric("client.lateness_tail_ms", lateness_tail, "ms"),
        metric(
            "client.cpu_ms_per_op",
            c.client_cpu_s * 1e3 / samples.len().max(1) as f64,
            "ms",
        ),
        metric("trace.overhead_pct", r.overhead_pct, "%"),
        metric("trace.phase_sum_ratio", r.phase_sum_ratio, "ratio"),
        metric("trace.session_phase_ratio", r.session_phase_ratio, "ratio"),
        metric("trace.replayed_queries", r.replayed as f64, "count"),
    ];
    Ok((metrics, r.problems))
}
