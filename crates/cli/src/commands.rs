//! `rwr` subcommand implementations.

use crate::args::Cli;
use resacc::bippr::{bippr, BipprConfig};
use resacc::engine::{ForaEngine, ForwardSearchEngine, MonteCarloEngine, PowerEngine};
use resacc::resacc::{ResAcc, ResAccConfig};
use resacc::{RwrParams, SsrwrEngine};
use resacc_eval::timing::time_it;
use resacc_graph::CsrGraph;

/// Loads the graph: binary if the path ends in `.racg`, else text edge list.
fn load_graph(cli: &Cli) -> Result<CsrGraph, String> {
    let graph = if cli.graph.ends_with(".racg") {
        resacc_graph::binary::load(&cli.graph)
    } else {
        resacc_graph::edgelist::load_edge_list(&cli.graph, None, cli.symmetric)
    }
    .map_err(|e| format!("loading {}: {e}", cli.graph))?;
    if graph.num_nodes() == 0 {
        return Err("graph is empty".into());
    }
    Ok(graph)
}

/// One request line → one response line against a live server,
/// honoring `--timeout-ms` for both the connect and the read (0 = wait
/// forever).
fn client_exchange(cli: &Cli, request: &str) -> Result<resacc_service::json::Json, String> {
    use resacc_service::client::{self, ExchangeError};
    use resacc_service::json::Json;
    let addr = &cli.addr;
    let timeout = client::timeout_from_ms(cli.timeout_ms);
    let mut conn =
        client::connect(addr, timeout).map_err(|e| format!("connecting to {addr}: {e}"))?;
    let line = client::exchange_split(&mut conn, request, timeout).map_err(|e| match e {
        ExchangeError::PreWrite(e) => format!("sending to {addr}: {e}"),
        ExchangeError::PostWrite(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
            format!("{addr} closed the connection")
        }
        ExchangeError::PostWrite(e) => format!("reading from {addr}: {e}"),
    })?;
    Json::parse(&line).map_err(|e| format!("bad response from {addr}: {e}"))
}

fn params_for(cli: &Cli, graph: &CsrGraph) -> RwrParams {
    let n = graph.num_nodes().max(2) as f64;
    RwrParams::new(cli.alpha, cli.epsilon, 1.0 / n, 1.0 / n)
}

fn engine_for(cli: &Cli) -> Box<dyn SsrwrEngine> {
    // `--threads` is a pure latency knob: the chunked-stream RNG contract
    // guarantees bit-identical output at any thread count.
    let threads = cli.threads.max(1);
    match cli.algo.as_str() {
        "fora" => Box::new(ForaEngine::default()),
        "mc" => Box::new(MonteCarloEngine {
            walks: None,
            threads,
        }),
        "power" => Box::new(PowerEngine::default()),
        "fwd" => Box::new(ForwardSearchEngine { r_max: 1e-8 }),
        _ => Box::new(ResAcc::new(ResAccConfig::default().with_threads(threads))),
    }
}

/// `rwr query`: single-source query, print the top-k nodes. With `--addr`
/// the query runs remotely against a live server (or router) instead of a
/// local graph file.
pub fn query(cli: &Cli) -> Result<(), String> {
    if cli.addr_set {
        return remote_query(cli);
    }
    let graph = load_graph(cli)?;
    if cli.source as usize >= graph.num_nodes() {
        return Err(format!(
            "source {} out of range (graph has {} nodes)",
            cli.source,
            graph.num_nodes()
        ));
    }
    let params = params_for(cli, &graph);
    let engine = engine_for(cli);
    let (top, elapsed) =
        time_it(|| engine.ssrwr_top_k(&graph, cli.source, &params, cli.top, cli.seed));
    println!(
        "# {} query from node {} on {} nodes / {} edges ({:.4}s)",
        engine.name(),
        cli.source,
        graph.num_nodes(),
        graph.num_edges(),
        elapsed.as_secs_f64()
    );
    println!("{:>6} {:>10} {:>14}", "rank", "node", "pi");
    for (rank, (node, score)) in top.iter().enumerate() {
        println!("{:>6} {:>10} {:>14.8}", rank + 1, node, score);
    }
    Ok(())
}

/// `rwr pair`: pairwise proximity via BiPPR.
pub fn pair(cli: &Cli) -> Result<(), String> {
    let graph = load_graph(cli)?;
    for (label, id) in [("source", cli.source), ("target", cli.target)] {
        if id as usize >= graph.num_nodes() {
            return Err(format!("{label} {id} out of range"));
        }
    }
    let params = params_for(cli, &graph);
    let (r, elapsed) = time_it(|| {
        bippr(
            &graph,
            cli.source,
            cli.target,
            &params,
            &BipprConfig::default(),
            cli.seed,
        )
    });
    println!(
        "pi({}, {}) ≈ {:.8}   (backward reserve {:.8}, {} walks, {} backward pushes, {:.4}s)",
        cli.source,
        cli.target,
        r.estimate,
        r.backward_reserve,
        r.walks,
        r.backward_pushes,
        elapsed.as_secs_f64()
    );
    Ok(())
}

/// Rejects namespace names the server would not accept either, before
/// they are interpolated into a JSON request line (a quote or backslash
/// would otherwise produce a malformed request, and the server would
/// report bad json instead of the real problem).
fn checked_namespace(cli: &Cli) -> Result<Option<&str>, String> {
    match cli.namespace.as_deref() {
        Some(ns) if !resacc::durability::valid_namespace(ns) => Err(format!(
            "invalid namespace {ns:?}: need 1-64 chars of [a-z0-9_-]"
        )),
        other => Ok(other),
    }
}

/// Remote `rwr query --addr`: send the query over NDJSON, print top-k.
fn remote_query(cli: &Cli) -> Result<(), String> {
    use resacc_service::json::Json;
    let ns_field = match checked_namespace(cli)? {
        Some(ns) => format!(",\"namespace\":\"{ns}\""),
        None => String::new(),
    };
    let request = format!(
        "{{\"id\":1,\"op\":\"query\",\"source\":{},\"seed\":{},\"k\":{}{ns_field}}}",
        cli.source, cli.seed, cli.top
    );
    let response = client_exchange(cli, &request)?;
    if response.get("ok").and_then(Json::as_bool) != Some(true) {
        let detail = response
            .get("detail")
            .and_then(Json::as_str)
            .or_else(|| response.get("error").and_then(Json::as_str))
            .unwrap_or("malformed response");
        return Err(format!("query {}: {detail}", cli.addr));
    }
    let version = response.get("version").and_then(Json::as_u64).unwrap_or(0);
    let stale = response.get("stale").and_then(Json::as_bool).unwrap_or(false);
    println!(
        "# remote query from node {} via {} (version {version}{})",
        cli.source,
        cli.addr,
        if stale { ", STALE" } else { "" }
    );
    println!("{:>6} {:>10} {:>14}", "rank", "node", "pi");
    if let Some(top) = response.get("top").and_then(Json::as_arr) {
        for (rank, entry) in top.iter().enumerate() {
            let pair = entry.as_arr().unwrap_or(&[]);
            let node = pair.first().and_then(Json::as_u64).unwrap_or(0);
            let score = pair.get(1).and_then(Json::as_f64).unwrap_or(0.0);
            println!("{:>6} {:>10} {:>14.8}", rank + 1, node, score);
        }
    }
    Ok(())
}

/// Remote `rwr stats --addr`: print the server's stats response verbatim
/// (pretty enough as NDJSON; includes the router's backend table when the
/// target is a router).
fn remote_stats(cli: &Cli) -> Result<(), String> {
    use resacc_service::json::Json;
    let request = match checked_namespace(cli)? {
        Some(ns) => format!("{{\"id\":1,\"op\":\"stats\",\"namespace\":\"{ns}\"}}"),
        None => "{\"id\":1,\"op\":\"stats\"}".to_string(),
    };
    let response = client_exchange(cli, &request)?;
    if response.get("ok").and_then(Json::as_bool) != Some(true) {
        let detail = response
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("malformed response");
        return Err(format!("stats {}: {detail}", cli.addr));
    }
    println!("{}", response.render());
    Ok(())
}

/// `rwr stats`: graph summary; with `--addr`, a live server's stats.
pub fn stats(cli: &Cli) -> Result<(), String> {
    if cli.addr_set {
        return remote_stats(cli);
    }
    let graph = load_graph(cli)?;
    let s = resacc_graph::stats::GraphStats::of(&graph);
    let wcc = resacc_graph::components::weakly_connected(&graph);
    println!("{s}");
    println!(
        "weak components: {} (largest {})",
        wcc.count,
        wcc.sizes().into_iter().max().unwrap_or(0)
    );
    let hubs = resacc_graph::stats::top_out_degree_nodes(&graph, 5);
    print!("top out-degree nodes:");
    for h in hubs {
        print!(" {h}({})", graph.out_degree(h));
    }
    println!();
    Ok(())
}

/// `rwr convert`: text edge list → binary `.racg`.
pub fn convert(cli: &Cli) -> Result<(), String> {
    let graph = load_graph(cli)?;
    let out = cli.out.as_deref().expect("validated by parser");
    resacc_graph::binary::save(&graph, out).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "wrote {} ({} nodes, {} edges)",
        out,
        graph.num_nodes(),
        graph.num_edges()
    );
    Ok(())
}

/// `rwr serve`: run the NDJSON/TCP query service until a client sends
/// `{"op":"shutdown"}`.
///
/// Prints `listening on <addr>` (flushed) before accepting, so a parent
/// process using `--listen 127.0.0.1:0` can scrape the ephemeral port.
pub fn serve(cli: &Cli) -> Result<(), String> {
    use resacc::durability::{self, RecoveryStats};
    use resacc::replication::{
        attach_hub, NsResolver, ReplicaClient, ReplicationHub, ReplicationServer,
        ReplicationStats,
    };
    use resacc_service::{TenantSeed, Tenants};
    use std::io::Write;
    use std::sync::Arc;

    let want_hub = cli.replication_listen.is_some();
    let durability_opts = resacc::durability::DurabilityOptions {
        fsync: cli.fsync,
        snapshot_every: cli.snapshot_every,
        group_commit: cli.group_commit_window.is_some(),
        group_commit_window_ms: cli.group_commit_window.unwrap_or(0),
    };
    // Recovers (or freshly creates) one namespace directory into a tenant
    // seed. Non-default namespaces start from an empty graph that
    // `insert_edges` grows; the default tenant seeds from the graph file
    // and is built separately below.
    let open_tenant = {
        let alpha = cli.alpha;
        let epsilon = cli.epsilon;
        move |dir: &std::path::Path| -> Result<TenantSeed, String> {
            let recovered = durability::open_dir(dir, durability_opts, || {
                Ok(resacc_graph::GraphBuilder::new(0).build())
            })
            .map_err(|e| format!("recovering {}: {e}", dir.display()))?;
            let stats = recovered.stats;
            let n = recovered.graph.num_nodes().max(2) as f64;
            let params = RwrParams::new(alpha, epsilon, 1.0 / n, 1.0 / n);
            let mut session =
                resacc::RwrSession::from_recovered(recovered, params, ResAccConfig::default());
            let hub = want_hub.then(|| {
                let hub = Arc::new(ReplicationHub::new(session.version()));
                attach_hub(&mut session, hub.clone());
                hub
            });
            Ok(TenantSeed {
                session: Arc::new(session),
                hub,
                repl_stats: None,
                recovery: stats,
            })
        }
    };
    // With --data-dir the durable state (snapshot + WAL) is authoritative;
    // the graph file only seeds a fresh, empty directory.
    let repl_stats = Arc::new(ReplicationStats::default());
    let default_seed = match cli.data_dir.as_deref() {
        Some(dir) => {
            let recovered =
                resacc::durability::open_dir(std::path::Path::new(dir), durability_opts, || {
                    load_graph(cli).map_err(std::io::Error::other).map_err(Into::into)
                })
                .map_err(|e| format!("recovering {dir}: {e}"))?;
            println!(
                "# recovered version {} from {dir}: {} snapshot(s) loaded, {} WAL record(s) replayed, {} B truncated",
                recovered.version,
                recovered.stats.snapshots_loaded,
                recovered.stats.wal_records_replayed,
                recovered.stats.wal_truncated_bytes
            );
            let stats = recovered.stats;
            let n = recovered.graph.num_nodes().max(2) as f64;
            let params = RwrParams::new(cli.alpha, cli.epsilon, 1.0 / n, 1.0 / n);
            let mut session =
                resacc::RwrSession::from_recovered(recovered, params, ResAccConfig::default());
            let hub = want_hub.then(|| {
                let hub = Arc::new(ReplicationHub::new(session.version()));
                attach_hub(&mut session, hub.clone());
                hub
            });
            TenantSeed {
                session: Arc::new(session),
                hub,
                repl_stats: Some(repl_stats.clone()),
                recovery: stats,
            }
        }
        None => {
            let graph = load_graph(cli)?;
            let params = params_for(cli, &graph);
            let mut session =
                resacc::RwrSession::with_config(graph, params, ResAccConfig::default());
            let hub = want_hub.then(|| {
                let hub = Arc::new(ReplicationHub::new(session.version()));
                attach_hub(&mut session, hub.clone());
                hub
            });
            TenantSeed {
                session: Arc::new(session),
                hub,
                repl_stats: Some(repl_stats.clone()),
                recovery: RecoveryStats::default(),
            }
        }
    };
    let threads_per_query = cli.threads.max(1);
    let faults = match cli.chaos_spec.as_deref() {
        Some(spec) => resacc_service::FaultPlan::parse(spec).map_err(|e| format!("--chaos: {e}"))?,
        None => resacc_service::FaultPlan::default(),
    };
    let mut config = resacc_service::ServerConfig {
        workers: cli.workers,
        cache_capacity: cli.cache,
        batch_max: cli.batch,
        default_k: cli.top,
        queue_cap: cli.queue_cap,
        default_deadline_ms: cli.deadline_ms,
        max_conns: cli.max_conns,
        threads_per_query,
        faults,
        recovery: default_seed.recovery,
        replication: None,
        dynamic_eps: cli.dynamic_eps,
        dynamic_delta: cli.dynamic_delta,
        ..resacc_service::ServerConfig::default()
    };
    // The tenant registry: the default tenant plus every manifest entry,
    // with a factory that backs runtime create_namespace (durable per-ns
    // directories when --data-dir is set, in-memory tenants otherwise).
    let manifest_root = cli.data_dir.clone().map(std::path::PathBuf::from);
    let factory: resacc_service::TenantFactory = match manifest_root.clone() {
        Some(root) => {
            Box::new(move |ns: &str| open_tenant(&durability::namespace_dir(&root, ns)))
        }
        None => {
            let (alpha, epsilon) = (cli.alpha, cli.epsilon);
            Box::new(move |_ns: &str| {
                // In-memory tenants start as empty graphs that insert_edges
                // grows, scoring with the same --alpha/--epsilon the durable
                // factory and the default tenant apply.
                let graph = resacc_graph::GraphBuilder::new(0).build();
                let n = graph.num_nodes().max(2) as f64;
                let params = RwrParams::new(alpha, epsilon, 1.0 / n, 1.0 / n);
                let mut session =
                    resacc::RwrSession::with_config(graph, params, ResAccConfig::default());
                let hub = want_hub.then(|| {
                    let hub = Arc::new(ReplicationHub::new(session.version()));
                    attach_hub(&mut session, hub.clone());
                    hub
                });
                Ok(TenantSeed {
                    session: Arc::new(session),
                    hub,
                    repl_stats: None,
                    recovery: RecoveryStats::default(),
                })
            })
        }
    };
    let tenants = Arc::new(Tenants::new(
        config.scheduler_config(),
        factory,
        manifest_root.clone(),
    ));
    tenants.install(durability::DEFAULT_NAMESPACE, default_seed);
    if let Some(root) = &manifest_root {
        for ns in durability::read_manifest(root)
            .map_err(|e| format!("reading namespace manifest in {}: {e}", root.display()))?
        {
            let dir = durability::namespace_dir(root, &ns);
            let seed = open_tenant(&dir)?;
            println!(
                "# recovered version {} from {}: {} snapshot(s) loaded, {} WAL record(s) replayed, {} B truncated",
                seed.session.version(),
                dir.display(),
                seed.recovery.snapshots_loaded,
                seed.recovery.wal_records_replayed,
                seed.recovery.wal_truncated_bytes
            );
            tenants.install(&ns, seed);
        }
    }
    // The role is built before the replication listener so the listener's
    // fence hook can demote it when a newer epoch arrives.
    let mut replication: Option<Arc<resacc_service::ReplicationRole>> = None;
    if let Some(primary) = cli.replicate_from.as_deref() {
        // A replica of a primary that itself serves replication downstream
        // is valid (chained replication): applied records re-enter the hub
        // through the session observer like any other mutation.
        let default_session = tenants.default_tenant().scheduler.session().clone();
        let client =
            ReplicaClient::spawn(primary.to_string(), default_session, repl_stats.clone());
        println!("# replicating from {primary} (read-only until promote)");
        let role = Arc::new(resacc_service::ReplicationRole::replica(
            primary.to_string(),
            client,
            repl_stats.clone(),
        ));
        // Recovered tenants resume their own streams immediately; tenants
        // created on the primary later are picked up by the poller below.
        for tenant in tenants.all() {
            if tenant.name != durability::DEFAULT_NAMESPACE {
                let client = ReplicaClient::spawn_ns(
                    primary.to_string(),
                    tenant.name.clone(),
                    tenant.scheduler.session().clone(),
                    tenant.repl_stats.clone(),
                );
                role.set_client(&tenant.name, client);
            }
        }
        replication = Some(role);
    } else if cli.replication_listen.is_some() {
        replication = Some(Arc::new(resacc_service::ReplicationRole::primary(
            repl_stats.clone(),
        )));
    }
    let mut repl_server = None;
    if let Some(listen) = cli.replication_listen.as_deref() {
        let listener = std::net::TcpListener::bind(listen)
            .map_err(|e| format!("binding replication listener {listen}: {e}"))?;
        let repl_addr = listener.local_addr().map_err(|e| e.to_string())?;
        let hook: resacc::replication::FenceHook = {
            let tenants = tenants.clone();
            let role = replication.clone().expect("role exists when listening");
            Arc::new(move |e: resacc::replication::FenceEvent| {
                // A newer epoch fenced one tenant. Leadership moves per
                // process, so the write role demotes on the first event
                // (and again if the leader changes); each namespace then
                // truncates its own divergent unacknowledged WAL tail back
                // to the leader's fork point and rejoins as a replica. If
                // acked records would be lost, the tenant refuses: it
                // stays fenced and read-only until an operator intervenes.
                let Some(tenant) = tenants.get(&e.namespace) else {
                    return;
                };
                if !role.is_read_only()
                    || (!e.leader.is_empty() && role.primary_addr() != e.leader)
                {
                    role.demote(e.epoch, e.leader.clone(), None);
                }
                let session = tenant.scheduler.session().clone();
                let acked = tenant
                    .repl_stats
                    .max_acked
                    .load(std::sync::atomic::Ordering::SeqCst);
                match session.demote_to(e.leader_version, acked) {
                    Ok(dropped) => {
                        session.clear_fence();
                        if !e.leader.is_empty() {
                            let client = ReplicaClient::spawn_ns(
                                e.leader.clone(),
                                e.namespace.clone(),
                                session,
                                tenant.repl_stats.clone(),
                            );
                            role.set_client(&e.namespace, client);
                        }
                        eprintln!(
                            "# fenced at epoch {} ({}): demoted to replica of {:?}, {} divergent record(s) truncated",
                            e.epoch, e.namespace, e.leader, dropped
                        );
                    }
                    Err(err) => {
                        eprintln!(
                            "# fenced at epoch {} ({}) but refusing to demote: {err}",
                            e.epoch, e.namespace
                        );
                    }
                }
            })
        };
        let resolver: Arc<dyn NsResolver> = tenants.clone();
        repl_server = Some(
            ReplicationServer::spawn_multi(listener, resolver, Some(hook))
                .map_err(|e| format!("replication listener: {e}"))?,
        );
        if let Some(role) = &replication {
            // Announced as the leader by fence probes after a promotion.
            role.set_self_addr(repl_addr.to_string());
        }
        println!("replication listening on {repl_addr}");
        std::io::stdout().flush().ok();
    }
    // A replica mirrors the primary's namespace *set*, not just its data:
    // tenants created or dropped on the primary after the streams started
    // appear here too, each with its own replication stream. The thread
    // exists whenever this process has a replication role at all — not
    // just when it *started* as a replica — because an ex-primary that is
    // fenced and demoted becomes a follower at runtime and must pick up
    // tenants created on the new leader (it may be promoted back later).
    // While the node is writable the loop just idles.
    let ns_poll_stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut ns_poller = None;
    if let Some(role) = replication.clone() {
        let tenants = tenants.clone();
        let stop = ns_poll_stop.clone();
        ns_poller = std::thread::Builder::new()
            .name("ns-poll".into())
            .spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    if role.is_read_only() {
                        let target = role.primary_addr();
                        if !target.is_empty() {
                            if let Ok(remote) = resacc::replication::fetch_ns_list(&target) {
                                sync_tenant_set(&tenants, &role, &target, &remote);
                            }
                        }
                    }
                    for _ in 0..5 {
                        if stop.load(std::sync::atomic::Ordering::Relaxed) {
                            return;
                        }
                        std::thread::sleep(std::time::Duration::from_millis(100));
                    }
                }
            })
            .ok();
    }
    let listener = std::net::TcpListener::bind(&cli.listen)
        .map_err(|e| format!("binding {}: {e}", cli.listen))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    {
        let tenant = tenants.default_tenant();
        let session = tenant.scheduler.session();
        let g = session.graph();
        println!(
            "# serving {} nodes / {} edges with {} workers, cache {}, {} thread(s)/query{}",
            g.num_nodes(),
            g.num_edges(),
            cli.workers,
            cli.cache,
            threads_per_query,
            match tenants.count() {
                1 => String::new(),
                n => format!(", {n} namespaces"),
            }
        );
    }
    if !config.faults.is_empty() {
        println!("# CHAOS fault plan active: {}", config.faults);
    }
    if cli.dynamic_eps > 0.0 {
        println!(
            "# dynamic cache upgrades: eps={}, delta={}",
            cli.dynamic_eps, cli.dynamic_delta
        );
    }
    println!("listening on {addr}");
    std::io::stdout().flush().ok();
    config.replication = replication;
    let served = resacc_service::serve_tenants(listener, tenants, config)
        .map_err(|e| format!("serve: {e}"));
    ns_poll_stop.store(true, std::sync::atomic::Ordering::Relaxed);
    if let Some(poller) = ns_poller {
        poller.join().ok();
    }
    // Stop shipping to replicas only after the front end has drained.
    if let Some(server) = repl_server {
        server.shutdown();
    }
    served
}

/// Mirrors the primary's namespace set onto a replica: creates missing
/// tenants (each immediately attached to its own replication stream) and
/// drops local tenants the primary no longer lists. Runs on the replica's
/// `ns-poll` thread.
fn sync_tenant_set(
    tenants: &resacc_service::Tenants,
    role: &resacc_service::ReplicationRole,
    primary: &str,
    remote: &[String],
) {
    use resacc::durability::DEFAULT_NAMESPACE;
    use resacc::replication::ReplicaClient;
    for ns in remote {
        if ns != DEFAULT_NAMESPACE && tenants.get(ns).is_none() {
            match tenants.create(ns) {
                Ok(tenant) => {
                    let client = ReplicaClient::spawn_ns(
                        primary.to_string(),
                        ns.clone(),
                        tenant.scheduler.session().clone(),
                        tenant.repl_stats.clone(),
                    );
                    role.set_client(ns, client);
                    eprintln!("# namespace {ns:?} created to follow {primary}");
                }
                Err(err) => eprintln!("# namespace {ns:?} create: {err}"),
            }
        }
    }
    for ns in tenants.list() {
        if ns != DEFAULT_NAMESPACE && !remote.contains(&ns) {
            drop(role.remove_client(&ns));
            match tenants.drop_ns(&ns) {
                Ok(_) => eprintln!("# namespace {ns:?} dropped (dropped on primary)"),
                Err(err) => eprintln!("# namespace {ns:?} drop: {err}"),
            }
        }
    }
}

/// `rwr promote`: flip a running read replica to writable via its admin op.
///
/// `--fence <repl-addr>` overrides which replication listener the newly
/// promoted server probes to fence the old primary (default: the address
/// the replica was following).
pub fn promote(cli: &Cli) -> Result<(), String> {
    use resacc_service::json::Json;
    let request = match cli.fence.as_deref() {
        Some(target) => format!("{{\"id\":1,\"op\":\"promote\",\"fence\":\"{target}\"}}"),
        None => "{\"id\":1,\"op\":\"promote\"}".to_string(),
    };
    let response = client_exchange(cli, &request)?;
    if response.get("ok").and_then(Json::as_bool) == Some(true) {
        let version = response.get("version").and_then(Json::as_u64).unwrap_or(0);
        let epoch = response.get("epoch").and_then(Json::as_u64).unwrap_or(0);
        println!(
            "promoted {} to primary at version {version}, epoch {epoch}",
            cli.addr
        );
        Ok(())
    } else {
        let detail = response
            .get("detail")
            .and_then(Json::as_str)
            .or_else(|| response.get("error").and_then(Json::as_str))
            .unwrap_or("malformed response");
        Err(format!("promote {}: {detail}", cli.addr))
    }
}

/// `rwr netfault`: run a deterministic fault proxy in front of a
/// replication listener. Replicas point `--replicate-from` at the proxy;
/// the proxy forwards frames to `--addr`, sabotaging them per the
/// `--chaos` plan. Stdin drives link state: `partition` blackholes both
/// directions (connections stay open — a half-open link, not a reset),
/// `heal` restores flow, `quit` exits.
///
/// Prints `netfault listening on <addr>` (flushed) before accepting, so a
/// parent process using `--listen 127.0.0.1:0` can scrape the port.
pub fn netfault(cli: &Cli) -> Result<(), String> {
    use resacc::replication::{NetFault, NetFaultPlan};
    use std::io::{BufRead, Write};
    let plan = match cli.chaos_spec.as_deref() {
        Some(spec) => NetFaultPlan::parse(spec).map_err(|e| format!("--chaos: {e}"))?,
        None => NetFaultPlan::default(),
    };
    let listener = std::net::TcpListener::bind(&cli.listen)
        .map_err(|e| format!("binding {}: {e}", cli.listen))?;
    let fault = NetFault::spawn(listener, cli.addr.clone(), plan)
        .map_err(|e| format!("netfault proxy: {e}"))?;
    if !plan.is_empty() {
        println!("# NETFAULT plan active: {plan}");
    }
    println!("netfault listening on {} -> {}", fault.addr(), cli.addr);
    std::io::stdout().flush().ok();
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|e| format!("reading stdin: {e}"))?;
        match line.trim() {
            "partition" => {
                fault.partition();
                println!("partitioned");
            }
            "heal" => {
                fault.heal();
                println!("healed");
            }
            "quit" => break,
            "" => continue,
            other => println!("# unknown netfault command {other:?} (partition|heal|quit)"),
        }
        std::io::stdout().flush().ok();
    }
    println!(
        "# netfault done: {} frame(s) forwarded, {} sabotaged",
        fault.frames_forwarded(),
        fault.frames_sabotaged()
    );
    fault.shutdown();
    Ok(())
}

/// `rwr router`: run the resilient routing front-end until a client sends
/// `{"op":"shutdown"}`.
///
/// Prints `listening on <addr>` (flushed) before accepting, same as
/// `serve`, so a parent using `--listen 127.0.0.1:0` can scrape the port.
pub fn router(cli: &Cli) -> Result<(), String> {
    use std::io::Write;
    let shards = cli
        .shards
        .iter()
        .map(|spec| resacc_service::router::ShardSpec::parse(spec))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("--shard: {e}"))?;
    let config = resacc_service::RouterConfig {
        shards,
        probe_interval_ms: cli.probe_interval_ms,
        breaker_threshold: cli.breaker_threshold,
        breaker_cooldown_ms: cli.breaker_cooldown_ms,
        retry_budget: cli.retry_budget,
        hedge_quantile: cli.hedge_quantile,
        hedge_min_ms: cli.hedge_min_ms,
        park_ms: cli.park_ms,
        read_timeout_ms: if cli.timeout_ms > 0 { cli.timeout_ms } else { 5000 },
        sync_acks: cli.sync_acks,
        sync_ack_timeout_ms: cli.sync_ack_timeout_ms,
        auto_failover: cli.auto_failover,
        max_conns: cli.max_conns,
        seed: cli.seed,
        ..resacc_service::RouterConfig::new(cli.backends.clone())
    };
    let listener = std::net::TcpListener::bind(&cli.listen)
        .map_err(|e| format!("binding {}: {e}", cli.listen))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    if config.shards.is_empty() {
        println!(
            "# routing over {} backend(s): {}",
            config.backends.len(),
            config.backends.join(", ")
        );
    } else {
        for shard in &config.shards {
            println!(
                "# shard {} over {} backend(s): {}",
                shard.name(),
                shard.backends.len(),
                shard.backends.join(", ")
            );
        }
    }
    println!("listening on {addr}");
    std::io::stdout().flush().ok();
    resacc_service::router::serve(listener, config).map_err(|e| format!("router: {e}"))
}

/// `rwr loadgen`: drive Zipfian query load against a running server and
/// print the latency/throughput/cache report.
pub fn loadgen(cli: &Cli) -> Result<(), String> {
    let report = resacc_service::loadgen::run(&resacc_service::loadgen::LoadgenConfig {
        addr: cli.addr.clone(),
        requests: cli.requests,
        connections: cli.connections,
        zipf_s: cli.zipf,
        sources: cli.sources,
        seed: cli.seed,
        per_request_seeds: cli.per_request_seeds,
        k: cli.top,
        deadline_ms: cli.deadline_ms,
        threads: cli.threads,
        write_mix: cli.write_mix,
        delete_mix: cli.delete_mix,
        chaos: cli.chaos,
        shutdown_after: cli.shutdown_after,
        timeout_ms: cli.timeout_ms,
        via_router: cli.via_router,
        namespaces: cli.namespaces,
        ns_skew: cli.ns_skew,
        namespace: cli.namespace.clone(),
    })
    .map_err(|e| format!("loadgen against {}: {e}", cli.addr))?;
    print!("{}", report.render_text());
    // A read-your-writes violation is never acceptable, chaos or not: the
    // router promised `min_version` semantics and silently broke them.
    if report.min_version_violations > 0 {
        return Err(format!(
            "{} min_version violations (stale non-annotated reads)",
            report.min_version_violations
        ));
    }
    // Typed errors (shed / deadline / panic from fault plans; timeout /
    // unavailable / in_doubt from a router under chaos) are *expected*
    // outcomes of a chaos run; anything beyond them is a transport or
    // protocol failure and always fails the run.
    let typed = report.shed
        + report.timeouts
        + report.panics
        + report.net_timeouts
        + report.unavailable
        + report.in_doubt;
    let hard = report.errors.saturating_sub(typed);
    if hard > 0 {
        return Err(format!("{hard} untyped errors (connection or protocol)"));
    }
    if !cli.chaos && report.errors > 0 {
        return Err(format!(
            "{} errors without --chaos (shed {}, timeouts {}, panics {}, net timeouts {}, unavailable {}, in_doubt {})",
            report.errors,
            report.shed,
            report.timeouts,
            report.panics,
            report.net_timeouts,
            report.unavailable,
            report.in_doubt
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Command;

    fn cli_for(graph_path: &str, command: Command) -> Cli {
        Cli {
            command,
            graph: graph_path.into(),
            out: None,
            source: 0,
            target: 2,
            algo: "resacc".into(),
            top: 5,
            alpha: 0.2,
            epsilon: 0.5,
            seed: 1,
            symmetric: false,
            listen: "127.0.0.1:0".into(),
            addr: String::new(),
            workers: 2,
            cache: 16,
            batch: 8,
            requests: 20,
            connections: 2,
            zipf: 1.0,
            sources: 4,
            per_request_seeds: false,
            deadline_ms: 0,
            queue_cap: 4096,
            max_conns: 256,
            threads: 0,
            chaos_spec: None,
            chaos: false,
            shutdown_after: false,
            data_dir: None,
            snapshot_every: 512,
            fsync: true,
            replication_listen: None,
            replicate_from: None,
            fence: None,
            write_mix: 0.0,
            delete_mix: 0.0,
            dynamic_eps: 0.0,
            dynamic_delta: 1e-4,
            group_commit_window: None,
            timeout_ms: 0,
            via_router: false,
            backends: Vec::new(),
            probe_interval_ms: 50,
            retry_budget: 4,
            hedge_quantile: 0.95,
            hedge_min_ms: 2,
            park_ms: 5000,
            breaker_threshold: 3,
            breaker_cooldown_ms: 250,
            sync_acks: true,
            sync_ack_timeout_ms: 1000,
            auto_failover: true,
            namespace: None,
            namespaces: 1,
            ns_skew: 1.0,
            shards: Vec::new(),
            addr_set: false,
        }
    }

    /// A graph file of the calling test's own: tests run in parallel and
    /// each removes its file when done.
    fn temp_edge_list(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("resacc-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("g-{tag}-{}.txt", std::process::id()));
        let g = resacc_graph::gen::cycle(6);
        resacc_graph::edgelist::save_edge_list(&g, &path).unwrap();
        path
    }

    #[test]
    fn query_pair_stats_run_end_to_end() {
        let path = temp_edge_list("e2e");
        let p = path.to_string_lossy().to_string();
        assert!(query(&cli_for(&p, Command::Query)).is_ok());
        assert!(pair(&cli_for(&p, Command::Pair)).is_ok());
        assert!(stats(&cli_for(&p, Command::Stats)).is_ok());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn convert_roundtrip() {
        let path = temp_edge_list("convert");
        let out = path.with_extension("racg");
        let mut cli = cli_for(&path.to_string_lossy(), Command::Convert);
        cli.out = Some(out.to_string_lossy().to_string());
        convert(&cli).unwrap();
        // Query the binary file directly.
        let cli2 = cli_for(&out.to_string_lossy(), Command::Query);
        assert!(query(&cli2).is_ok());
        std::fs::remove_file(path).ok();
        std::fs::remove_file(out).ok();
    }

    #[test]
    fn out_of_range_source_rejected() {
        let path = temp_edge_list("range");
        let mut cli = cli_for(&path.to_string_lossy(), Command::Query);
        cli.source = 999;
        assert!(query(&cli).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn missing_file_rejected() {
        let cli = cli_for("/nonexistent/file.txt", Command::Stats);
        assert!(stats(&cli).is_err());
    }

    #[test]
    fn every_algo_flag_works() {
        let path = temp_edge_list("algos");
        for algo in ["resacc", "fora", "mc", "power", "fwd"] {
            for threads in [0, 4] {
                let mut cli = cli_for(&path.to_string_lossy(), Command::Query);
                cli.algo = algo.into();
                cli.threads = threads;
                assert!(query(&cli).is_ok(), "algo {algo} threads {threads}");
            }
        }
        std::fs::remove_file(path).ok();
    }
}
