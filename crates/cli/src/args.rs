//! Minimal, dependency-free argument parsing for `rwr`.

/// Usage text shown on parse errors.
pub const USAGE: &str = "\
usage:
  rwr query   --graph <file> --source <id> [options]
  rwr pair    --graph <file> --source <id> --target <id> [options]
  rwr stats   --graph <file> [--symmetric]
  rwr convert --graph <file> --out <file.racg> [--symmetric]
  rwr serve   --graph <file> [--listen <addr>] [--workers <n>] [--cache <n>]
  rwr router  --backends <a,b,...> | --shard <ns=a,b,...> [router options]
  rwr loadgen --addr <addr> [--requests <n>] [--connections <n>] [--zipf <s>]
  rwr promote --addr <addr> [--fence <repl-addr>]
  rwr netfault --listen <addr> --addr <upstream> [--chaos <spec>]

remote mode: query and stats also accept --addr <addr> instead of
--graph to run against a live server (or router) over NDJSON.

options:
  --algo <resacc|fora|mc|power|fwd>   algorithm (default resacc)
  --top <k>                           print top-k nodes (default 10)
  --alpha <f>                         restart probability (default 0.2)
  --epsilon <f>                       relative error target (default 0.5)
  --seed <n>                          RNG seed (default 1)
  --threads <n>                       intra-query threads for the remedy
                                      phase (default 1; results are
                                      bit-identical at any thread count)
  --symmetric                         treat each edge as undirected
  --out <file>                        output path (convert)

serve options:
  --listen <addr>                     bind address (default 127.0.0.1:7171;
                                      port 0 picks an ephemeral port)
  --workers <n>                       query worker threads (default 4)
  --cache <n>                         result-cache capacity (default 1024)
  --batch <n>                         dispatcher micro-batch cap (default 32)
  --deadline-ms <n>                   default per-query deadline (0 = none)
  --queue-cap <n>                     shed load beyond this many in-flight
                                      requests (default 4096; 0 = unbounded)
  --max-conns <n>                     connection cap (default 256)
  --threads <n>                       intra-query threads per engine run
                                      (default 1; capped at cores/workers)
  --chaos <spec>                      fault injection, e.g. panic=10,
                                      delay=16:5,expire=7,cdelay=1:5,
                                      seed=42
  --dynamic-eps <f>                   per-entry error budget for dynamic
                                      cache upgrades across edge mutations
                                      (default 0 = disabled; cached entries
                                      roll forward by offset propagation
                                      while their accumulated error claim
                                      stays below this)
  --dynamic-delta <f>                 offset push threshold δ (default
                                      1e-4; smaller = tighter upgrades,
                                      more push work)
  --data-dir <dir>                    durable mutations: WAL + snapshots in
                                      <dir>, recovered on startup (default:
                                      in-memory only)
  --snapshot-every <n>                snapshot + truncate the WAL every n
                                      mutations (default 512; 0 = only the
                                      shutdown checkpoint)
  --fsync <always|never>              fsync the WAL on every append
                                      (default always; never = durable
                                      against crashes, not power loss)
  --group-commit-window <ms|off>      coalesce concurrent mutation appends
                                      into one batched fsync; acks release
                                      only after the shared fsync (default
                                      off = one fsync per mutation; 0 =
                                      batch only what is already queued)
  --replication-listen <addr>         also serve the WAL-shipping stream to
                                      replicas on <addr> (this process is a
                                      replication primary)
  --replicate-from <addr>             run as a read replica of the primary's
                                      replication listener at <addr>
                                      (requires --data-dir; mutations are
                                      rejected until `rwr promote`)

promote options:
  --addr <addr>                       replica to promote (its NDJSON
                                      address); drains the replication
                                      stream, durably bumps the epoch, and
                                      flips the server writable
  --fence <repl-addr>                 after promoting, probe the old
                                      primary's replication listener at
                                      <repl-addr> directly so it fences
                                      even if its advertised address is
                                      unreachable (default: the address
                                      the replica was following)

netfault options:
  --listen <addr>                     proxy bind address (port 0 picks an
                                      ephemeral port)
  --addr <addr>                       upstream replication listener the
                                      proxy forwards to
  --chaos <spec>                      deterministic frame sabotage, e.g.
                                      drop=17,delay=11:20,dup=5,trunc=43,
                                      seed=7; stdin accepts `partition`,
                                      `heal`, and `quit` lines

router options:
  --backends <a,b,...>                backend NDJSON addresses (primary +
                                      replicas, any order; roles are
                                      discovered by probing); shorthand
                                      for a single --shard *=a,b,...
  --shard <ns1,ns2=a,b,...>           map tenant namespaces to one shard's
                                      backend pool (repeatable; `*` is the
                                      catch-all shard for namespaces no
                                      other shard claims)
  --listen <addr>                     bind address (default 127.0.0.1:7171;
                                      port 0 picks an ephemeral port)
  --probe-interval-ms <n>             health-probe cadence (default 50)
  --retry-budget <n>                  backend attempts per request
                                      (default 4)
  --hedge-quantile <q>                arm the read-hedge timer at this
                                      latency quantile (default 0.95;
                                      0 disables hedging)
  --hedge-min-ms <n>                  hedge-delay floor (default 2)
  --park-ms <n>                       deadline for requests parked on
                                      min_version / failover (default 5000)
  --breaker-threshold <n>             consecutive failures that open a
                                      backend's circuit breaker (default 3)
  --breaker-cooldown-ms <n>           base breaker cooldown, jittered and
                                      doubling per reopen (default 250)
  --sync-acks <on|off>                hold mutation acks until a replica
                                      has applied them — makes failover
                                      lose zero acked writes (default on)
  --sync-ack-timeout-ms <n>           longest one ack waits on semi-sync
                                      before sticky degrade to async
                                      acks (default 1000)
  --auto-failover <on|off>            promote the most-caught-up replica
                                      when the primary stops answering
                                      probes (default on)
  --timeout-ms <n>                    read deadline per backend exchange
                                      (default 5000)
  --seed <n>                          jitter seed (backoff, cooldowns)

client options (query/stats/promote with --addr, loadgen):
  --timeout-ms <n>                    connect/read timeout; a hung server
                                      fails the call typed instead of
                                      blocking forever (default 0 = wait)
  --namespace <ns>                    tenant namespace the request targets
                                      (default: omit the field, which the
                                      server treats as \"default\")

loadgen options:
  --addr <addr>                       server to target (default 127.0.0.1:7171)
  --requests <n>                      total queries (default 1000)
  --connections <n>                   concurrent clients (default 4)
  --zipf <s>                          source skew exponent (default 1.0)
  --sources <n>                       distinct sources drawn (default 64)
  --per-request-seeds                 unique seed per request (defeats cache)
  --deadline-ms <n>                   send a deadline with every query
  --threads <n>                       send a per-request thread hint
                                      (0 = omit; never changes results)
  --write-mix <p>                     fraction of requests sent as
                                      deterministic insert_edges mutations
                                      (default 0; seed-derived endpoints)
  --delete-mix <p>                    fraction of requests sent as
                                      deterministic delete_node mutations
                                      (default 0; exercises the upgrade
                                      fallback/invalidation path)
  --namespaces <n>                    spread traffic over n tenants t0..
                                      t{n-1}, creating and seeding them
                                      first (default 1 = the stream is
                                      byte-identical to pre-tenant runs;
                                      overridden by --namespace)
  --ns-skew <s>                       Zipf exponent of the tenant mix
                                      (default 1.0; 0 = uniform)
  --chaos                             expect typed fault errors (report,
                                      don't fail, on shed/timeout/panic)
  --via-router                        router audit mode: queries after an
                                      acked write carry min_version (read-
                                      your-writes), responses are checked
                                      for violations, and the cache hit
                                      rate sums the router's backends
  --shutdown                          shut the server down after the run and
                                      report drain latency";

/// Subcommands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Command {
    /// Single-source query, print top-k.
    Query,
    /// Pairwise query via BiPPR.
    Pair,
    /// Print graph statistics.
    Stats,
    /// Convert text edge list to binary.
    Convert,
    /// Run the NDJSON/TCP query server.
    Serve,
    /// Run the resilient routing front-end over a backend pool.
    Router,
    /// Drive load against a running server.
    Loadgen,
    /// Promote a running read replica to writable.
    Promote,
    /// Run a deterministic replication-link fault proxy.
    Netfault,
}

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Cli {
    pub command: Command,
    pub graph: String,
    pub out: Option<String>,
    pub source: u32,
    pub target: u32,
    pub algo: String,
    pub top: usize,
    pub alpha: f64,
    pub epsilon: f64,
    pub seed: u64,
    pub symmetric: bool,
    pub listen: String,
    pub addr: String,
    pub workers: usize,
    pub cache: usize,
    pub batch: usize,
    pub requests: u64,
    pub connections: usize,
    pub zipf: f64,
    pub sources: u32,
    pub per_request_seeds: bool,
    pub deadline_ms: u64,
    pub queue_cap: usize,
    pub max_conns: usize,
    pub threads: usize,
    pub chaos_spec: Option<String>,
    pub chaos: bool,
    pub shutdown_after: bool,
    pub data_dir: Option<String>,
    pub snapshot_every: u64,
    pub fsync: bool,
    pub replication_listen: Option<String>,
    pub replicate_from: Option<String>,
    pub fence: Option<String>,
    pub write_mix: f64,
    pub delete_mix: f64,
    pub dynamic_eps: f64,
    pub dynamic_delta: f64,
    pub group_commit_window: Option<u64>,
    pub timeout_ms: u64,
    pub via_router: bool,
    pub backends: Vec<String>,
    pub probe_interval_ms: u64,
    pub retry_budget: u32,
    pub hedge_quantile: f64,
    pub hedge_min_ms: u64,
    pub park_ms: u64,
    pub breaker_threshold: u32,
    pub breaker_cooldown_ms: u64,
    pub sync_acks: bool,
    pub sync_ack_timeout_ms: u64,
    pub auto_failover: bool,
    /// Tenant namespace for client requests (query/stats/loadgen); `None`
    /// omits the wire field, which servers treat as `default`.
    pub namespace: Option<String>,
    /// Loadgen tenant-mix width (1 = single-tenant stream, bit-identical
    /// to pre-namespace runs).
    pub namespaces: usize,
    /// Zipf exponent of the loadgen tenant mix.
    pub ns_skew: f64,
    /// Raw `--shard ns1,ns2=addr1,addr2` specs for the router (parsed by
    /// the service's shard-map grammar; `*` = catch-all).
    pub shards: Vec<String>,
    /// `--addr` was given explicitly (switches query/stats to remote mode).
    pub addr_set: bool,
}

impl Cli {
    /// Parses arguments (already stripped of the program name).
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Cli, String> {
        let mut args = args.peekable();
        let command = match args.next().as_deref() {
            Some("query") => Command::Query,
            Some("pair") => Command::Pair,
            Some("stats") => Command::Stats,
            Some("convert") => Command::Convert,
            Some("serve") => Command::Serve,
            Some("router") => Command::Router,
            Some("loadgen") => Command::Loadgen,
            Some("promote") => Command::Promote,
            Some("netfault") => Command::Netfault,
            Some(other) => return Err(format!("unknown command {other:?}")),
            None => return Err("missing command".into()),
        };
        let mut cli = Cli {
            command,
            graph: String::new(),
            out: None,
            source: 0,
            target: 0,
            algo: "resacc".into(),
            top: 10,
            alpha: 0.2,
            epsilon: 0.5,
            seed: 1,
            symmetric: false,
            listen: "127.0.0.1:7171".into(),
            addr: "127.0.0.1:7171".into(),
            workers: 4,
            cache: 1024,
            batch: 32,
            requests: 1000,
            connections: 4,
            zipf: 1.0,
            sources: 64,
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
        };
        let mut have_source = false;
        let mut have_target = false;
        while let Some(flag) = args.next() {
            let mut value =
                |name: &str| args.next().ok_or_else(|| format!("{name} expects a value"));
            match flag.as_str() {
                "--graph" => cli.graph = value("--graph")?,
                "--out" => cli.out = Some(value("--out")?),
                "--source" => {
                    cli.source = parse_num(&value("--source")?, "--source")?;
                    have_source = true;
                }
                "--target" => {
                    cli.target = parse_num(&value("--target")?, "--target")?;
                    have_target = true;
                }
                "--algo" => cli.algo = value("--algo")?,
                "--top" => cli.top = parse_num(&value("--top")?, "--top")?,
                "--alpha" => cli.alpha = parse_num(&value("--alpha")?, "--alpha")?,
                "--epsilon" => cli.epsilon = parse_num(&value("--epsilon")?, "--epsilon")?,
                "--seed" => cli.seed = parse_num(&value("--seed")?, "--seed")?,
                "--symmetric" | "--undirected" => cli.symmetric = true,
                "--listen" => cli.listen = value("--listen")?,
                "--addr" => {
                    cli.addr = value("--addr")?;
                    cli.addr_set = true;
                }
                "--workers" => cli.workers = parse_num(&value("--workers")?, "--workers")?,
                "--cache" => cli.cache = parse_num(&value("--cache")?, "--cache")?,
                "--batch" => cli.batch = parse_num(&value("--batch")?, "--batch")?,
                "--requests" => cli.requests = parse_num(&value("--requests")?, "--requests")?,
                "--connections" => {
                    cli.connections = parse_num(&value("--connections")?, "--connections")?
                }
                "--zipf" => cli.zipf = parse_num(&value("--zipf")?, "--zipf")?,
                "--sources" => cli.sources = parse_num(&value("--sources")?, "--sources")?,
                "--per-request-seeds" => cli.per_request_seeds = true,
                "--deadline-ms" => {
                    cli.deadline_ms = parse_num(&value("--deadline-ms")?, "--deadline-ms")?
                }
                "--queue-cap" => cli.queue_cap = parse_num(&value("--queue-cap")?, "--queue-cap")?,
                "--max-conns" => cli.max_conns = parse_num(&value("--max-conns")?, "--max-conns")?,
                "--threads" => cli.threads = parse_num(&value("--threads")?, "--threads")?,
                // `--chaos` takes a fault spec for `serve` and `netfault`
                // (which inject the faults) and is a bare flag for `loadgen`
                // (which only classifies the resulting typed errors).
                "--chaos" if matches!(command, Command::Serve | Command::Netfault) => {
                    cli.chaos_spec = Some(value("--chaos")?)
                }
                "--chaos" => cli.chaos = true,
                "--shutdown" => cli.shutdown_after = true,
                "--data-dir" => cli.data_dir = Some(value("--data-dir")?),
                "--snapshot-every" => {
                    cli.snapshot_every =
                        parse_num(&value("--snapshot-every")?, "--snapshot-every")?
                }
                "--replication-listen" => {
                    cli.replication_listen = Some(value("--replication-listen")?)
                }
                "--replicate-from" => cli.replicate_from = Some(value("--replicate-from")?),
                "--fence" => cli.fence = Some(value("--fence")?),
                "--write-mix" => cli.write_mix = parse_num(&value("--write-mix")?, "--write-mix")?,
                "--delete-mix" => {
                    cli.delete_mix = parse_num(&value("--delete-mix")?, "--delete-mix")?
                }
                "--dynamic-eps" => {
                    cli.dynamic_eps = parse_num(&value("--dynamic-eps")?, "--dynamic-eps")?
                }
                "--dynamic-delta" => {
                    cli.dynamic_delta = parse_num(&value("--dynamic-delta")?, "--dynamic-delta")?
                }
                "--group-commit-window" => {
                    cli.group_commit_window = match value("--group-commit-window")?.as_str() {
                        "off" => None,
                        ms => Some(parse_num(ms, "--group-commit-window")?),
                    }
                }
                "--timeout-ms" => {
                    cli.timeout_ms = parse_num(&value("--timeout-ms")?, "--timeout-ms")?
                }
                "--via-router" => cli.via_router = true,
                "--backends" => {
                    cli.backends = value("--backends")?
                        .split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(String::from)
                        .collect()
                }
                "--probe-interval-ms" => {
                    cli.probe_interval_ms =
                        parse_num(&value("--probe-interval-ms")?, "--probe-interval-ms")?
                }
                "--retry-budget" => {
                    cli.retry_budget = parse_num(&value("--retry-budget")?, "--retry-budget")?
                }
                "--hedge-quantile" => {
                    cli.hedge_quantile =
                        parse_num(&value("--hedge-quantile")?, "--hedge-quantile")?
                }
                "--hedge-min-ms" => {
                    cli.hedge_min_ms = parse_num(&value("--hedge-min-ms")?, "--hedge-min-ms")?
                }
                "--park-ms" => cli.park_ms = parse_num(&value("--park-ms")?, "--park-ms")?,
                "--breaker-threshold" => {
                    cli.breaker_threshold =
                        parse_num(&value("--breaker-threshold")?, "--breaker-threshold")?
                }
                "--breaker-cooldown-ms" => {
                    cli.breaker_cooldown_ms =
                        parse_num(&value("--breaker-cooldown-ms")?, "--breaker-cooldown-ms")?
                }
                "--sync-acks" => cli.sync_acks = parse_switch(&value("--sync-acks")?, "--sync-acks")?,
                "--sync-ack-timeout-ms" => {
                    cli.sync_ack_timeout_ms =
                        parse_num(&value("--sync-ack-timeout-ms")?, "--sync-ack-timeout-ms")?
                }
                "--auto-failover" => {
                    cli.auto_failover = parse_switch(&value("--auto-failover")?, "--auto-failover")?
                }
                "--namespace" => cli.namespace = Some(value("--namespace")?),
                "--namespaces" => {
                    cli.namespaces = parse_num(&value("--namespaces")?, "--namespaces")?
                }
                "--ns-skew" => cli.ns_skew = parse_num(&value("--ns-skew")?, "--ns-skew")?,
                "--shard" => cli.shards.push(value("--shard")?),
                "--fsync" => {
                    cli.fsync = match value("--fsync")?.as_str() {
                        "always" => true,
                        "never" => false,
                        other => {
                            return Err(format!(
                                "--fsync expects always|never, got {other:?}"
                            ))
                        }
                    }
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        // query/stats in remote mode (--addr) need no graph file.
        let remote = matches!(command, Command::Query | Command::Stats) && cli.addr_set;
        if cli.graph.is_empty()
            && !remote
            && !matches!(
                command,
                Command::Loadgen | Command::Promote | Command::Netfault | Command::Router
            )
        {
            return Err("--graph is required".into());
        }
        if command == Command::Router && cli.backends.is_empty() && cli.shards.is_empty() {
            return Err("router needs --backends or at least one --shard".into());
        }
        if command == Command::Router && !cli.backends.is_empty() && !cli.shards.is_empty() {
            // --backends is sugar for a lone catch-all shard; mixing the two
            // spellings would silently merge pools, so refuse.
            return Err("use --backends or --shard, not both".into());
        }
        if cli.namespaces == 0 {
            return Err("--namespaces must be at least 1".into());
        }
        if cli.ns_skew < 0.0 {
            return Err("--ns-skew must be non-negative".into());
        }
        if let Some(ns) = &cli.namespace {
            if ns.is_empty() {
                return Err("--namespace must not be empty".into());
            }
        }
        if cli.hedge_quantile > 1.0 {
            return Err("--hedge-quantile must be <= 1".into());
        }
        if cli.zipf < 0.0 {
            return Err("--zipf must be non-negative".into());
        }
        if !(0.0..=1.0).contains(&cli.write_mix) {
            return Err("--write-mix must be in [0,1]".into());
        }
        if !(0.0..=1.0).contains(&cli.delete_mix) {
            return Err("--delete-mix must be in [0,1]".into());
        }
        if cli.dynamic_eps < 0.0 {
            return Err("--dynamic-eps must be non-negative".into());
        }
        if cli.dynamic_delta <= 0.0 {
            return Err("--dynamic-delta must be positive".into());
        }
        if cli.replicate_from.is_some() && cli.data_dir.is_none() {
            // A replica acks only durably-applied records; without a data
            // dir it would have nothing durable to ack from.
            return Err("--replicate-from requires --data-dir".into());
        }
        if matches!(command, Command::Query | Command::Pair) && !have_source {
            return Err("--source is required".into());
        }
        if command == Command::Pair && !have_target {
            return Err("--target is required".into());
        }
        if command == Command::Convert && cli.out.is_none() {
            return Err("--out is required for convert".into());
        }
        if !(cli.alpha > 0.0 && cli.alpha < 1.0) {
            return Err("--alpha must be in (0,1)".into());
        }
        if cli.epsilon <= 0.0 {
            return Err("--epsilon must be positive".into());
        }
        const ALGOS: [&str; 5] = ["resacc", "fora", "mc", "power", "fwd"];
        if !ALGOS.contains(&cli.algo.as_str()) {
            return Err(format!(
                "unknown --algo {:?} (expected one of {ALGOS:?})",
                cli.algo
            ));
        }
        Ok(cli)
    }
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("{flag}: cannot parse {s:?}"))
}

fn parse_switch(s: &str, flag: &str) -> Result<bool, String> {
    match s {
        "on" => Ok(true),
        "off" => Ok(false),
        other => Err(format!("{flag} expects on|off, got {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Cli, String> {
        Cli::parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn full_query_line() {
        let cli = parse(
            "query --graph g.txt --source 5 --algo fora --top 3 --alpha 0.3 --epsilon 0.2 --seed 9 --symmetric",
        )
        .unwrap();
        assert_eq!(cli.command, Command::Query);
        assert_eq!(cli.graph, "g.txt");
        assert_eq!(cli.source, 5);
        assert_eq!(cli.algo, "fora");
        assert_eq!(cli.top, 3);
        assert!((cli.alpha - 0.3).abs() < 1e-12);
        assert!(cli.symmetric);
        assert_eq!(cli.seed, 9);
    }

    #[test]
    fn missing_required_flags() {
        assert!(parse("query --graph g.txt").is_err()); // no source
        assert!(parse("query --source 1").is_err()); // no graph
        assert!(parse("pair --graph g.txt --source 1").is_err()); // no target
        assert!(parse("convert --graph g.txt").is_err()); // no out
        assert!(parse("").is_err());
    }

    #[test]
    fn rejects_bad_values() {
        assert!(parse("query --graph g --source x").is_err());
        assert!(parse("query --graph g --source 1 --alpha 1.5").is_err());
        assert!(parse("query --graph g --source 1 --epsilon 0").is_err());
        assert!(parse("query --graph g --source 1 --algo nope").is_err());
        assert!(parse("blah --graph g").is_err());
        assert!(parse("query --graph g --source 1 --wat 2").is_err());
    }

    #[test]
    fn serve_and_loadgen_lines() {
        let cli = parse("serve --graph g.txt --listen 127.0.0.1:0 --workers 8 --cache 64 --batch 4")
            .unwrap();
        assert_eq!(cli.command, Command::Serve);
        assert_eq!(cli.listen, "127.0.0.1:0");
        assert_eq!(cli.workers, 8);
        assert_eq!(cli.cache, 64);
        assert_eq!(cli.batch, 4);

        // loadgen needs no graph.
        let cli = parse(
            "loadgen --addr 127.0.0.1:9 --requests 50 --connections 2 --zipf 0.8 --sources 16 --per-request-seeds",
        )
        .unwrap();
        assert_eq!(cli.command, Command::Loadgen);
        assert_eq!(cli.addr, "127.0.0.1:9");
        assert_eq!(cli.requests, 50);
        assert_eq!(cli.connections, 2);
        assert!((cli.zipf - 0.8).abs() < 1e-12);
        assert_eq!(cli.sources, 16);
        assert!(cli.per_request_seeds);

        assert!(parse("serve --listen 127.0.0.1:0").is_err()); // no graph
        assert!(parse("loadgen --zipf -1").is_err());
    }

    #[test]
    fn threads_flag_parses_everywhere() {
        // Default is 0: "use the engine/server default" (serial).
        let cli = parse("query --graph g.txt --source 1").unwrap();
        assert_eq!(cli.threads, 0);
        let cli = parse("query --graph g.txt --source 1 --threads 4").unwrap();
        assert_eq!(cli.threads, 4);
        let cli = parse("serve --graph g.txt --threads 8").unwrap();
        assert_eq!(cli.threads, 8);
        let cli = parse("loadgen --addr 127.0.0.1:9 --threads 2").unwrap();
        assert_eq!(cli.threads, 2);
        assert!(parse("query --graph g --source 1 --threads x").is_err());
    }

    #[test]
    fn robustness_flags() {
        let cli = parse(
            "serve --graph g.txt --deadline-ms 250 --queue-cap 100 --max-conns 8 --chaos panic=10,seed=7",
        )
        .unwrap();
        assert_eq!(cli.deadline_ms, 250);
        assert_eq!(cli.queue_cap, 100);
        assert_eq!(cli.max_conns, 8);
        assert_eq!(cli.chaos_spec.as_deref(), Some("panic=10,seed=7"));
        assert!(!cli.chaos, "serve --chaos carries a spec, not the flag");

        let cli = parse("loadgen --chaos --shutdown --deadline-ms 50").unwrap();
        assert!(cli.chaos);
        assert!(cli.shutdown_after);
        assert_eq!(cli.deadline_ms, 50);
        assert!(cli.chaos_spec.is_none());

        // serve --chaos wants a value.
        assert!(parse("serve --graph g.txt --chaos").is_err());
        assert!(parse("serve --graph g.txt --deadline-ms x").is_err());
    }

    #[test]
    fn durability_flags() {
        // Defaults: no data dir, snapshot every 512, fsync on.
        let cli = parse("serve --graph g.txt").unwrap();
        assert_eq!(cli.data_dir, None);
        assert_eq!(cli.snapshot_every, 512);
        assert!(cli.fsync);

        let cli = parse(
            "serve --graph g.txt --data-dir /tmp/d --snapshot-every 64 --fsync never",
        )
        .unwrap();
        assert_eq!(cli.data_dir.as_deref(), Some("/tmp/d"));
        assert_eq!(cli.snapshot_every, 64);
        assert!(!cli.fsync);

        let cli = parse("serve --graph g.txt --fsync always").unwrap();
        assert!(cli.fsync);
        assert!(parse("serve --graph g.txt --fsync sometimes").is_err());
        assert!(parse("serve --graph g.txt --data-dir").is_err());
        assert!(parse("serve --graph g.txt --snapshot-every x").is_err());
    }

    #[test]
    fn group_commit_flags() {
        // Default: group commit off (one fsync per mutation).
        let cli = parse("serve --graph g.txt").unwrap();
        assert_eq!(cli.group_commit_window, None);

        let cli = parse("serve --graph g.txt --group-commit-window 2").unwrap();
        assert_eq!(cli.group_commit_window, Some(2));
        // Window 0 still batches whatever is already queued.
        let cli = parse("serve --graph g.txt --group-commit-window 0").unwrap();
        assert_eq!(cli.group_commit_window, Some(0));
        let cli = parse("serve --graph g.txt --group-commit-window off").unwrap();
        assert_eq!(cli.group_commit_window, None);
        assert!(parse("serve --graph g.txt --group-commit-window soon").is_err());
    }

    #[test]
    fn replication_flags() {
        let cli = parse("serve --graph g.txt --data-dir /tmp/p --replication-listen 127.0.0.1:0")
            .unwrap();
        assert_eq!(cli.replication_listen.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(cli.replicate_from, None);

        let cli = parse("serve --graph g.txt --data-dir /tmp/r --replicate-from 127.0.0.1:7272")
            .unwrap();
        assert_eq!(cli.replicate_from.as_deref(), Some("127.0.0.1:7272"));

        // A replica without durable storage cannot honor the ack contract.
        assert!(parse("serve --graph g.txt --replicate-from 127.0.0.1:7272").is_err());

        // promote needs no graph, only the replica's address.
        let cli = parse("promote --addr 127.0.0.1:7171").unwrap();
        assert_eq!(cli.command, Command::Promote);
        assert_eq!(cli.addr, "127.0.0.1:7171");
        assert_eq!(cli.fence, None);

        // promote --fence names the old primary's replication listener.
        let cli = parse("promote --addr 127.0.0.1:7171 --fence 127.0.0.1:7272").unwrap();
        assert_eq!(cli.fence.as_deref(), Some("127.0.0.1:7272"));

        // loadgen write mix.
        let cli = parse("loadgen --addr 127.0.0.1:9 --write-mix 0.2").unwrap();
        assert!((cli.write_mix - 0.2).abs() < 1e-12);
        assert!(parse("loadgen --write-mix 1.5").is_err());
        assert!(parse("loadgen --write-mix -0.1").is_err());
    }

    #[test]
    fn dynamic_flags() {
        // Defaults: upgrades disabled, δ = 1e-4, no delete traffic.
        let cli = parse("serve --graph g.txt").unwrap();
        assert_eq!(cli.dynamic_eps, 0.0);
        assert!((cli.dynamic_delta - 1e-4).abs() < 1e-18);
        assert_eq!(cli.delete_mix, 0.0);

        let cli = parse("serve --graph g.txt --dynamic-eps 0.01 --dynamic-delta 1e-5").unwrap();
        assert!((cli.dynamic_eps - 0.01).abs() < 1e-12);
        assert!((cli.dynamic_delta - 1e-5).abs() < 1e-18);
        assert!(parse("serve --graph g.txt --dynamic-eps -1").is_err());
        assert!(parse("serve --graph g.txt --dynamic-delta 0").is_err());

        let cli = parse("loadgen --addr 127.0.0.1:9 --write-mix 0.2 --delete-mix 0.05").unwrap();
        assert!((cli.delete_mix - 0.05).abs() < 1e-12);
        assert!(parse("loadgen --delete-mix 2").is_err());
        assert!(parse("loadgen --delete-mix -0.1").is_err());
    }

    #[test]
    fn netfault_lines() {
        // netfault needs no graph; --chaos carries a frame-sabotage spec.
        let cli = parse(
            "netfault --listen 127.0.0.1:0 --addr 127.0.0.1:7272 --chaos drop=17,seed=7",
        )
        .unwrap();
        assert_eq!(cli.command, Command::Netfault);
        assert_eq!(cli.listen, "127.0.0.1:0");
        assert_eq!(cli.addr, "127.0.0.1:7272");
        assert_eq!(cli.chaos_spec.as_deref(), Some("drop=17,seed=7"));
        assert!(!cli.chaos);

        // The spec is optional (a clean proxy still supports partition/heal).
        let cli = parse("netfault --listen 127.0.0.1:0 --addr 127.0.0.1:7272").unwrap();
        assert_eq!(cli.chaos_spec, None);

        // Like serve, a bare --chaos is rejected (it wants a spec value).
        assert!(parse("netfault --listen 127.0.0.1:0 --addr 127.0.0.1:7272 --chaos").is_err());
    }

    #[test]
    fn router_lines() {
        // router needs backends, not a graph.
        let cli = parse(
            "router --backends 127.0.0.1:1,127.0.0.1:2 --listen 127.0.0.1:0 \
             --retry-budget 6 --hedge-quantile 0.5 --hedge-min-ms 1 --park-ms 900 \
             --breaker-threshold 2 --breaker-cooldown-ms 100 --probe-interval-ms 25 \
             --sync-acks off --sync-ack-timeout-ms 400 --auto-failover on \
             --timeout-ms 800 --seed 7",
        )
        .unwrap();
        assert_eq!(cli.command, Command::Router);
        assert_eq!(cli.backends, vec!["127.0.0.1:1", "127.0.0.1:2"]);
        assert_eq!(cli.retry_budget, 6);
        assert!((cli.hedge_quantile - 0.5).abs() < 1e-12);
        assert_eq!(cli.hedge_min_ms, 1);
        assert_eq!(cli.park_ms, 900);
        assert_eq!(cli.breaker_threshold, 2);
        assert_eq!(cli.breaker_cooldown_ms, 100);
        assert_eq!(cli.probe_interval_ms, 25);
        assert!(!cli.sync_acks);
        assert_eq!(cli.sync_ack_timeout_ms, 400);
        assert!(cli.auto_failover);
        assert_eq!(cli.timeout_ms, 800);
        assert_eq!(cli.seed, 7);

        // Defaults mirror RouterConfig::new.
        let cli = parse("router --backends 127.0.0.1:1").unwrap();
        assert_eq!(cli.probe_interval_ms, 50);
        assert_eq!(cli.retry_budget, 4);
        assert!((cli.hedge_quantile - 0.95).abs() < 1e-12);
        assert!(cli.sync_acks);
        assert_eq!(cli.sync_ack_timeout_ms, 1000);
        assert!(cli.auto_failover);

        assert!(parse("router --listen 127.0.0.1:0").is_err()); // no backends
        assert!(parse("router --backends ,").is_err()); // empty list
        assert!(parse("router --backends a --sync-acks maybe").is_err());
        assert!(parse("router --backends a --hedge-quantile 1.5").is_err());
    }

    #[test]
    fn tenant_flags() {
        // Defaults: no namespace pin, single-tenant stream, no shard map.
        let cli = parse("loadgen --addr 127.0.0.1:9").unwrap();
        assert_eq!(cli.namespace, None);
        assert_eq!(cli.namespaces, 1);
        assert!((cli.ns_skew - 1.0).abs() < 1e-12);
        assert!(cli.shards.is_empty());

        let cli = parse("loadgen --addr 127.0.0.1:9 --namespaces 4 --ns-skew 0.5").unwrap();
        assert_eq!(cli.namespaces, 4);
        assert!((cli.ns_skew - 0.5).abs() < 1e-12);
        let cli = parse("query --addr 127.0.0.1:9 --source 1 --namespace t1").unwrap();
        assert_eq!(cli.namespace.as_deref(), Some("t1"));
        let cli = parse("stats --addr 127.0.0.1:9 --namespace t2").unwrap();
        assert_eq!(cli.namespace.as_deref(), Some("t2"));

        assert!(parse("loadgen --namespaces 0").is_err());
        assert!(parse("loadgen --ns-skew -1").is_err());
        assert!(parse("loadgen --namespace").is_err());

        // --shard is repeatable and replaces --backends.
        let cli = parse(
            "router --shard t0,t1=127.0.0.1:1,127.0.0.1:2 --shard *=127.0.0.1:3",
        )
        .unwrap();
        assert_eq!(
            cli.shards,
            vec!["t0,t1=127.0.0.1:1,127.0.0.1:2", "*=127.0.0.1:3"]
        );
        assert!(cli.backends.is_empty());
        // Exactly one of the two spellings.
        assert!(parse("router --backends 127.0.0.1:1 --shard *=127.0.0.1:2").is_err());
        assert!(parse("router").is_err());
    }

    #[test]
    fn client_timeout_and_remote_mode() {
        // Remote query/stats: --addr replaces --graph.
        let cli = parse("stats --addr 127.0.0.1:9 --timeout-ms 500").unwrap();
        assert!(cli.addr_set);
        assert_eq!(cli.timeout_ms, 500);
        assert!(cli.graph.is_empty());
        let cli = parse("query --addr 127.0.0.1:9 --source 3 --timeout-ms 250").unwrap();
        assert!(cli.addr_set);
        assert_eq!(cli.source, 3);
        // Remote query still needs a source; local stats still needs a graph.
        assert!(parse("query --addr 127.0.0.1:9").is_err());
        assert!(parse("stats").is_err());

        let cli = parse("promote --addr 127.0.0.1:9 --timeout-ms 2000").unwrap();
        assert_eq!(cli.timeout_ms, 2000);

        // loadgen: timeout + router audit mode.
        let cli = parse("loadgen --addr 127.0.0.1:9 --timeout-ms 100 --via-router").unwrap();
        assert_eq!(cli.timeout_ms, 100);
        assert!(cli.via_router);
        assert!(!parse("loadgen --addr 127.0.0.1:9").unwrap().via_router);
        assert!(parse("loadgen --timeout-ms x").is_err());
    }

    #[test]
    fn defaults() {
        let cli = parse("stats --graph g.txt").unwrap();
        assert_eq!(cli.algo, "resacc");
        assert_eq!(cli.top, 10);
        assert!((cli.alpha - 0.2).abs() < 1e-12);
        assert!(!cli.symmetric);
    }
}
