//! Failover benchmark: emits `BENCH_failover.json`.
//!
//! Wires the full failover topology in-process — the same components
//! `rwr serve` composes, with the replication link routed through the
//! deterministic [`NetFault`] proxy:
//!
//! ```text
//!   P (durable primary, fence hook) ──[NetFault chaos proxy]──► R1 (durable)
//!                                                                │ hub
//!                                                                ▼
//!                                                               R2 (in-memory, chained)
//! ```
//!
//! and measures two scenarios:
//!
//! 1. **chaos shipping**: the whole mutation history streams to R1 through
//!    a frame-sabotaging link (deterministic drops, delays, duplicates,
//!    truncations). Reports the drain time and how many frames were
//!    sabotaged along the way.
//! 2. **partition-triggered failover**: partition the link, let P take
//!    divergent writes nobody acks, promote R1 (drain + durable epoch
//!    bump), fence P with a direct probe, heal, and reconverge with P
//!    rejoined as a replica of R1. Reports promote latency, fence latency
//!    (probe round trip including demotion + tail truncation), and P's
//!    rejoin catch-up time.
//!
//! Gates (hard asserts — the process exits nonzero on violation):
//! - **zero acked-write loss**: R1 is promoted at exactly the last version
//!   a replica acknowledged; nothing acked before the partition vanishes.
//! - **zero fenced writes**: every write attempted on P inside the fence
//!   window bounces with the typed `Fenced` error — none are accepted.
//! - **divergence truncated**: P's unacknowledged divergent tail is
//!   dropped record-for-record, never silently merged.
//! - **bit-identity**: after heal, P, R1, R2, and a clean sequential
//!   reference session (same winning history, no chaos, no failover) all
//!   answer probe queries bit-for-bit identically.
//! - **epoch durability**: the promotion epoch is readable from R1's
//!   durability dir, and the fenced P ends at that same epoch.
//!
//! Env knobs for smoke runs: `RESACC_BENCH_FAILOVER_NODES` (default 2000),
//! `RESACC_BENCH_FAILOVER_MUTATIONS` (default 1500),
//! `RESACC_BENCH_FAILOVER_DIVERGENT` (default 200),
//! `RESACC_BENCH_FAILOVER_WINNING` (default 300),
//! `RESACC_BENCH_FAILOVER_MAX_SECS` (default 120).
//!
//! Output follows the `customSmallerIsBetter` entry shape
//! (`{"name", "value", "unit"}`).

use resacc::durability::{epoch, open_dir, DurabilityOptions, DurabilityError, MutationOp};
use resacc::replication::{
    attach_hub, fence_probe, FenceEvent, FenceHook, NetFault, NetFaultPlan, ReplicaClient,
    ReplicationHub, ReplicationServer, ReplicationStats,
};
use resacc::resacc::ResAccConfig;
use resacc::{RwrParams, RwrSession};
use resacc_bench::emit::{Entry, env_u64, write_entries};
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const PROBE_SOURCE: u32 = 3;
const PROBE_SEED: u64 = 77;
const FENCE_WRITE_ATTEMPTS: u64 = 25;
const CHAOS_PLAN: &str = "drop=97,delay=131:5,dup=61,trunc=191,seed=7";

/// Same deterministic mutation mix as `bench_replication`.
fn nth_op(i: u64, n: u64) -> MutationOp {
    let a = (i * 911 + 17) % n;
    let b = (i * 613 + 31) % n;
    let c = (i * 389 + 7) % n;
    if i % 50 == 49 {
        MutationOp::DeleteNode(a as u32)
    } else if i % 17 == 16 {
        MutationOp::DeleteEdges(vec![(a as u32, b as u32)])
    } else {
        MutationOp::InsertEdges(vec![
            (a as u32, b as u32),
            (b as u32, c as u32),
            (c as u32, (a + 1) as u32 % n as u32),
        ])
    }
}

fn apply_nth(session: &RwrSession, i: u64, n: u64) {
    session
        .apply_mutation(&nth_op(i, n))
        .expect("mutation applies on a writable node");
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("resacc-bench-failover-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn seed_graph(nodes: u64) -> resacc_graph::CsrGraph {
    resacc_graph::gen::barabasi_albert(nodes as usize, 3, 7)
}

fn wait_for_version(session: &RwrSession, version: u64, max_secs: u64, what: &str) -> Duration {
    let start = Instant::now();
    let deadline = start + Duration::from_secs(max_secs);
    while session.version() < version {
        assert!(
            Instant::now() < deadline,
            "{what}: node stuck at version {} waiting for {version} (gate: ≤ {max_secs} s)",
            session.version()
        );
        std::thread::sleep(Duration::from_micros(200));
    }
    start.elapsed()
}

fn bits(session: &RwrSession) -> Vec<u64> {
    session
        .query(PROBE_SOURCE, PROBE_SEED)
        .scores
        .iter()
        .map(|s| s.to_bits())
        .collect()
}

fn assert_bit_identical(a: &RwrSession, b: &RwrSession, what: &str) {
    assert_eq!(a.version(), b.version(), "{what}: version skew");
    assert_eq!(bits(a), bits(b), "{what}: scores diverged — not bit-exact");
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_failover.json".into());
    let nodes = env_u64("RESACC_BENCH_FAILOVER_NODES", 2_000);
    let mutations = env_u64("RESACC_BENCH_FAILOVER_MUTATIONS", 1_500);
    let divergent = env_u64("RESACC_BENCH_FAILOVER_DIVERGENT", 200);
    let winning = env_u64("RESACC_BENCH_FAILOVER_WINNING", 300);
    let max_secs = env_u64("RESACC_BENCH_FAILOVER_MAX_SECS", 120);
    eprintln!(
        "failover topology: {mutations} chaos mutations, {divergent} divergent, {winning} winning, {nodes}-node graph"
    );
    let opts = DurabilityOptions {
        fsync: false,
        snapshot_every: 0, ..Default::default()
    };

    // R1: the promotion target — durable, with its own hub + server so it
    // can lead after the failover (R2 chains from it the whole time).
    let rdir = fresh_dir("r1");
    let rec = open_dir(&rdir, opts, || Ok(seed_graph(nodes))).expect("r1 dir opens");
    let params = RwrParams::for_graph(rec.graph.num_nodes());
    let mut r1 = RwrSession::from_recovered(rec, params, ResAccConfig::default());
    let r1_hub = Arc::new(ReplicationHub::new(r1.version()));
    attach_hub(&mut r1, r1_hub.clone());
    let r1 = Arc::new(r1);
    let r1_server = ReplicationServer::spawn(
        TcpListener::bind("127.0.0.1:0").expect("loopback bind"),
        r1.clone(),
        r1_hub,
        Arc::new(ReplicationStats::default()),
    )
    .expect("r1 replication server spawns");

    // P: the original primary. Its fence hook is the service wiring
    // reproduced at library level: count write attempts made inside the
    // fence window, truncate the divergent tail, rejoin the new leader.
    let pdir = fresh_dir("p");
    let rec = open_dir(&pdir, opts, || Ok(seed_graph(nodes))).expect("p dir opens");
    let params = RwrParams::for_graph(rec.graph.num_nodes());
    let mut p = RwrSession::from_recovered(rec, params, ResAccConfig::default());
    let p_hub = Arc::new(ReplicationHub::new(p.version()));
    attach_hub(&mut p, p_hub.clone());
    let p = Arc::new(p);
    let p_stats = Arc::new(ReplicationStats::default());
    let fenced_accepted = Arc::new(AtomicU64::new(0));
    let fenced_bounced = Arc::new(AtomicU64::new(0));
    let truncated = Arc::new(AtomicU64::new(0));
    let rejoin: Arc<std::sync::Mutex<Option<ReplicaClient>>> =
        Arc::new(std::sync::Mutex::new(None));
    let hook: FenceHook = {
        let session = p.clone();
        let stats = p_stats.clone();
        let fenced_accepted = fenced_accepted.clone();
        let fenced_bounced = fenced_bounced.clone();
        let truncated = truncated.clone();
        let rejoin = rejoin.clone();
        Arc::new(move |e: FenceEvent| {
            // The fence window: demotion has not completed, so the old
            // primary must accept NOTHING. Hammer it and count.
            for _ in 0..FENCE_WRITE_ATTEMPTS {
                match session.apply_mutation(&MutationOp::InsertEdges(vec![(1, 3)])) {
                    Err(DurabilityError::Fenced { .. }) => {
                        fenced_bounced.fetch_add(1, Ordering::SeqCst);
                    }
                    Ok(_) => {
                        fenced_accepted.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(_) => {}
                }
            }
            let max_acked = stats.max_acked.load(Ordering::Acquire);
            let dropped = session
                .demote_to(e.leader_version, max_acked)
                .expect("unacked divergent tail truncates cleanly");
            truncated.store(dropped, Ordering::SeqCst);
            session.clear_fence();
            if !e.leader.is_empty() {
                *rejoin.lock().unwrap() = Some(ReplicaClient::spawn(
                    e.leader.clone(),
                    session.clone(),
                    Arc::new(ReplicationStats::default()),
                ));
            }
        })
    };
    let p_server = ReplicationServer::spawn_with_hook(
        TcpListener::bind("127.0.0.1:0").expect("loopback bind"),
        p.clone(),
        p_hub,
        p_stats.clone(),
        Some(hook),
    )
    .expect("p replication server spawns");

    // R1 follows P through the deterministic chaos proxy; R2 chains off R1
    // directly (clean link) and never stops following it.
    let plan = NetFaultPlan::parse(CHAOS_PLAN).expect("chaos plan parses");
    let proxy = NetFault::spawn(
        TcpListener::bind("127.0.0.1:0").expect("loopback bind"),
        p_server.addr().to_string(),
        plan,
    )
    .expect("netfault proxy spawns");
    let r1_stats = Arc::new(ReplicationStats::default());
    let mut r1_client = ReplicaClient::spawn(proxy.addr().to_string(), r1.clone(), r1_stats.clone());
    let r2 = Arc::new(RwrSession::new(seed_graph(nodes)));
    let r2_client = ReplicaClient::spawn(
        r1_server.addr().to_string(),
        r2.clone(),
        Arc::new(ReplicationStats::default()),
    );

    // The clean reference: the winning history applied sequentially with no
    // replication, no chaos, no failover — what everyone must equal bitwise.
    let reference = RwrSession::new(seed_graph(nodes));

    // Scenario 1: the whole history ships through the sabotaged link.
    let start = Instant::now();
    for i in 0..mutations {
        apply_nth(&p, i, nodes);
        apply_nth(&reference, i, nodes);
    }
    let write_time = start.elapsed();
    let chaos_drain = wait_for_version(&r1, p.version(), max_secs, "chaos shipping");
    let sabotaged = proxy.frames_sabotaged();
    assert!(
        sabotaged > 0,
        "chaos premise: the plan {CHAOS_PLAN} never sabotaged a frame"
    );
    assert_bit_identical(&p, &r1, "chaos shipping (P vs R1)");
    eprintln!(
        "  chaos shipping: drained {mutations} records in {:.3} s ({sabotaged} frames sabotaged, {} stream errors)",
        chaos_drain.as_secs_f64(),
        r1_stats.stream_errors.load(Ordering::Relaxed),
    );

    // Anchor snapshot at the fork point, so P can truncate back to it.
    p.checkpoint().expect("fork checkpoint");
    let fork = p.version();

    // Scenario 2: partition, divergent writes, promote, fence, heal.
    proxy.partition();
    for i in 0..divergent {
        apply_nth(&p, mutations + 7_000 + i, nodes);
    }
    assert_eq!(p.version(), fork + divergent);

    let start = Instant::now();
    let promoted_at = r1_client.promote();
    let new_epoch = r1.bump_epoch().expect("epoch bump persists");
    let promote_time = start.elapsed();
    assert_eq!(
        promoted_at, fork,
        "acked-write loss: R1 promoted at {promoted_at}, but {fork} records were acknowledged"
    );
    assert_eq!(new_epoch, 1);
    assert_eq!(
        epoch::read_epoch(&rdir).expect("epoch file reads"),
        new_epoch,
        "the promotion epoch must be durable before the leader serves writes"
    );
    for i in 0..winning {
        apply_nth(&r1, mutations + i, nodes);
        apply_nth(&reference, mutations + i, nodes);
    }

    // Fence P directly (the probe is a separate route from the data path).
    // The FENCED ack is written only after the hook completes, so by the
    // time the probe returns, demotion + truncation are done.
    let start = Instant::now();
    assert!(
        fence_probe(
            &p_server.addr().to_string(),
            new_epoch,
            promoted_at,
            &r1_server.addr().to_string(),
        )
        .expect("fence probe reaches P"),
        "the fence probe must win against the stale epoch"
    );
    let fence_time = start.elapsed();

    let accepted = fenced_accepted.load(Ordering::SeqCst);
    let bounced = fenced_bounced.load(Ordering::SeqCst);
    assert_eq!(accepted, 0, "{accepted} write(s) accepted by the fenced old primary");
    assert_eq!(bounced, FENCE_WRITE_ATTEMPTS, "fence-window attempts went missing");
    assert_eq!(
        truncated.load(Ordering::SeqCst),
        divergent,
        "divergent tail not truncated record-for-record"
    );

    // Heal the old link and wait for P (rejoined as a replica of R1) to
    // catch up past the fork.
    proxy.heal();
    let rejoin_time = wait_for_version(&p, r1.version(), max_secs, "rejoin catch-up");
    wait_for_version(&r2, r1.version(), max_secs, "chained replica catch-up");
    assert_bit_identical(&r1, &p, "post-heal (R1 vs P)");
    assert_bit_identical(&r1, &r2, "post-heal (R1 vs R2)");
    assert_bit_identical(&r1, &reference, "post-heal (R1 vs clean reference)");
    assert_eq!(p.epoch(), new_epoch, "P did not adopt the fencing epoch");
    eprintln!(
        "  failover: promote {:.3} ms, fence {:.3} ms, rejoin catch-up {:.3} s",
        promote_time.as_secs_f64() * 1e3,
        fence_time.as_secs_f64() * 1e3,
        rejoin_time.as_secs_f64(),
    );

    let entries = [
        Entry {
            name: format!("failover/chaos drain ({mutations} records)"),
            value: chaos_drain.as_nanos() as f64,
            unit: "ns".into(),
        },
        Entry {
            name: "failover/chaos write time under shipping".into(),
            value: write_time.as_nanos() as f64,
            unit: "ns".into(),
        },
        Entry {
            name: "failover/promote latency (drain + durable epoch bump)".into(),
            value: promote_time.as_nanos() as f64,
            unit: "ns".into(),
        },
        Entry {
            name: "failover/fence latency (probe + demote + truncate)".into(),
            value: fence_time.as_nanos() as f64,
            unit: "ns".into(),
        },
        Entry {
            name: format!("failover/rejoin catch-up ({winning} records past fork)"),
            value: rejoin_time.as_nanos() as f64,
            unit: "ns".into(),
        },
        Entry {
            name: "failover/writes accepted while fenced".into(),
            value: accepted as f64, // hard-gated to zero above
            unit: "count".into(),
        },
        Entry {
            name: "failover/acked records lost".into(),
            value: (fork - promoted_at) as f64, // hard-gated to zero above
            unit: "records".into(),
        },
        Entry {
            name: "failover/bit-identity violations".into(),
            value: 0.0, // hard-asserted above, recorded for the dashboard
            unit: "count".into(),
        },
    ];

    write_entries(&out_path, &entries);

    if let Some(c) = rejoin.lock().unwrap().take() {
        c.shutdown();
    }
    r2_client.shutdown();
    proxy.shutdown();
    p_server.shutdown();
    r1_server.shutdown();
    std::fs::remove_dir_all(&pdir).ok();
    std::fs::remove_dir_all(&rdir).ok();
}
