//! Recovery-under-load benchmark: seeded kill/partition schedules against a
//! money-transfer workload, measuring the throughput timeline (1 ms buckets)
//! and the recovery phase spans (suspicion → config commit → drain-barrier
//! lift → full re-replication), with the chaos-harness invariants checked
//! after every schedule.
//!
//! Emits `BENCH_recovery.json`; `scripts/check_bench_regression.py` gates CI
//! on it: zero invariant violations, zero leaked locks, and the full
//! recovery span within budget on every schedule.
//!
//! Schedules are deterministic from their seed. `FARM_CHAOS_SCHEDULES`
//! overrides the schedule count (default 5), `FARM_CHAOS_COOLDOWN_MS` the
//! post-heal load window.

use farm_bench::{env_override, parse_count};
use farm_core::{AbortReason, Engine, EngineConfig, NodeId, TxError, TxOptions};
use farm_kernel::{ClusterConfig, EventKind};
use farm_memory::Addr;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const ACCOUNTS: usize = 24;
const INITIAL: u64 = 1_000;
const WORKERS: usize = 3;

struct ScheduleResult {
    seed: u64,
    victim: NodeId,
    mode: &'static str,
    committed: u64,
    /// (bucket start ms since schedule start, committed txns/s in bucket).
    timeline: Vec<(f64, f64)>,
    /// Suspicion → new configuration committed.
    span_config_ms: f64,
    /// Suspicion → drain barrier lifted (availability restored).
    span_unblocked_ms: f64,
    /// Suspicion → redundancy fully restored.
    span_rereplicated_ms: f64,
    orphans_rolled_forward: u64,
    orphans_rolled_back: u64,
    retries_absorbed: u64,
    backups_caught_up: u64,
    invariant_violations: u64,
    leaked_locks: u64,
}

fn chaos_engine() -> Arc<Engine> {
    let cluster = ClusterConfig {
        regions_per_node: 2,
        auto_control: true,
        control_interval: Duration::from_millis(1),
        // Generous lease so a starved control thread on a shared or
        // single-core runner never suspects a live node.
        lease_expiry: Duration::from_millis(50),
        ..ClusterConfig::test(5)
    };
    Engine::start_cluster(
        cluster,
        EngineConfig {
            gc_interval: Duration::from_millis(2),
            ..EngineConfig::multi_version()
        },
    )
}

fn balance(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8-byte account"))
}

fn setup_accounts(engine: &Arc<Engine>) -> Vec<Addr> {
    let node = engine.node(NodeId(0));
    let regions = engine.cluster().regions();
    let mut tx = node.begin();
    let accounts: Vec<Addr> = (0..ACCOUNTS)
        .map(|i| {
            tx.alloc_in(regions[i % regions.len()], INITIAL.to_le_bytes().to_vec())
                .expect("setup allocation")
        })
        .collect();
    tx.commit().expect("setup commit");
    engine.quiesce();
    accounts
}

fn transfer_worker(
    engine: &Arc<Engine>,
    home: NodeId,
    accounts: &[Addr],
    stop: &AtomicBool,
    committed: &AtomicU64,
    seed: u64,
) {
    let node = engine.node(home);
    let mut rng = StdRng::seed_from_u64(seed);
    while !stop.load(Ordering::Acquire) {
        if !node.is_alive() {
            break;
        }
        let from = rng.gen_range(0..accounts.len());
        let to = rng.gen_range(0..accounts.len());
        if from == to {
            continue;
        }
        let (from_addr, to_addr) = (accounts[from], accounts[to]);
        let result = node.run_transaction(TxOptions::serializable(), |tx| {
            let from_val = balance(&tx.read(from_addr)?);
            if from_val == 0 {
                return Err(TxError::Aborted(AbortReason::UserRequested));
            }
            let to_val = balance(&tx.read(to_addr)?);
            tx.write(from_addr, (from_val - 1).to_le_bytes().to_vec())?;
            tx.write(to_addr, (to_val + 1).to_le_bytes().to_vec())?;
            Ok(())
        });
        if result.is_ok() {
            committed.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn run_schedule(seed: u64, cooldown: Duration) -> ScheduleResult {
    let engine = chaos_engine();
    let accounts = setup_accounts(&engine);
    let mut rng = StdRng::seed_from_u64(seed);
    let cluster_size = engine.cluster().nodes().len() as u32;
    let victim = NodeId(rng.gen_range(0..cluster_size));
    let evict_by_partition = rng.gen_range(0..3u32) == 0;
    let mode = if evict_by_partition {
        "partition"
    } else {
        "kill"
    };

    let stop = Arc::new(AtomicBool::new(false));
    let committed = Arc::new(AtomicU64::new(0));
    let mut workers = Vec::new();
    for w in 0..WORKERS {
        // One worker homed on the victim (its in-flight transactions
        // exercise coordinator death), the rest on survivors.
        let home = if w == 0 {
            victim
        } else {
            NodeId((victim.0 + w as u32) % cluster_size)
        };
        let engine = Arc::clone(&engine);
        let accounts = accounts.clone();
        let stop = Arc::clone(&stop);
        let committed = Arc::clone(&committed);
        workers.push(std::thread::spawn(move || {
            transfer_worker(
                &engine,
                home,
                &accounts,
                &stop,
                &committed,
                seed * 31 + w as u64,
            )
        }));
    }

    let start = Instant::now();
    let mut timeline = Vec::new();
    let mut killed = false;
    let mut healed = false;
    let warmup = Duration::from_millis(30);
    let deadline = Duration::from_secs(10);
    loop {
        let c0 = committed.load(Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(1));
        let c1 = committed.load(Ordering::Relaxed);
        let t = start.elapsed();
        timeline.push((t.as_secs_f64() * 1_000.0, (c1 - c0) as f64 / 0.001));
        if !killed && t > warmup {
            engine.cluster().events().clear();
            if evict_by_partition {
                engine.cluster().faults().partition(vec![(victim, 1)]);
            } else {
                engine.cluster().kill(victim);
            }
            killed = true;
        }
        let rereplicated = engine
            .cluster()
            .events()
            .snapshot()
            .iter()
            .any(|e| matches!(e.kind, EventKind::RereplicationComplete));
        if killed && !healed && rereplicated {
            if evict_by_partition {
                engine.cluster().faults().heal();
            }
            healed = true;
            // Keep load on the recovered cluster for the cooldown window.
            let until = start.elapsed() + cooldown;
            while start.elapsed() < until {
                let c0 = committed.load(Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(1));
                let c1 = committed.load(Ordering::Relaxed);
                timeline.push((
                    start.elapsed().as_secs_f64() * 1_000.0,
                    (c1 - c0) as f64 / 0.001,
                ));
            }
            break;
        }
        if t > deadline {
            break;
        }
    }
    stop.store(true, Ordering::Release);
    for w in workers {
        let _ = w.join();
    }
    engine.quiesce();

    let events = engine.cluster().events();
    let span_ms = |span: Option<Duration>| span.map_or(-1.0, |d| d.as_secs_f64() * 1_000.0);
    let suspected = |k: &EventKind| matches!(k, EventKind::Suspected(_));
    let span_config_ms = span_ms(events.span(suspected, |k| {
        matches!(k, EventKind::ConfigCommitted { .. })
    }));
    let span_unblocked_ms = span_ms(events.span(suspected, |k| {
        matches!(k, EventKind::RegionsUnblocked { .. })
    }));
    let span_rereplicated_ms =
        span_ms(events.span(suspected, |k| matches!(k, EventKind::RereplicationComplete)));

    // ---- Invariants (mirror crates/core/tests/chaos.rs) -----------------
    let mut invariant_violations = 0u64;
    let mut leaked_locks = 0u64;
    if !healed {
        eprintln!("seed {seed}: recovery did not complete within {deadline:?}");
        invariant_violations += 1;
    }
    let survivor = engine.nodes().iter().find(|n| n.is_alive());
    match survivor {
        None => invariant_violations += 1,
        Some(survivor) => {
            let mut tx = survivor.begin();
            let mut sum = 0u64;
            let mut readable = true;
            for &addr in &accounts {
                match tx.read(addr) {
                    Ok(bytes) => sum += balance(&bytes),
                    Err(e) => {
                        eprintln!("seed {seed}: final read of {addr:?} failed: {e:?}");
                        readable = false;
                    }
                }
            }
            if !readable || sum != ACCOUNTS as u64 * INITIAL {
                eprintln!(
                    "seed {seed}: conservation violated: {sum} != {}",
                    ACCOUNTS as u64 * INITIAL
                );
                invariant_violations += 1;
            }
        }
    }
    for node in engine.nodes() {
        if node.pending_installs() != 0 || node.backup_log_len() != 0 {
            eprintln!(
                "seed {seed}: {:?} holds {} pending installs / {} log entries after quiesce",
                node.id(),
                node.pending_installs(),
                node.backup_log_len()
            );
            invariant_violations += 1;
        }
    }
    for &addr in &accounts {
        let Some(primary) = engine.cluster().primary_of(addr.region) else {
            invariant_violations += 1;
            continue;
        };
        if !engine.cluster().node(primary).is_alive() {
            eprintln!(
                "seed {seed}: region {:?} promoted to a dead primary",
                addr.region
            );
            invariant_violations += 1;
            continue;
        }
        let locked = engine
            .cluster()
            .node(primary)
            .regions()
            .ensure(addr.region)
            .slot(addr)
            .map(|s| s.header_snapshot().locked)
            .unwrap_or(true);
        if locked {
            eprintln!("seed {seed}: leaked lock on {addr:?}");
            leaked_locks += 1;
        }
    }

    let stats = engine.aggregate_stats();
    let result = ScheduleResult {
        seed,
        victim,
        mode,
        committed: committed.load(Ordering::Relaxed),
        timeline,
        span_config_ms,
        span_unblocked_ms,
        span_rereplicated_ms,
        orphans_rolled_forward: stats.orphans_rolled_forward,
        orphans_rolled_back: stats.orphans_rolled_back,
        retries_absorbed: stats.retries_absorbed,
        backups_caught_up: stats.backups_caught_up,
        invariant_violations,
        leaked_locks,
    };
    engine.shutdown();
    engine.cluster().shutdown();
    result
}

fn main() {
    let schedules = env_override("FARM_CHAOS_SCHEDULES", parse_count).unwrap_or(5);
    let cooldown =
        Duration::from_millis(env_override("FARM_CHAOS_COOLDOWN_MS", parse_count).unwrap_or(30));

    let mut results = Vec::new();
    for seed in 0..schedules {
        eprintln!("schedule seed {seed}...");
        results.push(run_schedule(seed, cooldown));
    }

    println!("seed,victim,mode,committed,span_config_ms,span_unblocked_ms,span_rereplicated_ms,violations,leaked_locks");
    for r in &results {
        println!(
            "{},{},{},{},{:.2},{:.2},{:.2},{},{}",
            r.seed,
            r.victim.0,
            r.mode,
            r.committed,
            r.span_config_ms,
            r.span_unblocked_ms,
            r.span_rereplicated_ms,
            r.invariant_violations,
            r.leaked_locks
        );
    }

    let schedule_rows: Vec<String> = results
        .iter()
        .map(|r| {
            let timeline: Vec<String> = r
                .timeline
                .iter()
                .map(|(t, rate)| format!("[{t:.1},{rate:.0}]"))
                .collect();
            format!(
                concat!(
                    "    {{\"seed\": {}, \"victim\": {}, \"mode\": \"{}\", ",
                    "\"committed\": {}, ",
                    "\"spans_ms\": {{\"suspect_to_config\": {:.3}, ",
                    "\"suspect_to_unblocked\": {:.3}, ",
                    "\"suspect_to_rereplicated\": {:.3}}}, ",
                    "\"orphans_rolled_forward\": {}, \"orphans_rolled_back\": {}, ",
                    "\"retries_absorbed\": {}, \"backups_caught_up\": {}, ",
                    "\"invariant_violations\": {}, \"leaked_locks\": {}, ",
                    "\"timeline_ms_txps\": [{}]}}"
                ),
                r.seed,
                r.victim.0,
                r.mode,
                r.committed,
                r.span_config_ms,
                r.span_unblocked_ms,
                r.span_rereplicated_ms,
                r.orphans_rolled_forward,
                r.orphans_rolled_back,
                r.retries_absorbed,
                r.backups_caught_up,
                r.invariant_violations,
                r.leaked_locks,
                timeline.join(",")
            )
        })
        .collect();

    let total_violations: u64 = results.iter().map(|r| r.invariant_violations).sum();
    let total_leaked: u64 = results.iter().map(|r| r.leaked_locks).sum();
    let max_recovery_ms = results
        .iter()
        .map(|r| r.span_rereplicated_ms)
        .fold(f64::NEG_INFINITY, f64::max);
    let min_committed = results.iter().map(|r| r.committed).min().unwrap_or(0);
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"chaos_recovery\",\n",
            "  \"cluster\": {{\"nodes\": 5, \"replication\": 3, ",
            "\"regions_per_node\": 2, \"lease_expiry_ms\": 50}},\n",
            "  \"schedules\": [\n{}\n  ],\n",
            "  \"totals\": {{\"schedules\": {}, \"invariant_violations\": {}, ",
            "\"leaked_locks\": {}, \"max_recovery_ms\": {:.3}, ",
            "\"min_committed\": {}}}\n",
            "}}\n"
        ),
        schedule_rows.join(",\n"),
        results.len(),
        total_violations,
        total_leaked,
        max_recovery_ms,
        min_committed
    );
    std::fs::write("BENCH_recovery.json", &json).expect("write BENCH_recovery.json");
    eprintln!("wrote BENCH_recovery.json");
}
