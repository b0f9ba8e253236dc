//! Background work inside the coordinator's wait windows: a strict `begin`
//! installs pending commits while it waits out its read timestamp's
//! uncertainty, a piggybacked truncation watermark is only published and its
//! log entries are applied by the next wait or `begin`, `quiesce` truncates
//! every redo log, a primary that dies between the publish and the apply
//! loses nothing, and a commit in flight across a promotion is refused.

use std::sync::Arc;
use std::time::Duration;

use farm_core::{Engine, EngineConfig, NodeId};
use farm_kernel::ClusterConfig;
use farm_memory::{Addr, RegionId};
use farm_net::LatencyModel;

/// An engine whose background thread cannot race the assertions.
fn quiet_engine(cluster: ClusterConfig, config: EngineConfig) -> Arc<Engine> {
    let config = EngineConfig {
        gc_interval: Duration::from_secs(3600),
        ..config
    };
    Engine::start(farm_core::Cluster::start(cluster), config)
}

/// A region whose primary is not `coordinator`.
fn remote_region(engine: &Arc<Engine>, coordinator: NodeId) -> RegionId {
    engine
        .cluster()
        .regions()
        .into_iter()
        .find(|&r| engine.cluster().primary_of(r) != Some(coordinator))
        .expect("multi-node cluster has a remote region")
}

fn backups_of(engine: &Arc<Engine>, region: RegionId) -> Vec<NodeId> {
    engine
        .cluster()
        .replicas_of(region)
        .into_iter()
        .skip(1)
        .collect()
}

/// The committed version visible at `node`'s replica of `addr`'s region
/// (0 when the replica has no slab/slot yet).
fn replica_ts(engine: &Arc<Engine>, node: NodeId, addr: Addr) -> u64 {
    engine
        .cluster()
        .node(node)
        .regions()
        .get(addr.region)
        .and_then(|r| r.slot(addr).ok())
        .map(|s| s.header_snapshot().ts)
        .unwrap_or(0)
}

/// Allocates `n` objects in `region`, committed and settled everywhere.
fn setup(engine: &Arc<Engine>, coordinator: NodeId, region: RegionId, n: usize) -> Vec<Addr> {
    let node = engine.node(coordinator);
    let mut tx = node.begin();
    let addrs = (0..n)
        .map(|_| tx.alloc_in(region, vec![0u8; 32]).unwrap())
        .collect();
    tx.commit().unwrap();
    engine.quiesce();
    addrs
}

#[test]
fn strict_begin_installs_inside_its_wait_and_reads_in_the_past() {
    let engine = quiet_engine(ClusterConfig::test(3), EngineConfig::default());
    let node = engine.node(NodeId(0));
    let region = remote_region(&engine, NodeId(0));
    let addr = setup(&engine, NodeId(0), region, 1)[0];

    let mut tx = node.begin();
    tx.write(addr, vec![7u8; 32]).unwrap();
    tx.commit().unwrap();
    assert_eq!(node.pending_installs(), 1);
    let before = node.stats();

    let mut next = node.begin();
    assert_eq!(node.pending_installs(), 0, "begin left installs pending");
    let lower = node.handle().clock().time().unwrap().lower;
    assert!(
        lower >= next.read_ts(),
        "read timestamp {} not in the past (lower bound {lower})",
        next.read_ts()
    );
    let stats = node.stats().delta(&before);
    assert!(
        stats.background_read_wait_units + stats.background_backstop_units >= 1,
        "the install ran in the wait or at the backstop: {stats:?}"
    );
    assert_eq!(next.read(addr).unwrap()[0], 7);
    engine.shutdown();
}

#[test]
fn piggyback_publishes_and_the_next_begin_applies() {
    let engine = quiet_engine(ClusterConfig::test(3), EngineConfig::default());
    let node = engine.node(NodeId(0));
    let region = remote_region(&engine, NodeId(0));
    let backups = backups_of(&engine, region);
    assert!(!backups.is_empty());
    let addrs = setup(&engine, NodeId(0), region, 2);
    let (x, y) = (addrs[0], addrs[1]);

    // T1 commits and installs: its truncation is covered by the watermark
    // but not delivered anywhere yet.
    let mut t1 = node.begin();
    t1.write(x, vec![1u8; 32]).unwrap();
    let t1_ts = t1.commit().unwrap().write_ts.unwrap();
    node.drain_pending_installs();
    assert!(node.truncation_watermark() >= t1_ts);

    // T2's LOCK and COMMIT-BACKUP verbs piggyback the watermark. With no
    // injected latency there is no wait, so nothing applies it: the backups
    // hold T1's entry and their replicas still show the old version.
    let mut t2 = node.begin();
    t2.write(y, vec![2u8; 32]).unwrap();
    t2.commit().unwrap();
    for &b in &backups {
        assert!(node.delivered_truncation(b) >= t1_ts, "{b} not published");
        assert!(
            engine.node(b).backup_log_len() >= 2,
            "{b} dropped T1's entry at the piggyback"
        );
        assert!(
            replica_ts(&engine, b, x) < t1_ts,
            "{b} applied at the piggyback"
        );
    }

    // The next begin applies what was published.
    let _t3 = node.begin();
    for &b in &backups {
        assert_eq!(replica_ts(&engine, b, x), t1_ts, "{b} never applied T1");
    }
    engine.shutdown();
}

#[test]
fn a_commit_applies_published_truncations_during_its_flights() {
    // Long flights (sleeps, not spins) so a descheduled test thread cannot
    // miss the window.
    let latency = LatencyModel {
        rdma_read_ns: 20_000_000,
        rdma_write_ns: 20_000_000,
        rpc_ns: 20_000_000,
        ..LatencyModel::zero()
    };
    let config = EngineConfig {
        latency,
        ..EngineConfig::default()
    };
    let engine = quiet_engine(ClusterConfig::test(3), config);
    let node = engine.node(NodeId(0));
    let region = remote_region(&engine, NodeId(0));
    let backups = backups_of(&engine, region);
    let addrs = setup(&engine, NodeId(0), region, 2);
    let (x, y) = (addrs[0], addrs[1]);

    let mut t1 = node.begin();
    t1.write(x, vec![1u8; 32]).unwrap();
    let t1_ts = t1.commit().unwrap().write_ts.unwrap();
    node.drain_pending_installs();

    let mut t2 = node.begin();
    t2.write(y, vec![2u8; 32]).unwrap();
    let before = node.stats();
    t2.commit().unwrap();
    let stats = node.stats().delta(&before);
    assert!(
        stats.background_flight_units >= 1,
        "no unit ran in a flight"
    );
    for &b in &backups {
        assert_eq!(
            replica_ts(&engine, b, x),
            t1_ts,
            "{b}: the COMMIT-BACKUP flight did not apply T1"
        );
    }
    engine.shutdown();
}

#[test]
fn quiesce_truncates_every_backup_log() {
    let engine = quiet_engine(ClusterConfig::test(4), EngineConfig::default());
    let mut addrs = Vec::new();
    for n in 0..4u32 {
        let region = remote_region(&engine, NodeId(n));
        addrs.push((NodeId(n), setup(&engine, NodeId(n), region, 1)[0]));
    }
    for round in 0..20u8 {
        for &(home, addr) in &addrs {
            let mut tx = engine.node(home).begin();
            tx.write(addr, vec![round; 32]).unwrap();
            tx.commit().unwrap();
        }
    }
    assert!(
        engine.nodes().iter().any(|n| n.backup_log_len() > 0),
        "traffic left nothing to truncate"
    );
    engine.quiesce();
    for node in engine.nodes() {
        assert_eq!(node.pending_installs(), 0, "{:?}", node.id());
        assert_eq!(node.backup_log_len(), 0, "{:?}", node.id());
    }
    engine.shutdown();
}

#[test]
fn primary_killed_between_publish_and_apply_loses_nothing() {
    let mut cluster = ClusterConfig::test(4);
    cluster.lease_expiry = Duration::from_millis(1);
    let engine = quiet_engine(cluster, EngineConfig::default());
    let node0 = engine.node(NodeId(0));
    let victim = NodeId(1);
    let region = engine
        .cluster()
        .primaries_on(victim)
        .into_iter()
        .next()
        .expect("node 1 hosts a primary");
    let backups = backups_of(&engine, region);
    let addrs = setup(&engine, NodeId(0), region, 2);
    let (x, y) = (addrs[0], addrs[1]);

    let mut t1 = node0.begin();
    t1.write(x, vec![0xEEu8; 32]).unwrap();
    let t1_ts = t1.commit().unwrap().write_ts.unwrap();
    node0.drain_pending_installs();
    let mut t2 = node0.begin();
    t2.write(y, vec![0x22u8; 32]).unwrap();
    t2.commit().unwrap();
    for &b in &backups {
        assert!(node0.delivered_truncation(b) >= t1_ts);
        assert!(replica_ts(&engine, b, x) < t1_ts, "{b} applied too early");
    }

    // Kill the primary after the publish, before any apply, and reconfigure.
    engine.cluster().kill(victim);
    std::thread::sleep(Duration::from_millis(3));
    for _ in 0..6 {
        engine.cluster().control_round();
    }
    let new_primary = engine.cluster().primary_of(region).unwrap();
    assert_ne!(new_primary, victim, "a backup was promoted");
    assert_eq!(
        replica_ts(&engine, new_primary, x),
        t1_ts,
        "promotion replay missed the published-but-unapplied entry"
    );

    let mut reader = node0.begin();
    assert_eq!(&reader.read(x).unwrap()[..], &[0xEEu8; 32]);
    drop(reader);
    engine.quiesce();
    for node in engine.nodes() {
        assert_eq!(node.backup_log_len(), 0, "{:?}", node.id());
    }
    engine.shutdown();
}

#[test]
fn a_commit_in_flight_across_a_promotion_is_fenced_off() {
    // LOCK lands at the old primary, then the flight outlasts a whole
    // reconfiguration: the promoted backup replays its log before this
    // commit's COMMIT-BACKUP record exists.
    let latency = LatencyModel {
        rdma_read_ns: 0,
        rdma_write_ns: 0,
        rpc_ns: 200_000_000,
        ..LatencyModel::zero()
    };
    let mut cluster = ClusterConfig::test(4);
    cluster.lease_expiry = Duration::from_millis(1);
    let engine = quiet_engine(
        cluster,
        EngineConfig {
            latency,
            ..EngineConfig::default()
        },
    );
    let node0 = engine.node(NodeId(0));
    let victim = NodeId(1);
    let region = engine
        .cluster()
        .primaries_on(victim)
        .into_iter()
        .next()
        .expect("node 1 hosts a primary");
    let x = setup(&engine, NodeId(0), region, 1)[0];

    let result = std::thread::scope(|scope| {
        let committer = scope.spawn(|| {
            let mut tx = node0.begin();
            tx.write(x, vec![0xABu8; 32]).unwrap();
            tx.commit()
        });
        std::thread::sleep(Duration::from_millis(20));
        engine.cluster().kill(victim);
        std::thread::sleep(Duration::from_millis(3));
        for _ in 0..6 {
            engine.cluster().control_round();
        }
        assert_ne!(engine.cluster().primary_of(region), Some(victim));
        committer.join().unwrap()
    });
    let err = result.expect_err("a commit that locked at a replaced primary must not ack");
    assert!(err.is_retryable(), "{err:?}");

    engine.quiesce();
    let mut reader = node0.begin();
    assert_eq!(
        &reader.read(x).unwrap()[..],
        &[0u8; 32],
        "the refused write leaked"
    );
    drop(reader);
    for node in engine.nodes() {
        assert_eq!(node.backup_log_len(), 0, "{:?}", node.id());
    }
    engine.shutdown();
}
