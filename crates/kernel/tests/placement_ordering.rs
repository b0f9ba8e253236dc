//! Placement snapshots are published before their version: a reader that
//! sees `placement_version()` move past a change resolves primaries from the
//! changed placement, never from the one before it.
//!
//! A reader thread spins on `placement_version()` + `primary_of` while the
//! test thread kills machines one at a time and runs the control rounds that
//! promote their regions' backups. Before each kill the test records the
//! version the promotion will publish; from that version on, no region may
//! still name the killed machine as its primary.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use farm_kernel::{Cluster, ClusterConfig};
use farm_net::NodeId;

const NODES: usize = 6;

#[test]
fn a_reader_that_sees_a_new_version_sees_the_promoted_primaries() {
    for round in 0..16 {
        let mut cfg = ClusterConfig::test(NODES);
        cfg.lease_expiry = Duration::from_millis(1);
        let cluster = Cluster::start(cfg);
        let regions = cluster.regions();
        // Per machine: the first placement version in which it is dead and
        // so may no longer be anyone's primary (u64::MAX while alive).
        let fenced_from: Arc<Vec<AtomicU64>> =
            Arc::new((0..NODES).map(|_| AtomicU64::new(u64::MAX)).collect());
        let stop = Arc::new(AtomicBool::new(false));
        let reader = {
            let cluster = Arc::clone(&cluster);
            let fenced_from = Arc::clone(&fenced_from);
            let stop = Arc::clone(&stop);
            let regions = regions.clone();
            std::thread::spawn(move || {
                let mut versions_seen = 1;
                let mut last = cluster.placement_version();
                while !stop.load(Ordering::Acquire) {
                    let version = cluster.placement_version();
                    for &region in &regions {
                        let primary = cluster.primary_of(region).expect("region exists");
                        assert!(
                            version < fenced_from[primary.index()].load(Ordering::Acquire),
                            "round {round}: at version {version} {region:?} still names \
                             the killed {primary:?} as its primary"
                        );
                    }
                    if version != last {
                        versions_seen += 1;
                        last = version;
                    }
                }
                versions_seen
            })
        };
        // Node 0 is the configuration manager; kill the others but one, so
        // every region keeps a surviving replica to promote. The victim's
        // promotion is the next placement change.
        for victim in (1..NODES as u32 - 1).map(NodeId) {
            let before = cluster.placement_version();
            fenced_from[victim.index()].store(before + 1, Ordering::Release);
            cluster.kill(victim);
            std::thread::sleep(Duration::from_millis(3));
            while cluster.current_config().contains(victim) {
                cluster.control_round();
            }
            assert!(cluster.placement_version() > before);
            for &r in &regions {
                assert_ne!(cluster.primary_of(r), Some(victim));
            }
        }
        stop.store(true, Ordering::Release);
        let versions_seen = reader.join().expect("reader found a stale primary");
        assert!(versions_seen > 1, "the reader never saw a placement change");
        cluster.shutdown();
    }
}
