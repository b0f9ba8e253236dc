//! A transactional ordered map ("B-tree") with cached internal structure and
//! uncached, transactional leaf reads.
//!
//! The FaRM B-tree caches internal nodes at every server and always reads
//! leaves uncached within the transaction, adding them to the read set
//! (Section 2). We reproduce that split directly: the key → leaf directory
//! is an ordinary shared in-memory ordered map standing in for the cached
//! internal nodes, while each leaf is a FaRM object read and written through
//! the transaction. A stale directory hint is caught by the leaf read (the
//! leaf stores its own key), playing the role of the paper's fence keys.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::Arc;

use farm_core::{Addr, Engine, NodeId, Transaction, TxError};
use parking_lot::RwLock;

use crate::codec::{encode_entries, find_entry};

/// Number of directory stripes. A point lookup read-locks one stripe, so
/// coordinators looking up keys in different stripes write no common lock
/// word.
const STRIPES: usize = 16;
const _: () = assert!(STRIPES.is_power_of_two() && STRIPES > 1);

/// The stripe holding `key`: the top bits of a multiplicative hash, so runs
/// of consecutive keys spread over every stripe.
fn stripe_of(key: u64) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - STRIPES.trailing_zeros())) as usize
}

/// One directory stripe, alone on its cache lines.
#[derive(Debug, Default)]
#[repr(align(128))]
struct Stripe(RwLock<BTreeMap<u64, Addr>>);

/// The cached "internal nodes": key → leaf address, striped by key hash.
#[derive(Debug)]
struct Directory {
    stripes: [Stripe; STRIPES],
}

impl Directory {
    fn new() -> Directory {
        Directory {
            stripes: std::array::from_fn(|_| Stripe::default()),
        }
    }

    fn stripe(&self, key: u64) -> &RwLock<BTreeMap<u64, Addr>> {
        &self.stripes[stripe_of(key)].0
    }

    fn get(&self, key: u64) -> Option<Addr> {
        self.stripe(key).read().get(&key).copied()
    }

    fn insert(&self, key: u64, leaf: Addr) {
        self.stripe(key).write().insert(key, leaf);
    }

    fn remove(&self, key: u64) {
        self.stripe(key).write().remove(&key);
    }

    fn len(&self) -> usize {
        self.stripes.iter().map(|s| s.0.read().len()).sum()
    }

    /// Up to `count` entries with keys `>= start`, ascending: a lazy k-way
    /// merge of the stripes' ranges that holds every stripe's read lock
    /// (taken in stripe order; writers take one lock, so this cannot
    /// deadlock) and costs O(STRIPES + count · log STRIPES).
    fn range(&self, start: u64, count: usize) -> Vec<(u64, Addr)> {
        let guards: Vec<_> = self.stripes.iter().map(|s| s.0.read()).collect();
        let mut ranges: Vec<_> = guards.iter().map(|g| g.range(start..)).collect();
        let mut heads: BinaryHeap<Reverse<(u64, usize, Addr)>> = ranges
            .iter_mut()
            .enumerate()
            .filter_map(|(i, r)| r.next().map(|(&k, &a)| Reverse((k, i, a))))
            .collect();
        let mut out = Vec::new();
        while out.len() < count {
            let Some(Reverse((key, i, leaf))) = heads.pop() else {
                break;
            };
            out.push((key, leaf));
            if let Some((&k, &a)) = ranges[i].next() {
                heads.push(Reverse((k, i, a)));
            }
        }
        out
    }
}

/// A transactional ordered map keyed by `u64`.
#[derive(Debug, Clone)]
pub struct BTree {
    engine: Arc<Engine>,
    /// Cached "internal nodes": key → leaf address. Shared by all machines in
    /// this in-process reproduction, as the cache is kept consistent enough
    /// by construction (leaves are never moved; deletions remove the entry).
    directory: Arc<Directory>,
    /// Round-robin cursor over regions for spreading leaves.
    creator: NodeId,
}

impl BTree {
    /// Creates an empty tree whose leaves will be allocated by transactions
    /// coordinated from any node; `creator` only seeds region placement.
    pub fn create(engine: &Arc<Engine>, creator: NodeId) -> BTree {
        BTree {
            engine: Arc::clone(engine),
            directory: Arc::new(Directory::new()),
            creator,
        }
    }

    /// Number of keys currently indexed.
    pub fn len(&self) -> usize {
        self.directory.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn region_for(&self, key: u64) -> farm_core::RegionId {
        let regions = self.engine.cluster().regions();
        regions[(key as usize) % regions.len()]
    }

    /// Looks up `key` within `tx`.
    pub fn get(&self, tx: &mut Transaction, key: u64) -> Result<Option<Vec<u8>>, TxError> {
        let Some(leaf) = self.directory.get(key) else {
            return Ok(None);
        };
        let data = tx.read(leaf)?;
        Ok(find_entry(&data, &key.to_be_bytes()).map(<[u8]>::to_vec))
    }

    /// Looks up many keys within `tx` using one batched read
    /// ([`Transaction::read_many`]): all resolved leaves are fetched with one
    /// message per destination primary instead of one per key. Results are
    /// returned in input order; keys absent from the directory yield `None`.
    pub fn get_many(
        &self,
        tx: &mut Transaction,
        keys: &[u64],
    ) -> Result<Vec<Option<Vec<u8>>>, TxError> {
        let leaves: Vec<Option<Addr>> = keys.iter().map(|&k| self.directory.get(k)).collect();
        let targets: Vec<Addr> = leaves.iter().filter_map(|l| *l).collect();
        let mut pages = tx.read_many(&targets)?.into_iter();
        let mut out = Vec::with_capacity(keys.len());
        for (key, leaf) in keys.iter().zip(&leaves) {
            out.push(leaf.and_then(|_| {
                let data = pages.next().expect("one page per resolved leaf");
                find_entry(&data, &key.to_be_bytes()).map(<[u8]>::to_vec)
            }));
        }
        Ok(out)
    }

    /// Inserts or updates `key` within `tx`.
    pub fn put(&self, tx: &mut Transaction, key: u64, value: &[u8]) -> Result<(), TxError> {
        let encoded = encode_entries(&[(key.to_be_bytes().to_vec(), value.to_vec())]);
        match self.directory.get(key) {
            Some(leaf) => {
                // Read first so the leaf is in the read set (uncached leaf
                // read), then overwrite.
                let _ = tx.read(leaf)?;
                tx.write(leaf, encoded)
            }
            None => {
                let region = self.region_for(key);
                let leaf = tx.alloc_in(region, encoded)?;
                // Publish the directory hint. If the transaction later
                // aborts, the hint points at an unallocated slot and is
                // repaired lazily by the next reader/writer.
                self.directory.insert(key, leaf);
                Ok(())
            }
        }
    }

    /// Removes `key` within `tx`, returning whether it was present.
    pub fn remove(&self, tx: &mut Transaction, key: u64) -> Result<bool, TxError> {
        let Some(leaf) = self.directory.get(key) else {
            return Ok(false);
        };
        tx.free(leaf)?;
        self.directory.remove(key);
        Ok(true)
    }

    /// Reads up to `count` consecutive keys starting at the first key `>=
    /// start`, returning `(key, value)` pairs. Every leaf is read within
    /// `tx`, so the scan observes one consistent snapshot — the workload of
    /// Figure 15.
    pub fn scan(
        &self,
        tx: &mut Transaction,
        start: u64,
        count: usize,
    ) -> Result<Vec<(u64, Vec<u8>)>, TxError> {
        let targets = self.directory.range(start, count);
        // One batched read for the whole scan window: leaves are grouped by
        // destination primary and fetched with one message per machine.
        let leaves: Vec<Addr> = targets.iter().map(|&(_, a)| a).collect();
        let pages = tx.read_many(&leaves)?;
        Ok(targets
            .into_iter()
            .zip(pages)
            .filter_map(|((key, _leaf), data)| {
                find_entry(&data, &key.to_be_bytes()).map(|v| (key, v.to_vec()))
            })
            .collect())
    }

    /// The node used to seed placement (for documentation purposes).
    pub fn creator(&self) -> NodeId {
        self.creator
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use farm_core::EngineConfig;
    use farm_kernel::ClusterConfig;
    use proptest::prelude::*;

    fn setup(cfg: EngineConfig) -> (Arc<Engine>, BTree) {
        let engine = Engine::start_cluster(ClusterConfig::test(3), cfg);
        let tree = BTree::create(&engine, NodeId(0));
        (engine, tree)
    }

    #[test]
    fn insert_get_scan_remove() {
        let (engine, tree) = setup(EngineConfig::default());
        let node = engine.node(NodeId(0));
        let mut tx = node.begin();
        for k in [5u64, 1, 9, 3, 7] {
            tree.put(&mut tx, k, format!("v{k}").as_bytes()).unwrap();
        }
        tx.commit().unwrap();
        assert_eq!(tree.len(), 5);

        let mut tx = node.begin();
        assert_eq!(tree.get(&mut tx, 3).unwrap(), Some(b"v3".to_vec()));
        assert_eq!(tree.get(&mut tx, 4).unwrap(), None);
        let scanned = tree.scan(&mut tx, 3, 3).unwrap();
        assert_eq!(
            scanned,
            vec![
                (3, b"v3".to_vec()),
                (5, b"v5".to_vec()),
                (7, b"v7".to_vec())
            ]
        );
        tx.commit().unwrap();

        let mut tx = node.begin();
        assert!(tree.remove(&mut tx, 5).unwrap());
        assert!(!tree.remove(&mut tx, 5).unwrap());
        tx.commit().unwrap();
        let mut tx = node.begin();
        assert_eq!(tree.get(&mut tx, 5).unwrap(), None);
        let scanned = tree.scan(&mut tx, 0, 10).unwrap();
        assert_eq!(scanned.len(), 4);
        tx.commit().unwrap();
        engine.shutdown();
    }

    #[test]
    fn scan_sees_consistent_snapshot_under_multi_versioning() {
        let (engine, tree) = setup(EngineConfig::multi_version());
        let node = engine.node(NodeId(0));
        // Populate keys 0..20 with value "0".
        let mut tx = node.begin();
        for k in 0..20u64 {
            tree.put(&mut tx, k, b"0").unwrap();
        }
        tx.commit().unwrap();

        // Start a scanning transaction, then update half the keys from a
        // concurrent transaction; the scan must still see all-"0".
        let mut scanner = node.begin();
        let _ = tree.get(&mut scanner, 0).unwrap();
        let mut writer = node.begin();
        for k in 0..10u64 {
            tree.put(&mut writer, k, b"1").unwrap();
        }
        writer.commit().unwrap();
        let scanned = tree.scan(&mut scanner, 0, 20).unwrap();
        assert_eq!(scanned.len(), 20);
        assert!(
            scanned.iter().all(|(_, v)| v == b"0"),
            "scan must observe the snapshot from before the concurrent update"
        );
        scanner.commit().unwrap();
        engine.shutdown();
    }

    #[test]
    fn scan_in_single_version_mode_aborts_when_overwritten() {
        let (engine, tree) = setup(EngineConfig::default());
        let node = engine.node(NodeId(0));
        let mut tx = node.begin();
        for k in 0..10u64 {
            tree.put(&mut tx, k, b"0").unwrap();
        }
        tx.commit().unwrap();

        let mut scanner = node.begin();
        let _ = tree.get(&mut scanner, 0).unwrap();
        let mut writer = node.begin();
        tree.put(&mut writer, 5, b"1").unwrap();
        writer.commit().unwrap();
        let err = tree.scan(&mut scanner, 0, 10).unwrap_err();
        assert!(
            err.is_retryable(),
            "single-version scan over updated keys must abort: {err:?}"
        );
        engine.shutdown();
    }

    #[test]
    fn get_many_returns_hits_and_misses_in_input_order() {
        let (engine, tree) = setup(EngineConfig::default());
        let node = engine.node(NodeId(0));
        let mut tx = node.begin();
        for k in 0..10u64 {
            tree.put(&mut tx, k, format!("v{k}").as_bytes()).unwrap();
        }
        tx.commit().unwrap();

        let mut tx = node.begin();
        let got = tree.get_many(&mut tx, &[7, 99, 0, 3, 42]).unwrap();
        assert_eq!(
            got,
            vec![
                Some(b"v7".to_vec()),
                None,
                Some(b"v0".to_vec()),
                Some(b"v3".to_vec()),
                None,
            ]
        );
        // Batched and single-key lookups agree.
        for k in 0..10u64 {
            assert_eq!(
                tree.get_many(&mut tx, &[k]).unwrap()[0],
                tree.get(&mut tx, k).unwrap()
            );
        }
        tx.commit().unwrap();
        engine.shutdown();
    }

    #[test]
    fn keys_spread_across_nodes_are_readable_from_any_coordinator() {
        let (engine, tree) = setup(EngineConfig::default());
        let mut tx = engine.node(NodeId(0)).begin();
        for k in 0..30u64 {
            tree.put(&mut tx, k, &k.to_le_bytes()).unwrap();
        }
        tx.commit().unwrap();
        for n in 0..3u32 {
            let mut tx = engine.node(NodeId(n)).begin();
            for k in 0..30u64 {
                assert_eq!(
                    tree.get(&mut tx, k).unwrap(),
                    Some(k.to_le_bytes().to_vec())
                );
            }
            tx.commit().unwrap();
        }
        engine.shutdown();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Random put / remove / get / get_many / scan sequences, one
        /// transaction each, agree with a `BTreeMap` model, and so do `len`
        /// and `is_empty` after every step. Afterwards, scans start in every
        /// stripe with counts up to past the number of keys.
        #[test]
        fn directory_matches_btreemap_model(
            ops in prop::collection::vec((0u8..5, 0u64..96, 0usize..40), 1..48),
        ) {
            let (engine, tree) = setup(EngineConfig::default());
            let node = engine.node(NodeId(0));
            let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
            let scan_model = |model: &BTreeMap<u64, Vec<u8>>, start: u64, count: usize| {
                model
                    .range(start..)
                    .take(count)
                    .map(|(k, v)| (*k, v.clone()))
                    .collect::<Vec<_>>()
            };
            for (i, &(op, key, n)) in ops.iter().enumerate() {
                let mut tx = node.begin();
                match op {
                    0 => {
                        let value = format!("{key}@{i}").into_bytes();
                        tree.put(&mut tx, key, &value).unwrap();
                        model.insert(key, value);
                    }
                    1 => {
                        let removed = tree.remove(&mut tx, key).unwrap();
                        prop_assert_eq!(removed, model.remove(&key).is_some());
                    }
                    2 => prop_assert_eq!(tree.get(&mut tx, key).unwrap(), model.get(&key).cloned()),
                    3 => {
                        let keys: Vec<u64> = (0..n as u64 % 8).map(|d| (key + 3 * d) % 96).collect();
                        let want: Vec<_> = keys.iter().map(|k| model.get(k).cloned()).collect();
                        prop_assert_eq!(tree.get_many(&mut tx, &keys).unwrap(), want);
                    }
                    _ => prop_assert_eq!(tree.scan(&mut tx, key, n).unwrap(), scan_model(&model, key, n)),
                }
                tx.commit().unwrap();
                prop_assert_eq!(tree.len(), model.len());
                prop_assert_eq!(tree.is_empty(), model.is_empty());
            }
            let mut tx = node.begin();
            for stripe in 0..STRIPES {
                let start = (0u64..).find(|&k| stripe_of(k) == stripe).unwrap();
                for count in [0, 1, 5, model.len(), model.len() + 7] {
                    prop_assert_eq!(
                        tree.scan(&mut tx, start, count).unwrap(),
                        scan_model(&model, start, count),
                        "scan from {} (stripe {}) of {}", start, stripe, count
                    );
                }
            }
            tx.commit().unwrap();
            engine.shutdown();
        }
    }

    #[test]
    fn small_key_ranges_cover_every_stripe() {
        // The model test starts a scan in every stripe from a small key.
        let mut seen = [false; STRIPES];
        for key in 0..96u64 {
            seen[stripe_of(key)] = true;
        }
        assert!(seen.iter().all(|&s| s), "stripes hit: {seen:?}");
    }
}
