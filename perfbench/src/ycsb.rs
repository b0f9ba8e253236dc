//! `ycsb_read`: read-mostly YCSB over one B-tree in multi-version mode.
//!
//! 100k keys of 64 B on 3 nodes, 95 % single-key reads and 5 % updates
//! with zipf θ 0.99, strict serializable. Two closed-loop clients, homed on
//! nodes 0 and 1, drive the B-tree themselves so that each call into the
//! engine crates is its own span. Every operation is the measured kind.

use std::sync::Arc;
use std::time::Instant;

use farm_core::{Engine, EngineConfig, NodeEngine, NodeId, TxError, TxOptions};
use farm_workloads::{YcsbConfig, YcsbDatabase, YcsbOp};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::harness::{Client, Tally, Window};
use crate::trace::Span;
use crate::{Bench, Run};

const NODES: usize = 3;
const CLIENTS: u32 = 2;
pub const KEYS: u64 = 100_000;
const VALUE_BYTES: usize = 64;

fn config() -> YcsbConfig {
    YcsbConfig {
        keys: KEYS,
        value_size: VALUE_BYTES,
        read_fraction: 0.95,
        zipf_theta: 0.99,
        scan_length: 0,
        multiget_size: 0,
    }
}

/// The newest acknowledged write of each key by one client: its write
/// timestamp and the value's stamp (0 when never written).
type Acked = Vec<(u64, u64)>;

pub struct Setup {
    engine: Arc<Engine>,
    db: Arc<YcsbDatabase>,
    acked: Vec<Acked>,
}

/// A value in `YcsbDatabase`'s layout: the key in the first 8 bytes (little
/// endian), then the writer's stamp, then filler.
fn value(key: u64, stamp: u64) -> Vec<u8> {
    let mut v = vec![(key % 251) as u8; VALUE_BYTES];
    v[..8].copy_from_slice(&key.to_le_bytes());
    v[8..16].copy_from_slice(&stamp.to_le_bytes());
    v
}

fn check_value(key: u64, v: &[u8]) -> Result<(), String> {
    if v.len() != VALUE_BYTES || v[..8] != key.to_le_bytes() {
        return Err(format!(
            "key {key} read a value that does not embed it: {v:?}"
        ));
    }
    Ok(())
}

/// Stamps are unique per write: client id in the top byte, a per-client
/// counter below it.
fn stamp(client: u32, n: u64) -> u64 {
    ((client as u64 + 1) << 56) | n
}

impl Bench for Setup {
    fn setup() -> Self {
        let engine = Engine::start_cluster(
            crate::harness::cluster(NODES),
            EngineConfig::multi_version(),
        );
        let db = Arc::new(YcsbDatabase::load(&engine, config()).expect("load YCSB"));
        Setup {
            engine,
            db,
            acked: Vec::new(),
        }
    }

    fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    fn clients(&mut self, seed: u64) -> Vec<Client<'_>> {
        self.acked = (0..CLIENTS).map(|_| vec![(0, 0); KEYS as usize]).collect();
        let db = &self.db;
        let engine = &self.engine;
        self.acked
            .iter_mut()
            .enumerate()
            .map(|(c, acked)| {
                let rng = StdRng::seed_from_u64(
                    seed ^ (0x9C5B + c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                let node = engine.node(NodeId(c as u32));
                Box::new(move |window: &Window| client(db, node, c as u32, rng, acked, window))
                    as Client<'_>
            })
            .collect()
    }

    /// After quiesce, every key written in the run holds the value of its
    /// write with the highest write timestamp.
    fn check(&self, run: &mut Run) {
        self.engine.quiesce();
        let node = self.engine.node(NodeId(0));
        let mut checked = 0u64;
        for key in 0..KEYS {
            let newest = self
                .acked
                .iter()
                .map(|a| a[key as usize])
                .max()
                .expect("at least one client");
            if newest.1 == 0 {
                continue;
            }
            let mut tx = node.begin();
            let got = self
                .db
                .tree()
                .get(&mut tx, key)
                .and_then(|v| tx.commit().map(|_| v));
            checked += 1;
            let ok = matches!(&got, Ok(Some(v)) if check_value(key, v).is_ok()
                && v[8..16] == newest.1.to_le_bytes());
            run.require(
                ok,
                format!("key {key}: expected stamp {:#x}, read {got:?}", newest.1),
            );
        }
        run.require(checked > 0, "no update was acknowledged".into());
    }
}

fn client(
    db: &YcsbDatabase,
    node: Arc<NodeEngine>,
    id: u32,
    mut rng: StdRng,
    acked: &mut Acked,
    window: &Window,
) -> Tally {
    let opts = TxOptions::serializable();
    let tree = db.tree();
    let mut tally = Tally::new();
    let mut writes = 0u64;
    while let Some(slot) = window.slot() {
        let (key, write) = match db.next_op(&mut rng) {
            YcsbOp::Read(key) => (key, None),
            YcsbOp::Update(key) => {
                writes += 1;
                let s = stamp(id, writes);
                (key, Some((s, value(key, s))))
            }
            other => unreachable!("the read-mostly mix issues no {other:?}"),
        };
        tally.tracer.begin_op(slot.traced());
        let start = Instant::now();
        let mut attempts = 0u64;
        let result = loop {
            attempts += 1;
            let mut tx = tally.tracer.span(Span::Begin, || node.begin_with(opts));
            let attempt = match &write {
                None => tally
                    .tracer
                    .span(Span::BTreeGet, || tree.get(&mut tx, key))
                    .and_then(|v| {
                        let v = v.ok_or(TxError::InvalidOperation("loaded key missing"))?;
                        tally
                            .tracer
                            .span(Span::CommitRo, || tx.commit())
                            .map(|info| (info, Some(v)))
                    }),
                Some((_, v)) => tally
                    .tracer
                    .span(Span::BTreePut, || tree.put(&mut tx, key, v))
                    .and_then(|()| {
                        tally
                            .tracer
                            .span(Span::CommitRw, || tx.commit())
                            .map(|info| (info, None))
                    }),
            };
            match attempt {
                Err(e) if e.is_retryable() => continue,
                other => break other,
            }
        };
        let ns = start.elapsed().as_nanos() as u64;
        tally.tracer.end_op();
        match result {
            Ok((info, read)) => {
                if let Some(v) = read {
                    if let Err(msg) = check_value(key, &v) {
                        tally.violate(msg);
                    }
                }
                if let (Some((s, _)), Some(ts)) = (&write, info.write_ts) {
                    let slot = &mut acked[key as usize];
                    *slot = (*slot).max((ts, *s));
                }
            }
            Err(e) => {
                tally.fail(format!("ycsb_read: key {key}: {e}"));
                continue;
            }
        }
        if slot.measure() && write.is_none() && attempts > 1 {
            tally.ro_retries += 1;
        }
        tally.commit(slot, attempts, Some(ns));
    }
    tally
}
