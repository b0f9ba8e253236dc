//! `commit_dc`: uncontended 4-primary blind writes under datacenter latency.
//!
//! 6 nodes with 3-way replication and `LatencyModel::datacenter()`. Every
//! transaction overwrites 4 objects on 4 distinct primaries, none of them
//! its coordinator, with no index and no contention: each client writes its
//! own rows. Client 0 (node 0) keeps a depth-8 commit pipeline full; client
//! 1 (node 1) commits synchronously and is the latency probe, whose commits
//! are the measured kind.

use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use farm_core::{Engine, EngineConfig, NodeEngine, NodeId, RegionId, TxOptions};
use farm_kernel::ClusterConfig;
use farm_net::LatencyModel;

use crate::harness::{Client, Slot, Tally, Window};
use crate::trace::Span;
use crate::{Bench, Run};

const NODES: usize = 6;
const PRIMARIES: usize = 4;
const DEPTH: usize = 8;
/// Rows per client; a row is one object on each of the client's primaries.
/// Far more rows than the pipeline depth, so no two flights share a row.
const ROWS: usize = 64;
const VALUE_BYTES: usize = 64;
/// Stamp of a row no transaction has written yet.
const UNWRITTEN: u64 = u64::MAX;

/// One client's objects and what it submitted or was acknowledged for.
struct Rows {
    node: Arc<NodeEngine>,
    addrs: Vec<[farm_core::Addr; PRIMARIES]>,
    /// The stamp of the last write to each row that the client expects to
    /// find after quiesce.
    last: Vec<u64>,
    /// Whether every write of this client committed.
    all_committed: bool,
}

pub struct Setup {
    engine: Arc<Engine>,
    pipelined: Rows,
    probe: Rows,
}

fn opts() -> TxOptions {
    TxOptions::serializable()
}

/// Allocates `ROWS` rows for a client coordinated by `coordinator`, on
/// regions with distinct primaries other than the coordinator.
fn rows(engine: &Arc<Engine>, coordinator: NodeId) -> Rows {
    let mut regions: Vec<RegionId> = Vec::new();
    let mut primaries: Vec<NodeId> = Vec::new();
    for region in engine.cluster().regions() {
        match engine.cluster().primary_of(region) {
            Some(p) if p != coordinator && !primaries.contains(&p) => {
                primaries.push(p);
                regions.push(region);
            }
            _ => {}
        }
    }
    assert!(regions.len() >= PRIMARIES, "too few remote primaries");
    let node = engine.node(coordinator);
    let mut tx = node.begin_with(opts());
    let addrs = (0..ROWS)
        .map(|_| {
            std::array::from_fn(|i| {
                tx.alloc_in(regions[i], value(UNWRITTEN))
                    .expect("allocate a row object")
            })
        })
        .collect();
    tx.commit().expect("commit the row allocations");
    Rows {
        node,
        addrs,
        last: vec![UNWRITTEN; ROWS],
        all_committed: true,
    }
}

fn value(stamp: u64) -> Vec<u8> {
    let mut v = vec![0xD7; VALUE_BYTES];
    v[..8].copy_from_slice(&stamp.to_le_bytes());
    v
}

impl Bench for Setup {
    fn setup() -> Self {
        let cluster = ClusterConfig {
            nodes: NODES,
            replication: 3,
            regions_per_node: 1,
            ..crate::harness::cluster(NODES)
        };
        let engine = Engine::start_cluster(
            cluster,
            EngineConfig {
                latency: LatencyModel::datacenter(),
                ..EngineConfig::default()
            },
        );
        let pipelined = rows(&engine, NodeId(0));
        let probe = rows(&engine, NodeId(1));
        Setup {
            engine,
            pipelined,
            probe,
        }
    }

    fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    fn clients(&mut self, _seed: u64) -> Vec<Client<'_>> {
        vec![
            Box::new(|window: &Window| pipelined(&mut self.pipelined, window)),
            Box::new(|window: &Window| probe(&mut self.probe, window)),
        ]
    }

    /// After quiesce, every object holds the last value its client was
    /// acknowledged for, and the 4 objects of a row agree.
    fn check(&self, run: &mut Run) {
        self.engine.quiesce();
        for (name, rows) in [("pipelined", &self.pipelined), ("probe", &self.probe)] {
            for (row, addrs) in rows.addrs.iter().enumerate() {
                let mut tx = rows.node.begin_with(opts());
                let read: Result<Vec<Bytes>, _> = tx.read_many(addrs);
                let stamps: Vec<u64> = match read.and_then(|v| tx.commit().map(|_| v)) {
                    Ok(values) => values
                        .iter()
                        .map(|v| u64::from_le_bytes(v[..8].try_into().expect("8-byte stamp")))
                        .collect(),
                    Err(e) => {
                        run.require(false, format!("{name} row {row}: read failed: {e}"));
                        continue;
                    }
                };
                let expected = rows.last[row];
                let ok = stamps.iter().all(|&s| s == stamps[0])
                    && if rows.all_committed {
                        stamps[0] == expected
                    } else {
                        // Some write failed, so which one landed last is
                        // unknown: require one of this row's stamps.
                        stamps[0] == UNWRITTEN
                            || (stamps[0] % ROWS as u64 == row as u64 && stamps[0] <= expected)
                    };
                run.require(
                    ok,
                    format!("{name} row {row}: expected stamp {expected:#x}, found {stamps:x?}"),
                );
            }
        }
    }
}

/// Client 0: keeps `DEPTH` commits in flight through one pipeline. The
/// write with stamp `s` goes to row `s % ROWS`.
fn pipelined(rows: &mut Rows, window: &Window) -> Tally {
    let mut tally = Tally::new();
    let mut pipeline = rows.node.pipeline(DEPTH);
    let mut at_start = None;
    let mut stamp = 0u64;
    let mut last = Slot::Warmup;
    while let Some(slot) = window.slot() {
        last = slot;
        if slot.measure() && at_start.is_none() {
            at_start = Some(pipeline.timings());
        }
        let row = (stamp % ROWS as u64) as usize;
        let payload = Bytes::from(value(stamp));
        let mut tx = rows.node.begin_with(opts());
        for &addr in &rows.addrs[row] {
            tx.overwrite(addr, payload.clone())
                .expect("buffer a blind write");
        }
        pipeline.submit(tx);
        rows.last[row] = stamp;
        stamp += 1;
        let results = pipeline.take();
        settle(&mut tally, &mut rows.all_committed, results, slot);
    }
    let end = pipeline.timings();
    let results = pipeline.drain();
    settle(&mut tally, &mut rows.all_committed, results, last);
    if let Some(start) = at_start {
        tally.pipeline = Some(farm_core::PipelineTimings {
            issue_ns: end.issue_ns - start.issue_ns,
            wait_ns: end.wait_ns - start.wait_ns,
            drain_ns: end.drain_ns - start.drain_ns,
            steal_ns: end.steal_ns - start.steal_ns,
            sweeps: end.sweeps - start.sweeps,
            wakeups: end.wakeups - start.wakeups,
            coalesced: end.coalesced - start.coalesced,
            completed: end.completed - start.completed,
        });
    }
    tally
}

/// Counts pipeline results in the slot they completed in; the results
/// drained after the window closed count towards its last slot.
fn settle(
    tally: &mut Tally,
    all_committed: &mut bool,
    results: Vec<Result<farm_core::CommitInfo, farm_core::TxError>>,
    slot: Slot,
) {
    for r in results {
        match r {
            Ok(_) => tally.commit(slot, 1, None),
            Err(e) => {
                *all_committed = false;
                tally.fail(format!("commit_dc: pipelined commit failed: {e}"));
            }
        }
    }
}

/// Client 1: synchronous commits, retried with the same write on a
/// retryable abort; the write with stamp `s` goes to row `s % ROWS`.
fn probe(rows: &mut Rows, window: &Window) -> Tally {
    let mut tally = Tally::new();
    let mut stamp = 0u64;
    while let Some(slot) = window.slot() {
        let row = (stamp % ROWS as u64) as usize;
        let payload = Bytes::from(value(stamp));
        tally.tracer.begin_op(slot.traced());
        let start = Instant::now();
        let mut attempts = 0;
        let result = loop {
            attempts += 1;
            let mut tx = tally
                .tracer
                .span(Span::Begin, || rows.node.begin_with(opts()));
            let buffered = rows.addrs[row].iter().try_for_each(|&addr| {
                tally
                    .tracer
                    .span(Span::Overwrite, || tx.overwrite(addr, payload.clone()))
            });
            match buffered.and_then(|()| tally.tracer.span(Span::CommitRw, || tx.commit())) {
                Err(e) if e.is_retryable() => continue,
                other => break other,
            }
        };
        let ns = start.elapsed().as_nanos() as u64;
        tally.tracer.end_op();
        if let Err(e) = result {
            rows.all_committed = false;
            tally.fail(format!("commit_dc: probe commit failed: {e}"));
            continue;
        }
        rows.last[row] = stamp;
        stamp += 1;
        tally.commit(slot, attempts, Some(ns));
    }
    tally
}
