//! `tpcc`: the full TPC-C mix on 3 nodes with 3-way replication.
//!
//! Two closed-loop clients, homed on nodes 0 and 1, draw transaction kinds
//! from the standard mix and retry an aborted transaction with the same
//! inputs until it commits. The measured kind is NewOrder.

use std::sync::Arc;
use std::time::Instant;

use farm_core::{Engine, EngineConfig, NodeId, TxOptions};
use farm_workloads::{TpccDatabase, TpccOutcome, TpccTxKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::harness::{Client, Tally, Window};
use crate::trace::Span;
use crate::{Bench, Run};

/// The five kinds, in reporting order, with their metric names.
pub const KINDS: [(TpccTxKind, &str); 5] = [
    (TpccTxKind::NewOrder, "new_order"),
    (TpccTxKind::Payment, "payment"),
    (TpccTxKind::OrderStatus, "order_status"),
    (TpccTxKind::Delivery, "delivery"),
    (TpccTxKind::StockLevel, "stock_level"),
];

const NODES: usize = 3;
const CLIENTS: u32 = 2;

fn kind_index(kind: TpccTxKind) -> usize {
    KINDS
        .iter()
        .position(|(k, _)| *k == kind)
        .expect("every kind is listed")
}

pub struct Setup {
    engine: Arc<Engine>,
    db: Arc<TpccDatabase>,
}

impl Bench for Setup {
    fn setup() -> Self {
        let engine = Engine::start_cluster(crate::harness::cluster(NODES), EngineConfig::default());
        let db =
            Arc::new(TpccDatabase::load(&engine, farm_bench::small_tpcc()).expect("load TPC-C"));
        Setup { engine, db }
    }

    fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    fn clients(&mut self, seed: u64) -> Vec<Client<'_>> {
        (0..CLIENTS)
            .map(|c| {
                let db = &self.db;
                let rng = StdRng::seed_from_u64(
                    seed ^ (0x7C_C0 + c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                Box::new(move |window: &Window| client(db, NodeId(c), rng, window)) as Client<'_>
            })
            .collect()
    }

    /// Settles the install backlog and checks it drained.
    fn check(&self, run: &mut Run) {
        self.engine.quiesce();
        let pending: usize = self
            .engine
            .nodes()
            .iter()
            .map(|n| n.pending_installs())
            .sum();
        run.require(
            pending == 0,
            format!("{pending} installs still pending after quiesce"),
        );
    }
}

fn client(db: &TpccDatabase, node: NodeId, mut rng: StdRng, window: &Window) -> Tally {
    let opts = TxOptions::serializable();
    let mut tally = Tally::new();
    while let Some(slot) = window.slot() {
        let kind = TpccTxKind::sample(&mut rng);
        let k = kind_index(kind);
        tally.tracer.begin_op(slot.traced());
        let start = Instant::now();
        // Retry with the same inputs: the attempt's random choices are
        // replayed from a copy of the generator taken before it.
        let mut attempts = 0;
        let outcome = loop {
            attempts += 1;
            let mut attempt_rng = rng.clone();
            let result = tally.tracer.span(Span::Tpcc(k), || {
                db.execute(node, kind, opts, &mut attempt_rng)
            });
            if !matches!(result, Ok(TpccOutcome::Aborted(_))) {
                rng = attempt_rng;
                break result;
            }
        };
        let ns = start.elapsed().as_nanos() as u64;
        tally.tracer.end_op();
        if slot.measure() {
            tally.kind_attempts[k] += attempts;
            tally.kind_aborts[k] += attempts - 1;
        }
        match outcome {
            Ok(_) => tally.commit(slot, attempts, (kind == TpccTxKind::NewOrder).then_some(ns)),
            // A non-retryable error fails the run whenever it happens.
            Err(e) => tally.fail(format!("tpcc: non-retryable error in {kind:?}: {e}")),
        }
    }
    tally
}
