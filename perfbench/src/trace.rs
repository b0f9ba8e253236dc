//! Spans recorded by the benchmark around its calls into each crate.
//!
//! A client operation is the root span; the calls it makes into the engine
//! crates are its child spans. Spans are folded into per-name totals as each
//! operation ends, so memory stays constant however long the run. The part
//! of an operation's time that no child span covers is its unattributed
//! time.

use std::time::Instant;

/// The span names, one per layer boundary the benchmark crosses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Span {
    /// `NodeEngine::begin_with`: GET_TS plus the strict uncertainty wait.
    Begin,
    /// `BTree::get`.
    BTreeGet,
    /// `BTree::put`.
    BTreePut,
    /// `Transaction::overwrite`.
    Overwrite,
    /// `Transaction::commit` of a read-only transaction.
    CommitRo,
    /// `Transaction::commit` of a read-write transaction.
    CommitRw,
    /// `TpccDatabase::execute`, one per transaction kind.
    Tpcc(usize),
}

const SPANS: usize = 6 + crate::tpcc::KINDS.len();

impl Span {
    fn index(self) -> usize {
        match self {
            Span::Begin => 0,
            Span::BTreeGet => 1,
            Span::BTreePut => 2,
            Span::Overwrite => 3,
            Span::CommitRo => 4,
            Span::CommitRw => 5,
            Span::Tpcc(k) => 6 + k,
        }
    }
}

/// Count and total duration of one span name.
#[derive(Clone, Copy, Default, Debug)]
pub struct SpanTotal {
    pub count: u64,
    pub ns: u64,
}

impl SpanTotal {
    pub fn mean_ns(&self) -> f64 {
        self.ns as f64 / self.count as f64
    }
}

/// One client's span recorder.
#[derive(Clone)]
pub struct Tracer {
    /// Whether the current operation is traced.
    on: bool,
    op_start: Option<Instant>,
    /// Child-span time of the current operation.
    covered_ns: u64,
    totals: [SpanTotal; SPANS],
    /// Traced operations and their total and unattributed time.
    pub ops: SpanTotal,
    pub unattributed_ns: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            on: false,
            op_start: None,
            covered_ns: 0,
            totals: [SpanTotal::default(); SPANS],
            ops: SpanTotal::default(),
            unattributed_ns: 0,
        }
    }
}

impl Tracer {
    /// Starts a client operation; `on` says whether to trace it.
    pub fn begin_op(&mut self, on: bool) {
        self.on = on;
        self.covered_ns = 0;
        self.op_start = on.then(Instant::now);
    }

    /// Runs `f` inside span `span` of the current operation.
    #[inline]
    pub fn span<R>(&mut self, span: Span, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        let t = &mut self.totals[span.index()];
        t.count += 1;
        t.ns += ns;
        self.covered_ns += ns;
        out
    }

    /// Ends the current operation.
    pub fn end_op(&mut self) {
        if let Some(start) = self.op_start.take() {
            let ns = start.elapsed().as_nanos() as u64;
            self.ops.count += 1;
            self.ops.ns += ns;
            self.unattributed_ns += ns.saturating_sub(self.covered_ns);
        }
    }

    pub fn total(&self, span: Span) -> SpanTotal {
        self.totals[span.index()]
    }

    pub fn merge(&mut self, other: &Tracer) {
        for (a, b) in self.totals.iter_mut().zip(&other.totals) {
            a.count += b.count;
            a.ns += b.ns;
        }
        self.ops.count += other.ops.count;
        self.ops.ns += other.ops.ns;
        self.unattributed_ns += other.unattributed_ns;
    }

    /// Share of traced operation time that no child span covers.
    pub fn unattributed_ratio(&self) -> f64 {
        self.unattributed_ns as f64 / self.ops.ns as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_cover_the_operation() {
        let mut t = Tracer::default();
        t.begin_op(true);
        t.span(Span::Begin, || std::thread::sleep(Duration::from_millis(2)));
        t.span(Span::CommitRo, || {
            std::thread::sleep(Duration::from_millis(2))
        });
        std::thread::sleep(Duration::from_millis(1));
        t.end_op();
        assert_eq!(t.total(Span::Begin).count, 1);
        assert!(t.total(Span::CommitRo).ns >= 2_000_000);
        let r = t.unattributed_ratio();
        assert!(r > 0.05 && r < 0.5, "unattributed ratio {r}");
    }

    #[test]
    fn untraced_operations_record_nothing() {
        let mut t = Tracer::default();
        t.begin_op(false);
        assert_eq!(t.span(Span::BTreeGet, || 7), 7);
        t.end_op();
        assert_eq!(t.total(Span::BTreeGet).count, 0);
        assert_eq!(t.ops.count, 0);
    }
}
