//! Per-layer metrics of a traced run, named `<layer>.<metric>` after the
//! crate that does the work. A metric whose layer the workload does not
//! exercise (no span, no counter movement) reads 0.

use farm_net::{PhaseLabel, Verb};

use crate::harness::Measured;
use crate::report::{Kind, Metrics};
use crate::trace::Span;

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den as f64
}

pub fn per_layer(m: &Measured) -> Metrics {
    let mut out = Metrics::new(Kind::PerLayer);
    let t = &m.tally;
    let tr = &t.tracer;
    let c = &m.counters;
    let e = &c.engine;
    let commits = e.commits();
    let engine_attempts = commits + e.aborts();
    let reads = c.net.ops(Verb::RdmaRead) + e.read_local_bypass;

    // farm-clock
    out.put("clock.begin_ns", tr.total(Span::Begin).mean_ns(), "ns");
    out.put("clock.write_wait_ns", e.mean_write_wait_ns(), "ns");
    out.put(
        "clock.write_wait_overlap_ratio",
        ratio(e.write_wait_overlapped_ns, e.write_wait_ns),
        "ratio",
    );
    out.put(
        "clock.uncertainty_wait_ns_per_ts",
        ratio(c.clock_wait_ns, c.clock_ts),
        "ns",
    );

    // farm-index
    out.put(
        "index.btree_get_ns",
        tr.total(Span::BTreeGet).mean_ns(),
        "ns",
    );
    out.put(
        "index.btree_put_ns",
        tr.total(Span::BTreePut).mean_ns(),
        "ns",
    );

    // farm-core: transaction and read path
    out.put(
        "core.overwrite_ns",
        tr.total(Span::Overwrite).mean_ns(),
        "ns",
    );
    out.put(
        "core.commit_ro_ns",
        tr.total(Span::CommitRo).mean_ns(),
        "ns",
    );
    out.put(
        "core.commit_rw_ns",
        tr.total(Span::CommitRw).mean_ns(),
        "ns",
    );
    out.put(
        "core.read.local_bypass_ratio",
        ratio(e.read_local_bypass, reads),
        "ratio",
    );
    out.put(
        "core.read.old_version_ratio",
        ratio(e.old_version_reads, reads),
        "ratio",
    );

    // farm-core: commit protocol, exact means of the phase histograms
    for (name, phase) in [
        ("core.commit.lock_us", PhaseLabel::Lock),
        ("core.commit.validate_us", PhaseLabel::Validate),
        (
            "core.commit.acquire_write_ts_us",
            PhaseLabel::AcquireWriteTs,
        ),
        (
            "core.commit.replicate_backups_us",
            PhaseLabel::ReplicateBackups,
        ),
        ("core.read_many_us", PhaseLabel::ReadMany),
    ] {
        let mean_ns = ratio(c.phases.total_ns(phase), c.phases.count(phase));
        out.put(name, mean_ns / 1e3, "us");
    }
    out.put(
        "abort_ratio",
        ratio(t.attempts - t.commits, t.attempts),
        "ratio",
    );
    out.put(
        "core.abort.execution_ratio",
        ratio(e.aborts_execution, engine_attempts),
        "ratio",
    );
    out.put(
        "core.abort.lock_ratio",
        ratio(e.aborts_lock, engine_attempts),
        "ratio",
    );
    out.put(
        "core.abort.validation_ratio",
        ratio(e.aborts_validation, engine_attempts),
        "ratio",
    );
    out.put("core.read_only_retries", t.ro_retries as f64, "count");
    out.put(
        "core.read_lock_retries_exhausted",
        e.read_lock_retries_exhausted as f64,
        "count",
    );
    out.put(
        "core.commit.unwinds_per_commit",
        ratio(e.unwinds, commits),
        "ratio",
    );

    // farm-net
    out.put(
        "net.msgs_per_commit",
        ratio(c.net.total_messages(), commits),
        "msgs",
    );
    out.put(
        "net.ops_per_commit",
        ratio(c.net.total_ops(), commits),
        "ops",
    );
    let bytes: u64 = [
        Verb::RdmaRead,
        Verb::RdmaWrite,
        Verb::HardwareAck,
        Verb::Rpc,
    ]
    .iter()
    .map(|&v| c.net.bytes(v))
    .sum();
    out.put("net.bytes_per_commit", ratio(bytes, commits), "B");
    out.put(
        "net.msgs_per_read",
        ratio(c.net.count(Verb::RdmaRead), reads),
        "msgs",
    );
    out.put(
        "net.lock_batch_objects",
        e.mean_lock_batch_size(),
        "objects",
    );
    out.put(
        "net.max_inflight_verbs",
        m.gauges.max_inflight as f64,
        "verbs",
    );

    // farm-core: background work
    out.put(
        "core.backlog.installs_per_commit",
        ratio(e.installs_background, commits),
        "ratio",
    );
    out.put(
        "core.backlog.install_helps_per_commit",
        ratio(e.install_helps, commits),
        "ratio",
    );
    out.put(
        "core.truncate.standalone_per_commit",
        ratio(e.truncate_batches, commits),
        "ratio",
    );
    let g = &m.gauges;
    out.put(
        "core.backlog.pending_installs_max",
        g.pending_installs as f64,
        "count",
    );
    out.put(
        "core.backlog.truncation_lag_max",
        g.truncation_lag as f64,
        "ns",
    );
    out.put(
        "core.backlog.backup_log_len_max",
        g.backup_log_len as f64,
        "count",
    );

    // farm-core: commit pipeline (the pipelined client only)
    let p = t.pipeline.unwrap_or_default();
    out.put(
        "core.pipeline.serial_fraction",
        p.serial_fraction(),
        "ratio",
    );
    out.put(
        "core.pipeline.issue_ns_per_commit",
        ratio(p.issue_ns, p.completed),
        "ns",
    );
    out.put(
        "core.pipeline.wait_ns_per_commit",
        ratio(p.wait_ns, p.completed),
        "ns",
    );
    out.put(
        "core.pipeline.drain_ns_per_commit",
        ratio(p.drain_ns, p.completed),
        "ns",
    );
    out.put(
        "core.pipeline.flights_per_wakeup",
        ratio(p.wakeups + p.coalesced, p.wakeups),
        "ratio",
    );

    // farm-memory
    out.put(
        "memory.old_versions_per_commit",
        ratio(e.old_versions_allocated, commits),
        "ratio",
    );
    out.put(
        "memory.oldver_truncations",
        e.oldver_truncations as f64,
        "count",
    );
    out.put("core.active_max", g.active as f64, "count");

    // The trace itself: throughput lost to tracing, measured between the
    // window's alternating untraced and traced slices, and the share of
    // traced operation time no layer span covers.
    let (untraced, traced) = m.untraced_and_traced_rates();
    out.put("trace.overhead_ratio", untraced / traced - 1.0, "ratio");
    out.put("trace.unattributed_ratio", tr.unattributed_ratio(), "ratio");
    out
}

/// The per-kind figures of the `tpcc` workload (farm-workloads): the mean of
/// one `execute` attempt and the share of attempts that aborted.
pub fn tpcc_kinds(m: &Measured, out: &mut Metrics) {
    let t = &m.tally;
    for (k, (_, name)) in crate::tpcc::KINDS.iter().enumerate() {
        out.put(
            &format!("workloads.tpcc.{name}_ns"),
            t.tracer.total(Span::Tpcc(k)).mean_ns(),
            "ns",
        );
        out.put(
            &format!("workloads.tpcc.{name}_abort_ratio"),
            ratio(t.kind_aborts[k], t.kind_attempts[k]),
            "ratio",
        );
    }
}
