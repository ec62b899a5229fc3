//! Per-layer metrics of a traced run: self-times from the np-obs span tree
//! plus the work counters the workloads tally from the reports they get
//! back. A layer that does no work on a workload reports 0.

use crate::selftime;
use crate::{ratio, Metric};
use np_obs::{EvKind, FieldVal, RawEvent};
use std::sync::atomic::{AtomicU64, Ordering};

/// Every per-layer metric with its unit, in output order. BENCHMARK.json's
/// `per_layer` list must match it.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("workloads.args_calls", "count"),
    ("workloads.args_s", "s"),
    ("transform.calls", "count"),
    ("transform.s", "s"),
    ("transform.rejected", "count"),
    ("intern.calls", "count"),
    ("intern.s", "s"),
    ("interp.s", "s"),
    ("interp.blocks", "count"),
    ("interp.warp_instr", "count"),
    ("interp.ns_per_winstr", "ns"),
    ("launch.glue_s", "s"),
    ("race.s", "s"),
    ("race.overhead_x", "x"),
    ("race.findings", "count"),
    ("codec.encode_s", "s"),
    ("codec.decode_s", "s"),
    ("codec.bytes", "bytes"),
    ("codec.decode_mb_per_s", "MB/s"),
    ("timing.s", "s"),
    ("timing.blocks", "count"),
    ("timing.sim_cycles", "cycles"),
    ("timing.ns_per_block", "ns"),
    ("tuner.s", "s"),
    ("tuner.evaluated", "count"),
    ("tuner.skipped", "count"),
    ("tuner.failed", "count"),
    ("serve.parse_s", "s"),
    ("serve.render_s", "s"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.hits", "count"),
    ("serve.misses", "count"),
    ("serve.trace_replays", "count"),
    ("serve.hit_ratio", "frac"),
    ("serve.shed", "count"),
    ("serve.exec_s", "s"),
    ("obs.overhead_frac", "frac"),
    ("obs.spans", "count"),
    ("obs.events_dropped", "count"),
];

/// Work counters the workloads add to while they run. Atomic because the
/// tuner calls the workload's `make_args` from its worker pool.
#[derive(Default)]
pub struct Tally {
    pub args_calls: AtomicU64,
    pub args_ns: AtomicU64,
    pub intern_calls: AtomicU64,
    pub intern_ns: AtomicU64,
    pub interp_blocks: AtomicU64,
    pub interp_winstr: AtomicU64,
    pub timing_blocks: AtomicU64,
    pub timing_cycles: AtomicU64,
    pub transform_rejected: AtomicU64,
    pub tuner_evaluated: AtomicU64,
    pub tuner_skipped: AtomicU64,
    pub tuner_failed: AtomicU64,
    pub race_record_ns: AtomicU64,
    pub race_off_ns: AtomicU64,
    pub race_findings: AtomicU64,
    pub codec_encoded_bytes: AtomicU64,
    pub codec_decoded_bytes: AtomicU64,
    pub serve_parse_ns: AtomicU64,
    pub serve_render_ns: AtomicU64,
    pub serve_hits: AtomicU64,
    pub serve_misses: AtomicU64,
    pub serve_trace_replays: AtomicU64,
    pub serve_shed: AtomicU64,
}

/// Add `v` to a tally counter.
pub fn add(c: &AtomicU64, v: u64) {
    c.fetch_add(v, Ordering::Relaxed);
}

fn get(c: &AtomicU64) -> f64 {
    c.load(Ordering::Relaxed) as f64
}

/// Median of the `wall_queue_us` fields of the `req.dequeue` events, in ms.
fn queue_wait_ms(events: &[RawEvent]) -> f64 {
    let mut waits: Vec<f64> = events
        .iter()
        .filter_map(|e| match &e.kind {
            EvKind::Event { name, fields, .. } if name == "req.dequeue" => {
                fields.iter().find_map(|(k, v)| match (k.as_str(), v) {
                    ("wall_queue_us", FieldVal::U64(us)) => Some(*us as f64 * 1e-3),
                    _ => None,
                })
            }
            _ => None,
        })
        .collect();
    crate::median(&mut waits)
}

/// The per-layer metrics, in [`PER_LAYER`] order, plus one printable line
/// per span name with its self-time and count.
pub fn metrics(
    t: &Tally,
    events: &[RawEvent],
    dropped: u64,
    overhead_frac: f64,
) -> (Vec<Metric>, Vec<String>) {
    let spans = selftime::spans(events);
    let names = selftime::by_name(&spans);
    let self_s = |pred: &dyn Fn(&str) -> bool| -> f64 {
        names
            .iter()
            .filter(|(n, _)| pred(n))
            .fold(0.0, |acc, (_, (s, _))| acc + s)
    };
    let count = |name: &str| names.get(name).map_or(0.0, |(_, n)| *n as f64);
    let interp_s = self_s(&|n| n == "exec.interpret");
    let timing_s = self_s(&|n| n == "exec.timing" || n == "exec.replay");
    let decode_s = self_s(&|n| n == "trace.decode");
    let rec = get(&t.race_record_ns) * 1e-9;
    let off = get(&t.race_off_ns) * 1e-9;
    let hits = get(&t.serve_hits);
    let misses = get(&t.serve_misses);
    let values = [
        get(&t.args_calls),
        get(&t.args_ns) * 1e-9,
        count("transform"),
        self_s(&|n| n == "transform" || n.starts_with("transform.")),
        get(&t.transform_rejected),
        get(&t.intern_calls),
        get(&t.intern_ns) * 1e-9,
        interp_s,
        get(&t.interp_blocks),
        get(&t.interp_winstr),
        ratio(interp_s * 1e9, get(&t.interp_winstr)),
        self_s(&|n| n == "exec.launch" || n == "exec.capture"),
        if off > 0.0 { rec - off } else { 0.0 },
        ratio(rec, off),
        get(&t.race_findings),
        self_s(&|n| n == "trace.encode"),
        decode_s,
        get(&t.codec_encoded_bytes) + get(&t.codec_decoded_bytes),
        ratio(get(&t.codec_decoded_bytes) * 1e-6, decode_s),
        timing_s,
        get(&t.timing_blocks),
        get(&t.timing_cycles),
        ratio(timing_s * 1e9, get(&t.timing_blocks)),
        self_s(&|n| n == "tune" || n == "tune.candidate"),
        get(&t.tuner_evaluated),
        get(&t.tuner_skipped),
        get(&t.tuner_failed),
        get(&t.serve_parse_ns) * 1e-9,
        get(&t.serve_render_ns) * 1e-9,
        queue_wait_ms(events),
        hits,
        misses,
        get(&t.serve_trace_replays),
        ratio(hits, hits + misses),
        get(&t.serve_shed),
        self_s(&|n| n == "req.exec"),
        overhead_frac,
        spans.len() as f64,
        dropped as f64,
    ];
    let out = PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric::new(name, unit, value, String::new()))
        .collect();
    let lines = names
        .iter()
        .map(|(n, (s, c))| format!("self-time {n:<16} {s:>10.4} s over {c} spans"))
        .collect();
    (out, lines)
}
