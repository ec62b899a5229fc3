//! perfbench — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <tune-paper|race-paper|replay-matrix|serve-mix> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run sets its workload up several times (the median is `setup_s`),
//! then repeats whole passes of the workload until `--seconds` have gone
//! by (at least one pass), checks every output, and prints a report whose
//! last line is one JSON object. With `--trace 0` that object carries the
//! end-to-end metrics; with `--trace 1` the run measures the same passes
//! once untraced and once under an np-obs recorder and reports per-layer
//! metrics instead. See README.md for the workloads and metrics.

mod host;
mod layers;
mod race;
mod replay;
mod selftime;
mod serve;
mod tune;

use layers::Tally;
use np_exec::{Args, KernelReport, SimOptions};
use np_gpu_sim::DeviceConfig;
use np_kernel_ir::slots::InternedKernel;
use np_kernel_ir::{Dim3, Kernel};
use np_obs::{RawEvent, Recorder};
use np_workloads::Workload;
use std::time::Instant;

/// End-to-end metrics every workload reports with `--trace 0`, in output
/// order. BENCHMARK.json's `end_to_end` list must match it.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("jobs_per_s", "jobs/s"),
    ("sim_winstr_per_s", "winstr/s"),
    ("peak_rss_mb", "MB"),
];

/// The workloads, each with the workload-specific end-to-end metrics it
/// prints besides [`END_TO_END`] and `failed_frac`.
pub const WORKLOADS: [(&str, &[&str]); 4] = [
    ("tune-paper", &["sim_speedup_gm"]),
    ("race-paper", &[]),
    ("replay-matrix", &[]),
    (
        "serve-mix",
        &[
            "fresh_p50_ms",
            "fresh_p90_ms",
            "hit_p50_ms",
            "hit_p90_ms",
            "replay_p50_ms",
            "replay_p90_ms",
        ],
    ),
];

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
const SETUP_MIN_SECS: f64 = 0.25;
const SETUP_MAX_REPS: usize = 1000;

/// Recorder capacity for a traced run; overflow is reported as
/// `obs.events_dropped`.
const OBS_CAP: usize = 1 << 22;

/// One named measurement.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Sample count or other context, printed beside the value.
    pub note: String,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64, note: String) -> Metric {
        Metric {
            name,
            unit,
            value,
            note,
        }
    }
}

/// Command-line settings of one run.
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one pass of a workload did.
#[derive(Default, Clone)]
pub struct Pass {
    /// Jobs completed (the unit of `jobs_per_s`).
    pub jobs: u64,
    /// Simulated warp-instructions of every report the jobs returned.
    pub winstr: u64,
    /// Host seconds the jobs took.
    pub secs: f64,
    /// Operations attempted and failed, output checks included.
    pub attempted: u64,
    pub failed: u64,
    /// Digest of every simulated statistic the pass produced. Passes of
    /// one run must agree; a mismatch counts as a failure.
    pub digest: u64,
}

/// Everything a workload run hands back for reporting.
#[derive(Default)]
pub struct Outcome {
    pub setup_s: Vec<f64>,
    /// The untraced passes.
    pub passes: Vec<Pass>,
    /// Output checks made after the timed passes.
    pub checks: u64,
    pub checks_failed: u64,
    /// Workload-specific end-to-end metrics (see [`WORKLOADS`]).
    pub extra: Vec<Metric>,
    /// Report lines: per-kernel results, digest details.
    pub notes: Vec<String>,
    /// Per-layer metrics and self-time lines, for a traced run.
    pub layers: Option<(Vec<Metric>, Vec<String>)>,
}

/// Median of `v` (0 when empty); sorts `v`.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..=100) of `v`; sorts `v`.
pub fn percentile(v: &mut [f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// SplitMix64: the seeded generator behind job order and request streams.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a over a digest line, folded into a running digest.
pub fn fold(acc: u64, line: &str) -> u64 {
    np_obs::fnv64(format!("{acc:016x}{line}").as_bytes())
}

/// A device of the registry.
pub fn device(name: &str) -> DeviceConfig {
    np_gpu_sim::device::from_name(name).expect("registry device")
}

/// Fresh arguments of a workload, counted and timed as the np-workloads
/// layer.
pub fn make_args(w: &dyn Workload, tally: &Tally) -> Args {
    let _span = np_obs::span("bench.args");
    let t0 = Instant::now();
    let args = w.make_args();
    layers::add(&tally.args_ns, t0.elapsed().as_nanos() as u64);
    layers::add(&tally.args_calls, 1);
    args
}

/// Outside estimate of slot interning: intern `kernel` once more, timed.
pub fn intern(kernel: &Kernel, tally: &Tally) {
    let t0 = Instant::now();
    std::hint::black_box(InternedKernel::from_kernel(std::hint::black_box(kernel)));
    layers::add(&tally.intern_ns, t0.elapsed().as_nanos() as u64);
    layers::add(&tally.intern_calls, 1);
}

/// Run `f` with this thread's spans and events going to a throwaway
/// recorder, so work the benchmark does on the side stays out of the log.
pub fn quiet<R>(f: impl FnOnce() -> R) -> R {
    np_obs::scope(&Recorder::buffer(0), None, None, f)
}

/// Blocks a launch interprets and times.
pub fn sim_blocks(sim: &SimOptions, grid: Dim3) -> u64 {
    let total = grid.count();
    sim.max_blocks.map_or(total, |m| m.min(total)).max(1)
}

/// The simulated statistics of one report, for the digest.
pub fn report_line(rep: &KernelReport) -> String {
    format!(
        "{} {} {} {}",
        rep.cycles,
        rep.timing.blocks_simulated,
        rep.profile.total.to_json(),
        rep.timing.stall.to_json()
    )
}

/// Element-wise comparison with a relative tolerance, as
/// `np_workloads::assert_close` does, without panicking.
pub fn close(a: &[f32], b: &[f32], tol: f32) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| (x - y).abs() / x.abs().max(y.abs()).max(1.0) <= tol)
}

/// Run `setup` at least [`SETUP_REPS`] times, and for cheap set-ups until
/// [`SETUP_MIN_SECS`] have gone by, keeping the last state and recording
/// each repetition's seconds. A traced run sets up once.
pub fn timed_setup<S>(cfg: &Config, out: &mut Outcome, mut setup: impl FnMut() -> S) -> S {
    let t0 = Instant::now();
    let mut state = None;
    loop {
        drop(state.take());
        let t = Instant::now();
        state = Some(setup());
        out.setup_s.push(t.elapsed().as_secs_f64());
        let reps = out.setup_s.len();
        if cfg.trace
            || reps >= SETUP_MAX_REPS
            || (reps >= SETUP_REPS && t0.elapsed().as_secs_f64() >= SETUP_MIN_SECS)
        {
            break;
        }
    }
    state.expect("at least one set-up")
}

/// The passes of one phase: repeat `pass` until `seconds` have gone by,
/// at least once.
fn phase(seconds: f64, pass: &mut dyn FnMut(usize) -> Pass) -> Vec<Pass> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    while out.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        out.push(pass(out.len()));
    }
    out
}

/// Measured phases of a run. Untraced: one phase. Traced: an untraced phase
/// then a traced one under `rec`, with `pass` told which recorder (if any)
/// to hand to components that record on their own threads, and the tally
/// to count the traced work into. Returns the untraced passes and the
/// traced ones.
pub fn phases(
    cfg: &Config,
    rec: Option<&Recorder>,
    traced_tally: &Tally,
    mut pass: impl FnMut(usize, Option<&Recorder>, &Tally) -> Pass,
) -> (Vec<Pass>, Vec<Pass>) {
    let scratch = Tally::default();
    let untraced = phase(cfg.seconds, &mut |i| pass(i, None, &scratch));
    let traced = match rec {
        Some(r) => np_obs::scope(r, None, None, || {
            phase(cfg.seconds, &mut |i| pass(i, Some(r), traced_tally))
        }),
        None => Vec::new(),
    };
    (untraced, traced)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Host seconds per job of a phase.
fn secs_per_job(passes: &[Pass]) -> f64 {
    let jobs: u64 = passes.iter().map(|p| p.jobs).sum();
    ratio(passes.iter().map(|p| p.secs).sum::<f64>(), jobs as f64)
}

/// Finish a traced run: per-layer metrics from the recorder's log and the
/// tally, with the tracing overhead taken from the two phases. The traced
/// passes are held to the same checks, and must reproduce the untraced
/// digest: tracing may not change a simulated statistic.
pub fn finish_trace(
    out: &mut Outcome,
    rec: &Recorder,
    tally: &Tally,
    untraced: &[Pass],
    traced: &[Pass],
) {
    let digest = untraced.first().map_or(0, |p| p.digest);
    for p in traced {
        out.checks += p.attempted + 1;
        out.checks_failed += p.failed + u64::from(p.digest != digest);
    }
    let events: Vec<RawEvent> = rec.drain();
    let overhead = ratio(secs_per_job(traced), secs_per_job(untraced)) - 1.0;
    out.layers = Some(layers::metrics(tally, &events, rec.dropped(), overhead));
}

fn parse_args() -> Result<Config, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} wants {what}, got {val:?}");
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|_| bad("a whole number"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|_| bad("a number of seconds"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("a positive number of seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.iter().any(|(w, _)| *w == workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|(w, _)| *w).collect();
        return Err(format!(
            "unknown workload {workload:?} (want one of {})",
            names.join(", ")
        ));
    }
    Ok(Config {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// The end-to-end metrics of an untraced run: [`END_TO_END`], then
/// `failed_frac`, then the workload's own.
fn end_to_end(out: &Outcome, attempted: u64, failed: u64) -> Vec<Metric> {
    let rate = |f: &dyn Fn(&Pass) -> f64| {
        let mut v: Vec<f64> = out.passes.iter().map(f).collect();
        median(&mut v)
    };
    let jobs_per_s = rate(&|p| ratio(p.jobs as f64, p.secs));
    let winstr_per_s = rate(&|p| ratio(p.winstr as f64, p.secs));
    let passes = format!("median of {} passes", out.passes.len());
    let mut m = vec![
        Metric::new(
            "setup_s",
            "s",
            median(&mut out.setup_s.clone()),
            format!("median of {} set-ups", out.setup_s.len()),
        ),
        Metric::new("jobs_per_s", "jobs/s", jobs_per_s, passes.clone()),
        Metric::new("sim_winstr_per_s", "winstr/s", winstr_per_s, passes),
        Metric::new("peak_rss_mb", "MB", host::peak_rss_mb(), "VmHWM".into()),
        Metric::new(
            "failed_frac",
            "frac",
            failed as f64 / attempted.max(1) as f64,
            format!("{failed} of {attempted} ops"),
        ),
    ];
    m.extend(
        out.extra
            .iter()
            .map(|e| Metric::new(e.name, e.unit, e.value, e.note.clone())),
    );
    m
}

/// Names a workload must print, from [`END_TO_END`] and [`WORKLOADS`].
fn listed(workload: &str) -> Vec<&'static str> {
    let own = WORKLOADS
        .iter()
        .find(|(w, _)| *w == workload)
        .map_or(&[][..], |(_, m)| *m);
    END_TO_END
        .iter()
        .map(|(n, _)| *n)
        .chain(["failed_frac"])
        .chain(own.iter().copied())
        .collect()
}

/// The last output line.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[&Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{:?},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

fn main() {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        cfg.workload, cfg.seed, cfg.seconds, cfg.trace as u8
    );
    println!("host {}", host::fingerprint());

    let out = match cfg.workload.as_str() {
        "tune-paper" => tune::run(&cfg),
        "race-paper" => race::run(&cfg),
        "replay-matrix" => replay::run(&cfg),
        "serve-mix" => serve::run(&cfg),
        _ => unreachable!("parse_args accepts only listed workloads"),
    };

    let mut attempted = out.checks;
    let mut failed = out.checks_failed;
    for p in &out.passes {
        attempted += p.attempted;
        failed += p.failed;
    }
    // Every pass computes the same simulated statistics.
    let digest = out.passes.first().map_or(0, |p| p.digest);
    let diverged = out.passes.iter().filter(|p| p.digest != digest).count() as u64;
    attempted += out.passes.len() as u64;
    failed += diverged;

    for n in &out.notes {
        println!("{n}");
    }
    for (i, p) in out.passes.iter().enumerate() {
        println!(
            "pass {i}: {} jobs in {:.3} s = {:.4} jobs/s, {} winstr",
            p.jobs,
            p.secs,
            ratio(p.jobs as f64, p.secs),
            p.winstr
        );
    }
    println!(
        "digest {} {digest:016x} (identical in all {} passes: {})",
        cfg.workload,
        out.passes.len(),
        diverged == 0
    );

    let e2e = end_to_end(&out, attempted, failed);
    let missing: Vec<&str> = listed(&cfg.workload)
        .into_iter()
        .filter(|n| !e2e.iter().any(|m| m.name == *n))
        .collect();
    if !missing.is_empty() {
        eprintln!(
            "perfbench: {} did not measure {}",
            cfg.workload,
            missing.join(", ")
        );
        std::process::exit(1);
    }
    let reported: Vec<&Metric> = match &out.layers {
        Some((metrics, lines)) => {
            for l in lines {
                println!("{l}");
            }
            for m in metrics {
                println!("layer {:<22} {:>16.6} {}", m.name, m.value, m.unit);
            }
            metrics.iter().collect()
        }
        None => {
            for m in &e2e {
                println!(
                    "metric {:<18} {:>16.6} {:<10} ({})",
                    m.name, m.value, m.unit, m.note
                );
            }
            END_TO_END
                .iter()
                .map(|(n, _)| e2e.iter().find(|m| m.name == *n).expect("listed metric"))
                .collect()
        }
    };
    println!("{}", result_json(failed == 0, attempted, failed, &reported));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    /// `(name, unit)` of the objects in one list of BENCHMARK.json (the
    /// unit is empty for workloads).
    fn benchmark_list(list: &str) -> Vec<(String, String)> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let start = text.find(&format!("\"{list}\"")).expect("list present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("list closes")];
        let quoted = |chunk: &str, key: &str| {
            chunk
                .split(&format!("\"{key}\""))
                .nth(1)
                .and_then(|s| s.split('"').nth(1))
                .unwrap_or_default()
                .to_string()
        };
        body.split('{')
            .skip(1)
            .map(|chunk| (quoted(chunk, "name"), quoted(chunk, "unit")))
            .collect()
    }

    fn pairs(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn metric_and_workload_names_are_well_formed_and_unique() {
        let mut all: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        all.push("failed_frac");
        all.extend(WORKLOADS.iter().flat_map(|(_, m)| m.iter().copied()));
        all.extend(layers::PER_LAYER.iter().map(|(n, _)| *n));
        all.extend(WORKLOADS.iter().map(|(w, _)| *w));
        for n in &all {
            assert!(valid_name(n), "bad name {n:?}");
        }
        let mut sorted = all.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "names are used once");
    }

    #[test]
    fn benchmark_json_lists_what_the_benchmark_emits() {
        assert_eq!(benchmark_list("end_to_end"), pairs(&END_TO_END));
        assert_eq!(benchmark_list("per_layer"), pairs(&layers::PER_LAYER));
        let workloads: Vec<(&str, &str)> = WORKLOADS.iter().map(|(w, _)| (*w, "")).collect();
        assert_eq!(benchmark_list("workloads"), pairs(&workloads));
    }

    #[test]
    fn every_workload_emits_every_metric_it_lists() {
        for (w, own) in WORKLOADS {
            let out = Outcome {
                setup_s: vec![0.5],
                passes: vec![Pass {
                    jobs: 3,
                    winstr: 9,
                    secs: 1.5,
                    ..Pass::default()
                }],
                // Each workload module fills `extra` with its listed names.
                extra: own
                    .iter()
                    .map(|n| Metric::new(n, "ms", 1.0, String::new()))
                    .collect(),
                ..Outcome::default()
            };
            let e2e = end_to_end(&out, 4, 0);
            let names: Vec<&str> = e2e.iter().map(|m| m.name).collect();
            assert_eq!(names, listed(w), "{w}");
            assert_eq!(e2e[1].value, 2.0, "jobs per second of the pass");
        }
        // Per-layer metrics do not depend on the workload: a layer that did
        // no work reports 0.
        let (metrics, _) = layers::metrics(&Tally::default(), &[], 0, 0.0);
        let emitted: Vec<(&str, &str)> = metrics.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(emitted, layers::PER_LAYER);
        assert!(metrics.iter().all(|m| m.value == 0.0));
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let m = Metric::new("setup_s", "s", 0.25, String::new());
        assert_eq!(
            result_json(true, 3, 0, &[&m]),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.25,\"unit\":\"s\"}}}"
        );
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), 50.0);
        assert_eq!(percentile(&mut v, 90.0), 90.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn rng_is_seeded() {
        let draw = |s| {
            let mut r = Rng::new(s);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }
}
