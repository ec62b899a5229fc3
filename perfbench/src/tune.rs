//! `tune-paper`: baseline launch plus an exhaustive auto-tune of each
//! paper-scale Table-1 kernel except SS, on gtx680. One job = one kernel.
//!
//! Interpretation inside the tuner's captures carries most of the host
//! time and the race recorder is off. SS is left out because it alone
//! tunes for longer than the other nine together.

use crate::layers::{add, Tally};
use crate::{
    close, device, finish_trace, fold, intern, make_args, phases, report_line, sim_blocks,
    timed_setup, Config, Metric, Outcome, Pass, Rng,
};
use cuda_np::tuner::{alloc_extra_buffers, autotune_with_policy, default_candidates};
use cuda_np::{Transformed, TuneCandidate, TuneOutcome, TunePolicy};
use np_exec::launch;
use np_gpu_sim::DeviceConfig;
use np_kernel_ir::Kernel;
use np_obs::Recorder;
use np_workloads::{all_workloads, Scale, Workload};
use std::sync::Mutex;
use std::time::Instant;

/// The "paper (approx.)" column of EXPERIMENTS.md's Figure 10 table: the
/// paper's GTX 680 speedups, read approximately off its bar chart.
const PAPER_FIG10: [(&str, f64); 9] = [
    ("MC", 2.8),
    ("LU", 1.6),
    ("LE", 2.25),
    ("MV", 2.0),
    ("LIB", 2.0),
    ("CFD", 1.36),
    ("BK", 2.0),
    ("TMV", 3.0),
    ("NN", 6.69),
];

struct Item {
    w: Box<dyn Workload>,
    kernel: Kernel,
    candidates: Vec<TuneCandidate>,
    /// CPU reference output, for kernels simulated over their full grid.
    reference: Option<Vec<f32>>,
}

fn setup() -> Vec<Item> {
    all_workloads(Scale::Paper)
        .into_iter()
        .filter(|w| w.name() != "SS")
        .map(|w| {
            let kernel = w.kernel();
            let candidates = default_candidates(kernel.block_dim.x, 1024);
            let full = w
                .sim_options()
                .max_blocks
                .is_none_or(|m| m >= w.grid().count());
            let reference = full.then(|| w.reference());
            Item {
                w,
                kernel,
                candidates,
                reference,
            }
        })
        .collect()
}

/// What the output checks need from a kernel's last job.
struct Done {
    baseline_out: Vec<f32>,
    best: Transformed,
    speedup: f64,
    digest: String,
}

/// Baseline launch + exhaustive tune of one kernel. Returns the job's
/// result, its simulated warp-instructions and its host seconds.
fn job(
    dev: &DeviceConfig,
    item: &Item,
    tally: &Tally,
    traced: bool,
) -> Result<(Done, u64, f64), String> {
    let w = item.w.as_ref();
    let grid = w.grid();
    let sim = w.sim_options();
    let launched: Mutex<Vec<Kernel>> = Mutex::new(Vec::new());
    let make = |t: &Transformed| {
        if traced {
            launched.lock().expect("kernel list").push(t.kernel.clone());
        }
        alloc_extra_buffers(make_args(w, tally), t, grid)
    };

    let t0 = Instant::now();
    let mut args = make_args(w, tally);
    let base = launch(dev, &item.kernel, grid, &mut args, &sim)
        .map_err(|e| format!("{} baseline: {e}", w.name()))?;
    let p = autotune_with_policy(
        &item.kernel,
        dev,
        grid,
        &make,
        &sim,
        &item.candidates,
        TunePolicy::Exhaustive,
    )
    .map_err(|e| format!("{} tuning: {e}", w.name()))?;
    let secs = t0.elapsed().as_secs_f64();

    if traced {
        intern(&item.kernel, tally);
        for k in launched.into_inner().expect("kernel list") {
            intern(&k, tally);
        }
    }

    let r = p.result;
    let blocks = sim_blocks(&sim, grid);
    let mut winstr = base.profile.total.instructions;
    let mut cycles = base.cycles;
    let mut ok = 1;
    let mut digest = format!("{} base {}", w.name(), report_line(&base));
    for e in &r.entries {
        match &e.outcome {
            TuneOutcome::Ok { cycles: c } => {
                ok += 1;
                cycles += c;
            }
            TuneOutcome::Rejected(_) => add(&tally.transform_rejected, 1),
            TuneOutcome::Skipped => {}
            _ => add(&tally.tuner_failed, 1),
        }
        winstr += e.profile.as_ref().map_or(0, |p| p.instructions);
        digest.push_str(&format!(
            " | {:?} s={} {} {} {}",
            e.np_type,
            e.slave_size,
            e.cycles().map_or("-".into(), |c| c.to_string()),
            e.profile.as_ref().map_or("-".into(), |p| p.to_json()),
            e.stall.as_ref().map_or("-".into(), |s| s.to_json()),
        ));
    }
    digest.push_str(&format!(" | best {}", r.best_index));
    add(&tally.interp_blocks, blocks * ok);
    add(&tally.interp_winstr, winstr);
    add(&tally.timing_blocks, blocks * ok);
    add(&tally.timing_cycles, cycles);
    add(&tally.tuner_evaluated, p.evaluated as u64);
    add(&tally.tuner_skipped, p.skipped as u64);

    let baseline_out = args
        .get_f32(w.output_name())
        .map(<[f32]>::to_vec)
        .unwrap_or_default();
    let done = Done {
        baseline_out,
        speedup: base.cycles as f64 / r.best_report.cycles as f64,
        best: r.best,
        digest,
    };
    Ok((done, winstr, secs))
}

pub fn run(cfg: &Config) -> Outcome {
    let dev = device("gtx680");
    let mut out = Outcome::default();
    let items = timed_setup(cfg, &mut out, setup);
    let rec = cfg.trace.then(|| Recorder::buffer(crate::OBS_CAP));
    let tally = Tally::default();
    let mut rng = Rng::new(cfg.seed);
    let mut last: Vec<Option<Done>> = items.iter().map(|_| None).collect();
    let mut errors: Vec<String> = Vec::new();

    let (untraced, traced) = phases(cfg, rec.as_ref(), &tally, |_, obs, tally| {
        let mut order: Vec<usize> = (0..items.len()).collect();
        rng.shuffle(&mut order);
        let mut pass = Pass::default();
        let mut digests: Vec<String> = vec![String::new(); items.len()];
        for i in order {
            pass.attempted += 1;
            match job(&dev, &items[i], tally, obs.is_some()) {
                Ok((done, winstr, secs)) => {
                    pass.jobs += 1;
                    pass.winstr += winstr;
                    pass.secs += secs;
                    digests[i] = done.digest.clone();
                    last[i] = Some(done);
                }
                Err(e) => {
                    pass.failed += 1;
                    errors.push(e);
                }
            }
        }
        pass.digest = digests.iter().fold(0, |acc, d| fold(acc, d));
        pass
    });
    if let Some(rec) = &rec {
        finish_trace(&mut out, rec, &tally, &untraced, &traced);
    }
    out.passes = untraced;
    out.notes
        .extend(errors.into_iter().map(|e| format!("FAILED {e}")));

    // Output checks, untimed: each winner against its baseline, and each
    // full-grid baseline against the CPU reference.
    let mut speedups = Vec::new();
    for (item, done) in items.iter().zip(&last) {
        let w = item.w.as_ref();
        let Some(done) = done else { continue };
        let grid = w.grid();
        let mut args = alloc_extra_buffers(w.make_args(), &done.best, grid);
        let winner_ok = launch(&dev, &done.best.kernel, grid, &mut args, &w.sim_options())
            .ok()
            .and_then(|_| args.get_f32(w.output_name()).map(<[f32]>::to_vec))
            .is_some_and(|o| close(&o, &done.baseline_out, w.tolerance()));
        let mut checks = vec![("winner matches baseline", winner_ok)];
        if let Some(reference) = &item.reference {
            checks.push((
                "baseline matches reference",
                close(&done.baseline_out, reference, w.tolerance()),
            ));
        }
        for (what, ok) in checks {
            out.checks += 1;
            if !ok {
                out.checks_failed += 1;
                out.notes.push(format!("FAILED {} {what}", w.name()));
            }
        }
        let paper = PAPER_FIG10
            .iter()
            .find(|(n, _)| *n == w.name())
            .map_or(f64::NAN, |p| p.1);
        let rep = &done.best.report;
        out.notes.push(format!(
            "kernel {:<4} winner {:<9} x{:<2} sim_speedup {:.3}x  paper ~{:.2}x  error {:+.1}%",
            w.name(),
            rep.np_type.map_or("none".into(), |t| format!("{t:?}")),
            rep.slave_size,
            done.speedup,
            paper,
            100.0 * (done.speedup / paper - 1.0),
        ));
        speedups.push(done.speedup);
    }
    let gm = (speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len().max(1) as f64).exp();
    out.extra.push(Metric::new(
        "sim_speedup_gm",
        "x",
        gm,
        format!(
            "geomean of {} kernels, SS excluded; EXPERIMENTS.md Fig 10's paper column is approximate",
            speedups.len()
        ),
    ));
    out
}
