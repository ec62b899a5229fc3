//! `race-paper`: race-recorded launches of the paper-scale MV, TMV and NN
//! baselines and of each kernel's gtx680 tuning winner, pinned as a fixed
//! configuration with its gating policy (the harness's winner re-check).
//! One job = one launch.
//!
//! The happens-before recorder costs an order of magnitude on these
//! kernels; the transformed winners add shfl, barrier and gated-broadcast
//! access patterns that the baselines lack.

use crate::layers::{add, Tally};
use crate::{
    device, finish_trace, fold, intern, make_args, phases, report_line, sim_blocks, timed_setup,
    Config, Outcome, Pass, Rng,
};
use cuda_np::tuner::alloc_extra_buffers;
use cuda_np::{gating_policy, transform, NpOptions, Transformed};
use np_exec::{launch, Args, KernelReport, RaceCheckMode, SimOptions};
use np_gpu_sim::racecheck::RaceCheckOptions;
use np_gpu_sim::DeviceConfig;
use np_kernel_ir::{Kernel, NpType};
use np_obs::Recorder;
use np_workloads::{all_workloads, Scale, Workload};
use std::time::Instant;

/// The gtx680 tuning winners of the three kernels, as `tune-paper` finds
/// them (and EXPERIMENTS.md's Figure 10 table lists).
const WINNERS: [(&str, u32, NpType); 3] = [
    ("MV", 2, NpType::IntraWarp),
    ("TMV", 4, NpType::IntraWarp),
    ("NN", 4, NpType::IntraWarp),
];

struct Item {
    /// Index into the set-up's workloads.
    w: usize,
    /// `None` launches the baseline.
    winner: Option<Transformed>,
    kernel: Kernel,
    sim: SimOptions,
    label: String,
}

/// The workloads, the six launches, and the inputs of the first pass.
fn setup() -> (Vec<Box<dyn Workload>>, Vec<Item>, Vec<Args>) {
    let workloads: Vec<Box<dyn Workload>> = all_workloads(Scale::Paper)
        .into_iter()
        .filter(|w| WINNERS.iter().any(|(n, _, _)| *n == w.name()))
        .collect();
    let mut items = Vec::new();
    for (i, w) in workloads.iter().enumerate() {
        let &(_, slave, np_type) = WINNERS
            .iter()
            .find(|(n, _, _)| *n == w.name())
            .expect("filtered above");
        let sim = w.sim_options().with_race_check(RaceCheckMode::Record);
        let t = transform(&w.kernel(), &NpOptions::new(slave, np_type))
            .expect("pinned winner transforms");
        let winner_sim = sim.clone().with_race_options(RaceCheckOptions {
            max_findings: None,
            policy: gating_policy(&t),
        });
        items.push(Item {
            w: i,
            winner: None,
            kernel: w.kernel(),
            sim,
            label: format!("{} baseline", w.name()),
        });
        items.push(Item {
            w: i,
            kernel: t.kernel.clone(),
            winner: Some(t),
            sim: winner_sim,
            label: format!("{} {np_type:?} x{slave}", w.name()),
        });
    }
    let scratch = Tally::default();
    let args = items
        .iter()
        .map(|item| item_args(workloads[item.w].as_ref(), item, &scratch))
        .collect();
    (workloads, items, args)
}

/// Fresh inputs of one launch.
fn item_args(w: &dyn Workload, item: &Item, tally: &Tally) -> Args {
    let args = make_args(w, tally);
    match &item.winner {
        Some(t) => alloc_extra_buffers(args, t, w.grid()),
        None => args,
    }
}

/// Launch one item with `sim` on `args`, or on fresh inputs; returns the
/// report and its host seconds (input generation excluded).
fn launch_item(
    dev: &DeviceConfig,
    w: &dyn Workload,
    item: &Item,
    sim: &SimOptions,
    tally: &Tally,
    args: Option<Args>,
) -> Result<(KernelReport, f64), String> {
    let mut args = args.unwrap_or_else(|| item_args(w, item, tally));
    let t0 = Instant::now();
    let rep = launch(dev, &item.kernel, w.grid(), &mut args, sim)
        .map_err(|e| format!("{}: {e}", item.label))?;
    Ok((rep, t0.elapsed().as_secs_f64()))
}

pub fn run(cfg: &Config) -> Outcome {
    let dev = device("gtx680");
    let mut out = Outcome::default();
    let (workloads, items, args) = timed_setup(cfg, &mut out, setup);
    let mut first_args: Vec<Option<Args>> = args.into_iter().map(Some).collect();
    let rec = cfg.trace.then(|| Recorder::buffer(crate::OBS_CAP));
    let tally = Tally::default();
    let mut rng = Rng::new(cfg.seed);
    let mut errors: Vec<String> = Vec::new();
    // Host seconds of each item's race-recorded launch, first untraced pass.
    let mut record_secs: Vec<f64> = vec![0.0; items.len()];

    let (untraced, traced) = phases(cfg, rec.as_ref(), &tally, |pass_no, obs, tally| {
        let mut order: Vec<usize> = (0..items.len()).collect();
        rng.shuffle(&mut order);
        let mut pass = Pass::default();
        let mut digests: Vec<String> = vec![String::new(); items.len()];
        for i in order {
            let item = &items[i];
            pass.attempted += 1;
            let w = workloads[item.w].as_ref();
            let rep = match launch_item(&dev, w, item, &item.sim, tally, first_args[i].take()) {
                Ok((rep, secs)) => {
                    pass.jobs += 1;
                    pass.secs += secs;
                    if obs.is_none() && pass_no == 0 {
                        record_secs[i] = secs;
                    }
                    rep
                }
                Err(e) => {
                    pass.failed += 1;
                    errors.push(e);
                    continue;
                }
            };
            if !(rep.race.checked && rep.race.is_clean()) {
                pass.failed += 1;
                errors.push(format!(
                    "{}: {} race findings",
                    item.label,
                    rep.race.findings.len()
                ));
            }
            let blocks = sim_blocks(&item.sim, w.grid());
            pass.winstr += rep.profile.total.instructions;
            add(&tally.interp_blocks, blocks);
            add(&tally.interp_winstr, rep.profile.total.instructions);
            add(&tally.timing_blocks, blocks);
            add(&tally.timing_cycles, rep.cycles);
            add(&tally.race_findings, rep.race.findings.len() as u64);
            if obs.is_some() {
                intern(&item.kernel, tally);
            }
            digests[i] = format!(
                "{} {} {}",
                item.label,
                report_line(&rep),
                rep.race.to_json()
            );
        }
        pass.digest = digests.iter().fold(0, |acc, d| fold(acc, d));
        pass
    });

    if let Some(rec) = &rec {
        // The recorder's cost: each launch again with the checker off,
        // against its recorded time from the untraced phase.
        for (item, rec_s) in items.iter().zip(&record_secs) {
            let off = item.sim.clone().with_race_check(RaceCheckMode::Off);
            out.checks += 1;
            match launch_item(
                &dev,
                workloads[item.w].as_ref(),
                item,
                &off,
                &Tally::default(),
                None,
            ) {
                Ok((_, off_s)) => {
                    add(&tally.race_record_ns, (rec_s * 1e9) as u64);
                    add(&tally.race_off_ns, (off_s * 1e9) as u64);
                }
                Err(e) => {
                    out.checks_failed += 1;
                    errors.push(e);
                }
            }
        }
        finish_trace(&mut out, rec, &tally, &untraced, &traced);
    }
    out.passes = untraced;
    out.notes
        .extend(errors.into_iter().map(|e| format!("FAILED {e}")));
    out
}
