//! `replay-matrix`: decode each paper-scale baseline's captured launch and
//! replay it on three devices. Set-up captures the baselines on gtx680 and
//! encodes them. One job = one decode + replay on one device.
//!
//! The interpreter does no work here: the trace codec and the timing
//! engine do all of it, over artifacts from 46 KB to 13 MB. SS is left out:
//! its 63 MB artifact took 85% of the set-up and 80% of every pass, so the
//! workload would have measured one kernel.

use crate::layers::{add, Tally};
use crate::{
    device, finish_trace, fold, intern, phases, report_line, timed_setup, Config, Outcome, Pass,
    Rng,
};
use np_exec::{capture_launch, replay_launch, SimOptions};
use np_gpu_sim::{CapturedLaunch, DeviceConfig};
use np_obs::Recorder;
use np_workloads::{all_workloads, Scale};
use std::time::Instant;

const DEVICES: [&str; 3] = ["gtx680", "k20c", "maxwell"];

struct Artifact {
    name: &'static str,
    sim: SimOptions,
    bytes: Vec<u8>,
    /// Simulated statistics of the capture-time report; the gtx680 replay
    /// must reproduce them exactly.
    captured: String,
}

/// Capture and encode the baselines. Counts go to `tally` only when
/// the set-up is traced.
fn setup(dev: &DeviceConfig, tally: Option<&Tally>) -> Vec<Artifact> {
    let scratch = Tally::default();
    let traced = tally.is_some();
    let tally = tally.unwrap_or(&scratch);
    all_workloads(Scale::Paper)
        .into_iter()
        .filter(|w| w.name() != "SS")
        .map(|w| {
            let sim = w.sim_options();
            let kernel = w.kernel();
            let mut args = w.make_args();
            let (rep, cap) = capture_launch(dev, &kernel, w.grid(), &mut args, &sim)
                .unwrap_or_else(|e| panic!("{} capture: {e}", w.name()));
            if traced {
                intern(&kernel, tally);
            }
            let bytes = cap.encode();
            add(&tally.interp_blocks, cap.sim_blocks);
            add(&tally.interp_winstr, rep.profile.total.instructions);
            add(&tally.timing_blocks, cap.sim_blocks);
            add(&tally.timing_cycles, rep.cycles);
            add(&tally.codec_encoded_bytes, bytes.len() as u64);
            Artifact {
                name: w.name(),
                sim,
                bytes,
                captured: report_line(&rep),
            }
        })
        .collect()
}

pub fn run(cfg: &Config) -> Outcome {
    let devs: Vec<DeviceConfig> = DEVICES.iter().map(|d| device(d)).collect();
    let mut out = Outcome::default();
    let rec = cfg.trace.then(|| Recorder::buffer(crate::OBS_CAP));
    let tally = Tally::default();
    // A traced run records its one set-up too: that is where the encoder
    // and the interpreter run on this workload.
    let artifacts = match &rec {
        Some(r) => np_obs::scope(r, None, None, || {
            timed_setup(cfg, &mut out, || setup(&devs[0], Some(&tally)))
        }),
        None => timed_setup(cfg, &mut out, || setup(&devs[0], None)),
    };
    let sizes: Vec<String> = artifacts
        .iter()
        .map(|a| format!("{} {} B", a.name, a.bytes.len()))
        .collect();
    out.notes.push(format!("artifacts {}", sizes.join(", ")));
    let mut rng = Rng::new(cfg.seed);
    let mut errors: Vec<String> = Vec::new();

    let (untraced, traced) = phases(cfg, rec.as_ref(), &tally, |_, _, tally| {
        let mut order: Vec<(usize, usize)> = (0..artifacts.len())
            .flat_map(|a| (0..devs.len()).map(move |d| (a, d)))
            .collect();
        rng.shuffle(&mut order);
        let mut pass = Pass::default();
        let mut digests: Vec<String> = vec![String::new(); order.len()];
        for (a, d) in order {
            let art = &artifacts[a];
            pass.attempted += 1;
            let t0 = Instant::now();
            let rep = CapturedLaunch::decode(&art.bytes)
                .map_err(|e| e.to_string())
                .and_then(|cap| replay_launch(&devs[d], &cap, &art.sim).map_err(|e| e.to_string()));
            pass.secs += t0.elapsed().as_secs_f64();
            let rep = match rep {
                Ok(rep) => rep,
                Err(e) => {
                    pass.failed += 1;
                    errors.push(format!("{} on {}: {e}", art.name, DEVICES[d]));
                    continue;
                }
            };
            pass.jobs += 1;
            pass.winstr += rep.profile.total.instructions;
            add(&tally.codec_decoded_bytes, art.bytes.len() as u64);
            add(&tally.timing_blocks, rep.timing.blocks_simulated);
            add(&tally.timing_cycles, rep.cycles);
            let line = report_line(&rep);
            if d == 0 && line != art.captured {
                pass.failed += 1;
                errors.push(format!(
                    "{} gtx680 replay differs from its capture",
                    art.name
                ));
            }
            digests[a * devs.len() + d] = format!("{} {} {line}", art.name, DEVICES[d]);
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
    out
}
