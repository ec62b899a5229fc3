//! Replay: re-time a [`CapturedLaunch`] without re-interpreting it.
//!
//! Interpretation is the expensive half of a simulation (the 161 s
//! paper-scale sweep spends most of its wall clock there); timing a
//! materialized trace through the engine is cheap. Replay feeds a capture's
//! block traces straight into [`crate::engine::Engine`] and rebuilds the
//! profile report from the traces' counters, reproducing the exact
//! [`TimingReport`] and [`ProfileReport`] a direct simulation under the
//! same device configuration would have produced.
//!
//! Replay *validates* rather than trusts: the trace's memory-cost
//! summaries were computed with the capturing device's transaction and L1
//! line sizes folded in at emission time, so replaying on a device with
//! different values would silently mis-time — [`replay`] rejects that with
//! a typed [`ReplayError`] instead. It also rejects op shapes the trace
//! builder never emits (empty runs and accesses, unequal barrier counts
//! within a block), which the codec decodes faithfully but the engine
//! cannot time.

use crate::capture::CapturedLaunch;
use crate::config::DeviceConfig;
use crate::engine::simulate_blocks;
use crate::occupancy::{occupancy, Occupancy, OccupancyError};
use crate::profile::ProfileReport;
use crate::stats::TimingReport;
use crate::trace::{BlockTrace, WarpOp};

/// Why a capture cannot be replayed as requested. Most variants are
/// *configuration* problems — a decoded artifact is intact (the codec's
/// digest guarantees that), but not every artifact is valid under every
/// device or simulation configuration. [`ReplayError::MalformedTrace`] is
/// the exception: an intact artifact whose traces no interpretation could
/// have produced.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayError {
    /// The replay device's transaction/line geometry differs from what the
    /// traces were emitted under.
    DeviceMismatch { field: &'static str, captured: u32, requested: u32 },
    /// The capture was taken under a different sampling configuration than
    /// the replay requests (a sampled capture can never stand in for a
    /// full run, or vice versa).
    SamplingMismatch { captured: Option<u64>, requested: Option<u64> },
    /// The replay requests a different race-checker arming than the capture
    /// ran under — the race outcome is an interpretation artifact and
    /// cannot be recomputed from traces.
    RaceConfigMismatch { captured: &'static str, requested: &'static str },
    /// The requested option needs interpretation (e.g. fault injection) and
    /// is meaningless against a frozen trace.
    NeedsInterpretation { what: &'static str },
    /// The capture's kernel cannot launch on the replay device at all.
    Occupancy(OccupancyError),
    /// A warp trace holds an op the trace builder never emits, or the
    /// warps of one block execute different numbers of barriers.
    MalformedTrace { block: usize, warp: usize, what: &'static str },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::DeviceMismatch { field, captured, requested } => write!(
                f,
                "trace was captured with {field}={captured} but the replay device has \
                 {field}={requested}"
            ),
            ReplayError::SamplingMismatch { captured, requested } => write!(
                f,
                "trace was captured with sampling {captured:?} but replay requests \
                 {requested:?}"
            ),
            ReplayError::RaceConfigMismatch { captured, requested } => write!(
                f,
                "trace was captured with race checking {captured} but replay requests \
                 {requested}"
            ),
            ReplayError::NeedsInterpretation { what } => {
                write!(f, "{what} requires interpretation and cannot be replayed from a trace")
            }
            ReplayError::Occupancy(e) => write!(f, "capture cannot launch on replay device: {e}"),
            ReplayError::MalformedTrace { block, warp, what } => {
                write!(f, "malformed trace at block {block} warp {warp}: {what}")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

/// What replaying a capture yields: everything a `KernelReport` needs that
/// is not already stored on the capture itself.
#[derive(Debug, Clone)]
pub struct ReplayedLaunch {
    pub timing: TimingReport,
    pub occupancy: Occupancy,
    pub profile: ProfileReport,
}

/// Check that `dev` is compatible with the geometry baked into `cap`'s
/// traces at emission time.
pub fn validate_device(dev: &DeviceConfig, cap: &CapturedLaunch) -> Result<(), ReplayError> {
    if dev.txn_bytes != cap.txn_bytes {
        return Err(ReplayError::DeviceMismatch {
            field: "txn_bytes",
            captured: cap.txn_bytes,
            requested: dev.txn_bytes,
        });
    }
    if dev.l1_line != cap.l1_line {
        return Err(ReplayError::DeviceMismatch {
            field: "l1_line",
            captured: cap.l1_line,
            requested: dev.l1_line,
        });
    }
    Ok(())
}

/// What is wrong with `op`, if the trace builder could never have emitted
/// it (the engine's timing arithmetic assumes it never sees one).
fn malformed_op(op: &WarpOp) -> Option<&'static str> {
    match op {
        WarpOp::Alu { count: 0 } => Some("ALU run of zero instructions"),
        WarpOp::Sfu { count: 0 } => Some("SFU run of zero instructions"),
        WarpOp::GlobalLoad { segs, .. } | WarpOp::GlobalStore { segs, .. } if segs.is_empty() => {
            Some("global access touching no segment")
        }
        WarpOp::SharedLoad { passes: 0 } | WarpOp::SharedStore { passes: 0 } => {
            Some("shared access of zero bank passes")
        }
        WarpOp::LocalLoad { lines } | WarpOp::LocalStore { lines } | WarpOp::TexLoad { lines }
            if lines.is_empty() =>
        {
            Some("cached access touching no line")
        }
        WarpOp::ConstLoad { words: 0 } => Some("constant access of zero words"),
        _ => None,
    }
}

/// Check that every trace of `blocks` is one the trace builder could have
/// produced: no empty runs or accesses, and the same number of barriers in
/// every warp of a block.
fn validate_traces(blocks: &[BlockTrace]) -> Result<(), ReplayError> {
    for (block, bt) in blocks.iter().enumerate() {
        let mut bars = None;
        for (warp, wt) in bt.warps.iter().enumerate() {
            let mut n = 0;
            for op in &wt.ops {
                if let Some(what) = malformed_op(op) {
                    return Err(ReplayError::MalformedTrace { block, warp, what });
                }
                n += usize::from(matches!(op, WarpOp::Bar));
            }
            if *bars.get_or_insert(n) != n {
                return Err(ReplayError::MalformedTrace {
                    block,
                    warp,
                    what: "warps of one block execute different numbers of barriers",
                });
            }
        }
    }
    Ok(())
}

/// Re-time `cap` on `dev`. Byte-identical to direct simulation: the same
/// engine consumes the same traces under the same occupancy, and the
/// profile report is rebuilt from the traces' counters in block order.
pub fn replay(dev: &DeviceConfig, cap: &CapturedLaunch) -> Result<ReplayedLaunch, ReplayError> {
    validate_device(dev, cap)?;
    validate_traces(&cap.blocks)?;
    let occ = occupancy(dev, &cap.resources).map_err(ReplayError::Occupancy)?;
    let mut profile = ProfileReport::default();
    for b in &cap.blocks {
        profile.record_block(b);
    }
    let timing = simulate_blocks(dev, &occ, &cap.blocks, cap.total_blocks);
    Ok(ReplayedLaunch { timing, occupancy: occ, profile })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::CapturedRaceMode;
    use crate::occupancy::KernelResources;
    use crate::racecheck::RaceReport;
    use crate::trace::{BlockTrace, TraceBuilder, WarpOp};

    fn capture_of(blocks: Vec<BlockTrace>, total: u64) -> CapturedLaunch {
        CapturedLaunch {
            kernel_name: "k".into(),
            grid: [total as u32, 1, 1],
            block_dim: [64, 1, 1],
            total_blocks: total,
            sim_blocks: blocks.len() as u64,
            max_blocks: None,
            txn_bytes: 128,
            l1_line: 128,
            resources: KernelResources {
                block_size: 64,
                regs_per_thread: 8,
                shared_per_block: 0,
                local_per_thread: 0,
            },
            detect_races: false,
            race_mode: CapturedRaceMode::Off,
            total_steps: 10,
            race: RaceReport::default(),
            blocks,
        }
    }

    fn some_blocks(n: usize) -> Vec<BlockTrace> {
        (0..n)
            .map(|i| {
                let mut b = TraceBuilder::new(128, 128);
                b.alu((i + 1) as u16);
                b.push_raw(WarpOp::GlobalLoad { segs: vec![i as u64 * 128], bytes: 128 });
                let mut w = TraceBuilder::new(128, 128);
                w.alu(2);
                BlockTrace { warps: vec![b.finish(), w.finish()] }
            })
            .collect()
    }

    #[test]
    fn replay_matches_direct_simulation() {
        let dev = DeviceConfig::small_test();
        let blocks = some_blocks(4);
        let cap = capture_of(blocks.clone(), 4);
        let occ = occupancy(&dev, &cap.resources).unwrap();
        let direct = simulate_blocks(&dev, &occ, &blocks, 4);
        let replayed = replay(&dev, &cap).unwrap();
        assert_eq!(format!("{direct:?}"), format!("{:?}", replayed.timing));
    }

    #[test]
    fn device_geometry_mismatch_is_rejected() {
        let dev = DeviceConfig::small_test();
        let mut cap = capture_of(some_blocks(1), 1);
        cap.txn_bytes = 32;
        assert!(matches!(
            replay(&dev, &cap),
            Err(ReplayError::DeviceMismatch { field: "txn_bytes", .. })
        ));
        cap.txn_bytes = dev.txn_bytes;
        cap.l1_line = 64;
        assert!(matches!(
            replay(&dev, &cap),
            Err(ReplayError::DeviceMismatch { field: "l1_line", .. })
        ));
    }

    /// Replay a one-block capture whose second warp's trace is `ops`.
    fn replay_with(ops: Vec<WarpOp>) -> Result<ReplayedLaunch, ReplayError> {
        let mut blocks = some_blocks(1);
        blocks[0].warps[1].ops = ops;
        replay(&DeviceConfig::small_test(), &capture_of(blocks, 1))
    }

    fn malformed_what(r: Result<ReplayedLaunch, ReplayError>) -> &'static str {
        match r {
            Err(ReplayError::MalformedTrace { block: 0, warp: 1, what }) => what,
            other => panic!("expected a malformed-trace error at block 0 warp 1, got {other:?}"),
        }
    }

    #[test]
    fn unequal_barrier_counts_are_rejected() {
        let what = malformed_what(replay_with(vec![WarpOp::Bar, WarpOp::Alu { count: 1 }]));
        assert!(what.contains("barriers"), "{what}");
    }

    #[test]
    fn zero_count_alu_run_is_rejected() {
        let what = malformed_what(replay_with(vec![WarpOp::Alu { count: 0 }]));
        assert!(what.contains("ALU"), "{what}");
    }

    #[test]
    fn zero_pass_shared_load_is_rejected() {
        let what = malformed_what(replay_with(vec![WarpOp::SharedLoad { passes: 0 }]));
        assert!(what.contains("shared"), "{what}");
    }

    #[test]
    fn zero_word_constant_load_is_rejected() {
        let what = malformed_what(replay_with(vec![WarpOp::ConstLoad { words: 0 }]));
        assert!(what.contains("constant"), "{what}");
    }

    #[test]
    fn segmentless_global_load_is_rejected() {
        let what =
            malformed_what(replay_with(vec![WarpOp::GlobalLoad { segs: vec![], bytes: 0 }]));
        assert!(what.contains("global"), "{what}");
    }

    #[test]
    fn impossible_occupancy_is_rejected() {
        let dev = DeviceConfig::small_test();
        let mut cap = capture_of(some_blocks(1), 1);
        cap.resources.regs_per_thread = 100_000;
        assert!(matches!(replay(&dev, &cap), Err(ReplayError::Occupancy(_))));
    }
}
