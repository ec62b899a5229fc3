//! Property tests for the device-descriptor subsystem: every registry
//! preset validates, randomly perturbed-but-consistent descriptors survive
//! a JSON round trip byte-identically (so the content digest is stable
//! across serialization), and each validation rule fires with its
//! own typed error when a descriptor is mutated to violate exactly that
//! rule.

use np_gpu_sim::device::{from_name, parse_json};
use np_gpu_sim::{DeviceConfig, DeviceError, REGISTRY};
use proptest::prelude::*;

/// splitmix64 — one u64 of entropy expanded into a stream of draws.
fn mixer(mut state: u64) -> impl FnMut() -> u64 {
    move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Start from a registry preset and re-draw every constrained parameter
/// family in a way that keeps the descriptor *valid*: thread limits stay
/// warp-aligned, capacities stay multiples of their granularities, cache
/// geometry stays whole sets of power-of-two lines. The two u64 dynpar
/// cycle counts span the full range, so a round trip through `f64` (exact
/// only below 2^53) cannot go unnoticed.
fn make_valid(seed: u64) -> DeviceConfig {
    let mut next = mixer(seed);
    let mut dev = from_name(REGISTRY[(next() % REGISTRY.len() as u64) as usize]).unwrap();
    dev.name = format!("fuzz device {}", next() % 1_000_000);
    dev.num_smx = 1 + (next() % 64) as u32;
    dev.max_threads_per_block = 32 * (1 + (next() % 32) as u32);
    dev.max_threads_per_smx = 32 * (1 + (next() % 64) as u32);
    dev.max_blocks_per_smx = 1 + (next() % 32) as u32;
    dev.register_alloc_granularity = [64u32, 128, 256][(next() % 3) as usize];
    dev.registers_per_smx = dev.register_alloc_granularity * (1 + (next() % 1024) as u32);
    dev.max_registers_per_thread = 1 + (next() % 255) as u32;
    dev.shared_alloc_granularity = [128u32, 256, 512][(next() % 3) as usize];
    dev.shared_mem_per_smx = dev.shared_alloc_granularity * (1 + (next() % 384) as u32);
    dev.l1_line = [32u32, 64, 128, 256][(next() % 4) as usize];
    dev.l1_assoc = 1 + (next() % 8) as u32;
    dev.l1_bytes = dev.l1_line * dev.l1_assoc * (1 + (next() % 64) as u32);
    dev.txn_bytes = [32u32, 64, 128, 256][(next() % 4) as usize];
    dev.l2_latency = 1 + (next() % 500) as u32;
    dev.global_latency = 1 + (next() % 900) as u32;
    dev.dram_bytes_per_cycle = 1 + (next() % 512) as u32;
    dev.clock_ghz = (1 + next() % 3000) as f64 / 1000.0;
    dev.dynpar.enabled_overhead = 1.0 + (next() % 400) as f64 / 100.0;
    dev.dynpar.launch_parallelism = 1 + (next() % 32) as u32;
    dev.dynpar.launch_overhead_cycles = next();
    dev.dynpar.global_handoff_cycles = next();
    dev
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Perturbed-but-consistent descriptors pass validation, and the JSON
    /// encoding round-trips byte-identically — which is exactly the
    /// property that makes `digest()` a stable content address for the
    /// device across files, cache keys, and trajectory documents.
    #[test]
    fn valid_descriptors_round_trip_byte_identically(seed in 0u64..u64::MAX) {
        let dev = make_valid(seed);
        prop_assert_eq!(dev.validate(), Ok(()));

        let json = dev.descriptor_json();
        let from_json = parse_json(&json).expect("canonical JSON parses");
        prop_assert_eq!(from_json.descriptor_json(), json);
        prop_assert_eq!(from_json.digest(), dev.digest());
        let (got, want) = (&from_json.dynpar, &dev.dynpar);
        prop_assert_eq!(got.launch_overhead_cycles, want.launch_overhead_cycles);
        prop_assert_eq!(got.global_handoff_cycles, want.global_handoff_cycles);
    }

    /// Each validation rule rejects a descriptor mutated to violate exactly
    /// that rule, and identifies the offending field in its typed error —
    /// no rule masquerades as another.
    #[test]
    fn each_mutation_trips_its_own_rule(seed in 0u64..u64::MAX, which in 0usize..12) {
        let mut dev = make_valid(seed);
        let expect = match which {
            0 => {
                dev.num_smx = 0;
                DeviceError::ZeroField("num_smx")
            }
            1 => {
                dev.max_threads_per_block += 1;
                DeviceError::WarpMisaligned {
                    field: "max_threads_per_block",
                    value: dev.max_threads_per_block,
                }
            }
            2 => {
                dev.max_threads_per_smx += 31;
                DeviceError::WarpMisaligned {
                    field: "max_threads_per_smx",
                    value: dev.max_threads_per_smx,
                }
            }
            3 => {
                dev.txn_bytes = 96;
                DeviceError::NotPowerOfTwo { field: "txn_bytes", value: 96 }
            }
            4 => {
                dev.l1_line = 100;
                DeviceError::NotPowerOfTwo { field: "l1_line", value: 100 }
            }
            5 => {
                dev.registers_per_smx += 1;
                DeviceError::GranularityViolation {
                    field: "registers_per_smx",
                    value: dev.registers_per_smx,
                    granularity: dev.register_alloc_granularity,
                }
            }
            6 => {
                dev.shared_mem_per_smx += 1;
                DeviceError::GranularityViolation {
                    field: "shared_mem_per_smx",
                    value: dev.shared_mem_per_smx,
                    granularity: dev.shared_alloc_granularity,
                }
            }
            7 => {
                dev.l1_bytes += dev.l1_line / 2;
                DeviceError::GranularityViolation {
                    field: "l1_bytes",
                    value: dev.l1_bytes,
                    granularity: dev.l1_line,
                }
            }
            8 => {
                // A line count that is prime relative to the new assoc:
                // force exactly the sets rule, keeping everything upstream
                // of it satisfied.
                dev.l1_assoc = 3;
                dev.l1_bytes = dev.l1_line * 4;
                DeviceError::GranularityViolation {
                    field: "l1_assoc",
                    value: 4,
                    granularity: 3,
                }
            }
            9 => {
                dev.clock_ghz = 0.0;
                DeviceError::BadClock(0.0)
            }
            10 => {
                dev.dynpar.enabled_overhead = 0.5;
                DeviceError::BadDynPar { field: "enabled_overhead", value: 0.5 }
            }
            _ => {
                dev.name.clear();
                DeviceError::EmptyName
            }
        };
        prop_assert_eq!(dev.validate(), Err(expect));
    }

    /// Any single numeric perturbation moves the digest: two descriptors
    /// that differ in any parameter can never share a content address.
    #[test]
    fn digest_is_sensitive_to_parameters(seed in 0u64..u64::MAX) {
        let dev = make_valid(seed);
        let d = dev.digest();

        let mut m = dev.clone();
        m.num_smx += 1;
        prop_assert_ne!(d, m.digest(), "num_smx");

        let mut m = dev.clone();
        m.global_latency += 1;
        prop_assert_ne!(d, m.digest(), "global_latency");

        let mut m = dev.clone();
        m.clock_ghz += 0.001;
        prop_assert_ne!(d, m.digest(), "clock_ghz");

        let mut m = dev.clone();
        m.dynpar.launch_overhead_cycles = m.dynpar.launch_overhead_cycles.wrapping_add(1);
        prop_assert_ne!(d, m.digest(), "dynpar.launch_overhead_cycles");
    }
}

/// The four registry presets all validate and are pairwise digest-distinct
/// (the unit tests in `np_gpu_sim::device` prove more; this pins the
/// external surface the harness and CLI rely on).
#[test]
fn registry_surface_is_coherent() {
    let mut digests = Vec::new();
    for name in REGISTRY {
        let dev = from_name(name).unwrap();
        assert_eq!(dev.validate(), Ok(()), "{name}");
        digests.push(dev.digest());
    }
    digests.sort_unstable();
    digests.dedup();
    assert_eq!(digests.len(), REGISTRY.len(), "registry digests must be distinct");
}
