//! Shared-memory bank-conflict model.
//!
//! Kepler shared memory has 32 banks, each 4 bytes wide (in the 4-byte bank
//! mode the paper's kernels use). A warp access completes in one pass when
//! every active lane hits a different bank *or* lanes hitting the same bank
//! read the same word (broadcast). Otherwise the access replays once per
//! additional distinct word within the most-contended bank.

use super::LaneAddrs;

/// Number of shared-memory banks.
pub const NUM_BANKS: u64 = 32;
/// Bank width in bytes.
pub const BANK_BYTES: u64 = 4;

/// Number of serialized passes (>= 1 for any active access, 0 if no lane is
/// active) needed by one warp shared-memory access.
pub fn conflict_passes(addrs: &LaneAddrs) -> u32 {
    // At most one word per lane, so a fixed scratch array covers the worst
    // case without touching the heap on this hot path. Sorting groups equal
    // words, so each distinct word is counted once against its bank.
    let mut words = [0u64; 32];
    let mut n = 0usize;
    for addr in addrs.iter().flatten() {
        words[n] = *addr / BANK_BYTES;
        n += 1;
    }
    if n == 0 {
        return 0;
    }
    let words = &mut words[..n];
    words.sort_unstable();
    let mut per_bank = [0u32; NUM_BANKS as usize];
    let mut prev = None;
    for &word in words.iter() {
        if prev != Some(word) {
            per_bank[(word % NUM_BANKS) as usize] += 1;
            prev = Some(word);
        }
    }
    per_bank.iter().copied().max().unwrap_or(0).max(1)
}

#[cfg(test)]
mod tests {
    use super::super::lane_addrs;
    use super::*;

    #[test]
    fn conflict_free_sequential() {
        let a = lane_addrs((0..32).map(|l| (l, 4 * l as u64)));
        assert_eq!(conflict_passes(&a), 1);
    }

    #[test]
    fn broadcast_is_conflict_free() {
        let a = lane_addrs((0..32).map(|l| (l, 0x40)));
        assert_eq!(conflict_passes(&a), 1);
    }

    #[test]
    fn stride_32_words_is_32_way_conflict() {
        // Every lane hits bank 0 at a different word.
        let a = lane_addrs((0..32).map(|l| (l, 128 * l as u64)));
        assert_eq!(conflict_passes(&a), 32);
    }

    #[test]
    fn stride_2_words_is_2_way_conflict() {
        let a = lane_addrs((0..32).map(|l| (l, 8 * l as u64)));
        assert_eq!(conflict_passes(&a), 2);
    }

    #[test]
    fn odd_stride_is_conflict_free() {
        // Stride of 3 words is coprime with 32 banks: conflict free.
        let a = lane_addrs((0..32).map(|l| (l, 12 * l as u64)));
        assert_eq!(conflict_passes(&a), 1);
    }

    #[test]
    fn inactive_warp_costs_nothing() {
        let a = lane_addrs(std::iter::empty());
        assert_eq!(conflict_passes(&a), 0);
    }

    #[test]
    fn mixed_broadcast_and_conflict() {
        // Lanes 0..16 read word 0 (bank 0), lanes 16..32 read word 32
        // (also bank 0, different word): 2 passes.
        let a = lane_addrs((0..32).map(|l| (l, if l < 16 { 0 } else { 128 })));
        assert_eq!(conflict_passes(&a), 2);
    }
}
