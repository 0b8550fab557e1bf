//! Machine parameters: the two-level cost model of paper Section 4.

use serde::{Deserialize, Serialize};

/// Ceil of log2, with `log2_ceil(1) == 1` so a singleton collective still
/// pays one stage of startup.
pub(crate) fn log2_ceil(p: usize) -> u32 {
    debug_assert!(p > 0);
    if p <= 2 {
        1
    } else {
        usize::BITS - (p - 1).leading_zeros()
    }
}

/// Parameters of the virtual machine.
///
/// `tau`, `mu`, `delta` are the paper's τ, μ, δ.  All times in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Number of virtual processors `p`.
    pub ranks: usize,
    /// Message startup overhead τ (seconds per message).
    pub tau: f64,
    /// Per-byte transfer time μ (seconds per byte); `1/mu` is bandwidth.
    pub mu: f64,
    /// Per-unit local computation time δ (seconds per op unit).
    pub delta: f64,
}

impl MachineConfig {
    /// CM-5 era constants (no vector units), calibrated so that the
    /// reproduced 200-iteration runs land in the paper's range of tens to
    /// hundreds of seconds: τ = 86 µs message startup, 10 MB/s per-node
    /// bandwidth, δ = 1 µs per abstract op unit (a 33 MHz SPARC executed
    /// roughly a handful of flops per microsecond).
    pub fn cm5(ranks: usize) -> Self {
        assert!(ranks > 0, "machine needs at least one rank");
        Self {
            ranks,
            tau: 86e-6,
            mu: 1e-7,
            delta: 1e-6,
        }
    }

    /// A modern-cluster preset: 2 µs startup, 10 GB/s, 1 ns per op unit.
    /// Used by the sensitivity ablation to show how the policy trade-offs
    /// shift when computation is cheap relative to communication (paper
    /// Section 6.3, final remark).
    pub fn modern(ranks: usize) -> Self {
        assert!(ranks > 0, "machine needs at least one rank");
        Self {
            ranks,
            tau: 2e-6,
            mu: 1e-10,
            delta: 1e-9,
        }
    }

    /// Cost of sending one message of `bytes` bytes: `tau + bytes * mu`.
    #[inline]
    pub fn message_cost(&self, bytes: usize) -> f64 {
        self.tau + bytes as f64 * self.mu
    }

    /// Cost of `ops` abstract op units of local computation.
    #[inline]
    pub fn compute_cost(&self, ops: f64) -> f64 {
        ops * self.delta
    }

    /// Number of communication stages a tree collective pays on the
    /// `p` ranks: `⌈log2 p⌉`.  The paper's two-level model charges a
    /// fixed cost per off-processor access independent of distance
    /// ("these assumptions closely model the behavior of the CM-5"), so
    /// the network shape never enters point-to-point costs.
    #[inline]
    pub(crate) fn collective_stages(&self) -> u32 {
        log2_ceil(self.ranks)
    }

    /// Cost one rank pays for a collective that moves `bytes_per_stage`
    /// bytes per stage over `⌈log2 p⌉` stages.
    #[inline]
    pub fn collective_cost(&self, bytes_per_stage: usize) -> f64 {
        self.collective_stages() as f64 * self.message_cost(bytes_per_stage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_ceil_small_values() {
        assert_eq!(log2_ceil(1), 1);
        assert_eq!(log2_ceil(2), 1);
        assert_eq!(log2_ceil(3), 2);
        assert_eq!(log2_ceil(4), 2);
        assert_eq!(log2_ceil(5), 3);
        assert_eq!(log2_ceil(32), 5);
        assert_eq!(log2_ceil(128), 7);
    }

    #[test]
    fn message_cost_is_affine() {
        let cfg = MachineConfig::cm5(32);
        let c0 = cfg.message_cost(0);
        let c100 = cfg.message_cost(100);
        assert!((c0 - cfg.tau).abs() < 1e-15);
        assert!((c100 - (cfg.tau + 100.0 * cfg.mu)).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        MachineConfig::cm5(0);
    }

    #[test]
    fn cm5_calibration_orders_of_magnitude() {
        let cfg = MachineConfig::cm5(32);
        // startup dwarfs per-byte cost; compute unit is a microsecond
        assert!(cfg.tau > 100.0 * cfg.mu);
        assert!((cfg.delta - 1e-6).abs() < 1e-12);
    }
}
