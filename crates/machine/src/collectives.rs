//! Global collectives with modeled costs.
//!
//! The paper's algorithms use two collectives: **global concatenation**
//! (line 1 of `Bucket_incremental_sorting`, to gather all ranks' bucket
//! boundaries) and the global sums of the redistribution bookkeeping.
//! Under the two-level model a recursive-doubling implementation costs
//! each rank `stages * tau + (p - 1) * share_bytes * mu`, with `stages`
//! depending on the topology.

use crate::machine::Machine;
use crate::record::CollectiveShape;
use crate::stats::PhaseKind;

impl<S: Send> Machine<S> {
    /// Charge every rank for a collective moving `share_bytes` per rank
    /// in `shape`, synchronize the clocks and account the operation.
    fn charge_collective(&mut self, phase: PhaseKind, shape: CollectiveShape, share_bytes: usize) {
        let cfg = *self.config();
        let p = cfg.ranks;
        let stages = cfg.topology.collective_stages(p) as f64;
        let comm = match shape {
            _ if p == 1 => 0.0,
            CollectiveShape::Doubling => stages * cfg.tau + ((p - 1) * share_bytes) as f64 * cfg.mu,
            CollectiveShape::Pipelined => cfg.collective_cost(share_bytes),
        };
        let start = self.elapsed_s();
        for c in &mut self.clocks {
            c.advance_comm(comm);
        }
        let epoch = self.fault_epoch();
        self.acct
            .begin(phase, epoch, start)
            .set_collective(&cfg, shape, share_bytes, comm);
        self.acct.commit();
    }

    /// Global concatenation: every rank contributes one value extracted
    /// from its state, every rank receives the full vector (indexed by
    /// rank).  `bytes_per_item` models the wire size of one contribution.
    pub fn allgather<T, F, G>(
        &mut self,
        phase: PhaseKind,
        bytes_per_item: usize,
        extract: F,
        apply: G,
    ) where
        T: Clone + Send,
        F: Fn(usize, &S) -> T,
        G: Fn(usize, &mut S, &[T]),
    {
        let gathered: Vec<T> = self
            .ranks()
            .iter()
            .enumerate()
            .map(|(r, s)| extract(r, s))
            .collect();
        for (r, s) in self.ranks_mut().iter_mut().enumerate() {
            apply(r, s, &gathered);
        }
        self.charge_collective(phase, CollectiveShape::Doubling, bytes_per_item);
    }

    /// Global concatenation of *vectors*: rank `r` contributes a `Vec<T>`;
    /// every rank receives the concatenation in rank order.  The modeled
    /// share is the maximum contribution size (recursive doubling is
    /// bottlenecked by the largest share).
    pub fn allgatherv<T, F, G>(
        &mut self,
        phase: PhaseKind,
        bytes_per_item: usize,
        extract: F,
        apply: G,
    ) where
        T: Clone + Send,
        F: Fn(usize, &S) -> Vec<T>,
        G: Fn(usize, &mut S, &[T]),
    {
        let parts: Vec<Vec<T>> = self
            .ranks()
            .iter()
            .enumerate()
            .map(|(r, s)| extract(r, s))
            .collect();
        let max_share = parts.iter().map(Vec::len).max().unwrap_or(0);
        let concat: Vec<T> = parts.into_iter().flatten().collect();
        for (r, s) in self.ranks_mut().iter_mut().enumerate() {
            apply(r, s, &concat);
        }
        self.charge_collective(phase, CollectiveShape::Doubling, max_share * bytes_per_item);
    }

    /// All-reduce with a caller-supplied fold, 8-byte shares (one f64/u64).
    pub fn allreduce<T, F, R, G>(&mut self, phase: PhaseKind, extract: F, reduce: R, apply: G)
    where
        T: Clone + Send,
        F: Fn(usize, &S) -> T,
        R: Fn(T, T) -> T,
        G: Fn(usize, &mut S, &T),
    {
        let mut it = self.ranks().iter().enumerate().map(|(r, s)| extract(r, s));
        let first = it.next().expect("machine has at least one rank");
        let folded = it.fold(first, reduce);
        for (r, s) in self.ranks_mut().iter_mut().enumerate() {
            apply(r, s, &folded);
        }
        self.charge_collective(phase, CollectiveShape::Doubling, 8);
    }

    /// Element-wise all-reduce of a per-rank array (e.g. the replicated
    /// mesh's current grids in the Lubeck & Faber baseline): every rank
    /// contributes a vector, all receive the element-wise fold.  Each
    /// rank is charged `stages * (tau + share_bytes * mu)` — a pipelined
    /// tree reduction over the whole array, the dominant cost of the
    /// replicated-grid method at scale.
    ///
    /// # Panics
    /// Panics if ranks contribute arrays of different lengths.
    pub fn allreduce_elementwise<T, F, R, G>(
        &mut self,
        phase: PhaseKind,
        share_bytes: usize,
        extract: F,
        reduce: R,
        apply: G,
    ) where
        T: Clone + Send,
        F: Fn(usize, &S) -> Vec<T>,
        R: Fn(&T, &T) -> T,
        G: Fn(usize, &mut S, &[T]),
    {
        let mut it = self.ranks().iter().enumerate().map(|(r, s)| extract(r, s));
        let mut acc = it.next().expect("machine has at least one rank");
        for v in it {
            assert_eq!(v.len(), acc.len(), "ragged allreduce contributions");
            for (a, b) in acc.iter_mut().zip(&v) {
                *a = reduce(a, b);
            }
        }
        for (r, s) in self.ranks_mut().iter_mut().enumerate() {
            apply(r, s, &acc);
        }
        self.charge_collective(phase, CollectiveShape::Pipelined, share_bytes);
    }

    /// Barrier: level all clocks to the slowest rank (idle -> comm).
    pub fn barrier(&mut self) {
        let barrier = self.elapsed_s();
        for c in &mut self.clocks {
            c.sync_to(barrier);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::ExecMode;
    use crate::MachineConfig;

    fn cfg(p: usize) -> MachineConfig {
        MachineConfig {
            ranks: p,
            tau: 1.0,
            mu: 0.1,
            delta: 0.01,
            topology: crate::Topology::FullyConnected,
        }
    }

    #[test]
    fn allgather_distributes_all_values() {
        let mut m = Machine::new(cfg(4), ExecMode::Sequential, vec![(0u64, Vec::new()); 4]);
        m.allgather(
            PhaseKind::Setup,
            8,
            |r, _s| r as u64 * 10,
            |_r, s, all: &[u64]| s.1 = all.to_vec(),
        );
        for (_v, all) in m.ranks() {
            assert_eq!(all, &[0, 10, 20, 30]);
        }
        // log2(4)=2 stages * tau + 3 ranks * 8B * mu = 2 + 2.4
        assert!((m.elapsed_s() - 4.4).abs() < 1e-12, "{}", m.elapsed_s());
    }

    #[test]
    fn allgatherv_concatenates_in_rank_order() {
        let mut m = Machine::new(cfg(3), ExecMode::Sequential, vec![Vec::<u32>::new(); 3]);
        m.allgatherv(
            PhaseKind::Setup,
            4,
            |r, _s| vec![r as u32; r + 1],
            |_r, s, concat: &[u32]| *s = concat.to_vec(),
        );
        assert_eq!(m.ranks()[0], vec![0, 1, 1, 2, 2, 2]);
    }

    #[test]
    fn allreduce_folds_over_all_ranks() {
        let mut m = Machine::new(cfg(4), ExecMode::Sequential, vec![0.0f64; 4]);
        for (r, s) in m.ranks_mut().iter_mut().enumerate() {
            *s = r as f64 + 1.0;
        }
        m.allreduce(
            PhaseKind::Other,
            |_r, s| *s,
            f64::max,
            |_r, s, &max| *s = max,
        );
        assert!(m.ranks().iter().all(|&v| v == 4.0));
    }

    #[test]
    fn single_rank_collectives_are_free() {
        let mut m = Machine::new(cfg(1), ExecMode::Sequential, vec![0u64]);
        m.allgather(PhaseKind::Setup, 8, |_r, s| *s, |_r, _s, _all: &[u64]| {});
        assert_eq!(m.elapsed_s(), 0.0);
    }
}
