//! Per-rank scratch arena: reusable buffers for the per-iteration hot
//! loop.
//!
//! Every phase kernel that used to allocate a fresh `Vec` per iteration
//! (permutation buffers, bucket histograms, destination classification,
//! send staging, the gather-phase ghost cache) now draws on one
//! [`ScratchArena`] owned by its [`crate::state::RankState`].  After a
//! warm-up iteration the buffers have grown to the rank's working-set
//! size and steady-state iterations of the sort/classify/permute/pack
//! kernels perform zero heap allocations (verified by the
//! counting-allocator test in `tests/alloc_free.rs`).
//!
//! Gather reads the rank's own field block in place: a staging copy of
//! the fields here would cost `O(padded cells)` every iteration, however
//! few particles the rank holds.
//!
//! The arena is *transient* state: it is never snapshotted by
//! checkpoints and never crosses the wire, so adding or resizing buffers
//! cannot perturb simulation results.

use std::sync::Arc;

use pic_partition::RadixScratch;

/// Reusable per-rank buffers; see the module docs.
#[derive(Debug, Default)]
pub struct ScratchArena {
    /// Permutation buffer of the incremental sort.
    pub order: Vec<usize>,
    /// Per-bucket key counts of the incremental sort.
    pub bucket_sizes: Vec<usize>,
    /// Radix/counting sort scratch (ping-pong buffer + histogram).
    pub radix: RadixScratch,
    /// Destination rank of every local particle (classification output).
    pub dests: Vec<usize>,
    /// Key staging for the sorted-key swap in `sort_local`.
    pub keys_tmp: Vec<u64>,
    /// Cycle markers for the in-place attribute permutation.
    pub visited: Vec<bool>,
    /// Per-destination counters/offsets of the outgoing pack.
    pub counts: Vec<usize>,
    /// Outgoing key pack: all movers, grouped by destination.  Shared
    /// with in-flight [`crate::messages::ParticleBatch`] views; reused
    /// once every receiver has dropped its window (steady state).
    pub pack_keys: Arc<Vec<u64>>,
    /// Outgoing phase-space pack, five interleaved doubles per mover.
    pub pack_data: Arc<Vec<f64>>,
    /// Gather-phase ghost field cache (vertex key -> E,B), rebuilt every
    /// iteration but keeping its table capacity.
    pub ghost_cache: GhostFieldCache,
}

impl ScratchArena {
    /// A fresh, empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes currently reserved across all arena buffers — the
    /// high-water mark of the rank's transient working set, since arena
    /// buffers grow but are never shrunk.  Exported as a per-rank gauge
    /// by the metrics registry.
    pub fn high_water_bytes(&self) -> u64 {
        use std::mem::size_of;
        let mut bytes = self.order.capacity() * size_of::<usize>()
            + self.bucket_sizes.capacity() * size_of::<usize>()
            + self.dests.capacity() * size_of::<usize>()
            + self.keys_tmp.capacity() * size_of::<u64>()
            + self.visited.capacity() * size_of::<bool>()
            + self.counts.capacity() * size_of::<usize>()
            + self.pack_keys.capacity() * size_of::<u64>()
            + self.pack_data.capacity() * size_of::<f64>();
        bytes += self.radix.idx.capacity() * size_of::<usize>()
            + self.radix.counts.capacity() * size_of::<usize>();
        bytes += self.ghost_cache.stamp.capacity() * size_of::<u32>()
            + self.ghost_cache.vals.capacity() * size_of::<[f64; 6]>();
        bytes as u64
    }
}

/// Direct-address ghost field cache with generation stamping — the same
/// memory-for-time trade the paper's Figure 8 direct table makes for the
/// scatter accumulator, applied to the gather phase's vertex lookups.  A
/// `HashMap` here puts a SipHash in the innermost interpolation loop;
/// this table answers in one stamp compare + one indexed load, and
/// "clearing" it is a generation bump, not an `O(mesh)` sweep.
#[derive(Debug, Default)]
pub struct GhostFieldCache {
    /// Per-vertex generation stamp; a stale stamp means "absent".
    stamp: Vec<u32>,
    /// Per-vertex `[Ex, Ey, Ez, Bx, By, Bz]`, valid when stamped.
    vals: Vec<[f64; 6]>,
    generation: u32,
}

impl GhostFieldCache {
    /// Start a fresh iteration over a mesh of `m` packed vertex slots:
    /// grows the table on first use (or mesh growth), then invalidates
    /// every entry by bumping the generation.
    pub fn begin(&mut self, m: usize) {
        if self.stamp.len() < m {
            self.stamp.resize(m, 0);
            self.vals.resize(m, [0.0; 6]);
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // stamp wrap-around: reset to a clean state
            self.stamp.fill(0);
            self.generation = 1;
        }
    }

    /// Record the field values of packed vertex `key`.
    #[inline]
    pub fn insert(&mut self, key: u32, val: [f64; 6]) {
        let k = key as usize;
        self.stamp[k] = self.generation;
        self.vals[k] = val;
    }

    /// Field values of packed vertex `key`, if recorded this iteration.
    #[inline]
    pub fn get(&self, key: u32) -> Option<[f64; 6]> {
        let k = key as usize;
        if self.stamp.get(k) == Some(&self.generation) {
            Some(self.vals[k])
        } else {
            None
        }
    }
}

/// Borrow an `Arc`-held buffer for refilling: reuses the existing
/// allocation when no in-flight message still references it (the steady
/// state), otherwise replaces it with a fresh one.  Returns the cleared
/// buffer; the caller puts the `Arc` back into the arena after slicing.
pub(crate) fn reuse_arc_buf<T>(slot: &mut Arc<Vec<T>>) -> &mut Vec<T> {
    if Arc::get_mut(slot).is_none() {
        *slot = Arc::new(Vec::new());
    }
    let buf = Arc::get_mut(slot).expect("slot is unique after replacement");
    buf.clear();
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arc_buffer_reused_when_unique() {
        let mut slot: Arc<Vec<u64>> = Arc::new(vec![1, 2, 3]);
        let ptr = slot.as_ptr();
        let buf = reuse_arc_buf(&mut slot);
        assert!(buf.is_empty());
        buf.extend_from_slice(&[7, 8]);
        assert_eq!(slot.as_ptr(), ptr, "unique Arc must keep its allocation");
        assert_eq!(*slot, vec![7, 8]);
    }

    #[test]
    fn arc_buffer_replaced_when_shared() {
        let mut slot: Arc<Vec<u64>> = Arc::new(vec![1, 2, 3]);
        let holder = slot.clone();
        let buf = reuse_arc_buf(&mut slot);
        buf.push(9);
        assert_eq!(*holder, vec![1, 2, 3], "in-flight view must be untouched");
        assert_eq!(*slot, vec![9]);
    }
}
