//! Ghost grid point tables: duplicate removal + message coalescing.
//!
//! "For each execution loop, the same off-processor data may be accessed
//! multiple times, but only a single copy of that data can be fetched"
//! (paper Section 3.2).  With ~4 particles per cell, each off-block vertex
//! is touched by several particles; the accumulator sums contributions
//! locally so each ghost point crosses the wire exactly once.  The paper
//! compares two implementations (Figure 8): a **hash table** (memory
//! proportional to the ghost set, search time per access) and a **direct
//! address table** (memory proportional to the whole mesh, O(1) access) —
//! both are provided and the dedup ablation bench measures the trade.
//!
//! Both tables only *index* a dense entry list, `(packed vertex, [Jx, Jy,
//! Jz])` in first-touch order, and share one drain: it tags each entry
//! with its owner rank, sorts the list in place by `(owner, vertex)` and
//! copies it into the caller's pack buffer, which the scatter phase then
//! slices into one message per owner.  The drain leaves each vertex
//! mapped to its index there, where the gather phase finds the owners'
//! replies, so the Figure 8 trade holds for both phases.  The hash table
//! is open addressing over a power-of-two slot array (linear probing,
//! multiplicative hash of the packed vertex); its slots hold `(vertex,
//! entry index)`, so its memory stays proportional to the ghost set.
//! Every buffer keeps its capacity across rounds: a warm table adds,
//! drains and looks up without touching the heap.

use pic_field::BlockLayout;

use crate::config::DedupKind;

/// One coalesced ghost contribution: `(packed vertex gy*nx+gx, [Jx, Jy,
/// Jz])`.
pub type GhostEntry = (u32, [f64; 3]);

/// Accumulates off-block vertex contributions, deduplicating by vertex.
/// A round is `clear`, `add`s, `drain_by_owner`, then `position` lookups.
pub trait GhostAccumulator {
    /// Add a contribution to the global vertex `(gx, gy)`.
    fn add(&mut self, gx: u32, gy: u32, val: [f64; 3]);

    /// Number of distinct ghost vertices accumulated and not yet drained.
    fn distinct(&self) -> usize;

    /// Op units charged per `add` (differs between implementations).
    fn add_cost(&self) -> f64;

    /// Start a new round: forget every vertex.  Keeps capacity.
    fn clear(&mut self);

    /// Index of vertex `(gx, gy)` in the last drain's output, or `None`
    /// if it was not drained since the last `clear`.
    fn position(&self, gx: u32, gy: u32) -> Option<usize>;

    /// Drain the entries into `out` (cleared first), sorted by owner rank
    /// and, within an owner, by packed vertex index (deterministic wire
    /// order).  Returns the `(owner, entry count)` runs of `out`, owners
    /// ascending.  The table then answers `position` for every drained
    /// vertex; call `clear` before adding again.
    fn drain_by_owner(
        &mut self,
        layout: &BlockLayout,
        out: &mut Vec<GhostEntry>,
    ) -> &[(usize, usize)];
}

/// The dense entry list both tables index, and their shared drain.
#[derive(Debug, Default)]
struct Entries {
    nx: u32,
    /// Live entries in first-touch order: `(packed vertex, owner rank,
    /// sum)`.  The drain fills in the owner (the slot is free padding
    /// next to the vertex) and sorts the list in place.
    list: Vec<(u32, u32, [f64; 3])>,
    /// `(owner, entry count)` runs of the last drain; empty once cleared.
    runs: Vec<(usize, usize)>,
}

impl Entries {
    fn new(nx: usize) -> Self {
        Self {
            nx: nx as u32,
            ..Self::default()
        }
    }

    /// Sum `val` into entry `i`, in arrival order.
    #[inline]
    fn accumulate(&mut self, i: u32, val: [f64; 3]) {
        let e = &mut self.list[i as usize].2;
        e[0] += val[0];
        e[1] += val[1];
        e[2] += val[2];
    }

    /// Start a new entry; returns its index.
    #[inline]
    fn push(&mut self, key: u32, val: [f64; 3]) -> u32 {
        debug_assert!(self.runs.is_empty(), "add after a drain without clear");
        self.list.push((key, 0, val));
        (self.list.len() - 1) as u32
    }

    fn drain(&mut self, layout: &BlockLayout, out: &mut Vec<GhostEntry>) -> &[(usize, usize)] {
        let nx = self.nx;
        for e in &mut self.list {
            e.1 = layout.owner_of((e.0 % nx) as usize, (e.0 / nx) as usize) as u32;
        }
        // vertices are distinct, so the unstable sort is deterministic
        self.list
            .sort_unstable_by_key(|e| (u64::from(e.1) << 32) | u64::from(e.0));
        out.clear();
        self.runs.clear();
        for (key, owner, val) in self.list.drain(..) {
            let owner = owner as usize;
            match self.runs.last_mut() {
                Some((o, n)) if *o == owner => *n += 1,
                _ => self.runs.push((owner, 1)),
            }
            out.push((key, val));
        }
        &self.runs
    }
}

/// Marks a free hash slot (no packed vertex reaches `u32::MAX`).
const EMPTY: u32 = u32::MAX;

/// Slot count of a fresh hash table.
const MIN_SLOTS: usize = 16;

/// Hash-table deduplication: open addressing with linear probing, at
/// most half the slots occupied.
#[derive(Debug)]
pub struct HashTableAccumulator {
    entries: Entries,
    /// `(packed vertex, entry index, then drain position)`, or `(EMPTY,
    /// _)`; power-of-two length, kept across rounds.
    slots: Vec<(u32, u32)>,
    /// `32 - log2(slots.len())`: the multiplicative hash keeps the top
    /// bits of the product.
    shift: u32,
}

impl HashTableAccumulator {
    /// Accumulator for an `nx`-wide mesh (indices packed as `gy*nx+gx`).
    pub fn new(nx: usize) -> Self {
        Self {
            entries: Entries::new(nx),
            slots: vec![(EMPTY, 0); MIN_SLOTS],
            shift: 32 - MIN_SLOTS.trailing_zeros(),
        }
    }

    /// The slot holding `key`, or the free slot where it goes; Fibonacci
    /// hashing spreads vertices that share their low bits.
    #[inline]
    fn probe(slots: &[(u32, u32)], shift: u32, key: u32) -> usize {
        let mask = slots.len() - 1;
        let mut s = (key.wrapping_mul(0x9E37_79B9) >> shift) as usize;
        while slots[s].0 != key && slots[s].0 != EMPTY {
            s = (s + 1) & mask;
        }
        s
    }

    /// Double the slot array and re-insert every live entry.
    fn grow(&mut self) {
        let cap = self.slots.len() * 2;
        self.shift -= 1;
        self.slots.clear();
        self.slots.resize(cap, (EMPTY, 0));
        for (i, &(key, _, _)) in self.entries.list.iter().enumerate() {
            let s = Self::probe(&self.slots, self.shift, key);
            self.slots[s] = (key, i as u32);
        }
    }
}

impl GhostAccumulator for HashTableAccumulator {
    fn add(&mut self, gx: u32, gy: u32, val: [f64; 3]) {
        let key = gy * self.entries.nx + gx;
        let s = Self::probe(&self.slots, self.shift, key);
        if self.slots[s].0 == key {
            self.entries.accumulate(self.slots[s].1, val);
        } else {
            self.slots[s] = (key, self.entries.push(key, val));
            if self.entries.list.len() * 2 > self.slots.len() {
                self.grow();
            }
        }
    }

    fn distinct(&self) -> usize {
        self.entries.list.len()
    }

    fn add_cost(&self) -> f64 {
        crate::costs::GHOST_ADD_HASH
    }

    fn clear(&mut self) {
        self.slots.fill((EMPTY, 0));
        self.entries.list.clear();
        self.entries.runs.clear();
    }

    fn position(&self, gx: u32, gy: u32) -> Option<usize> {
        let key = gy * self.entries.nx + gx;
        let (k, i) = self.slots[Self::probe(&self.slots, self.shift, key)];
        (k == key).then_some(i as usize)
    }

    fn drain_by_owner(
        &mut self,
        layout: &BlockLayout,
        out: &mut Vec<GhostEntry>,
    ) -> &[(usize, usize)] {
        let runs = self.entries.drain(layout, out);
        for (pos, &(key, _)) in out.iter().enumerate() {
            let s = Self::probe(&self.slots, self.shift, key);
            self.slots[s].1 = pos as u32;
        }
        runs
    }
}

/// Direct-address-table deduplication with generation stamping, so the
/// table is reused across iterations without clearing (the memory-for-time
/// trade the paper describes, plus the standard generation trick to avoid
/// the O(m) clear).
#[derive(Debug)]
pub struct DirectTableAccumulator {
    entries: Entries,
    /// Per-vertex generation stamp; a stale stamp means "empty".
    stamp: Vec<u32>,
    /// Per-vertex entry index, then drain position, if the stamp is current.
    slot: Vec<u32>,
    generation: u32,
}

impl DirectTableAccumulator {
    /// Accumulator over the whole `nx x ny` vertex grid.
    pub fn new(nx: usize, ny: usize) -> Self {
        let m = nx * ny;
        Self {
            entries: Entries::new(nx),
            stamp: vec![0; m],
            slot: vec![0; m],
            generation: 1,
        }
    }
}

impl GhostAccumulator for DirectTableAccumulator {
    fn add(&mut self, gx: u32, gy: u32, val: [f64; 3]) {
        let key = gy * self.entries.nx + gx;
        let k = key as usize;
        if self.stamp[k] == self.generation {
            self.entries.accumulate(self.slot[k], val);
        } else {
            self.stamp[k] = self.generation;
            self.slot[k] = self.entries.push(key, val);
        }
    }

    fn distinct(&self) -> usize {
        self.entries.list.len()
    }

    fn add_cost(&self) -> f64 {
        crate::costs::GHOST_ADD_DIRECT
    }

    fn clear(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // stamp wrap-around: reset to a clean state
            self.stamp.fill(0);
            self.generation = 1;
        }
        self.entries.list.clear();
        self.entries.runs.clear();
    }

    fn position(&self, gx: u32, gy: u32) -> Option<usize> {
        let k = (gy * self.entries.nx + gx) as usize;
        (self.stamp[k] == self.generation).then_some(self.slot[k] as usize)
    }

    fn drain_by_owner(
        &mut self,
        layout: &BlockLayout,
        out: &mut Vec<GhostEntry>,
    ) -> &[(usize, usize)] {
        let runs = self.entries.drain(layout, out);
        for (pos, &(key, _)) in out.iter().enumerate() {
            self.slot[key as usize] = pos as u32;
        }
        runs
    }
}

/// Build the configured accumulator.  A trait object on purpose: `add`
/// stays an out-of-line call, which keeps the scatter loop's interior
/// path tight (inlining the probe loop there slowed `uniform-dense`
/// scatter by ~15% on a 2-vCPU x86-64 VM).
pub fn make_accumulator(kind: DedupKind, nx: usize, ny: usize) -> Box<dyn GhostAccumulator + Send> {
    match kind {
        DedupKind::Hash => Box::new(HashTableAccumulator::new(nx)),
        DedupKind::Direct => Box::new(DirectTableAccumulator::new(nx, ny)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> BlockLayout {
        BlockLayout::new_2d(8, 8, 2, 2) // 4 ranks, 4x4 blocks
    }

    fn accumulate(acc: &mut dyn GhostAccumulator) {
        // three adds to the same vertex (1,1) -> rank 0, one to (5,5) -> rank 3
        acc.add(1, 1, [1.0, 0.0, 0.0]);
        acc.add(1, 1, [2.0, 0.5, 0.0]);
        acc.add(1, 1, [3.0, 0.0, 0.25]);
        acc.add(5, 5, [1.0, 1.0, 1.0]);
    }

    /// Drain into a fresh buffer: `(entries, runs)`.
    fn drain(acc: &mut dyn GhostAccumulator) -> (Vec<GhostEntry>, Vec<(usize, usize)>) {
        let mut out = Vec::new();
        let runs = acc.drain_by_owner(&layout(), &mut out).to_vec();
        (out, runs)
    }

    #[test]
    fn hash_table_deduplicates() {
        let mut acc = HashTableAccumulator::new(8);
        accumulate(&mut acc);
        assert_eq!(acc.distinct(), 2);
        let (out, runs) = drain(&mut acc);
        assert_eq!(runs, vec![(0, 1), (3, 1)]);
        assert_eq!(out[0], (9, [6.0, 0.5, 0.25]));
        assert_eq!(out[1].0, 45);
    }

    #[test]
    fn direct_table_matches_hash_table() {
        let mut hash = HashTableAccumulator::new(8);
        let mut direct = DirectTableAccumulator::new(8, 8);
        accumulate(&mut hash);
        accumulate(&mut direct);
        assert_eq!(drain(&mut hash), drain(&mut direct));
    }

    #[test]
    fn direct_table_is_reusable_across_drains() {
        let mut acc = DirectTableAccumulator::new(8, 8);
        accumulate(&mut acc);
        let first = drain(&mut acc);
        assert_eq!(acc.distinct(), 0);
        acc.clear();
        accumulate(&mut acc);
        assert_eq!(first, drain(&mut acc));
    }

    #[test]
    fn hash_table_is_reusable_across_drains() {
        let mut acc = HashTableAccumulator::new(8);
        accumulate(&mut acc);
        let first = drain(&mut acc);
        assert_eq!(acc.distinct(), 0);
        acc.clear();
        accumulate(&mut acc);
        assert_eq!(first, drain(&mut acc));
    }

    #[test]
    fn entries_are_sorted_within_owner() {
        let mut acc = HashTableAccumulator::new(8);
        acc.add(3, 0, [1.0; 3]);
        acc.add(0, 0, [1.0; 3]);
        acc.add(2, 1, [1.0; 3]);
        let (out, runs) = drain(&mut acc);
        assert_eq!(runs, vec![(0, 3)]);
        let keys: Vec<u32> = out.iter().map(|e| e.0).collect();
        assert_eq!(keys, vec![0, 3, 10]);
    }

    #[test]
    fn hash_table_grows_past_its_first_slots_and_keeps_them() {
        let mut acc = HashTableAccumulator::new(8);
        for k in 0..64u32 {
            acc.add(k % 8, k / 8, [f64::from(k); 3]);
            acc.add(k % 8, k / 8, [1.0; 3]);
        }
        assert_eq!(acc.distinct(), 64);
        assert!(acc.slots.len() >= 128, "load factor stays at most 1/2");
        let cap = acc.slots.len();
        let (out, runs) = drain(&mut acc);
        assert_eq!(runs.iter().map(|r| r.1).sum::<usize>(), 64);
        for (k, v) in out {
            assert_eq!(v, [f64::from(k) + 1.0; 3]);
        }
        assert_eq!(acc.slots.len(), cap, "capacity kept across drains");
        acc.clear();
        assert_eq!(acc.slots.len(), cap, "capacity kept across rounds");
        assert!(acc.slots.iter().all(|s| s.0 == EMPTY));
    }

    #[test]
    fn direct_table_survives_stamp_wrap_around() {
        let mut acc = DirectTableAccumulator::new(8, 8);
        accumulate(&mut acc);
        let first = drain(&mut acc);
        acc.clear();
        acc.generation = u32::MAX;
        accumulate(&mut acc);
        assert_eq!(first, drain(&mut acc));
        acc.clear();
        assert_eq!(acc.generation, 1, "wrapped to a clean table");
        assert_eq!(acc.position(1, 1), None, "no stamp survives the wrap");
        accumulate(&mut acc);
        assert_eq!(first, drain(&mut acc));
        assert_eq!(acc.position(5, 5), Some(1));
    }

    #[test]
    fn costs_reflect_the_papers_trade() {
        let hash = HashTableAccumulator::new(8);
        let direct = DirectTableAccumulator::new(8, 8);
        assert!(direct.add_cost() < hash.add_cost());
    }

    #[test]
    fn factory_builds_both_kinds() {
        let mut h = make_accumulator(DedupKind::Hash, 8, 8);
        let mut d = make_accumulator(DedupKind::Direct, 8, 8);
        h.add(0, 0, [1.0; 3]);
        d.add(0, 0, [1.0; 3]);
        assert_eq!(h.distinct(), 1);
        assert_eq!(d.distinct(), 1);
    }

    mod props {
        use std::collections::BTreeMap;

        use proptest::prelude::*;

        use super::*;

        type Add = (u32, [f64; 3]);

        /// A drain with floats as bits: `(entries, runs)`.
        type Bits = (Vec<(u32, [u64; 3])>, Vec<(usize, usize)>);

        fn bits(acc: &mut dyn GhostAccumulator, layout: &BlockLayout) -> Bits {
            let mut out = Vec::new();
            let runs = acc.drain_by_owner(layout, &mut out).to_vec();
            let entries = out.into_iter().map(|(k, v)| (k, v.map(f64::to_bits)));
            (entries.collect(), runs)
        }

        /// The specification: an ordered map summing each vertex's
        /// contributions in insertion order, grouped by owner.
        fn reference(adds: &[Add], nx: u32, layout: &BlockLayout) -> Bits {
            let mut sums: BTreeMap<u32, [f64; 3]> = BTreeMap::new();
            for &(key, val) in adds {
                match sums.get_mut(&key) {
                    Some(e) => (0..3).for_each(|c| e[c] += val[c]),
                    None => {
                        sums.insert(key, val);
                    }
                }
            }
            let owner = |k: u32| layout.owner_of((k % nx) as usize, (k / nx) as usize);
            let mut tagged: Vec<(usize, u32, [f64; 3])> =
                sums.into_iter().map(|(k, v)| (owner(k), k, v)).collect();
            tagged.sort_by_key(|e| (e.0, e.1));
            let mut runs: Vec<(usize, usize)> = Vec::new();
            for &(o, _, _) in &tagged {
                match runs.last_mut() {
                    Some((last, n)) if *last == o => *n += 1,
                    _ => runs.push((o, 1)),
                }
            }
            let entries = tagged.into_iter().map(|(_, k, v)| (k, v.map(f64::to_bits)));
            (entries.collect(), runs)
        }

        /// A contribution: one of the three vertex kinds below, picked
        /// by `kind` from `raw`, and a value whose components are
        /// sometimes signed zeros.
        fn add() -> impl Strategy<Value = (u8, u32, [f64; 3])> {
            let component =
                || (0u8..4, -1e3f64..1e3).prop_map(|(z, v)| [-0.0, 0.0, v, v][z as usize]);
            (
                0u8..3,
                any::<u32>(),
                (component(), component(), component()),
            )
                .prop_map(|(kind, raw, (x, y, z))| (kind, raw, [x, y, z]))
        }

        /// The packed vertex of an `add()` on an `m`-vertex mesh:
        /// anywhere, sharing its low four bits with every other of its
        /// kind, or one of four hot vertices that repeat.
        fn vertex(kind: u8, raw: u32, m: u32) -> u32 {
            match kind {
                0 => raw % m,
                1 => raw % (m / 16) * 16,
                _ => raw % 4,
            }
        }

        proptest! {
            /// A mesh of at least 64 vertices (often not a power of two
            /// wide) on a block grid, and three rounds in a row on one
            /// table of each kind.  The first batch starts with a sweep
            /// over at least 64 distinct vertices: three growths of the
            /// hash table.  After each drain every drained vertex sits at
            /// its index in the output and no other vertex is found;
            /// after `clear` no vertex is found.
            #[test]
            fn both_tables_drain_like_an_ordered_map(
                (nx, ny, pr, pc) in (8usize..40, 8usize..40, 1usize..4, 1usize..4),
                batches in prop::collection::vec(prop::collection::vec(add(), 0..200), 3..4),
            ) {
                let layout = BlockLayout::new_2d(nx, ny, pr, pc);
                let mut hash = HashTableAccumulator::new(nx);
                let mut direct = DirectTableAccumulator::new(nx, ny);
                let (nxu, m) = (nx as u32, (nx * ny) as u32);
                let pos = |t: &dyn GhostAccumulator, k: u32| t.position(k % nxu, k / nxu);
                for (i, batch) in batches.iter().enumerate() {
                    let sweep = (0..if i == 0 { m.min(200) } else { 0 })
                        .map(|k| (k, [f64::from(k) * 0.5, -1.0, 0.25]));
                    let adds: Vec<Add> = sweep
                        .chain(batch.iter().map(|&(kind, raw, v)| (vertex(kind, raw, m), v)))
                        .collect();
                    for &(key, val) in &adds {
                        hash.add(key % nxu, key / nxu, val);
                        direct.add(key % nxu, key / nxu, val);
                    }
                    if i == 0 {
                        prop_assert!(hash.slots.len() >= 128, "three growths from 16 slots");
                    }
                    let want = reference(&adds, nxu, &layout);
                    let at: BTreeMap<u32, usize> =
                        want.0.iter().enumerate().map(|(j, e)| (e.0, j)).collect();
                    prop_assert_eq!(bits(&mut hash, &layout), want.clone());
                    prop_assert_eq!(bits(&mut direct, &layout), want);
                    prop_assert_eq!(hash.distinct(), 0);
                    prop_assert_eq!(direct.distinct(), 0);
                    for table in [&mut hash as &mut dyn GhostAccumulator, &mut direct] {
                        for key in 0..m {
                            prop_assert_eq!(pos(&*table, key), at.get(&key).copied());
                        }
                        table.clear();
                        for key in 0..m {
                            prop_assert_eq!(pos(&*table, key), None);
                        }
                    }
                }
            }
        }
    }
}
