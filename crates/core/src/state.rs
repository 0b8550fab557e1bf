//! Per-rank state of the parallel PIC simulation.

use pic_field::{BlockLayout, CurrentSet, FieldSet, Rect};
use pic_particles::Particles;
use pic_partition::BucketIncrementalSorter;

use crate::config::SimConfig;
use crate::ghost::{make_accumulator, GhostAccumulator};
use crate::messages::{GhostCurrents, ParticleBatch, Window};
use crate::scratch::{reuse_arc_buf, ScratchArena};

/// Everything one virtual processor owns.
pub struct RankState {
    /// This rank's id.
    pub rank: usize,
    /// Owned mesh block (global cell coordinates).
    pub rect: Rect,
    /// Fields on the padded local block: `(w+2) x (h+2)` with a one-cell
    /// ghost ring maintained by halo exchange.
    pub fields: FieldSet,
    /// Current densities on the unpadded local block (`w x h`), rebuilt
    /// every scatter phase.
    pub currents: CurrentSet,
    /// The rank's particles (direct Lagrangian: stable between
    /// redistributions, sorted by curve key after each redistribution).
    pub particles: Particles,
    /// Curve keys of the particles, parallel to `particles`.
    pub keys: Vec<u64>,
    /// Bucket boundaries for the incremental sorter.
    pub sorter: BucketIncrementalSorter,
    /// Exclusive upper key bound of every rank (`globalBound` in paper
    /// Figure 12), identical on all ranks after a redistribution.
    pub bounds: Vec<u64>,
    /// Ghost accumulation table for the scatter phase.
    pub ghost: Box<dyn GhostAccumulator + Send>,
    /// The ghost contributions each other rank deposited here this
    /// iteration, as received — the gather phase pushes field values
    /// back along their vertex lists ("the communication behavior is
    /// just the inverse of the scatter phase") and then drops them, so
    /// the senders can refill their pack buffers.
    pub ghost_serving: Vec<(usize, GhostCurrents)>,
    /// Interpolated E at each particle (filled by the gather phase).
    pub e_at: Vec<[f64; 3]>,
    /// Interpolated B at each particle.
    pub b_at: Vec<[f64; 3]>,
    /// Per-rank particle counts from the last counts allgather.
    pub all_counts: Vec<usize>,
    /// Reusable hot-loop buffers (never snapshotted; see
    /// [`crate::scratch`]).
    pub scratch: ScratchArena,
}

impl RankState {
    /// Fresh state for `rank` under `cfg`, owning `rect`.
    pub fn new(rank: usize, rect: Rect, cfg: &SimConfig) -> Self {
        let p = cfg.machine.ranks;
        Self {
            rank,
            rect,
            fields: FieldSet::zeros(rect.w + 2, rect.h + 2),
            currents: CurrentSet::zeros(rect.w, rect.h),
            particles: Particles::new(-cfg.particle_charge, 1.0),
            keys: Vec::new(),
            sorter: BucketIncrementalSorter::new(cfg.buckets_per_rank),
            bounds: vec![u64::MAX; p],
            ghost: make_accumulator(cfg.dedup, cfg.nx, cfg.ny),
            ghost_serving: Vec::new(),
            e_at: Vec::new(),
            b_at: Vec::new(),
            all_counts: vec![0; p],
            scratch: ScratchArena::new(),
        }
    }

    /// Number of local particles.
    pub fn len(&self) -> usize {
        self.particles.len()
    }

    /// True when the rank holds no particles.
    pub fn is_empty(&self) -> bool {
        self.particles.is_empty()
    }

    /// Drain the ghost table into the arena's ghost pack buffer and hand
    /// `send` one [`GhostCurrents`] window of it per owner rank, owners
    /// ascending.  Once warm, this allocates nothing.
    pub fn drain_ghosts(
        &mut self,
        layout: &BlockLayout,
        mut send: impl FnMut(usize, GhostCurrents),
    ) {
        let pack = &mut self.scratch.ghost_pack;
        let runs = self.ghost.drain_by_owner(layout, reuse_arc_buf(pack));
        for (owner, entries) in Window::split(pack, runs.iter().copied()) {
            send(owner, GhostCurrents(entries));
        }
    }

    /// Zero-copy outgoing exchange: consume `scratch.dests` (destination
    /// rank per particle), pack every mover ONCE into the arena's shared
    /// flat buffers — keys and interleaved phase space, grouped by
    /// destination via a stable counting scatter — and hand `send` one
    /// `Arc`-sliced [`ParticleBatch`] window per destination, ascending.
    /// Survivors are compacted in place (order preserved); the pack
    /// buffers are reclaimed on the next call once receivers have
    /// dropped their views, so steady-state exchanges allocate nothing.
    ///
    /// # Panics
    /// Panics if `scratch.dests` length mismatches the particle count.
    pub fn take_outgoing_packed(&mut self, mut send: impl FnMut(usize, ParticleBatch)) {
        let n = self.len();
        let rank = self.rank;
        let dests = std::mem::take(&mut self.scratch.dests);
        assert_eq!(dests.len(), n, "dests length mismatch");
        let nranks = self.all_counts.len().max(rank + 1);
        let ScratchArena {
            counts,
            pack_keys,
            pack_data,
            ..
        } = &mut self.scratch;
        counts.clear();
        counts.resize(nranks, 0);
        let mut movers = 0usize;
        for &d in &dests {
            if d != rank {
                counts[d] += 1;
                movers += 1;
            }
        }
        if movers == 0 {
            self.scratch.dests = dests;
            return;
        }
        // exclusive prefix sum: counts[d] becomes dest d's write cursor
        let mut off = 0usize;
        for c in counts.iter_mut() {
            let here = *c;
            *c = off;
            off += here;
        }
        let kbuf = reuse_arc_buf(pack_keys);
        kbuf.resize(movers, 0);
        let dbuf = reuse_arc_buf(pack_data);
        dbuf.resize(movers * 5, 0.0);
        // one pass: movers scatter to their destination region (stable
        // in original order), survivors compact to the front
        let mut w = 0usize;
        for (i, &d) in dests.iter().enumerate() {
            if d == rank {
                if w != i {
                    self.keys[w] = self.keys[i];
                    self.particles.x[w] = self.particles.x[i];
                    self.particles.y[w] = self.particles.y[i];
                    self.particles.ux[w] = self.particles.ux[i];
                    self.particles.uy[w] = self.particles.uy[i];
                    self.particles.uz[w] = self.particles.uz[i];
                }
                w += 1;
            } else {
                let pos = counts[d];
                counts[d] += 1;
                kbuf[pos] = self.keys[i];
                let o = pos * 5;
                dbuf[o] = self.particles.x[i];
                dbuf[o + 1] = self.particles.y[i];
                dbuf[o + 2] = self.particles.ux[i];
                dbuf[o + 3] = self.particles.uy[i];
                dbuf[o + 4] = self.particles.uz[i];
            }
        }
        self.keys.truncate(w);
        self.particles.truncate(w);
        // counts[d] is now dest d's END offset; regions tile [0, movers)
        // in ascending dest order, so a cursor walk recovers the windows
        let scratch = &self.scratch;
        let mut start = 0usize;
        for d in 0..nranks {
            let end = scratch.counts[d];
            if end > start {
                send(
                    d,
                    ParticleBatch::view(&scratch.pack_keys, &scratch.pack_data, start, end),
                );
            }
            start = end;
        }
        self.scratch.dests = dests;
    }

    /// Append a received batch to the local arrays (unsorted; a local
    /// sort follows in the redistribution sequence).
    pub fn append_batch(&mut self, batch: &ParticleBatch) {
        self.particles.reserve(batch.len());
        self.keys.extend_from_slice(batch.keys());
        for c in batch.interleaved().chunks_exact(5) {
            self.particles.push(c[0], c[1], c[2], c[3], c[4]);
        }
    }

    /// Merge an order-maintaining balance step's `inbox` (sorted by
    /// sender) without breaking the global key order: lower ranks'
    /// batches go in front of the local particles, higher ranks' after.
    /// Appending in inbox order gives own, lower, higher; rotating the
    /// own-plus-lower prefix right by the lower count puts lower first.
    /// Allocation-free once the arrays' capacity is warm.
    pub fn merge_in_order(&mut self, inbox: &[(usize, ParticleBatch)]) {
        let own = self.len();
        let mut lower = 0;
        for (from, batch) in inbox {
            if *from < self.rank {
                lower += batch.len();
            }
            self.append_batch(batch);
        }
        let prefix = own + lower;
        self.keys[..prefix].rotate_right(lower);
        let p = &mut self.particles;
        for v in [&mut p.x, &mut p.y, &mut p.ux, &mut p.uy, &mut p.uz] {
            v[..prefix].rotate_right(lower);
        }
    }

    /// Sort the local particles by key using the incremental sorter;
    /// returns the modeled comparison count.
    ///
    /// Runs entirely on arena buffers: radix/counting sorts for the
    /// permutation, a key swap through `scratch.keys_tmp`, and one
    /// cycle-decomposition pass reordering all five attribute arrays —
    /// zero heap allocations in steady state.
    pub fn sort_local(&mut self) -> f64 {
        let ScratchArena {
            order,
            bucket_sizes,
            radix,
            keys_tmp,
            visited,
            ..
        } = &mut self.scratch;
        let cmp = self
            .sorter
            .sort_incremental_into(&self.keys, order, bucket_sizes, radix);
        keys_tmp.clear();
        keys_tmp.extend(order.iter().map(|&i| self.keys[i]));
        std::mem::swap(&mut self.keys, keys_tmp);
        self.particles.apply_order_in_place(order, visited);
        cmp
    }

    /// Rebuild the sorter's bucket boundaries from the (sorted) keys.
    pub fn rebuild_sorter(&mut self) {
        debug_assert!(self.keys.windows(2).all(|w| w[0] <= w[1]));
        self.sorter.rebuild(&self.keys);
    }

    /// Largest local key, or 0 when empty (the monotone clamp in
    /// `rank_bounds_from_sorted` absorbs empty ranks).
    pub fn last_key(&self) -> u64 {
        self.keys.last().copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;

    fn state_with_particles() -> RankState {
        let cfg = SimConfig::small_test();
        let rect = Rect {
            x0: 0,
            y0: 0,
            w: 8,
            h: 8,
        };
        let mut st = RankState::new(1, rect, &cfg);
        for i in 0..6 {
            let f = i as f64;
            st.particles.push(f, f, 0.0, 0.0, 0.0);
            st.keys.push(10 * i as u64);
        }
        st
    }

    /// Set `scratch.dests` as the redistribution phase's classification
    /// does, then collect what `take_outgoing_packed` sends.
    fn take_outgoing(st: &mut RankState, dests: &[usize]) -> Vec<(usize, ParticleBatch)> {
        st.scratch.dests.clear();
        st.scratch.dests.extend_from_slice(dests);
        let mut out = Vec::new();
        st.take_outgoing_packed(|dest, batch| out.push((dest, batch)));
        out
    }

    #[test]
    fn take_outgoing_partitions_by_destination() {
        let mut st = state_with_particles();
        // dests: particles 0,2 stay (rank 1); 1,3 -> rank 0; 4,5 -> rank 2
        let dests = vec![1, 0, 1, 0, 2, 2];
        let out = take_outgoing(&mut st, &dests);
        assert_eq!(st.len(), 2);
        assert_eq!(st.keys, vec![0, 20]);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0, 0);
        assert_eq!(out[0].1.keys(), &[10, 30][..]);
        assert_eq!(out[1].0, 2);
        assert_eq!(out[1].1.keys(), &[40, 50][..]);
        // phase space rode along
        assert_eq!(out[1].1.coords(0)[0], 4.0);
    }

    #[test]
    fn outgoing_batches_share_one_pack_buffer() {
        let mut st = state_with_particles();
        let dests = vec![1, 0, 1, 0, 2, 2];
        let out = take_outgoing(&mut st, &dests);
        // both batches window the same packed allocation
        assert_eq!(out.len(), 2);
        let all_keys: Vec<u64> = out.iter().flat_map(|(_, b)| b.keys().to_vec()).collect();
        assert_eq!(all_keys, vec![10, 30, 40, 50]);
        drop(out);
        // once the views are dropped the arena can reclaim the buffers:
        // a second exchange must reuse the same allocation
        let ptr = st.scratch.pack_keys.as_ptr();
        st.particles.push(6.0, 6.0, 0.0, 0.0, 0.0);
        st.particles.push(7.0, 7.0, 0.0, 0.0, 0.0);
        st.keys.push(60);
        st.keys.push(70);
        let out2 = take_outgoing(&mut st, &[0, 1, 0, 1]);
        assert_eq!(out2.len(), 1);
        assert_eq!(out2[0].0, 0);
        assert_eq!(out2[0].1.keys(), &[0, 60][..]);
        assert_eq!(st.keys, vec![20, 70]);
        assert_eq!(st.scratch.pack_keys.as_ptr(), ptr, "pack buffer not reused");
    }

    #[test]
    fn take_outgoing_with_no_moves_is_empty() {
        let mut st = state_with_particles();
        let out = take_outgoing(&mut st, &[1; 6]);
        assert!(out.is_empty());
        assert_eq!(st.len(), 6);
    }

    #[test]
    fn append_then_sort_restores_key_order() {
        let mut st = state_with_particles();
        let mut batch = ParticleBatch::default();
        batch.push(15, [1.5, 1.5, 0.0, 0.0, 0.0]);
        batch.push(35, [3.5, 3.5, 0.0, 0.0, 0.0]);
        st.append_batch(&batch);
        assert_eq!(st.len(), 8);
        st.sort_local();
        assert_eq!(st.keys, vec![0, 10, 15, 20, 30, 35, 40, 50]);
        // particle attributes moved with their keys
        let idx = st.keys.iter().position(|&k| k == 15).unwrap();
        assert_eq!(st.particles.x[idx], 1.5);
    }

    #[test]
    fn merge_in_order_puts_lower_batches_first() {
        // rank 1 holds six particles; rank 0's batch lands in front of
        // them, rank 2's behind
        let mut st = state_with_particles();
        let mut low = ParticleBatch::default();
        low.push(1, [-2.0, 0.0, 0.0, 0.0, 0.0]);
        low.push(2, [-1.0, 0.0, 0.0, 0.0, 0.0]);
        let mut high = ParticleBatch::default();
        high.push(60, [6.0, 0.0, 0.0, 0.0, 0.0]);
        st.merge_in_order(&[(0, low), (2, high)]);
        assert_eq!(st.keys, vec![1, 2, 0, 10, 20, 30, 40, 50, 60]);
        assert_eq!(
            st.particles.x,
            vec![-2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        );
    }

    #[test]
    fn last_key_handles_empty() {
        let cfg = SimConfig::small_test();
        let st = RankState::new(
            0,
            Rect {
                x0: 0,
                y0: 0,
                w: 4,
                h: 4,
            },
            &cfg,
        );
        assert_eq!(st.last_key(), 0);
        assert!(st.is_empty());
    }

    #[test]
    fn padded_field_dimensions() {
        let cfg = SimConfig::small_test();
        let st = RankState::new(
            0,
            Rect {
                x0: 0,
                y0: 0,
                w: 8,
                h: 4,
            },
            &cfg,
        );
        assert_eq!(st.fields.width(), 10);
        assert_eq!(st.fields.height(), 6);
        assert_eq!(st.currents.jx.width(), 8);
    }
}
