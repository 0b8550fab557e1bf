//! Particle distribution and redistribution (paper Figure 12).
//!
//! The full sequence of `Particle_Redistribution`:
//!
//! 1. `Hilbert_Base_Indexing` — refresh every particle's curve key;
//! 2. (initial distribution only) local sort + sample-sort splitter
//!    selection to seed the rank key bounds;
//! 3. `Bucket_Incremental_Sorting` — classify each particle against the
//!    remembered global bounds, all-to-many exchange of off-processor
//!    particles, incremental local sort + merge;
//! 4. `Order_Maintain_Load_Balance` — equalize counts without breaking
//!    the global sorted order;
//! 5. refresh the global bounds (global concatenation of each rank's
//!    extreme key) and the local bucket boundaries.
//!
//! Returns the modeled time the redistribution cost — exactly the
//! `T_redistribution` the dynamic policy trades against rising iteration
//! times.

use pic_machine::{Outbox, PhaseKind, SpmdEngine, SpmdError};
use pic_partition::{
    assign_keys_into, classify_by_bounds_into, order_maintaining_balance, rank_bounds_from_sorted,
    regular_sample, select_splitters,
};

use crate::costs;
use crate::messages::ParticleBatch;
use crate::phases::PhaseEnv;
use crate::state::RankState;

/// Oversampling factor for the initial sample sort.
const SAMPLES_PER_RANK: usize = 32;

/// Run a (re)distribution; `initial` selects the sample-sort bootstrap.
/// Returns the modeled elapsed seconds it cost.
pub fn run<E: SpmdEngine<RankState>>(
    machine: &mut E,
    env: &PhaseEnv,
    initial: bool,
) -> Result<f64, SpmdError> {
    let t_start = machine.elapsed_s();
    let p = machine.num_ranks();
    let indexer = env.indexer;
    let (dx, dy) = (env.cfg.dx, env.cfg.dy);

    // 1. refresh keys (reusing the rank's key buffer)
    machine.local_step(PhaseKind::Redistribute, move |_r, st, ctx| {
        let mut keys = std::mem::take(&mut st.keys);
        assign_keys_into(&st.particles, indexer, dx, dy, &mut keys);
        st.keys = keys;
        ctx.charge_ops(st.len() as f64 * costs::INDEX_PARTICLE);
    })?;

    if initial {
        // bootstrap: local sort, then sample-sort splitters
        machine.local_step(PhaseKind::Redistribute, |_r, st, ctx| {
            let cmp = st.sort_local();
            ctx.charge_ops(cmp * costs::SORT_COMPARISON);
        })?;
        machine.allgatherv(
            PhaseKind::Redistribute,
            8,
            |_r, st: &RankState| regular_sample(&st.keys, SAMPLES_PER_RANK),
            move |_r, st, all: &[u64]| {
                let mut sample = all.to_vec();
                let mut bounds = select_splitters(&mut sample, p);
                bounds.push(u64::MAX);
                st.bounds = bounds;
            },
        )?;
    }

    // 2. classify against global bounds, exchange, incremental sort
    let logp = (p.max(2) as f64).log2().ceil();
    machine.superstep(
        PhaseKind::Redistribute,
        move |_r, st, ctx, ob: &mut Outbox<ParticleBatch>| {
            let mut dests = std::mem::take(&mut st.scratch.dests);
            classify_by_bounds_into(&st.keys, &st.bounds, &mut dests);
            st.scratch.dests = dests;
            ctx.charge_ops(st.len() as f64 * costs::CLASSIFY_STEP * logp);
            st.take_outgoing_packed(|dest, batch| {
                ctx.charge_ops(batch.len() as f64 * costs::PACK_PARTICLE);
                ob.send(dest, batch);
            });
        },
        |_r, st, ctx, inbox| {
            for (_, batch) in inbox {
                ctx.charge_ops(batch.len() as f64 * costs::PACK_PARTICLE);
                st.append_batch(&batch);
            }
            let cmp = st.sort_local();
            ctx.charge_ops(cmp * costs::SORT_COMPARISON);
        },
    )?;

    // 3. global concatenation of counts
    machine.allgatherv(
        PhaseKind::Redistribute,
        8,
        |_r, st: &RankState| vec![st.len() as u64],
        |_r, st, all: &[u64]| {
            st.all_counts = all.iter().map(|&c| c as usize).collect();
        },
    )?;

    // 4. order-maintaining load balance
    machine.superstep(
        PhaseKind::Redistribute,
        |r, st, ctx, ob: &mut Outbox<ParticleBatch>| {
            let plan = order_maintaining_balance(&st.all_counts);
            if plan.moves[r].is_empty() {
                return;
            }
            st.scratch.dests.clear();
            st.scratch.dests.resize(st.len(), r);
            for (dest, range) in &plan.moves[r] {
                for d in &mut st.scratch.dests[range.clone()] {
                    *d = *dest;
                }
            }
            st.take_outgoing_packed(|dest, batch| {
                ctx.charge_ops(batch.len() as f64 * costs::PACK_PARTICLE);
                ob.send(dest, batch);
            });
        },
        |_r, st, ctx, inbox| {
            if inbox.is_empty() {
                return;
            }
            let total_in: usize = inbox.iter().map(|(_, b)| b.len()).sum();
            ctx.charge_ops(total_in as f64 * costs::PACK_PARTICLE);
            st.merge_in_order(&inbox);
            debug_assert!(st.keys.windows(2).all(|w| w[0] <= w[1]));
        },
    )?;

    // 5. refresh global bounds and local bucket boundaries
    machine.allgatherv(
        PhaseKind::Redistribute,
        8,
        |_r, st: &RankState| vec![st.last_key()],
        |_r, st, all: &[u64]| {
            st.bounds = rank_bounds_from_sorted(all);
        },
    )?;
    machine.local_step(PhaseKind::Redistribute, |_r, st, _ctx| {
        st.rebuild_sorter();
    })?;

    Ok(machine.elapsed_s() - t_start)
}
