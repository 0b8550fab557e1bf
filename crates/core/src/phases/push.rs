//! Push phase: the relativistic Boris update, plus Eulerian migration.
//!
//! Each particle takes one [`advance`] step — the kernel the sequential,
//! replicated-grid and electrostatic drivers call too — with the E and B
//! the gather phase interpolated at it.
//!
//! Under the direct Lagrangian method "the push phase has no
//! interprocessor communication cost" (paper Section 4) — it is a pure
//! local step.  Under the direct Eulerian baseline (paper Table 1, grid
//! partitioning), particles must migrate to the rank owning their new
//! cell immediately after the move, which is implemented as an extra
//! superstep.

use pic_machine::{Outbox, PhaseKind, SpmdEngine, SpmdError};
use pic_particles::push::{advance, BorisStep};

use crate::config::MovementMethod;
use crate::costs;
use crate::messages::ParticleBatch;
use crate::phases::PhaseEnv;
use crate::state::RankState;

/// Run the push phase (and Eulerian migration when configured).
pub fn run<E: SpmdEngine<RankState>>(machine: &mut E, env: &PhaseEnv) -> Result<(), SpmdError> {
    let dt = env.cfg.dt;
    let (lx, ly) = (env.cfg.lx(), env.cfg.ly());
    machine.local_step(PhaseKind::Push, move |_r, st, ctx| {
        let qm = st.particles.qm();
        let n = st.particles.len();
        debug_assert_eq!(st.e_at.len(), n, "gather must precede push");
        for i in 0..n {
            let fields = BorisStep {
                e: st.e_at[i],
                b: st.b_at[i],
            };
            advance(&mut st.particles, i, &fields, qm, dt, lx, ly);
        }
        ctx.charge_ops(n as f64 * costs::PUSH_PARTICLE);
    })?;

    if env.cfg.movement == MovementMethod::Eulerian {
        migrate_eulerian(machine, env)?;
    }
    Ok(())
}

/// Eulerian migration: every particle moves to the rank that owns its
/// cell.  No sorting, no alignment — the communication each step is the
/// price Table 1 attributes to keeping particle storage grid-partitioned.
fn migrate_eulerian<E: SpmdEngine<RankState>>(
    machine: &mut E,
    env: &PhaseEnv,
) -> Result<(), SpmdError> {
    let (nx, ny) = (env.cfg.nx, env.cfg.ny);
    let (dx, dy) = (env.cfg.dx, env.cfg.dy);
    let layout = env.layout;
    machine.superstep(
        PhaseKind::Push,
        move |_r, st, ctx, ob: &mut Outbox<ParticleBatch>| {
            let n = st.particles.len();
            // keys are unused in Eulerian mode but the exchange
            // transports them; keep the array sized
            st.keys.resize(n, 0);
            let RankState {
                scratch, particles, ..
            } = st;
            scratch.dests.clear();
            scratch.dests.reserve(n);
            for i in 0..n {
                let (cx, cy) =
                    pic_partition::cell_of(particles.x[i], particles.y[i], dx, dy, nx, ny);
                scratch.dests.push(layout.owner_of(cx, cy));
            }
            ctx.charge_ops(n as f64 * costs::CLASSIFY_STEP);
            st.take_outgoing_packed(|dest, batch| {
                ctx.charge_ops(batch.len() as f64 * costs::PACK_PARTICLE);
                ob.send(dest, batch);
            });
        },
        move |_r, st, ctx, inbox| {
            for (_, batch) in inbox {
                ctx.charge_ops(batch.len() as f64 * costs::PACK_PARTICLE);
                st.append_batch(&batch);
            }
        },
    )
}
