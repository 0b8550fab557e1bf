//! Scatter phase: current deposition with ghost tables and coalescing.
//!
//! Paper Figure 3 (`Scatter()`): each particle adds `weight * charge`
//! contributions to its four vertex grid points.  Contributions to
//! vertices inside the rank's own block go straight into the local
//! current grids; off-block contributions are deduplicated in the ghost
//! table and coalesced into a single message per owning rank.  A
//! particle whose whole stencil lies inside the block — the common case
//! under Hilbert alignment — skips the per-vertex wrap and ownership
//! tests: [`Cic::interior_offsets`] gives the four flat offsets at once.
//! Either way each vertex sums `(q·v)·w` in particle order, so both paths
//! give the same bits.  The ghost table drains into the rank's ghost
//! pack buffer, and each owner receives a window of it.  The delivery
//! half applies incoming ghost contributions and keeps the messages as
//! `ghost_serving` — the gather phase answers along exactly those
//! vertex lists.

use pic_machine::{Outbox, PhaseKind, SpmdEngine, SpmdError};
use pic_particles::push::gamma_of;
use pic_particles::Cic;

use crate::costs;
use crate::messages::GhostCurrents;
use crate::phases::PhaseEnv;
use crate::state::RankState;

/// Run one scatter superstep.
pub fn run<E: SpmdEngine<RankState>>(machine: &mut E, env: &PhaseEnv) -> Result<(), SpmdError> {
    let (nx, ny) = (env.cfg.nx, env.cfg.ny);
    let (dx, dy) = (env.cfg.dx, env.cfg.dy);
    let layout = env.layout;
    machine.superstep(
        PhaseKind::Scatter,
        move |_r, st, ctx, ob: &mut Outbox<GhostCurrents>| {
            st.currents.clear();
            st.ghost_serving.clear();
            let RankState {
                particles,
                currents,
                ghost,
                rect,
                ..
            } = st;
            let q = particles.charge;
            let ghost_cost = ghost.add_cost();
            let stride = currents.jx.width();
            let (jx, jy, jz) = (
                currents.jx.as_mut_slice(),
                currents.jy.as_mut_slice(),
                currents.jz.as_mut_slice(),
            );
            for i in 0..particles.len() {
                let u = [particles.ux[i], particles.uy[i], particles.uz[i]];
                let gamma = gamma_of(u);
                let v = [u[0] / gamma, u[1] / gamma, u[2] / gamma];
                let qv = [q * v[0], q * v[1], q * v[2]];
                let cic = Cic::new(particles.x[i], particles.y[i], dx, dy, nx, ny);
                ctx.charge_ops(4.0 * costs::SCATTER_VERTEX);
                if let Some(offs) =
                    cic.interior_offsets(rect.x0, rect.y0, rect.w, rect.h, stride, 0)
                {
                    for (o, w) in offs.into_iter().zip(cic.w) {
                        jx[o] += qv[0] * w;
                        jy[o] += qv[1] * w;
                        jz[o] += qv[2] * w;
                    }
                    continue;
                }
                for (k, (cx, cy)) in cic.corners(nx, ny).into_iter().enumerate() {
                    let w = cic.w[k];
                    let val = [qv[0] * w, qv[1] * w, qv[2] * w];
                    if rect.contains(cx, cy) {
                        let o = (cy - rect.y0) * stride + (cx - rect.x0);
                        jx[o] += val[0];
                        jy[o] += val[1];
                        jz[o] += val[2];
                    } else {
                        ghost.add(cx as u32, cy as u32, val);
                        ctx.charge_ops(ghost_cost);
                    }
                }
            }
            st.drain_ghosts(layout, |owner, msg| {
                ctx.charge_ops(msg.0.len() as f64 * costs::GHOST_APPLY);
                ob.send(owner, msg);
            });
        },
        move |_r, st, ctx, inbox| {
            let nxu = nx as u32;
            for (from, msg) in inbox {
                ctx.charge_ops(msg.0.len() as f64 * costs::GHOST_APPLY);
                for &(key, val) in msg.0.iter() {
                    let (gx, gy) = ((key % nxu) as usize, (key / nxu) as usize);
                    let (lx, ly) = (gx - st.rect.x0, gy - st.rect.y0);
                    st.currents.jx[(lx, ly)] += val[0];
                    st.currents.jy[(lx, ly)] += val[1];
                    st.currents.jz[(lx, ly)] += val[2];
                }
                st.ghost_serving.push((from, msg));
            }
        },
    )
}
