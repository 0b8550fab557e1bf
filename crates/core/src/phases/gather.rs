//! Gather phase: ghost field replies and per-particle interpolation.
//!
//! "The same ghost grid points generated in the scatter phase are used
//! here to carry the necessary off-processor field data.  The
//! communication behavior is just the inverse of the scatter phase,
//! except that two fields, E and B, instead of one are the objects to be
//! transferred" (paper Section 4).  Owners *push* field values along the
//! `ghost_serving` lists recorded during scatter delivery, so no request
//! round-trip is needed.  The replies are packed back to back into the
//! rank's field pack buffer, one window per requester, and the scatter
//! messages are dropped once answered.  Concatenated in sender order, the
//! replies line up with the scatter drain, so the delivery half reads a
//! ghost vertex at the position its ghost table kept, then interpolates
//! E and B at every particle.  As in scatter, a stencil inside the rank's
//! block reads the six field planes at the four offsets of
//! [`Cic::interior_offsets`]; any other stencil goes vertex by vertex
//! through the block or the ghost table.

use pic_machine::{Outbox, PhaseKind, SpmdEngine, SpmdError};
use pic_particles::Cic;

use crate::costs;
use crate::messages::{GhostFields, Window};
use crate::phases::PhaseEnv;
use crate::scratch::reuse_arc_buf;
use crate::state::RankState;

/// Run one gather superstep.
pub fn run<E: SpmdEngine<RankState>>(machine: &mut E, env: &PhaseEnv) -> Result<(), SpmdError> {
    let (nx, ny) = (env.cfg.nx, env.cfg.ny);
    let (dx, dy) = (env.cfg.dx, env.cfg.dy);
    machine.superstep(
        PhaseKind::Gather,
        move |_r, st, ctx, ob: &mut Outbox<GhostFields>| {
            let nxu = nx as u32;
            let RankState {
                ghost_serving,
                scratch,
                fields,
                rect,
                ..
            } = st;
            let pack = reuse_arc_buf(&mut scratch.field_pack);
            for (_, msg) in ghost_serving.iter() {
                ctx.charge_ops(msg.0.len() as f64 * costs::GHOST_APPLY);
                pack.extend(msg.0.iter().map(|&(key, _)| {
                    let (gx, gy) = ((key % nxu) as usize, (key / nxu) as usize);
                    let (lx, ly) = (gx - rect.x0 + 1, gy - rect.y0 + 1);
                    (key, fields.at(lx, ly))
                }));
            }
            let runs = ghost_serving.iter().map(|(from, msg)| (*from, msg.0.len()));
            for (requester, entries) in Window::split(&scratch.field_pack, runs) {
                ob.send(requester, GhostFields(entries));
            }
            ghost_serving.clear();
        },
        move |_r, st, ctx, inbox| {
            let nxu = nx as u32;
            let RankState {
                scratch,
                ghost,
                particles,
                rect,
                fields,
                e_at,
                b_at,
                ..
            } = st;
            let replies = &mut scratch.ghost_fields;
            replies.clear();
            for (_, GhostFields(entries)) in &inbox {
                replies.extend_from_slice(entries);
            }
            let pw = fields.width();
            let planes = [
                fields.ex.as_slice(),
                fields.ey.as_slice(),
                fields.ez.as_slice(),
                fields.bx.as_slice(),
                fields.by.as_slice(),
                fields.bz.as_slice(),
            ];
            let n = particles.len();
            e_at.clear();
            b_at.clear();
            e_at.reserve(n);
            b_at.reserve(n);
            for i in 0..n {
                let cic = Cic::new(particles.x[i], particles.y[i], dx, dy, nx, ny);
                ctx.charge_ops(4.0 * costs::GATHER_VERTEX);
                // each component sums its corners in corner order from
                // 0.0, so both paths round exactly alike
                let mut eb = [0.0f64; 6];
                if let Some([o0, _, o2, _]) =
                    cic.interior_offsets(rect.x0, rect.y0, rect.w, rect.h, pw, 1)
                {
                    for (acc, plane) in eb.iter_mut().zip(planes) {
                        // the stencil is two adjacent pairs: slicing each
                        // pair once bounds-checks two ranges, not four loads
                        let (lo, hi) = (&plane[o0..o0 + 2], &plane[o2..o2 + 2]);
                        for (v, w) in [lo[0], lo[1], hi[0], hi[1]].into_iter().zip(cic.w) {
                            *acc += w * v;
                        }
                    }
                } else {
                    for (k, (cx, cy)) in cic.corners(nx, ny).into_iter().enumerate() {
                        let w = cic.w[k];
                        let vals = if rect.contains(cx, cy) {
                            let o = (cy - rect.y0 + 1) * pw + (cx - rect.x0 + 1);
                            planes.map(|plane| plane[o])
                        } else {
                            let key = cy as u32 * nxu + cx as u32;
                            let at = ghost.position(cx as u32, cy as u32).unwrap_or_else(|| {
                                panic!(
                                    "gather: ghost vertex {key} (cell {cx},{cy}) missing \
                                     from scatter round"
                                )
                            });
                            let (k, vals) = replies[at];
                            assert!(k == key, "gather: reply {k} where vertex {key} was asked");
                            vals
                        };
                        for (acc, val) in eb.iter_mut().zip(vals) {
                            *acc += w * val;
                        }
                    }
                }
                e_at.push([eb[0], eb[1], eb[2]]);
                b_at.push([eb[3], eb[4], eb[5]]);
            }
        },
    )
}
