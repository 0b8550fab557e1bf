//! Field solve phase: two halo exchanges and the B/E updates.
//!
//! Paper Section 4: "a finite difference method is used to solve
//! Maxwell's equations on the mesh grids, each grid point needs data from
//! its four neighboring grid points.  Only the grid points on the
//! boundaries of the submesh in a processor will access data from the
//! neighboring processors."  One halo superstep routine runs twice, with
//! [`FieldSet::e`] or [`FieldSet::b`] naming the triple it moves:
//!
//! 1. exchange E ghosts, update B on the interior;
//! 2. exchange B ghosts, update E on the interior (with the scatter
//!    phase's current densities as source terms).

use pic_field::{CellSlot, FieldSet, Grid2, HaloPlan, Rect};
use pic_machine::{Outbox, PhaseCtx, PhaseKind, SpmdEngine, SpmdError};

use crate::costs;
use crate::messages::HaloData;
use crate::phases::PhaseEnv;
use crate::state::RankState;

/// Pack three field components of the plan's cells in order.
fn pack(grids: [&Grid2<f64>; 3], rect: &Rect, cells: &[CellSlot]) -> Vec<f64> {
    let mut data = Vec::with_capacity(cells.len() * 3);
    for &((sx, sy), _) in cells {
        let (lx, ly) = (sx - rect.x0 + 1, sy - rect.y0 + 1);
        for g in grids {
            data.push(g[(lx, ly)]);
        }
    }
    data
}

/// Unpack three field components into the plan's padded slots.
fn unpack(grids: [&mut Grid2<f64>; 3], cells: &[CellSlot], data: &[f64]) {
    debug_assert_eq!(data.len(), cells.len() * 3);
    let [g0, g1, g2] = grids;
    for (k, &(_, (px, py))) in cells.iter().enumerate() {
        g0[(px, py)] = data[3 * k];
        g1[(px, py)] = data[3 * k + 1];
        g2[(px, py)] = data[3 * k + 2];
    }
}

/// Copy self-wrap ghost slots of three field components from the rank's
/// own interior.
fn self_fill(mut grids: [&mut Grid2<f64>; 3], rect: &Rect, copies: &[CellSlot]) {
    for &((sx, sy), (px, py)) in copies {
        let (lx, ly) = (sx - rect.x0 + 1, sy - rect.y0 + 1);
        for g in grids.iter_mut() {
            g[(px, py)] = g[(lx, ly)];
        }
    }
}

/// One halo superstep: every rank sends the `triple` ghost cells its
/// neighbours need; on delivery it unpacks them, fills its self-wrap
/// slots and runs `update` on its padded block.
fn halo_superstep<E, U>(
    machine: &mut E,
    halo: &HaloPlan,
    triple: fn(&FieldSet) -> [&Grid2<f64>; 3],
    triple_mut: fn(&mut FieldSet) -> [&mut Grid2<f64>; 3],
    update: U,
) -> Result<(), SpmdError>
where
    E: SpmdEngine<RankState>,
    U: Fn(&mut RankState, &mut PhaseCtx) + Sync,
{
    machine.superstep(
        PhaseKind::FieldSolve,
        move |r, st, ctx, ob: &mut Outbox<HaloData>| {
            for msg in halo.sends(r) {
                ctx.charge_ops(msg.cells.len() as f64 * costs::HALO_CELL);
                let data = pack(triple(&st.fields), &st.rect, &msg.cells);
                ob.send(msg.to, HaloData(data));
            }
        },
        move |r, st, ctx, inbox| {
            for (from, HaloData(data)) in inbox {
                let cells = &halo
                    .sends(from)
                    .iter()
                    .find(|m| m.to == r)
                    .unwrap_or_else(|| {
                        panic!("halo message from rank {from} to rank {r} without plan entry")
                    })
                    .cells;
                ctx.charge_ops(cells.len() as f64 * costs::HALO_CELL);
                unpack(triple_mut(&mut st.fields), cells, &data);
            }
            self_fill(triple_mut(&mut st.fields), &st.rect, halo.self_copies(r));
            update(st, ctx);
        },
    )
}

/// Run the field solve: exchange E → update B, exchange B → update E.
pub fn run<E: SpmdEngine<RankState>>(machine: &mut E, env: &PhaseEnv) -> Result<(), SpmdError> {
    let solver = *env.solver;
    halo_superstep(
        machine,
        env.halo,
        FieldSet::e,
        FieldSet::e_mut,
        |st, ctx| {
            solver.update_b_padded(&mut st.fields);
            ctx.charge_ops(st.rect.area() as f64 * costs::FIELD_POINT_B);
        },
    )?;
    halo_superstep(
        machine,
        env.halo,
        FieldSet::b,
        FieldSet::b_mut,
        |st, ctx| {
            solver.update_e_padded(&mut st.fields, &st.currents);
            ctx.charge_ops(st.rect.area() as f64 * costs::FIELD_POINT_E);
        },
    )
}
