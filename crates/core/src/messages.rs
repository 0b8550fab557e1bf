//! Typed, byte-accounted message payloads of the PIC phases.
//!
//! Wire sizes model what the 1996 code would pack into CMMD messages:
//! 4-byte packed grid indices, 8-byte doubles — see [`crate::costs`].

use std::ops::{Deref, Range};
use std::sync::Arc;

use pic_machine::Payload;

use crate::costs::{GHOST_CURRENT_BYTES, GHOST_FIELD_BYTES, PARTICLE_MSG_BYTES};
use crate::ghost::GhostEntry;

/// A `[start, end)` window of a sender's pack buffer.
///
/// A rank packs every message of a superstep once, back to back, into
/// one `Arc`-held buffer of its [`crate::ScratchArena`], and sends each
/// destination a window of it.  The buffer is refilled in place by the
/// next superstep that packs into it, once every receiver has dropped
/// its window.  Cloning a window clones an `Arc` and two indices.
#[derive(Debug, Clone)]
pub struct Window<T> {
    buf: Arc<Vec<T>>,
    start: usize,
    end: usize,
}

impl<T> Window<T> {
    /// The `range` window of `buf`.
    ///
    /// # Panics
    /// Panics if `range` exceeds the buffer.
    pub fn new(buf: &Arc<Vec<T>>, range: Range<usize>) -> Self {
        assert!(
            range.start <= range.end && range.end <= buf.len(),
            "window out of range"
        );
        Self {
            buf: Arc::clone(buf),
            start: range.start,
            end: range.end,
        }
    }

    /// Consecutive windows of `buf`, one per `(to, len)` run, paired
    /// with their destination.
    pub fn split<'a>(
        buf: &'a Arc<Vec<T>>,
        runs: impl IntoIterator<Item = (usize, usize)> + 'a,
    ) -> impl Iterator<Item = (usize, Self)> + 'a {
        runs.into_iter().scan(0, move |start, (to, len)| {
            let range = *start..*start + len;
            *start += len;
            Some((to, Self::new(buf, range)))
        })
    }
}

impl<T> Deref for Window<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.buf[self.start..self.end]
    }
}

/// An empty window.
impl<T> Default for Window<T> {
    fn default() -> Self {
        Vec::new().into()
    }
}

/// A window over a whole freshly built buffer.
impl<T> From<Vec<T>> for Window<T> {
    fn from(v: Vec<T>) -> Self {
        let end = v.len();
        Self {
            buf: Arc::new(v),
            start: 0,
            end,
        }
    }
}

impl<T: PartialEq> PartialEq for Window<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

/// Scatter-phase ghost contributions: `(packed vertex index, [Jx, Jy, Jz])`
/// per off-block grid point, coalesced into one message per destination.
#[derive(Debug, Clone, PartialEq)]
pub struct GhostCurrents(pub Window<GhostEntry>);

impl Payload for GhostCurrents {
    fn size_bytes(&self) -> usize {
        self.0.len() * GHOST_CURRENT_BYTES
    }
}

/// Gather-phase replies: `(packed vertex index, [Ex, Ey, Ez, Bx, By, Bz])`.
#[derive(Debug, Clone, PartialEq)]
pub struct GhostFields(pub Window<(u32, [f64; 6])>);

impl Payload for GhostFields {
    fn size_bytes(&self) -> usize {
        self.0.len() * GHOST_FIELD_BYTES
    }
}

/// Field-solve halo data: three components per boundary cell, packed in
/// the plan's deterministic cell order.
#[derive(Debug, Clone, PartialEq)]
pub struct HaloData(pub Window<f64>);

impl Payload for HaloData {
    fn size_bytes(&self) -> usize {
        self.0.len() * 8
    }
}

/// A batch of migrating particles: curve keys plus five phase-space
/// doubles each, in sorted key order.
///
/// The sending rank packs *all* outgoing particles once (grouped by
/// destination) into one key buffer and one interleaved phase-space
/// buffer, and every per-destination batch is a [`Window`] of each — no
/// per-destination `Vec` clones on the wire.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParticleBatch {
    keys: Window<u64>,
    /// Interleaved phase space, five doubles per particle:
    /// x, y, ux, uy, uz.
    data: Window<f64>,
}

impl ParticleBatch {
    /// A batch viewing particles `start..end` of shared pack buffers
    /// (`data` holds five interleaved doubles per particle).
    ///
    /// # Panics
    /// Panics if the window exceeds either buffer.
    pub fn view(keys: &Arc<Vec<u64>>, data: &Arc<Vec<f64>>, start: usize, end: usize) -> Self {
        Self {
            keys: Window::new(keys, start..end),
            data: Window::new(data, start * 5..end * 5),
        }
    }

    /// Number of particles in the batch.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The batch's curve keys, ascending.
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// The interleaved phase-space window (five doubles per particle).
    pub fn interleaved(&self) -> &[f64] {
        &self.data
    }

    /// Append one particle (test/construction convenience — a batch
    /// built by pushes owns its buffers, so this never clones shared
    /// data in practice).
    ///
    /// # Panics
    /// Panics if the batch is a strict window of larger pack buffers.
    pub fn push(&mut self, key: u64, coords: [f64; 5]) {
        let (keys, data) = (&mut self.keys, &mut self.data);
        assert!(
            keys.start == 0 && keys.end == keys.buf.len(),
            "cannot push into a sliced batch view"
        );
        Arc::make_mut(&mut keys.buf).push(key);
        Arc::make_mut(&mut data.buf).extend_from_slice(&coords);
        keys.end += 1;
        data.end += 5;
    }

    /// The `i`-th particle's phase-space coordinates.
    pub fn coords(&self, i: usize) -> [f64; 5] {
        let c = &self.data[i * 5..i * 5 + 5];
        [c[0], c[1], c[2], c[3], c[4]]
    }
}

impl Payload for ParticleBatch {
    fn size_bytes(&self) -> usize {
        self.len() * PARTICLE_MSG_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ghost_current_wire_size() {
        let m = GhostCurrents(vec![(0, [0.0; 3]); 10].into());
        assert_eq!(m.size_bytes(), 280);
    }

    #[test]
    fn ghost_field_wire_size() {
        let m = GhostFields(vec![(0, [0.0; 6]); 10].into());
        assert_eq!(m.size_bytes(), 520);
    }

    #[test]
    fn windows_split_one_buffer_in_run_order() {
        let buf = Arc::new((0..10).map(f64::from).collect::<Vec<f64>>());
        let msgs: Vec<(usize, HaloData)> = Window::split(&buf, [(3, 4), (1, 0), (0, 6)])
            .map(|(to, w)| (to, HaloData(w)))
            .collect();
        assert_eq!(msgs[0].0, 3);
        assert_eq!(*msgs[0].1 .0, [0.0, 1.0, 2.0, 3.0]);
        assert!(msgs[1].1 .0.is_empty());
        assert_eq!(msgs[2].1.size_bytes(), 6 * 8);
        assert_eq!(msgs[2].1 .0[0], 4.0);
        assert_eq!(Arc::strong_count(&buf), 4, "windows share the buffer");
        drop(msgs);
        assert_eq!(Arc::strong_count(&buf), 1, "dropped windows free it");
    }

    #[test]
    #[should_panic(expected = "window out of range")]
    fn window_past_the_buffer_rejected() {
        let _ = Window::new(&Arc::new(vec![1u32, 2]), 1..3);
    }

    #[test]
    fn particle_batch_roundtrip() {
        let mut b = ParticleBatch::default();
        b.push(42, [1.0, 2.0, 3.0, 4.0, 5.0]);
        b.push(43, [6.0, 7.0, 8.0, 9.0, 10.0]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.coords(1), [6.0, 7.0, 8.0, 9.0, 10.0]);
        assert_eq!(b.size_bytes(), 2 * 48);
    }

    #[test]
    fn empty_batch_is_free() {
        assert_eq!(ParticleBatch::default().size_bytes(), 0);
        assert!(ParticleBatch::default().is_empty());
    }

    #[test]
    fn sliced_views_share_one_buffer() {
        let keys = Arc::new(vec![1u64, 2, 3, 4]);
        let data = Arc::new((0..20).map(f64::from).collect::<Vec<f64>>());
        let a = ParticleBatch::view(&keys, &data, 0, 1);
        let b = ParticleBatch::view(&keys, &data, 1, 4);
        assert_eq!(a.keys(), &[1]);
        assert_eq!(b.keys(), &[2, 3, 4]);
        assert_eq!(b.coords(0), [5.0, 6.0, 7.0, 8.0, 9.0]);
        assert_eq!(b.size_bytes(), 3 * 48);
        // clones are window handles, not buffer copies
        let c = b.clone();
        assert_eq!(c, b);
        assert_eq!(Arc::strong_count(&keys), 4);
    }

    #[test]
    #[should_panic(expected = "cannot push into a sliced batch view")]
    fn push_into_slice_rejected() {
        let keys = Arc::new(vec![1u64, 2]);
        let data = Arc::new(vec![0.0; 10]);
        let mut b = ParticleBatch::view(&keys, &data, 0, 1);
        b.push(9, [0.0; 5]);
    }
}
