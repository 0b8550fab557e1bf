//! Checkpoint/restart for the parallel PIC simulation.
//!
//! A [`Checkpoint`] captures everything the driver needs to continue a
//! run from an iteration boundary: the per-rank persistent state
//! (particles, curve keys, rank key bounds, counts, fields), the
//! redistribution policy's decision state, and the driver's cumulative
//! counters.  Transient per-iteration arrays (currents, ghost tables,
//! interpolated fields) are *not* captured — every iteration rebuilds
//! them from scratch, so a resumed run is bit-identical to an
//! uninterrupted one.
//!
//! The wire format is a small hand-rolled little-endian binary codec
//! (the vendored `serde` is a marker-trait stand-in and cannot
//! serialize): a magic/version header, a length-prefixed payload, and a
//! trailing FNV-1a checksum so torn or corrupted snapshots are rejected
//! on decode instead of resurrecting a half-written state.

use std::fmt;

use pic_field::FieldSet;
use pic_particles::Particles;
use pic_partition::{Policy, PolicyKind};

use crate::sim::PhaseBreakdown;
use crate::state::RankState;

/// File magic for encoded checkpoints.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"PICCKPT\0";
/// Current encoding version.
pub const CHECKPOINT_VERSION: u32 = 2;

/// Why a checkpoint could not be decoded or resumed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Fewer bytes than the header/payload/trailer demand.
    Truncated,
    /// The magic prefix is wrong — not a checkpoint.
    BadMagic,
    /// A version this build does not understand.
    UnsupportedVersion(u32),
    /// The payload checksum does not match (torn write / bit rot).
    ChecksumMismatch {
        /// Checksum recorded in the trailer.
        stored: u64,
        /// Checksum recomputed over the payload.
        computed: u64,
    },
    /// Structurally invalid payload.
    Malformed(&'static str),
    /// The checkpoint was taken under another configuration; names the
    /// quantity that differs.
    Mismatch(&'static str),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Truncated => write!(f, "checkpoint truncated"),
            CheckpointError::BadMagic => write!(f, "not a checkpoint (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v}")
            }
            CheckpointError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checkpoint checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
            ),
            CheckpointError::Malformed(what) => write!(f, "malformed checkpoint: {what}"),
            CheckpointError::Mismatch(what) => {
                write!(f, "checkpoint was taken with a different {what}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// The persistent state of one rank at an iteration boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct RankSnapshot {
    /// Rank id (sanity-checked against position on restore).
    pub rank: usize,
    /// The rank's particles (positions, momenta, species constants).
    pub particles: Particles,
    /// Curve keys, parallel to the particles.
    pub keys: Vec<u64>,
    /// Exclusive upper key bound of every rank.
    pub bounds: Vec<u64>,
    /// Per-rank particle counts from the last counts allgather.
    pub all_counts: Vec<usize>,
    /// The padded local field block.
    pub fields: FieldSet,
}

impl RankSnapshot {
    /// Capture the persistent slice of `st`.
    pub fn capture(st: &RankState) -> Self {
        Self {
            rank: st.rank,
            particles: st.particles.clone(),
            keys: st.keys.clone(),
            bounds: st.bounds.clone(),
            all_counts: st.all_counts.clone(),
            fields: st.fields.clone(),
        }
    }

    /// Write the snapshot back into a freshly constructed `st` (same
    /// rank, same rect).  The incremental sorter is rebuilt from the
    /// restored keys, which reproduces the exact bucket bounds the
    /// checkpointed sorter held (they were last rebuilt from these same
    /// keys).
    ///
    /// # Errors
    /// [`CheckpointError::Mismatch`] when `st` belongs to a different
    /// rank or its field block has different dimensions; `st` is left
    /// untouched.
    pub fn restore_into(&self, st: &mut RankState) -> Result<(), CheckpointError> {
        if st.rank != self.rank {
            return Err(CheckpointError::Mismatch("rank order"));
        }
        if (st.fields.width(), st.fields.height()) != (self.fields.width(), self.fields.height()) {
            return Err(CheckpointError::Mismatch("field block dimensions"));
        }
        st.particles = self.particles.clone();
        st.keys = self.keys.clone();
        st.bounds = self.bounds.clone();
        st.all_counts = self.all_counts.clone();
        st.fields = self.fields.clone();
        if st.keys.windows(2).all(|w| w[0] <= w[1]) {
            st.rebuild_sorter();
        }
        Ok(())
    }
}

/// A full simulation snapshot at an iteration boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Iterations completed when the snapshot was taken.
    pub iter: u64,
    /// Modeled cost of the initial distribution.
    pub setup_s: f64,
    /// Redistributions performed so far.
    pub redistributions: u64,
    /// Total redistribution seconds so far.
    pub redistribute_total_s: f64,
    /// Cumulative per-phase time split.
    pub breakdown: PhaseBreakdown,
    /// The redistribution policy, decision state included.
    pub policy: Policy,
    /// One snapshot per rank, in rank order.
    pub ranks: Vec<RankSnapshot>,
}

impl Checkpoint {
    /// Total particles across all rank snapshots.
    pub fn total_particles(&self) -> usize {
        self.ranks.iter().map(|r| r.particles.len()).sum()
    }

    /// Serialize to the checksummed binary format.
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Writer::default();
        payload.u64(self.iter);
        payload.f64(self.setup_s);
        payload.u64(self.redistributions);
        payload.f64(self.redistribute_total_s);
        payload.f64(self.breakdown.scatter_s);
        payload.f64(self.breakdown.field_solve_s);
        payload.f64(self.breakdown.gather_s);
        payload.f64(self.breakdown.push_s);
        payload.f64(self.breakdown.redistribute_s);
        match self.policy.kind {
            PolicyKind::Static => payload.u8(0),
            PolicyKind::Periodic(k) => {
                payload.u8(1);
                payload.u64(k as u64);
            }
            PolicyKind::DynamicSar => payload.u8(2),
        }
        payload.u64(self.policy.i0 as u64);
        payload.opt_f64(self.policy.t0);
        payload.f64(self.policy.redist_cost);
        payload.u64(self.ranks.len() as u64);
        for r in &self.ranks {
            payload.u64(r.rank as u64);
            payload.f64(r.particles.charge);
            payload.f64(r.particles.mass);
            payload.f64_slice(&r.particles.x);
            payload.f64_slice(&r.particles.y);
            payload.f64_slice(&r.particles.ux);
            payload.f64_slice(&r.particles.uy);
            payload.f64_slice(&r.particles.uz);
            payload.u64_slice(&r.keys);
            payload.u64_slice(&r.bounds);
            payload.u64(r.all_counts.len() as u64);
            for &c in &r.all_counts {
                payload.u64(c as u64);
            }
            payload.u64(r.fields.width() as u64);
            payload.u64(r.fields.height() as u64);
            for grid in r.fields.e().into_iter().chain(r.fields.b()) {
                payload.raw_f64(grid.as_slice());
            }
        }
        let payload = payload.bytes;
        let mut out = Vec::with_capacity(payload.len() + 28);
        out.extend_from_slice(&CHECKPOINT_MAGIC);
        out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&payload);
        out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        out
    }

    /// Decode and verify a checkpoint produced by [`Checkpoint::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Self, CheckpointError> {
        if bytes.len() < 20 {
            return Err(CheckpointError::Truncated);
        }
        if bytes[..8] != CHECKPOINT_MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let payload_len = u64::from_le_bytes(bytes[12..20].try_into().unwrap()) as usize;
        let rest = &bytes[20..];
        if payload_len.checked_add(8).is_none_or(|n| rest.len() < n) {
            return Err(CheckpointError::Truncated);
        }
        let payload = &rest[..payload_len];
        let stored = u64::from_le_bytes(rest[payload_len..payload_len + 8].try_into().unwrap());
        let computed = fnv1a64(payload);
        if stored != computed {
            return Err(CheckpointError::ChecksumMismatch { stored, computed });
        }

        let mut r = Reader::new(payload);
        let iter = r.u64()?;
        let setup_s = r.f64()?;
        let redistributions = r.u64()?;
        let redistribute_total_s = r.f64()?;
        let breakdown = PhaseBreakdown {
            scatter_s: r.f64()?,
            field_solve_s: r.f64()?,
            gather_s: r.f64()?,
            push_s: r.f64()?,
            redistribute_s: r.f64()?,
        };
        let kind = match r.u8()? {
            0 => PolicyKind::Static,
            1 => PolicyKind::Periodic(r.u64()? as usize),
            2 => PolicyKind::DynamicSar,
            _ => return Err(CheckpointError::Malformed("unknown policy kind tag")),
        };
        let policy = Policy {
            kind,
            i0: r.u64()? as usize,
            t0: r.opt_f64()?,
            redist_cost: r.f64()?,
        };
        let nranks = r.len()?;
        let mut ranks = Vec::with_capacity(nranks);
        for _ in 0..nranks {
            let rank = r.u64()? as usize;
            let charge = r.f64()?;
            let mass = r.f64()?;
            if mass.is_nan() || mass <= 0.0 {
                return Err(CheckpointError::Malformed("non-positive species mass"));
            }
            let mut particles = Particles::new(charge, mass);
            particles.x = r.f64_vec()?;
            particles.y = r.f64_vec()?;
            particles.ux = r.f64_vec()?;
            particles.uy = r.f64_vec()?;
            particles.uz = r.f64_vec()?;
            let n = particles.x.len();
            if [&particles.y, &particles.ux, &particles.uy, &particles.uz]
                .iter()
                .any(|v| v.len() != n)
            {
                return Err(CheckpointError::Malformed("ragged particle attributes"));
            }
            let keys = r.u64_vec()?;
            if keys.len() != n {
                return Err(CheckpointError::Malformed("key/particle count mismatch"));
            }
            let bounds = r.u64_vec()?;
            let ncounts = r.len()?;
            let mut all_counts = Vec::with_capacity(ncounts);
            for _ in 0..ncounts {
                all_counts.push(r.u64()? as usize);
            }
            let w = r.u64()? as usize;
            let h = r.u64()? as usize;
            if w == 0 || h == 0 || w.checked_mul(h).is_none() {
                return Err(CheckpointError::Malformed("bad field dimensions"));
            }
            // six planes of f64: they must be in the payload before they
            // are allocated
            if (w * h).checked_mul(6 * 8).is_none_or(|n| n > r.remaining()) {
                return Err(CheckpointError::Truncated);
            }
            let mut fields = FieldSet::zeros(w, h);
            for triple in [FieldSet::e_mut, FieldSet::b_mut] {
                for grid in triple(&mut fields) {
                    r.raw_f64_into(grid.as_mut_slice())?;
                }
            }
            ranks.push(RankSnapshot {
                rank,
                particles,
                keys,
                bounds,
                all_counts,
                fields,
            });
        }
        if !r.at_end() {
            return Err(CheckpointError::Malformed("trailing payload bytes"));
        }
        Ok(Self {
            iter,
            setup_s,
            redistributions,
            redistribute_total_s,
            breakdown,
            policy,
            ranks,
        })
    }
}

/// 64-bit FNV-1a over `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[derive(Default)]
struct Writer {
    bytes: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.bytes.push(v);
    }

    fn u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.f64(x);
            }
        }
    }

    fn u64_slice(&mut self, v: &[u64]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.u64(x);
        }
    }

    fn f64_slice(&mut self, v: &[f64]) {
        self.u64(v.len() as u64);
        self.raw_f64(v);
    }

    /// `v` without a length prefix (the caller encodes the dimensions).
    fn raw_f64(&mut self, v: &[f64]) {
        for &x in v {
            self.f64(x);
        }
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(CheckpointError::Truncated)?;
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn at_end(&self) -> bool {
        self.remaining() == 0
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn opt_f64(&mut self) -> Result<Option<f64>, CheckpointError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.f64()?)),
            _ => Err(CheckpointError::Malformed("bad Option tag")),
        }
    }

    /// A length prefix, bounded by what the remaining bytes could hold
    /// (each element is at least one byte) so a corrupt length cannot
    /// trigger a huge allocation.
    fn len(&mut self) -> Result<usize, CheckpointError> {
        let n = self.u64()? as usize;
        if n > self.remaining() {
            return Err(CheckpointError::Truncated);
        }
        Ok(n)
    }

    fn u64_vec(&mut self) -> Result<Vec<u64>, CheckpointError> {
        let n = self.u64()? as usize;
        let raw = self.take(n.checked_mul(8).ok_or(CheckpointError::Truncated)?)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    fn f64_vec(&mut self) -> Result<Vec<f64>, CheckpointError> {
        Ok(self.u64_vec()?.into_iter().map(f64::from_bits).collect())
    }

    fn raw_f64_into(&mut self, out: &mut [f64]) -> Result<(), CheckpointError> {
        let raw = self.take(out.len().checked_mul(8).ok_or(CheckpointError::Truncated)?)?;
        for (slot, c) in out.iter_mut().zip(raw.chunks_exact(8)) {
            *slot = f64::from_bits(u64::from_le_bytes(c.try_into().unwrap()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        let mut particles = Particles::new(-0.01, 1.0);
        particles.push(1.5, 2.5, 0.1, -0.2, 0.3);
        particles.push(3.5, 0.5, -0.4, 0.5, -0.6);
        let mut fields = FieldSet::zeros(4, 3);
        fields.ex.as_mut_slice()[5] = 0.125;
        fields.bz.as_mut_slice()[11] = -7.75;
        Checkpoint {
            iter: 25,
            setup_s: 0.5,
            redistributions: 3,
            redistribute_total_s: 1.25,
            breakdown: PhaseBreakdown {
                scatter_s: 1.0,
                field_solve_s: 2.0,
                gather_s: 3.0,
                push_s: 4.0,
                redistribute_s: 5.0,
            },
            policy: Policy {
                kind: PolicyKind::DynamicSar,
                i0: 20,
                t0: Some(0.75),
                redist_cost: 2.5,
            },
            ranks: vec![RankSnapshot {
                rank: 0,
                particles,
                keys: vec![3, 9],
                bounds: vec![100, u64::MAX],
                all_counts: vec![2, 0],
                fields,
            }],
        }
    }

    #[test]
    fn encode_decode_roundtrip_is_exact() {
        let ck = sample();
        let decoded = Checkpoint::decode(&ck.encode()).expect("roundtrip");
        assert_eq!(decoded, ck);
        assert_eq!(decoded.total_particles(), 2);
        // every policy kind, each after one post-redistribution decision
        for kind in [
            PolicyKind::Static,
            PolicyKind::Periodic(7),
            PolicyKind::DynamicSar,
        ] {
            let mut ck = sample();
            ck.policy = kind.build();
            ck.policy.notify_redistributed(12, 0.25);
            ck.policy.decide(13, 1.5);
            let decoded = Checkpoint::decode(&ck.encode()).expect("roundtrip");
            assert_eq!(decoded, ck, "{kind:?}");
        }
    }

    #[test]
    fn corruption_is_detected() {
        let mut bytes = sample().encode();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(
            Checkpoint::decode(&bytes),
            Err(CheckpointError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn truncation_and_bad_magic_are_rejected() {
        let bytes = sample().encode();
        assert_eq!(
            Checkpoint::decode(&bytes[..bytes.len() - 3]),
            Err(CheckpointError::Truncated)
        );
        assert_eq!(
            Checkpoint::decode(&bytes[..10]),
            Err(CheckpointError::Truncated)
        );
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(Checkpoint::decode(&bad), Err(CheckpointError::BadMagic));
    }

    /// Give an edited encoding a valid checksum again.
    fn reseal(bytes: &mut [u8]) {
        let end = bytes.len() - 8;
        let sum = fnv1a64(&bytes[20..end]);
        bytes[end..].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn corrupt_payload_length_is_truncation() {
        // a 36-byte input whose header claims a payload near u64::MAX
        let mut bytes = sample().encode()[..36].to_vec();
        for payload_len in [u64::MAX, u64::MAX - 3] {
            bytes[12..20].copy_from_slice(&payload_len.to_le_bytes());
            assert_eq!(Checkpoint::decode(&bytes), Err(CheckpointError::Truncated));
        }
    }

    #[test]
    fn huge_field_dimensions_fail_before_allocating() {
        let mut bytes = sample().encode();
        // the only rank's fields close the payload: w, h, six 4x3 planes
        let w_at = bytes.len() - 8 - 6 * 12 * 8 - 16;
        assert_eq!(
            bytes[w_at..w_at + 16],
            [4u64.to_le_bytes(), 3u64.to_le_bytes()].concat()
        );
        // 2^20 x 2^20 cells would be 48 TiB of planes
        for at in [w_at, w_at + 8] {
            bytes[at..at + 8].copy_from_slice(&(1u64 << 20).to_le_bytes());
        }
        reseal(&mut bytes);
        assert_eq!(Checkpoint::decode(&bytes), Err(CheckpointError::Truncated));
    }

    #[test]
    fn future_version_is_rejected() {
        let mut bytes = sample().encode();
        bytes[8] = 99;
        assert_eq!(
            Checkpoint::decode(&bytes),
            Err(CheckpointError::UnsupportedVersion(99))
        );
    }

    #[test]
    fn nan_and_infinity_survive_bitwise() {
        let mut ck = sample();
        ck.setup_s = f64::NAN;
        ck.redistribute_total_s = f64::NEG_INFINITY;
        let decoded = Checkpoint::decode(&ck.encode()).expect("roundtrip");
        assert!(decoded.setup_s.is_nan());
        assert_eq!(
            decoded.setup_s.to_bits(),
            ck.setup_s.to_bits(),
            "NaN payload must be preserved bit-exactly"
        );
        assert_eq!(decoded.redistribute_total_s, f64::NEG_INFINITY);
    }
}
