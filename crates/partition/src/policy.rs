//! Redistribution decision policies (paper Section 5.2).
//!
//! * **Static** never redistributes (the baseline the paper's Figure 16
//!   shows losing badly);
//! * **Periodic(k)** redistributes every `k` iterations — needs the
//!   "potentially impractical pre-runtime analysis to determine an
//!   optimal periodicity";
//! * **DynamicSar** adapts the Stop-At-Rise heuristic: with `t0` the
//!   iteration time right after the last redistribution at `i0`, trigger
//!   at iteration `i1` with time `t1` when
//!   `(t1 - t0) * (i1 - i0) >= T_redistribution` (paper Eq. 1), using the
//!   previous redistribution's cost as the estimate of the next one.
//!
//! All three are one [`Policy`] value: its [`PolicyKind`] plus the
//! Stop-At-Rise bookkeeping, which the time-blind kinds carry but never
//! read.  Being plain `Copy` data, the value is also what a checkpoint
//! stores.

use serde::{Deserialize, Serialize};

/// An auditable record of one [`Policy::decide`] evaluation — what the
/// policy observed, what it compared against, and what it decided.
/// Consumed by the simulation driver, which converts it into a
/// `policy_decision` trace event so every redistribution (and every
/// deliberate *non*-redistribution) can be replayed from the trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyDecision {
    /// Iteration the decision was made at.
    pub iter: usize,
    /// The iteration time the policy observed (its input).
    pub observed_s: f64,
    /// The baseline it compared against (`t0` for Stop-At-Rise); equals
    /// `observed_s` on the seeding iteration right after a
    /// redistribution, and NaN for policies without a time baseline.
    pub baseline_s: f64,
    /// Projected loss of *not* redistributing: `rise * (iter - i0)`
    /// (paper Eq. 1 left-hand side). NaN for time-blind policies.
    pub projected_loss_s: f64,
    /// The trigger threshold (`T_redistribution` for Stop-At-Rise).
    /// NaN for time-blind policies.
    pub threshold_s: f64,
    /// Whether the policy decided to redistribute.
    pub fired: bool,
}

/// Runtime-selectable policy configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PolicyKind {
    /// Never redistribute.
    Static,
    /// Redistribute every `k` iterations.
    Periodic(usize),
    /// Stop-At-Rise dynamic criterion (paper Eq. 1).
    DynamicSar,
}

impl PolicyKind {
    /// A fresh policy of this kind; the first
    /// [`Policy::notify_redistributed`] (from the initial distribution)
    /// seeds the Stop-At-Rise cost estimate.
    ///
    /// # Panics
    /// Panics on `Periodic(0)`.
    pub fn build(self) -> Policy {
        if let PolicyKind::Periodic(k) = self {
            assert!(k > 0, "period must be nonzero");
        }
        Policy {
            kind: self,
            i0: 0,
            t0: None,
            redist_cost: f64::INFINITY,
        }
    }

    /// Label used in experiment rows.
    pub fn label(self) -> String {
        match self {
            PolicyKind::Static => "static".to_string(),
            PolicyKind::Periodic(k) => format!("periodic({k})"),
            PolicyKind::DynamicSar => "dynamic".to_string(),
        }
    }
}

/// Decides when the particles should be redistributed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Policy {
    /// Which rule decides.
    pub kind: PolicyKind,
    /// Iteration of the last redistribution (`i0`).
    pub i0: usize,
    /// Execution time of the iteration right after the last
    /// redistribution (`t0`); None until observed.
    pub t0: Option<f64>,
    /// Cost of the previous redistribution (`T_redistribution`), the
    /// estimate of the next one.
    pub redist_cost: f64,
}

impl Policy {
    /// Called after every iteration with the iteration's execution time;
    /// returns the audit record, whose `fired` says whether a
    /// redistribution should run *now*.
    pub fn decide(&mut self, iter: usize, iter_time_s: f64) -> PolicyDecision {
        let fired = match self.kind {
            PolicyKind::Static => false,
            PolicyKind::Periodic(k) => iter > 0 && iter.is_multiple_of(k),
            PolicyKind::DynamicSar => return self.stop_at_rise(iter, iter_time_s),
        };
        PolicyDecision {
            iter,
            observed_s: iter_time_s,
            baseline_s: f64::NAN,
            projected_loss_s: f64::NAN,
            threshold_s: f64::NAN,
            fired,
        }
    }

    /// Paper Eq. 1: fire once the rise over `t0`, accumulated over the
    /// iterations since `i0`, reaches the last redistribution's cost.
    fn stop_at_rise(&mut self, iter: usize, iter_time_s: f64) -> PolicyDecision {
        // the first iteration after a redistribution defines t0
        let t0 = *self.t0.get_or_insert(iter_time_s);
        let rise = iter_time_s - t0;
        let projected_loss_s = rise.max(0.0) * (iter - self.i0) as f64;
        PolicyDecision {
            iter,
            observed_s: iter_time_s,
            baseline_s: t0,
            projected_loss_s,
            threshold_s: self.redist_cost,
            fired: rise > 0.0 && projected_loss_s >= self.redist_cost,
        }
    }

    /// [`Policy::decide`]'s verdict alone.
    pub fn should_redistribute(&mut self, iter: usize, iter_time_s: f64) -> bool {
        self.decide(iter, iter_time_s).fired
    }

    /// Called after each redistribution completes, with its cost; also
    /// called once after the initial distribution (iteration 0).
    pub fn notify_redistributed(&mut self, iter: usize, cost_s: f64) {
        self.i0 = iter;
        self.t0 = None;
        self.redist_cost = cost_s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_never_triggers() {
        let mut p = PolicyKind::Static.build();
        for i in 1..100 {
            assert!(!p.should_redistribute(i, i as f64 * 100.0));
        }
    }

    #[test]
    fn periodic_triggers_on_multiples() {
        let mut p = PolicyKind::Periodic(25).build();
        let fired: Vec<usize> = (1..=100)
            .filter(|&i| p.should_redistribute(i, 1.0))
            .collect();
        assert_eq!(fired, vec![25, 50, 75, 100]);
    }

    #[test]
    fn time_blind_decisions_carry_nan_baselines() {
        for kind in [PolicyKind::Static, PolicyKind::Periodic(2)] {
            let mut p = kind.build();
            p.notify_redistributed(0, 3.0);
            let d = p.decide(2, 1.5);
            assert_eq!((d.iter, d.observed_s), (2, 1.5));
            assert!(d.baseline_s.is_nan() && d.projected_loss_s.is_nan() && d.threshold_s.is_nan());
            assert_eq!(d.fired, kind == PolicyKind::Periodic(2));
        }
    }

    #[test]
    fn dynamic_waits_for_rise_to_amortize_cost() {
        let mut p = PolicyKind::DynamicSar.build();
        p.notify_redistributed(0, 10.0); // redistribution costs 10s
                                         // iteration time grows by 0.1s per iteration from t0 = 1.0
        let mut fired_at = None;
        for i in 1..=200 {
            let t = 1.0 + 0.1 * (i - 1) as f64;
            if p.should_redistribute(i, t) {
                fired_at = Some(i);
                break;
            }
        }
        // (t1 - t0) * (i1 - i0) = 0.1 (i-1) * i >= 10 -> i = 11 is the
        // first integer with 0.1*(i-1)*i >= 10 (0.1*10*11 = 11)
        assert_eq!(fired_at, Some(11));
    }

    #[test]
    fn dynamic_decision_records_the_eq1_terms() {
        let mut p = PolicyKind::DynamicSar.build();
        p.notify_redistributed(0, 4.0);
        let seed = p.decide(1, 1.0);
        assert_eq!((seed.baseline_s, seed.projected_loss_s), (1.0, 0.0));
        assert!(!seed.fired);
        let d = p.decide(3, 3.0);
        assert_eq!(
            (d.baseline_s, d.projected_loss_s, d.threshold_s),
            (1.0, 6.0, 4.0)
        );
        assert!(d.fired);
    }

    #[test]
    fn dynamic_never_fires_when_time_is_flat() {
        let mut p = PolicyKind::DynamicSar.build();
        p.notify_redistributed(0, 1.0);
        for i in 1..1000 {
            assert!(!p.should_redistribute(i, 2.0), "fired at {i}");
        }
    }

    #[test]
    fn dynamic_resets_after_redistribution() {
        let mut p = PolicyKind::DynamicSar.build();
        p.notify_redistributed(0, 1.0);
        assert!(!p.should_redistribute(1, 1.0)); // seeds t0
        assert!(p.should_redistribute(2, 3.0)); // rise 2 * span 2 >= 1
        p.notify_redistributed(2, 1.0);
        // t0 must be re-seeded: the first post-redistribution iteration
        // never fires even if slow
        assert!(!p.should_redistribute(3, 100.0));
    }

    #[test]
    fn dynamic_with_infinite_cost_never_fires_before_seed() {
        let mut p = PolicyKind::DynamicSar.build();
        assert!(!p.should_redistribute(1, 5.0));
        assert!(!p.should_redistribute(2, 50.0));
    }

    #[test]
    fn labels() {
        assert_eq!(PolicyKind::Static.label(), "static");
        assert_eq!(PolicyKind::Periodic(25).label(), "periodic(25)");
        assert_eq!(PolicyKind::DynamicSar.label(), "dynamic");
    }

    #[test]
    #[should_panic(expected = "period must be nonzero")]
    fn zero_period_rejected() {
        PolicyKind::Periodic(0).build();
    }
}
