//! Measured-vs-modeled validation: how well does the machine model's
//! predicted phase time track the real-threads executor?
//!
//! The paper validates its two-level machine model (Section 4) by
//! comparing predicted and measured per-phase times (the basis of
//! Figures 17–19).  This module reproduces that comparison for the two
//! executors that ship here: the modeled [`pic_machine::Machine`]
//! (analytic τ/μ/δ seconds) and the real-threads
//! [`pic_machine::ThreadedMachine`] (wall seconds).  Both emit one
//! [`SuperstepStats`] row per superstep/collective, in the same order for
//! measurement-independent redistribution policies, so the two traces
//! pair step-for-step.
//!
//! The modeled and measured clocks live in different units (an abstract
//! machine's seconds vs this host's), so a direct comparison would only
//! measure the calibration constant.  Instead a single least-squares
//! scale `α = Σ(measured·modeled) / Σ(modeled²)` is fitted over all
//! paired supersteps, and the report states how far each phase deviates
//! from `α · modeled` — i.e. whether the model gets the *relative*
//! phase weights right, which is what the redistribution policy and the
//! cost analysis in [`crate::costs`] rely on.

use pic_machine::{PhaseKind, SuperstepStats, TraceEvent};

/// Per-phase aggregate of the paired supersteps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelErrorRow {
    /// Phase the row aggregates.
    pub phase: PhaseKind,
    /// Paired supersteps attributed to the phase.
    pub steps: u64,
    /// Summed modeled seconds (the model's own units).
    pub modeled_s: f64,
    /// Summed measured wall seconds.
    pub measured_s: f64,
    /// `scale * modeled_s`: the model's prediction in wall seconds.
    pub scaled_modeled_s: f64,
    /// `100 * |measured - scaled_modeled| / measured` (0 when the phase
    /// measured no time at all).
    pub error_pct: f64,
}

/// The model-error report: one row per phase that appears in the paired
/// traces, plus the fitted scale and an overall error figure.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelErrorReport {
    /// Fitted least-squares scale from modeled to measured seconds.
    pub scale: f64,
    /// Per-phase rows, in [`PhaseKind::ALL`] order.
    pub rows: Vec<ModelErrorRow>,
    /// Measured-time-weighted mean error:
    /// `100 * Σ|measured - scaled| / Σ measured` over the rows.
    pub overall_error_pct: f64,
    /// Supersteps paired between the two traces.
    pub paired_steps: u64,
    /// Trailing supersteps of the longer trace that found no partner,
    /// plus in-order pairs whose phases disagreed (both excluded from
    /// the fit; a large value means the runs diverged and the report
    /// is not meaningful).
    pub unpaired_steps: u64,
}

fn supersteps(events: &[TraceEvent]) -> Vec<&SuperstepStats> {
    events.iter().filter_map(TraceEvent::superstep).collect()
}

/// Join a modeled trace against a measured one superstep-by-superstep
/// and aggregate the model error per phase.  Run the *same phase
/// program* (config, seed, iteration count, and a
/// measurement-independent policy such as `Periodic`) on both executors
/// to get traces that pair exactly.
pub fn model_error_report(modeled: &[TraceEvent], measured: &[TraceEvent]) -> ModelErrorReport {
    let model_steps = supersteps(modeled);
    let measure_steps = supersteps(measured);
    let paired = model_steps.len().min(measure_steps.len());
    let mut unpaired = (model_steps.len().max(measure_steps.len()) - paired) as u64;

    // least-squares scale over all phase-consistent pairs
    let mut num = 0.0f64;
    let mut den = 0.0f64;
    let mut pairs: Vec<(&SuperstepStats, &SuperstepStats)> = Vec::with_capacity(paired);
    for (m, w) in model_steps.iter().zip(&measure_steps) {
        if m.phase != w.phase {
            unpaired += 1;
            continue;
        }
        num += w.elapsed_s * m.elapsed_s;
        den += m.elapsed_s * m.elapsed_s;
        pairs.push((m, w));
    }
    let scale = if den > 0.0 { num / den } else { 0.0 };

    let mut rows = Vec::new();
    let mut abs_err_sum = 0.0f64;
    let mut measured_sum = 0.0f64;
    for phase in PhaseKind::ALL {
        let mut steps = 0u64;
        let mut modeled_s = 0.0f64;
        let mut measured_s = 0.0f64;
        for (m, w) in pairs.iter().filter(|(m, _)| m.phase == phase) {
            steps += 1;
            modeled_s += m.elapsed_s;
            measured_s += w.elapsed_s;
        }
        if steps == 0 {
            continue;
        }
        let scaled_modeled_s = scale * modeled_s;
        let error_pct = if measured_s > 0.0 {
            100.0 * (measured_s - scaled_modeled_s).abs() / measured_s
        } else {
            0.0
        };
        abs_err_sum += (measured_s - scaled_modeled_s).abs();
        measured_sum += measured_s;
        rows.push(ModelErrorRow {
            phase,
            steps,
            modeled_s,
            measured_s,
            scaled_modeled_s,
            error_pct,
        });
    }
    let overall_error_pct = if measured_sum > 0.0 {
        100.0 * abs_err_sum / measured_sum
    } else {
        0.0
    };
    ModelErrorReport {
        scale,
        rows,
        overall_error_pct,
        paired_steps: pairs.len() as u64,
        unpaired_steps: unpaired,
    }
}

impl ModelErrorReport {
    /// Header of [`ModelErrorReport::csv_rows`].
    pub const CSV_HEADER: &'static str =
        "phase,steps,modeled_s,measured_s,scaled_modeled_s,error_pct";

    /// One CSV line per phase row (no header).
    pub fn csv_rows(&self) -> Vec<String> {
        self.rows
            .iter()
            .map(|r| {
                format!(
                    "{},{},{:.9},{:.9},{:.9},{:.3}",
                    r.phase.label(),
                    r.steps,
                    r.modeled_s,
                    r.measured_s,
                    r.scaled_modeled_s,
                    r.error_pct
                )
            })
            .collect()
    }

    /// Human-readable table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "model validation: {} paired supersteps, scale {:.3e} s/s, \
             overall error {:.1}%",
            self.paired_steps, self.scale, self.overall_error_pct
        ));
        if self.unpaired_steps > 0 {
            out.push_str(&format!(
                " ({} unpaired steps excluded)",
                self.unpaired_steps
            ));
        }
        out.push('\n');
        out.push_str(&format!(
            "{:<12} {:>6} {:>14} {:>14} {:>14} {:>9}\n",
            "phase", "steps", "modeled_s", "measured_s", "scaled_s", "error%"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<12} {:>6} {:>14.6} {:>14.6} {:>14.6} {:>8.1}%\n",
                r.phase.label(),
                r.steps,
                r.modeled_s,
                r.measured_s,
                r.scaled_modeled_s,
                r.error_pct
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(phase: PhaseKind, elapsed_s: f64) -> TraceEvent {
        TraceEvent::Superstep(SuperstepStats {
            elapsed_s,
            ..SuperstepStats::empty(phase)
        })
    }

    #[test]
    fn perfect_model_has_zero_error_at_any_scale() {
        let modeled = vec![
            step(PhaseKind::Scatter, 1.0),
            step(PhaseKind::Push, 2.0),
            step(PhaseKind::Scatter, 3.0),
        ];
        // measured = 5x modeled, step for step
        let measured = vec![
            step(PhaseKind::Scatter, 5.0),
            step(PhaseKind::Push, 10.0),
            step(PhaseKind::Scatter, 15.0),
        ];
        let rep = model_error_report(&modeled, &measured);
        assert_eq!(rep.paired_steps, 3);
        assert_eq!(rep.unpaired_steps, 0);
        assert!((rep.scale - 5.0).abs() < 1e-12);
        assert!(rep.overall_error_pct < 1e-9);
        let scatter = rep
            .rows
            .iter()
            .find(|r| r.phase == PhaseKind::Scatter)
            .unwrap();
        assert_eq!(scatter.steps, 2);
        assert!((scatter.scaled_modeled_s - 20.0).abs() < 1e-9);
    }

    #[test]
    fn phase_mismatch_and_tail_are_excluded() {
        let modeled = vec![
            step(PhaseKind::Scatter, 1.0),
            step(PhaseKind::Push, 1.0),
            step(PhaseKind::Gather, 1.0),
        ];
        let measured = vec![
            step(PhaseKind::Scatter, 2.0),
            step(PhaseKind::Gather, 2.0), // phase disagrees with Push
        ];
        let rep = model_error_report(&modeled, &measured);
        assert_eq!(rep.paired_steps, 1);
        assert_eq!(rep.unpaired_steps, 2); // 1 mismatched + 1 tail
    }

    #[test]
    fn csv_rows_match_header_arity() {
        let modeled = vec![step(PhaseKind::FieldSolve, 1.0)];
        let measured = vec![step(PhaseKind::FieldSolve, 3.0)];
        let rep = model_error_report(&modeled, &measured);
        let commas = ModelErrorReport::CSV_HEADER.matches(',').count();
        for row in rep.csv_rows() {
            assert_eq!(row.matches(',').count(), commas, "row {row}");
        }
        assert!(rep.render().contains("field_solve"));
    }
}
