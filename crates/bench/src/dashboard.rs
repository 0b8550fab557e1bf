//! Self-contained HTML/SVG observability dashboard.
//!
//! The second exporter of the metrics subsystem (the first is
//! [`pic_machine::MetricsRegistry::prometheus_text`]): one hand-rolled
//! HTML file with inline SVG — no JavaScript, no external assets — that
//! a reviewer can open straight from `results/` to see what a run did:
//!
//! 1. **Load imbalance over time** — per-iteration `max/mean` particle
//!    imbalance factor from the [`RankLoadEvent`] stream, with vertical
//!    markers on the iterations where a redistribution ran;
//! 2. **Communication matrix heatmap** — sender-side bytes per rank
//!    pair from the [`pic_machine::CommMatrix`];
//! 3. **SAR decision timeline** — every [`PolicyDecisionEvent`]:
//!    projected loss vs the redistribution-cost threshold, fired
//!    decisions highlighted;
//! 4. **Model-error table** — the per-phase measured-vs-modeled rows of
//!    a [`pic_core::ModelErrorReport`], when one is supplied.

use pic_core::ModelErrorReport;
use pic_machine::trace::{PolicyDecisionEvent, RankLoadEvent};
use pic_machine::{MetricsRegistry, TraceEvent};

/// Chart geometry shared by the SVG panels.
const W: f64 = 640.0;
const H: f64 = 220.0;
const PAD: f64 = 42.0;

fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1e4 || v.abs() < 1e-3 {
        format!("{v:.2e}")
    } else {
        format!("{v:.3}")
    }
}

/// Map `v` in `[lo, hi]` to an x pixel inside the plot area.
fn px(v: f64, lo: f64, hi: f64) -> f64 {
    let span = if hi > lo { hi - lo } else { 1.0 };
    PAD + (v - lo) / span * (W - 2.0 * PAD)
}

/// Map `v` in `[lo, hi]` to a y pixel (SVG y grows downward).
fn py(v: f64, lo: f64, hi: f64) -> f64 {
    let span = if hi > lo { hi - lo } else { 1.0 };
    H - PAD - (v - lo) / span * (H - 2.0 * PAD)
}

/// Shared frame: axes, y-range labels, x-range labels, panel title.
fn frame(title: &str, x_lo: f64, x_hi: f64, y_lo: f64, y_hi: f64) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "<text x=\"{PAD}\" y=\"16\" class=\"t\">{title}</text>"
    ));
    s.push_str(&format!(
        "<line x1=\"{PAD}\" y1=\"{0}\" x2=\"{1}\" y2=\"{0}\" class=\"ax\"/>",
        H - PAD,
        W - PAD
    ));
    s.push_str(&format!(
        "<line x1=\"{PAD}\" y1=\"{PAD}\" x2=\"{PAD}\" y2=\"{}\" class=\"ax\"/>",
        H - PAD
    ));
    s.push_str(&format!(
        "<text x=\"{}\" y=\"{}\" class=\"l\" text-anchor=\"end\">{}</text>",
        PAD - 4.0,
        PAD + 4.0,
        fmt(y_hi)
    ));
    s.push_str(&format!(
        "<text x=\"{}\" y=\"{}\" class=\"l\" text-anchor=\"end\">{}</text>",
        PAD - 4.0,
        H - PAD + 4.0,
        fmt(y_lo)
    ));
    s.push_str(&format!(
        "<text x=\"{PAD}\" y=\"{}\" class=\"l\">{}</text>",
        H - PAD + 16.0,
        fmt(x_lo)
    ));
    s.push_str(&format!(
        "<text x=\"{}\" y=\"{}\" class=\"l\" text-anchor=\"end\">{}</text>",
        W - PAD,
        H - PAD + 16.0,
        fmt(x_hi)
    ));
    s
}

/// SVG panel 1: imbalance factor over iterations + redistribution marks.
fn imbalance_panel(loads: &[&RankLoadEvent], redists: &[u64]) -> String {
    let series: Vec<(f64, f64)> = loads
        .iter()
        .map(|l| {
            let max = l.counts.iter().copied().max().unwrap_or(0) as f64;
            let mean = l.counts.iter().sum::<u64>() as f64 / l.counts.len().max(1) as f64;
            let imb = if mean > 0.0 { max / mean } else { 1.0 };
            (l.iter as f64, imb)
        })
        .collect();
    if series.is_empty() {
        return "<p>(no rank-load events in the trace)</p>".to_string();
    }
    let x_hi = series.last().unwrap().0.max(1.0);
    let y_hi = series.iter().map(|&(_, v)| v).fold(1.0f64, f64::max) * 1.05;
    let mut svg = format!("<svg viewBox=\"0 0 {W} {H}\" class=\"panel\">");
    svg.push_str(&frame(
        "load imbalance (max/mean particles) per iteration",
        0.0,
        x_hi,
        1.0,
        y_hi,
    ));
    for &iter in redists {
        let x = px(iter as f64, 0.0, x_hi);
        svg.push_str(&format!(
            "<line x1=\"{x:.1}\" y1=\"{PAD}\" x2=\"{x:.1}\" y2=\"{:.1}\" class=\"mark\"/>",
            H - PAD
        ));
    }
    let pts: Vec<String> = series
        .iter()
        .map(|&(x, y)| format!("{:.1},{:.1}", px(x, 0.0, x_hi), py(y, 1.0, y_hi)))
        .collect();
    svg.push_str(&format!(
        "<polyline points=\"{}\" class=\"line\"/>",
        pts.join(" ")
    ));
    svg.push_str("</svg>");
    svg
}

/// SVG panel 2: rank-pair heatmap of sender-side bytes.
fn comm_heatmap(reg: &MetricsRegistry) -> String {
    let comm = reg.comm();
    let p = comm.ranks();
    if p == 0 {
        return "<p>(empty communication matrix)</p>".to_string();
    }
    let peak = comm.max_pair_bytes().max(1) as f64;
    let side = 360.0;
    let cell = side / p as f64;
    let mut svg = format!(
        "<svg viewBox=\"0 0 {} {}\" class=\"panel\">",
        side + 90.0,
        side + 40.0
    );
    svg.push_str(&format!(
        "<text x=\"0\" y=\"16\" class=\"t\">communication matrix: bytes sent, src row &#8594; dst column \
         (peak {} B)</text>",
        comm.max_pair_bytes()
    ));
    for from in 0..p {
        for to in 0..p {
            let (_, bytes) = comm.sent(from, to);
            // perceptual-ish ramp: white → deep red on a sqrt scale so
            // halo traffic doesn't vanish next to redistribution bursts
            let f = (bytes as f64 / peak).sqrt();
            let ch = (255.0 - 205.0 * f) as u8;
            svg.push_str(&format!(
                "<rect x=\"{:.1}\" y=\"{:.1}\" width=\"{:.1}\" height=\"{:.1}\" \
                 fill=\"rgb(255,{ch},{ch})\"><title>{from}&#8594;{to}: {bytes} B</title></rect>",
                to as f64 * cell,
                24.0 + from as f64 * cell,
                cell,
                cell,
            ));
        }
        svg.push_str(&format!(
            "<text x=\"{:.1}\" y=\"{:.1}\" class=\"l\">{from}</text>",
            side + 6.0,
            24.0 + (from as f64 + 0.7) * cell
        ));
    }
    svg.push_str("</svg>");
    svg
}

/// SVG panel 3: SAR decision timeline — projected loss vs threshold.
fn sar_panel(decisions: &[&PolicyDecisionEvent]) -> String {
    let finite: Vec<&&PolicyDecisionEvent> = decisions
        .iter()
        .filter(|d| d.projected_loss_s.is_finite() && d.threshold_s.is_finite())
        .collect();
    if finite.is_empty() {
        return "<p>(no policy decisions with a time criterion in the trace)</p>".to_string();
    }
    let x_hi = finite.iter().map(|d| d.iter as f64).fold(1.0f64, f64::max);
    let y_hi = finite
        .iter()
        .flat_map(|d| [d.projected_loss_s, d.threshold_s])
        .fold(0.0f64, f64::max)
        .max(1e-12)
        * 1.05;
    let mut svg = format!("<svg viewBox=\"0 0 {W} {H}\" class=\"panel\">");
    svg.push_str(&frame(
        "stop-at-rise: projected loss (line) vs redistribution cost (dashed); dots = fired",
        0.0,
        x_hi,
        0.0,
        y_hi,
    ));
    let loss: Vec<String> = finite
        .iter()
        .map(|d| {
            format!(
                "{:.1},{:.1}",
                px(d.iter as f64, 0.0, x_hi),
                py(d.projected_loss_s, 0.0, y_hi)
            )
        })
        .collect();
    svg.push_str(&format!(
        "<polyline points=\"{}\" class=\"line\"/>",
        loss.join(" ")
    ));
    let thresh: Vec<String> = finite
        .iter()
        .map(|d| {
            format!(
                "{:.1},{:.1}",
                px(d.iter as f64, 0.0, x_hi),
                py(d.threshold_s, 0.0, y_hi)
            )
        })
        .collect();
    svg.push_str(&format!(
        "<polyline points=\"{}\" class=\"dash\"/>",
        thresh.join(" ")
    ));
    for d in finite.iter().filter(|d| d.fired) {
        svg.push_str(&format!(
            "<circle cx=\"{:.1}\" cy=\"{:.1}\" r=\"4\" class=\"fire\"><title>fired at iter {}</title></circle>",
            px(d.iter as f64, 0.0, x_hi),
            py(d.projected_loss_s, 0.0, y_hi),
            d.iter
        ));
    }
    svg.push_str("</svg>");
    svg
}

/// HTML table of the per-phase model error rows.
fn model_table(report: &ModelErrorReport) -> String {
    let mut html = format!(
        "<p>fitted scale {:.3e} s/s over {} paired supersteps; overall error {:.1}%{}</p>\
         <table><tr><th>phase</th><th>steps</th><th>modeled s</th><th>measured s</th>\
         <th>scaled model s</th><th>error %</th></tr>",
        report.scale,
        report.paired_steps,
        report.overall_error_pct,
        if report.unpaired_steps > 0 {
            format!(" ({} unpaired steps excluded)", report.unpaired_steps)
        } else {
            String::new()
        }
    );
    for r in &report.rows {
        html.push_str(&format!(
            "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{:.1}</td></tr>",
            r.phase.label(),
            r.steps,
            fmt(r.modeled_s),
            fmt(r.measured_s),
            fmt(r.scaled_modeled_s),
            r.error_pct
        ));
    }
    html.push_str("</table>");
    html
}

/// Render the full dashboard from a trace, a registry snapshot, and an
/// optional model-validation report.
pub fn render_dashboard(
    title: &str,
    events: &[TraceEvent],
    reg: &MetricsRegistry,
    model: Option<&ModelErrorReport>,
) -> String {
    let loads: Vec<&RankLoadEvent> = events.iter().filter_map(TraceEvent::rank_load).collect();
    let decisions: Vec<&PolicyDecisionEvent> = events
        .iter()
        .filter_map(TraceEvent::policy_decision)
        .collect();
    let redists: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Redistribution(r) if r.iter > 0 => Some(r.iter),
            _ => None,
        })
        .collect();

    let mut html = String::new();
    html.push_str("<!DOCTYPE html><html><head><meta charset=\"utf-8\">");
    html.push_str(&format!("<title>{title}</title><style>"));
    html.push_str(
        "body{font:14px/1.45 system-ui,sans-serif;margin:24px;max-width:720px}\
         h2{margin:28px 0 8px}\
         svg.panel{width:100%;height:auto;background:#fafafa;border:1px solid #ddd}\
         .t{font-size:12px;font-weight:600}.l{font-size:10px;fill:#555}\
         .ax{stroke:#999;stroke-width:1}\
         .line{fill:none;stroke:#1565c0;stroke-width:1.5}\
         .dash{fill:none;stroke:#777;stroke-width:1;stroke-dasharray:5 3}\
         .mark{stroke:#2e7d32;stroke-width:1;stroke-dasharray:2 2}\
         .fire{fill:#c62828}\
         table{border-collapse:collapse}td,th{border:1px solid #ccc;padding:3px 9px;text-align:right}\
         th:first-child,td:first-child{text-align:left}",
    );
    html.push_str("</style></head><body>");
    html.push_str(&format!("<h1>{title}</h1>"));
    html.push_str(&format!(
        "<p>{} iterations, {} redistributions, {} policy decisions, {} faults</p>",
        reg.counter("pic_iterations_total"),
        reg.counter("pic_redistributions_total"),
        reg.counter("pic_policy_decisions_total"),
        reg.counter("pic_faults_total"),
    ));

    html.push_str("<h2>Load imbalance</h2>");
    html.push_str(&imbalance_panel(&loads, &redists));
    html.push_str("<h2>Communication matrix</h2>");
    html.push_str(&comm_heatmap(reg));
    html.push_str("<h2>Redistribution policy timeline</h2>");
    html.push_str(&sar_panel(&decisions));
    if let Some(report) = model {
        html.push_str("<h2>Model validation</h2>");
        html.push_str(&model_table(report));
    }
    html.push_str("</body></html>");
    html
}

#[cfg(test)]
mod tests {
    use super::*;
    use pic_machine::PhaseKind;

    fn load(iter: u64, counts: Vec<u64>) -> TraceEvent {
        TraceEvent::RankLoad(RankLoadEvent {
            iter,
            time_s: iter as f64,
            counts,
        })
    }

    fn decision(iter: u64, loss: f64, threshold: f64, fired: bool) -> TraceEvent {
        TraceEvent::PolicyDecision(PolicyDecisionEvent {
            iter,
            time_s: iter as f64,
            observed_s: 1.0,
            baseline_s: 0.5,
            projected_loss_s: loss,
            threshold_s: threshold,
            fired,
        })
    }

    #[test]
    fn dashboard_contains_all_panels() {
        let mut reg = MetricsRegistry::new(2);
        reg.comm_mut().record_send(0, 1, 3, 300);
        reg.comm_mut().record_recv(1, 0, 3, 300);
        reg.inc("pic_iterations_total", 2);
        let events = vec![
            load(1, vec![10, 20]),
            decision(1, 0.1, 1.0, false),
            load(2, vec![15, 15]),
            decision(2, 2.0, 1.0, true),
        ];
        let modeled = vec![TraceEvent::Superstep(pic_machine::SuperstepStats {
            elapsed_s: 1.0,
            ..pic_machine::SuperstepStats::empty(PhaseKind::Scatter)
        })];
        let measured = modeled.clone();
        let report = pic_core::model_error_report(&modeled, &measured);
        let html = render_dashboard("test run", &events, &reg, Some(&report));
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("load imbalance"));
        assert!(html.contains("communication matrix"));
        assert!(html.contains("stop-at-rise"));
        assert!(html.contains("Model validation"));
        assert!(html.contains("scatter"));
        // fired decision renders as a dot
        assert!(html.contains("class=\"fire\""));
        // balanced tags (cheap well-formedness check)
        assert_eq!(html.matches("<svg").count(), html.matches("</svg>").count());
        assert_eq!(
            html.matches("<table").count(),
            html.matches("</table>").count()
        );
    }

    #[test]
    fn dashboard_degrades_without_events() {
        let reg = MetricsRegistry::new(1);
        let html = render_dashboard("empty", &[], &reg, None);
        assert!(html.contains("no rank-load events"));
        assert!(html.contains("no policy decisions"));
        assert!(!html.contains("Model validation"));
    }
}
