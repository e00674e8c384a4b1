//! The `paper trace <file.ndjson>` summarizer: turn a flight-recorder
//! trace (one engine section per `trace_start`/`trace_end` pair, see
//! `metrics::trace`) into a human-readable digest — per-section event
//! histogram (top-K, most frequent first), the per-phase convergence
//! timeline from the `phase` events, and overflow warnings when the ring
//! dropped events. Pure text in, text out: unit-testable without files.
//! The NDJSON section grammar itself is read by [`traceq::parse`].

use crate::traceq::{self, Section};

/// How many event kinds the histogram lists per section.
const TOP_K: usize = 8;

fn fmt_bytes(bytes: u64) -> String {
    match bytes {
        b if b >= 1 << 30 => format!("{:.2} GiB", b as f64 / (1u64 << 30) as f64),
        b if b >= 1 << 20 => format!("{:.2} MiB", b as f64 / (1u64 << 20) as f64),
        b if b >= 1 << 10 => format!("{:.2} KiB", b as f64 / (1u64 << 10) as f64),
        b => format!("{b} B"),
    }
}

/// Summarize flight-recorder NDJSON. Errors name the offending line
/// (1-based) — traces are machine-written, so any parse failure means the
/// file is not a trace.
pub fn summarize(text: &str) -> Result<String, String> {
    Ok(render(&traceq::parse(text)?.sections))
}

fn render(sections: &[Section]) -> String {
    let mut out = String::new();
    for s in sections {
        out.push_str(&format!(
            "## {} — {} events ({} dropped)\n",
            s.system, s.recorded, s.dropped
        ));
        if s.dropped > 0 {
            out.push_str(&format!(
                "   WARNING: ring overflowed; the oldest {} events were overwritten\n",
                s.dropped
            ));
        }
        // `(event name, count)`, sorted most frequent first below.
        let mut ranked: Vec<(&str, u64)> = Vec::new();
        for ev in &s.events {
            match ranked.iter_mut().find(|(name, _)| *name == ev.kind) {
                Some((_, count)) => *count += 1,
                None => ranked.push((&ev.kind, 1)),
            }
        }
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        out.push_str("   top events:\n");
        if ranked.is_empty() {
            out.push_str("     (none recorded)\n");
        }
        for (name, count) in ranked.into_iter().take(TOP_K) {
            out.push_str(&format!("     {count:>8}  {name}\n"));
        }
        let mut phases = s.events.iter().filter(|ev| ev.kind == "phase").peekable();
        if phases.peek().is_some() {
            out.push_str("   convergence timeline:\n");
            out.push_str("     phase       t_ms     delivered       backlog  part_tors\n");
            let mut prev_delivered = 0u64;
            for ev in phases {
                let get = |key: &str| ev.field(key).unwrap_or(0);
                let (phase, t_ns, partitioned) =
                    (get("phase"), get("t_ns"), get("partitioned_tors"));
                let (delivered, backlog) = (get("delivered_bytes"), get("backlog_bytes"));
                let delta = delivered.saturating_sub(prev_delivered);
                prev_delivered = delivered;
                out.push_str(&format!(
                    "     {phase:>5} {:>10.3} {:>13} {:>13} {partitioned:>10}   (+{} this phase)\n",
                    t_ns as f64 / 1e6,
                    fmt_bytes(delivered),
                    fmt_bytes(backlog),
                    fmt_bytes(delta),
                ));
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = concat!(
        "{\"event\":\"trace_start\",\"schema_version\":1,\"system\":\"nego/parallel\",\"capacity\":16384}\n",
        "{\"event\":\"sched\",\"epoch\":1,\"t_ns\":5000,\"requests\":4,\"grants\":3,\"accepts\":3}\n",
        "{\"event\":\"sched\",\"epoch\":2,\"t_ns\":10000,\"requests\":2,\"grants\":2,\"accepts\":2}\n",
        "{\"event\":\"control_drop\",\"epoch\":2,\"t_ns\":10000,\"dropped\":1,\"total\":1}\n",
        "{\"event\":\"phase\",\"epoch\":3,\"t_ns\":15000,\"phase\":0,\"delivered_bytes\":2048,\"backlog_bytes\":512,\"partitioned_tors\":0}\n",
        "{\"event\":\"trace_end\",\"system\":\"nego/parallel\",\"events\":4,\"dropped\":0}\n",
    );

    #[test]
    fn summarizes_histogram_and_timeline() {
        let out = summarize(SAMPLE).unwrap();
        assert!(
            out.contains("nego/parallel — 4 events (0 dropped)"),
            "{out}"
        );
        // sched (2) ranks above control_drop (1) and phase (1).
        let sched = out.find("sched").unwrap();
        let drop = out.find("control_drop").unwrap();
        assert!(sched < drop, "{out}");
        assert!(out.contains("convergence timeline"), "{out}");
        assert!(out.contains("2.00 KiB"), "{out}");
        assert!(!out.contains("WARNING"), "{out}");
    }

    #[test]
    fn overflow_warns() {
        let text = SAMPLE.replace("\"events\":4,\"dropped\":0", "\"events\":4,\"dropped\":9");
        let out = summarize(&text).unwrap();
        assert!(out.contains("WARNING"), "{out}");
        assert!(out.contains("oldest 9 events"), "{out}");
    }

    #[test]
    fn multi_section_traces_render_each_engine() {
        let second = SAMPLE.replace("nego/parallel", "oblivious/parallel");
        let out = summarize(&format!("{SAMPLE}{second}")).unwrap();
        assert!(out.contains("## nego/parallel"), "{out}");
        assert!(out.contains("## oblivious/parallel"), "{out}");
    }

    #[test]
    fn garbage_is_rejected_with_line_numbers() {
        assert!(summarize("not json\n").unwrap_err().contains("line 1"));
        let err = summarize("{\"event\":\"sched\"}\n").unwrap_err();
        assert!(err.contains("before trace_start"), "{err}");
        let err = summarize("").unwrap_err();
        assert!(err.contains("no trace sections"), "{err}");
        let truncated = SAMPLE.lines().take(3).collect::<Vec<_>>().join("\n");
        let err = summarize(&truncated).unwrap_err();
        assert!(err.contains("no trace_end"), "{err}");
    }
}
