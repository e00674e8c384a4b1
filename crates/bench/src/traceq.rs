//! Trace forensics: the query and diff engines behind `paper trace query`
//! and `paper trace diff`, shared with the daemon's `GET /jobs/<id>/flows`
//! endpoint ([`flows_json`] is the single implementation both sides call).
//!
//! The input is flight-recorder NDJSON (`metrics::trace`): one engine
//! section per `trace_start`/`trace_end` pair, one event per line. Queries
//! filter events (`--kind`, `--tor`, `--flow`, `--epoch A..B`) and
//! aggregate them — per-epoch event counts, per-flow span timelines, and
//! the slowest-N completed flows with their control-message history.
//! Diffing locates the first divergent event between two traces and names
//! it (epoch + kind + ToR/flow), with aligned context on each side — so a
//! determinism-gate failure reads as "epoch 41, flow_grant, pair 3→7"
//! instead of "bytes differ".

use metrics::Json;

/// Epoch rows a text query prints before eliding (the elision is counted,
/// never silent).
const MAX_EPOCH_ROWS: usize = 64;
/// Event lines a `--flow` timeline prints before eliding.
const MAX_TIMELINE_ROWS: usize = 200;

/// One parsed trace event with its raw line retained for display.
#[derive(Debug, Clone)]
pub struct Ev {
    /// The `"event"` field.
    pub kind: String,
    /// The `"epoch"` field (slot index for the rotor).
    pub epoch: u64,
    /// The parsed line, for field lookups.
    pub json: Json,
    /// The raw NDJSON line.
    pub line: String,
}

impl Ev {
    pub(crate) fn field(&self, key: &str) -> Option<u64> {
        self.json.get(key).and_then(Json::as_u64)
    }

    /// The flow id, for flow-lifecycle events.
    pub fn flow(&self) -> Option<u64> {
        self.field("flow")
    }

    /// True when the event mentions ToR `tor` (as `tor`, `src` or `dst`).
    pub fn mentions_tor(&self, tor: u64) -> bool {
        [self.field("tor"), self.field("src"), self.field("dst")]
            .into_iter()
            .flatten()
            .any(|t| t == tor)
    }
}

/// One engine section of a parsed trace.
#[derive(Debug, Clone)]
pub struct Section {
    /// Engine label from the `trace_start` header.
    pub system: String,
    /// Events in file order.
    pub events: Vec<Ev>,
    /// Event count from the `trace_end` footer.
    pub recorded: u64,
    /// Ring-overflow count from the `trace_end` footer.
    pub dropped: u64,
}

/// A fully parsed trace file.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Engine sections in file order.
    pub sections: Vec<Section>,
}

/// Parse flight-recorder NDJSON into sections. Errors name the offending
/// 1-based line — traces are machine-written, so any failure means the
/// file is not a trace.
pub fn parse(text: &str) -> Result<Trace, String> {
    let mut sections: Vec<Section> = Vec::new();
    let mut current: Option<Section> = None;
    for (i, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let v = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let event = v
            .get("event")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: missing \"event\" field", i + 1))?;
        match event {
            "trace_start" => {
                if let Some(done) = current.take() {
                    sections.push(done);
                }
                current = Some(Section {
                    system: v
                        .get("system")
                        .and_then(Json::as_str)
                        .unwrap_or("?")
                        .to_string(),
                    events: Vec::new(),
                    recorded: 0,
                    dropped: 0,
                });
            }
            "trace_end" => {
                let mut done = current
                    .take()
                    .ok_or_else(|| format!("line {}: trace_end without trace_start", i + 1))?;
                done.recorded = v.get("events").and_then(Json::as_u64).unwrap_or(0);
                done.dropped = v.get("dropped").and_then(Json::as_u64).unwrap_or(0);
                sections.push(done);
            }
            kind => {
                let section = current
                    .as_mut()
                    .ok_or_else(|| format!("line {}: event before trace_start", i + 1))?;
                let epoch = v.get("epoch").and_then(Json::as_u64).unwrap_or(0);
                section.events.push(Ev {
                    kind: kind.to_string(),
                    epoch,
                    json: v,
                    line: line.to_string(),
                });
            }
        }
    }
    if let Some(unterminated) = current {
        return Err(format!(
            "trace for '{}' has no trace_end line (truncated file?)",
            unterminated.system
        ));
    }
    if sections.is_empty() {
        return Err("no trace sections found (is this a --trace output file?)".to_string());
    }
    Ok(Trace { sections })
}

/// Sum of ring-overflow drop counts across every `trace_end` footer.
/// Lenient — lines that do not parse count zero — so the daemon can call
/// it on any stored trace without a second error path. One substring
/// search finds the footers; only their lines are parsed.
pub fn dropped_total(text: &str) -> u64 {
    let mut total = 0;
    let mut next_line = 0;
    for (at, _) in text.match_indices("\"event\":\"trace_end\"") {
        if at < next_line {
            continue; // a second hit on a line already counted
        }
        let start = text[..at].rfind('\n').map_or(0, |i| i + 1);
        next_line = text[at..].find('\n').map_or(text.len(), |i| at + i + 1);
        total += Json::parse(&text[start..next_line])
            .ok()
            .filter(|v| v.get("event").and_then(Json::as_str) == Some("trace_end"))
            .and_then(|v| v.get("dropped").and_then(Json::as_u64))
            .unwrap_or(0);
    }
    total
}

// ---------------------------------------------------------------------
// Per-flow span timelines
// ---------------------------------------------------------------------

/// One flow's reconstructed lifecycle within one engine section.
#[derive(Debug, Clone, Default)]
pub struct FlowSpanRow {
    /// Flow id.
    pub flow: u64,
    /// Source ToR (from `flow_born` or `flow_complete`).
    pub src: u64,
    /// Destination ToR.
    pub dst: u64,
    /// Flow size in bytes (0 when the birth fell outside the ring window).
    pub bytes: u64,
    /// Epoch of each milestone, when observed.
    pub born: Option<u64>,
    /// Epoch the first covering REQUEST was sent.
    pub request: Option<u64>,
    /// Epoch the first covering GRANT was issued.
    pub grant: Option<u64>,
    /// Epoch the first covering ACCEPT was made.
    pub accept: Option<u64>,
    /// Epoch the first payload bytes moved.
    pub first_tx: Option<u64>,
    /// Epoch the last byte was delivered.
    pub complete: Option<u64>,
    /// Flow completion time in ns, once complete.
    pub fct_ns: Option<u64>,
}

/// Reconstruct per-flow span rows from one section's events, in flow-id
/// order. Flows are included from their first sighted span event, so a
/// ring overflow degrades the table instead of emptying it.
pub fn flow_rows(section: &Section) -> Vec<FlowSpanRow> {
    let mut rows: Vec<FlowSpanRow> = Vec::new();
    let mut index_of: Vec<(u64, usize)> = Vec::new(); // sorted by flow id
    for ev in &section.events {
        let Some(flow) = ev.flow() else { continue };
        let slot = match index_of.binary_search_by_key(&flow, |&(id, _)| id) {
            Ok(found) => index_of[found].1,
            Err(insert) => {
                rows.push(FlowSpanRow {
                    flow,
                    ..FlowSpanRow::default()
                });
                index_of.insert(insert, (flow, rows.len() - 1));
                rows.len() - 1
            }
        };
        let row = &mut rows[slot];
        match ev.kind.as_str() {
            "flow_born" => {
                row.born = Some(ev.epoch);
                row.src = ev.field("src").unwrap_or(0);
                row.dst = ev.field("dst").unwrap_or(0);
                row.bytes = ev.field("bytes").unwrap_or(0);
            }
            "flow_request" => row.request = Some(ev.epoch),
            "flow_grant" => row.grant = Some(ev.epoch),
            "flow_accept" => row.accept = Some(ev.epoch),
            "flow_first_tx" => row.first_tx = Some(ev.epoch),
            "flow_complete" => {
                row.complete = Some(ev.epoch);
                row.fct_ns = ev.field("fct_ns");
                if row.born.is_none() {
                    row.src = ev.field("src").unwrap_or(row.src);
                    row.dst = ev.field("dst").unwrap_or(row.dst);
                }
            }
            _ => {}
        }
    }
    rows.sort_by_key(|r| r.flow);
    rows
}

/// The slowest `top` completed flows of `rows`, FCT-descending (flow id
/// breaks ties, so the order is total and deterministic).
pub fn slowest(rows: &[FlowSpanRow], top: usize) -> Vec<&FlowSpanRow> {
    let mut done: Vec<&FlowSpanRow> = rows.iter().filter(|r| r.fct_ns.is_some()).collect();
    done.sort_by(|a, b| b.fct_ns.cmp(&a.fct_ns).then(a.flow.cmp(&b.flow)));
    done.truncate(top);
    done
}

fn row_json(row: &FlowSpanRow) -> Json {
    let mut j = Json::object();
    j.push("flow", row.flow)
        .push("src", row.src)
        .push("dst", row.dst)
        .push("bytes", row.bytes)
        .push("fct_ns", row.fct_ns)
        .push("born_epoch", row.born)
        .push("request_epoch", row.request)
        .push("grant_epoch", row.grant)
        .push("accept_epoch", row.accept)
        .push("first_tx_epoch", row.first_tx)
        .push("complete_epoch", row.complete);
    j
}

/// The slowest-flows summary document: one entry per engine section with
/// its `top` slowest completed flows and their full milestone history.
/// This is the body of the daemon's `GET /jobs/<id>/flows?top=N` and of
/// `paper trace query --top-fct N --json` — one implementation, two
/// frontends.
pub fn flows_json(text: &str, top: usize) -> Result<Json, String> {
    let trace = parse(text)?;
    let mut sections = Vec::new();
    for section in &trace.sections {
        let rows = flow_rows(section);
        let completed = rows.iter().filter(|r| r.fct_ns.is_some()).count();
        let mut s = Json::object();
        s.push("system", section.system.as_str())
            .push("flows_seen", rows.len() as u64)
            .push("flows_completed", completed as u64)
            .push("dropped_events", section.dropped)
            .push(
                "slowest",
                Json::Arr(slowest(&rows, top).into_iter().map(row_json).collect()),
            );
        sections.push(s);
    }
    let mut out = Json::object();
    out.push("top", top as u64)
        .push("sections", Json::Arr(sections));
    Ok(out)
}

// ---------------------------------------------------------------------
// Query
// ---------------------------------------------------------------------

/// Filters and aggregations for one `paper trace query` invocation.
#[derive(Debug, Clone, Default)]
pub struct QueryOpts {
    /// Keep only events of this kind (`--kind`).
    pub kind: Option<String>,
    /// Keep only events mentioning this ToR (`--tor`).
    pub tor: Option<u64>,
    /// Keep only this flow's lifecycle events (`--flow`).
    pub flow: Option<u64>,
    /// Keep only epochs in this inclusive range (`--epoch A..B`).
    pub epochs: Option<(u64, u64)>,
    /// Also report the slowest-N completed flows (`--top-fct N`).
    pub top_fct: Option<usize>,
    /// Emit the machine-readable document instead of text (`--json`).
    pub json: bool,
}

impl QueryOpts {
    fn keeps(&self, ev: &Ev) -> bool {
        if let Some(kind) = &self.kind {
            if &ev.kind != kind {
                return false;
            }
        }
        if let Some(tor) = self.tor {
            if !ev.mentions_tor(tor) {
                return false;
            }
        }
        if let Some(flow) = self.flow {
            if ev.flow() != Some(flow) {
                return false;
            }
        }
        if let Some((lo, hi)) = self.epochs {
            if ev.epoch < lo || ev.epoch > hi {
                return false;
            }
        }
        true
    }

    fn describe(&self) -> String {
        let mut parts = Vec::new();
        if let Some(k) = &self.kind {
            parts.push(format!("kind={k}"));
        }
        if let Some(t) = self.tor {
            parts.push(format!("tor={t}"));
        }
        if let Some(f) = self.flow {
            parts.push(format!("flow={f}"));
        }
        if let Some((lo, hi)) = self.epochs {
            parts.push(format!("epoch={lo}..{hi}"));
        }
        if parts.is_empty() {
            "none".to_string()
        } else {
            parts.join(" ")
        }
    }
}

/// Run a query over trace NDJSON and render the answer (text or JSON per
/// `opts.json`). The output is a pure function of (text, opts) — CI pins
/// it over a committed golden trace.
pub fn query(text: &str, opts: &QueryOpts) -> Result<String, String> {
    let trace = parse(text)?;
    if opts.json {
        return Ok(query_json(&trace, opts).render());
    }
    let mut out = String::new();
    out.push_str(&format!(
        "# trace query — {} section(s), filters: {}\n",
        trace.sections.len(),
        opts.describe()
    ));
    for section in &trace.sections {
        let kept: Vec<&Ev> = section.events.iter().filter(|e| opts.keeps(e)).collect();
        out.push_str(&format!(
            "\n## {} — {} of {} events match",
            section.system,
            kept.len(),
            section.events.len()
        ));
        if section.dropped > 0 {
            out.push_str(&format!(" ({} dropped by ring overflow)", section.dropped));
        }
        out.push('\n');
        // Per-epoch event counts over the matching set.
        let by_epoch = epoch_counts(&kept);
        if !by_epoch.is_empty() {
            out.push_str("   per-epoch event counts:\n");
            for &(epoch, count) in by_epoch.iter().take(MAX_EPOCH_ROWS) {
                out.push_str(&format!("     epoch {epoch:>6}: {count}\n"));
            }
            if by_epoch.len() > MAX_EPOCH_ROWS {
                out.push_str(&format!(
                    "     (… {} more epochs elided)\n",
                    by_epoch.len() - MAX_EPOCH_ROWS
                ));
            }
        }
        // A single flow's query prints its full span timeline.
        if opts.flow.is_some() {
            out.push_str("   timeline:\n");
            for ev in kept.iter().take(MAX_TIMELINE_ROWS) {
                out.push_str(&format!("     {}\n", ev.line));
            }
            if kept.len() > MAX_TIMELINE_ROWS {
                out.push_str(&format!(
                    "     (… {} more events elided)\n",
                    kept.len() - MAX_TIMELINE_ROWS
                ));
            }
        }
        if let Some(top) = opts.top_fct {
            let rows = flow_rows(section);
            out.push_str(&format!("   slowest {top} flows by FCT:\n"));
            let slow = slowest(&rows, top);
            if slow.is_empty() {
                out.push_str("     (no completed flows in the trace window)\n");
            } else {
                out.push_str(
                    "     flow   src   dst        bytes       fct_ns  born  req  grant  accept  first_tx  done\n",
                );
                for r in slow {
                    out.push_str(&format!(
                        "     {:>4} {:>5} {:>5} {:>12} {:>12}  {:>4}  {:>3}  {:>5}  {:>6}  {:>8}  {:>4}\n",
                        r.flow,
                        r.src,
                        r.dst,
                        r.bytes,
                        r.fct_ns.unwrap_or(0),
                        opt_col(r.born),
                        opt_col(r.request),
                        opt_col(r.grant),
                        opt_col(r.accept),
                        opt_col(r.first_tx),
                        opt_col(r.complete),
                    ));
                }
            }
        }
    }
    Ok(out)
}

fn opt_col(v: Option<u64>) -> String {
    v.map_or_else(|| "-".to_string(), |e| e.to_string())
}

/// `(epoch, matching event count)` rows, epoch-ascending.
fn epoch_counts(kept: &[&Ev]) -> Vec<(u64, u64)> {
    let mut counts: Vec<(u64, u64)> = Vec::new();
    for ev in kept {
        match counts.binary_search_by_key(&ev.epoch, |&(e, _)| e) {
            Ok(i) => counts[i].1 += 1,
            Err(i) => counts.insert(i, (ev.epoch, 1)),
        }
    }
    counts
}

fn query_json(trace: &Trace, opts: &QueryOpts) -> Json {
    let mut sections = Vec::new();
    for section in &trace.sections {
        let kept: Vec<&Ev> = section.events.iter().filter(|e| opts.keeps(e)).collect();
        let mut s = Json::object();
        s.push("system", section.system.as_str())
            .push("matched", kept.len() as u64)
            .push("total", section.events.len() as u64)
            .push("dropped_events", section.dropped);
        let mut epochs = Vec::new();
        for (epoch, count) in epoch_counts(&kept) {
            let mut e = Json::object();
            e.push("epoch", epoch).push("events", count);
            epochs.push(e);
        }
        s.push("by_epoch", Json::Arr(epochs));
        if opts.flow.is_some() {
            let lines: Vec<Json> = kept
                .iter()
                .map(|ev| ev.json.clone())
                .take(MAX_TIMELINE_ROWS)
                .collect();
            s.push("timeline", Json::Arr(lines));
        }
        if let Some(top) = opts.top_fct {
            let rows = flow_rows(section);
            s.push(
                "slowest",
                Json::Arr(slowest(&rows, top).into_iter().map(row_json).collect()),
            );
        }
        sections.push(s);
    }
    let mut out = Json::object();
    out.push("filters", opts.describe())
        .push("sections", Json::Arr(sections));
    out
}

// ---------------------------------------------------------------------
// Diff
// ---------------------------------------------------------------------

/// Outcome of a trace diff.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Human-readable report (identical or divergence + context).
    pub report: String,
    /// True when the traces differ — `paper trace diff` exits non-zero.
    pub divergent: bool,
}

/// Locate the first divergent line between two traces and render it with
/// `context` lines of aligned context on each side. Line-exact: the
/// determinism gate's contract is byte identity, so the first differing
/// *line* is the first differing *event*, and naming it (epoch + kind +
/// ToR/flow) is what turns "bytes differ" into a lead.
pub fn diff(a_name: &str, a: &str, b_name: &str, b: &str, context: usize) -> DiffReport {
    let a_lines: Vec<&str> = a.lines().collect();
    let b_lines: Vec<&str> = b.lines().collect();
    let common = a_lines.len().min(b_lines.len());
    let split = (0..common).find(|&i| a_lines[i] != b_lines[i]);
    let at = match split {
        Some(i) => i,
        None if a_lines.len() == b_lines.len() => {
            return DiffReport {
                report: format!(
                    "traces are identical ({} lines)\n  a: {a_name}\n  b: {b_name}\n",
                    a_lines.len()
                ),
                divergent: false,
            };
        }
        // One trace is a strict prefix of the other: the first divergent
        // event is the longer side's next line.
        None => common,
    };
    let mut report = format!("traces diverge at line {} (1-based)\n", at + 1);
    report.push_str(&format!("  a: {a_name}\n  b: {b_name}\n"));
    report.push_str(&format!(
        "  first divergent event: a = {}\n                         b = {}\n",
        describe_line(a_lines.get(at).copied()),
        describe_line(b_lines.get(at).copied()),
    ));
    let from = at.saturating_sub(context);
    if from < at {
        report.push_str(&format!(
            "  aligned context (lines {}..{}, identical on both sides):\n",
            from + 1,
            at
        ));
        for line in &a_lines[from..at] {
            report.push_str(&format!("    = {line}\n"));
        }
    }
    for (name, lines) in [(a_name, &a_lines), (b_name, &b_lines)] {
        report.push_str(&format!("  {name}:\n"));
        if at >= lines.len() {
            report.push_str("    (ends here)\n");
            continue;
        }
        let to = (at + 1 + context).min(lines.len());
        for line in &lines[at..to] {
            report.push_str(&format!("    > {line}\n"));
        }
    }
    DiffReport {
        report,
        divergent: true,
    }
}

/// Name one event line for the divergence headline: epoch + kind + the
/// ToR/flow coordinates it carries.
fn describe_line(line: Option<&str>) -> String {
    let Some(line) = line else {
        return "(end of trace)".to_string();
    };
    let Ok(v) = Json::parse(line) else {
        return format!("(unparseable) {line}");
    };
    let kind = v.get("event").and_then(Json::as_str).unwrap_or("?");
    let mut desc = format!(
        "epoch {} {kind}",
        v.get("epoch").and_then(Json::as_u64).unwrap_or(0)
    );
    for key in ["flow", "tor", "src", "dst"] {
        if let Some(val) = v.get(key).and_then(Json::as_u64) {
            desc.push_str(&format!(" {key}={val}"));
        }
    }
    desc
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = concat!(
        "{\"event\":\"trace_start\",\"schema_version\":2,\"system\":\"nego/parallel\",\"capacity\":16384}\n",
        "{\"event\":\"flow_born\",\"epoch\":0,\"t_ns\":0,\"flow\":0,\"src\":1,\"dst\":2,\"bytes\":5000}\n",
        "{\"event\":\"flow_born\",\"epoch\":0,\"t_ns\":0,\"flow\":1,\"src\":2,\"dst\":3,\"bytes\":800}\n",
        "{\"event\":\"sched\",\"epoch\":1,\"t_ns\":5000,\"requests\":2,\"grants\":0,\"accepts\":0}\n",
        "{\"event\":\"flow_request\",\"epoch\":1,\"t_ns\":5000,\"flow\":0,\"src\":1,\"dst\":2}\n",
        "{\"event\":\"flow_grant\",\"epoch\":2,\"t_ns\":10000,\"flow\":0,\"src\":1,\"dst\":2}\n",
        "{\"event\":\"flow_accept\",\"epoch\":3,\"t_ns\":15000,\"flow\":0,\"src\":1,\"dst\":2}\n",
        "{\"event\":\"flow_first_tx\",\"epoch\":3,\"t_ns\":15000,\"flow\":0,\"sent_bytes\":1500}\n",
        "{\"event\":\"flow_complete\",\"epoch\":5,\"t_ns\":25000,\"flow\":0,\"fct_ns\":25000,\"src\":1,\"dst\":2}\n",
        "{\"event\":\"flow_first_tx\",\"epoch\":6,\"t_ns\":30000,\"flow\":1,\"sent_bytes\":800}\n",
        "{\"event\":\"flow_complete\",\"epoch\":6,\"t_ns\":30000,\"flow\":1,\"fct_ns\":30000,\"src\":2,\"dst\":3}\n",
        "{\"event\":\"trace_end\",\"system\":\"nego/parallel\",\"events\":10,\"dropped\":0}\n",
    );

    #[test]
    fn parses_sections_and_sums_drops() {
        let t = parse(SAMPLE).unwrap();
        assert_eq!(t.sections.len(), 1);
        assert_eq!(t.sections[0].events.len(), 10);
        assert_eq!(dropped_total(SAMPLE), 0);
        let overflowed = SAMPLE.replace("\"dropped\":0", "\"dropped\":7");
        assert_eq!(dropped_total(&overflowed), 7);
        assert_eq!(dropped_total("not even json\n"), 0);
    }

    #[test]
    fn flow_rows_reconstruct_timelines_in_id_order() {
        let t = parse(SAMPLE).unwrap();
        let rows = flow_rows(&t.sections[0]);
        assert_eq!(rows.len(), 2);
        let r0 = &rows[0];
        assert_eq!((r0.flow, r0.src, r0.dst, r0.bytes), (0, 1, 2, 5000));
        assert_eq!(r0.born, Some(0));
        assert_eq!(r0.request, Some(1));
        assert_eq!(r0.grant, Some(2));
        assert_eq!(r0.accept, Some(3));
        assert_eq!(r0.first_tx, Some(3));
        assert_eq!(r0.complete, Some(5));
        assert_eq!(r0.fct_ns, Some(25000));
        let r1 = &rows[1];
        assert_eq!(r1.flow, 1);
        assert_eq!(r1.request, None, "flow 1 never saw a covering REQUEST");
    }

    #[test]
    fn slowest_orders_by_fct_then_id() {
        let t = parse(SAMPLE).unwrap();
        let rows = flow_rows(&t.sections[0]);
        let slow = slowest(&rows, 5);
        assert_eq!(slow.len(), 2);
        assert_eq!(slow[0].flow, 1, "30 µs beats 25 µs");
        assert_eq!(slow[1].flow, 0);
        assert_eq!(slowest(&rows, 1).len(), 1);
    }

    #[test]
    fn flows_json_is_the_shared_endpoint_document() {
        let doc = flows_json(SAMPLE, 1).unwrap();
        assert_eq!(doc.get("top").and_then(Json::as_u64), Some(1));
        let sections = doc.get("sections").unwrap().as_array().unwrap();
        assert_eq!(sections.len(), 1);
        let s = &sections[0];
        assert_eq!(s.get("flows_seen").and_then(Json::as_u64), Some(2));
        assert_eq!(s.get("flows_completed").and_then(Json::as_u64), Some(2));
        let slow = s.get("slowest").unwrap().as_array().unwrap();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].get("flow").and_then(Json::as_u64), Some(1));
        assert_eq!(slow[0].get("fct_ns").and_then(Json::as_u64), Some(30000));
        // Round-trips through the parser.
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
    }

    #[test]
    fn query_filters_compose() {
        let q = |opts: QueryOpts| query(SAMPLE, &opts).unwrap();
        let out = q(QueryOpts {
            kind: Some("flow_born".to_string()),
            ..QueryOpts::default()
        });
        assert!(out.contains("2 of 10 events match"), "{out}");
        let out = q(QueryOpts {
            flow: Some(0),
            ..QueryOpts::default()
        });
        assert!(out.contains("6 of 10 events match"), "{out}");
        assert!(out.contains("timeline:"), "{out}");
        assert!(out.contains("flow_grant"), "{out}");
        let out = q(QueryOpts {
            tor: Some(3),
            ..QueryOpts::default()
        });
        assert!(out.contains("2 of 10 events match"), "{out}");
        let out = q(QueryOpts {
            epochs: Some((1, 2)),
            ..QueryOpts::default()
        });
        assert!(out.contains("3 of 10 events match"), "{out}");
        let out = q(QueryOpts {
            top_fct: Some(2),
            ..QueryOpts::default()
        });
        assert!(out.contains("slowest 2 flows"), "{out}");
    }

    #[test]
    fn query_json_round_trips() {
        let out = query(
            SAMPLE,
            &QueryOpts {
                top_fct: Some(1),
                json: true,
                ..QueryOpts::default()
            },
        )
        .unwrap();
        let doc = Json::parse(&out).unwrap();
        let sections = doc.get("sections").unwrap().as_array().unwrap();
        let slow = sections[0].get("slowest").unwrap().as_array().unwrap();
        assert_eq!(slow[0].get("flow").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn query_is_deterministic() {
        let opts = QueryOpts {
            top_fct: Some(3),
            ..QueryOpts::default()
        };
        assert_eq!(query(SAMPLE, &opts).unwrap(), query(SAMPLE, &opts).unwrap());
    }

    #[test]
    fn diff_identical_is_clean() {
        let d = diff("a", SAMPLE, "b", SAMPLE, 3);
        assert!(!d.divergent);
        assert!(d.report.contains("identical"), "{}", d.report);
    }

    #[test]
    fn diff_names_the_first_divergent_event() {
        let b = SAMPLE.replace(
            "{\"event\":\"flow_grant\",\"epoch\":2,\"t_ns\":10000,\"flow\":0,\"src\":1,\"dst\":2}",
            "{\"event\":\"flow_grant\",\"epoch\":3,\"t_ns\":15000,\"flow\":0,\"src\":1,\"dst\":2}",
        );
        let d = diff("a.ndjson", SAMPLE, "b.ndjson", &b, 2);
        assert!(d.divergent);
        assert!(d.report.contains("diverge at line 6"), "{}", d.report);
        assert!(
            d.report
                .contains("a = epoch 2 flow_grant flow=0 src=1 dst=2"),
            "{}",
            d.report
        );
        assert!(
            d.report
                .contains("b = epoch 3 flow_grant flow=0 src=1 dst=2"),
            "{}",
            d.report
        );
        assert!(d.report.contains("aligned context"), "{}", d.report);
        assert!(d.report.contains("flow_request"), "{}", d.report);
    }

    #[test]
    fn diff_handles_prefix_truncation() {
        let truncated: String = SAMPLE.lines().take(4).map(|l| format!("{l}\n")).collect();
        let d = diff("full", SAMPLE, "short", &truncated, 1);
        assert!(d.divergent);
        assert!(d.report.contains("(end of trace)"), "{}", d.report);
        assert!(d.report.contains("(ends here)"), "{}", d.report);
    }
}
