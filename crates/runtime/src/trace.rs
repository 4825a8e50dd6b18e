//! Event tracing and Chrome-trace export.
//!
//! Applications mark interesting instants (`dataset done`, `hour output`,
//! …) on their processor's virtual clock; the run report aggregates them so
//! harnesses can compute throughput (events per second) and latency
//! (spacing between paired events) exactly the way the paper measures its
//! stream-processing programs. The exporters below render those marks,
//! and the duration spans of a profiled run, as Chrome-trace JSON.
//! Runtime counters live in the `counters` module, not here.

use crate::critical::match_recvs_to_sends;
use crate::span::{SpanKind, SpanLog};

/// One timestamped mark on a processor's clock.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Virtual (or wall-clock) time in seconds.
    pub time: f64,
    /// Free-form label; harnesses match on it.
    pub label: String,
}

/// Per-processor event log.
#[derive(Debug, Default, Clone)]
pub struct EventLog {
    events: Vec<Event>,
}

impl EventLog {
    /// Append an event.
    pub fn record(&mut self, time: f64, label: impl Into<String>) {
        self.events.push(Event { time, label: label.into() });
    }

    /// All events in program order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Times of events whose label equals `label`.
    pub fn times_of(&self, label: &str) -> Vec<f64> {
        self.events.iter().filter(|e| e.label == label).map(|e| e.time).collect()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Seconds → microseconds for a Chrome-trace `ts`/`dur` field. A
/// non-finite time would serialize as `NaN`/`inf` — invalid JSON that
/// Perfetto rejects — so it is clamped to 0.
fn trace_us(t: f64) -> String {
    let t = if t.is_finite() { t } else { 0.0 };
    format!("{:.3}", t * 1e6)
}

fn push_record(out: &mut String, first: &mut bool, body: &str) {
    if !*first {
        out.push(',');
    }
    *first = false;
    out.push_str(body);
}

/// `"M"` metadata records naming the process and one thread lane per
/// processor, so Perfetto shows `proc 0`, `proc 1`, … instead of bare
/// thread ids.
fn push_lane_metadata(out: &mut String, first: &mut bool, nprocs: usize) {
    if nprocs == 0 {
        return;
    }
    push_record(
        out,
        first,
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{\"name\":\"fx simulated multicomputer\"}}",
    );
    for p in 0..nprocs {
        push_record(
            out,
            first,
            &format!("{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{p},\"args\":{{\"name\":\"proc {p}\"}}}}"),
        );
    }
}

fn push_instant_events(out: &mut String, first: &mut bool, logs: &[EventLog]) {
    for (proc_id, log) in logs.iter().enumerate() {
        for ev in log.events() {
            push_record(
                out,
                first,
                &format!(
                    "{{\"name\":\"{}\",\"ph\":\"i\",\"ts\":{},\"pid\":0,\"tid\":{},\"s\":\"t\"}}",
                    escape(&ev.label),
                    trace_us(ev.time),
                    proc_id
                ),
            );
        }
    }
}

/// Flow (`"s"`/`"f"`) event pairs for every matched send/recv span pair,
/// so Perfetto draws an arrow from each send slice to the receive it
/// unblocked. The start binds at the send's end, the finish binds to the
/// *enclosing* receive slice (`"bp":"e"`) at the receive's end. When
/// `only_trace` is set, only pairs whose spans both carry that trace id
/// are emitted (per-request exports). Pairs are sorted by receiver so
/// flow ids are deterministic.
fn push_flow_events(out: &mut String, first: &mut bool, spans: &[SpanLog], only_trace: Option<u64>) {
    let mut pairs: Vec<((usize, usize), (usize, usize))> =
        match_recvs_to_sends(spans).into_iter().collect();
    pairs.sort_unstable();
    for (flow_id, ((rp, ri), (sp, si))) in pairs.iter().enumerate() {
        let recv = &spans[*rp].spans()[*ri];
        let send = &spans[*sp].spans()[*si];
        if let Some(t) = only_trace {
            if send.trace != t || recv.trace != t {
                continue;
            }
        }
        push_record(
            out,
            first,
            &format!(
                "{{\"name\":\"msg\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":{},\"ts\":{},\"pid\":0,\"tid\":{}}}",
                flow_id,
                trace_us(send.end),
                sp
            ),
        );
        push_record(
            out,
            first,
            &format!(
                "{{\"name\":\"msg\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\"id\":{},\"ts\":{},\"pid\":0,\"tid\":{}}}",
                flow_id,
                trace_us(recv.end),
                rp
            ),
        );
    }
}

fn push_span_events(out: &mut String, first: &mut bool, spans: &[SpanLog], only_trace: Option<u64>) {
    for (proc_id, log) in spans.iter().enumerate() {
        for s in log.spans() {
            if let Some(t) = only_trace {
                if s.trace != t {
                    continue;
                }
            }
            let (cat, fallback) = match s.kind {
                SpanKind::Compute => ("compute", "compute"),
                SpanKind::Send => ("comm", "send"),
                SpanKind::Recv => ("comm", "recv"),
            };
            let name = match &s.path {
                Some(p) => escape(p),
                None => fallback.to_string(),
            };
            let mut args = String::new();
            if s.kind != SpanKind::Compute {
                args = format!(",\"args\":{{\"peer\":{},\"tag\":{}}}", s.peer, s.tag);
            }
            push_record(
                out,
                first,
                &format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{}{}}}",
                    name,
                    cat,
                    trace_us(s.start),
                    trace_us(s.dur()),
                    proc_id,
                    args
                ),
            );
        }
    }
}

/// Serialize per-processor event logs as a Chrome-trace ("about:tracing"
/// / Perfetto) JSON document: `"M"` metadata records naming the processor
/// lanes, then one instant event per recorded mark, one row per
/// processor. Times are virtual microseconds; non-finite times are
/// clamped to 0 so the output is always valid JSON.
///
/// Written by hand rather than with serde so labels are escaped without
/// pulling a JSON dependency into the runtime.
pub fn chrome_trace_json(logs: &[EventLog]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    push_lane_metadata(&mut out, &mut first, logs.len());
    push_instant_events(&mut out, &mut first, logs);
    out.push_str("]}");
    out
}

/// Serialize a profiled run as Chrome-trace JSON: lane metadata, complete
/// duration (`"X"`) events for every [`SpanLog`] span — named by their
/// task-region scope path, categorized compute/send/recv — plus flow
/// (`"s"`/`"f"`) arrows from every matched send to the receive it
/// unblocked, plus the instant marks from the event logs. Open in
/// Perfetto to see named processor lanes with nested region scopes, the
/// pipeline overlap, and message causality.
pub fn chrome_trace_full_json(logs: &[EventLog], spans: &[SpanLog]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    push_lane_metadata(&mut out, &mut first, logs.len().max(spans.len()));
    push_span_events(&mut out, &mut first, spans, None);
    push_flow_events(&mut out, &mut first, spans, None);
    push_instant_events(&mut out, &mut first, logs);
    out.push_str("]}");
    out
}

/// Serialize the spans of *one* causal trace as Chrome-trace JSON: lane
/// metadata, duration events for every span stamped with `trace_id`
/// (across all processor lanes), and flow arrows for the matched
/// send/recv pairs inside the trace. This is the per-request view: feed
/// it the spans of a traced serve run and a request's trace id and it
/// shows exactly where that request's latency went, hop by hop.
pub fn chrome_trace_request_json(spans: &[SpanLog], trace_id: u64) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    push_lane_metadata(&mut out, &mut first, spans.len());
    push_span_events(&mut out, &mut first, spans, Some(trace_id));
    push_flow_events(&mut out, &mut first, spans, Some(trace_id));
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_trace_is_valid_shape() {
        let mut a = EventLog::default();
        a.record(0.001, "set \"start\"");
        a.record(0.002, "set done");
        let mut b = EventLog::default();
        b.record(0.0015, "other\n");
        let json = chrome_trace_json(&[a, b]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\\\"start\\\""), "quotes escaped: {json}");
        assert!(json.contains("\\n"), "newlines escaped");
        assert!(json.contains("\"tid\":1"));
        assert!(json.contains("\"ts\":1000.000"));
        // Exactly three events.
        assert_eq!(json.matches("\"ph\":\"i\"").count(), 3);
    }

    #[test]
    fn chrome_trace_empty_is_valid() {
        assert_eq!(chrome_trace_json(&[]), "{\"traceEvents\":[]}");
    }

    #[test]
    fn chrome_trace_names_processor_lanes() {
        let mut a = EventLog::default();
        a.record(0.001, "x");
        let json = chrome_trace_json(&[a, EventLog::default()]);
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"name\":\"process_name\""));
        assert!(json.contains("\"name\":\"proc 0\""));
        assert!(json.contains("\"name\":\"proc 1\""));
    }

    #[test]
    fn chrome_trace_clamps_non_finite_times() {
        // Regression: a NaN event time used to serialize as `"ts":NaN`,
        // which is not JSON and makes Perfetto reject the whole trace.
        let mut log = EventLog::default();
        log.record(f64::NAN, "bad");
        log.record(f64::INFINITY, "worse");
        log.record(0.002, "good");
        let json = chrome_trace_json(&[log]);
        assert!(!json.contains("NaN"), "NaN leaked into JSON: {json}");
        assert!(!json.contains("inf"), "inf leaked into JSON: {json}");
        assert!(json.contains("\"ts\":0.000"));
        assert!(json.contains("\"ts\":2000.000"));
    }

    #[test]
    fn chrome_trace_full_emits_duration_events() {
        use std::sync::Arc;
        let mut log = EventLog::default();
        log.record(0.001, "mark");
        let mut sl = SpanLog::default();
        sl.push_compute(0.0, 0.001, Some(Arc::from("G1/assign2")), 0);
        sl.push_msg(crate::span::Span {
            start: 0.001,
            end: 0.0015,
            kind: SpanKind::Send,
            path: None,
            peer: 1,
            tag: 7,
            arrival: 0.002,
            trace: 0,
        });
        let json = chrome_trace_full_json(&[log], &[sl]);
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"G1/assign2\""));
        assert!(json.contains("\"cat\":\"compute\""));
        assert!(json.contains("\"cat\":\"comm\""));
        assert!(json.contains("\"args\":{\"peer\":1,\"tag\":7}"));
        assert!(json.contains("\"ph\":\"i\""), "instant marks kept alongside spans");
        assert!(json.contains("\"name\":\"proc 0\""));
    }

    fn send_recv_pair(trace: u64) -> Vec<SpanLog> {
        use crate::span::Span;
        let mut sender = SpanLog::default();
        sender.push_msg(Span {
            start: 0.001,
            end: 0.0015,
            kind: SpanKind::Send,
            path: None,
            peer: 1,
            tag: 7,
            arrival: 0.002,
            trace,
        });
        let mut receiver = SpanLog::default();
        receiver.push_msg(Span {
            start: 0.002,
            end: 0.0025,
            kind: SpanKind::Recv,
            path: None,
            peer: 0,
            tag: 7,
            arrival: 0.002,
            trace,
        });
        vec![sender, receiver]
    }

    #[test]
    fn chrome_trace_full_emits_flow_events_for_matched_pairs() {
        let spans = send_recv_pair(0);
        let json = chrome_trace_full_json(&[], &spans);
        assert!(json.contains("\"ph\":\"s\""), "flow start missing: {json}");
        assert!(json.contains("\"ph\":\"f\""), "flow finish missing: {json}");
        assert!(json.contains("\"bp\":\"e\""), "finish must bind to enclosing slice");
        // Start binds at the send's end on the sender lane; finish at the
        // receive's end on the receiver lane.
        assert!(json.contains("\"ph\":\"s\",\"id\":0,\"ts\":1500.000,\"pid\":0,\"tid\":0"));
        assert!(json.contains("\"ph\":\"f\",\"bp\":\"e\",\"id\":0,\"ts\":2500.000,\"pid\":0,\"tid\":1"));
    }

    #[test]
    fn chrome_trace_request_filters_by_trace_id() {
        use std::sync::Arc;
        let mut spans = send_recv_pair(42);
        // An unrelated compute span on the sender from a different trace.
        spans[0].push_compute(0.003, 0.004, Some(Arc::from("other")), 7);
        let json = chrome_trace_request_json(&spans, 42);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2, "only trace-42 spans: {json}");
        assert!(!json.contains("\"name\":\"other\""));
        assert!(json.contains("\"ph\":\"s\"") && json.contains("\"ph\":\"f\""));
        // Filtering for an absent trace yields lanes but no events.
        let empty = chrome_trace_request_json(&spans, 999);
        assert!(!empty.contains("\"ph\":\"X\""));
        assert!(!empty.contains("\"ph\":\"s\""));
    }

    #[test]
    fn record_and_filter() {
        let mut log = EventLog::default();
        log.record(1.0, "a");
        log.record(2.0, "b");
        log.record(3.0, "a");
        assert_eq!(log.len(), 3);
        assert!(!log.is_empty());
        assert_eq!(log.times_of("a"), vec![1.0, 3.0]);
        assert_eq!(log.times_of("b"), vec![2.0]);
        assert!(log.times_of("c").is_empty());
        assert_eq!(log.events()[1].label, "b");
    }
}
