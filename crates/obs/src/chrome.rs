//! The Chrome trace-event validator.
//!
//! The span tracer writes Chrome trace JSON through [`crate::json`];
//! [`validate_trace`] reads it back with [`crate::json::parse`] and
//! checks the trace-event contract on top: a root object with a
//! non-empty `traceEvents` array, every event carrying
//! `name`/`ph`/`ts`/`pid`/`tid`, and begin/end (`B`/`E`) pairs balanced
//! per thread with matching names. CI's span smoke step and the
//! tracer's own tests both run emitted profiles through it.

use std::collections::{BTreeMap, BTreeSet};

use crate::json::{parse, Json};

/// What [`validate_trace`] found in a well-formed profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total events in `traceEvents`.
    pub events: usize,
    /// Every distinct span name seen.
    pub names: BTreeSet<String>,
    /// Distinct `(pid, tid)` threads that recorded events.
    pub threads: usize,
}

impl TraceSummary {
    /// `true` when some span name starts with `prefix` — how callers
    /// check taxonomy coverage (`store.io.open` and `store.io.write`
    /// both satisfy `store.io`).
    #[must_use]
    pub fn has_span_prefix(&self, prefix: &str) -> bool {
        self.names.iter().any(|n| n.starts_with(prefix))
    }
}

/// Validates `text` as a Chrome trace-event profile: well-formed JSON,
/// a root object with a non-empty `traceEvents` array, every event an
/// object carrying string `name`/`ph` and numeric `ts`/`pid`/`tid`, and
/// `B`/`E` events balanced per `(pid, tid)` in order with matching
/// names.
///
/// # Errors
///
/// A human-readable description of the first violation.
pub fn validate_trace(text: &str) -> Result<TraceSummary, String> {
    let root = parse(text).map_err(|e| e.to_string())?;
    let events = root
        .get("traceEvents")
        .ok_or("root object has no traceEvents")?
        .as_arr()
        .ok_or("traceEvents is not an array")?;
    if events.is_empty() {
        return Err("traceEvents is empty".into());
    }
    let mut names = BTreeSet::new();
    let mut stacks: BTreeMap<(u64, u64), Vec<String>> = BTreeMap::new();
    for (i, event) in events.iter().enumerate() {
        let field = |key: &str| {
            event.get(key).ok_or_else(|| format!("event {i} has no {key}"))
        };
        let name =
            field("name")?.as_str().ok_or_else(|| format!("event {i} name not a string"))?;
        let ph = field("ph")?.as_str().ok_or_else(|| format!("event {i} ph not a string"))?;
        field("ts")?.as_num().ok_or_else(|| format!("event {i} ts not a number"))?;
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let pid_tid = |v: &Json| v.as_num().map(|n| n as u64);
        let pid = pid_tid(field("pid")?).ok_or_else(|| format!("event {i} pid not a number"))?;
        let tid = pid_tid(field("tid")?).ok_or_else(|| format!("event {i} tid not a number"))?;
        names.insert(name.to_owned());
        let stack = stacks.entry((pid, tid)).or_default();
        match ph {
            "B" => stack.push(name.to_owned()),
            "E" => {
                let open = stack
                    .pop()
                    .ok_or_else(|| format!("event {i}: E '{name}' with no open span"))?;
                if open != name {
                    return Err(format!(
                        "event {i}: E '{name}' closes open span '{open}'"
                    ));
                }
            }
            // Complete/instant/metadata events need no balancing.
            _ => {}
        }
    }
    let threads = stacks.len();
    for ((pid, tid), stack) in stacks {
        if let Some(open) = stack.last() {
            return Err(format!("thread {pid}/{tid}: span '{open}' never ends"));
        }
    }
    Ok(TraceSummary { events: events.len(), names, threads })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(name: &str, ph: &str, ts: u64, tid: u64) -> String {
        format!(r#"{{"name":"{name}","ph":"{ph}","ts":{ts},"pid":1,"tid":{tid}}}"#)
    }

    #[test]
    fn balanced_trace_validates() {
        let text = format!(
            r#"{{"traceEvents":[{},{},{},{},{},{}]}}"#,
            event("a", "B", 0, 1),
            event("b", "B", 1, 1),
            event("b", "E", 2, 1),
            event("a", "E", 3, 1),
            event("c", "B", 0, 2),
            event("c", "E", 9, 2),
        );
        let summary = validate_trace(&text).unwrap();
        assert_eq!(summary.events, 6);
        assert_eq!(summary.threads, 2);
        assert!(summary.has_span_prefix("a"));
        assert!(!summary.has_span_prefix("store.io"));
    }

    #[test]
    fn unbalanced_traces_are_rejected() {
        let dangling = format!(r#"{{"traceEvents":[{}]}}"#, event("a", "B", 0, 1));
        assert!(validate_trace(&dangling).unwrap_err().contains("never ends"));
        let orphan = format!(r#"{{"traceEvents":[{}]}}"#, event("a", "E", 0, 1));
        assert!(validate_trace(&orphan).unwrap_err().contains("no open span"));
        let crossed = format!(
            r#"{{"traceEvents":[{},{},{},{}]}}"#,
            event("a", "B", 0, 1),
            event("b", "B", 1, 1),
            event("a", "E", 2, 1),
            event("b", "E", 3, 1),
        );
        assert!(validate_trace(&crossed).unwrap_err().contains("closes open span"));
        assert!(validate_trace(r#"{"traceEvents":[]}"#).unwrap_err().contains("empty"));
        assert!(validate_trace(r#"{"other":1}"#).unwrap_err().contains("traceEvents"));
    }
}
