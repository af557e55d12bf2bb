//! The in-memory trace recorder behind `dse --trace`.
//!
//! Recording is process-global and off by default. [`start`] turns it
//! on; from then on every span open/close ([`crate::span`]) and every
//! [`emit_meta`] call appends one event to a process-local buffer.
//! When off, each would-be event costs one relaxed atomic load.
//!
//! At the end of a run [`write_chrome_trace`] renders the buffer, plus
//! the final value of every registered counter, as one Chrome
//! `trace.json` array (chrome://tracing, ui.perfetto.dev), and
//! [`unbalanced`] reports spans that did not close in order. Nothing
//! is written while the run is in flight, so a process that dies
//! before the write (a panic, a hard exit) leaves no trace file.
//!
//! Timestamps are microseconds since [`start`], from one monotonic
//! `Instant` anchor.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

use crate::{json_escape, trace_tid};

static RECORDING: AtomicBool = AtomicBool::new(false);
static ANCHOR: OnceLock<Instant> = OnceLock::new();
static EVENTS: Mutex<Vec<Event>> = Mutex::new(Vec::new());

enum Kind {
    /// Span open; `name` is the full `/`-joined path.
    Begin,
    /// Span close; `name` is the full `/`-joined path.
    End,
    /// A key/value note; `name` is the key.
    Meta(String),
}

struct Event {
    kind: Kind,
    ts_us: u64,
    tid: u64,
    name: String,
}

/// Whether events are being recorded. One relaxed load — the guard
/// every record helper takes first.
#[inline]
fn is_recording() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// Start recording. Timestamps count from the first call.
pub fn start() {
    ANCHOR.get_or_init(Instant::now);
    RECORDING.store(true, Ordering::Relaxed);
}

/// Microseconds since [`start`].
fn now_us() -> u64 {
    ANCHOR.get().map_or(0, |a| a.elapsed().as_micros() as u64)
}

fn record(kind: Kind, name: &str) {
    let event = Event { kind, ts_us: now_us(), tid: trace_tid(), name: name.to_string() };
    // Span guards record from `Drop`, which must not panic; a push
    // leaves the buffer valid, so a poisoned lock is safe to reuse.
    EVENTS.lock().unwrap_or_else(PoisonError::into_inner).push(event);
}

/// Record a span open (called by [`crate::span`]).
pub(crate) fn record_begin(path: &str) {
    if is_recording() {
        record(Kind::Begin, path);
    }
}

/// Record a span close (called by [`crate::span`]).
pub(crate) fn record_end(path: &str) {
    if is_recording() {
        record(Kind::End, path);
    }
}

/// Record a key/value note; it becomes a Chrome instant event named
/// `key` with `args.v = value`.
pub fn emit_meta(key: &str, value: &str) {
    if is_recording() {
        record(Kind::Meta(value.to_string()), key);
    }
}

/// Spans that did not close in order, as `(tid, description)`: a close
/// that is not the innermost open span on its thread, or a span still
/// open. Empty means every recorded span balanced.
pub fn unbalanced() -> Vec<(u64, String)> {
    let events = EVENTS.lock().expect("trace buffer never poisoned");
    let mut stacks: BTreeMap<u64, Vec<&str>> = BTreeMap::new();
    let mut out = Vec::new();
    for e in events.iter() {
        let stack = stacks.entry(e.tid).or_default();
        match e.kind {
            Kind::Begin => stack.push(&e.name),
            Kind::End if stack.last() == Some(&e.name.as_str()) => {
                stack.pop();
            }
            Kind::End => out.push((e.tid, format!("close out of order: {}", e.name))),
            Kind::Meta(_) => {}
        }
    }
    for (tid, stack) in stacks {
        out.extend(stack.into_iter().map(|path| (tid, format!("open without close: {path}"))));
    }
    out
}

/// Render the recorded events as a Chrome trace array, one event per
/// line: span opens and closes as `B`/`E` (named by their leaf stage,
/// `args.path` the full path), meta notes as `i` instants (`args.v`),
/// then one `C` event per registered counter with its current value.
pub fn write_chrome_trace(w: &mut impl Write) -> io::Result<()> {
    let pid = std::process::id();
    let events = EVENTS.lock().expect("trace buffer never poisoned");
    w.write_all(b"[")?;
    let mut sep = "\n";
    let mut event = |name: &str, ph: &str, ts_us: u64, tid: u64, args: String| {
        let name = json_escape(name);
        let line = format!(
            "{sep}{{\"name\":\"{name}\",\"cat\":\"dse\",\"ph\":\"{ph}\",\"ts\":{ts_us},\
             \"pid\":{pid},\"tid\":{tid},{args}}}"
        );
        sep = ",\n";
        w.write_all(line.as_bytes())
    };
    for e in events.iter() {
        match &e.kind {
            Kind::Begin | Kind::End => {
                let ph = if matches!(e.kind, Kind::Begin) { "B" } else { "E" };
                let leaf = e.name.rsplit('/').next().unwrap_or(&e.name);
                let args = format!("\"args\":{{\"path\":\"{}\"}}", json_escape(&e.name));
                event(leaf, ph, e.ts_us, e.tid, args)?;
            }
            Kind::Meta(value) => {
                let args = format!("\"s\":\"t\",\"args\":{{\"v\":\"{}\"}}", json_escape(value));
                event(&e.name, "i", e.ts_us, e.tid, args)?;
            }
        }
    }
    let ts_us = now_us();
    for (name, value) in crate::counter::snapshot().iter() {
        event(name, "C", ts_us, 0, format!("\"args\":{{\"value\":{value}}}"))?;
    }
    w.write_all(b"\n]\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Decode one JSON string body (the text between its quotes).
    fn unescape(s: &str) -> String {
        let mut out = String::new();
        let mut chars = s.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            match chars.next().unwrap() {
                'n' => out.push('\n'),
                't' => out.push('\t'),
                'r' => out.push('\r'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    out.push(char::from_u32(u32::from_str_radix(&hex, 16).unwrap()).unwrap());
                }
                c => out.push(c),
            }
        }
        out
    }

    fn chrome_trace() -> String {
        let mut buf = Vec::new();
        write_chrome_trace(&mut buf).unwrap();
        String::from_utf8(buf).unwrap()
    }

    #[test]
    fn out_of_order_guard_drops_are_flagged() {
        start();
        let outer = crate::span("test-order");
        let inner = crate::span("inner");
        drop(outer);
        drop(inner);
        let tid = trace_tid();
        let mine: Vec<String> =
            unbalanced().into_iter().filter(|(t, _)| *t == tid).map(|(_, m)| m).collect();
        assert!(
            mine.iter().any(|m| m == "close out of order: test-order"),
            "out-of-order drop not flagged: {mine:?}"
        );
        // Both spans still folded into the profile under their own paths.
        let profile = crate::profile_snapshot();
        assert!(profile.iter().any(|(p, _)| p == "test-order"));
        assert!(profile.iter().any(|(p, _)| p == "test-order/inner"));
    }

    #[test]
    fn meta_values_round_trip_through_the_chrome_writer() {
        start();
        let value = "quote \" backslash \\ bell \u{7} newline \n end";
        emit_meta("test.meta.escape", value);
        let trace = chrome_trace();
        assert!(trace.starts_with("[\n") && trace.ends_with("\n]\n"));
        let line = trace
            .lines()
            .find(|l| l.contains("\"name\":\"test.meta.escape\""))
            .expect("meta event rendered");
        assert!(line.contains("\"ph\":\"i\""), "meta is an instant: {line}");
        let body = &line[line.find("\"v\":\"").unwrap() + 5..line.rfind("\"}}").unwrap()];
        assert!(!body.contains('\u{7}') && !body.contains('\n'), "unescaped control: {body}");
        assert_eq!(unescape(body), value);
    }
}
