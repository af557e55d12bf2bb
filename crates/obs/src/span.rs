//! Hierarchical wall-clock spans.
//!
//! [`span`] opens a named span on the current thread and returns a
//! [`SpanGuard`]; dropping the guard closes it. A thread-local stack
//! tracks nesting, so a span opened while another is live becomes its
//! child and its duration is charged to the parent's *child time*. At
//! close, the span folds into a process-global profile keyed by its
//! `/`-joined path (`dse/sweep/evaluate`): call count, total time, and
//! *self* time (total minus time spent in children) — the number that
//! makes a profile sum to ~100% instead of double-counting nesting.
//!
//! When [`crate::trace`] is recording, each span also records a begin
//! event at open and an end event at close, which the Chrome trace
//! renders as a `B`/`E` pair.
//!
//! Spans are for *stages* — a sweep's lookup/evaluate/append phases,
//! its cross-app fold and frontier — never per-point work; the
//! per-call cost (two `Instant::now`s and a short mutex section at
//! close, plus two buffered events when recording) is trivial at
//! stage granularity and ruinous at point granularity. Per-point
//! visibility is what [`crate::counter`] is for.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::trace;

struct Frame {
    /// `/`-joined path down to and including this span.
    path: String,
    start: Instant,
    /// Accumulated durations of direct children, in microseconds.
    child_us: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// Open span `name` on this thread, nested under the innermost live
/// span. Hold the returned guard for the span's extent:
///
/// ```
/// {
///     let _s = ng_obs::span("sweep");
///     let _inner = ng_obs::span("evaluate");
///     // ... work ...
/// } // both close here, innermost first
/// ```
pub fn span(name: &'static str) -> SpanGuard {
    let path = STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let path = match stack.last() {
            Some(parent) => format!("{}/{name}", parent.path),
            None => name.to_string(),
        };
        stack.push(Frame { path: path.clone(), start: Instant::now(), child_us: 0 });
        path
    });
    trace::record_begin(&path);
    SpanGuard { path }
}

/// Closes its span when dropped. Guards should drop in reverse open
/// order (the natural result of lexical scoping). A guard dropped
/// while a later-opened span is still live closes its own frame, not
/// the innermost one, and the trace's balance check
/// ([`crate::trace::unbalanced`]) flags the out-of-order close.
#[must_use = "a span measures the extent of its guard — bind it with `let _s = span(..)`"]
pub struct SpanGuard {
    path: String,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let closed = STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let at = stack.iter().rposition(|f| f.path == self.path)?;
            let frame = stack.remove(at);
            let total_us = frame.start.elapsed().as_micros() as u64;
            if let Some(parent) = at.checked_sub(1).map(|i| &mut stack[i]) {
                parent.child_us += total_us;
            }
            Some((frame.child_us, total_us))
        });
        let Some((child_us, total_us)) = closed else {
            return;
        };
        {
            let mut profile = profile().lock().expect("span profile never poisoned");
            let stat = profile.entry(self.path.clone()).or_default();
            stat.calls += 1;
            stat.total_us += total_us;
            stat.self_us += total_us.saturating_sub(child_us);
        }
        trace::record_end(&self.path);
    }
}

/// Per-path aggregate across every closed span with that path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Number of spans closed at this path.
    pub calls: u64,
    /// Sum of span durations, microseconds.
    pub total_us: u64,
    /// Sum of durations minus time in child spans, microseconds.
    pub self_us: u64,
}

fn profile() -> &'static Mutex<BTreeMap<String, SpanStat>> {
    static PROFILE: OnceLock<Mutex<BTreeMap<String, SpanStat>>> = OnceLock::new();
    PROFILE.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// The in-process profile: every closed span path with its aggregate
/// stats, in path order. Like counters, cumulative for the process —
/// diff two snapshots for a per-run view.
pub fn profile_snapshot() -> Vec<(String, SpanStat)> {
    let profile = profile().lock().expect("span profile never poisoned");
    profile.iter().map(|(path, stat)| (path.clone(), *stat)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn stat(path: &str) -> SpanStat {
        profile_snapshot().into_iter().find(|(p, _)| p == path).map(|(_, s)| s).unwrap_or_default()
    }

    #[test]
    fn nesting_builds_paths_and_charges_self_time() {
        // Distinct root name: the profile is process-global and shared
        // with every other test in this binary.
        let before_root = stat("test-nest");
        let before_child = stat("test-nest/child");
        {
            let _root = span("test-nest");
            std::thread::sleep(Duration::from_millis(4));
            {
                let _child = span("child");
                std::thread::sleep(Duration::from_millis(4));
            }
        }
        let root = stat("test-nest");
        let child = stat("test-nest/child");
        assert_eq!(root.calls - before_root.calls, 1);
        assert_eq!(child.calls - before_child.calls, 1);
        let root_total = root.total_us - before_root.total_us;
        let root_self = root.self_us - before_root.self_us;
        let child_total = child.total_us - before_child.total_us;
        // Root total covers both sleeps; its self time excludes the child.
        assert!(root_total >= child_total);
        assert_eq!(root_self, root_total - child_total);
        assert!(child_total >= 3_000, "child slept ~4ms, saw {child_total}us");
        assert!(root_self >= 3_000, "root slept ~4ms outside child, saw {root_self}us");
    }

    #[test]
    fn sibling_threads_do_not_nest() {
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    let _s = span("test-thread-root");
                    std::thread::sleep(Duration::from_millis(1));
                });
            }
        });
        // Each thread rooted its own span: no "test-thread-root/test-thread-root".
        assert!(profile_snapshot().iter().all(|(p, _)| p != "test-thread-root/test-thread-root"));
        assert!(stat("test-thread-root").calls >= 2);
    }

    #[test]
    fn repeated_calls_accumulate() {
        let before = stat("test-repeat");
        for _ in 0..5 {
            let _s = span("test-repeat");
        }
        let after = stat("test-repeat");
        assert_eq!(after.calls - before.calls, 5);
    }
}
