//! Graceful shutdown: a signal watcher and a global cancellation token.
//!
//! The first `SIGINT`/`SIGTERM` sets the process-wide cancellation
//! token — the evaluation pool stops dispatching new points — and the
//! sweep flushes what it already computed to the point store before
//! exiting with [`EXIT_INTERRUPTED`]. A second signal skips the drain
//! and hard-exits immediately with [`EXIT_KILLED`]: the store's appends
//! are crash-safe (locked, tail-healed), so even the hard exit loses at
//! most the rows not yet appended.
//!
//! Dependency-free: the handler is installed through the C runtime's
//! `signal()` entry point, which std already links on every unix — no
//! `libc` crate, no `struct sigaction` layout to get wrong per-arch.
//! The handler body is async-signal-safe (one atomic increment, one
//! `write(2)`, and on the second signal `_exit`).

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Once;

/// Exit code for usage/spec mistakes — retrying the same invocation
/// cannot help.
pub const EXIT_USAGE: i32 = 2;

/// Exit code when a run's self-check found defects (`--trace`:
/// unbalanced spans or a broken counter invariant): the run itself
/// ran fine, its own record failed the check. Distinct from
/// [`EXIT_USAGE`] so CI can tell "bad invocation" from "bad result".
pub const EXIT_CHECK_FAILED: i32 = 4;

/// Exit code after a graceful drain: SIGINT/SIGTERM was caught, every
/// in-flight point finished and flushed, and `dse resume` can finish
/// the job. 128 + SIGINT's signal number, the shell convention.
pub const EXIT_INTERRUPTED: i32 = 130;

/// Exit code when a *second* signal arrived before the drain finished
/// and the process hard-exited from the handler. The store stays
/// consistent (appends are atomic per row under the shard lock; a torn
/// tail heals on the next append), but un-flushed points are lost.
pub const EXIT_KILLED: i32 = 131;

/// How many SIGINT/SIGTERMs this process has received.
static SIGNALS_SEEN: AtomicU32 = AtomicU32::new(0);

#[cfg(unix)]
mod sys {
    extern "C" {
        pub fn signal(signum: i32, handler: usize) -> usize;
        pub fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        pub fn _exit(code: i32) -> !;
    }
    pub const SIGINT: i32 = 2;
    pub const SIGTERM: i32 = 15;
}

#[cfg(unix)]
extern "C" fn on_signal(_sig: i32) {
    let prior = SIGNALS_SEEN.fetch_add(1, Ordering::SeqCst);
    // Async-signal-safe notices only: raw write(2), no stdio locks.
    unsafe {
        if prior == 0 {
            const MSG: &[u8] = b"dse: draining (signal again to exit immediately)\n";
            sys::write(2, MSG.as_ptr(), MSG.len());
        } else {
            const MSG: &[u8] = b"dse: second signal, exiting now\n";
            sys::write(2, MSG.as_ptr(), MSG.len());
            sys::_exit(EXIT_KILLED);
        }
    }
}

/// Install the SIGINT/SIGTERM watcher (idempotent). Call once near
/// process start, before long-running work.
pub fn install_signal_watcher() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        #[cfg(unix)]
        unsafe {
            sys::signal(sys::SIGINT, on_signal as *const () as usize);
            sys::signal(sys::SIGTERM, on_signal as *const () as usize);
        }
    });
}

/// Whether a signal has requested a drain. Checked between
/// points/rounds on every hot loop; a relaxed load, free when nothing
/// happened.
#[inline]
pub fn cancelled() -> bool {
    SIGNALS_SEEN.load(Ordering::Relaxed) > 0
}
