//! # ng-fault — deterministic fault injection for the DSE pipeline
//!
//! The point store promises that torn shard tails, flaky or full
//! filesystems and an interrupted run never change a sweep's output.
//! This crate makes that promise *testable*: a seeded [`FaultPlan`]
//! (parsed from the [`FAULTS_ENV`] environment variable or
//! `dse --faults`) arms injection sites threaded through the point
//! store and the evaluation loop — and CI asserts
//! that a faulted run's CSV is byte-identical to the fault-free one.
//!
//! ## Plan syntax
//!
//! Faults are separated by `;` (or whitespace):
//!
//! | spec                        | effect |
//! |-----------------------------|--------|
//! | `seed=N`                    | seed for every probabilistic decision (default 0) |
//! | `append:io@p=P[,n=N]`       | point-store shard appends fail with probability `P` (at most `N` injections) |
//! | `shard:torn-tail[@n=N]`     | the first `N` (default 1) store appends write a torn final row and report success |
//! | `append:enospc[@n=N]`       | point-store shard appends fail with a storage-exhaustion error (ENOSPC-shaped, never retried; at most `N` injections, default unlimited) |
//! | `signal:term@point=N`       | the process raises SIGTERM against itself at its `N`-th evaluation tick — the drain path a real Ctrl-C / `kill` exercises |
//!
//! ## Determinism
//!
//! Every probabilistic decision hashes `(seed, site, per-site
//! invocation count)` through SplitMix64 — no wall clock, no OS
//! randomness — so a plan replays identically given the same execution
//! order. Backoff jitter ([`backoff_delay`]) is derived the same
//! way.
//!
//! The crate is dependency-free and every check is a relaxed atomic
//! load when no plan is installed.

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// The environment variable a fault plan is read from.
pub const FAULTS_ENV: &str = "NG_DSE_FAULTS";

/// One fault in a plan.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// Point-store shard appends fail with probability `p`, at most
    /// `times` injections (`None` = unlimited).
    AppendIo {
        /// Per-append failure probability.
        p: f64,
        /// Injection cap.
        times: Option<u64>,
    },
    /// The first `times` store appends write a torn final row and
    /// report success — the bytes a writer killed mid-`write_all`
    /// leaves behind.
    TornTail {
        /// How many appends to tear.
        times: u64,
    },
    /// Point-store shard appends fail with a storage-exhaustion error
    /// (the ENOSPC / EROFS / quota family — persistent, never retried,
    /// the trigger for the cache's degraded in-memory overlay).
    AppendEnospc {
        /// Injection cap (`None` = every append fails).
        times: Option<u64>,
    },
    /// The process raises SIGTERM against itself at its `point`-th
    /// evaluation tick — the drain path `dse resume` exists for.
    SignalTerm {
        /// 1-based evaluation tick to raise SIGTERM at.
        point: u64,
    },
}

/// A parsed, seeded fault plan.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed for every probabilistic decision.
    pub seed: u64,
    /// The faults to inject.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// Parse a plan string (see the module docs for the syntax).
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for token in text.split([';', ' ', '\t']).map(str::trim).filter(|t| !t.is_empty()) {
            if let Some(seed) = token.strip_prefix("seed=") {
                plan.seed =
                    seed.parse().map_err(|_| format!("faults: seed `{seed}` is not a number"))?;
                continue;
            }
            let (class, spec) = token
                .split_once(':')
                .ok_or_else(|| format!("faults: `{token}` is not CLASS:KIND[@k=v,...]"))?;
            let (kind, params) = match spec.split_once('@') {
                Some((kind, params)) => (kind, parse_params(token, params)?),
                None => (spec, Vec::new()),
            };
            let get = |key: &str| params.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str());
            let num = |key: &str| -> Result<Option<u64>, String> {
                get(key)
                    .map(|v| {
                        v.parse::<u64>()
                            .map_err(|_| format!("faults: `{token}`: {key} `{v}` is not a number"))
                    })
                    .transpose()
            };
            let prob = || -> Result<f64, String> {
                let v = get("p").ok_or_else(|| format!("faults: `{token}` needs p=PROB"))?;
                let p: f64 =
                    v.parse().map_err(|_| format!("faults: `{token}`: p `{v}` is not a number"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("faults: `{token}`: p must be in [0, 1]"));
                }
                Ok(p)
            };
            let fault = match (class, kind) {
                ("append", "io") => Fault::AppendIo { p: prob()?, times: num("n")? },
                ("append", "enospc") => Fault::AppendEnospc { times: num("n")? },
                ("signal", "term") => Fault::SignalTerm {
                    point: num("point")?
                        .ok_or_else(|| format!("faults: `{token}` needs point=N"))?,
                },
                ("shard", "torn-tail") => Fault::TornTail { times: num("n")?.unwrap_or(1) },
                _ => return Err(format!("faults: unknown fault `{token}`")),
            };
            plan.faults.push(fault);
        }
        Ok(plan)
    }
}

fn parse_params(token: &str, params: &str) -> Result<Vec<(String, String)>, String> {
    params
        .split(',')
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .map(|p| {
            p.split_once('=')
                .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
                .ok_or_else(|| format!("faults: `{token}`: `{p}` is not k=v"))
        })
        .collect()
}

/// SplitMix64 — the deterministic hash behind every probabilistic
/// decision and every jitter sample.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a over a string — dependency-free site salting.
pub fn fnv1a64(s: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Whether `(seed, site, n)` decides to fire a probability-`p` fault.
fn decide(p: f64, seed: u64, site: &str, n: u64) -> bool {
    if p <= 0.0 {
        return false;
    }
    if p >= 1.0 {
        return true;
    }
    let h = splitmix64(seed ^ fnv1a64(site) ^ n.wrapping_mul(0x2545_F491_4F6C_DD1D));
    ((h >> 11) as f64 / (1u64 << 53) as f64) < p
}

/// The armed injector: a plan plus per-site invocation counters.
#[derive(Debug)]
struct Injector {
    plan: FaultPlan,
    append_checks: AtomicU64,
    append_injected: AtomicU64,
    torn_injected: AtomicU64,
    enospc_injected: AtomicU64,
    signal_injected: AtomicU64,
    signals_raised: AtomicU64,
    eval_ticks: AtomicU64,
}

impl Injector {
    fn new(plan: FaultPlan) -> Self {
        Injector {
            plan,
            append_checks: AtomicU64::new(0),
            append_injected: AtomicU64::new(0),
            torn_injected: AtomicU64::new(0),
            enospc_injected: AtomicU64::new(0),
            signal_injected: AtomicU64::new(0),
            signals_raised: AtomicU64::new(0),
            eval_ticks: AtomicU64::new(0),
        }
    }
}

static INJECTOR: OnceLock<Injector> = OnceLock::new();
static ARMED: AtomicBool = AtomicBool::new(false);
static PAUSED: AtomicU64 = AtomicU64::new(0);

/// RAII guard from [`pause_injection`]: faults resume when it drops.
#[must_use = "injection resumes when the guard drops"]
pub struct InjectionPause(());

impl Drop for InjectionPause {
    fn drop(&mut self) {
        PAUSED.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Suspend every injection site in this process until the returned
/// guard drops (nests). For internal bookkeeping work that must not
/// consume the plan's budgets or tick numbering: the model-fingerprint
/// probe sweep, for example, runs through the same evaluation pool as
/// user work, and without this a `signal:term@point=N` would spend its
/// signal on a probe point before the actual sweep ever starts.
/// Process-global, so it also covers the pool threads the paused
/// section spawns.
pub fn pause_injection() -> InjectionPause {
    PAUSED.fetch_add(1, Ordering::Relaxed);
    InjectionPause(())
}

/// Install a plan for this process. At most one plan per process — a
/// second install is an error (the first plan's counters are already
/// moving).
pub fn install(plan: FaultPlan) -> Result<(), String> {
    let mut fresh = false;
    INJECTOR.get_or_init(|| {
        fresh = true;
        Injector::new(plan)
    });
    if !fresh {
        return Err("faults: a fault plan is already installed in this process".to_string());
    }
    ARMED.store(true, Ordering::Relaxed);
    Ok(())
}

/// Parse and install a plan string.
pub fn install_str(text: &str) -> Result<(), String> {
    install(FaultPlan::parse(text)?)
}

/// Install a plan from [`FAULTS_ENV`], if set and non-empty. A parse
/// error is returned rather than silently ignored — a typo'd chaos
/// plan that injects nothing would pass every assertion for the wrong
/// reason.
pub fn init_from_env() -> Result<bool, String> {
    let Ok(value) = std::env::var(FAULTS_ENV) else { return Ok(false) };
    let trimmed = value.trim();
    if trimmed.is_empty() || trimmed == "0" || trimmed.eq_ignore_ascii_case("off") {
        return Ok(false);
    }
    install_str(trimmed)?;
    Ok(true)
}

/// Whether a fault plan is armed in this process.
#[inline]
pub fn active() -> bool {
    ARMED.load(Ordering::Relaxed)
}

fn injector() -> Option<&'static Injector> {
    if !active() || PAUSED.load(Ordering::Relaxed) > 0 {
        return None;
    }
    INJECTOR.get()
}

fn injected_io_error(site: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::Interrupted,
        format!("ng-fault: injected transient i/o error ({site})"),
    )
}

/// Whether `e` is one of this crate's injected errors.
pub fn is_injected(e: &io::Error) -> bool {
    e.to_string().starts_with("ng-fault:")
}

fn injected_exhaustion_error(site: &str) -> io::Error {
    io::Error::other(format!("ng-fault: injected storage exhaustion ({site})"))
}

/// Whether `e` is a resource-exhaustion failure — out of space
/// (ENOSPC), over quota (EDQUOT), a read-only filesystem (EROFS), or
/// an unwritable store (EACCES/EPERM). These are persistent: waiting
/// never frees the disk, so [`is_retryable`] refuses them and the
/// point-store degrades to its in-memory overlay instead.
pub fn is_exhaustion(e: &io::Error) -> bool {
    matches!(e.raw_os_error(), Some(28 | 30 | 122)) // ENOSPC, EROFS, EDQUOT
        || e.kind() == io::ErrorKind::PermissionDenied
        || e.to_string().contains("injected storage exhaustion")
}

fn io_site(
    faults: &FaultPlan,
    pick: impl Fn(&Fault) -> Option<(f64, Option<u64>)>,
    checks: &AtomicU64,
    injected: &AtomicU64,
    seed: u64,
    site: &str,
) -> Option<io::Error> {
    let (p, times) = faults.faults.iter().find_map(pick)?;
    let n = checks.fetch_add(1, Ordering::Relaxed);
    if !decide(p, seed, site, n) {
        return None;
    }
    if let Some(cap) = times {
        // Cap enforcement must be race-free: reserve a slot, refund on
        // overshoot.
        if injected.fetch_add(1, Ordering::Relaxed) >= cap {
            injected.fetch_sub(1, Ordering::Relaxed);
            return None;
        }
    } else {
        injected.fetch_add(1, Ordering::Relaxed);
    }
    Some(injected_io_error(site))
}

/// `append:io` — an injected error for a point-store shard append, when
/// the plan fires.
pub fn store_append_error() -> Option<io::Error> {
    let inj = injector()?;
    io_site(
        &inj.plan,
        |f| match f {
            Fault::AppendIo { p, times } => Some((*p, *times)),
            _ => None,
        },
        &inj.append_checks,
        &inj.append_injected,
        inj.plan.seed,
        "append:io",
    )
}

/// `append:enospc` — an injected storage-exhaustion error for a
/// point-store shard append, when the plan arms one. Unlike
/// `append:io` this is not probabilistic: exhaustion is a state, not
/// an event, so every append fails until the optional `n` cap runs
/// out.
pub fn store_append_exhaustion() -> Option<io::Error> {
    let inj = injector()?;
    let times = inj.plan.faults.iter().find_map(|f| match f {
        Fault::AppendEnospc { times } => Some(*times),
        _ => None,
    })?;
    if let Some(cap) = times {
        if inj.enospc_injected.fetch_add(1, Ordering::Relaxed) >= cap {
            inj.enospc_injected.fetch_sub(1, Ordering::Relaxed);
            return None;
        }
    } else {
        inj.enospc_injected.fetch_add(1, Ordering::Relaxed);
    }
    Some(injected_exhaustion_error("append:enospc"))
}

fn take_budgeted(
    faults: &FaultPlan,
    budget: impl Fn(&Fault) -> Option<u64>,
    used: &AtomicU64,
) -> bool {
    let Some(times) = faults.faults.iter().find_map(budget) else { return false };
    if used.fetch_add(1, Ordering::Relaxed) >= times {
        used.fetch_sub(1, Ordering::Relaxed);
        return false;
    }
    true
}

/// `shard:torn-tail` — whether this store append should write a torn
/// final row (consumes one of the plan's `n` tears).
pub fn take_store_torn_tail() -> bool {
    let Some(inj) = injector() else { return false };
    take_budgeted(
        &inj.plan,
        |f| match f {
            Fault::TornTail { times } => Some(*times),
            _ => None,
        },
        &inj.torn_injected,
    )
}

/// `signal:term` — called once per point from the evaluation pool,
/// *before* the point is evaluated. When the plan names this tick it
/// raises a real SIGTERM against the process itself, so whatever drain
/// handler is installed sees exactly what a `kill` from outside would
/// send.
pub fn on_eval_tick() {
    let Some(inj) = injector() else { return };
    let tick = inj.eval_ticks.fetch_add(1, Ordering::Relaxed) + 1;
    // Claiming a tick and raising its signal are two steps, and the
    // claimant can be preempted between them — on a loaded one-core
    // box the *other* pool workers could then finish every remaining
    // point before the SIGTERM lands, turning a deterministic
    // "interrupt at point N" plan into a completed run. Later ticks
    // therefore wait until every signal due at an earlier tick has
    // actually been raised.
    let due = inj
        .plan
        .faults
        .iter()
        .filter(|f| matches!(f, Fault::SignalTerm { point } if *point < tick))
        .count() as u64;
    while inj.signals_raised.load(Ordering::Acquire) < due {
        std::thread::yield_now();
    }
    for f in &inj.plan.faults {
        if matches!(f, Fault::SignalTerm { point } if *point == tick) {
            inj.signal_injected.fetch_add(1, Ordering::Relaxed);
            eprintln!("ng-fault: raising SIGTERM at evaluation tick {tick}");
            raise_sigterm();
            inj.signals_raised.fetch_add(1, Ordering::Release);
        }
    }
}

/// Raise SIGTERM against this process. Declared directly against the
/// C runtime std already links — this crate stays dependency-free.
#[cfg(unix)]
fn raise_sigterm() {
    extern "C" {
        fn raise(sig: i32) -> i32;
    }
    const SIGTERM: i32 = 15;
    unsafe {
        raise(SIGTERM);
    }
}

#[cfg(not(unix))]
fn raise_sigterm() {}

/// How many faults of `site` (`append:io`, `torn-tail`,
/// `append:enospc`, `signal:term`) this process has injected — test
/// observability.
pub fn injected_count(site: &str) -> u64 {
    let Some(inj) = INJECTOR.get() else { return 0 };
    match site {
        "append:io" => inj.append_injected.load(Ordering::Relaxed),
        "torn-tail" => inj.torn_injected.load(Ordering::Relaxed),
        "append:enospc" => inj.enospc_injected.load(Ordering::Relaxed),
        "signal:term" => inj.signal_injected.load(Ordering::Relaxed),
        _ => 0,
    }
}

/// Retries (beyond the first attempt) [`with_retries`] performs before
/// giving up: 4 retries, ~0.5/1/2/4 ms apart plus deterministic jitter
/// (< 12 ms worst case on a persistently failing site).
pub const MAX_RETRIES: u32 = 4;

/// The backoff before retry number `attempt` (0-based): exponential
/// from 500 µs, with deterministic jitter of up to +50% derived from
/// `(salt, attempt)` — spread without wall-clock or OS randomness.
pub fn backoff_delay(attempt: u32, salt: u64) -> Duration {
    let base_us = 500u64 << attempt.min(6);
    let jitter_us = splitmix64(salt ^ (attempt as u64).wrapping_mul(0x9E37)) % (base_us / 2 + 1);
    Duration::from_micros(base_us + jitter_us)
}

/// Whether an error is worth retrying: everything except
/// `Unsupported`, which signals a structural capability gap (e.g. a
/// filesystem without locks) that no amount of waiting fixes, and the
/// [`is_exhaustion`] family — a full or read-only disk does not drain
/// in four backoff windows, and retrying just quadruples the time to
/// reach the degraded-overlay path.
pub fn is_retryable(e: &io::Error) -> bool {
    e.kind() != io::ErrorKind::Unsupported && !is_exhaustion(e)
}

/// Run `f`, retrying transient failures up to [`MAX_RETRIES`] times
/// with [`backoff_delay`] between attempts. Returns the final result
/// plus how many retries were spent — callers feed that into their obs
/// counter (`store.retries`).
pub fn with_retries<T>(site: &str, mut f: impl FnMut() -> io::Result<T>) -> (io::Result<T>, u32) {
    let salt = fnv1a64(site);
    let mut retries = 0;
    loop {
        match f() {
            Ok(v) => return (Ok(v), retries),
            Err(e) if retries < MAX_RETRIES && is_retryable(&e) => {
                std::thread::sleep(backoff_delay(retries, salt));
                retries += 1;
            }
            Err(e) => return (Err(e), retries),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_documented_fault() {
        let plan = FaultPlan::parse(
            "seed=7;append:io@p=0.01,n=3;shard:torn-tail;\
             append:enospc@n=4;signal:term@point=6",
        )
        .unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(
            plan.faults,
            vec![
                Fault::AppendIo { p: 0.01, times: Some(3) },
                Fault::TornTail { times: 1 },
                Fault::AppendEnospc { times: Some(4) },
                Fault::SignalTerm { point: 6 },
            ]
        );
        // Bare `append:enospc` (no cap) also parses.
        assert_eq!(
            FaultPlan::parse("append:enospc").unwrap().faults,
            vec![Fault::AppendEnospc { times: None }]
        );
    }

    #[test]
    fn whitespace_separators_parse() {
        let plan = FaultPlan::parse("shard:torn-tail@n=2 signal:term@point=2").unwrap();
        assert_eq!(plan.faults, vec![Fault::TornTail { times: 2 }, Fault::SignalTerm { point: 2 }]);
    }

    #[test]
    fn bad_plans_are_loud() {
        for bad in [
            "explode",
            "append:io",     // missing p
            "append:io@p=2", // p out of range
            "signal:term",   // missing point
            "seed=x",
            "whatever:io@p=0.1",
            "worker:kill@point=2", // not a fault kind
            "compact:crash@stage=2",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "`{bad}` must not parse");
        }
    }

    #[test]
    fn decisions_are_deterministic_and_roughly_calibrated() {
        let fire: Vec<bool> = (0..10_000).map(|n| decide(0.1, 42, "append:io", n)).collect();
        let again: Vec<bool> = (0..10_000).map(|n| decide(0.1, 42, "append:io", n)).collect();
        assert_eq!(fire, again, "same seed, same site, same sequence");
        let rate = fire.iter().filter(|f| **f).count() as f64 / fire.len() as f64;
        assert!((rate - 0.1).abs() < 0.02, "rate {rate} far from p=0.1");
        // A different seed decides differently.
        let other: Vec<bool> = (0..10_000).map(|n| decide(0.1, 43, "append:io", n)).collect();
        assert_ne!(fire, other);
        assert!(!decide(0.0, 1, "s", 1));
        assert!(decide(1.0, 1, "s", 1));
    }

    #[test]
    fn retries_are_bounded_and_counted() {
        let mut calls = 0;
        let (result, retries) = with_retries("test", || -> io::Result<()> {
            calls += 1;
            Err(injected_io_error("test"))
        });
        assert!(result.is_err());
        assert_eq!(retries, MAX_RETRIES);
        assert_eq!(calls, MAX_RETRIES as usize + 1);

        // Success after two failures spends exactly two retries.
        let mut calls = 0;
        let (result, retries) = with_retries("test", || {
            calls += 1;
            if calls < 3 {
                Err(injected_io_error("test"))
            } else {
                Ok(calls)
            }
        });
        assert_eq!(result.unwrap(), 3);
        assert_eq!(retries, 2);

        // Unsupported is structural: no retries at all.
        let (result, retries) = with_retries("test", || -> io::Result<()> {
            Err(io::Error::new(io::ErrorKind::Unsupported, "no locks here"))
        });
        assert!(result.is_err());
        assert_eq!(retries, 0);
    }

    #[test]
    fn backoff_grows_and_is_deterministic() {
        for attempt in 0..MAX_RETRIES {
            let d = backoff_delay(attempt, 1);
            assert_eq!(d, backoff_delay(attempt, 1));
            let base = Duration::from_micros(500u64 << attempt);
            assert!(d >= base && d <= base + base / 2 + Duration::from_micros(1), "{d:?}");
        }
        assert!(backoff_delay(3, 1) > backoff_delay(0, 1));
    }

    #[test]
    fn paused_injection_consumes_no_budget_or_ticks() {
        // Pausing gates the injector lookup itself, so no site fires
        // and no per-site counter moves while a guard is alive. (This
        // test does not install a plan — installation is once per
        // process — it checks the gate directly.)
        let before = PAUSED.load(Ordering::Relaxed);
        {
            let _outer = pause_injection();
            let _inner = pause_injection();
            assert_eq!(PAUSED.load(Ordering::Relaxed), before + 2, "guards nest");
            assert!(injector().is_none(), "no site can fire while paused");
        }
        assert_eq!(PAUSED.load(Ordering::Relaxed), before, "drop restores");
    }

    #[test]
    fn injected_errors_are_recognisable() {
        assert!(is_injected(&injected_io_error("x")));
        assert!(!is_injected(&io::Error::other("disk on fire")));
        assert!(is_retryable(&injected_io_error("x")));
    }

    #[test]
    fn exhaustion_errors_are_persistent_not_transient() {
        let injected = injected_exhaustion_error("append:enospc");
        assert!(is_injected(&injected));
        assert!(is_exhaustion(&injected));
        assert!(!is_retryable(&injected), "exhaustion must not burn retries");
        for errno in [28, 30, 122] {
            let real = io::Error::from_raw_os_error(errno);
            assert!(is_exhaustion(&real), "errno {errno}");
            assert!(!is_retryable(&real), "errno {errno}");
        }
        let denied = io::Error::new(io::ErrorKind::PermissionDenied, "store owned by root");
        assert!(is_exhaustion(&denied));
        // Transient flakes still retry.
        assert!(!is_exhaustion(&injected_io_error("append:io")));
        let (result, retries) = with_retries("test", || -> io::Result<()> {
            Err(injected_exhaustion_error("append:enospc"))
        });
        assert!(result.is_err());
        assert_eq!(retries, 0, "exhaustion short-circuits the backoff loop");
    }
}
