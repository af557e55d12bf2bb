//! Hoisted [`ng_obs`] counter handles for the pipeline's hot paths.
//!
//! `ng_obs::counter(name)` takes the registry mutex, so hot loops must
//! not call it per event. Every counter the crate increments is
//! declared here once, behind a `OnceLock`: the first use pays the
//! registry lookup, every later use is a static deref plus one relaxed
//! `fetch_add`. Centralising the names also makes them greppable — the
//! `dse --trace` self-check and the `--metrics` summary key off these
//! exact strings.

use std::sync::OnceLock;

use ng_obs::Counter;

macro_rules! hoisted {
    ($(#[$doc:meta])* $fn_name:ident => $name:literal) => {
        $(#[$doc])*
        pub fn $fn_name() -> &'static Counter {
            static C: OnceLock<Counter> = OnceLock::new();
            C.get_or_init(|| ng_obs::counter($name))
        }
    };
}

hoisted!(
    /// Design points a sweep was asked for (hits + misses).
    sweep_points => "sweep.points"
);
hoisted!(
    /// Points served from the point store without evaluation.
    sweep_cache_hits => "sweep.cache_hits"
);
hoisted!(
    /// Points that had to be evaluated. Invariant (checked by
    /// `dse --trace` before it writes the trace):
    /// `sweep.cache_hits + sweep.fresh_evals == sweep.points`.
    sweep_fresh_evals => "sweep.fresh_evals"
);
hoisted!(
    /// Per-point tick from inside the evaluation pool — the live
    /// counter the progress meter samples.
    eval_ticks => "eval.ticks"
);
hoisted!(
    /// Microseconds spent waiting for shard file locks in
    /// `EvalCache::append`.
    store_lock_wait_us => "store.lock_wait_us"
);
hoisted!(
    /// Torn shard tails terminated before appending.
    store_tail_heals => "store.tail_heals"
);
hoisted!(
    /// Rows appended to the point store.
    store_rows_appended => "store.rows_appended"
);
hoisted!(
    /// Transient shard-append failures retried (with backoff) before
    /// the append succeeded or gave up.
    store_retries => "store.retries"
);
hoisted!(
    /// Torn or corrupt rows skipped while loading shards — rows that
    /// silently became misses. Non-zero after a crash is expected;
    /// growth during steady state is a store bug.
    cache_rows_skipped => "cache.rows_skipped"
);
hoisted!(
    /// Rows diverted to the in-memory overlay because the store's
    /// filesystem is exhausted (ENOSPC/EROFS/quota): the sweep
    /// completed, but these rows will re-evaluate next run. Non-zero
    /// means "free some disk" — the run degraded instead of dying.
    store_degraded_appends => "store.degraded_appends"
);
hoisted!(
    /// Job manifests persisted (creations and status rewrites alike).
    jobs_manifests_written => "jobs.manifests_written"
);
hoisted!(
    /// Jobs re-entered via `dse resume`.
    jobs_resumed => "jobs.resumed"
);
hoisted!(
    /// Points accepted into a streaming Pareto frontier.
    frontier_inserts => "frontier.inserts"
);
hoisted!(
    /// Archived points evicted by a newly dominant one.
    frontier_prunes => "frontier.prunes"
);
hoisted!(
    /// Successful steals in the work-stealing pool.
    pool_steals => "pool.steals"
);
