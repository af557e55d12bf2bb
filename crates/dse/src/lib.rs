//! # ng-dse — parallel design-space exploration for the NGPC
//!
//! The paper's headline results (Figs. 12–15) are single points read off
//! a much larger configuration space: NFP count, clock, grid-SRAM
//! sizing and banking, input encoding and application mix. This crate
//! turns that space into a first-class workload:
//!
//! * [`spec`] — a declarative [`SweepSpec`]: cartesian axes over every
//!   swept parameter, loadable from a TOML subset or built from presets
//!   ([`SweepSpec::paper`], [`SweepSpec::quick`], ...).
//! * [`sweep`] — the [`SweepEngine`]: expands the spec into
//!   [`DesignPoint`]s and evaluates them through `ngpc`'s emulator on a
//!   work-stealing thread pool ([`pool`]), with results in deterministic
//!   spec order regardless of scheduling.
//! * [`pareto`] — n-dimensional non-dominated frontier extraction over
//!   {speedup, area % of GPU, power % of GPU}, with budget
//!   [`Constraints`] and per-app / cross-app-average objectives.
//! * [`cache`] + [`emit`] — a sharded *point-level* evaluation cache
//!   (re-runs of an unchanged spec are free, and overlapping or grown
//!   specs evaluate only their delta) and CSV/JSON emitters. Appends
//!   take a per-shard advisory file lock, so any number of threads or
//!   processes can write one store concurrently.
//! * [`job`] + [`cancel`] — durable job manifests behind `dse resume`,
//!   and the SIGINT/SIGTERM drain that flushes completed points to the
//!   store before exiting.
//! * [`report`] — the compact terminal report behind the `dse` binary.
//! * [`obs_counters`] — the crate's hoisted [`ng_obs`] counter handles.
//!   Every stage is instrumented with `ng-obs` spans and counters:
//!   `dse --trace PATH` writes the run as a Chrome trace, and
//!   `dse --metrics` prints the in-process profile, its stage coverage
//!   and the counters after any run.
//!
//! ## Quickstart
//!
//! ```
//! use ng_dse::{Constraints, SweepEngine, SweepSpec};
//!
//! let outcome = SweepEngine::new().without_cache().run(&SweepSpec::quick()).unwrap();
//! // Architectures within an area budget of 10% of the GPU die, best
//! // cross-app speedup first.
//! let budget = Constraints { max_area_pct: Some(10.0), ..Constraints::default() };
//! let frontier = outcome.cross_app_frontier(&budget);
//! assert!(!frontier.is_empty());
//! assert!(frontier.iter().all(|a| a.area_pct_of_gpu <= 10.0));
//! ```

pub mod cache;
pub mod cancel;
pub mod emit;
pub mod job;
pub mod obs_counters;
pub mod pareto;
pub mod pool;
pub mod report;
pub mod spec;
pub mod sweep;

pub use cache::EvalCache;
pub use pareto::{pareto_indices, Constraints, Objectives, StreamingFrontier};
pub use spec::{DesignPoint, SpecError, SweepSpec};
pub use sweep::{
    ArchPoint, DrainedSweep, EvaluatedPoint, SweepEngine, SweepOutcome, SweepRun, SweepStats,
};

/// Version tag of the underlying evaluation models, mixed into every
/// cache key. **Bump this whenever `ngpc`'s emulator, the GPU model or
/// the area/power substrate changes results** so cache generations stay
/// humanly tellable apart on disk — though since
/// [`model_fingerprint`] is also folded into every key, a forgotten
/// bump no longer serves stale results.
pub const MODEL_VERSION: &str = "ngpc-models-v4";

/// Fingerprint of the evaluation models' actual *outputs*: a probe
/// sweep evaluated single-threaded and hashed at 9 significant digits
/// (coarse enough to absorb cross-platform libm jitter, fine enough
/// that any deliberate model change shifts it). The probe is the
/// quick preset *widened along the MAC-array, engine-count, query-lane
/// and input-FIFO axes* (2 engine counts x 2 row counts x 2 column
/// counts x 2 lane counts x 2 FIFO depths), so drift in the
/// compositional timing model — which is invisible at the paper's NFP
/// by construction — still invalidates cached sweep results, including
/// drift that only shows on the lane/FIFO axes the `guided-lanes`
/// preset sweeps.
/// Folded into every point-cache key next to [`MODEL_VERSION`]; the
/// pinned value in `tests/model_fingerprint.rs` turns silent drift into
/// a test failure with bump instructions. Computed once per process:
/// 512 evaluations (the quick preset's 16 points, doubled along 5
/// axes) plus the GPU model's in-process calibration
/// (~0.02 ms) — microseconds in all.
pub fn model_fingerprint() -> u64 {
    static FINGERPRINT: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *FINGERPRINT.get_or_init(|| {
        // Its own stage, so a traced run attributes the probe sweep
        // (which nests under it) and the hashing to the fingerprint.
        let _span = ng_obs::span("fingerprint");
        // The probe is bookkeeping, not user work: it must not consume
        // a fault plan's tick numbering or budgets (a
        // `signal:term@point=5` should interrupt the user's sweep at
        // its 5th point, not die inside this probe before the sweep
        // starts).
        let _probe_is_not_user_work = ng_fault::pause_injection();
        let mut probe = SweepSpec::quick();
        probe.encoding_engines = vec![8, 16];
        probe.mac_rows = vec![32, 64];
        probe.mac_cols = vec![32, 64];
        probe.lanes_per_engine = vec![1, 2];
        probe.input_fifo_depth = vec![4, 64];
        let outcome = SweepEngine::new()
            .without_cache()
            .with_threads(1)
            .run(&probe)
            .expect("the probe spec always validates");
        let mut text = String::new();
        for p in &outcome.points {
            text.push_str(&format!(
                "{:.9e},{:.9e},{:.9e};",
                p.speedup, p.area_pct_of_gpu, p.power_pct_of_gpu
            ));
        }
        ng_neural::math::fnv1a64(&text)
    })
}
