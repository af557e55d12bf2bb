//! The sweep engine: spec in, deterministic evaluated points out.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use ng_neural::apps::{AppKind, EncodingKind};
use ngpc::EmulationContext;
use serde::{Deserialize, Serialize};

use crate::cache::EvalCache;
use crate::obs_counters;
use crate::pareto::{Constraints, Objectives, StreamingFrontier};
use crate::pool;
use crate::spec::{DesignPoint, SpecError, SweepSpec};

/// One evaluated configuration: the point plus the emulator outputs the
/// frontier and reports read.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvaluatedPoint {
    /// The configuration.
    pub point: DesignPoint,
    /// End-to-end speedup over the GPU baseline.
    pub speedup: f64,
    /// Cluster area as % of the GPU die.
    pub area_pct_of_gpu: f64,
    /// Cluster power as % of GPU TDP.
    pub power_pct_of_gpu: f64,
    /// GPU baseline frame time (ms).
    pub gpu_ms: f64,
    /// NGPC end-to-end frame time (ms).
    pub ngpc_frame_ms: f64,
    /// The configuration's Amdahl bound.
    pub amdahl_bound: f64,
    /// Whether the rest-kernel stage dominates (more NFPs won't help).
    pub plateaued: bool,
}

impl EvaluatedPoint {
    /// This point's position in objective space.
    pub fn objectives(&self) -> Objectives {
        Objectives {
            speedup: self.speedup,
            area_pct: self.area_pct_of_gpu,
            power_pct: self.power_pct_of_gpu,
        }
    }
}

/// One architecture with per-app speedups folded into the cross-app
/// average — the objective the paper's Fig. 12 bars report.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArchPoint {
    /// Input-encoding scheme.
    pub encoding: EncodingKind,
    /// Frame resolution in pixels.
    pub pixels: u64,
    /// NFP count.
    pub nfp_units: u32,
    /// NFP clock in GHz.
    pub clock_ghz: f64,
    /// Grid SRAM per engine in KiB.
    pub grid_sram_kb: u32,
    /// Banks per grid SRAM.
    pub grid_sram_banks: u32,
    /// Input-encoding engines per NFP.
    pub encoding_engines: u32,
    /// MAC array rows of the MLP engine.
    pub mac_rows: u32,
    /// MAC array columns of the MLP engine.
    pub mac_cols: u32,
    /// Query lanes per encoding engine.
    pub lanes_per_engine: u32,
    /// Fusion input-FIFO depth in entries.
    pub input_fifo_depth: u32,
    /// Number of apps averaged.
    pub apps: u32,
    /// Cross-app average speedup.
    pub avg_speedup: f64,
    /// Cluster area as % of the GPU die (app-independent).
    pub area_pct_of_gpu: f64,
    /// Cluster power as % of GPU TDP (app-independent).
    pub power_pct_of_gpu: f64,
}

impl ArchPoint {
    /// This architecture's position in objective space.
    pub fn objectives(&self) -> Objectives {
        Objectives {
            speedup: self.avg_speedup,
            area_pct: self.area_pct_of_gpu,
            power_pct: self.power_pct_of_gpu,
        }
    }

    /// Whether this is the paper's published NGPC-64 headline
    /// *organisation*: hashgrid, FHD, 64 units, 1 GHz, 1 MB/8-bank
    /// grid SRAMs, 16 engines, 64x64 MACs. The lane/FIFO
    /// microarchitecture axes are deliberately left free: in the
    /// exploded lane/FIFO space the model (correctly) finds the
    /// paper's 64-deep FIFO oversized at plateau scale — every app is
    /// Amdahl-bound at 64 units, so any depth buys the same speedup
    /// and the frontier right-sizes the FIFO below the overlap knee.
    /// In the paper and mac-arrays presets those axes are pinned at
    /// the paper's 1 lane / 64 entries, so the match is exact there.
    /// The predicate behind `dse --check-headline` on every preset, so
    /// the paper, mac-arrays and guided-lanes guards cannot drift
    /// apart.
    pub fn is_paper_organisation(&self) -> bool {
        self.encoding == EncodingKind::MultiResHashGrid
            && self.pixels == crate::spec::FHD_PIXELS
            && self.nfp_units == 64
            && self.clock_ghz == 1.0
            && self.grid_sram_kb == 1024
            && self.grid_sram_banks == 8
            && self.encoding_engines == 16
            && self.mac_rows == 64
            && self.mac_cols == 64
    }
}

/// How a sweep executed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepStats {
    /// Points in the sweep.
    pub total_points: usize,
    /// Points actually evaluated this run (the cache misses; 0 on a
    /// full cache hit).
    pub evaluated: usize,
    /// Points served from the point-level cache.
    pub cache_hits: usize,
    /// Whether *every* point came from the evaluation cache.
    pub cache_hit: bool,
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock time of the run.
    pub wall: Duration,
}

impl SweepStats {
    /// Evaluation throughput (points per second); 0 on a cache hit.
    pub fn points_per_sec(&self) -> f64 {
        if self.evaluated == 0 || self.wall.is_zero() {
            0.0
        } else {
            self.evaluated as f64 / self.wall.as_secs_f64()
        }
    }
}

/// A completed sweep: the spec, every evaluated point (in spec order),
/// and execution stats.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// The spec that was swept.
    pub spec: SweepSpec,
    /// One result per design point, in the spec's enumeration order.
    pub points: Vec<EvaluatedPoint>,
    /// How the run executed.
    pub stats: SweepStats,
    /// The point-store generation directory results were cached under,
    /// when caching was enabled (and writable).
    pub cache_path: Option<PathBuf>,
}

impl SweepOutcome {
    /// Per-app evaluated points, in spec order.
    pub fn for_app(&self, app: AppKind) -> Vec<EvaluatedPoint> {
        self.points.iter().copied().filter(|p| p.point.app == app).collect()
    }

    /// The constrained Pareto frontier of one app's points, sorted by
    /// ascending area (the natural reading order of a frontier).
    ///
    /// Streams the points through a [`StreamingFrontier`] — each
    /// point's objectives are computed exactly once and no intermediate
    /// per-app or per-objective vectors are materialised.
    pub fn per_app_frontier(&self, app: AppKind, constraints: &Constraints) -> Vec<EvaluatedPoint> {
        let mut frontier = StreamingFrontier::new();
        for p in self.points.iter().filter(|p| p.point.app == app) {
            frontier.insert_constrained(p.objectives(), *p, constraints);
        }
        let mut out = frontier.into_payloads();
        out.sort_by(|a: &EvaluatedPoint, b| a.area_pct_of_gpu.total_cmp(&b.area_pct_of_gpu));
        out
    }

    /// Fold per-app results into one [`ArchPoint`] per architecture
    /// (cross-app average speedup), in spec order of the architectures.
    ///
    /// Apps are the outermost spec axis and [`SweepSpec::validate`]
    /// rejects duplicate axis values, so the `points` (in spec order)
    /// hold `apps` equal blocks of one point per architecture each:
    /// architecture `k`'s apps sit at `k + i * (points / apps)`. The
    /// fold is plain index arithmetic, summing the speedups in app
    /// order; area and power are app-independent and read off the
    /// first app's point.
    pub fn cross_app(&self) -> Vec<ArchPoint> {
        debug_assert_eq!(self.points.len(), self.spec.point_count(), "points not in spec order");
        let apps = self.spec.apps.len();
        let stride = self.points.len().checked_div(apps).unwrap_or(0);
        (0..stride)
            .map(|k| {
                let first = &self.points[k];
                let mut sum = 0.0;
                for i in 0..apps {
                    let p = &self.points[k + i * stride];
                    debug_assert_eq!(p.point.arch_key(), first.point.arch_key());
                    sum += p.speedup;
                }
                let d = &first.point;
                ArchPoint {
                    encoding: d.encoding,
                    pixels: d.pixels,
                    nfp_units: d.nfp_units,
                    clock_ghz: d.clock_ghz,
                    grid_sram_kb: d.grid_sram_kb,
                    grid_sram_banks: d.grid_sram_banks,
                    encoding_engines: d.encoding_engines,
                    mac_rows: d.mac_rows,
                    mac_cols: d.mac_cols,
                    lanes_per_engine: d.lanes_per_engine,
                    input_fifo_depth: d.input_fifo_depth,
                    apps: apps as u32,
                    avg_speedup: sum / apps as f64,
                    area_pct_of_gpu: first.area_pct_of_gpu,
                    power_pct_of_gpu: first.power_pct_of_gpu,
                }
            })
            .collect()
    }

    /// The constrained Pareto frontier of the cross-app-average
    /// objective, sorted by ascending area: [`arch_frontier`] over
    /// [`SweepOutcome::cross_app`].
    pub fn cross_app_frontier(&self, constraints: &Constraints) -> Vec<ArchPoint> {
        arch_frontier(&self.cross_app(), constraints)
    }
}

/// The constrained Pareto frontier of folded architectures (see
/// [`SweepOutcome::cross_app`]), sorted by ascending area. Objectives
/// are computed once per architecture and streamed with dominance
/// pruning.
pub fn arch_frontier(archs: &[ArchPoint], constraints: &Constraints) -> Vec<ArchPoint> {
    let mut frontier = StreamingFrontier::new();
    for a in archs {
        frontier.insert_constrained(a.objectives(), *a, constraints);
    }
    let mut out = frontier.into_payloads();
    out.sort_by(|a: &ArchPoint, b| a.area_pct_of_gpu.total_cmp(&b.area_pct_of_gpu));
    out
}

/// Evaluate design points on the work-stealing pool: one result per
/// point, in input order, bit-identical regardless of thread count.
pub fn evaluate_points(points: &[DesignPoint], threads: usize) -> Vec<EvaluatedPoint> {
    let (slots, interrupted) = evaluate_points_partial(points, threads, || false);
    debug_assert!(!interrupted, "cancellation disabled");
    slots.into_iter().map(|s| s.expect("every point evaluated")).collect()
}

/// [`evaluate_points`] with a drain predicate: once `cancel()` turns
/// true the pool stops dispatching new points (in-flight ones finish).
/// Returns one slot per point in input order — `None` marks the
/// unevaluated tail — plus whether the run was actually cut short.
pub fn evaluate_points_partial(
    points: &[DesignPoint],
    threads: usize,
    cancel: impl Fn() -> bool + Sync,
) -> (Vec<Option<EvaluatedPoint>>, bool) {
    let _span = ng_obs::span("evaluate");
    let ticks = obs_counters::eval_ticks();
    let slots = pool::map_stateful_partial(
        points,
        threads,
        EmulationContext::new,
        |ctx, p: &DesignPoint| {
            // Fault-plan hook: a `signal:term` plan naming this tick
            // raises SIGTERM here — before the point completes —
            // driving the graceful-drain path this function feeds.
            ng_fault::on_eval_tick();
            let r = ctx.eval(&p.emulator_input());
            ticks.incr();
            EvaluatedPoint {
                point: *p,
                speedup: r.speedup,
                area_pct_of_gpu: r.area_pct_of_gpu,
                power_pct_of_gpu: r.power_pct_of_gpu,
                gpu_ms: r.gpu_ms,
                ngpc_frame_ms: r.ngpc_frame_ms,
                amdahl_bound: r.amdahl_bound,
                plateaued: r.plateaued,
            }
        },
        cancel,
    );
    let interrupted = slots.iter().any(Option::is_none);
    (slots, interrupted)
}

/// How a cancellable sweep ([`SweepEngine::run_draining`]) ended.
// The variants are deliberately unboxed: the value is a transient
// return, matched and consumed immediately, never stored.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum SweepRun {
    /// The sweep ran to completion.
    Complete(SweepOutcome),
    /// A drain was requested mid-evaluation: everything already
    /// computed was flushed to the point store, the tail was left
    /// unevaluated.
    Interrupted(DrainedSweep),
}

/// The drain record of an interrupted sweep — what made it into the
/// store before the stop, which is exactly what `dse resume` does not
/// have to re-evaluate.
#[derive(Debug, Clone, PartialEq)]
pub struct DrainedSweep {
    /// Points in the spec.
    pub total_points: usize,
    /// Points served from the cache before the drain.
    pub cache_hits: usize,
    /// Points freshly evaluated (and appended) before the drain.
    pub freshly_completed: usize,
    /// The store generation directory the completed points live in.
    pub cache_path: Option<PathBuf>,
}

impl DrainedSweep {
    /// Points a resume still has to evaluate.
    pub fn remaining(&self) -> usize {
        self.total_points - self.cache_hits - self.freshly_completed
    }
}

/// The sweep executor: thread count + cache policy.
#[derive(Debug, Clone)]
pub struct SweepEngine {
    threads: usize,
    cache_dir: Option<PathBuf>,
    quiet: bool,
}

impl Default for SweepEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl SweepEngine {
    /// Default cache directory, relative to the working directory.
    pub const DEFAULT_CACHE_DIR: &'static str = ".dse-cache";

    /// An engine using every available core and the default cache dir.
    pub fn new() -> Self {
        SweepEngine {
            threads: pool::available_threads(),
            cache_dir: Some(PathBuf::from(Self::DEFAULT_CACHE_DIR)),
            quiet: false,
        }
    }

    /// Suppress the live stderr progress line even when stderr is a
    /// terminal (`dse --quiet`). Progress never touches stdout either
    /// way, so emitters stay byte-identical.
    pub fn with_quiet(mut self, quiet: bool) -> Self {
        self.quiet = quiet;
        self
    }

    /// Use exactly `threads` workers (min 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Cache evaluations under `dir`.
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Disable the evaluation cache.
    pub fn without_cache(mut self) -> Self {
        self.cache_dir = None;
        self
    }

    /// Worker threads this engine will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run a sweep: validate, partition the points into cached and
    /// missing, evaluate only the misses in parallel, append them back
    /// to the point store, and return the merged results in spec order.
    ///
    /// Borrowing callers pay one spec clone (the outcome owns its
    /// spec); callers that can part with the spec should prefer
    /// [`SweepEngine::run_owned`], which runs clone-free.
    pub fn run(&self, spec: &SweepSpec) -> Result<SweepOutcome, SpecError> {
        self.run_owned(spec.clone())
    }

    /// [`SweepEngine::run`] taking the spec by value: no spec clone,
    /// and the merge fills cache hits and fresh evaluations into a
    /// single result vector instead of collecting intermediates.
    pub fn run_owned(&self, spec: SweepSpec) -> Result<SweepOutcome, SpecError> {
        match self.run_inner(spec, &|| false)? {
            SweepRun::Complete(outcome) => Ok(outcome),
            SweepRun::Interrupted(_) => unreachable!("cancellation disabled"),
        }
    }

    /// [`SweepEngine::run_owned`] with a drain predicate (the CLI
    /// passes [`crate::cancel::cancelled`]): on cancellation the
    /// completed points are flushed to the store and a
    /// [`SweepRun::Interrupted`] drain record comes back instead of an
    /// outcome.
    pub fn run_draining(
        &self,
        spec: SweepSpec,
        cancel: impl Fn() -> bool + Sync,
    ) -> Result<SweepRun, SpecError> {
        self.run_inner(spec, &cancel)
    }

    fn run_inner(
        &self,
        spec: SweepSpec,
        cancel: &(dyn Fn() -> bool + Sync),
    ) -> Result<SweepRun, SpecError> {
        spec.validate()?;
        let _span = ng_obs::span("sweep");
        let started = Instant::now();
        let cache = self.cache_dir.as_ref().map(|dir| EvalCache::new(dir.clone()));

        let design_points = spec.points();
        let total = design_points.len();
        // With a store, `slots` doubles as the hit/miss partition and
        // the result buffer: hits are already final, the gaps are
        // filled from the pool's output below. Without one every point
        // is a miss, so the spec's points go to the pool as they are.
        let (slots, missing) = match &cache {
            Some(cache) => {
                let slots = {
                    let _span = ng_obs::span("lookup");
                    cache.lookup(&design_points)
                };
                let missing: Vec<DesignPoint> = design_points
                    .iter()
                    .zip(&slots)
                    .filter(|(_, hit)| hit.is_none())
                    .map(|(p, _)| *p)
                    .collect();
                (Some(slots), missing)
            }
            None => (None, design_points),
        };
        let cache_hits = total - missing.len();
        obs_counters::sweep_points().add(total as u64);
        obs_counters::sweep_cache_hits().add(cache_hits as u64);

        // The work-stealing pool sees only the misses; results come
        // back in `missing` (= spec) order. The meter samples the
        // shared eval-tick counter from a side thread, so the pool
        // never blocks on terminal i/o.
        let meter = ng_obs::Meter::start(
            "sweep",
            obs_counters::eval_ticks().clone(),
            missing.len() as u64,
            "points",
            !missing.is_empty() && ng_obs::stderr_wants_progress(self.quiet),
        );
        let (eval_slots, interrupted) = evaluate_points_partial(&missing, self.threads, cancel);
        meter.finish();
        let misses = missing.len();
        drop(missing);
        let evaluated: Vec<EvaluatedPoint> = if interrupted {
            eval_slots.into_iter().flatten().collect()
        } else {
            // Every slot is filled, so this collects in place.
            eval_slots.into_iter().map(|s| s.expect("every point evaluated")).collect()
        };
        obs_counters::sweep_fresh_evals().add(evaluated.len() as u64);

        // A cache write failure (read-only dir, ...) downgrades to a
        // write-through-less run rather than failing the sweep; the
        // store dir is still reported, since hits were read from it.
        // On a drain this flush is the whole point: everything already
        // computed becomes resumable state.
        let cache_path = cache.as_ref().map(|cache| {
            let _span = ng_obs::span("append");
            let _ = cache.append(&evaluated);
            cache.store_dir()
        });

        if interrupted {
            return Ok(SweepRun::Interrupted(DrainedSweep {
                total_points: total,
                cache_hits,
                freshly_completed: evaluated.len(),
                cache_path,
            }));
        }

        let points = match slots {
            None => evaluated,
            // Merge in place: cached points keep their slot, fresh
            // evaluations fill the gaps in order — both sides are
            // already in spec order.
            Some(mut slots) => {
                let mut fresh = evaluated.into_iter();
                for slot in slots.iter_mut().filter(|s| s.is_none()) {
                    *slot = Some(fresh.next().expect("one evaluation per miss"));
                }
                slots.into_iter().map(|s| s.expect("every slot filled")).collect()
            }
        };

        Ok(SweepRun::Complete(SweepOutcome {
            spec,
            stats: SweepStats {
                total_points: points.len(),
                evaluated: misses,
                cache_hits,
                cache_hit: cache.is_some() && misses == 0,
                threads: self.threads,
                wall: started.elapsed(),
            },
            points,
            cache_path,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::FHD_PIXELS;

    fn engine() -> SweepEngine {
        SweepEngine::new().without_cache()
    }

    #[test]
    fn sweep_matches_direct_emulation_in_spec_order() {
        let spec = SweepSpec::quick();
        let outcome = engine().run(&spec).unwrap();
        assert_eq!(outcome.points.len(), spec.point_count());
        for (i, ep) in outcome.points.iter().enumerate() {
            assert_eq!(ep.point.index, i);
            let direct = ngpc::emulate(&ep.point.emulator_input());
            assert_eq!(ep.speedup, direct.speedup, "point {i}");
            assert_eq!(ep.area_pct_of_gpu, direct.area_pct_of_gpu);
        }
        assert!(!outcome.stats.cache_hit);
        assert_eq!(outcome.stats.evaluated, spec.point_count());
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let spec = SweepSpec::quick();
        let one = engine().with_threads(1).run(&spec).unwrap();
        let many = engine().with_threads(16).run(&spec).unwrap();
        assert_eq!(one.points, many.points);
    }

    #[test]
    fn fig12a_averages_via_cross_app() {
        // The cross-app fold must reproduce the paper's Fig. 12-a bars.
        let outcome = engine().run(&SweepSpec::quick()).unwrap();
        let archs = outcome.cross_app();
        for (n, target) in [(8u32, 12.94f64), (16, 20.85), (32, 33.73), (64, 39.04)] {
            let a = archs.iter().find(|a| a.nfp_units == n).unwrap();
            assert_eq!(a.apps, 4);
            assert!((a.avg_speedup - target).abs() < target * 0.01, "{}: {}", n, a.avg_speedup);
        }
    }

    /// The reference cross-app fold: group by architecture key in
    /// first-seen order, summing speedups in point order.
    fn hashmap_cross_app(points: &[EvaluatedPoint]) -> Vec<ArchPoint> {
        let mut by_arch: std::collections::HashMap<crate::spec::ArchKey, (ArchPoint, u32, f64)> =
            std::collections::HashMap::new();
        let mut order = Vec::new();
        for p in points {
            let key = p.point.arch_key();
            let entry = by_arch.entry(key).or_insert_with(|| {
                order.push(key);
                let d = &p.point;
                let arch = ArchPoint {
                    encoding: d.encoding,
                    pixels: d.pixels,
                    nfp_units: d.nfp_units,
                    clock_ghz: d.clock_ghz,
                    grid_sram_kb: d.grid_sram_kb,
                    grid_sram_banks: d.grid_sram_banks,
                    encoding_engines: d.encoding_engines,
                    mac_rows: d.mac_rows,
                    mac_cols: d.mac_cols,
                    lanes_per_engine: d.lanes_per_engine,
                    input_fifo_depth: d.input_fifo_depth,
                    apps: 0,
                    avg_speedup: 0.0,
                    area_pct_of_gpu: p.area_pct_of_gpu,
                    power_pct_of_gpu: p.power_pct_of_gpu,
                };
                (arch, 0, 0.0)
            });
            entry.1 += 1;
            entry.2 += p.speedup;
        }
        order
            .into_iter()
            .map(|key| {
                let (arch, apps, sum) = by_arch[&key];
                ArchPoint { apps, avg_speedup: sum / apps as f64, ..arch }
            })
            .collect()
    }

    #[test]
    fn stride_cross_app_matches_the_hashmap_fold_bit_for_bit() {
        // Two apps, and axis values out of their natural order.
        let reordered = SweepSpec {
            name: "reordered".to_string(),
            apps: vec![AppKind::Gia, AppKind::Nerf],
            encodings: vec![EncodingKind::LowResDenseGrid, EncodingKind::MultiResHashGrid],
            nfp_units: vec![64, 8, 32],
            grid_sram_kb: vec![1024, 256],
            grid_sram_banks: vec![8, 2],
            ..SweepSpec::default()
        };
        let specs = [
            SweepSpec::quick(),
            SweepSpec::paper(),
            SweepSpec::preset("mac-arrays").unwrap(),
            SweepSpec::preset("resolutions").unwrap(),
            reordered,
        ];
        for spec in specs {
            let outcome = engine().run(&spec).unwrap();
            let stride = outcome.cross_app();
            let reference = hashmap_cross_app(&outcome.points);
            assert_eq!(stride.len() * spec.apps.len(), outcome.points.len(), "{}", spec.name);
            assert_eq!(stride, reference, "{}", spec.name);
            for (a, b) in stride.iter().zip(&reference) {
                assert_eq!(a.avg_speedup.to_bits(), b.avg_speedup.to_bits(), "{}", spec.name);
            }
        }
    }

    #[test]
    fn paper_headline_point_is_on_the_cross_app_frontier() {
        let outcome = engine().run(&SweepSpec::paper()).unwrap();
        let frontier = outcome.cross_app_frontier(&Constraints::NONE);
        let headline = frontier.iter().find(|a| {
            a.encoding == EncodingKind::MultiResHashGrid
                && a.nfp_units == 64
                && a.clock_ghz == 1.0
                && a.grid_sram_kb == 1024
                && a.grid_sram_banks == 8
                && a.pixels == FHD_PIXELS
        });
        let arch = headline.expect("NGPC-64 must be Pareto-optimal");
        assert!((arch.avg_speedup - 39.04).abs() < 0.4, "{}", arch.avg_speedup);
    }

    #[test]
    fn per_app_frontier_respects_constraints_and_dominance() {
        let outcome = engine().run(&SweepSpec::paper()).unwrap();
        let budget = Constraints {
            max_area_pct: Some(10.0),
            max_power_pct: Some(6.0),
            ..Constraints::default()
        };
        let frontier = outcome.per_app_frontier(AppKind::Gia, &budget);
        assert!(!frontier.is_empty());
        for p in &frontier {
            assert!(p.area_pct_of_gpu <= 10.0 && p.power_pct_of_gpu <= 6.0);
            assert_eq!(p.point.app, AppKind::Gia);
        }
        for a in &frontier {
            for b in &frontier {
                assert!(!a.objectives().dominates(&b.objectives()) || a == b);
            }
        }
    }
}
