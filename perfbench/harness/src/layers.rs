//! The traced run's `dse` part: the public library calls the CLI makes,
//! in the CLI's order, each timed from outside; plus probes of the
//! per-point model layers and of the point store.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use ng_dse::job::{JobManifest, JobMode, JobStatus};
use ng_dse::obs_counters::{frontier_inserts, frontier_prunes};
use ng_dse::sweep::evaluate_points;
use ng_dse::{Constraints, EvalCache, EvaluatedPoint, SweepOutcome, SweepSpec, SweepStats};
use ngpc::EmulationContext;

use crate::util::{median, timed, JsonObject};

/// Per-request samples of each layer, reported as medians.
#[derive(Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn add(&mut self, key: &'static str, value: f64) {
        self.0.entry(key).or_default().push(value);
    }

    /// Median over requests of each layer's per-request total.
    fn medians(&self) -> BTreeMap<&'static str, f64> {
        self.0.iter().map(|(k, v)| (*k, median(v))).collect()
    }
}

/// One request's per-layer totals, folded into [`Samples`] at its end.
#[derive(Default)]
struct Request {
    layers: BTreeMap<&'static str, f64>,
}

impl Request {
    /// Runs `f`, charging its wall time to `layer`.
    fn time<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let (r, s) = timed(f);
        *self.layers.entry(layer).or_default() += s;
        r
    }

    fn count(&mut self, key: &'static str, value: f64) {
        *self.layers.entry(key).or_default() += value;
    }
}

/// What a traced `dse` request replays.
#[derive(Clone, Copy, PartialEq)]
pub enum Replay {
    /// `--no-cache --csv F --json F`: evaluate everything, emit both.
    NoCache,
    /// The default point store, warm: manifest, lookup, report, the
    /// headline check and `--csv F`.
    WarmStore,
}

/// Layers that are counts or ratios, not times on the request's path.
const NOT_TIMES: [&str; 4] = ["sweep.evals", "pareto.inserts", "pareto.prunes", "emit.bytes"];

fn outcome(spec: &SweepSpec, points: Vec<EvaluatedPoint>, threads: usize) -> SweepOutcome {
    SweepOutcome {
        spec: spec.clone(),
        stats: SweepStats {
            total_points: points.len(),
            evaluated: points.len(),
            cache_hits: 0,
            cache_hit: false,
            threads,
            wall: Duration::ZERO,
        },
        points,
        cache_path: None,
    }
}

/// Replays one CLI request as timed library calls, adding its per-layer
/// totals and its wall time from first call to last to `samples`.
fn request(
    replay: Replay,
    spec: &SweepSpec,
    constraints: &Constraints,
    threads: usize,
    work: &Path,
    samples: &mut Samples,
) -> Result<(), String> {
    let store = work.join(".dse-cache");
    let mut r = Request::default();
    let inserts = frontier_inserts().get();
    let prunes = frontier_prunes().get();
    let started = Instant::now();
    let mut manifest = None;
    if replay == Replay::WarmStore {
        let store_name = store.to_string_lossy().into_owned();
        let m = JobManifest::new(JobMode::Sweep, spec, &store_name, spec.point_count());
        r.time("job.manifest_s", || m.save()).map_err(|e| format!("manifest: {e}"))?;
        manifest = Some(m);
    }
    let points = r.time("spec.points_s", || spec.points());
    let evaluated: Vec<EvaluatedPoint> = match replay {
        Replay::NoCache => {
            let e = r.time("sweep.evaluate_s", || evaluate_points(&points, threads));
            r.count("sweep.evals", e.len() as f64);
            e
        }
        Replay::WarmStore => {
            let cache = EvalCache::new(&store);
            let hits = r.time("cache.lookup_s", || cache.lookup(&points));
            let n = hits.len();
            let found: Vec<EvaluatedPoint> = hits.into_iter().flatten().collect();
            if found.len() != n {
                return Err(format!("warm store served {} of {n} points", found.len()));
            }
            found
        }
    };
    drop(points);
    if let Some(mut m) = manifest {
        m.status = JobStatus::Done;
        m.delivered = evaluated.len();
        r.time("job.manifest_s", || m.save()).map_err(|e| format!("manifest: {e}"))?;
    }
    let outcome = outcome(spec, evaluated, threads);
    // print_report: the frontier, the architecture count, the table.
    let frontier = r.time("pareto.frontier_s", || outcome.cross_app_frontier(constraints));
    let archs = r.time("sweep.cross_app_s", || outcome.cross_app().len());
    let table = r.time("report.table_s", || ng_dse::report::frontier_table(&frontier, 16));
    black_box((archs, table));
    if replay == Replay::WarmStore {
        // The headline check the paper preset always runs.
        r.time("sweep.cross_app_s", || black_box(outcome.cross_app()));
        r.time("pareto.frontier_s", || black_box(outcome.cross_app_frontier(constraints)));
    }
    let csv = r.time("emit.csv_s", || ng_dse::emit::points_to_csv(&outcome.points));
    r.time("emit.write_s", || std::fs::write(work.join("layers.csv"), &csv))
        .map_err(|e| format!("write csv: {e}"))?;
    let mut bytes = csv.len();
    drop(csv);
    if replay == Replay::NoCache {
        let frontier = r.time("pareto.frontier_s", || outcome.cross_app_frontier(constraints));
        let json = r.time("emit.json_s", || ng_dse::emit::outcome_to_json(&outcome, &frontier));
        r.time("emit.write_s", || std::fs::write(work.join("layers.json"), &json))
            .map_err(|e| format!("write json: {e}"))?;
        bytes += json.len();
    }
    let wall = started.elapsed().as_secs_f64();
    r.count("emit.bytes", bytes as f64);
    r.count("pareto.inserts", (frontier_inserts().get() - inserts) as f64);
    r.count("pareto.prunes", (frontier_prunes().get() - prunes) as f64);
    let layer_sum: f64 =
        r.layers.iter().filter(|(k, _)| !NOT_TIMES.contains(k)).map(|(_, v)| v).sum();
    samples.add("obs.layer_sum_s", layer_sum);
    samples.add("obs.traced_request_s", wall);
    for (k, v) in r.layers {
        samples.add(k, v);
    }
    Ok(())
}

/// Store versus recompute on the full spec: a cold lookup, the
/// evaluation it forces, the append, and the warm lookup that follows.
fn store_probe(
    spec: &SweepSpec,
    threads: usize,
    dir: &Path,
    samples: &mut Samples,
) -> Result<(), String> {
    let cache = EvalCache::new(dir);
    let points = spec.points();
    let (cold, _) = timed(|| cache.lookup(&points));
    if cold.iter().any(Option::is_some) {
        return Err("a fresh store served points".to_string());
    }
    let (evaluated, evaluate_s) = timed(|| evaluate_points(&points, threads));
    let (appended, append_s) = timed(|| cache.append(&evaluated));
    appended.map_err(|e| format!("append: {e}"))?;
    let (warm, lookup_s) = timed(|| cache.lookup(&points));
    let hits = warm.iter().filter(|h| h.is_some()).count();
    samples.add("cache.append_s", append_s);
    samples.add("cache.lookup_s", lookup_s);
    samples.add("cache.hit_ratio", hits as f64 / points.len() as f64);
    samples.add("store.recompute_s", evaluate_s);
    Ok(())
}

/// What `--json` would add to a request that does not emit it.
fn json_probe(spec: &SweepSpec, constraints: &Constraints, samples: &mut Samples) {
    let points = evaluate_points(&spec.points(), 1);
    let outcome = outcome(spec, points, 1);
    let frontier = outcome.cross_app_frontier(constraints);
    let (json, s) = timed(|| ng_dse::emit::outcome_to_json(&outcome, &frontier));
    black_box(json);
    samples.add("emit.json_s", s);
}

/// Mean nanoseconds per call of `f` over `items`.
fn ns_per<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let started = Instant::now();
    for item in items {
        f(item);
    }
    started.elapsed().as_secs_f64() * 1e9 / items.len().max(1) as f64
}

/// Per-point model layers over an even sample of the spec's points.
fn model_probes(spec: &SweepSpec, out: &mut JsonObject) {
    const SAMPLE: usize = 20_000;
    let points = spec.points();
    let stride = points.len().div_ceil(SAMPLE).max(1);
    let inputs: Vec<ngpc::EmulatorInput> =
        points.iter().step_by(stride).map(|p| p.emulator_input()).collect();
    let gpu = ng_hw::gpu_ref::RTX3090;

    let breakdown_ns = ns_per(&inputs, |i| {
        black_box(ng_gpu::kernel_breakdown(i.app, i.encoding, i.pixels));
    });
    let pairs: Vec<(ng_hw::NfpFloorplan, u32)> =
        inputs.iter().map(|i| (i.nfp.floorplan(), i.nfp_units)).collect();
    let area_power_ns = ns_per(&pairs, |(f, n)| {
        black_box(ng_hw::ngpc_area_power_vs(f, *n, gpu));
    });
    let mut cache = ng_hw::AreaPowerCache::new();
    for (f, n) in &pairs {
        cache.lookup(f, *n, gpu);
    }
    let cached_ns = ns_per(&pairs, |(f, n)| {
        black_box(cache.lookup(f, *n, gpu));
    });
    let cycles_ns = ns_per(&inputs, |i| {
        black_box(ngpc::per_sample_cycles(i.app, i.encoding, &i.nfp));
    });
    let mut ctx = EmulationContext::new();
    let eval_ns = ns_per(&inputs, |i| {
        black_box(ctx.eval(i));
    });
    let emulate_ns = ns_per(&inputs, |i| {
        black_box(ngpc::emulate(i));
    });
    out.num("gpu.breakdown_ns", breakdown_ns)
        .num("hw.area_power_ns", area_power_ns)
        .num("hw.area_power_cached_ns", cached_ns)
        .num("timing.per_sample_cycles_ns", cycles_ns)
        .num("emulator.eval_ns", eval_ns)
        .num("emulator.emulate_ns", emulate_ns)
        .num("emulator.memo_gain", emulate_ns / eval_ns);
}

/// Everything the traced run reports for the `dse` layers of `spec`.
pub struct DseTrace {
    pub spec: SweepSpec,
    pub replay: Replay,
    pub constraints: Constraints,
    pub threads: usize,
    /// Requests replay until this many seconds have gone (at least one).
    pub seconds: f64,
}

impl DseTrace {
    /// Runs the first-call probes, the replayed requests, the store
    /// probe and the model probes; writes their metrics into `out`.
    /// Returns the median replayed request's wall and the part of it
    /// the timed layer calls cover.
    pub fn run(&self, work: &Path, out: &mut JsonObject) -> Result<(f64, f64), String> {
        // First calls in a fresh process with an empty calibration
        // store: the GPU model's first breakdown, then the fingerprint.
        let first = self.spec.points()[0].emulator_input();
        let (_, first_breakdown) =
            timed(|| black_box(ng_gpu::kernel_breakdown(first.app, first.encoding, first.pixels)));
        let (_, fingerprint) = timed(|| black_box(ng_dse::model_fingerprint()));
        out.num("gpu.first_breakdown_s", first_breakdown).num("dse.fingerprint_s", fingerprint);

        let mut samples = Samples::default();
        if self.replay == Replay::WarmStore {
            // The store the warm requests read, filled as a cold run would.
            store_probe(&self.spec, self.threads, &work.join(".dse-cache"), &mut samples)?;
        }
        let started = Instant::now();
        let mut requests = 0;
        while requests == 0 || started.elapsed().as_secs_f64() < self.seconds {
            request(self.replay, &self.spec, &self.constraints, self.threads, work, &mut samples)?;
            requests += 1;
        }
        match self.replay {
            Replay::NoCache => {
                store_probe(&self.spec, self.threads, &work.join("store-probe"), &mut samples)?
            }
            Replay::WarmStore => json_probe(&self.spec, &self.constraints, &mut samples),
        }
        let m = samples.medians();
        let get = |k: &str| m.get(k).copied().unwrap_or(0.0);
        for key in [
            "spec.points_s",
            "sweep.cross_app_s",
            "pareto.frontier_s",
            "pareto.inserts",
            "pareto.prunes",
            "report.table_s",
            "emit.csv_s",
            "emit.json_s",
            "emit.write_s",
            "emit.bytes",
            "cache.lookup_s",
            "cache.append_s",
            "cache.hit_ratio",
        ] {
            out.num(key, get(key));
        }
        // A warm request evaluates nothing; its evaluation figure is the
        // recompute the store saves, on the same points.
        let (evaluate, evals) = match self.replay {
            Replay::NoCache => (get("sweep.evaluate_s"), get("sweep.evals")),
            Replay::WarmStore => (get("store.recompute_s"), self.spec.point_count() as f64),
        };
        let manifest = match self.replay {
            Replay::WarmStore => get("job.manifest_s") / 2.0,
            Replay::NoCache => {
                let store = work.join("manifest-probe").to_string_lossy().into_owned();
                let m = JobManifest::new(JobMode::Sweep, &self.spec, &store, 1);
                let (saved, s) = timed(|| m.save());
                saved.map_err(|e| format!("manifest: {e}"))?;
                s
            }
        };
        out.num("sweep.evaluate_s", evaluate)
            .num("sweep.evals", evals)
            .num("job.manifest_s", manifest);
        model_probes(&self.spec, out);
        Ok((get("obs.traced_request_s"), get("obs.layer_sum_s")))
    }
}
