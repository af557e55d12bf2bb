//! `dse` — explore the NGPC design space from the command line.
//!
//! ```text
//! dse --preset paper                        # the flagship 1440-point sweep
//! dse --preset paper --max-area 3 --max-power 5
//! dse --spec sweep.toml --json out.json --csv out.csv
//! dse --preset quick --per-app --threads 4
//! dse --preset guided-lanes --check-headline  # exhaustive ~260k-point space
//! ```

use std::fs::File;
use std::io::{self, BufWriter};
use std::path::Path;
use std::process::ExitCode;

use ng_dse::report::{describe_constraints, print_report};
use ng_dse::{Constraints, SweepEngine, SweepSpec};

const USAGE: &str = "\
dse — NGPC design-space exploration with Pareto frontier extraction

USAGE:
    dse [--preset NAME | --spec FILE.toml] [OPTIONS]
    dse resume [JOB] [--cache-dir DIR] [--quiet]

SPEC:
    --preset NAME        paper | quick | clocks | resolutions | mac-arrays |
                         guided-lanes (default: paper)
    --spec FILE          load a sweep spec from a TOML file
    --apps LIST          override app axis, e.g. nerf,gia
    --encodings LIST     override encoding axis, e.g. hashgrid,densegrid
    --nfp-units LIST     override NFP-count axis, e.g. 8,16,32,64
    --clocks LIST        override clock axis (GHz), e.g. 0.5,1.0,2.0
    --pixels LIST        override resolution axis (pixels per frame)
    --sram-kb LIST       override grid-SRAM axis (KiB per engine)
    --banks LIST         override SRAM bank axis (powers of two)
    --engines LIST       override encoding-engine-count axis, e.g. 8,16,32
    --mac-rows LIST      override MAC-array row axis, e.g. 32,64,128
    --mac-cols LIST      override MAC-array column axis, e.g. 32,64,128
    --lanes LIST         override query-lanes-per-engine axis, e.g. 1,2,4
    --fifo LIST          override input-FIFO-depth axis, e.g. 2,8,64

CONSTRAINTS (filter the reported frontier, not the evaluation):
    --max-area PCT       keep architectures with area ≤ PCT% of the GPU die
    --max-power PCT      keep architectures with power ≤ PCT% of GPU TDP
    --min-speedup X      keep architectures with cross-app speedup ≥ X

EXECUTION:
    --threads N          worker threads (default: all cores)
    --cache-dir DIR      evaluation cache location (default: .dse-cache)
    --no-cache           always re-evaluate, never read or write the cache
    --cache-stats        print per-run cache hit/miss/evaluated counts,
                         per-shard row counts, skipped corrupt rows and
                         cumulative shard lock-wait time

OBSERVABILITY:
    --trace PATH         record the run's spans, store retries and final
                         counter values in memory and write them to PATH
                         as one Chrome trace (chrome://tracing, Perfetto)
                         when the run ends, overwriting PATH. The run
                         first checks its own trace: unbalanced spans or
                         sweep.cache_hits + sweep.fresh_evals !=
                         sweep.points exit 4. A hard exit on a second
                         signal (131) or a panic writes no trace
    --metrics            print the in-process stage profile, its stage
                         coverage of the `dse` root span and the counter
                         deltas to stderr after the run
    --quiet              suppress the live stderr progress line (stdout
                         output is byte-identical either way)

GRACEFUL SHUTDOWN AND RESUME:
    The first SIGINT/SIGTERM drains the run: no new points are
    dispatched, everything already computed is flushed to the point
    store, the job manifest is marked interrupted, and the process
    exits 130. A second signal exits 131 immediately (the store's
    appends are crash-safe either way). Every cache-enabled sweep
    writes a durable job manifest to <cache-dir>/jobs/job-*.json
    before evaluating.

    dse resume [JOB]     re-enter an interrupted job and evaluate only
                         its missing tail (the store replays the prefix
                         as warm hits, so the final output is
                         byte-identical to an uninterrupted run). JOB
                         is a job id or a manifest path; omitted, the
                         newest resumable job is picked
      --cache-dir DIR    where to look for jobs (default: .dse-cache)
      --quiet            suppress the live progress line

FAULT INJECTION (deterministic chaos testing):
    --faults PLAN        arm a seeded fault plan in this process;
                         equivalent env: NG_DSE_FAULTS. PLAN is
                         `;`-separated faults, e.g.
                         `seed=7;append:io@p=0.01,n=3`,
                         `shard:torn-tail`, `append:enospc`,
                         `signal:term@point=5`

OUTPUT:
    --top N              frontier rows to print (default: 16)
    --per-app            also print each app's own Pareto frontier
    --csv PATH           write every evaluated point as CSV
    --json PATH          write spec + stats + points + frontier as JSON
    --check-headline     exit non-zero if the paper's NGPC-64 organisation
                         (hashgrid, FHD, 64 NFPs, 1 GHz, 1MB/8-bank grid
                         SRAMs, 16 engines, 64x64 MACs) was evaluated but
                         is NOT on the cross-app Pareto frontier. Lanes
                         and FIFO depth are left free: guided-lanes
                         right-sizes the FIFO to 2 entries (the CI guard)
    --help               this text

EXIT CODES (shared by every mode; a check's code is read by CI):
    0    success
    1    run failed (I/O, bad spec file content, failed paper check)
    2    usage or spec mistake — retrying the same invocation cannot help
    4    a check found defects (--trace: unbalanced spans or a broken
         counter invariant)
    130  drained gracefully after SIGINT/SIGTERM; `dse resume` finishes the job
    131  hard exit on a second signal before the drain finished
";

/// A CLI failure carrying the process exit code. Plain `String` errors
/// convert at code 1 (generic failure); usage/spec mistakes exit with
/// [`ng_dse::cancel::EXIT_USAGE`].
struct CliError {
    code: u8,
    message: String,
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError { code: 1, message }
    }
}

/// A usage/spec mistake: retrying the same invocation cannot help.
fn usage_err(message: String) -> CliError {
    CliError { code: ng_dse::cancel::EXIT_USAGE as u8, message }
}

/// A `--check` audit found defects in the artifact it examined.
fn check_err(message: String) -> CliError {
    CliError { code: ng_dse::cancel::EXIT_CHECK_FAILED as u8, message }
}

/// The run drained gracefully on SIGINT/SIGTERM; `dse resume` owes the
/// tail.
fn interrupted_err(message: String) -> CliError {
    CliError { code: ng_dse::cancel::EXIT_INTERRUPTED as u8, message }
}

struct Cli {
    spec: SweepSpec,
    constraints: Constraints,
    threads: Option<usize>,
    cache_dir: Option<String>,
    no_cache: bool,
    cache_stats: bool,
    top: usize,
    per_app: bool,
    csv: Option<String>,
    json: Option<String>,
    check_headline: bool,
    trace: Option<String>,
    faults: Option<String>,
    metrics: bool,
    quiet: bool,
}

fn parse_list<T>(
    flag: &str,
    value: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Vec<T>, String> {
    let items: Vec<T> = value
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| parse(s).ok_or_else(|| format!("{flag}: cannot parse `{s}`")))
        .collect::<Result<_, _>>()?;
    if items.is_empty() {
        return Err(format!("{flag}: empty list"));
    }
    Ok(items)
}

fn parse_args(args: &[String]) -> Result<Option<Cli>, String> {
    let mut preset: Option<String> = None;
    let mut spec_file: Option<String> = None;
    let mut cli = Cli {
        spec: SweepSpec::paper(),
        constraints: Constraints::NONE,
        threads: None,
        cache_dir: None,
        no_cache: false,
        cache_stats: false,
        top: 16,
        per_app: false,
        csv: None,
        json: None,
        check_headline: false,
        trace: None,
        faults: None,
        metrics: false,
        quiet: false,
    };
    // Axis overrides are applied after the base spec is chosen.
    let mut overrides: Vec<(String, String)> = Vec::new();

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            it.next().cloned().ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--help" | "-h" => {
                print!("{USAGE}");
                return Ok(None);
            }
            "--preset" => preset = Some(value("--preset")?),
            "--spec" => spec_file = Some(value("--spec")?),
            "--apps" | "--encodings" | "--nfp-units" | "--clocks" | "--pixels" | "--sram-kb"
            | "--banks" | "--engines" | "--mac-rows" | "--mac-cols" | "--lanes" | "--fifo" => {
                let v = value(arg)?;
                overrides.push((arg.clone(), v));
            }
            "--max-area" => {
                cli.constraints.max_area_pct =
                    Some(value(arg)?.parse().map_err(|_| "--max-area: not a number")?)
            }
            "--max-power" => {
                cli.constraints.max_power_pct =
                    Some(value(arg)?.parse().map_err(|_| "--max-power: not a number")?)
            }
            "--min-speedup" => {
                cli.constraints.min_speedup =
                    Some(value(arg)?.parse().map_err(|_| "--min-speedup: not a number")?)
            }
            "--threads" => {
                cli.threads = Some(value(arg)?.parse().map_err(|_| "--threads: not a number")?)
            }
            "--cache-dir" => cli.cache_dir = Some(value(arg)?),
            "--no-cache" => cli.no_cache = true,
            "--trace" => cli.trace = Some(value(arg)?),
            "--faults" => cli.faults = Some(value(arg)?),
            "--metrics" => cli.metrics = true,
            "--quiet" => cli.quiet = true,
            "--cache-stats" => cli.cache_stats = true,
            "--top" => cli.top = value(arg)?.parse().map_err(|_| "--top: not a number")?,
            "--per-app" => cli.per_app = true,
            "--csv" => cli.csv = Some(value(arg)?),
            "--json" => cli.json = Some(value(arg)?),
            "--check-headline" => cli.check_headline = true,
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }

    if preset.is_some() && spec_file.is_some() {
        return Err("--preset and --spec are mutually exclusive".to_string());
    }
    if let Some(name) = preset {
        cli.spec = SweepSpec::preset(&name).ok_or_else(|| {
            format!("unknown preset `{name}` (have: {})", SweepSpec::PRESETS.join(", "))
        })?;
    } else if let Some(path) = spec_file {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        cli.spec = SweepSpec::from_toml_str(&text).map_err(|e| e.to_string())?;
        // A spec file may carry its own constraints; CLI flags override.
        let file_c = cli.spec.constraints;
        cli.constraints = Constraints {
            max_area_pct: cli.constraints.max_area_pct.or(file_c.max_area_pct),
            max_power_pct: cli.constraints.max_power_pct.or(file_c.max_power_pct),
            min_speedup: cli.constraints.min_speedup.or(file_c.min_speedup),
        };
    }

    for (flag, v) in overrides {
        match flag.as_str() {
            "--apps" => cli.spec.apps = parse_list(&flag, &v, ng_dse::spec::parse_app)?,
            "--encodings" => {
                cli.spec.encodings = parse_list(&flag, &v, ng_dse::spec::parse_encoding)?
            }
            "--nfp-units" => cli.spec.nfp_units = parse_list(&flag, &v, |s| s.parse().ok())?,
            "--clocks" => cli.spec.clock_ghz = parse_list(&flag, &v, |s| s.parse().ok())?,
            "--pixels" => cli.spec.pixels = parse_list(&flag, &v, |s| s.parse().ok())?,
            "--sram-kb" => cli.spec.grid_sram_kb = parse_list(&flag, &v, |s| s.parse().ok())?,
            "--banks" => cli.spec.grid_sram_banks = parse_list(&flag, &v, |s| s.parse().ok())?,
            "--engines" => cli.spec.encoding_engines = parse_list(&flag, &v, |s| s.parse().ok())?,
            "--mac-rows" => cli.spec.mac_rows = parse_list(&flag, &v, |s| s.parse().ok())?,
            "--mac-cols" => cli.spec.mac_cols = parse_list(&flag, &v, |s| s.parse().ok())?,
            "--lanes" => cli.spec.lanes_per_engine = parse_list(&flag, &v, |s| s.parse().ok())?,
            "--fifo" => cli.spec.input_fifo_depth = parse_list(&flag, &v, |s| s.parse().ok())?,
            _ => unreachable!("override flags are filtered above"),
        }
    }
    // Validate the merged spec here, so a bad override exits as a usage
    // mistake before any job manifest is written.
    cli.spec.validate().map_err(|e| e.to_string())?;
    cli.constraints.validate()?;
    Ok(Some(cli))
}

/// Whether the paper's NGPC-64 headline configuration survived frontier
/// extraction. Returns `None` when the headline point was not evaluated
/// (axis overrides can sweep it away entirely), `Some(on_frontier)`
/// otherwise. `archs` is the sweep's cross-app fold and `frontier` its
/// constrained Pareto frontier. The match is
/// [`ng_dse::ArchPoint::is_paper_organisation`], which leaves the
/// lane/FIFO axes free.
fn headline_check(
    archs: &[ng_dse::ArchPoint],
    frontier: &[ng_dse::ArchPoint],
    constraints: &Constraints,
) -> Option<bool> {
    if !archs.iter().any(ng_dse::ArchPoint::is_paper_organisation) {
        return None;
    }
    let headline = frontier.iter().find(|a| a.is_paper_organisation());
    match headline {
        Some(a) => println!(
            "\npaper check: NGPC-64 (hashgrid, 1 GHz, 1MB/8-bank, 64x64/16e) is on the frontier — \
             {:.2}x avg, {:.2}% area, {:.2}% power (paper: 39.04x, ~36.2%, ~22.1%)",
            a.avg_speedup, a.area_pct_of_gpu, a.power_pct_of_gpu
        ),
        None => println!(
            "\npaper check: NGPC-64 headline point is NOT on the frontier under constraints [{}]",
            describe_constraints(constraints)
        ),
    }
    Some(headline.is_some())
}

/// Mark a job manifest interrupted (progress snapshot included), save
/// it, and build the user-facing drain message with its resume hint.
fn finish_job_interrupted(
    job: &mut Option<ng_dse::job::JobManifest>,
    delivered: usize,
    detail: &str,
) -> String {
    let hint = match job {
        Some(j) => {
            j.status = ng_dse::job::JobStatus::Interrupted;
            j.delivered = delivered;
            if let Err(e) = j.save() {
                eprintln!("dse: could not update job manifest {} ({e})", j.id);
            }
            format!("; finish with `dse resume {}`", j.id)
        }
        None => String::new(),
    };
    format!("interrupted: {detail}{hint}")
}

/// Mark a job manifest done and save it (best effort — the results are
/// already in the store and on stdout).
fn finish_job_done(job: &mut Option<ng_dse::job::JobManifest>, delivered: usize) {
    if let Some(j) = job {
        j.status = ng_dse::job::JobStatus::Done;
        j.delivered = delivered;
        if let Err(e) = j.save() {
            eprintln!("dse: could not update job manifest {} ({e})", j.id);
        }
    }
}

/// `dse resume [JOB]`: re-enter an interrupted (or crashed) job from
/// its durable manifest and evaluate only the missing tail — the point
/// store replays everything already delivered as warm hits, so the
/// completed run's output is byte-identical to an uninterrupted one.
fn run_resume(args: &[String]) -> Result<(), CliError> {
    let mut operand: Option<String> = None;
    let mut cache_dir: Option<String> = None;
    let mut quiet = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                print!("{USAGE}");
                return Ok(());
            }
            "--cache-dir" => {
                cache_dir = Some(
                    it.next()
                        .cloned()
                        .ok_or_else(|| usage_err("--cache-dir needs a value".to_string()))?,
                )
            }
            "--quiet" => quiet = true,
            other if !other.starts_with("--") && operand.is_none() => {
                operand = Some(other.to_string())
            }
            other => {
                return Err(usage_err(format!(
                    "resume: unexpected argument `{other}` (try --help)"
                )))
            }
        }
    }
    let lookup_dir = cache_dir.clone().unwrap_or_else(|| SweepEngine::DEFAULT_CACHE_DIR.into());
    let manifest = match &operand {
        Some(op) => {
            ng_dse::job::JobManifest::find(Path::new(&lookup_dir), op).map_err(usage_err)?
        }
        None => {
            ng_dse::job::JobManifest::latest_resumable(Path::new(&lookup_dir)).ok_or_else(|| {
                usage_err(format!(
                    "resume: no resumable job under {lookup_dir}/jobs (none recorded, or all done)"
                ))
            })?
        }
    };
    if manifest.status == ng_dse::job::JobStatus::Done {
        return Err(usage_err(format!(
            "resume: job {} already ran to completion; re-run the original command for a \
             (fully cached) repeat",
            manifest.id
        )));
    }
    if !manifest.models_match() {
        return Err(format!(
            "resume: job {} was computed under models {} fingerprint {:016x}; this binary is \
             {} fingerprint {:016x} — its results live in a different store generation, so \
             rerun the sweep instead",
            manifest.id,
            manifest.model_version,
            manifest.fingerprint,
            ng_dse::MODEL_VERSION,
            ng_dse::model_fingerprint()
        )
        .into());
    }
    let spec = manifest
        .spec()
        .map_err(|e| CliError::from(format!("resume: manifest {}: {e}", manifest.id)))?;
    eprintln!(
        "dse: resuming {} ({} mode; {} of {} points were delivered before the interrupt)",
        manifest.id,
        manifest.mode.as_str(),
        manifest.delivered,
        manifest.total_points
    );
    ng_dse::obs_counters::jobs_resumed().incr();
    let cli = Cli {
        spec,
        constraints: Constraints {
            max_area_pct: manifest.max_area,
            max_power_pct: manifest.max_power,
            min_speedup: manifest.min_speedup,
        },
        threads: manifest.threads,
        cache_dir: Some(manifest.cache_dir.clone()),
        no_cache: false,
        cache_stats: false,
        top: 16,
        per_app: false,
        csv: manifest.csv.clone(),
        json: manifest.json_out.clone(),
        check_headline: false,
        trace: None,
        faults: None,
        metrics: false,
        quiet,
    };
    run_parsed(&cli, Some(manifest))
}

/// `--metrics`: the in-process stage profile and counter growth for
/// this run, on stderr (stdout stays reserved for the report).
fn print_metrics(before: &ng_obs::CounterSnapshot) {
    let profile = ng_obs::profile_snapshot();
    eprintln!("\n-- stage profile (this process) --");
    let rows: Vec<Vec<String>> = profile
        .iter()
        .map(|(path, s)| {
            vec![
                path.clone(),
                s.calls.to_string(),
                format!("{:.2}", s.total_us as f64 / 1000.0),
                format!("{:.2}", s.self_us as f64 / 1000.0),
            ]
        })
        .collect();
    eprint!("{}", ng_dse::report::render_table(&["stage", "calls", "total ms", "self ms"], &rows));
    if let Some((_, root)) = profile.iter().find(|(path, _)| path == "dse") {
        let covered = 1.0 - root.self_us as f64 / root.total_us.max(1) as f64;
        eprintln!("stage coverage {:.1}% of dse", 100.0 * covered);
    }
    eprintln!("\n-- counters (growth this run) --");
    let delta = ng_obs::counter::snapshot().delta_since(before);
    if delta.is_empty() {
        eprintln!("(no counters moved)");
    }
    for (name, val) in delta.iter() {
        eprintln!("{name} = {val}");
    }
}

fn run(args: &[String]) -> Result<(), CliError> {
    // The watcher is installed before any work: the first
    // SIGINT/SIGTERM drains, the second hard-exits (see
    // `ng_dse::cancel`).
    ng_dse::cancel::install_signal_watcher();
    if args.first().map(String::as_str) == Some("resume") {
        return run_resume(&args[1..]);
    }
    let Some(cli) = parse_args(args).map_err(usage_err)? else { return Ok(()) };
    run_parsed(&cli, None)
}

/// Everything after argument parsing: observability/fault arming, the
/// root span, mode dispatch, counter flush. `resumed` carries the job
/// manifest when entered through `dse resume`.
fn run_parsed(cli: &Cli, resumed: Option<ng_dse::job::JobManifest>) -> Result<(), CliError> {
    // Recording starts before the root span so the trace sees every
    // event.
    if cli.trace.is_some() {
        ng_obs::trace::start();
    }
    // Arm the fault plan before any injection point can fire.
    if let Some(plan) = &cli.faults {
        ng_fault::install_str(plan).map_err(|e| usage_err(format!("--faults: {e}")))?;
    } else {
        ng_fault::init_from_env()
            .map_err(|e| usage_err(format!("{}: {e}", ng_fault::FAULTS_ENV)))?;
    }
    let counters_before = ng_obs::counter::snapshot();
    let result = {
        let _root = ng_obs::span("dse");
        run_mode(cli, resumed)
    };
    // The root span is closed: the optional in-process summary, then
    // the trace, on every path that returns (a drain included).
    if cli.metrics {
        print_metrics(&counters_before);
    }
    match &cli.trace {
        Some(path) => finish_trace(path, result),
        None => result,
    }
}

/// Check the recorded trace, then write it to `path` as Chrome JSON.
/// A defect (unbalanced spans, hits + fresh evaluations != points)
/// fails an otherwise successful run with exit 4, as does a write
/// failure with exit 1; a run that already failed keeps its own exit
/// code and reports both on stderr. A failed run (a drain included)
/// skips the counter invariant, since it may deliver fewer points than
/// it counted.
fn finish_trace(path: &str, result: Result<(), CliError>) -> Result<(), CliError> {
    let mut defects: Vec<String> = ng_obs::trace::unbalanced()
        .into_iter()
        .map(|(tid, what)| format!("tid {tid}: {what}"))
        .collect();
    use ng_dse::obs_counters::{sweep_cache_hits, sweep_fresh_evals, sweep_points};
    let (points, hits, fresh) =
        (sweep_points().get(), sweep_cache_hits().get(), sweep_fresh_evals().get());
    if result.is_ok() && hits + fresh != points {
        defects.push(format!(
            "sweep.cache_hits ({hits}) + sweep.fresh_evals ({fresh}) != sweep.points ({points})"
        ));
    }
    let written = write_atomically(path, ng_obs::trace::write_chrome_trace);
    match result {
        Ok(()) => {
            written?;
            if defects.is_empty() {
                Ok(())
            } else {
                Err(check_err(format!("--trace {path}: {}", defects.join("; "))))
            }
        }
        Err(e) => {
            for d in defects.iter().chain(written.as_ref().err()) {
                eprintln!("dse: --trace {path}: {d}");
            }
            Err(e)
        }
    }
}

/// Everything between the `dse` root span's open and close: mode
/// dispatch and reporting.
fn run_mode(cli: &Cli, resumed: Option<ng_dse::job::JobManifest>) -> Result<(), CliError> {
    // Every cache-enabled run is durable: write a `Running` job
    // manifest before evaluating, finish it `Done` or `Interrupted`.
    // A manifest that cannot be written (exhausted disk) costs
    // resumability, never the run.
    let mut job: Option<ng_dse::job::JobManifest> = if cli.no_cache {
        None
    } else {
        let manifest = match resumed {
            Some(mut m) => {
                m.status = ng_dse::job::JobStatus::Running;
                m
            }
            None => {
                let cache_dir =
                    cli.cache_dir.clone().unwrap_or_else(|| SweepEngine::DEFAULT_CACHE_DIR.into());
                let mut m = ng_dse::job::JobManifest::new(
                    ng_dse::job::JobMode::Sweep,
                    &cli.spec,
                    &cache_dir,
                    cli.spec.point_count(),
                );
                m.threads = cli.threads;
                m.csv = cli.csv.clone();
                m.json_out = cli.json.clone();
                m.max_area = cli.constraints.max_area_pct;
                m.max_power = cli.constraints.max_power_pct;
                m.min_speedup = cli.constraints.min_speedup;
                m
            }
        };
        match manifest.save() {
            Ok(_) => Some(manifest),
            Err(e) => {
                eprintln!(
                    "dse: could not write job manifest {} ({e}); this run is not resumable",
                    manifest.id
                );
                None
            }
        }
    };

    let mut engine = SweepEngine::new().with_quiet(cli.quiet);
    if let Some(threads) = cli.threads {
        engine = engine.with_threads(threads);
    }
    if cli.no_cache {
        engine = engine.without_cache();
    } else if let Some(dir) = &cli.cache_dir {
        engine = engine.with_cache_dir(dir);
    }
    let outcome = match engine
        .run_draining(cli.spec.clone(), ng_dse::cancel::cancelled)
        .map_err(|e| e.to_string())?
    {
        ng_dse::SweepRun::Complete(outcome) => outcome,
        ng_dse::SweepRun::Interrupted(drained) => {
            let delivered = drained.cache_hits + drained.freshly_completed;
            return Err(interrupted_err(finish_job_interrupted(
                &mut job,
                delivered,
                &format!(
                    "sweep drained with {} of {} points flushed ({} remaining)",
                    delivered,
                    drained.total_points,
                    drained.remaining()
                ),
            )));
        }
    };
    finish_job_done(&mut job, outcome.points.len());
    // The cross-app fold and the constrained frontier are computed
    // once, each its own stage; the report, the headline check and
    // the JSON emitter all read them.
    let archs = {
        let _span = ng_obs::span("cross-app");
        outcome.cross_app()
    };
    let frontier = {
        let _span = ng_obs::span("frontier");
        ng_dse::sweep::arch_frontier(&archs, &cli.constraints)
    };
    {
        let _span = ng_obs::span("report");
        print_report(&outcome, &archs, &frontier, &cli.constraints, cli.top, cli.per_app);
    }
    if cli.cache_stats {
        println!("{}", ng_dse::report::cache_stats_line(&outcome));
        if outcome.cache_path.is_some() {
            let dir =
                cli.cache_dir.clone().unwrap_or_else(|| SweepEngine::DEFAULT_CACHE_DIR.into());
            let cache = ng_dse::EvalCache::new(&dir);
            println!(
                "{}",
                ng_dse::report::shard_stats_report(
                    &cache.shard_stats(),
                    ng_dse::obs_counters::store_lock_wait_us().get(),
                    ng_dse::obs_counters::store_tail_heals().get(),
                    ng_dse::obs_counters::cache_rows_skipped().get(),
                    ng_dse::obs_counters::store_degraded_appends().get(),
                    &ng_dse::job::JobManifest::list(std::path::Path::new(&dir)),
                )
            );
        }
    }
    {
        let _span = ng_obs::span("check");
        let judge_headline =
            cli.spec.name == "paper" || cli.spec.name == "mac-arrays" || cli.check_headline;
        let headline =
            if judge_headline { headline_check(&archs, &frontier, &cli.constraints) } else { None };
        if cli.check_headline {
            match headline {
                Some(true) => {}
                Some(false) => {
                    return Err("--check-headline: the paper's NGPC-64 point dropped off the \
                                Pareto frontier"
                        .to_string()
                        .into())
                }
                None => {
                    return Err("--check-headline: the sweep does not contain the paper's NGPC-64 \
                                point"
                        .to_string()
                        .into())
                }
            }
        }
    }

    let _span = (cli.csv.is_some() || cli.json.is_some()).then(|| ng_obs::span("emit"));
    if let Some(path) = &cli.csv {
        write_atomically(path, |w| ng_dse::emit::write_points_csv(w, &outcome.points))?;
        println!("wrote {} points to {path}", outcome.points.len());
    }
    if let Some(path) = &cli.json {
        write_atomically(path, |w| ng_dse::emit::write_outcome_json(w, &outcome, &frontier))?;
        println!("wrote outcome JSON to {path}");
    }
    Ok(())
}

/// Stream `write`'s output to `path` so that a reader (or an
/// interrupted run) sees the old file or the new one, never a
/// half-written hybrid: the bytes go through a buffered writer to a
/// sibling temp file, which is then renamed over `path`. Any failure
/// removes the temp file.
fn write_atomically(
    path: &str,
    write: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
) -> Result<(), String> {
    let target = Path::new(path);
    let name = target.file_name().ok_or_else(|| format!("cannot write {path}: not a file name"))?;
    let mut tmp_name = std::ffi::OsString::from(".");
    tmp_name.push(name);
    tmp_name.push(format!(".tmp-{}", std::process::id()));
    let tmp = target.with_file_name(tmp_name);
    let result = File::create(&tmp)
        .and_then(|file| {
            let mut w = BufWriter::new(file);
            write(&mut w)?;
            // `into_inner` flushes and reports the error a drop would
            // swallow.
            w.into_inner().map_err(io::IntoInnerError::into_error)?;
            Ok(())
        })
        .and_then(|()| std::fs::rename(&tmp, target));
    if let Err(e) = result {
        let _ = std::fs::remove_file(&tmp);
        return Err(format!("cannot write {path}: {e}"));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dse: {}", e.message);
            ExitCode::from(e.code)
        }
    }
}
