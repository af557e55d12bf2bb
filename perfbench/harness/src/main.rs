//! In-process half of the NGPC benchmark; `perfbench/run.py` drives it.
//!
//! Subcommands (each prints one JSON object as its last stdout line):
//!
//! * `reference-csv --preset NAME --threads T --out FILE` — the points
//!   CSV of a `SweepEngine::without_cache()` run, the reference the
//!   `dse` CLI's output must match byte for byte.
//! * `stream --seed N --seconds S` — the untraced `nfp-stream` workload.
//! * `layers --workload W --seed N --seconds S --threads T --work DIR
//!   [--max-area A --max-power P]` — the traced run's per-layer figures.

mod layers;
mod nfp;
mod util;

use std::path::Path;
use std::process::ExitCode;

use ng_dse::{Constraints, SweepEngine, SweepSpec};

use layers::{DseTrace, Replay};
use util::{median, Args, JsonObject};

fn reference_csv(args: &Args) -> Result<JsonObject, String> {
    let name = args.get("preset").ok_or("missing --preset")?;
    let spec = SweepSpec::preset(name).ok_or_else(|| format!("unknown preset `{name}`"))?;
    let out = args.get("out").ok_or("missing --out")?;
    let outcome = SweepEngine::new()
        .without_cache()
        .with_quiet(true)
        .with_threads(args.parse("threads")?)
        .run(&spec)
        .map_err(|e| e.to_string())?;
    let csv = ng_dse::emit::points_to_csv(&outcome.points);
    std::fs::write(out, &csv).map_err(|e| format!("cannot write {out}: {e}"))?;
    let mut json = JsonObject::default();
    json.int("points", outcome.points.len() as u64).int("bytes", csv.len() as u64);
    Ok(json)
}

fn layers(args: &Args) -> Result<JsonObject, String> {
    let workload = args.get("workload").ok_or("missing --workload")?;
    let seed: u64 = args.parse("seed")?;
    let seconds: f64 = args.parse("seconds")?;
    let threads: usize = args.parse("threads")?;
    let work = Path::new(args.get("work").ok_or("missing --work")?);
    std::fs::create_dir_all(work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let constraints = Constraints {
        max_area_pct: args.get("max-area").map(|_| args.parse("max-area")).transpose()?,
        max_power_pct: args.get("max-power").map(|_| args.parse("max-power")).transpose()?,
        min_speedup: None,
    };
    let (spec, replay, dse_seconds) = match workload {
        "exhaustive" => (SweepSpec::guided_lanes(), Replay::NoCache, seconds),
        "paper-iterate" => (SweepSpec::paper(), Replay::WarmStore, seconds),
        // The stream never runs `dse`; its design points get one replay.
        "nfp-stream" => (nfp::stream_spec(), Replay::NoCache, 0.0),
        other => return Err(format!("unknown workload `{other}`")),
    };
    let mut out = JsonObject::default();
    let (traced, layer_sum) = DseTrace { spec, replay, constraints, threads, seconds: dse_seconds }
        .run(work, &mut out)?;
    let engines = if workload == "nfp-stream" {
        let e = nfp::traced_stream(seed, seconds);
        // For the stream a request is one batch: `run_batch` untraced,
        // the encoding and MLP loops traced.
        out.num("obs.untraced_request_s", median(&e.untraced_batch_s))
            .num("obs.traced_request_s", median(&e.traced_batch_s))
            .num("obs.layer_sum_s", median(&e.layer_sum_s));
        e
    } else {
        out.num("obs.traced_request_s", traced).num("obs.layer_sum_s", layer_sum);
        nfp::paper_nfp_probe(seed)
    };
    engines.write(&mut out);
    out.int("attempted", engines.attempted).int("failed", engines.failed);
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first().cloned() else {
        eprintln!("usage: ngpc-perfbench reference-csv|stream|layers [--flag value]...");
        return ExitCode::from(2);
    };
    let args = Args::new(argv[1..].to_vec());
    let result = match command.as_str() {
        "reference-csv" => reference_csv(&args),
        "stream" => (|| Ok(nfp::run_stream(args.parse("seed")?, args.parse("seconds")?)))(),
        "layers" => layers(&args),
        other => Err(format!("unknown subcommand `{other}`")),
    };
    match result {
        Ok(json) => {
            println!("{}", json.line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ngpc-perfbench {command}: {e}");
            ExitCode::FAILURE
        }
    }
}
