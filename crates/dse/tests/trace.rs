//! End-to-end checks of the observability surface: `--trace` writes a
//! Chrome trace whose spans balance and whose counters satisfy the
//! cache-accounting invariant, on a clean run and on a drained one;
//! `--metrics` reports the stage coverage of the `dse` root span; and
//! the progress meter never leaks into stdout (`--quiet` byte-parity).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

fn dse(args: &[&str], envs: &[(&str, &str)]) -> (String, String, Option<i32>) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dse"));
    cmd.args(args).env_remove("NG_DSE_FAULTS").env_remove(ng_obs::progress::PROGRESS_ENV);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("dse runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ng-dse-trace-{tag}-{}", std::process::id()))
}

/// The trace's events, one per line as the writer renders them.
fn trace_events(path: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(path).expect("trace written");
    assert!(text.starts_with("[\n") && text.ends_with("\n]\n"), "not a JSON array:\n{text}");
    text.lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| l.trim_end_matches(',').to_string())
        .collect()
}

/// The value of `"key":"..."` in an event (values here carry no
/// escaped quotes).
fn str_field<'a>(event: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let start = event.find(&pat)? + pat.len();
    Some(&event[start..start + event[start..].find('"')?])
}

/// The value of `"key":N` in an event.
fn num_field(event: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let start = event.find(&pat)? + pat.len();
    let digits: String = event[start..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Replay `B`/`E` events per tid; returns every defect found.
fn unbalanced(events: &[String]) -> Vec<String> {
    let mut stacks: BTreeMap<u64, Vec<&str>> = BTreeMap::new();
    let mut defects = Vec::new();
    for e in events {
        let (Some(ph), Some(tid), Some(path)) =
            (str_field(e, "ph"), num_field(e, "tid"), str_field(e, "path"))
        else {
            continue;
        };
        let stack = stacks.entry(tid).or_default();
        match ph {
            "B" => stack.push(path),
            "E" if stack.last() == Some(&path) => {
                stack.pop();
            }
            _ => defects.push(format!("tid {tid}: {ph} {path}")),
        }
    }
    defects.extend(stacks.values().flatten().map(|p| format!("open: {p}")));
    defects
}

/// The final value of counter `name` (`"ph":"C"` events).
fn counter(events: &[String], name: &str) -> u64 {
    events
        .iter()
        .find(|e| str_field(e, "ph") == Some("C") && str_field(e, "name") == Some(name))
        .and_then(|e| num_field(e, "value"))
        .unwrap_or_else(|| panic!("no `{name}` counter in the trace"))
}

/// The `stage coverage NN.N% of dse` line `--metrics` prints.
fn stage_coverage(stderr: &str) -> f64 {
    stderr
        .lines()
        .find_map(|l| l.strip_prefix("stage coverage ")?.strip_suffix("% of dse"))
        .unwrap_or_else(|| panic!("no stage coverage line:\n{stderr}"))
        .parse()
        .expect("coverage parses")
}

#[test]
fn traced_quick_run_writes_a_balanced_chrome_trace() {
    let trace_path = temp_path("quick.json");
    // The trace overwrites whatever was at the path.
    std::fs::write(&trace_path, "stale bytes from an earlier run\n").unwrap();
    let trace_s = trace_path.display().to_string();

    let (out, err, code) =
        dse(&["--preset", "quick", "--no-cache", "--quiet", "--trace", &trace_s], &[]);
    assert_eq!(code, Some(0), "traced run failed:\nstdout:\n{out}\nstderr:\n{err}");

    let events = trace_events(&trace_path);
    assert!(events.iter().any(|e| e.contains("\"ph\":\"B\"")), "no span opens");
    assert!(events.iter().any(|e| e.contains("\"ph\":\"E\"")), "no span closes");
    assert_eq!(unbalanced(&events), Vec::<String>::new(), "spans do not balance");
    let roots = events.iter().filter(|e| str_field(e, "path") == Some("dse")).count();
    assert_eq!(roots, 2, "one root span open and close");

    let points = counter(&events, "sweep.points");
    assert!(points > 0, "traced run evaluated no points");
    assert_eq!(
        counter(&events, "sweep.cache_hits") + counter(&events, "sweep.fresh_evals"),
        points,
        "hits + fresh_evals != points"
    );

    let _ = std::fs::remove_file(&trace_path);
}

#[test]
fn unwritable_trace_path_fails_the_run() {
    let trace_path = temp_path("missing-dir").join("t.json");
    let trace_s = trace_path.display().to_string();
    let (_, err, code) =
        dse(&["--preset", "quick", "--no-cache", "--quiet", "--trace", &trace_s], &[]);
    assert_eq!(code, Some(1), "a trace that cannot be written fails like --csv:\n{err}");
    assert!(err.contains("cannot write"), "{err}");
}

/// A drained run still writes its trace, with every span closed.
#[test]
fn drained_run_writes_a_balanced_trace() {
    let trace_path = temp_path("drain.json");
    let store = temp_path("drain-store");
    let _ = std::fs::remove_dir_all(&store);
    let trace_s = trace_path.display().to_string();
    let store_s = store.display().to_string();

    let (out, err, code) = dse(
        &["--preset", "quick", "--cache-dir", &store_s, "--quiet", "--trace", &trace_s],
        &[("NG_DSE_FAULTS", "signal:term@point=5")],
    );
    assert_eq!(
        code,
        Some(ng_dse::cancel::EXIT_INTERRUPTED),
        "interrupted run must exit 130:\nstdout: {out}\nstderr: {err}"
    );
    let events = trace_events(&trace_path);
    assert_eq!(unbalanced(&events), Vec::<String>::new(), "spans do not balance");
    assert!(counter(&events, "sweep.points") > 0);

    let _ = std::fs::remove_file(&trace_path);
    let _ = std::fs::remove_dir_all(&store);
}

/// The named stages cover the paper sweep's wall time. The store stays
/// on: with `--no-cache` the sweep is so short that fixed start-up
/// costs outside any stage weigh several percent.
#[test]
fn paper_cold_store_stages_cover_the_run() {
    let store = temp_path("paper-store");
    let _ = std::fs::remove_dir_all(&store);
    let store_s = store.display().to_string();

    let (out, err, code) =
        dse(&["--preset", "paper", "--cache-dir", &store_s, "--quiet", "--metrics"], &[]);
    assert_eq!(code, Some(0), "paper run failed:\nstdout:\n{out}\nstderr:\n{err}");
    let coverage = stage_coverage(&err);
    assert!(coverage >= 95.0, "stages cover only {coverage}% of the paper run:\n{err}");

    let _ = std::fs::remove_dir_all(&store);
}

/// Spans match the stages they name: on the exhaustive space the CSV
/// emit is its own `emit` stage directly under the root, not hidden
/// inside `report`, and the stages cover the run.
#[test]
fn exhaustive_csv_emit_is_its_own_stage_and_stages_cover_the_run() {
    let trace_path = temp_path("lanes.json");
    let csv_path = temp_path("lanes.csv");
    let trace_s = trace_path.display().to_string();
    let csv_s = csv_path.display().to_string();

    let (out, err, code) = dse(
        &[
            "--preset",
            "guided-lanes",
            "--no-cache",
            "--quiet",
            "--metrics",
            "--trace",
            &trace_s,
            "--csv",
            &csv_s,
        ],
        &[],
    );
    assert_eq!(code, Some(0), "traced run failed:\nstdout:\n{out}\nstderr:\n{err}");
    let coverage = stage_coverage(&err);
    assert!(coverage >= 95.0, "stages cover only {coverage}% of the exhaustive run:\n{err}");

    let events = trace_events(&trace_path);
    let paths: Vec<&str> = events
        .iter()
        .filter(|e| str_field(e, "ph") == Some("B"))
        .filter_map(|e| str_field(e, "path"))
        .collect();
    assert!(paths.contains(&"dse/report"), "no report span: {paths:?}");
    assert!(paths.contains(&"dse/emit"), "no emit span under the root: {paths:?}");
    assert!(
        !paths.iter().any(|p| p.starts_with("dse/report/")),
        "nothing may nest inside report: {paths:?}"
    );

    let _ = std::fs::remove_file(&trace_path);
    let _ = std::fs::remove_file(&csv_path);
}

/// The progress meter draws only to stderr: stdout from a run with the
/// meter forced on must be byte-identical to a `--quiet` run, except
/// for the wall-clock throughput line, which legitimately varies.
#[test]
fn quiet_keeps_stdout_byte_identical() {
    let varying = |line: &&str| !line.starts_with("evaluation:");

    let (loud, err, code) =
        dse(&["--preset", "quick", "--no-cache"], &[(ng_obs::progress::PROGRESS_ENV, "1")]);
    assert_eq!(code, Some(0), "run with meter failed:\n{err}");
    assert!(err.contains('\r'), "forced-on meter never drew to stderr:\n{err}");

    let (quiet, err, code) = dse(&["--preset", "quick", "--no-cache", "--quiet"], &[]);
    assert_eq!(code, Some(0), "quiet run failed:\n{err}");
    assert!(!err.contains('\r'), "--quiet still drew a progress line:\n{err}");

    let loud: Vec<&str> = loud.lines().filter(varying).collect();
    let quiet: Vec<&str> = quiet.lines().filter(varying).collect();
    assert_eq!(loud, quiet, "stdout differs with/without the progress meter");
}
