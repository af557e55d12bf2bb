//! Interrupt → durable job manifest → `dse resume` (ISSUE 9): a
//! SIGTERM-killed sweep must leave a resumable manifest behind, and
//! `dse resume` must complete it byte-identically to a run that was
//! never interrupted.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

/// Run the real `dse` binary with `envs` set, returning
/// (stdout, stderr, exit code).
fn dse(args: &[&str], envs: &[(&str, &str)]) -> (String, String, Option<i32>) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dse"));
    cmd.args(args);
    // A fault plan leaking in from the invoking shell would change
    // what this test measures.
    cmd.env_remove("NG_DSE_FAULTS");
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

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ng-dse-resume-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn sigterm_leaves_a_manifest_and_resume_completes_byte_identical() {
    let dir = tmpdir("parity");
    let store = dir.join("store").display().to_string();
    let out_csv = dir.join("out.csv").display().to_string();
    let ref_csv = dir.join("ref.csv").display().to_string();

    // The fault-free reference.
    let (out, err, code) = dse(&["--preset", "quick", "--no-cache", "--csv", &ref_csv], &[]);
    assert_eq!(code, Some(0), "reference run failed:\nstdout: {out}\nstderr: {err}");

    // A real SIGTERM at the 5th evaluation: the run drains (in-flight
    // points finish and flush), exits 130, and leaves an Interrupted
    // manifest pointing at everything needed to finish the job.
    let (out, err, code) = dse(
        &["--preset", "quick", "--cache-dir", &store, "--csv", &out_csv, "--threads", "2"],
        &[("NG_DSE_FAULTS", "signal:term@point=5")],
    );
    assert_eq!(
        code,
        Some(ng_dse::cancel::EXIT_INTERRUPTED),
        "interrupted run must exit 130:\nstdout: {out}\nstderr: {err}"
    );
    assert!(err.contains("drain"), "the drain must be announced on stderr:\n{err}");
    let manifest = ng_dse::job::JobManifest::latest_resumable(dir.join("store").as_path())
        .expect("the killed run left a resumable manifest");
    assert_eq!(manifest.status, ng_dse::job::JobStatus::Interrupted);
    assert!(manifest.delivered < manifest.total_points, "{manifest:?}");
    assert_eq!(manifest.csv.as_deref(), Some(out_csv.as_str()), "{manifest:?}");

    // `dse resume` (bare: newest resumable job) re-enters the exact
    // run mode, pays only the missing tail, and writes the same CSV an
    // uninterrupted run would have.
    let (out, err, code) = dse(&["resume", "--cache-dir", &store], &[]);
    assert_eq!(code, Some(0), "resume failed:\nstdout: {out}\nstderr: {err}");
    assert!(err.contains(&format!("resuming {}", manifest.id)), "{err}");
    assert_eq!(
        fs::read(&out_csv).unwrap(),
        fs::read(&ref_csv).unwrap(),
        "resumed CSV must be byte-identical to the uninterrupted run"
    );

    // The finished job is Done; resuming it again by id is refused
    // with a usage error, and bare `dse resume` finds nothing left.
    let job_path = manifest.path();
    let (_, err, code) =
        dse(&["resume", &job_path.display().to_string(), "--cache-dir", &store], &[]);
    assert_eq!(code, Some(ng_dse::cancel::EXIT_USAGE), "a Done job must be refused:\n{err}");
    assert!(err.contains("completion"), "{err}");
    let (_, err, code) = dse(&["resume", "--cache-dir", &store], &[]);
    assert_eq!(code, Some(ng_dse::cancel::EXIT_USAGE));
    assert!(err.contains("no resumable job"), "{err}");

    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resume_on_an_empty_store_is_a_usage_error() {
    let dir = tmpdir("empty");
    let (_, err, code) = dse(&["resume", "--cache-dir", &dir.display().to_string()], &[]);
    assert_eq!(code, Some(ng_dse::cancel::EXIT_USAGE));
    assert!(err.contains("no resumable job"), "{err}");
    fs::remove_dir_all(&dir).unwrap();
}

/// A bad axis override or constraint bound is a usage mistake (exit 2)
/// caught before the job manifest is written, so it can never become
/// the "newest resumable job" a bare `dse resume` would pick up.
#[test]
fn bad_cli_overrides_exit_2_before_writing_a_job() {
    for bad in [
        ["--engines", "0"],
        ["--clocks", "9"],
        ["--banks", "3"],
        ["--max-area", "nan"],
        ["--max-area", "-5"],
        ["--min-speedup", "inf"],
    ] {
        let dir = tmpdir("bad-override");
        let store = dir.join("store").display().to_string();
        let (_, err, code) =
            dse(&["--preset", "quick", "--cache-dir", &store, "--quiet", bad[0], bad[1]], &[]);
        assert_eq!(code, Some(ng_dse::cancel::EXIT_USAGE), "{bad:?}:\n{err}");
        assert!(!dir.join("store").join("jobs").exists(), "{bad:?} wrote a job manifest");
        let (_, err, code) = dse(&["resume", "--cache-dir", &store], &[]);
        assert_eq!(code, Some(ng_dse::cancel::EXIT_USAGE), "{bad:?}: resume:\n{err}");
        assert!(err.contains("no resumable job"), "{bad:?}: resume:\n{err}");
        fs::remove_dir_all(&dir).unwrap();
    }
}
