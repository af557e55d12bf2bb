//! Resource-exhaustion degradation (ISSUE 9): with every store append
//! failing ENOSPC-style, a sweep must still complete and deliver its
//! results — diverting fresh rows to the per-process in-memory
//! overlay, warning exactly once, and surfacing the damage in the
//! `store.degraded_appends` counter and the `--cache-stats` report.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

fn dse(args: &[&str], envs: &[(&str, &str)]) -> (String, String, Option<i32>) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dse"));
    cmd.args(args);
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
    let dir = std::env::temp_dir().join(format!("ng-dse-degrade-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn enospc_degrades_to_the_overlay_and_the_run_still_delivers() {
    let dir = tmpdir("enospc");
    let store = dir.join("store").display().to_string();
    let out_csv = dir.join("out.csv").display().to_string();
    let ref_csv = dir.join("ref.csv").display().to_string();

    let (out, err, code) = dse(&["--preset", "quick", "--no-cache", "--csv", &ref_csv], &[]);
    assert_eq!(code, Some(0), "reference run failed:\nstdout: {out}\nstderr: {err}");

    // Uncapped `append:enospc`: every shard append of the 16-point
    // sweep fails as a full disk would. Exhaustion must NOT kill the
    // run (exit 0, full CSV) — it degrades.
    let (out, err, code) = dse(
        &[
            "--preset",
            "quick",
            "--cache-dir",
            &store,
            "--csv",
            &out_csv,
            "--cache-stats",
            "--threads",
            "2",
        ],
        &[("NG_DSE_FAULTS", "append:enospc")],
    );
    assert_eq!(code, Some(0), "degraded run must complete:\nstdout: {out}\nstderr: {err}");
    assert_eq!(
        err.matches("degrading to an in-memory overlay").count(),
        1,
        "exactly one degradation warning:\n{err}"
    );
    assert_eq!(
        fs::read(&out_csv).unwrap(),
        fs::read(&ref_csv).unwrap(),
        "a degraded run still delivers the full, correct CSV"
    );
    // All 16 fresh rows were diverted, and the report says so.
    assert!(
        out.contains("store degraded appends this process: 16 row(s)"),
        "--cache-stats must surface the diverted rows:\n{out}"
    );
    // The job manifest lives next to the store and was closed Done
    // (manifest writes are not shard appends, so they survived).
    assert!(out.contains("store jobs: 1 manifest(s), 0 resumable"), "{out}");

    // The overlay died with the process: a fault-free re-run finds an
    // empty store, re-evaluates everything, and persists it this time.
    let (out, err, code) =
        dse(&["--preset", "quick", "--cache-dir", &store, "--cache-stats", "--threads", "2"], &[]);
    assert_eq!(code, Some(0), "re-run failed:\nstdout: {out}\nstderr: {err}");
    assert!(
        out.contains("0 hits, 16 misses, 16 evaluated"),
        "degraded rows are lost at exit and re-evaluate next run:\n{out}"
    );
    assert!(out.contains("store degraded appends this process: 0 row(s)"), "{out}");

    // And nothing about the degraded episode corrupted the store: a
    // warm re-run serves every point and skips no row.
    let (out, err, code) =
        dse(&["--preset", "quick", "--cache-dir", &store, "--cache-stats", "--threads", "2"], &[]);
    assert_eq!(code, Some(0), "warm re-run failed:\nstdout: {out}\nstderr: {err}");
    assert!(out.contains("16 hits, 0 misses, 0 evaluated"), "store must serve every point:\n{out}");
    assert!(out.contains(" 0 corrupt row(s) skipped"), "store must hold no corrupt row:\n{out}");

    fs::remove_dir_all(&dir).unwrap();
}
