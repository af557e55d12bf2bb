//! Deterministic fault replay (ISSUE 9): the same fault seed must
//! reproduce the same run, down to the retry counter and the exact
//! backoff sites recorded in the trace — otherwise a seeded fault
//! plan could not replay a failure.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ng-dse-faultdet-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// One seeded faulted run in a fresh store: returns the
/// `store.retries` growth reported by `--metrics` and the sequence of
/// `store.retry` backoff-site messages from the run's Chrome trace.
fn seeded_run(dir: &std::path::Path, plan: &str) -> (u64, Vec<String>) {
    let trace = dir.join("trace.json");
    let out = Command::new(env!("CARGO_BIN_EXE_dse"))
        .args([
            "--preset",
            "quick",
            "--cache-dir",
            &dir.join("store").display().to_string(),
            "--threads",
            "1",
            "--quiet",
            "--metrics",
            "--trace",
            &trace.display().to_string(),
        ])
        .env("NG_DSE_FAULTS", plan)
        .output()
        .expect("dse runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "the seeded plan must be survivable (retries absorb every injected error):\n{stderr}"
    );
    let retries = stderr
        .lines()
        .find_map(|l| l.strip_prefix("store.retries = "))
        .expect("injected append errors must move store.retries")
        .trim()
        .parse()
        .expect("counter value parses");
    // The trace's backoff-site instants, in emission order (one event
    // per line): which shard retried, how many times.
    // `"args":{"v":"shard 3: 2 retried append attempt(s)"}` — keep just
    // the message.
    let sites: Vec<String> = fs::read_to_string(&trace)
        .expect("trace written")
        .lines()
        .filter(|l| l.contains("\"name\":\"store.retry\"") && l.contains("\"ph\":\"i\""))
        .map(|l| {
            let v = l.find("\"v\":\"").expect("instant has a value") + 5;
            l[v..v + l[v..].find('"').unwrap()].to_string()
        })
        .collect();
    (retries, sites)
}

#[test]
fn same_fault_seed_reproduces_retries_and_backoff_sites() {
    // p=0.3 with 4 retries: every shard append survives (the chance of
    // five consecutive injected failures is 0.24%, and the outcome is
    // a pure function of the seed — no flakiness), but several appends
    // pay at least one backoff.
    let plan = "seed=7;append:io@p=0.3";
    let dir_a = tmpdir("a");
    let dir_b = tmpdir("b");
    let (retries_a, sites_a) = seeded_run(&dir_a, plan);
    let (retries_b, sites_b) = seeded_run(&dir_b, plan);

    assert!(retries_a > 0, "the plan must actually inject (else this test checks nothing)");
    assert_eq!(retries_a, retries_b, "same seed, same store.retries");
    assert!(!sites_a.is_empty(), "retried appends must name their backoff site in the trace");
    assert_eq!(sites_a, sites_b, "same seed, same backoff sites in the same order");

    // A different seed shifts where the injections land — the proof
    // that the determinism above comes from the seed, not from the
    // injection being degenerate (all-or-nothing).
    let dir_c = tmpdir("c");
    let (_, sites_c) = seeded_run(&dir_c, "seed=8;append:io@p=0.3");
    assert_ne!(sites_a, sites_c, "a different seed must land differently");

    fs::remove_dir_all(&dir_a).unwrap();
    fs::remove_dir_all(&dir_b).unwrap();
    fs::remove_dir_all(&dir_c).unwrap();
}
