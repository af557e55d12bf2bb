//! Output files are streamed to disk atomically: a sibling temp file
//! renamed over the target, so a failed or interrupted emit never
//! leaves a half-written file or a stray temp file behind, and what
//! lands on disk is byte-for-byte what the in-memory emitters produce.

use std::fs;
use std::process::Command;

use ng_dse::emit::{outcome_to_json, points_to_csv};
use ng_dse::{Constraints, SweepEngine, SweepSpec};

#[test]
fn csv_onto_a_directory_fails_naming_the_path_and_leaves_no_temp_file() {
    let parent = std::env::temp_dir().join(format!("ng-dse-emit-{}", std::process::id()));
    let _ = fs::remove_dir_all(&parent);
    let target = parent.join("out.csv");
    fs::create_dir_all(&target).unwrap();
    let target_s = target.display().to_string();

    let out = Command::new(env!("CARGO_BIN_EXE_dse"))
        .args(["--preset", "quick", "--no-cache", "--quiet", "--csv", &target_s])
        .env_remove("NG_DSE_FAULTS")
        .output()
        .expect("dse runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "writing a CSV over a directory must fail");
    assert!(
        stderr.contains(&format!("cannot write {target_s}")),
        "error names the path:\n{stderr}"
    );

    let left: Vec<String> = fs::read_dir(&parent)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(left, ["out.csv"], "only the directory itself may remain: {left:?}");
    assert!(target.is_dir(), "the directory is untouched");

    fs::remove_dir_all(&parent).unwrap();
}

/// The streamed `--csv`/`--json` files hold exactly the bytes of the
/// in-memory emitters on the same outcome. Only the JSON `"stats"` line
/// may differ: its `wall_ms` and `points_per_sec` are per-run timings.
#[test]
fn streamed_csv_and_json_match_the_in_memory_emitters() {
    let dir = std::env::temp_dir().join(format!("ng-dse-emit-bytes-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let csv_path = dir.join("paper.csv");
    let json_path = dir.join("paper.json");

    let out = Command::new(env!("CARGO_BIN_EXE_dse"))
        .args(["--preset", "paper", "--no-cache", "--quiet", "--csv"])
        .arg(&csv_path)
        .arg("--json")
        .arg(&json_path)
        .env_remove("NG_DSE_FAULTS")
        .output()
        .expect("dse runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let outcome = SweepEngine::new().without_cache().run(&SweepSpec::paper()).unwrap();
    let frontier = outcome.cross_app_frontier(&Constraints::NONE);
    assert_eq!(fs::read_to_string(&csv_path).unwrap(), points_to_csv(&outcome.points));
    let mask_stats = |json: &str| -> String {
        json.lines()
            .map(|l| if l.starts_with("\"stats\":") { "\"stats\":<masked>" } else { l })
            .collect::<Vec<_>>()
            .join("\n")
    };
    let streamed = fs::read_to_string(&json_path).unwrap();
    let in_memory = outcome_to_json(&outcome, &frontier);
    assert!(streamed.ends_with("\n]\n}\n"), "the document is complete");
    assert_eq!(mask_stats(&streamed), mask_stats(&in_memory));

    fs::remove_dir_all(&dir).unwrap();
}
