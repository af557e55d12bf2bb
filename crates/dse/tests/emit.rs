//! Output files are written atomically: a sibling temp file renamed
//! over the target, so a failed or interrupted emit never leaves a
//! half-written file or a stray temp file behind.

use std::fs;
use std::process::Command;

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
        .env_remove("NG_DSE_TRACE")
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
