//! `real_data` end to end on a fixture: no real corpus can be fetched here,
//! so one tiny synthetic profile is written in each MovieLens format the
//! loader reads — `u.data` (tab), `ratings.dat` (`::`) and CSV with a
//! header — and the binary must load each, run every model row, and print
//! the same table for all three. The ratings go out in `Dataset::ratings()`
//! order, so the loader's `IdMaps` assigns the same dense ids every time.

use ganc_dataset::synth::DatasetProfile;
use std::path::Path;
use std::process::Command;

fn run_real_data(path: &Path) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_real_data"))
        .arg("--path")
        .arg(path)
        .args(["--sample", "50"])
        .output()
        .expect("real_data runs");
    assert!(
        out.status.success(),
        "{}: {}",
        path.display(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn every_ratings_format_prints_the_same_table() {
    let data = DatasetProfile::tiny().generate(11);
    let lines = |sep: &str| -> String {
        data.ratings()
            .iter()
            .enumerate()
            .map(|(t, r)| format!("{}{sep}{}{sep}{}{sep}{t}\n", r.user.0, r.item.0, r.value))
            .collect()
    };
    let dir = std::env::temp_dir().join(format!("ganc_real_data_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let files = [
        (dir.join("u.data"), lines("\t")),
        (dir.join("ratings.dat"), lines("::")),
        (
            dir.join("ratings.csv"),
            format!("userId,movieId,rating,timestamp\n{}", lines(",")),
        ),
    ];
    let outputs: Vec<String> = files
        .iter()
        .map(|(path, text)| {
            std::fs::write(path, text).unwrap();
            run_real_data(path)
        })
        .collect();
    std::fs::remove_dir_all(&dir).ok();

    // The header row and the four model rows of the table.
    let table = [
        "model",
        "RSVD",
        "Pop",
        "GANC(RSVD, θG, Dyn)",
        "GANC(Pop, θG, Dyn)",
    ];
    for row in table {
        let prefix = format!("{row:<22} ");
        assert!(
            outputs[0].lines().any(|l| l.starts_with(&prefix)),
            "row {row:?} missing from\n{}",
            outputs[0]
        );
    }
    // Only the first line, which names the file, may differ.
    let after_first_line = |out: &str| out.split_once('\n').unwrap().1.to_string();
    for ((path, _), out) in files.iter().zip(&outputs) {
        assert!(out.starts_with(&format!("loaded {}: ", path.display())));
        assert_eq!(
            after_first_line(out),
            after_first_line(&outputs[0]),
            "{} prints another table",
            path.display()
        );
    }
}
