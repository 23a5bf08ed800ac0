//! Every `mmtfig` table entry runs end to end: at a large `--scale`
//! divisor each figure exits 0 and prints its title and one row per app
//! (one geomean line per value for knob sweeps).

use mmt_bench::figures::{Grid, FIGURES};
use std::process::Command;

#[test]
fn every_figure_prints_its_title_and_one_row_per_app() {
    // BENCH reports land in cwd-relative `results/`.
    let dir = std::env::temp_dir().join(format!("mmt-figure-table-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for fig in FIGURES {
        let out = Command::new(env!("CARGO_BIN_EXE_mmtfig"))
            .current_dir(&dir)
            .args([fig.name, "--scale", "4096", "--jobs", "2"])
            .output()
            .expect("mmtfig runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{}: {stderr}\n{stdout}", fig.name);
        let lines: Vec<&str> = stdout.lines().collect();
        assert_eq!(lines[0], fig.title(2), "{}", fig.name);
        let apps = (fig.apps)();
        match &fig.grid {
            Grid::Rows { .. } => {
                for app in &apps {
                    let rows = lines
                        .iter()
                        .filter(|l| l.split_whitespace().next() == Some(app.name))
                        .count();
                    assert_eq!(rows, 1, "{}: rows for {}:\n{stdout}", fig.name, app.name);
                }
            }
            Grid::Knob { values, .. } => {
                let header = usize::from(!fig.header.is_empty());
                assert_eq!(lines.len(), 1 + header + values.len(), "{stdout}");
                assert!(!apps.is_empty());
            }
        }
        if let Some(bench) = fig.bench {
            let bench = dir.join(format!("results/BENCH_{bench}.json"));
            let report = mmt_obs::json::parse_file(&bench).expect("BENCH report parses");
            let runs = report.get("runs").and_then(|r| r.as_array()).unwrap();
            assert!(
                runs.len() >= apps.len(),
                "{}: {} runs",
                fig.name,
                runs.len()
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
