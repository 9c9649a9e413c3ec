//! Pins the paper's numbers: the sections of `experiments --scale smoke
//! --seed 1` are asserted byte-for-byte against the committed golden
//! (`tests/golden/experiments_smoke_seed1.txt` — the binary's output with
//! the `[elapsed …]` suffixes and the `total wall time` line stripped,
//! identical at `--threads 1` and `--threads 2`).
//!
//! This suite calls the library entry points the binary calls, so F@5,
//! StratRecall, LTAccuracy, Coverage, Gini, the Table IV rank columns for
//! GANC × {θT, θG} and the 5D / RBT / PRA baselines, and GANC's own
//! sample-size, θ-grid and trade-off figures (Figures 3–6) cannot drift
//! under a refactor without a diff here. The test profile builds the
//! numeric crates at `opt-level = 2` (root `Cargo.toml`), which makes every
//! section affordable: Table IV and Figures 3–6 run at two threads, every
//! cheap section at one thread and at two.

use ganc::eval::{
    fig1, fig2, fig3_4, fig5, fig6, fig7_8, table2, table4, table5, ExpConfig, Scale,
};

const GOLDEN: &str = include_str!("golden/experiments_smoke_seed1.txt");

/// The rule `experiments` prints above and below each section's name.
const RULE: &str = "================================================================\n";

/// The golden's block for the section `experiments` banners as `name`:
/// what the binary's `println!("{body}")` wrote, final newline included.
fn golden_section(name: &str) -> &'static str {
    // "", name, body, name, body, …
    let parts: Vec<&str> = GOLDEN.split(RULE).collect();
    let at = parts
        .iter()
        .position(|p| p.strip_suffix('\n') == Some(name))
        .unwrap_or_else(|| panic!("golden has no section {name:?}"));
    parts[at + 1]
}

type Section = (&'static str, fn(&ExpConfig) -> String, &'static [usize]);

/// Banner name, entry point, and the thread counts this suite runs it at.
const SECTIONS: [Section; 11] = [
    ("Table II", table2::run, &[1, 2]),
    ("Figure 1", fig1::run, &[1, 2]),
    ("Figure 2", fig2::run, &[1, 2]),
    ("Figure 3", |cfg| fig3_4::run(cfg, "ml-1m"), &[2]),
    ("Figure 4", |cfg| fig3_4::run(cfg, "mt-200k"), &[2]),
    ("Figure 5", fig5::run, &[2]),
    ("Table IV", table4::run, &[2]),
    ("Figure 6", fig6::run, &[2]),
    ("Table V", table5::run, &[1, 2]),
    ("Figure 7", |cfg| fig7_8::run(cfg, "ml-100k"), &[1, 2]),
    ("Figure 8", |cfg| fig7_8::run(cfg, "ml-1m"), &[1, 2]),
];

#[test]
fn smoke_sections_match_the_golden_byte_for_byte() {
    for (name, run, thread_counts) in SECTIONS {
        for &threads in thread_counts {
            let cfg = ExpConfig {
                scale: Scale::Smoke,
                seed: 1,
                threads,
                ..ExpConfig::default()
            };
            let got = run(&cfg) + "\n";
            assert!(
                got == golden_section(name),
                "{name} at {threads} thread(s) drifted from the golden:\n{got}"
            );
        }
    }
}
