//! # ganc-eval
//!
//! The experiment harness: one module per table/figure of the paper's
//! evaluation (§IV–V, Appendices A & C), regenerating the same rows and
//! series on the calibrated synthetic datasets.
//!
//! | module | reproduces | binary |
//! |--------|-----------|--------|
//! | [`table2`] | Table II — dataset statistics | `table2` |
//! | [`fig1`] | Figure 1 — avg popularity vs user activity | `fig1` |
//! | [`fig2`] | Figure 2 — θ-distribution histograms | `fig2` |
//! | [`fig3_4`] | Figures 3–4 — OSLG sample-size sweeps | `fig3`, `fig4` |
//! | [`fig5`] | Figure 5 — GANC × θ-model × ARec grid | `fig5` |
//! | [`table4`] | Table IV — re-ranking comparison + mean ranks | `table4` |
//! | [`fig6`] | Figure 6 — accuracy/coverage/novelty scatter | `fig6` |
//! | [`table5`] | Table V — RSVD hyper-parameter study | `table5` |
//! | [`fig7_8`] | Figures 7–8 — test-protocol comparison | `fig7`, `fig8` |
//!
//! [`ablation`] adds studies of the design choices OSLG makes (user
//! ordering, sample size, personalization) under the `ablation` binary.
//!
//! The `experiments` binary runs the full suite. Every binary accepts
//! `--scale smoke|paper` (smoke ≈ 8× downscaled datasets for quick checks)
//! and `--seed <u64>`.

pub mod ablation;
pub mod context;
pub mod fig1;
pub mod fig2;
pub mod fig3_4;
pub mod fig5;
pub mod fig6;
pub mod fig7_8;
pub mod models;
pub mod table2;
pub mod table4;
pub mod table5;
pub mod tables;

pub use context::{DataBundle, ExpConfig, Scale};

/// Parse the shared `--scale` / `--seed` / `--runs` CLI flags used by every
/// experiment binary. Unknown flags abort with a usage message.
pub fn parse_cli(args: &[String]) -> ExpConfig {
    let mut cfg = ExpConfig::default();
    let mut k = 0;
    while k < args.len() {
        match args[k].as_str() {
            "--scale" => {
                k += 1;
                cfg.scale = match args.get(k).map(String::as_str) {
                    Some("smoke") => Scale::Smoke,
                    Some("paper") => Scale::Paper,
                    other => usage(&format!("bad --scale value {other:?}")),
                };
            }
            "--seed" => {
                k += 1;
                cfg.seed = args
                    .get(k)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("bad --seed value"));
            }
            "--runs" => {
                k += 1;
                cfg.runs = args
                    .get(k)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("bad --runs value"));
            }
            "--threads" => {
                k += 1;
                cfg.threads = args
                    .get(k)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("bad --threads value"));
            }
            other => usage(&format!("unknown flag {other:?}")),
        }
        k += 1;
    }
    cfg
}

fn usage(problem: &str) -> ! {
    eprintln!("{problem}");
    eprintln!("usage: <bin> [--scale smoke|paper] [--seed N] [--runs N] [--threads N]");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cli_defaults_and_overrides() {
        let cfg = parse_cli(&[]);
        assert_eq!(cfg.scale, Scale::Smoke);
        let cfg = parse_cli(&[
            "--scale".into(),
            "paper".into(),
            "--seed".into(),
            "9".into(),
            "--runs".into(),
            "5".into(),
        ]);
        assert_eq!(cfg.scale, Scale::Paper);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.runs, 5);
    }
}
