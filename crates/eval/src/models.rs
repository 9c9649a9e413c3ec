//! The model zoo: per-dataset base-recommender construction with the
//! paper's hyper-parameters (Appendix A, Table V).

use crate::context::{DataBundle, ExpConfig, Scale};
use ganc_core::{build_topn, AccuracyMode, FitConfig};
use ganc_metrics::TopN;
use ganc_recommender::psvd::Psvd;
use ganc_recommender::rankmf::{RankMf, RankMfConfig};
use ganc_recommender::rsvd::{Rsvd, RsvdConfig};
use ganc_recommender::Recommender;

/// The RSVD configuration Table V selects for each dataset
/// (`(η, λ, g)` rows), shrunk at smoke scale.
pub fn rsvd_config(bundle: &DataBundle, cfg: &ExpConfig) -> RsvdConfig {
    let (eta, lambda, g) = match bundle.short.as_str() {
        "ml-100k" => (0.03, 0.05, 100),
        "ml-1m" => (0.03, 0.05, 100),
        "ml-10m" => (0.003, 0.005, 20),
        "mt-200k" => (0.01, 0.01, 40),
        "netflix" => (0.002, 0.05, 100),
        _ => (0.01, 0.05, 40),
    };
    let (factors, epochs) = match cfg.scale {
        Scale::Smoke => (g.min(16), 10),
        Scale::Paper => (g, 20),
    };
    RsvdConfig {
        factors,
        learning_rate: eta,
        reg: lambda,
        epochs,
        use_biases: true,
        non_negative: false,
        seed: cfg.seed ^ 0x5E5D,
    }
}

/// Train RSVD with the dataset's Table V parameters.
pub fn train_rsvd(bundle: &DataBundle, cfg: &ExpConfig) -> Rsvd {
    Rsvd::train(&bundle.split.train, rsvd_config(bundle, cfg))
}

/// Train PureSVD with `k` factors (PSVD10 / PSVD100 in the paper), with the
/// rank shrunk at smoke scale.
pub fn train_psvd(bundle: &DataBundle, cfg: &ExpConfig, k: usize) -> Psvd {
    let k = match cfg.scale {
        Scale::Smoke => k.clamp(4, 16),
        Scale::Paper => k,
    };
    Psvd::train(&bundle.split.train, k, cfg.seed ^ 0x95BD)
}

/// Train the CoFiRank stand-in (RankMF, 100 factors at paper scale).
pub fn train_rankmf(bundle: &DataBundle, cfg: &ExpConfig) -> RankMf {
    let (factors, epochs) = match cfg.scale {
        Scale::Smoke => (16, 8),
        Scale::Paper => (100, 10),
    };
    RankMf::train(
        &bundle.split.train,
        RankMfConfig {
            factors,
            epochs,
            seed: cfg.seed ^ 0xC0F1,
            ..RankMfConfig::default()
        },
    )
}

/// The paper's §V-B rule for picking GANC's accuracy recommender: Pop on
/// the very sparse MT-200K, PSVD100 elsewhere. Returns the adapter mode to
/// use with it (Pop has no scores → top-N indicator).
pub fn arec_choice(bundle: &DataBundle) -> (&'static str, AccuracyMode) {
    if bundle.is_sparse() {
        ("Pop", AccuracyMode::TopNIndicator)
    } else {
        ("PSVD100", AccuracyMode::Normalized)
    }
}

/// Run the GANC variant `fit` describes `runs` times, run `r` seeded with
/// `fit.seed ^ r << 8`, and return the per-run [`TopN`] collections.
/// Callers average the metric rows.
pub fn ganc_runs(
    base: &dyn Recommender,
    theta: &[f64],
    bundle: &DataBundle,
    fit: &FitConfig,
    cfg: &ExpConfig,
) -> Vec<TopN> {
    (0..cfg.runs.max(1))
        .map(|run| {
            let fit = FitConfig {
                seed: fit.seed ^ (run as u64) << 8,
                ..*fit
            };
            let lists = build_topn(base, theta, &bundle.split.train, &fit, cfg.threads);
            TopN::new(fit.n, lists)
        })
        .collect()
}

/// Average a metric extracted from several runs (or from their evaluated
/// rows): summed in order, then divided once.
pub fn mean_of<T, F: Fn(&T) -> f64>(runs: &[T], f: F) -> f64 {
    if runs.is_empty() {
        return 0.0;
    }
    runs.iter().map(f).sum::<f64>() / runs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Scale;

    fn smoke() -> ExpConfig {
        ExpConfig {
            scale: Scale::Smoke,
            seed: 3,
            runs: 2,
            threads: 2,
        }
    }

    #[test]
    fn rsvd_config_follows_table_v() {
        let cfg = ExpConfig {
            scale: Scale::Paper,
            ..smoke()
        };
        let b = DataBundle::prepare(&smoke(), "ml-10m");
        let r = rsvd_config(&b, &cfg);
        assert_eq!(r.factors, 20);
        assert!((r.learning_rate - 0.003).abs() < 1e-12);
        assert!((r.reg - 0.005).abs() < 1e-12);
    }

    #[test]
    fn smoke_scale_shrinks_models() {
        let cfg = smoke();
        let b = DataBundle::prepare(&cfg, "ml-100k");
        assert!(rsvd_config(&b, &cfg).factors <= 16);
    }

    #[test]
    fn arec_choice_matches_paper_rule() {
        let cfg = smoke();
        let mt = DataBundle::prepare(&cfg, "mt-200k");
        let ml = DataBundle::prepare(&cfg, "ml-100k");
        assert_eq!(arec_choice(&mt).0, "Pop");
        assert_eq!(arec_choice(&ml).0, "PSVD100");
    }

    #[test]
    fn ganc_runs_produce_valid_collections() {
        let cfg = smoke();
        let b = DataBundle::prepare(&cfg, "ml-100k");
        let pop = ganc_recommender::pop::MostPopular::fit(&b.split.train);
        let theta = vec![0.5; b.split.train.n_users() as usize];
        let fit = FitConfig {
            sample_size: 30,
            seed: cfg.seed,
            ..FitConfig::new(5)
        };
        let runs = ganc_runs(&pop, &theta, &b, &fit, &cfg);
        assert_eq!(runs.len(), 2);
        for topn in &runs {
            assert_eq!(topn.contract_violation(&b.split.train), None);
        }
    }

    #[test]
    fn mean_of_averages() {
        let a = TopN::new(1, vec![vec![ganc_dataset::ItemId(0)]]);
        let b = TopN::new(1, vec![vec![]]);
        let m = mean_of(&[a, b], |t| t.lists()[0].len() as f64);
        assert!((m - 0.5).abs() < 1e-12);
    }
}
