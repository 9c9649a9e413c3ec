//! Item-space coverage metrics: Coverage@N and the Gini coefficient
//! (Table III).

use crate::topn::TopN;

/// Coverage@N `= |∪_u P_u| / |I|` — the fraction of the catalog that appears
/// in at least one recommendation list (Table III). 1.0 means every item was
/// recommended to someone.
pub fn coverage(topn: &TopN, n_items: u32) -> f64 {
    if n_items == 0 {
        return 0.0;
    }
    let freq = topn.recommendation_frequency(n_items);
    let distinct = freq.iter().filter(|&&f| f > 0).count();
    distinct as f64 / n_items as f64
}

/// Gini@N over the recommendation-frequency distribution (Table III,
/// Lorenz/Gini \[39\]):
///
/// ```text
/// G = (1/|I|) · (|I| + 1 − 2 · Σ_j (|I|+1−j)·f[j] / Σ_j f[j])
/// ```
///
/// where `f` is sorted non-decreasing and `j` is 1-based. 0 means perfectly
/// equal exposure; values near 1 mean a few items dominate. Returns 0 when
/// nothing was recommended.
pub fn gini(topn: &TopN, n_items: u32) -> f64 {
    let mut freq = topn.recommendation_frequency(n_items);
    gini_of_frequencies(&mut freq)
}

/// Gini of an arbitrary frequency vector (consumed: sorted in place).
pub fn gini_of_frequencies(freq: &mut [u32]) -> f64 {
    let n = freq.len();
    if n == 0 {
        return 0.0;
    }
    freq.sort_unstable();
    let total: u64 = freq.iter().map(|&f| f as u64).sum();
    if total == 0 {
        return 0.0;
    }
    let weighted: f64 = freq
        .iter()
        .enumerate()
        .map(|(j0, &f)| (n - j0) as f64 * f as f64) // |I|+1−j with j = j0+1
        .sum();
    (n as f64 + 1.0 - 2.0 * weighted / total as f64) / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ganc_dataset::ItemId;

    #[test]
    fn coverage_counts_distinct() {
        let topn = TopN::new(
            2,
            vec![vec![ItemId(0), ItemId(1)], vec![ItemId(1), ItemId(2)]],
        );
        // 3 distinct of 4 items
        assert!((coverage(&topn, 4) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn coverage_empty_is_zero() {
        let topn = TopN::empty(5, 3);
        assert_eq!(coverage(&topn, 10), 0.0);
        assert_eq!(coverage(&topn, 0), 0.0);
    }

    #[test]
    fn gini_uniform_is_zero() {
        let mut freq = vec![3u32; 50];
        assert!(gini_of_frequencies(&mut freq).abs() < 1e-12);
    }

    #[test]
    fn gini_concentrated_tends_to_one() {
        let mut freq = vec![0u32; 1000];
        freq[0] = 5000;
        let g = gini_of_frequencies(&mut freq);
        assert!(g > 0.99, "gini {g}");
    }

    #[test]
    fn gini_hand_computed_small_case() {
        // f = [0, 1, 3]: sorted, n=3, total=4,
        // weighted = 3·0 + 2·1 + 1·3 = 5 → G = (4 − 2·5/4)/3 = 0.5
        let mut freq = vec![0u32, 1, 3];
        assert!((gini_of_frequencies(&mut freq) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn gini_is_scale_invariant() {
        let mut a = vec![1u32, 2, 3, 4];
        let mut b = vec![10u32, 20, 30, 40];
        assert!((gini_of_frequencies(&mut a) - gini_of_frequencies(&mut b)).abs() < 1e-12);
    }

    #[test]
    fn gini_monotone_in_concentration() {
        let mut flat = vec![2u32, 2, 2, 2];
        let mut tilted = vec![1u32, 1, 2, 4];
        let mut extreme = vec![0u32, 0, 0, 8];
        let g0 = gini_of_frequencies(&mut flat);
        let g1 = gini_of_frequencies(&mut tilted);
        let g2 = gini_of_frequencies(&mut extreme);
        assert!(g0 < g1 && g1 < g2, "{g0} {g1} {g2}");
    }

    #[test]
    fn gini_via_topn_matches_direct() {
        let topn = TopN::new(
            2,
            vec![vec![ItemId(0), ItemId(1)], vec![ItemId(0), ItemId(2)]],
        );
        let direct = {
            let mut f = topn.recommendation_frequency(4);
            gini_of_frequencies(&mut f)
        };
        assert!((gini(&topn, 4) - direct).abs() < 1e-15);
    }
}
