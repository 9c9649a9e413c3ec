//! Rating-prediction error (RMSE), used by the Appendix A
//! hyper-parameter study (Table V) and RSVD validation.

use ganc_dataset::{Interactions, ItemId, UserId};

/// Root mean squared error of a predictor over a held-out interaction set.
pub fn rmse<F: FnMut(UserId, ItemId) -> f64>(held_out: &Interactions, mut predict: F) -> f64 {
    let mut sum = 0.0;
    let mut count = 0usize;
    for (u, i, r) in held_out.iter() {
        let e = predict(u, i) - r as f64;
        sum += e * e;
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        (sum / count as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ganc_dataset::{DatasetBuilder, RatingScale};

    fn held_out() -> Interactions {
        let mut b = DatasetBuilder::new("t", RatingScale::stars_1_5());
        b.push(UserId(0), ItemId(0), 4.0).unwrap();
        b.push(UserId(0), ItemId(1), 2.0).unwrap();
        b.push(UserId(1), ItemId(0), 5.0).unwrap();
        b.build().unwrap().interactions()
    }

    #[test]
    fn perfect_predictor_scores_zero() {
        let h = held_out();
        let href = &h;
        assert_eq!(rmse(href, |u, i| href.get(u, i).unwrap() as f64), 0.0);
    }

    #[test]
    fn constant_predictor_hand_computed() {
        let h = held_out();
        // predict 3.0: errors 1, -1, 2 → rmse = sqrt(6/3) = sqrt(2)
        let r = rmse(&h, |_, _| 3.0);
        assert!((r - 2.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_set_scores_zero() {
        let mut b = DatasetBuilder::new("t", RatingScale::stars_1_5());
        b.push(UserId(0), ItemId(0), 4.0).unwrap();
        let d = b.build().unwrap();
        let split = d.split_per_user(1.0, 1).unwrap();
        assert_eq!(rmse(&split.test, |_, _| 3.0), 0.0);
    }
}
