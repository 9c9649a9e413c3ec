//! The `TopN` collection: one recommendation list per user (the paper's
//! `P = {P_u}`).

use ganc_dataset::{Interactions, ItemId, UserId};

/// A top-N recommendation collection `P = {P_u}_{u∈U}` (§II-A).
///
/// Lists may be shorter than `n` when a user's candidate pool is exhausted
/// (tiny catalogs, rated-test-items protocol); metrics handle that uniformly
/// by still dividing by `N·|U|` where Table III prescribes it.
#[derive(Debug, Clone)]
pub struct TopN {
    n: usize,
    lists: Vec<Vec<ItemId>>,
}

impl TopN {
    /// Wrap per-user lists produced by a recommender.
    pub fn new(n: usize, lists: Vec<Vec<ItemId>>) -> TopN {
        TopN { n, lists }
    }

    /// The target list length `N`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of users.
    #[inline]
    pub fn n_users(&self) -> usize {
        self.lists.len()
    }

    /// Per-user lists.
    #[inline]
    pub fn lists(&self) -> &[Vec<ItemId>] {
        &self.lists
    }

    /// The list assigned to one user.
    #[inline]
    pub fn list(&self, u: UserId) -> &[ItemId] {
        &self.lists[u.idx()]
    }

    /// Recommendation frequency of every item across the collection — the
    /// `f` vector of the Gini computation (Table III).
    pub fn recommendation_frequency(&self, n_items: u32) -> Vec<u32> {
        let mut freq = vec![0u32; n_items as usize];
        for list in &self.lists {
            for item in list {
                freq[item.idx()] += 1;
            }
        }
        freq
    }

    /// Validate the top-N contract against a train set: no duplicates, no
    /// items the user has already rated, at most `n` entries. Returns the
    /// first violation as a message (tests assert `None`).
    pub fn contract_violation(&self, train: &Interactions) -> Option<String> {
        for (u, list) in self.lists.iter().enumerate() {
            if list.len() > self.n {
                return Some(format!(
                    "user {u}: list length {} > N={}",
                    list.len(),
                    self.n
                ));
            }
            let mut sorted: Vec<u32> = list.iter().map(|i| i.0).collect();
            sorted.sort_unstable();
            if sorted.windows(2).any(|w| w[0] == w[1]) {
                return Some(format!("user {u}: duplicate item in list"));
            }
            for item in list {
                if train.contains(UserId(u as u32), *item) {
                    return Some(format!("user {u}: item {} already rated in train", item.0));
                }
            }
        }
        None
    }
}

#[cfg(test)]
impl TopN {
    /// An empty collection for `n_users` users.
    pub(crate) fn empty(n: usize, n_users: usize) -> TopN {
        TopN {
            n,
            lists: vec![Vec::new(); n_users],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ganc_dataset::{DatasetBuilder, RatingScale};

    fn train() -> Interactions {
        let mut b = DatasetBuilder::new("t", RatingScale::stars_1_5());
        b.push(UserId(0), ItemId(0), 5.0).unwrap();
        b.push(UserId(1), ItemId(1), 3.0).unwrap();
        b.push(UserId(1), ItemId(2), 3.0).unwrap();
        b.build().unwrap().interactions()
    }

    #[test]
    fn frequency_counts_across_users() {
        let t = TopN::new(
            2,
            vec![vec![ItemId(1), ItemId(2)], vec![ItemId(0), ItemId(2)]],
        );
        assert_eq!(t.recommendation_frequency(3), vec![1, 1, 2]);
    }

    #[test]
    fn contract_accepts_valid_lists() {
        let t = TopN::new(2, vec![vec![ItemId(1), ItemId(2)], vec![ItemId(0)]]);
        assert_eq!(t.contract_violation(&train()), None);
    }

    #[test]
    fn contract_rejects_seen_items() {
        let t = TopN::new(2, vec![vec![ItemId(0)], vec![]]);
        let msg = t.contract_violation(&train()).unwrap();
        assert!(msg.contains("already rated"));
    }

    #[test]
    fn contract_rejects_duplicates() {
        let t = TopN::new(3, vec![vec![ItemId(1), ItemId(1)], vec![]]);
        let msg = t.contract_violation(&train()).unwrap();
        assert!(msg.contains("duplicate"));
    }

    #[test]
    fn contract_rejects_overlong_lists() {
        let t = TopN::new(1, vec![vec![ItemId(1), ItemId(2)], vec![]]);
        let msg = t.contract_violation(&train()).unwrap();
        assert!(msg.contains("length"));
    }
}
