//! The workload generator: the benchmark's own seeded xorshift and the
//! request streams built from it. The program under test never sees the
//! seed or this code — only the ids it produces.

/// xorshift64*, seeded through splitmix64 so seed 0 and neighbouring seeds
/// give unrelated streams.
pub struct XorShift(u64);

impl XorShift {
    pub fn new(seed: u64) -> XorShift {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        XorShift((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (multiply-shift; the bias at these sizes is far
    /// below anything a count of ops could show).
    pub fn below(&mut self, n: u32) -> u32 {
        (((self.next_u64() >> 32) * n as u64) >> 32) as u32
    }
}

/// One rating to ingest.
#[derive(Debug, Clone, PartialEq)]
pub struct Rating {
    pub user: u32,
    pub item: u32,
    pub value: f32,
}

/// One operation of a serve phase.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Single-user top-N request.
    Rec(u32),
    /// One rating, with the idempotency key the front is given.
    Ingest(Rating, String),
    /// One batch request for these users.
    Batch(Vec<u32>),
    /// Drop every cached list (untimed; not counted as an op).
    Flush,
}

/// A uniformly random permutation of `0..n` (Fisher–Yates).
pub fn permutation(rng: &mut XorShift, n: u32) -> Vec<u32> {
    let mut p: Vec<u32> = (0..n).collect();
    for i in (1..p.len()).rev() {
        p.swap(i, rng.below(i as u32 + 1) as usize);
    }
    p
}

/// `count` uniformly drawn users.
pub fn uniform_users(rng: &mut XorShift, n_users: u32, count: usize) -> Vec<u32> {
    (0..count).map(|_| rng.below(n_users)).collect()
}

/// The first `count` ratings of `pool`, in a seeded order. The *set* is the
/// same for every seed, so the state they leave behind (and with it the
/// lists served afterwards) does not depend on the seed; the order, and so
/// which cached lists are invalidated when, does.
pub fn shuffled_prefix(rng: &mut XorShift, pool: &[Rating], count: usize) -> Vec<Rating> {
    assert!(
        count <= pool.len(),
        "{count} ratings asked of {}",
        pool.len()
    );
    permutation(rng, count as u32)
        .into_iter()
        .map(|k| pool[k as usize].clone())
        .collect()
}

/// `count` requests as permutation passes over every user (the last pass
/// may be cut short), an [`Op::Flush`] between passes: with the cache
/// flushed and every user asked at most once per pass, every request is a
/// miss.
pub fn miss_passes(rng: &mut XorShift, n_users: u32, count: usize) -> Vec<Op> {
    let mut ops = Vec::with_capacity(count + count / n_users as usize);
    let mut left = count;
    while left > 0 {
        if left < count {
            ops.push(Op::Flush);
        }
        let pass = permutation(rng, n_users);
        let take = left.min(pass.len());
        ops.extend(pass.into_iter().take(take).map(Op::Rec));
        left -= take;
    }
    ops
}

/// `count` requests, `hot_pct` percent of them from a hot set of `hot`
/// users (drawn once, without replacement), the rest uniform.
pub fn hot_requests(
    rng: &mut XorShift,
    n_users: u32,
    hot: usize,
    hot_pct: u32,
    count: usize,
) -> Vec<Op> {
    let hot_set: Vec<u32> = permutation(rng, n_users).into_iter().take(hot).collect();
    (0..count)
        .map(|_| {
            if rng.below(100) < hot_pct {
                Op::Rec(hot_set[rng.below(hot_set.len() as u32) as usize])
            } else {
                Op::Rec(rng.below(n_users))
            }
        })
        .collect()
}

/// Users per batch request inside the mixed serve phase.
pub const MIXED_BATCH: usize = 64;

/// `count` operations in a seeded order: exactly 20 % keyed ingests (the
/// first ratings of `pool`, see [`shuffled_prefix`]), exactly 10 % batches
/// of [`MIXED_BATCH`] uniform users, the rest single recommends for uniform
/// users.
pub fn mixed_ops(
    rng: &mut XorShift,
    seed: u64,
    n_users: u32,
    pool: &[Rating],
    count: usize,
) -> Vec<Op> {
    let (ingests, batches) = (count / 5, count / 10);
    let mut incoming = shuffled_prefix(rng, pool, ingests).into_iter();
    permutation(rng, count as u32)
        .into_iter()
        .enumerate()
        .map(|(k, slot)| match slot as usize {
            s if s < ingests => Op::Ingest(
                incoming.next().expect("one rating per ingest slot"),
                format!("stack-{seed:x}-{k:x}"),
            ),
            s if s < ingests + batches => Op::Batch(uniform_users(rng, n_users, MIXED_BATCH)),
            _ => Op::Rec(rng.below(n_users)),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(n: usize) -> Vec<Rating> {
        (0..n as u32)
            .map(|k| Rating {
                user: k % 2_000,
                item: k % 1_200,
                value: (1 + k % 5) as f32,
            })
            .collect()
    }

    #[test]
    fn same_seed_same_ops_other_seed_other_ops() {
        let ops = |seed| mixed_ops(&mut XorShift::new(seed), seed, 2_000, &pool(100), 500);
        assert_eq!(ops(18), ops(18));
        assert_ne!(ops(18), ops(19));
        let hot = |seed| hot_requests(&mut XorShift::new(seed), 2_000, 200, 95, 500);
        assert_eq!(hot(18), hot(18));
        assert_ne!(hot(18), hot(19));
        assert_ne!(XorShift::new(0).next_u64(), XorShift::new(1).next_u64());
    }

    #[test]
    fn permutation_visits_every_user_once() {
        let mut p = permutation(&mut XorShift::new(18), 6_000);
        assert_ne!(p, (0..6_000).collect::<Vec<u32>>());
        p.sort_unstable();
        assert_eq!(p, (0..6_000).collect::<Vec<u32>>());
    }

    #[test]
    fn miss_passes_flush_between_passes_only() {
        let ops = miss_passes(&mut XorShift::new(18), 100, 250);
        assert_eq!(ops.len(), 250 + 2);
        assert!(matches!(ops[0], Op::Rec(_)));
        assert_eq!(ops[100], Op::Flush);
        assert_eq!(ops[201], Op::Flush);
        // No user is asked twice between two flushes.
        for pass in ops.split(|op| *op == Op::Flush) {
            let mut seen = std::collections::HashSet::new();
            assert!(pass.iter().all(|op| match op {
                Op::Rec(user) => seen.insert(*user),
                other => panic!("a miss pass holds recommends only, got {other:?}"),
            }));
        }
        assert_eq!(miss_passes(&mut XorShift::new(18), 100, 40).len(), 40);
    }

    #[test]
    fn hot_set_share_is_95_percent() {
        let n = 100_000;
        let ops = hot_requests(&mut XorShift::new(18), 2_000, 200, 95, n);
        let mut counts = vec![0usize; 2_000];
        for op in &ops {
            let Op::Rec(u) = op else {
                panic!("hot phase issues recommends only")
            };
            counts[*u as usize] += 1;
        }
        // The 200 most-asked users are the hot set; the uniform 5 % adds
        // 200/2000 of its draws to them, so their share is 95.5 %.
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let share = counts[..200].iter().sum::<usize>() as f64 / n as f64;
        assert!((share - 0.955).abs() < 0.01, "hot share {share}");
    }

    #[test]
    fn mix_is_70_20_10() {
        let n = 100_000;
        let ops = mixed_ops(&mut XorShift::new(18), 18, 2_000, &pool(n / 5), n);
        let share = |f: fn(&Op) -> bool| ops.iter().filter(|o| f(o)).count() as f64 / n as f64;
        assert!((share(|o| matches!(o, Op::Rec(_))) - 0.70).abs() < 0.01);
        assert!((share(|o| matches!(o, Op::Ingest(..))) - 0.20).abs() < 0.01);
        assert!((share(|o| matches!(o, Op::Batch(_))) - 0.10).abs() < 0.01);
        let keys: std::collections::HashSet<&String> = ops
            .iter()
            .filter_map(|o| match o {
                Op::Ingest(_, key) => Some(key),
                _ => None,
            })
            .collect();
        let ingests = ops.iter().filter(|o| matches!(o, Op::Ingest(..))).count();
        assert_eq!(keys.len(), ingests, "every keyed ingest has its own key");
    }

    #[test]
    fn ingested_set_is_seed_independent_its_order_is_not() {
        let pool = pool(1_000);
        let take = |seed| shuffled_prefix(&mut XorShift::new(seed), &pool, 400);
        let (a, b) = (take(18), take(19));
        assert_ne!(a, b);
        let key = |r: &Rating| (r.user, r.item);
        let sorted = |mut v: Vec<Rating>| {
            v.sort_by_key(key);
            v
        };
        assert_eq!(sorted(a), sorted(b));
        assert_eq!(sorted(take(18)), sorted(pool[..400].to_vec()));
    }

    #[test]
    fn generated_ids_stay_in_range() {
        let mut rng = XorShift::new(7);
        assert!((0..10_000).all(|_| rng.below(3) < 3));
        assert!(uniform_users(&mut rng, 10, 1_000).iter().all(|&u| u < 10));
    }
}
