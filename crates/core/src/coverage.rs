//! Coverage recommenders (§III-B): the `c(i)` component of the GANC value
//! function. All scores lie in `(0, 1]` so they share a scale with the
//! accuracy component.
//!
//! The serving hot path never fills a full-catalog coverage buffer: every
//! coverage state hands out a [`CoverageView`] — a cheap per-request view
//! that scores *candidate items only*. [`CoverageView::fill`], which writes
//! every item's score, is the one dense reference the fused path is checked
//! against. `Stat` and `Dyn` keep their `1/√(f+1)` score vectors cached
//! (updated incrementally on writes, so reads never pay a sqrt pass), and
//! the OSLG frequency snapshots are stored delta-encoded (§III-C produces
//! consecutive snapshots that differ by exactly the N items just assigned)
//! with periodic dense checkpoints for `O(N·√S)`-style reconstruction
//! instead of `O(S·|I|)` dense storage.

use ganc_dataset::{Interactions, ItemId};
use ganc_recommender::random::unit_hash;
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::collections::TryReserveError;

/// The paper's coverage gain: `1/√(f + 1)`.
#[inline]
fn gain(frequency: u32) -> f64 {
    1.0 / ((frequency as f64) + 1.0).sqrt()
}

/// Which coverage recommender a GANC variant uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum CoverageKind {
    /// `c(i) ~ unif(0,1)` — maximal-coverage control (Rand).
    Random,
    /// `c(i) = 1/√(f_i^R + 1)` — static inverse train-popularity (Stat).
    Static,
    /// `c(i) = 1/√(f_i^A + 1)` over the recommendations already assigned —
    /// diminishing returns (Dyn).
    Dynamic,
}

impl CoverageKind {
    /// Display label matching the paper (`Rand` / `Stat` / `Dyn`).
    pub fn label(&self) -> &'static str {
        match self {
            CoverageKind::Random => "Rand",
            CoverageKind::Static => "Stat",
            CoverageKind::Dynamic => "Dyn",
        }
    }
}

/// One request's resolved coverage scores, consumed candidate-by-candidate
/// by the fused scorer in [`crate::query::UserQuery`] — no full-catalog
/// buffer is ever materialized on that path.
#[derive(Debug)]
pub enum CoverageView<'a> {
    /// A cached dense score vector (Stat, Dyn, snapshot checkpoints).
    Dense(&'a [f64]),
    /// Scores hashed on demand per `(seed, user, item)` (Rand).
    Hashed {
        /// Run seed.
        seed: u64,
        /// Requesting user.
        user: u32,
    },
    /// A checkpoint score vector plus a sparse overlay of `(item, score)`
    /// pairs sorted by item id (delta-reconstructed snapshots).
    Patched {
        /// Dense checkpoint scores.
        base: &'a [f64],
        /// Items whose score differs from the checkpoint, ascending.
        overlay: &'a [(u32, f64)],
    },
}

impl CoverageView<'_> {
    /// Random-access score of one item (tests and one-off lookups; the fused
    /// path walks the view in ascending item order instead).
    pub fn score_at(&self, item: u32) -> f64 {
        match self {
            CoverageView::Dense(s) => s[item as usize],
            CoverageView::Hashed { seed, user } => unit_hash(*seed, *user, item),
            CoverageView::Patched { base, overlay } => {
                match overlay.binary_search_by_key(&item, |e| e.0) {
                    Ok(k) => overlay[k].1,
                    Err(_) => base[item as usize],
                }
            }
        }
    }

    /// Write [`CoverageView::score_at`] of every item `0..out.len()` into
    /// `out`: the dense reference the fused path is checked against.
    pub fn fill(&self, out: &mut [f64]) {
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.score_at(i as u32);
        }
    }
}

/// Random coverage: a deterministic per-`(seed, user, item)` uniform score.
/// The paper redraws per run; vary the seed across runs to reproduce that.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RandCoverage {
    pub(crate) seed: u64,
}

impl RandCoverage {
    /// Create with a run seed.
    pub fn new(seed: u64) -> RandCoverage {
        RandCoverage { seed }
    }
}

/// Static coverage: monotone decreasing in train popularity,
/// `c(i) = 1/√(f_i^R + 1)` (§III-B). The gain of recommending an item is
/// constant — the paper shows this focuses on a small subset of tail items
/// and is the weakest coverage recommender.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct StatCoverage {
    scores: Vec<f64>,
}

impl StatCoverage {
    /// Precompute from the train set.
    pub fn fit(train: &Interactions) -> StatCoverage {
        StatCoverage::from_popularity(&train.item_popularity())
    }

    /// Rebuild from a raw popularity vector `f^R` (one count per item).
    pub fn from_popularity(popularity: &[u32]) -> StatCoverage {
        let scores = popularity.iter().map(|&f| gain(f)).collect();
        StatCoverage { scores }
    }

    /// Refresh one item's score after its popularity changed to `count` —
    /// the `O(touched items)` ingestion path. Identical to a full
    /// [`StatCoverage::from_popularity`] rebuild for that item.
    #[inline]
    pub fn set_count(&mut self, item: ItemId, count: u32) {
        self.scores[item.idx()] = gain(count);
    }

    /// The static score of one item.
    #[inline]
    pub fn score(&self, item: ItemId) -> f64 {
        self.scores[item.idx()]
    }

    /// All scores, indexed by item id.
    #[inline]
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }
}

/// Dynamic coverage: `c(i) = 1/√(f_i^A + 1)` where `f^A` counts how often
/// `i` appears in the recommendations assigned **so far** (§III-B).
///
/// Recommending an item has diminishing returns — `c(i) = 1` while the item
/// is unrecommended and decays as it spreads — which makes the aggregate
/// objective submodular (Appendix B) and drives the coverage gains of
/// GANC(·,·,Dyn).
///
/// The score vector is cached and maintained incrementally: an
/// [`DynCoverage::observe`] of N items updates N cached scores, so reads
/// (`O(|U|)` of them in the OSLG seed phase) never pay an `O(|I|)` sqrt
/// pass.
#[derive(Debug, Clone, PartialEq)]
pub struct DynCoverage {
    counts: Vec<u32>,
    scores: Vec<f64>,
}

impl DynCoverage {
    /// Start with an empty assignment (`f^A = 0`, every score 1).
    pub fn new(n_items: u32) -> DynCoverage {
        DynCoverage {
            counts: vec![0; n_items as usize],
            scores: vec![1.0; n_items as usize],
        }
    }

    /// Current score of one item.
    #[inline]
    pub fn score(&self, item: ItemId) -> f64 {
        self.scores[item.idx()]
    }

    /// The cached score vector, indexed by item id.
    #[inline]
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }

    /// Record an assigned top-N set (Algorithm 1, line 7): N count bumps
    /// and N cached-score refreshes, independent of `|I|`.
    pub fn observe(&mut self, assigned: &[ItemId]) {
        for item in assigned {
            let k = item.idx();
            self.counts[k] += 1;
            self.scores[k] = gain(self.counts[k]);
        }
    }
}

/// Dense state every this many chain steps. Reconstruction of an arbitrary
/// snapshot replays at most this many sparse deltas onto a checkpoint.
/// Memory for the derived checkpoints is `O(S/K · |I|)` — at the paper's
/// `S = 500` this is ~32 dense vectors instead of 500.
const CHECKPOINT_EVERY: usize = 16;

/// A dense materialization of one chain state (derived, never serialized).
#[derive(Debug, Clone, PartialEq)]
struct Checkpoint {
    counts: Box<[u32]>,
    scores: Box<[f64]>,
}

impl Checkpoint {
    fn from_counts(counts: &[u32]) -> Checkpoint {
        Checkpoint {
            scores: counts.iter().map(|&f| gain(f)).collect(),
            counts: counts.to_vec().into_boxed_slice(),
        }
    }
}

/// Fold a sparse delta into a sorted `(item, accumulated change)` list.
fn merge_delta(running: &mut Vec<(u32, i64)>, delta: &[(u32, i64)]) {
    if delta.is_empty() {
        return;
    }
    let mut d: Vec<(u32, i64)> = delta.to_vec();
    d.sort_unstable_by_key(|e| e.0);
    d.dedup_by(|b, a| {
        if a.0 == b.0 {
            a.1 += b.1;
            true
        } else {
            false
        }
    });
    let mut merged = Vec::with_capacity(running.len() + d.len());
    let (mut ai, mut bi) = (0usize, 0usize);
    while ai < running.len() || bi < d.len() {
        match (running.get(ai), d.get(bi)) {
            (Some(&(ri, rc)), Some(&(di, dc))) => {
                if ri < di {
                    merged.push((ri, rc));
                    ai += 1;
                } else if di < ri {
                    merged.push((di, dc));
                    bi += 1;
                } else {
                    merged.push((ri, rc + dc));
                    ai += 1;
                    bi += 1;
                }
            }
            (Some(&e), None) => {
                merged.push(e);
                ai += 1;
            }
            (None, Some(&e)) => {
                merged.push(e);
                bi += 1;
            }
            (None, None) => unreachable!(),
        }
    }
    *running = merged;
}

/// The assignment-frequency snapshots OSLG's sequential phase produces —
/// `F(θ_s)` for each sampled user `s` (Algorithm 1, line 8), kept sorted by
/// θ so any user can be served from the snapshot of the nearest sampled θ
/// (lines 11–15).
///
/// This is the shared coverage state an online query path scores against:
/// it is immutable after the sequential phase, so any number of concurrent
/// single-user queries can read it without coordination.
///
/// ## Storage
///
/// Consecutive sequential-phase snapshots differ by exactly the N items
/// just assigned, so the store keeps **sparse signed deltas** in push
/// order (the *chain*) instead of `S` dense count vectors — `O(|I| + S·N)`
/// memory and serialized bytes instead of `O(S·|I|)`. Dense
/// count+score checkpoints every [`CHECKPOINT_EVERY`] chain steps (derived
/// state, rebuilt on load) bound per-request reconstruction to a bounded
/// sparse overlay on top of a checkpoint. θ order is a permutation
/// (`chain`) over the chain, so [`CoverageSnapshots::sort_by_theta`] never
/// touches the deltas.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageSnapshots {
    /// θ of each stored snapshot, ascending.
    thetas: Vec<f64>,
    /// Chain position of the snapshot at each sorted-θ position.
    chain: Vec<u32>,
    /// Sparse signed deltas in push order: `deltas[k]` transforms chain
    /// state `k−1` into state `k`; state `−1` is all-zero counts.
    deltas: Vec<Box<[(u32, i64)]>>,
    /// Catalog size (0 until the first push fixes it).
    n_items: usize,
    /// `checkpoints[j]` = dense chain state `j·CHECKPOINT_EVERY − 1`
    /// (`j = 0` is the all-zero state). Derived, not serialized.
    checkpoints: Vec<Checkpoint>,
    /// `overlays[k]` = the sorted `(item, score)` pairs in which chain
    /// state `k` differs from its segment's checkpoint — the per-request
    /// view is a slice lookup, no reconstruction. Derived, not serialized.
    overlays: Vec<Box<[(u32, f64)]>>,
    /// Accumulated `(item, count change)` since the segment's checkpoint,
    /// sorted by item (push-time bookkeeping for `overlays`).
    running: Vec<(u32, i64)>,
    /// Dense counts at the end of the chain (for delta computation).
    tail: Vec<u32>,
}

impl CoverageSnapshots {
    /// An empty snapshot store (no sampled users yet). The catalog size is
    /// fixed by the first push.
    pub fn new() -> CoverageSnapshots {
        CoverageSnapshots {
            thetas: Vec::new(),
            chain: Vec::new(),
            deltas: Vec::new(),
            n_items: 0,
            checkpoints: Vec::new(),
            overlays: Vec::new(),
            running: Vec::new(),
            tail: Vec::new(),
        }
    }

    /// An empty store over a known catalog, ready for
    /// [`CoverageSnapshots::push_assigned`].
    pub fn for_items(n_items: u32) -> CoverageSnapshots {
        let mut s = CoverageSnapshots::new();
        s.ensure_dims(n_items as usize);
        s
    }

    fn ensure_dims(&mut self, n_items: usize) {
        if self.n_items == 0 && self.tail.is_empty() {
            self.n_items = n_items;
            self.tail = vec![0; n_items];
            self.checkpoints = vec![Checkpoint::from_counts(&self.tail)];
        }
    }

    /// Append one `(θ_s, F(θ_s))` pair as a dense count vector; the sparse
    /// delta against the previous push is computed here. Callers must push
    /// in increasing θ (the OSLG ordering produces this for free);
    /// [`CoverageSnapshots::sort_by_theta`] restores the invariant for
    /// arbitrary-order ablations.
    pub fn push(&mut self, theta: f64, snapshot: &[u32]) {
        self.ensure_dims(snapshot.len());
        assert_eq!(snapshot.len(), self.n_items, "snapshot must cover catalog");
        let delta: Box<[(u32, i64)]> = self
            .tail
            .iter()
            .zip(snapshot.iter())
            .enumerate()
            .filter(|(_, (&old, &new))| new != old)
            .map(|(i, (&old, &new))| (i as u32, new as i64 - old as i64))
            .collect();
        self.apply(theta, delta);
    }

    /// Append one snapshot as the list just assigned (Algorithm 1, line 8):
    /// the new state is the previous one plus one count per item in
    /// `assigned`. `O(N)`, no dense vector touched.
    pub fn push_assigned(&mut self, theta: f64, assigned: &[ItemId]) {
        assert!(
            self.n_items > 0 || assigned.is_empty(),
            "use for_items(n) or a dense push before push_assigned"
        );
        let delta: Box<[(u32, i64)]> = assigned.iter().map(|i| (i.0, 1)).collect();
        self.apply(theta, delta);
    }

    fn apply(&mut self, theta: f64, delta: Box<[(u32, i64)]>) {
        let k = self.deltas.len();
        self.chain.push(k as u32);
        self.deltas.push(delta);
        self.thetas.push(theta);
        self.derive_step(k);
    }

    /// Fold chain step `k` (already present in `deltas`) into the derived
    /// state: tail counts, the running since-checkpoint accumulator, and
    /// either a fresh checkpoint or the step's precomputed overlay.
    fn derive_step(&mut self, k: usize) {
        for &(i, ch) in self.deltas[k].iter() {
            let c = &mut self.tail[i as usize];
            *c = (*c as i64 + ch).max(0) as u32;
        }
        merge_delta(&mut self.running, &self.deltas[k]);
        if (k + 1).is_multiple_of(CHECKPOINT_EVERY) {
            self.checkpoints.push(Checkpoint::from_counts(&self.tail));
            self.running.clear();
            self.overlays.push(Box::new([]));
        } else {
            let cp = self.checkpoints.last().expect("base checkpoint exists");
            let overlay: Box<[(u32, f64)]> = self
                .running
                .iter()
                .map(|&(i, ch)| {
                    let count = (cp.counts[i as usize] as i64 + ch).max(0) as u32;
                    (i, gain(count))
                })
                .collect();
            self.overlays.push(overlay);
        }
    }

    /// Rebuild the derived state (checkpoints, overlays, tail) from the
    /// delta chain — after decode. The dense all-zero base state is sized
    /// by the decoded catalog size, so it is reserved fallibly: a header
    /// claiming a catalog this process cannot hold is an error, not an
    /// abort.
    fn rebuild_derived(&mut self) -> Result<(), TryReserveError> {
        fn try_filled<T: Clone>(value: T, n: usize) -> Result<Vec<T>, TryReserveError> {
            let mut v = Vec::new();
            v.try_reserve_exact(n)?;
            v.resize(n, value);
            Ok(v)
        }
        self.tail = try_filled(0, self.n_items)?;
        self.checkpoints.clear();
        self.overlays.clear();
        self.running.clear();
        if self.n_items == 0 {
            return Ok(());
        }
        self.checkpoints.push(Checkpoint {
            counts: try_filled(0, self.n_items)?.into_boxed_slice(),
            scores: try_filled(gain(0), self.n_items)?.into_boxed_slice(),
        });
        for k in 0..self.deltas.len() {
            self.derive_step(k);
        }
        Ok(())
    }

    /// Number of stored snapshots.
    pub fn len(&self) -> usize {
        self.thetas.len()
    }

    /// Whether no snapshots are stored.
    pub fn is_empty(&self) -> bool {
        self.thetas.is_empty()
    }

    /// Catalog size the snapshots cover (0 for an empty store).
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Re-sort the store by θ (stable), for snapshots pushed out of order.
    /// Only the `(θ, chain position)` pairs move — the delta chain itself
    /// is order-independent and is never copied.
    pub fn sort_by_theta(&mut self) {
        let mut order: Vec<usize> = (0..self.thetas.len()).collect();
        order.sort_by(|&a, &b| {
            self.thetas[a]
                .partial_cmp(&self.thetas[b])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        self.thetas = order.iter().map(|&k| self.thetas[k]).collect();
        self.chain = order.iter().map(|&k| self.chain[k]).collect();
    }

    /// Index of the snapshot whose θ is nearest to `t`. Ties prefer the
    /// lower θ — the earlier, less tail-discounted snapshot.
    ///
    /// # Panics
    /// If the store is empty.
    pub fn nearest_idx(&self, t: f64) -> usize {
        let thetas = &self.thetas;
        assert!(!thetas.is_empty(), "no snapshots stored");
        let pos = thetas.partition_point(|&s| s < t);
        if pos == 0 {
            return 0;
        }
        if pos >= thetas.len() {
            return thetas.len() - 1;
        }
        let below = pos - 1;
        if (t - thetas[below]) <= (thetas[pos] - t) {
            below
        } else {
            pos
        }
    }

    /// Reconstruct the dense assignment frequencies of the snapshot at
    /// sorted position `idx` (checkpoint + bounded delta replay).
    pub fn counts_at(&self, idx: usize) -> Vec<u32> {
        let k = self.chain[idx] as usize;
        let j = (k + 1) / CHECKPOINT_EVERY;
        let mut counts = self.checkpoints[j].counts.to_vec();
        for d in &self.deltas[j * CHECKPOINT_EVERY..=k] {
            for &(i, ch) in d.iter() {
                let c = &mut counts[i as usize];
                *c = (*c as i64 + ch).max(0) as u32;
            }
        }
        counts
    }

    /// The per-request coverage view of the snapshot nearest to `t`: its
    /// segment checkpoint's score slice plus the snapshot's precomputed
    /// sparse overlay — an index lookup, nothing is reconstructed. Scores
    /// are bit-identical to a dense `1/√(f+1)` fill of the same snapshot.
    pub fn view_near(&self, t: f64) -> CoverageView<'_> {
        let k = self.chain[self.nearest_idx(t)] as usize;
        let cp = &self.checkpoints[(k + 1) / CHECKPOINT_EVERY];
        let overlay = &self.overlays[k];
        if overlay.is_empty() {
            CoverageView::Dense(&cp.scores)
        } else {
            CoverageView::Patched {
                base: &cp.scores,
                overlay,
            }
        }
    }

    /// The stored θ values, ascending.
    pub fn thetas(&self) -> &[f64] {
        &self.thetas
    }

    /// The inclusive range of sorted snapshot positions any query
    /// θ ∈ `[lo, hi]` can resolve to — the sub-range a θ-band shard must
    /// hold to answer its band's requests exactly like the full store.
    ///
    /// `lo = f64::NEG_INFINITY` / `hi = f64::INFINITY` denote the open ends
    /// of the first and last band. Correctness rests on
    /// [`CoverageSnapshots::nearest_idx`] being monotone non-decreasing in
    /// its argument (with the lower-θ tie rule), so the possibly-nearest set
    /// for an interval is exactly `nearest_idx(lo)..=nearest_idx(hi)`.
    ///
    /// # Panics
    /// If the store is empty.
    pub fn band_range(&self, lo: f64, hi: f64) -> std::ops::RangeInclusive<usize> {
        assert!(lo <= hi, "band bounds out of order: [{lo}, {hi}]");
        self.nearest_idx(lo)..=self.nearest_idx(hi)
    }

    /// A new store holding only the snapshots at sorted positions `range`
    /// (half-open), re-encoded as a fresh delta chain over the same catalog.
    ///
    /// Counts are reconstructed exactly (they are integers), so every score
    /// the extracted store serves is bit-identical to the source store's for
    /// the same snapshot. Under the OSLG increasing-θ ordering, consecutive
    /// sorted snapshots differ by one assignment's `N` items, so the
    /// re-encoded chain is `O(|I| + band·N)` — the extracted store never
    /// pays for snapshots outside its band.
    pub fn extract_range(&self, range: std::ops::Range<usize>) -> CoverageSnapshots {
        assert!(
            range.end <= self.len(),
            "range {range:?} exceeds {} snapshots",
            self.len()
        );
        let mut out = if self.n_items > 0 {
            CoverageSnapshots::for_items(self.n_items as u32)
        } else {
            CoverageSnapshots::new()
        };
        for k in range {
            out.push(self.thetas[k], &self.counts_at(k));
        }
        out
    }

    /// The θ-band shard of this store: the sub-range any θ ∈ `[lo, hi)` (or
    /// the closed ends at ±∞) resolves into, as an owned store. Queries in
    /// the band against the slice return bit-identical views to queries
    /// against the full store: the slice's `nearest_idx` sees the same
    /// neighbor θs the full store's does for every in-band θ, and
    /// reconstruction is exact.
    ///
    /// # Panics
    /// If the store is empty.
    pub fn slice_band(&self, lo: f64, hi: f64) -> CoverageSnapshots {
        let r = self.band_range(lo, hi);
        self.extract_range(*r.start()..*r.end() + 1)
    }
}

impl Default for CoverageSnapshots {
    fn default() -> CoverageSnapshots {
        CoverageSnapshots::new()
    }
}

/// Wire sentinel: the first `u64` of every payload. Decode refuses a
/// payload that does not start with it, so bytes that are not a snapshot
/// store — a misaligned read of the artifact, or a store written in another
/// layout — fail at the first word instead of being read as θs and deltas.
/// (The artifact's envelope refuses every format version but the current
/// one before this is read.)
const DELTA_WIRE_SENTINEL: u64 = u64::MAX;

// Hand-written serde: the sentinel, catalog size, θs, the chain
// permutation, and the sparse deltas — `O(|I| + S·N)` bytes. Checkpoints
// and tail are derived and rebuilt on decode.
impl Serialize for CoverageSnapshots {
    fn serialize<S: Serializer>(&self, s: &mut S) -> Result<(), S::Error> {
        s.put_u64(DELTA_WIRE_SENTINEL)?;
        s.put_u64(self.n_items as u64)?;
        self.thetas.serialize(s)?;
        self.chain.serialize(s)?;
        s.begin_seq(self.deltas.len())?;
        for d in &self.deltas {
            s.begin_seq(d.len())?;
            for &(i, ch) in d.iter() {
                s.put_u32(i)?;
                s.put_i64(ch)?;
            }
        }
        Ok(())
    }
}

impl<'de> Deserialize<'de> for CoverageSnapshots {
    fn deserialize<D: Deserializer<'de>>(d: &mut D) -> Result<Self, D::Error> {
        if d.get_u64()? != DELTA_WIRE_SENTINEL {
            return Err(d.invalid("CoverageSnapshots layout sentinel"));
        }
        // The header's catalog size bounds every item id and sizes the
        // derived dense state, so hold it to the item-id space (in `u64`:
        // a truncating cast would wrap a huge claim to a small bound).
        let n_items = d.get_u64()?;
        if n_items > u32::MAX as u64 {
            return Err(d.invalid("CoverageSnapshots catalog size"));
        }
        let mut out = CoverageSnapshots::new();
        out.n_items = n_items as usize;
        out.thetas = Vec::<f64>::deserialize(d)?;
        out.chain = Vec::<u32>::deserialize(d)?;
        let n_deltas = d.get_seq_len()?;
        out.deltas = Vec::with_capacity(n_deltas);
        for _ in 0..n_deltas {
            let len = d.get_seq_len()?;
            let mut delta = Vec::with_capacity(len);
            for _ in 0..len {
                let i = d.get_u32()?;
                let ch = d.get_i64()?;
                delta.push((i, ch));
            }
            out.deltas.push(delta.into_boxed_slice());
        }
        if out.thetas.len() != out.chain.len() || out.deltas.len() != out.chain.len() {
            return Err(d.invalid("CoverageSnapshots chain lengths"));
        }
        // A corrupt payload must surface as a decode error, not a panic in
        // derived-state rebuilding or a later request.
        let n_deltas = out.deltas.len() as u32;
        if out.chain.iter().any(|&k| k >= n_deltas) {
            return Err(d.invalid("CoverageSnapshots chain index"));
        }
        if out
            .deltas
            .iter()
            .any(|delta| delta.iter().any(|&(i, _)| i as u64 >= n_items))
        {
            return Err(d.invalid("CoverageSnapshots delta item id"));
        }
        out.rebuild_derived()
            .map_err(|_| d.invalid("CoverageSnapshots catalog size"))?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::CoverageProvider;
    use ganc_dataset::{DatasetBuilder, RatingScale, UserId};

    fn train() -> Interactions {
        let mut b = DatasetBuilder::new("t", RatingScale::stars_1_5());
        for u in 0..3u32 {
            b.push(UserId(u), ItemId(0), 4.0).unwrap();
        }
        b.push(UserId(0), ItemId(1), 4.0).unwrap();
        let d = b.build().unwrap();
        // Widen the item space so item 2 exists but is unrated.
        Interactions::from_ratings(d.n_users(), 3, d.ratings())
    }

    #[test]
    fn static_scores_decrease_with_popularity() {
        let c = StatCoverage::fit(&train());
        assert!(c.score(ItemId(1)) > c.score(ItemId(0)));
        assert!(c.score(ItemId(2)) == 1.0, "unrated item scores 1");
        assert!((c.score(ItemId(0)) - 0.5).abs() < 1e-12); // 1/√4
    }

    #[test]
    fn static_set_count_matches_full_rebuild() {
        let mut pops = train().item_popularity();
        let mut c = StatCoverage::from_popularity(&pops);
        pops[1] += 5;
        c.set_count(ItemId(1), pops[1]);
        assert_eq!(c, StatCoverage::from_popularity(&pops));
    }

    #[test]
    fn dynamic_starts_at_one_and_decays() {
        let mut c = DynCoverage::new(3);
        assert_eq!(c.score(ItemId(0)), 1.0);
        c.observe(&[ItemId(0), ItemId(0), ItemId(0)]);
        assert!((c.score(ItemId(0)) - 0.5).abs() < 1e-12);
        assert_eq!(c.score(ItemId(1)), 1.0);
    }

    #[test]
    fn dynamic_marginal_gains_diminish() {
        // The submodularity driver: each additional recommendation of the
        // same item strictly lowers its next score.
        let mut c = DynCoverage::new(1);
        let mut last = f64::INFINITY;
        for _ in 0..10 {
            let s = c.score(ItemId(0));
            assert!(s < last);
            last = s;
            c.observe(&[ItemId(0)]);
        }
    }

    #[test]
    fn dynamic_cached_scores_match_formula() {
        let mut c = DynCoverage::new(4);
        c.observe(&[ItemId(2), ItemId(2), ItemId(0)]);
        for i in 0..4u32 {
            let f = c.counts[i as usize];
            assert_eq!(c.score(ItemId(i)), 1.0 / ((f as f64) + 1.0).sqrt());
        }
        assert_eq!(c.scores()[2], c.score(ItemId(2)));
    }

    #[test]
    fn snapshot_round_trips() {
        let mut c = DynCoverage::new(3);
        c.observe(&[ItemId(1), ItemId(2), ItemId(1)]);
        let mut stored = CoverageSnapshots::new();
        stored.push(0.5, &c.counts);
        let resumed = stored.counts_at(stored.nearest_idx(0.5));
        assert_eq!(resumed[1], 2);
        assert_eq!(stored.view_near(0.5).score_at(1), c.score(ItemId(1)));
        assert_eq!(resumed, c.counts);
    }

    #[test]
    fn random_coverage_is_deterministic_and_user_specific() {
        let c = RandCoverage::new(9);
        let mut a = vec![0.0; 8];
        let mut b = vec![0.0; 8];
        c.view(UserId(0), 0.0).fill(&mut a);
        c.view(UserId(0), 0.0).fill(&mut b);
        assert_eq!(a, b);
        c.view(UserId(1), 0.0).fill(&mut b);
        assert_ne!(a, b);
        assert!(a.iter().all(|&x| (0.0..1.0).contains(&x)));
        for (i, &dense) in a.iter().enumerate() {
            assert_eq!(unit_hash(9, 0, i as u32), dense);
        }
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(CoverageKind::Random.label(), "Rand");
        assert_eq!(CoverageKind::Static.label(), "Stat");
        assert_eq!(CoverageKind::Dynamic.label(), "Dyn");
    }

    #[test]
    fn snapshots_nearest_picks_closest_theta() {
        let mut s = CoverageSnapshots::new();
        for (t, item) in [(0.1, 0u32), (0.4, 1), (0.9, 2)] {
            let mut c = DynCoverage::new(3);
            c.observe(&[ItemId(item)]);
            s.push(t, &c.counts);
        }
        assert_eq!(s.nearest_idx(0.0), 0);
        assert_eq!(s.nearest_idx(0.3), 1);
        assert_eq!(s.nearest_idx(0.2), 0); // closer to 0.1
        assert_eq!(s.nearest_idx(0.95), 2);
        assert_eq!(s.nearest_idx(0.65), 1);
        // Exact tie 0.25 between 0.1 and 0.4 prefers the lower θ.
        assert_eq!(s.nearest_idx(0.25), 0);
        assert_eq!(s.counts_at(s.nearest_idx(0.95)), &[0, 0, 1]);
    }

    #[test]
    fn snapshots_sort_restores_theta_order() {
        let mut s = CoverageSnapshots::new();
        s.push(0.8, &[8]);
        s.push(0.2, &[2]);
        s.push(0.5, &[5]);
        s.sort_by_theta();
        assert_eq!(s.thetas(), &[0.2, 0.5, 0.8]);
        assert_eq!(s.counts_at(s.nearest_idx(0.19)), &[2]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
    }

    #[test]
    fn snapshots_scores_match_dyn_formula() {
        let mut s = CoverageSnapshots::new();
        s.push(0.5, &[0, 3, 8]);
        let mut buf = vec![0.0; 3];
        s.view_near(0.5).fill(&mut buf);
        assert_eq!(buf, vec![1.0, 0.5, 1.0 / 3.0]);
    }

    #[test]
    fn push_assigned_equals_dense_push() {
        let mut dense = CoverageSnapshots::new();
        let mut sparse = CoverageSnapshots::for_items(5);
        let mut cov = DynCoverage::new(5);
        let lists: Vec<Vec<ItemId>> = vec![
            vec![ItemId(0), ItemId(2)],
            vec![ItemId(2), ItemId(4)],
            vec![ItemId(1), ItemId(2)],
        ];
        for (k, list) in lists.iter().enumerate() {
            cov.observe(list);
            let t = 0.1 + 0.3 * k as f64;
            dense.push(t, &cov.counts);
            sparse.push_assigned(t, list);
        }
        for (k, t) in [(0usize, 0.1f64), (1, 0.4), (2, 0.7)] {
            assert_eq!(dense.counts_at(k), sparse.counts_at(k));
            let mut a = vec![0.0; 5];
            let mut b = vec![0.0; 5];
            dense.view_near(t).fill(&mut a);
            sparse.view_near(t).fill(&mut b);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn view_matches_dense_scores_across_checkpoints() {
        // Enough pushes to cross several checkpoint boundaries.
        let n_items = 17u32;
        let mut s = CoverageSnapshots::for_items(n_items);
        let mut cov = DynCoverage::new(n_items);
        let total = 3 * CHECKPOINT_EVERY + 5;
        for k in 0..total {
            let list = [
                ItemId((k as u32 * 7) % n_items),
                ItemId((k as u32 * 5 + 3) % n_items),
            ];
            cov.observe(&list);
            s.push_assigned(k as f64 / total as f64, &list);
        }
        let mut dense = vec![0.0; n_items as usize];
        for q in 0..=20 {
            let t = q as f64 / 20.0;
            s.view_near(t).fill(&mut dense);
            let counts = s.counts_at(s.nearest_idx(t));
            for i in 0..n_items {
                let expect = gain(counts[i as usize]);
                assert_eq!(dense[i as usize], expect, "t={t} item {i}");
            }
        }
    }

    #[test]
    fn delta_wire_round_trips_and_shrinks() {
        let n_items = 200u32;
        let mut s = CoverageSnapshots::for_items(n_items);
        let mut cov = DynCoverage::new(n_items);
        for k in 0..100u32 {
            let list = [ItemId(k % n_items), ItemId((k * 13 + 1) % n_items)];
            cov.observe(&list);
            s.push_assigned(k as f64 / 100.0, &list);
        }
        let bytes = bincode::serialize(&s).unwrap();
        let restored: CoverageSnapshots = bincode::deserialize(&bytes).unwrap();
        assert_eq!(restored, s);
        // Dense layout would hold 100 × 200 u32 counts alone.
        let dense_floor = 100 * 200 * 4;
        assert!(
            bytes.len() * 5 < dense_floor,
            "{} bytes is not ≥5× below the {} dense floor",
            bytes.len(),
            dense_floor
        );
    }

    #[test]
    fn corrupt_wire_is_an_error_not_a_panic() {
        // v2 payload whose delta references an item outside the catalog.
        let mut p = bincode::serialize(&u64::MAX).unwrap();
        p.extend(bincode::serialize(&3u64).unwrap()); // n_items
        p.extend(bincode::serialize(&vec![0.5f64]).unwrap()); // thetas
        p.extend(bincode::serialize(&vec![0u32]).unwrap()); // chain
        p.extend(bincode::serialize(&1u64).unwrap()); // 1 delta
        p.extend(bincode::serialize(&1u64).unwrap()); // of 1 entry
        p.extend(bincode::serialize(&999u32).unwrap()); // item 999 ≥ 3
        p.extend(bincode::serialize(&1i64).unwrap());
        assert!(bincode::deserialize::<CoverageSnapshots>(&p).is_err());

        // v2 payload whose chain points past the delta list.
        let mut p = bincode::serialize(&u64::MAX).unwrap();
        p.extend(bincode::serialize(&3u64).unwrap());
        p.extend(bincode::serialize(&vec![0.5f64]).unwrap());
        p.extend(bincode::serialize(&vec![7u32]).unwrap()); // chain idx 7 ≥ 1
        p.extend(bincode::serialize(&1u64).unwrap());
        p.extend(bincode::serialize(&1u64).unwrap());
        p.extend(bincode::serialize(&0u32).unwrap());
        p.extend(bincode::serialize(&1i64).unwrap());
        assert!(bincode::deserialize::<CoverageSnapshots>(&p).is_err());

        // Headers claiming a catalog beyond the item-id space: 2^61 would
        // overflow the dense state's capacity, and 2^32 + 3 would wrap a
        // `u32` bound to 3. Neither may size an allocation.
        for n_items in [1u64 << 61, (1u64 << 32) + 3] {
            let mut p = bincode::serialize(&u64::MAX).unwrap();
            p.extend(bincode::serialize(&n_items).unwrap());
            p.extend(bincode::serialize(&Vec::<f64>::new()).unwrap());
            p.extend(bincode::serialize(&Vec::<u32>::new()).unwrap());
            p.extend(bincode::serialize(&0u64).unwrap()); // no deltas
            assert_eq!(p.len(), 40);
            assert!(bincode::deserialize::<CoverageSnapshots>(&p).is_err());
        }

        // A payload that does not open with the layout sentinel (the
        // retired dense v1 layout began with the θ vector length).
        let thetas: Vec<f64> = vec![0.1, 0.2];
        let counts: Vec<Box<[u32]>> =
            vec![vec![1, 2].into_boxed_slice(), vec![1, 2].into_boxed_slice()];
        let mut p = bincode::serialize(&thetas).unwrap();
        p.extend(bincode::serialize(&counts).unwrap());
        assert!(bincode::deserialize::<CoverageSnapshots>(&p).is_err());
    }

    /// A chain long enough to cross several dense-checkpoint boundaries,
    /// with enough θ spread to cut bands anywhere. Step `k` is pushed at θ
    /// rank `k·stride mod steps`: stride 1 pushes in increasing θ, as OSLG
    /// does; a stride coprime to `steps` pushes in shuffled θ and sorts
    /// afterwards, as the `UserOrdering::Arbitrary` ablation does, so
    /// neighbours in θ order sit anywhere in the chain and a band slice
    /// re-encodes deltas of both signs.
    fn chain_fixture(n_items: u32, steps: usize, stride: usize) -> CoverageSnapshots {
        let mut s = CoverageSnapshots::for_items(n_items);
        for k in 0..steps {
            let list = [
                ItemId((k as u32 * 7) % n_items),
                ItemId((k as u32 * 11 + 3) % n_items),
            ];
            s.push_assigned(((k * stride) % steps) as f64 / steps as f64, &list);
        }
        s.sort_by_theta();
        assert!(
            s.thetas().windows(2).all(|w| w[0] < w[1]),
            "stride {stride} must be coprime to {steps} steps"
        );
        s
    }

    /// Every θ in `[lo, hi)` must resolve to bit-identical scores through
    /// the sliced store and the full store.
    fn assert_band_equivalent(full: &CoverageSnapshots, lo: f64, hi: f64) {
        let slice = full.slice_band(lo, hi);
        assert!(!slice.is_empty(), "a band slice always keeps ≥1 snapshot");
        assert_eq!(slice.n_items(), full.n_items());
        let n_items = full.n_items();
        let mut a = vec![0.0; n_items];
        let mut b = vec![0.0; n_items];
        let (plo, phi) = (lo.max(-0.25), hi.min(1.25));
        for q in 0..=64 {
            let t = plo + (phi - plo) * q as f64 / 64.0;
            if t >= hi {
                continue;
            }
            assert_eq!(
                full.counts_at(full.nearest_idx(t)),
                slice.counts_at(slice.nearest_idx(t)),
                "counts diverge at θ={t} for band [{lo}, {hi})"
            );
            full.view_near(t).fill(&mut a);
            slice.view_near(t).fill(&mut b);
            assert_eq!(a, b, "scores diverge at θ={t} for band [{lo}, {hi})");
        }
    }

    #[test]
    fn extract_empty_range_yields_empty_store() {
        let full = chain_fixture(13, 10, 1);
        let empty = full.extract_range(4..4);
        assert!(empty.is_empty());
        assert_eq!(empty.len(), 0);
        assert_eq!(empty.n_items(), full.n_items(), "catalog size survives");
    }

    #[test]
    fn empty_band_between_duplicate_cuts_still_serves() {
        // An empty user band (two identical cut values) still produces a
        // valid single-snapshot slice: band_range always keeps the boundary
        // snapshot both neighbors share, and resolving the cut θ through
        // the slice must match the full store exactly.
        let full = chain_fixture(13, 20, 1);
        let cut = full.thetas()[7];
        let slice = full.slice_band(cut, cut);
        assert_eq!(slice.len(), 1, "degenerate band keeps exactly one");
        assert_eq!(slice.n_items(), full.n_items());
        // A single-snapshot slice resolves every θ to its one snapshot,
        // which must be the one the full store resolves the cut θ to.
        let mut a = vec![0.0; full.n_items()];
        let mut b = vec![0.0; full.n_items()];
        for probe in [cut, f64::NEG_INFINITY, f64::INFINITY] {
            assert_eq!(
                slice.counts_at(slice.nearest_idx(probe)),
                full.counts_at(full.nearest_idx(cut))
            );
            slice.view_near(probe).fill(&mut a);
            full.view_near(cut).fill(&mut b);
            assert_eq!(a, b, "probe {probe} diverges");
        }
    }

    #[test]
    fn band_spanning_checkpoint_boundary_is_exact() {
        // CHECKPOINT_EVERY = 16: bands straddling chain steps 15|16 and
        // 31|32 force reconstruction across checkpoint segments.
        let steps = 3 * CHECKPOINT_EVERY + 5;
        for full in [chain_fixture(17, steps, 1), chain_fixture(17, steps, 37)] {
            let th = full.thetas();
            for (a, b) in [
                (CHECKPOINT_EVERY - 3, CHECKPOINT_EVERY + 3),
                (2 * CHECKPOINT_EVERY - 1, 2 * CHECKPOINT_EVERY + 1),
                (1, 3 * CHECKPOINT_EVERY + 2),
            ] {
                assert_band_equivalent(&full, th[a], th[b]);
            }
        }
    }

    #[test]
    fn single_snapshot_band_is_exact() {
        let shuffled = chain_fixture(13, 3 * CHECKPOINT_EVERY + 5, 37);
        for full in [chain_fixture(13, 40, 1), shuffled] {
            // A band tight enough that only one snapshot is nearest-reachable.
            let th = full.thetas();
            let mid = (th[20] + th[21]) / 2.0;
            let slice = full.slice_band(th[20], mid.min(th[21]));
            assert!(slice.len() <= 2);
            assert_band_equivalent(&full, th[20], (th[20] + th[21]) / 2.0);
            // Whole-store band and open-ended bands stay exact too.
            assert_band_equivalent(&full, f64::NEG_INFINITY, 0.3);
            assert_band_equivalent(&full, 0.7, f64::INFINITY);
            assert_band_equivalent(&full, f64::NEG_INFINITY, f64::INFINITY);
        }
    }

    #[test]
    fn theta_duplicates_on_a_band_cut_resolve_identically() {
        // Several snapshots share the exact θ value a band is cut at; both
        // sides must keep the copies their queries can resolve to, and the
        // lower-θ tie rule must pick the same snapshot through the slice.
        let n_items = 11u32;
        let mut full = CoverageSnapshots::for_items(n_items);
        let mut cov = DynCoverage::new(n_items);
        let thetas = [0.1, 0.3, 0.5, 0.5, 0.5, 0.7, 0.9];
        for (k, &t) in thetas.iter().enumerate() {
            let list = [ItemId((k as u32 * 5 + 1) % n_items)];
            cov.observe(&list);
            full.push_assigned(t, &list);
        }
        let cut = 0.5;
        assert_band_equivalent(&full, f64::NEG_INFINITY, cut);
        assert_band_equivalent(&full, cut, f64::INFINITY);
        // The cut θ itself belongs to the upper band and must hit the
        // *first* duplicate (lower tie rule) through the slice as well.
        let upper = full.slice_band(cut, f64::INFINITY);
        assert_eq!(
            upper.counts_at(upper.nearest_idx(cut)),
            full.counts_at(full.nearest_idx(cut))
        );
    }

    #[test]
    fn band_slices_round_trip_the_wire() {
        let full = chain_fixture(19, 50, 1);
        let slice = full.slice_band(0.2, 0.6);
        let bytes = bincode::serialize(&slice).unwrap();
        let restored: CoverageSnapshots = bincode::deserialize(&bytes).unwrap();
        assert_eq!(restored, slice);
    }

    #[test]
    fn scores_into_matches_pointwise() {
        let mut c = DynCoverage::new(4);
        c.observe(&[ItemId(2)]);
        let mut buf = vec![0.0; 4];
        c.view(UserId(0), 0.0).fill(&mut buf);
        for (i, &s) in buf.iter().enumerate() {
            assert_eq!(s, c.score(ItemId(i as u32)));
        }
    }
}
