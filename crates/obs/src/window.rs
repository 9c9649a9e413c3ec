//! Rolling beyond-accuracy windows over served top-N lists.
//!
//! The paper's offline trade-off metrics — catalog coverage@N, mean
//! novelty (−log₂ observation probability), long-tail share — become
//! live sliding-window signals here. Each served list contributes its
//! item set at a clock-seam timestamp; lists expire exactly when
//! `now ≥ at + window`. All aggregates (item frequencies, distinct
//! count, list count, novelty sum, tail hits) are maintained
//! incrementally, so `observe` and `stats` are O(list length + expired
//! work) — amortized O(1) per served item — never a rescan of the window.
//!
//! Storage is flat: every live served item id sits in one `VecDeque<u32>`,
//! oldest first, beside one 40-byte entry per **distinct timestamp** (its
//! list count, item count, novelty and tail sums). A list observed at the
//! newest entry's stamp merges into it — every list of one timestamp
//! expires at the same instant, so expiry stays exact. Engines stamp with
//! the kernel's coarse clock, so one entry holds a whole tick's lists. A served
//! list therefore costs 4 B per item plus at most one entry, observing
//! allocates nothing once the two buffers have grown to the window's
//! steady state, and dropping a window frees two buffers, not one per
//! list.
//!
//! Novelty is pre-quantized per item to integer **micro-bits**
//! (`round(−log₂ p × 1e6)`), so the running sum subtracts exactly on
//! expiry and a from-scratch recompute matches bit-for-bit — no float
//! drift over long uptimes.
//!
//! A window leaves its engine in one form, the [`WindowWire`] summary, and
//! bands are combined by one fold, [`WindowWire::union`] — whether the
//! bands live in one process or behind a router's peers.

use std::collections::VecDeque;
use std::time::Duration;

/// Per-item catalog facts frozen at fit time: novelty in micro-bits and
/// long-tail membership. Built once per bundle generation from the
/// already-loaded popularity counts; serving only indexes into it.
#[derive(Debug, Clone)]
pub struct CatalogProfile {
    novelty_microbits: Vec<u64>,
    tail: Vec<bool>,
}

/// Quantize a self-information value to integer micro-bits.
fn microbits(p: f64) -> u64 {
    (-(p.log2()) * 1e6).round() as u64
}

impl CatalogProfile {
    /// Build from pre-computed per-item novelty and tail membership.
    pub fn new(novelty_microbits: Vec<u64>, tail: Vec<bool>) -> CatalogProfile {
        assert_eq!(novelty_microbits.len(), tail.len());
        CatalogProfile {
            novelty_microbits,
            tail,
        }
    }

    /// Build from raw popularity counts using the same observation
    /// probability convention as `ganc_metrics::novelty`: `p = f / |U|`,
    /// floored at `1 / (|U| + 1)` for never-observed items.
    pub fn from_popularity(popularity: &[u32], n_users: u32, tail: Vec<bool>) -> CatalogProfile {
        assert_eq!(popularity.len(), tail.len());
        let users = n_users.max(1) as f64;
        let floor = 1.0 / (n_users as f64 + 1.0);
        let novelty_microbits = popularity
            .iter()
            .map(|&f| {
                let p = if f == 0 { floor } else { f as f64 / users };
                microbits(p.min(1.0))
            })
            .collect();
        CatalogProfile {
            novelty_microbits,
            tail,
        }
    }

    /// Catalog size.
    pub fn n_items(&self) -> usize {
        self.tail.len()
    }

    /// Novelty of `item` in micro-bits (−log₂ p × 1e6, rounded).
    pub fn novelty_microbits(&self, item: u32) -> u64 {
        self.novelty_microbits[item as usize]
    }

    /// Is `item` in the long tail?
    pub fn is_tail(&self, item: u32) -> bool {
        self.tail[item as usize]
    }
}

/// Snapshot of one window's (or fold's) rolling metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowStats {
    /// Served lists currently inside the window.
    pub lists: u64,
    /// Served items (with multiplicity) inside the window.
    pub items: u64,
    /// Distinct served items ÷ catalog size.
    pub coverage: f64,
    /// Mean −log₂ observation probability over served items, in bits.
    pub mean_novelty_bits: f64,
    /// Fraction of served items that are long-tail.
    pub long_tail_share: f64,
}

impl WindowStats {
    /// The all-zero snapshot of an empty window.
    pub fn empty() -> WindowStats {
        WindowStats {
            lists: 0,
            items: 0,
            coverage: 0.0,
            mean_novelty_bits: 0.0,
            long_tail_share: 0.0,
        }
    }
}

fn finalize(
    lists: u64,
    items: u64,
    distinct: usize,
    n_items: usize,
    novelty_microbits: u64,
    tail_hits: u64,
) -> WindowStats {
    WindowStats {
        lists,
        items,
        coverage: if n_items == 0 {
            0.0
        } else {
            distinct as f64 / n_items as f64
        },
        mean_novelty_bits: if items == 0 {
            0.0
        } else {
            novelty_microbits as f64 / 1e6 / items as f64
        },
        long_tail_share: if items == 0 {
            0.0
        } else {
            tail_hits as f64 / items as f64
        },
    }
}

/// Every list observed at one timestamp, summarized: its items are the
/// next `items` ids of the window's flat id queue.
#[derive(Debug)]
struct Entry {
    at_us: u64,
    lists: u64,
    items: u64,
    novelty_microbits: u64,
    tail_hits: u64,
}

/// Sliding-window accumulator over served top-N lists.
///
/// Not internally synchronized: callers wrap it in a `Mutex` (the
/// serving engines do) or own it exclusively.
#[derive(Debug)]
pub struct RollingWindow {
    window_us: u64,
    n_items: usize,
    /// One entry per distinct live timestamp, oldest first.
    entries: VecDeque<Entry>,
    /// Every live served item id, in entry order.
    ids: VecDeque<u32>,
    /// Per-item live frequency inside the window.
    freq: Vec<u32>,
    distinct: usize,
    lists: u64,
    novelty_microbits: u64,
    tail_hits: u64,
}

impl RollingWindow {
    /// A window of duration `window` over a catalog of `n_items` items.
    pub fn new(window: Duration, n_items: usize) -> RollingWindow {
        RollingWindow {
            window_us: (window.as_micros() as u64).max(1),
            n_items,
            entries: VecDeque::new(),
            ids: VecDeque::new(),
            freq: vec![0; n_items],
            distinct: 0,
            lists: 0,
            novelty_microbits: 0,
            tail_hits: 0,
        }
    }

    /// Drop every entry with `at + window <= now` — a list recorded at
    /// `t` is live for `now ∈ [t, t + window)` and expires exactly at
    /// the boundary.
    fn expire(&mut self, now_us: u64) {
        while let Some(front) = self.entries.front() {
            if front.at_us.saturating_add(self.window_us) > now_us {
                break;
            }
            let entry = self.entries.pop_front().unwrap();
            for item in self.ids.drain(..entry.items as usize) {
                let f = &mut self.freq[item as usize];
                *f -= 1;
                if *f == 0 {
                    self.distinct -= 1;
                }
            }
            self.lists -= entry.lists;
            self.novelty_microbits -= entry.novelty_microbits;
            self.tail_hits -= entry.tail_hits;
        }
    }

    /// Record one served top-N list at time `at_us`. The ids are appended
    /// to the window's flat queue straight from `list`, so a caller can
    /// stream them from its own list: nothing is staged.
    ///
    /// A stamp older than the newest entry's — concurrent recorders stamp
    /// before they take the window's lock — is raised to that entry's, so
    /// the list merges into it: entries stay in stamp order and each
    /// expires exactly on time.
    pub fn observe(
        &mut self,
        at_us: u64,
        list: impl IntoIterator<Item = u32>,
        catalog: &CatalogProfile,
    ) {
        debug_assert_eq!(catalog.n_items(), self.n_items);
        let at_us = self
            .entries
            .back()
            .map_or(at_us, |back| at_us.max(back.at_us));
        self.expire(at_us);
        let before = self.ids.len();
        self.ids.extend(list);
        let mut novelty = 0u64;
        let mut tail = 0u64;
        for &item in self.ids.range(before..) {
            let f = &mut self.freq[item as usize];
            if *f == 0 {
                self.distinct += 1;
            }
            *f += 1;
            novelty += catalog.novelty_microbits(item);
            tail += catalog.is_tail(item) as u64;
        }
        let items = (self.ids.len() - before) as u64;
        self.lists += 1;
        self.novelty_microbits += novelty;
        self.tail_hits += tail;
        match self.entries.back_mut() {
            Some(back) if back.at_us == at_us => {
                back.lists += 1;
                back.items += items;
                back.novelty_microbits += novelty;
                back.tail_hits += tail;
            }
            _ => self.entries.push_back(Entry {
                at_us,
                lists: 1,
                items,
                novelty_microbits: novelty,
                tail_hits: tail,
            }),
        }
    }

    /// Current window metrics as of `now_us` (expires stale entries
    /// first, then reads the running aggregates — no rescan).
    pub fn stats(&mut self, now_us: u64) -> WindowStats {
        self.expire(now_us);
        finalize(
            self.lists,
            self.ids.len() as u64,
            self.distinct,
            self.n_items,
            self.novelty_microbits,
            self.tail_hits,
        )
    }

    /// Expire, then export the live state as a [`WindowWire`] summary — the
    /// one form a window leaves its engine in.
    pub fn wire(&mut self, now_us: u64) -> WindowWire {
        self.expire(now_us);
        WindowWire {
            n_items: self.n_items,
            lists: self.lists,
            items: self.ids.len() as u64,
            novelty_microbits: self.novelty_microbits,
            tail_hits: self.tail_hits,
            distinct: (0..self.n_items as u32)
                .filter(|&i| self.freq[i as usize] > 0)
                .collect(),
        }
    }
}

/// A window's live state in transportable form: the four running sums
/// plus the **distinct served item ids** instead of the dense frequency
/// vector. Union coverage only needs to know *which* items were served —
/// multiplicity is already summarized in `items`, `novelty_microbits`, and
/// `tail_hits` — so [`WindowWire::union`] over summaries is exact. Every
/// band exports this, in-process or over the wire, and every cross-band
/// view (a sharded engine, a router, `/v1/stats`) folds it one way.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowWire {
    /// Catalog size the window was built over.
    pub n_items: usize,
    /// Served lists currently inside the window.
    pub lists: u64,
    /// Served items (with multiplicity) inside the window.
    pub items: u64,
    /// Sum of per-item novelty micro-bits over served items.
    pub novelty_microbits: u64,
    /// Long-tail served items (with multiplicity).
    pub tail_hits: u64,
    /// Item ids served at least once inside the window, ascending.
    pub distinct: Vec<u32>,
}

impl WindowWire {
    /// This summary's own metrics (identical to the stats of the window
    /// it was taken from).
    pub fn stats(&self) -> WindowStats {
        finalize(
            self.lists,
            self.items,
            self.distinct.len(),
            self.n_items,
            self.novelty_microbits,
            self.tail_hits,
        )
    }

    /// The one cross-band window fold: each band's own stats (`None` where
    /// a band could not report) and one summary of their **union** (`None`
    /// when no band reported). The sums add; coverage counts an item served
    /// by several bands once, so it is not the mean of the band coverages.
    /// The union is over the largest catalog any band reports; a band built
    /// over another catalog is listed but left out of it.
    pub fn union(bands: &[Option<WindowWire>]) -> (Vec<Option<WindowStats>>, Option<WindowWire>) {
        let stats = bands
            .iter()
            .map(|w| w.as_ref().map(WindowWire::stats))
            .collect();
        let Some(n_items) = bands.iter().flatten().map(|w| w.n_items).max() else {
            return (stats, None);
        };
        let mut served = vec![false; n_items];
        let mut union = WindowWire {
            n_items,
            lists: 0,
            items: 0,
            novelty_microbits: 0,
            tail_hits: 0,
            distinct: Vec::new(),
        };
        for wire in bands.iter().flatten().filter(|w| w.n_items == n_items) {
            for &item in &wire.distinct {
                if let Some(s) = served.get_mut(item as usize) {
                    *s = true;
                }
            }
            union.lists += wire.lists;
            union.items += wire.items;
            union.novelty_microbits += wire.novelty_microbits;
            union.tail_hits += wire.tail_hits;
        }
        union.distinct = (0..n_items as u32)
            .filter(|&i| served[i as usize])
            .collect();
        (stats, Some(union))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> CatalogProfile {
        // 4 items, popularity [4, 2, 1, 0] over 4 users.
        CatalogProfile::from_popularity(&[4, 2, 1, 0], 4, vec![false, false, true, true])
    }

    #[test]
    fn observe_accumulates_and_expires_at_exact_boundary() {
        let cat = catalog();
        let mut w = RollingWindow::new(Duration::from_micros(100), 4);
        w.observe(0, vec![0, 2], &cat);
        w.observe(50, vec![1], &cat);
        let s = w.stats(99);
        assert_eq!(s.lists, 2);
        assert_eq!(s.items, 3);
        assert_eq!(s.coverage, 3.0 / 4.0);
        // At exactly t=100 the first entry expires (live iff now < at+window).
        let s = w.stats(100);
        assert_eq!(s.lists, 1);
        assert_eq!(s.items, 1);
        assert_eq!(s.coverage, 1.0 / 4.0);
        // p(item 1) = 2/4 -> 1 bit of self-information.
        assert!((s.mean_novelty_bits - 1.0).abs() < 1e-9);
        assert_eq!(s.long_tail_share, 0.0);
        let s = w.stats(150);
        assert_eq!(s.lists, 0);
        assert_eq!(s, WindowStats::empty());
    }

    /// Deterministic lists of 1–3 ids over the 4-item catalog.
    fn lists(count: u32) -> Vec<Vec<u32>> {
        (0..count)
            .map(|i| (0..1 + i % 3).map(|j| (i * 7 + j) % 4).collect())
            .collect()
    }

    #[test]
    fn lists_at_one_timestamp_share_one_entry_and_expire_together() {
        let cat = catalog();
        let (t, span) = (500, 100);
        let mut w = RollingWindow::new(Duration::from_micros(span), 4);
        for list in lists(1000) {
            w.observe(t, list, &cat);
        }
        assert_eq!(w.entries.len(), 1, "one entry per distinct timestamp");
        assert_eq!(w.stats(t).lists, 1000);
        assert_eq!(w.stats(t + span - 1).lists, 1000, "live at t + w - 1");
        assert_eq!(w.stats(t + span), WindowStats::empty(), "all gone at t + w");
        assert!(w.entries.is_empty() && w.ids.is_empty());
    }

    #[test]
    fn merged_entries_export_the_wire_of_one_entry_per_list() {
        let cat = catalog();
        let (t, span) = (500, 10_000);
        let window = || RollingWindow::new(Duration::from_micros(span), 4);
        let (mut merged, mut spread) = (window(), window());
        for (at, list) in (t..).zip(lists(1000)) {
            merged.observe(t, list.iter().copied(), &cat);
            spread.observe(at, list, &cat);
        }
        assert_eq!((merged.entries.len(), spread.entries.len()), (1, 1000));
        let now = t + 999;
        assert_eq!(merged.wire(now), spread.wire(now));
    }

    #[test]
    fn a_stamp_older_than_the_newest_entry_merges_into_it() {
        let cat = catalog();
        let span = 100;
        let window = || RollingWindow::new(Duration::from_micros(span), 4);
        let (mut late, mut both_at_10) = (window(), window());
        late.observe(10, vec![0, 2], &cat);
        late.observe(5, vec![1], &cat);
        both_at_10.observe(10, vec![0, 2], &cat);
        both_at_10.observe(10, vec![1], &cat);
        assert_eq!(late.entries.len(), 1, "the late list joins the entry at 10");
        assert_eq!(late.wire(10), both_at_10.wire(10));
        assert_eq!(late.stats(10 + span - 1).lists, 2, "live at 10 + w - 1");
        assert_eq!(
            late.stats(10 + span),
            WindowStats::empty(),
            "gone at 10 + w"
        );
    }

    #[test]
    fn novelty_uses_the_metrics_crate_convention() {
        let cat = catalog();
        // p(0)=1 -> 0 bits; p(3) floored at 1/5 -> log2(5) bits.
        assert_eq!(cat.novelty_microbits(0), 0);
        let expect = (5.0f64.log2() * 1e6).round() as u64;
        assert_eq!(cat.novelty_microbits(3), expect);
    }

    #[test]
    fn union_of_band_wires_equals_one_window_over_every_list() {
        let cat = catalog();
        let window = || RollingWindow::new(Duration::from_micros(100), 4);
        let (mut a, mut b, mut all) = (window(), window(), window());
        for (at, list) in [(0, vec![0, 1, 1]), (5, vec![1, 2])] {
            all.observe(at, list.clone(), &cat);
            let band = if at == 0 { &mut a } else { &mut b };
            band.observe(at, list, &cat);
        }
        let wire = b.wire(10);
        assert_eq!(wire.stats(), b.stats(10), "wire stats match the source");
        let (bands, union) = WindowWire::union(&[Some(a.wire(10)), Some(wire)]);
        assert_eq!(bands, vec![Some(a.stats(10)), Some(b.stats(10))]);
        let union = union.unwrap();
        assert_eq!(union.stats(), all.stats(10));
        assert_eq!(union.distinct, vec![0, 1, 2]);
        // Expiry is honored before export.
        assert_eq!(b.wire(200).lists, 0);
    }

    #[test]
    fn union_counts_shared_items_once_and_skips_silent_bands() {
        let cat = catalog();
        let mut a = RollingWindow::new(Duration::from_micros(100), 4);
        let mut b = RollingWindow::new(Duration::from_micros(100), 4);
        a.observe(0, vec![0, 1], &cat);
        b.observe(0, vec![1, 2], &cat);
        let foreign = WindowWire {
            n_items: 2,
            lists: 7,
            items: 7,
            novelty_microbits: 0,
            tail_hits: 0,
            distinct: vec![0],
        };
        let (bands, union) =
            WindowWire::union(&[Some(a.wire(10)), None, Some(b.wire(10)), Some(foreign)]);
        assert_eq!(bands[0].unwrap().coverage, 0.5);
        assert_eq!(bands[1], None, "a band that could not report stays listed");
        assert_eq!(bands[3].unwrap().lists, 7, "another catalog is listed...");
        let s = union.unwrap().stats();
        assert_eq!(s.lists, 2, "...but left out of the union");
        // Union is {0,1,2}: 3/4, not the mean of the per-window halves.
        assert_eq!(s.coverage, 3.0 / 4.0);
        assert_eq!(s.items, 4);
        assert_eq!(s.long_tail_share, 1.0 / 4.0);
        assert_eq!(WindowWire::union(&[None, None]), (vec![None, None], None));
    }
}
