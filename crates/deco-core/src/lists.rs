//! Color lists and color-space partitions.
//!
//! A list is a subset of a palette `{0, …, C−1}`, stored as palette bit
//! words: bit `c mod 64` of word `⌊c/64⌋` is set iff color `c` is in the
//! list. That is the shape the paper's list operations already have —
//! Lemma 4.2 strikes neighbours' colors from a list, Lemmas 4.3–4.4 count a
//! list's colors inside contiguous palette blocks — so a removal clears one
//! bit, and a block count is a masked popcount over the words the block
//! spans.
//!
//! A [`SubspacePartition`] splits the palette into `q ≤ 2p` contiguous
//! blocks of size ≤ `C/p` (the partition Lemma 4.3 requires; the paper notes
//! such a partition always exists). [`level_of`] computes the "level" `ℓ(e)`
//! of a list relative to a partition, the quantity at the heart of
//! Lemma 4.4.

use deco_graph::coloring::Color;
use deco_local::math::{floor_log2, harmonic};
use std::fmt;

/// Bits per storage word.
const WORD_BITS: u32 = u64::BITS;

/// The word holding color `c`.
#[inline]
pub(crate) fn word_of(c: Color) -> usize {
    (c / WORD_BITS) as usize
}

/// Color `c`'s bit within its word.
#[inline]
pub(crate) fn bit_of(c: Color) -> u64 {
    1 << (c % WORD_BITS)
}

/// Words needed to store the colors of `[lo, hi)`.
fn words_for(lo: Color, hi: Color) -> usize {
    if lo < hi {
        hi.div_ceil(WORD_BITS) as usize
    } else {
        0
    }
}

/// The `(word, mask)` pairs covering the colors of `[lo, hi)` that lie in
/// the first `words` words, in ascending word order.
fn range_masks(lo: Color, hi: Color, words: usize) -> impl Iterator<Item = (usize, u64)> {
    let bits = u64::from(WORD_BITS);
    let (lo, hi) = (u64::from(lo), u64::from(hi).min(words as u64 * bits));
    let end = if lo < hi { hi.div_ceil(bits) } else { 0 };
    (lo / bits..end).map(move |w| {
        let start = lo.max(w * bits) - w * bits;
        let stop = hi.min((w + 1) * bits) - w * bits;
        (w as usize, (u64::MAX >> (bits - (stop - start))) << start)
    })
}

/// A set of candidate colors for one edge, stored as palette bit words.
///
/// The list holds `⌈(m + 1)/64⌉` `u64` words, where `m` is the largest color
/// it was built with, plus a cached length. Inside a [`ListInstance`] every
/// color is below the palette `C`, so a list costs at most `⌈C/64⌉` words:
/// a full 2,125-color palette takes 34 words (272 B), where a sorted `u32`
/// vector of the same colors takes 8.5 KB.
///
/// [`ColorList::remove`] clears one bit in O(1), [`ColorList::remove_all`]
/// one bit per forbidden color with no sort, [`ColorList::contains`] tests
/// one word, and [`ColorList::count_in_range`] /
/// [`ColorList::restrict_to_range`] are masked popcounts and copies of the
/// words the range spans. [`ColorList::iter`] walks the set bits in
/// increasing color order. Removals never shrink the storage, so equality
/// compares colors, not words: trailing all-zero words do not count.
///
/// [`ListInstance`]: crate::instance::ListInstance
#[derive(Clone, Default)]
pub struct ColorList {
    /// Bit `c % 64` of `words[c / 64]` is set iff color `c` is listed.
    words: Vec<u64>,
    /// Number of set bits.
    len: usize,
}

impl ColorList {
    /// Builds a list from arbitrary colors (in any order, duplicates
    /// ignored), in `⌈(max color + 1)/64⌉` words.
    pub fn new(colors: Vec<Color>) -> ColorList {
        let mut words = vec![0; colors.iter().max().map_or(0, |&c| word_of(c) + 1)];
        for c in colors {
            words[word_of(c)] |= bit_of(c);
        }
        ColorList::from_words(words)
    }

    /// The contiguous list `{lo, …, hi−1}`.
    pub fn range(lo: Color, hi: Color) -> ColorList {
        let mut words = vec![0; words_for(lo, hi)];
        for (w, mask) in range_masks(lo, hi, words.len()) {
            words[w] = mask;
        }
        ColorList::from_words(words)
    }

    fn from_words(words: Vec<u64>) -> ColorList {
        let len = words.iter().map(|w| w.count_ones() as usize).sum();
        ColorList { words, len }
    }

    /// Number of colors in the list.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the list is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `c` is in the list.
    #[inline]
    pub fn contains(&self, c: Color) -> bool {
        self.words
            .get(word_of(c))
            .is_some_and(|w| w & bit_of(c) != 0)
    }

    /// Iterates over the colors in increasing order. The iterator reports
    /// its exact length, so collecting it allocates once.
    pub fn iter(&self) -> impl Iterator<Item = Color> + '_ {
        Colors {
            words: &self.words,
            word: 0,
            bits: self.words.first().copied().unwrap_or(0),
            left: self.len,
        }
    }

    /// The smallest color, if any.
    pub fn first(&self) -> Option<Color> {
        self.first_from(0)
    }

    /// The smallest color `≥ lo`, if any. Reads only the words from the one
    /// holding `lo` onward, so asking for the first color at or above the
    /// palette reads no word below it.
    pub fn first_from(&self, lo: Color) -> Option<Color> {
        let start = word_of(lo);
        let head = self.words.get(start)? & (u64::MAX << (lo % WORD_BITS));
        std::iter::once(head)
            .chain(self.words[start + 1..].iter().copied())
            .enumerate()
            .find(|&(_, bits)| bits != 0)
            .map(|(i, bits)| (start + i) as Color * WORD_BITS + bits.trailing_zeros())
    }

    /// Removes `c` if present; returns whether it was present.
    pub fn remove(&mut self, c: Color) -> bool {
        let Some(w) = self.words.get_mut(word_of(c)) else {
            return false;
        };
        let present = *w & bit_of(c) != 0;
        *w &= !bit_of(c);
        self.len -= usize::from(present);
        present
    }

    /// Removes every color in `forbidden` (in any order, duplicates
    /// allowed): one bit each.
    pub fn remove_all(&mut self, forbidden: &[Color]) {
        for &c in forbidden {
            self.remove(c);
        }
    }

    /// The colors of the list set in neither `a` nor `b`, two rows of
    /// palette bit words in the list's own layout: the list AND-NOT
    /// `(a | b)`, word by word. A row shorter than the list holds no color
    /// past its end.
    pub fn without(&self, a: &[u64], b: &[u64]) -> ColorList {
        let mut words = self.words.clone();
        for row in [a, b] {
            for (bits, &used) in words.iter_mut().zip(row) {
                *bits &= !used;
            }
        }
        ColorList::from_words(words)
    }

    /// Number of colors in `self ∩ [lo, hi)`: a masked popcount over the
    /// words the range spans (the partition blocks are contiguous, so
    /// intersections are ranges).
    pub fn count_in_range(&self, lo: Color, hi: Color) -> usize {
        range_masks(lo, hi, self.words.len())
            .map(|(w, mask)| (self.words[w] & mask).count_ones() as usize)
            .sum()
    }

    /// The sub-list `self ∩ [lo, hi)`.
    pub fn restrict_to_range(&self, lo: Color, hi: Color) -> ColorList {
        let mut words = vec![0; words_for(lo, hi).min(self.words.len())];
        for (w, mask) in range_masks(lo, hi, words.len()) {
            words[w] = self.words[w] & mask;
        }
        ColorList::from_words(words)
    }

    /// The colors in increasing order.
    pub fn to_vec(&self) -> Vec<Color> {
        self.iter().collect()
    }
}

/// Increasing-order iterator over a [`ColorList`]'s set bits.
struct Colors<'a> {
    words: &'a [u64],
    /// Index of the word `bits` came from.
    word: usize,
    /// The not yet visited bits of `words[word]`.
    bits: u64,
    /// Colors not yet yielded.
    left: usize,
}

impl Iterator for Colors<'_> {
    type Item = Color;

    fn next(&mut self) -> Option<Color> {
        while self.bits == 0 {
            self.word += 1;
            self.bits = *self.words.get(self.word)?;
        }
        let bit = self.bits.trailing_zeros();
        self.bits &= self.bits - 1;
        self.left -= 1;
        Some(self.word as Color * WORD_BITS + bit)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl PartialEq for ColorList {
    /// Equal lengths and equal common words leave no color in the longer
    /// list's extra words.
    fn eq(&self, other: &ColorList) -> bool {
        let common = self.words.len().min(other.words.len());
        self.len == other.len && self.words[..common] == other.words[..common]
    }
}

impl Eq for ColorList {}

impl fmt::Debug for ColorList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<Color> for ColorList {
    fn from_iter<I: IntoIterator<Item = Color>>(iter: I) -> Self {
        ColorList::new(iter.into_iter().collect())
    }
}

impl fmt::Display for ColorList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, c) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "}}")
    }
}

/// A partition of the palette `{0, …, C−1}` into `q` contiguous blocks
/// `C_1, …, C_q` of uniform size (the last may be smaller).
///
/// Constructed by [`SubspacePartition::new`] to satisfy Lemma 4.3's
/// requirements: `q ≤ 2p` blocks, each of size at most `C/p`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubspacePartition {
    palette: u32,
    block: u32,
    q: u32,
}

impl SubspacePartition {
    /// Partitions a palette of size `palette` for parameter `p ∈ [2, palette]`.
    ///
    /// Block size is `max(1, ⌊C/p⌋)`, which yields `q ≤ 2p` blocks of size
    /// ≤ `C/p` (for `p` dividing `C` this is exactly `p` blocks of size
    /// `C/p`, matching the paper's Figure 5 example).
    ///
    /// # Panics
    ///
    /// Panics unless `2 ≤ p ≤ palette`.
    pub fn new(palette: u32, p: u32) -> SubspacePartition {
        assert!(p >= 2, "p must be at least 2");
        assert!(p <= palette, "p must be at most the palette size");
        let block = (palette / p).max(1);
        let q = palette.div_ceil(block);
        debug_assert!(q <= 2 * p, "q={q} exceeds 2p={}", 2 * p);
        debug_assert!(block as u64 * p as u64 <= palette as u64 || block == 1);
        SubspacePartition { palette, block, q }
    }

    /// Number of blocks `q` (`≤ 2p`).
    #[inline]
    pub fn num_subspaces(&self) -> u32 {
        self.q
    }

    /// Palette size `C`.
    #[inline]
    pub fn palette(&self) -> u32 {
        self.palette
    }

    /// Uniform block size (last block may be smaller).
    #[inline]
    pub fn block_size(&self) -> u32 {
        self.block
    }

    /// The color range `[lo, hi)` of block `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ q`.
    pub fn range(&self, i: u32) -> (Color, Color) {
        assert!(i < self.q, "subspace index out of range");
        let lo = i * self.block;
        let hi = ((i + 1) * self.block).min(self.palette);
        (lo, hi)
    }

    /// The block containing color `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is outside the palette.
    pub fn subspace_of(&self, c: Color) -> u32 {
        assert!(c < self.palette, "color outside palette");
        c / self.block
    }

    /// `|list ∩ C_i|` for every block `i`, in one pass.
    pub fn intersection_sizes(&self, list: &ColorList) -> Vec<usize> {
        let mut sizes = vec![0usize; self.q as usize];
        for c in list.iter() {
            sizes[self.subspace_of(c) as usize] += 1;
        }
        sizes
    }
}

/// Outcome of the Lemma 4.4 analysis for one list.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelInfo {
    /// The level `ℓ(e)`: the largest `ℓ` such that at least `2^ℓ` blocks
    /// have intersection ≥ `|L|/(2^{ℓ+1}·H_q)`.
    pub level: u32,
    /// Indices of blocks meeting the level-`ℓ` threshold, sorted by
    /// decreasing intersection size.
    pub indices: Vec<u32>,
    /// The threshold `|L|/(2^{ℓ+1}·H_q)` used at this level.
    pub threshold: f64,
}

/// Computes the level `ℓ(e)` of a nonempty list relative to a partition.
///
/// Lemma 4.4 guarantees an integer `k` with `k` blocks of intersection
/// ≥ `|L|/(k·H_q)`; taking `ℓ = ⌊log₂ k⌋` always yields a valid level, so
/// the maximum over valid levels exists.
///
/// # Panics
///
/// Panics if `list` is empty.
pub fn level_of(list: &ColorList, partition: &SubspacePartition) -> LevelInfo {
    assert!(!list.is_empty(), "level is undefined for an empty list");
    let q = partition.num_subspaces() as u64;
    let hq = harmonic(q);
    let len = list.len() as f64;
    let sizes = partition.intersection_sizes(list);
    // Blocks sorted by decreasing intersection.
    let mut order: Vec<u32> = (0..partition.num_subspaces()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(sizes[i as usize]));

    let max_level = floor_log2(q);
    for level in (0..=max_level).rev() {
        let threshold = len / (2f64.powi(level as i32 + 1) * hq);
        let need = 1usize << level;
        let have = order
            .iter()
            .take_while(|&&i| sizes[i as usize] as f64 >= threshold)
            .count();
        if have >= need {
            return LevelInfo {
                level,
                indices: order.into_iter().take(have).collect(),
                threshold,
            };
        }
    }
    unreachable!("Lemma 4.4 guarantees some level is valid");
}

/// Direct statement of Lemma 4.4: the largest `k` such that `k` blocks all
/// have intersection ≥ `|L|/(k·H_q)`; returns `(k, indices)`.
///
/// # Panics
///
/// Panics if `list` is empty.
pub fn lemma44_witness(list: &ColorList, partition: &SubspacePartition) -> (usize, Vec<u32>) {
    assert!(!list.is_empty(), "witness is undefined for an empty list");
    let q = partition.num_subspaces() as u64;
    let hq = harmonic(q);
    let len = list.len() as f64;
    let sizes = partition.intersection_sizes(list);
    let mut order: Vec<u32> = (0..partition.num_subspaces()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(sizes[i as usize]));
    let mut best: Option<usize> = None;
    for k in 1..=order.len() {
        let kth = sizes[order[k - 1] as usize] as f64;
        if kth >= len / (k as f64 * hq) {
            best = Some(k);
        }
    }
    let k = best.expect("Lemma 4.4: some k is always valid");
    (k, order.into_iter().take(k).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn without_drops_the_colors_of_both_rows() {
        let l = ColorList::new(vec![1, 3, 64, 70, 130]);
        // Color 3 in one row; color 70 in a row that ends before the
        // list's last word.
        let (a, b) = ([1 << 3, 0, 0], [0, 1 << 6]);
        let r = l.without(&a, &b);
        assert_eq!(r.to_vec(), [1, 64, 130]);
        assert_eq!(r.len(), 3);
        assert_eq!(l.without(&[], &[]), l);
    }

    #[test]
    fn list_basics() {
        let mut l = ColorList::new(vec![5, 1, 3, 3, 1]);
        assert_eq!(l.to_vec(), [1, 3, 5]);
        assert_eq!(l.len(), 3);
        assert!(l.contains(3));
        assert!(!l.contains(2));
        assert!(!l.contains(1000), "colors past the storage are absent");
        assert!(l.remove(3));
        assert!(!l.remove(3));
        assert!(!l.remove(1000));
        assert_eq!(l.len(), 2);
        l.remove_all(&[5, 9, 5]);
        assert_eq!(l.to_vec(), [1]);
        assert_eq!(l.first(), Some(1));
        assert_eq!(l.to_string(), "{1}");
        assert_eq!(format!("{l:?}"), "{1}");
    }

    #[test]
    fn range_queries() {
        let l = ColorList::range(0, 10);
        assert_eq!(l.count_in_range(3, 7), 4);
        assert_eq!(l.restrict_to_range(8, 20).to_vec(), [8, 9]);
        assert_eq!(l.count_in_range(10, 20), 0);
        assert!(ColorList::range(7, 7).is_empty());
        assert!(ColorList::range(9, 3).is_empty());
    }

    #[test]
    fn ranges_straddle_word_edges() {
        let l = ColorList::range(60, 200);
        assert_eq!(l.len(), 140);
        assert_eq!(l.first(), Some(60));
        assert_eq!(l.iter().last(), Some(199));
        assert_eq!(l.count_in_range(0, 64), 4);
        assert_eq!(l.count_in_range(64, 128), 64);
        assert_eq!(l.count_in_range(63, 129), 66);
        assert_eq!(l.count_in_range(199, u32::MAX), 1);
        assert_eq!(l.restrict_to_range(127, 129).to_vec(), [127, 128]);
        assert_eq!(l.first_from(0), Some(60));
        assert_eq!(l.first_from(128), Some(128));
        assert_eq!(l.first_from(200), None);
        assert_eq!(l.first_from(u32::MAX), None);
    }

    #[test]
    fn equality_ignores_storage() {
        // Two words, the second emptied by removals, against one word.
        let mut wide = ColorList::range(0, 70);
        wide.remove_all(&(64..70).collect::<Vec<_>>());
        assert_eq!(wide, ColorList::range(0, 64));
        assert_eq!(ColorList::range(0, 64), wide);
        assert_eq!(ColorList::new(vec![3, 200]).restrict_to_range(0, 100), {
            let mut l = ColorList::new(vec![3]);
            l.remove(7);
            l
        });
        assert_ne!(wide, ColorList::range(0, 63));
        assert_ne!(ColorList::new(vec![1, 64]), ColorList::new(vec![1, 65]));
        assert_eq!(ColorList::default(), ColorList::range(5, 5));
        assert_eq!(
            ColorList::new(vec![]),
            ColorList::from_iter([9]).restrict_to_range(0, 9)
        );
    }

    #[test]
    fn partition_matches_figure5_shape() {
        // C = 20, p = 4 → exactly 4 blocks of 5, as in the paper's Figure 5.
        let part = SubspacePartition::new(20, 4);
        assert_eq!(part.num_subspaces(), 4);
        assert_eq!(part.block_size(), 5);
        assert_eq!(part.range(0), (0, 5));
        assert_eq!(part.range(3), (15, 20));
        assert_eq!(part.subspace_of(0), 0);
        assert_eq!(part.subspace_of(19), 3);
    }

    #[test]
    fn partition_respects_lemma43_bounds() {
        for (c, p) in [(100u32, 7u32), (17, 4), (5, 2), (1000, 31), (8, 8), (9, 4)] {
            let part = SubspacePartition::new(c, p);
            assert!(
                part.num_subspaces() <= 2 * p,
                "q too large for C={c}, p={p}"
            );
            for i in 0..part.num_subspaces() {
                let (lo, hi) = part.range(i);
                assert!(hi > lo, "empty block");
                assert!(
                    (hi - lo) as f64 <= c as f64 / p as f64 || hi - lo == 1,
                    "block too large for C={c}, p={p}"
                );
            }
            // Blocks tile the palette.
            let total: u32 = (0..part.num_subspaces())
                .map(|i| {
                    let (lo, hi) = part.range(i);
                    hi - lo
                })
                .sum();
            assert_eq!(total, c);
        }
    }

    #[test]
    fn figure5_worked_example() {
        // Figure 5: C = 20, p = 4, L_e = {1,2,5,6,7,12,17} (1-based in the
        // paper; 0-based here: {0,1,4,5,6,11,16}). |L| = 7.
        // Intersections: C1 = {0..5} → 3, C2 = {5..10} → 2, C3 = {10..15} → 1,
        // C4 = {15..20} → 1. The paper finds I = {1, 2} (k = 2) since
        // |C1∩L|, |C2∩L| ≥ 7/(2·H₄) = 1.68.
        let part = SubspacePartition::new(20, 4);
        let list = ColorList::new(vec![0, 1, 4, 5, 6, 11, 16]);
        let (k, indices) = lemma44_witness(&list, &part);
        assert!(k >= 2, "paper's example has k = 2, got {k}");
        assert!(indices.contains(&0) && indices.contains(&1));
        // `level_of` picks the *largest* valid level; here even ℓ = 2 is
        // valid (all 4 blocks have intersection ≥ 7/(8·H₄) = 0.42, i.e. ≥ 1),
        // which only gives the assignment more freedom.
        let info = level_of(&list, &part);
        assert_eq!(info.level, 2);
        assert_eq!(info.indices.len(), 4);
        assert_eq!(info.indices[0], 0); // sorted by decreasing intersection
        assert_eq!(info.indices[1], 1);
    }

    #[test]
    fn level_indices_meet_threshold() {
        let part = SubspacePartition::new(64, 8);
        let list = ColorList::new((0..64).step_by(3).collect());
        let info = level_of(&list, &part);
        assert!(!info.indices.is_empty());
        assert!(info.indices.len() >= 1 << info.level);
        for &i in &info.indices {
            let (lo, hi) = part.range(i);
            assert!(list.count_in_range(lo, hi) as f64 >= info.threshold);
        }
    }

    #[test]
    fn uniform_list_gets_max_level() {
        // A list spread across all blocks: level should be ⌊log₂ q⌋.
        let part = SubspacePartition::new(64, 8);
        let list = ColorList::range(0, 64);
        let info = level_of(&list, &part);
        assert_eq!(info.level, floor_log2(u64::from(part.num_subspaces())));
    }

    #[test]
    fn concentrated_list_gets_low_level() {
        // All colors in one block: only 1 block has a large intersection.
        let part = SubspacePartition::new(64, 8);
        let list = ColorList::range(0, 8);
        let info = level_of(&list, &part);
        assert_eq!(info.level, 0);
        assert_eq!(info.indices[0], 0);
    }

    #[test]
    fn intersection_sizes_sum_to_list_len() {
        let part = SubspacePartition::new(30, 4);
        let list = ColorList::new(vec![0, 3, 7, 8, 15, 22, 29]);
        let sizes = part.intersection_sizes(&list);
        assert_eq!(sizes.iter().sum::<usize>(), list.len());
    }

    #[test]
    #[should_panic(expected = "p must be at least 2")]
    fn rejects_p_below_2() {
        let _ = SubspacePartition::new(10, 1);
    }

    #[test]
    #[should_panic(expected = "empty list")]
    fn level_rejects_empty_list() {
        let part = SubspacePartition::new(10, 2);
        let _ = level_of(&ColorList::default(), &part);
    }
}
