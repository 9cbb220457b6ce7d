//! A compact growable bitset used for points-to sets and regions.

/// A growable set of small non-negative integers, stored as 64-bit words.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        BitSet { words: Vec::new() }
    }

    /// Creates a set containing a single element.
    pub fn singleton(bit: usize) -> Self {
        let mut s = BitSet::new();
        s.insert(bit);
        s
    }

    /// Creates a set from an iterator of elements.
    pub fn from_iter_bits(bits: impl IntoIterator<Item = usize>) -> Self {
        let mut s = BitSet::new();
        for b in bits {
            s.insert(b);
        }
        s
    }

    /// The backing words, least significant element first (trailing words
    /// may be zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Removes every element, keeping the allocation for reuse.
    pub fn clear(&mut self) {
        self.words.clear();
    }

    /// Inserts `bit`; returns true if it was newly added.
    pub fn insert(&mut self, bit: usize) -> bool {
        let (w, m) = (bit / 64, 1u64 << (bit % 64));
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let had = self.words[w] & m != 0;
        self.words[w] |= m;
        !had
    }

    /// Removes `bit`; returns true if it was present.
    pub fn remove(&mut self, bit: usize) -> bool {
        let (w, m) = (bit / 64, 1u64 << (bit % 64));
        if w >= self.words.len() {
            return false;
        }
        let had = self.words[w] & m != 0;
        self.words[w] &= !m;
        had
    }

    /// Membership test.
    pub fn contains(&self, bit: usize) -> bool {
        let (w, m) = (bit / 64, 1u64 << (bit % 64));
        self.words.get(w).is_some_and(|word| word & m != 0)
    }

    /// True if the set has no elements.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Index one past the last non-zero word (trailing zero words carry no
    /// elements, so they never need to be copied or allocated for).
    fn effective_len(&self) -> usize {
        self.words.iter().rposition(|&w| w != 0).map_or(0, |i| i + 1)
    }

    /// Adds every element of `other`; returns true if `self` changed.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        let n = other.effective_len();
        if n == 0 {
            return false;
        }
        if n > self.words.len() {
            self.words.resize(n, 0);
        }
        let mut changed = false;
        for (i, &w) in other.words[..n].iter().enumerate() {
            if w == 0 {
                continue;
            }
            let before = self.words[i];
            self.words[i] |= w;
            changed |= self.words[i] != before;
        }
        changed
    }

    /// Adds every element of `other` that is *not* in `exclude`; returns
    /// true if `self` gained at least one element. This is the difference-
    /// propagation kernel: `delta.union_with_delta(&incoming, &old)` folds
    /// only genuinely new locations into the pending delta, word by word.
    pub fn union_with_delta(&mut self, other: &BitSet, exclude: &BitSet) -> bool {
        let n = other.effective_len();
        if n == 0 {
            return false;
        }
        let mut changed = false;
        for (i, &w) in other.words[..n].iter().enumerate() {
            let fresh = w & !exclude.words.get(i).copied().unwrap_or(0);
            if fresh == 0 {
                continue;
            }
            if i >= self.words.len() {
                self.words.resize(n, 0);
            }
            let before = self.words[i];
            self.words[i] |= fresh;
            changed |= self.words[i] != before;
        }
        changed
    }

    /// Keeps only elements also in `other`; returns true if `self` changed.
    pub fn intersect_with(&mut self, other: &BitSet) -> bool {
        let mut changed = false;
        for (i, w) in self.words.iter_mut().enumerate() {
            let before = *w;
            *w &= other.words.get(i).copied().unwrap_or(0);
            changed |= *w != before;
        }
        changed
    }

    /// Removes every element of `other`; returns true if `self` changed.
    pub fn subtract(&mut self, other: &BitSet) -> bool {
        let mut changed = false;
        for (i, w) in self.words.iter_mut().enumerate() {
            let before = *w;
            *w &= !other.words.get(i).copied().unwrap_or(0);
            changed |= *w != before;
        }
        changed
    }

    /// The intersection as a new set.
    pub fn intersection(&self, other: &BitSet) -> BitSet {
        let mut out = self.clone();
        out.intersect_with(other);
        out
    }

    /// True if `self` and `other` share no elements.
    pub fn is_disjoint(&self, other: &BitSet) -> bool {
        self.words.iter().zip(other.words.iter()).all(|(a, b)| a & b == 0)
    }

    /// True if every element of `self` is in `other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        self.words
            .iter()
            .enumerate()
            .all(|(i, &w)| w & !other.words.get(i).copied().unwrap_or(0) == 0)
    }

    /// Iterates over elements in ascending order. Zero words are skipped
    /// whole, and within a word each set bit is found with
    /// `trailing_zeros` instead of probing all 64 positions.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words
            .iter()
            .enumerate()
            .filter(|(_, &w)| w != 0)
            .flat_map(|(wi, &w)| WordBits { word: w, base: wi * 64 })
    }

    /// True if `a0 ∪ a1 == b0 ∪ b1`, computed word by word without
    /// allocating the unions. This is the hot equality probe of lazy cycle
    /// detection, where each side is an old/delta split of one node.
    pub(crate) fn pair_union_eq(a0: &BitSet, a1: &BitSet, b0: &BitSet, b1: &BitSet) -> bool {
        let n = a0.words.len().max(a1.words.len()).max(b0.words.len()).max(b1.words.len());
        let word = |s: &BitSet, i: usize| s.words.get(i).copied().unwrap_or(0);
        (0..n).all(|i| (word(a0, i) | word(a1, i)) == (word(b0, i) | word(b1, i)))
    }

    /// The single element, if the set has exactly one.
    pub fn as_singleton(&self) -> Option<usize> {
        let mut it = self.iter();
        let first = it.next()?;
        if it.next().is_none() {
            Some(first)
        } else {
            None
        }
    }
}

/// Iterator over the set bits of a single word.
struct WordBits {
    word: u64,
    base: usize,
}

impl Iterator for WordBits {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.word == 0 {
            return None;
        }
        let b = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + b)
    }
}

impl std::fmt::Debug for BitSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for BitSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        BitSet::from_iter_bits(iter)
    }
}

impl Extend<usize> for BitSet {
    fn extend<I: IntoIterator<Item = usize>>(&mut self, iter: I) {
        for b in iter {
            self.insert(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new();
        assert!(s.insert(3));
        assert!(!s.insert(3));
        assert!(s.insert(200));
        assert!(s.contains(3) && s.contains(200) && !s.contains(4));
        assert!(s.remove(3));
        assert!(!s.remove(3));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn set_algebra() {
        let a: BitSet = [1, 2, 3, 64].into_iter().collect();
        let b: BitSet = [2, 64, 100].into_iter().collect();
        let mut u = a.clone();
        assert!(u.union_with(&b));
        assert_eq!(u.len(), 5);
        assert!(!u.union_with(&b));

        let i = a.intersection(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![2, 64]);

        assert!(i.is_subset(&a) && i.is_subset(&b));
        assert!(!a.is_subset(&b));

        let c: BitSet = [7, 8].into_iter().collect();
        assert!(a.is_disjoint(&c));
        assert!(!a.is_disjoint(&b));
    }

    #[test]
    fn subtract_removes() {
        let mut a: BitSet = [1, 2, 3].into_iter().collect();
        let b: BitSet = [2].into_iter().collect();
        assert!(a.subtract(&b));
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    fn singleton_detection() {
        assert_eq!(BitSet::singleton(9).as_singleton(), Some(9));
        let two: BitSet = [1, 9].into_iter().collect();
        assert_eq!(two.as_singleton(), None);
        assert_eq!(BitSet::new().as_singleton(), None);
    }

    #[test]
    fn subtract_at_word_boundaries() {
        // Elements straddling the 64-bit word boundary, with `other` both
        // shorter and longer than `self`.
        let mut a: BitSet = [0, 63, 64, 127, 128].into_iter().collect();
        let shorter: BitSet = [63].into_iter().collect();
        assert!(a.subtract(&shorter));
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![0, 64, 127, 128]);

        let longer: BitSet = [0, 127, 128, 500].into_iter().collect();
        assert!(a.subtract(&longer));
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![64]);
        // Subtracting a set that shares nothing reports no change.
        let disjoint: BitSet = [63, 65].into_iter().collect();
        assert!(!a.subtract(&disjoint));
    }

    #[test]
    fn intersect_at_word_boundaries() {
        let mut a: BitSet = [63, 64, 127, 128].into_iter().collect();
        // `other` shorter than `self`: everything beyond its words drops.
        let short: BitSet = [63, 64].into_iter().collect();
        assert!(a.intersect_with(&short));
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![63, 64]);

        // `other` longer than `self`: extra words are irrelevant.
        let mut b: BitSet = [64].into_iter().collect();
        let long: BitSet = [64, 1000].into_iter().collect();
        assert!(!b.intersect_with(&long));
        assert_eq!(b.iter().collect::<Vec<_>>(), vec![64]);

        // Intersecting with the empty set empties and reports a change.
        let mut c: BitSet = [0].into_iter().collect();
        assert!(c.intersect_with(&BitSet::new()));
        assert!(c.is_empty());
    }

    #[test]
    fn union_with_empty_is_noop() {
        let mut a: BitSet = [1, 70].into_iter().collect();
        assert!(!a.union_with(&BitSet::new()));
        // A set whose words are all zero (insert + remove) is still empty.
        let mut hollow = BitSet::singleton(130);
        hollow.remove(130);
        assert!(!a.union_with(&hollow));
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn union_with_delta_filters_exclude() {
        let old: BitSet = [1, 64].into_iter().collect();
        let incoming: BitSet = [1, 2, 64, 129].into_iter().collect();
        let mut delta = BitSet::new();
        assert!(delta.union_with_delta(&incoming, &old));
        assert_eq!(delta.iter().collect::<Vec<_>>(), vec![2, 129]);
        // Re-pushing the same bits adds nothing.
        assert!(!delta.union_with_delta(&incoming, &old));
        // Everything excluded: no change, no growth.
        let mut d2 = BitSet::new();
        assert!(!d2.union_with_delta(&old, &incoming));
        assert!(d2.is_empty());
    }

    #[test]
    fn iter_skips_zero_words() {
        // Only words 0 and 8 are populated; iteration must still be exact.
        let s: BitSet = [5, 512, 575].into_iter().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![5, 512, 575]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn empty_behaviour() {
        let s = BitSet::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(s.is_subset(&s));
        assert!(s.is_disjoint(&s));
        assert_eq!(format!("{s:?}"), "{}");
    }
}
