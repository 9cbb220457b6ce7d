//! Points-to regions — the ranges of `from` instance constraints.

use pta::BitSet;

/// The range of a `v̂ from r̂` instance constraint (§3.1): either a set of
/// abstract locations, or the distinguished `data` region of non-address
/// values (integers).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Region {
    /// Instances drawn from this set of abstract locations.
    Locs(BitSet),
    /// A non-address (integer) value.
    Data,
}

impl Region {
    /// A region of the given locations.
    pub fn locs(set: BitSet) -> Region {
        Region::Locs(set)
    }

    /// A region containing a single location.
    pub fn singleton(loc: usize) -> Region {
        Region::Locs(BitSet::singleton(loc))
    }

    /// True if the region denotes no values — axiom (1) of §3.2: a `from ∅`
    /// constraint is a contradiction.
    pub fn is_empty(&self) -> bool {
        match self {
            Region::Locs(s) => s.is_empty(),
            Region::Data => false,
        }
    }

    /// Intersects with another region (axiom (2) of §3.2). Locations and
    /// `data` are disjoint, so mixing them yields the empty region.
    pub fn intersect(&self, other: &Region) -> Region {
        match (self, other) {
            (Region::Locs(a), Region::Locs(b)) => Region::Locs(a.intersection(b)),
            (Region::Data, Region::Data) => Region::Data,
            (Region::Locs(_), Region::Data) | (Region::Data, Region::Locs(_)) => {
                Region::Locs(BitSet::new())
            }
        }
    }

    /// Subset check — the entailment of Equation (§) in §3.3:
    /// `(v from r̂1) |= (v from r̂2)` iff `r̂1 ⊆ r̂2`.
    pub fn is_subset(&self, other: &Region) -> bool {
        match (self, other) {
            (Region::Locs(a), Region::Locs(b)) => a.is_subset(b),
            (Region::Data, Region::Data) => true,
            (Region::Locs(a), Region::Data) => a.is_empty(),
            (Region::Data, Region::Locs(_)) => false,
        }
    }

    /// The location set, if this is a location region.
    pub fn as_locs(&self) -> Option<&BitSet> {
        match self {
            Region::Locs(s) => Some(s),
            Region::Data => None,
        }
    }
}

/// A query's `from` region, borrowed from the query's flat storage (see
/// [`Query::region`](crate::Query::region)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegionRef<'a> {
    /// Instances drawn from this set of abstract locations.
    Locs(LocSet<'a>),
    /// A non-address (integer) value.
    Data,
}

impl<'a> RegionRef<'a> {
    /// The location set, if this is a location region.
    pub fn as_locs(self) -> Option<LocSet<'a>> {
        match self {
            RegionRef::Locs(s) => Some(s),
            RegionRef::Data => None,
        }
    }

    /// Subset check, as [`Region::is_subset`].
    pub fn is_subset(self, other: RegionRef<'_>) -> bool {
        match (self, other) {
            (RegionRef::Locs(a), RegionRef::Locs(b)) => a.is_subset_words(b.0),
            (RegionRef::Data, RegionRef::Data) => true,
            (RegionRef::Locs(a), RegionRef::Data) => a.is_empty(),
            (RegionRef::Data, RegionRef::Locs(_)) => false,
        }
    }
}

/// A location set borrowed as the words of a bitset (element `i` is bit
/// `i % 64` of word `i / 64`, as in [`BitSet`]).
#[derive(Clone, Copy)]
pub struct LocSet<'a>(pub(crate) &'a [u64]);

impl<'a> LocSet<'a> {
    /// Iterates over the locations in ascending order.
    pub fn iter(self) -> impl Iterator<Item = usize> + 'a {
        self.0.iter().enumerate().flat_map(|(wi, &w)| {
            let mut word = w;
            std::iter::from_fn(move || {
                if word == 0 {
                    return None;
                }
                let b = word.trailing_zeros() as usize;
                word &= word - 1;
                Some(wi * 64 + b)
            })
        })
    }

    /// Number of locations.
    pub fn len(self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if the set holds no location.
    pub fn is_empty(self) -> bool {
        self.0.iter().all(|&w| w == 0)
    }

    /// True if every location is also in `other`.
    pub fn is_subset(self, other: &BitSet) -> bool {
        self.is_subset_words(other.words())
    }

    /// True if no location is in `other`.
    pub fn is_disjoint(self, other: &BitSet) -> bool {
        self.0.iter().zip(other.words()).all(|(a, b)| a & b == 0)
    }

    /// An owned copy.
    pub fn to_bitset(self) -> BitSet {
        self.iter().collect()
    }

    fn is_subset_words(self, other: &[u64]) -> bool {
        self.0.iter().enumerate().all(|(i, &w)| w & !other.get(i).copied().unwrap_or(0) == 0)
    }
}

impl PartialEq for LocSet<'_> {
    /// Word-for-word equality, as [`BitSet`]'s: a set that kept trailing
    /// zero words from a narrowing differs from one built without them.
    fn eq(&self, other: &LocSet<'_>) -> bool {
        self.0 == other.0
    }
}

impl Eq for LocSet<'_> {}

impl std::fmt::Debug for LocSet<'_> {
    /// Formats as [`BitSet`] does, e.g. `{3, 5}`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_detection() {
        assert!(Region::Locs(BitSet::new()).is_empty());
        assert!(!Region::singleton(3).is_empty());
        assert!(!Region::Data.is_empty());
    }

    #[test]
    fn intersection_narrows() {
        let a = Region::locs([1, 2, 3].into_iter().collect());
        let b = Region::locs([2, 3, 4].into_iter().collect());
        let i = a.intersect(&b);
        assert_eq!(i.as_locs().unwrap().iter().collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn data_and_locs_are_disjoint() {
        let a = Region::singleton(1);
        assert!(a.intersect(&Region::Data).is_empty());
        assert!(Region::Data.intersect(&a).is_empty());
        assert_eq!(Region::Data.intersect(&Region::Data), Region::Data);
    }

    #[test]
    fn subset_follows_set_inclusion() {
        let small = Region::singleton(2);
        let big = Region::locs([1, 2].into_iter().collect());
        assert!(small.is_subset(&big));
        assert!(!big.is_subset(&small));
        assert!(Region::Data.is_subset(&Region::Data));
        assert!(!Region::Data.is_subset(&big));
    }
}
