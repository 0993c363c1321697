//! Identities and sets of branches.
//!
//! A program under test has `N` conditional statements, labelled `l_0 …
//! l_{N-1}` ([`SiteId`]). Each conditional owns a *true* branch and a
//! *false* branch ([`Direction`]), so a [`BranchId`] is a `(site,
//! direction)` pair and a program has exactly `2·N` branches. [`BranchSet`]
//! is a compact bitset over those branches used for covered sets and for
//! saturation sets.

use std::fmt;

/// Index of a conditional statement (`l_i` in the paper).
pub type SiteId = u32;

/// Which side of a conditional a branch is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Direction {
    /// The branch taken when the condition evaluates to true (`i^T`).
    True,
    /// The branch taken when the condition evaluates to false (`i^F`).
    False,
}

impl Direction {
    /// The other side of the same conditional.
    pub fn opposite(self) -> Direction {
        match self {
            Direction::True => Direction::False,
            Direction::False => Direction::True,
        }
    }

    /// Converts a concrete branch outcome (`cond` evaluated to `true`?) into
    /// a direction.
    pub fn from_outcome(outcome: bool) -> Direction {
        if outcome {
            Direction::True
        } else {
            Direction::False
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Direction::True => write!(f, "T"),
            Direction::False => write!(f, "F"),
        }
    }
}

/// A single branch of the program under test: one side of one conditional.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BranchId {
    /// The conditional statement this branch belongs to.
    pub site: SiteId,
    /// Which side of the conditional.
    pub direction: Direction,
}

impl BranchId {
    /// Creates the true branch `site^T`.
    pub fn true_of(site: SiteId) -> BranchId {
        BranchId {
            site,
            direction: Direction::True,
        }
    }

    /// Creates the false branch `site^F`.
    pub fn false_of(site: SiteId) -> BranchId {
        BranchId {
            site,
            direction: Direction::False,
        }
    }

    /// The sibling branch at the same conditional.
    pub fn sibling(self) -> BranchId {
        BranchId {
            site: self.site,
            direction: self.direction.opposite(),
        }
    }

    /// Dense index of this branch in a `2·N` bitset.
    pub fn index(self) -> usize {
        self.site as usize * 2
            + match self.direction {
                Direction::True => 0,
                Direction::False => 1,
            }
    }

    /// Inverse of [`BranchId::index`].
    pub fn from_index(index: usize) -> BranchId {
        BranchId {
            site: (index / 2) as SiteId,
            direction: if index.is_multiple_of(2) {
                Direction::True
            } else {
                Direction::False
            },
        }
    }
}

impl fmt::Display for BranchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.site, self.direction)
    }
}

/// A set of branches, stored as a bitset over `2·N` branch slots.
///
/// The set grows on demand, so it can be used before the exact number of
/// conditional sites is known (useful when learning a program's shape purely
/// from execution).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BranchSet {
    bits: Vec<u64>,
    len: usize,
}

impl BranchSet {
    /// Creates an empty set.
    pub fn new() -> BranchSet {
        BranchSet::default()
    }

    /// Creates an empty set pre-sized for a program with `num_sites`
    /// conditionals.
    pub fn with_sites(num_sites: usize) -> BranchSet {
        BranchSet {
            bits: vec![0; (num_sites * 2).div_ceil(64).max(1)],
            len: 0,
        }
    }

    /// Number of branches in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts a branch; returns `true` if it was not already present.
    pub fn insert(&mut self, branch: BranchId) -> bool {
        let idx = branch.index();
        let word = idx / 64;
        let bit = 1u64 << (idx % 64);
        if word >= self.bits.len() {
            self.bits.resize(word + 1, 0);
        }
        let newly = self.bits[word] & bit == 0;
        self.bits[word] |= bit;
        if newly {
            self.len += 1;
        }
        newly
    }

    /// Removes a branch; returns `true` if it was present.
    pub fn remove(&mut self, branch: BranchId) -> bool {
        let idx = branch.index();
        let word = idx / 64;
        if word >= self.bits.len() {
            return false;
        }
        let bit = 1u64 << (idx % 64);
        let present = self.bits[word] & bit != 0;
        self.bits[word] &= !bit;
        if present {
            self.len -= 1;
        }
        present
    }

    /// Whether the branch is in the set.
    pub fn contains(&self, branch: BranchId) -> bool {
        let idx = branch.index();
        let word = idx / 64;
        word < self.bits.len() && self.bits[word] & (1u64 << (idx % 64)) != 0
    }

    /// Inserts every branch of `other`, returning how many were new.
    pub fn union_with(&mut self, other: &BranchSet) -> usize {
        let mut added = 0;
        for branch in other.iter() {
            if self.insert(branch) {
                added += 1;
            }
        }
        added
    }

    /// Iterates over the branches in the set in index order.
    pub fn iter(&self) -> impl Iterator<Item = BranchId> + '_ {
        self.bits.iter().enumerate().flat_map(|(word_idx, &word)| {
            // Visit only the set bits, lowest first.
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    BranchId::from_index(word_idx * 64 + bit)
                })
            })
        })
    }

    /// Removes every branch from the set.
    pub fn clear(&mut self) {
        self.bits.iter_mut().for_each(|w| *w = 0);
        self.len = 0;
    }
}

impl FromIterator<BranchId> for BranchSet {
    fn from_iter<T: IntoIterator<Item = BranchId>>(iter: T) -> Self {
        let mut set = BranchSet::new();
        for b in iter {
            set.insert(b);
        }
        set
    }
}

impl Extend<BranchId> for BranchSet {
    fn extend<T: IntoIterator<Item = BranchId>>(&mut self, iter: T) {
        for b in iter {
            self.insert(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_opposite_is_involutive() {
        assert_eq!(Direction::True.opposite(), Direction::False);
        assert_eq!(Direction::False.opposite().opposite(), Direction::False);
    }

    #[test]
    fn branch_index_roundtrip() {
        for site in 0..50u32 {
            for dir in [Direction::True, Direction::False] {
                let b = BranchId {
                    site,
                    direction: dir,
                };
                assert_eq!(BranchId::from_index(b.index()), b);
            }
        }
    }

    #[test]
    fn sibling_shares_site() {
        let b = BranchId::true_of(7);
        assert_eq!(b.sibling(), BranchId::false_of(7));
        assert_eq!(b.sibling().sibling(), b);
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(BranchId::true_of(0).to_string(), "0T");
        assert_eq!(BranchId::false_of(1).to_string(), "1F");
    }

    #[test]
    fn set_insert_contains_remove() {
        let mut set = BranchSet::new();
        let b = BranchId::true_of(3);
        assert!(!set.contains(b));
        assert!(set.insert(b));
        assert!(!set.insert(b), "double insert should report not-new");
        assert!(set.contains(b));
        assert_eq!(set.len(), 1);
        assert!(set.remove(b));
        assert!(!set.remove(b));
        assert!(set.is_empty());
    }

    #[test]
    fn set_grows_on_demand() {
        let mut set = BranchSet::new();
        let far = BranchId::false_of(1000);
        set.insert(far);
        assert!(set.contains(far));
        assert!(!set.contains(BranchId::true_of(999)));
    }

    #[test]
    fn with_sites_preallocates_and_works() {
        let mut set = BranchSet::with_sites(10);
        for s in 0..10 {
            set.insert(BranchId::true_of(s));
            set.insert(BranchId::false_of(s));
        }
        assert_eq!(set.len(), 20);
    }

    #[test]
    fn union_counts_new_branches() {
        let a: BranchSet = [BranchId::true_of(0), BranchId::false_of(1)]
            .into_iter()
            .collect();
        let b: BranchSet = [BranchId::true_of(0), BranchId::true_of(2)]
            .into_iter()
            .collect();
        let mut merged = a.clone();
        let added = merged.union_with(&b);
        assert_eq!(added, 1);
        assert_eq!(merged.len(), 3);
    }

    #[test]
    fn iter_yields_sorted_branches() {
        let set: BranchSet = [
            BranchId::false_of(2),
            BranchId::true_of(0),
            BranchId::true_of(2),
        ]
        .into_iter()
        .collect();
        let collected: Vec<BranchId> = set.iter().collect();
        assert_eq!(
            collected,
            vec![
                BranchId::true_of(0),
                BranchId::true_of(2),
                BranchId::false_of(2)
            ]
        );
    }

    #[test]
    fn clear_empties_the_set() {
        let mut set: BranchSet = (0..5).map(BranchId::true_of).collect();
        set.clear();
        assert!(set.is_empty());
        assert_eq!(set.iter().count(), 0);
    }
}
