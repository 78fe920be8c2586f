//! Structural joins over containment intervals (paper §5).
//!
//! The linear positions `p·C + o` of a node and its matching `)` form an
//! interval with the classic containment property: `b` is a descendant of
//! `a` iff `a.start < b.start && b.end < a.end`. Because tree intervals are
//! properly nested (never partially overlapping), the join predicates the
//! engine needs reduce to binary searches over an [`IntervalSet`] sorted by
//! start:
//!
//! * *semijoin descendant* — "does `x` contain any member?" — one lower
//!   bound on starts;
//! * *semijoin ancestor* — "is `x` contained in any member?" — a prefix-max
//!   over ends;
//! * *semijoin following* — "does any member end before `x` starts?" — the
//!   minimum end.

/// An immutable set of tree intervals, sorted by start position.
#[derive(Debug, Clone, Default)]
pub struct IntervalSet {
    starts: Vec<u64>,
    ends: Vec<u64>,
    /// `prefix_max_end[i]` = max of `ends[0..=i]`.
    prefix_max_end: Vec<u64>,
    min_end: u64,
}

impl IntervalSet {
    /// Build from (possibly unsorted) `(start, end)` pairs.
    pub fn new(mut intervals: Vec<(u64, u64)>) -> IntervalSet {
        intervals.sort_unstable();
        intervals.dedup();
        let mut starts = Vec::with_capacity(intervals.len());
        let mut ends = Vec::with_capacity(intervals.len());
        let mut prefix_max_end = Vec::with_capacity(intervals.len());
        let mut min_end = u64::MAX;
        let mut running_max = 0u64;
        for (s, e) in intervals {
            debug_assert!(s <= e, "interval start after end");
            starts.push(s);
            ends.push(e);
            running_max = running_max.max(e);
            prefix_max_end.push(running_max);
            min_end = min_end.min(e);
        }
        IntervalSet {
            starts,
            ends,
            prefix_max_end,
            min_end,
        }
    }

    /// Number of intervals.
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// True when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// Does the set contain an interval strictly inside `(start, end)` —
    /// i.e. does the node with this interval have a member as descendant?
    ///
    /// By nesting, a member starting strictly inside `(start, end)` cannot
    /// end outside it, so only the start needs checking.
    pub fn any_within(&self, start: u64, end: u64) -> bool {
        let i = self.starts.partition_point(|&s| s <= start);
        i < self.starts.len() && self.starts[i] < end
    }

    /// Does any member contain the interval starting at `start` — i.e. is
    /// the node a descendant of some member?
    ///
    /// A member is an ancestor iff `member.start < start < member.end`;
    /// among members with `start_i < start`, one qualifies iff the maximum
    /// end among them exceeds `start` (by nesting it then covers the whole
    /// subtree).
    pub fn any_containing(&self, start: u64) -> bool {
        let i = self.starts.partition_point(|&s| s < start);
        i > 0 && self.prefix_max_end[i - 1] > start
    }

    /// Does any member end strictly before `start` — i.e. is the node in
    /// the *following* of some member?
    pub fn any_ending_before(&self, start: u64) -> bool {
        !self.is_empty() && self.min_end < start
    }

    /// Iterate `(start, end)` pairs in start order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.starts.iter().copied().zip(self.ends.iter().copied())
    }
}

/// A full (not semi-) structural join: pairs `(a_idx, d_idx)` where
/// `descendants[d_idx]` is inside `ancestors[a_idx]`. Implemented as the
/// classic stack-based merge (Al-Khalifa et al.), used by tests and by the
/// baselines for comparison.
pub fn structural_join_pairs(
    ancestors: &IntervalSet,
    descendants: &IntervalSet,
) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    // Both lists sorted by start; for each descendant, ancestors containing
    // it form a prefix-chain. Use a simple sweep with a stack of open
    // ancestors.
    let mut stack: Vec<usize> = Vec::new();
    let mut ai = 0usize;
    for (di, (ds, _de)) in descendants.iter().enumerate() {
        // Push ancestors starting before ds.
        while ai < ancestors.len() && ancestors.starts[ai] < ds {
            // Pop closed ancestors first.
            while let Some(&top) = stack.last() {
                if ancestors.ends[top] < ancestors.starts[ai] {
                    stack.pop();
                } else {
                    break;
                }
            }
            stack.push(ai);
            ai += 1;
        }
        // Pop ancestors that ended before ds.
        while let Some(&top) = stack.last() {
            if ancestors.ends[top] < ds {
                stack.pop();
            } else {
                break;
            }
        }
        for &a in &stack {
            debug_assert!(ancestors.starts[a] < ds);
            if ancestors.ends[a] > ds {
                out.push((a, di));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Intervals of the tree a(b(c d) e): a=(0,9), b=(1,6), c=(2,3),
    /// d=(4,5), e=(7,8).
    fn tree_intervals() -> Vec<(u64, u64)> {
        vec![(0, 9), (1, 6), (2, 3), (4, 5), (7, 8)]
    }

    #[test]
    fn any_within_checks_descendants() {
        let all = IntervalSet::new(tree_intervals());
        assert!(all.any_within(0, 9)); // a contains b..e
        assert!(all.any_within(1, 6)); // b contains c, d
        assert!(!all.any_within(2, 3)); // c is a leaf
        assert!(!all.any_within(7, 8)); // e is a leaf
    }

    #[test]
    fn any_containing_checks_ancestors() {
        let set = IntervalSet::new(vec![(1, 6)]); // just b
        assert!(set.any_containing(2)); // c is inside b
        assert!(set.any_containing(4)); // d is inside b
        assert!(!set.any_containing(7)); // e is not
        assert!(!set.any_containing(0)); // a is not (it contains b)
        assert!(!set.any_containing(1)); // b does not contain itself
    }

    #[test]
    fn any_containing_with_disjoint_predecessors() {
        // Members: two leaves before x, plus one real ancestor far left.
        let set = IntervalSet::new(vec![(0, 100), (10, 11), (20, 21)]);
        assert!(set.any_containing(50), "the (0,100) ancestor must be found");
        let set2 = IntervalSet::new(vec![(10, 11), (20, 21)]);
        assert!(!set2.any_containing(50));
    }

    #[test]
    fn any_ending_before_checks_following() {
        let set = IntervalSet::new(vec![(1, 6)]);
        assert!(set.any_ending_before(7)); // e follows b
        assert!(!set.any_ending_before(4)); // d is inside b, not following
        assert!(IntervalSet::new(vec![]).is_empty());
        assert!(!IntervalSet::new(vec![]).any_ending_before(100));
    }

    #[test]
    fn full_join_pairs() {
        let anc = IntervalSet::new(vec![(0, 9), (1, 6)]); // a, b
        let desc = IntervalSet::new(vec![(2, 3), (4, 5), (7, 8)]); // c, d, e
        let mut pairs = structural_join_pairs(&anc, &desc);
        pairs.sort_unstable();
        // a contains c,d,e; b contains c,d.
        assert_eq!(pairs, vec![(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)]);
    }

    #[test]
    fn join_with_empty_sides() {
        let empty = IntervalSet::new(vec![]);
        let some = IntervalSet::new(vec![(0, 3)]);
        assert!(structural_join_pairs(&empty, &some).is_empty());
        assert!(structural_join_pairs(&some, &empty).is_empty());
    }

    #[test]
    fn dedup_of_duplicate_intervals() {
        let set = IntervalSet::new(vec![(1, 2), (1, 2), (3, 4)]);
        assert_eq!(set.len(), 2);
    }
}
