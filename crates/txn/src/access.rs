//! Read/write set bookkeeping.

use gemstone_object::{ElemName, Goop};
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative hashing for the keys an access set holds. Goops and
/// symbol ids are assigned by the server, never by a client, so SipHash's
/// resistance to chosen keys buys nothing here and costs a full keyed round
/// per recorded read.
#[derive(Default, Clone, Copy)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

type IdSet<T> = HashSet<T, BuildHasherDefault<IdHasher>>;

/// The unit of conflict detection: one element of one object, the object's
/// byte body, or its existence/shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SlotId {
    Elem(Goop, ElemName),
    Bytes(Goop),
    /// Whole-object access (coarse grain, or shape reads like size).
    Object(Goop),
}

impl SlotId {
    /// The object this slot belongs to.
    pub fn goop(&self) -> Goop {
        match self {
            SlotId::Elem(g, _) | SlotId::Bytes(g) | SlotId::Object(g) => *g,
        }
    }
}

/// A set of accessed slots.
#[derive(Debug, Clone, Default)]
pub struct AccessSet {
    slots: IdSet<SlotId>,
}

impl AccessSet {
    /// An empty set.
    pub fn new() -> AccessSet {
        AccessSet::default()
    }

    /// Record an access.
    pub fn record(&mut self, slot: SlotId) {
        self.slots.insert(slot);
    }

    /// Number of recorded slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when nothing was accessed.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// True if the sets share a slot, either exactly or through a
    /// whole-object entry covering an element of the same object.
    pub fn intersects(&self, other: &AccessSet) -> bool {
        let (small, large) =
            if self.slots.len() <= other.slots.len() { (self, other) } else { (other, self) };
        if small.slots.iter().any(|s| large.covers(*s)) {
            return true;
        }
        // Whole-object entries in `small` cover per-element entries in
        // `large` too; check the reverse direction for Object slots.
        if !small.has_object_slot() {
            return false;
        }
        let large_goops = large.goop_set();
        small.slots.iter().any(|s| matches!(s, SlotId::Object(g) if large_goops.contains(g)))
    }

    fn covers(&self, slot: SlotId) -> bool {
        self.slots.contains(&slot) || self.slots.contains(&SlotId::Object(slot.goop()))
    }

    fn has_object_slot(&self) -> bool {
        self.slots.iter().any(|s| matches!(s, SlotId::Object(_)))
    }

    fn goop_set(&self) -> IdSet<Goop> {
        self.slots.iter().map(SlotId::goop).collect()
    }

    /// The objects on which the two sets collide, using the same covering
    /// rules as [`AccessSet::intersects`] — the forensic twin of the
    /// boolean check, enumerated for conflict attribution. Sorted and
    /// deduplicated.
    pub fn intersection_goops(&self, other: &AccessSet) -> Vec<Goop> {
        let other_goops = if self.has_object_slot() { other.goop_set() } else { IdSet::default() };
        let mut goops: Vec<Goop> = self
            .slots
            .iter()
            .filter(|s| {
                other.covers(**s) || matches!(s, SlotId::Object(g) if other_goops.contains(g))
            })
            .map(|s| s.goop())
            .collect();
        goops.sort_unstable_by_key(|g| g.0);
        goops.dedup();
        goops
    }

    /// Every distinct object in the set, sorted (watermark-conservative
    /// conflicts attribute the whole read set: any of it may overlap).
    pub fn goops(&self) -> Vec<Goop> {
        let mut goops: Vec<Goop> = self.slots.iter().map(|s| s.goop()).collect();
        goops.sort_unstable_by_key(|g| g.0);
        goops.dedup();
        goops
    }

    /// Iterate recorded slots.
    pub fn iter(&self) -> impl Iterator<Item = SlotId> + '_ {
        self.slots.iter().copied()
    }

    /// Collapse to whole-object grain (the ablation of DESIGN.md §4.5).
    pub fn coarsened(&self) -> AccessSet {
        AccessSet { slots: self.slots.iter().map(|s| SlotId::Object(s.goop())).collect() }
    }

    /// Clear for reuse.
    pub fn clear(&mut self) {
        self.slots.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemstone_object::SymbolId;

    fn e(g: u64, s: u32) -> SlotId {
        SlotId::Elem(Goop(g), ElemName::Sym(SymbolId(s)))
    }

    #[test]
    fn exact_intersection() {
        let mut a = AccessSet::new();
        a.record(e(1, 1));
        let mut b = AccessSet::new();
        b.record(e(1, 2));
        assert!(!a.intersects(&b), "different elements of one object don't conflict");
        b.record(e(1, 1));
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
    }

    #[test]
    fn object_grain_covers_elements() {
        let mut a = AccessSet::new();
        a.record(SlotId::Object(Goop(1)));
        let mut b = AccessSet::new();
        b.record(e(1, 5));
        assert!(a.intersects(&b), "whole-object covers any element");
        assert!(b.intersects(&a), "symmetric");
        let mut c = AccessSet::new();
        c.record(e(2, 5));
        assert!(!a.intersects(&c));
    }

    #[test]
    fn bytes_and_elements_are_distinct() {
        let mut a = AccessSet::new();
        a.record(SlotId::Bytes(Goop(1)));
        let mut b = AccessSet::new();
        b.record(e(1, 1));
        assert!(!a.intersects(&b));
    }

    #[test]
    fn coarsening_creates_false_conflicts() {
        let mut a = AccessSet::new();
        a.record(e(1, 1));
        let mut b = AccessSet::new();
        b.record(e(1, 2));
        assert!(!a.intersects(&b));
        assert!(a.coarsened().intersects(&b.coarsened()), "the ablation's false conflict");
    }

    /// The covering rules spelled out pair by pair: the definition the
    /// hashed implementations must reproduce.
    fn collides(a: SlotId, b: SlotId) -> bool {
        a == b
            || (a.goop() == b.goop()
                && (matches!(a, SlotId::Object(_)) || matches!(b, SlotId::Object(_))))
    }

    fn random_set(rng: &mut proptest::TestRng, n: u64) -> AccessSet {
        let mut set = AccessSet::new();
        for _ in 0..n {
            let g = Goop(rng.next_u64() % 12);
            set.record(match rng.next_u64() % 4 {
                0 => SlotId::Object(g),
                1 => SlotId::Bytes(g),
                _ => e(g.0, (rng.next_u64() % 3) as u32),
            });
        }
        set
    }

    proptest::proptest! {
        fn hashed_answers_equal_the_pairwise_definition(
            seed in proptest::prelude::any::<u64>(),
            n in 0u64..24,
            m in 0u64..24,
        ) {
            let mut rng = proptest::TestRng::from_seed(seed);
            let a = random_set(&mut rng, n);
            let b = random_set(&mut rng, m);
            let pairwise = a.iter().any(|x| b.iter().any(|y| collides(x, y)));
            proptest::prop_assert_eq!(a.intersects(&b), pairwise);
            proptest::prop_assert_eq!(b.intersects(&a), pairwise);
            let mut want: Vec<Goop> =
                a.iter().filter(|x| b.iter().any(|y| collides(*x, y))).map(|x| x.goop()).collect();
            want.sort_unstable_by_key(|g| g.0);
            want.dedup();
            proptest::prop_assert_eq!(a.intersection_goops(&b), want);
        }
    }

    #[test]
    fn empty_sets_never_intersect() {
        let a = AccessSet::new();
        let mut b = AccessSet::new();
        b.record(e(1, 1));
        assert!(!a.intersects(&b));
        assert!(!b.intersects(&a));
        assert!(a.is_empty());
    }
}
