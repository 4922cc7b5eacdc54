//! A segmented LRU: the eviction policy of the daemon's artifact cache and
//! of its QASM memo.
//!
//! A new entry enters a *probationary* segment. A use moves it to the
//! most-recent end of a *protected* segment that holds at most
//! `capacity − max(1, capacity / 5)` entries (80%); when that overflows,
//! protected's least-recently-used entry is demoted to the most-recent end
//! of probation. Eviction takes probation's least-recently-used entry.
//! Keys seen once — one-shot traffic — therefore displace only each other,
//! while a new key that is used again can still displace a stale protected
//! entry through demotion. With capacity 1 the protected segment holds
//! nothing and the policy is plain LRU.
//!
//! Protected is bounded below the capacity, so probation is never empty
//! when a full map takes a new key: eviction never has to fall back to
//! protected, and the entry being inserted is never the victim.
//!
//! Each segment is a doubly linked list threaded through one slot vector
//! by index, so every operation is O(1) and a use allocates nothing. That
//! matters to the daemon: a lookup runs on a short-lived connection thread,
//! and a long-lived allocation made there (a B-tree node, say) pins the
//! thread's allocator arena between large request buffers.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

/// The end of a list.
const NIL: usize = usize::MAX;

#[derive(Clone, Copy)]
enum Segment {
    Probation,
    Protected,
}

struct Node<K, V> {
    key: K,
    value: V,
    segment: Segment,
    /// Neighbours within the segment: `prev` is less recently used.
    prev: usize,
    next: usize,
}

/// One segment: least recently used at `head`, most recently at `tail`.
#[derive(Clone, Copy)]
struct List {
    head: usize,
    tail: usize,
    len: usize,
}

impl List {
    const EMPTY: List = List { head: NIL, tail: NIL, len: 0 };
}

/// A bounded map that evicts by segmented LRU (see the module doc).
pub(crate) struct SegmentedLru<K, V> {
    capacity: usize,
    protected_capacity: usize,
    index: HashMap<K, usize>,
    /// Grows to `capacity` slots; an evicted entry's slot takes the new one.
    nodes: Vec<Node<K, V>>,
    probation: List,
    protected: List,
}

impl<K: Clone + Eq + Hash, V> SegmentedLru<K, V> {
    /// An empty map holding at most `capacity` (at least 1) entries.
    pub(crate) fn new(capacity: usize) -> SegmentedLru<K, V> {
        let capacity = capacity.max(1);
        SegmentedLru {
            capacity,
            protected_capacity: capacity - (capacity / 5).max(1),
            index: HashMap::new(),
            nodes: Vec::new(),
            probation: List::EMPTY,
            protected: List::EMPTY,
        }
    }

    /// Resident entries.
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    /// The value under `key`, without counting a use.
    pub(crate) fn peek<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.index.get(key).map(|&i| &self.nodes[i].value)
    }

    /// The value under `key`, counted as a use: the entry moves to the
    /// most-recent end of protected.
    pub(crate) fn get<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        let i = *self.index.get(key)?;
        self.unlink(i);
        self.push(Segment::Protected, i);
        if self.protected.len > self.protected_capacity {
            let demoted = self.protected.head;
            self.unlink(demoted);
            self.push(Segment::Probation, demoted);
        }
        Some(&self.nodes[i].value)
    }

    /// Inserts `key` at the most-recent end of probation and reports
    /// whether an entry was evicted to stay within capacity. A key already
    /// present keeps its place and takes the new value.
    pub(crate) fn insert(&mut self, key: K, value: V) -> bool {
        if let Some(&i) = self.index.get(&key) {
            self.nodes[i].value = value;
            return false;
        }
        let node =
            Node { key: key.clone(), value, segment: Segment::Probation, prev: NIL, next: NIL };
        let full = self.nodes.len() == self.capacity;
        let i = if full {
            let victim = self.probation.head;
            self.unlink(victim);
            let evicted = std::mem::replace(&mut self.nodes[victim], node);
            self.index.remove(&evicted.key);
            victim
        } else {
            self.nodes.push(node);
            self.nodes.len() - 1
        };
        self.index.insert(key, i);
        self.push(Segment::Probation, i);
        full
    }

    fn list(&mut self, segment: Segment) -> &mut List {
        match segment {
            Segment::Probation => &mut self.probation,
            Segment::Protected => &mut self.protected,
        }
    }

    fn unlink(&mut self, i: usize) {
        let Node { segment, prev, next, .. } = self.nodes[i];
        match prev {
            NIL => self.list(segment).head = next,
            p => self.nodes[p].next = next,
        }
        match next {
            NIL => self.list(segment).tail = prev,
            n => self.nodes[n].prev = prev,
        }
        self.list(segment).len -= 1;
    }

    /// Links the unlinked slot `i` at the most-recent end of `segment`.
    fn push(&mut self, segment: Segment, i: usize) {
        let tail = self.list(segment).tail;
        let node = &mut self.nodes[i];
        (node.segment, node.prev, node.next) = (segment, tail, NIL);
        match tail {
            NIL => self.list(segment).head = i,
            t => self.nodes[t].next = i,
        }
        let list = self.list(segment);
        list.tail = i;
        list.len += 1;
    }

    /// A segment's keys, least recently used first.
    #[cfg(test)]
    fn keys(&self, segment: Segment) -> Vec<K> {
        let list = match segment {
            Segment::Probation => self.probation,
            Segment::Protected => self.protected,
        };
        let mut keys = Vec::with_capacity(list.len);
        let mut at = list.head;
        while at != NIL {
            keys.push(self.nodes[at].key.clone());
            at = self.nodes[at].next;
        }
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(capacity: usize, keys: &[&'static str]) -> SegmentedLru<&'static str, usize> {
        let mut lru = SegmentedLru::new(capacity);
        for (i, &key) in keys.iter().enumerate() {
            lru.insert(key, i);
        }
        lru
    }

    #[test]
    fn protected_takes_four_fifths_with_at_least_one_probation_slot() {
        for (capacity, protected) in [(0, 0), (1, 0), (2, 1), (4, 3), (5, 4), (64, 52), (256, 205)]
        {
            let lru = SegmentedLru::<u32, ()>::new(capacity);
            assert_eq!(lru.protected_capacity, protected, "capacity {capacity}");
        }
    }

    #[test]
    fn a_new_key_used_again_displaces_a_stale_protected_entry() {
        // Capacity 5: protected holds 4, probation at least 1.
        let mut lru = filled(5, &["a", "b", "c", "d"]);
        for key in ["a", "b", "c", "d"] {
            lru.get(key);
        }
        lru.insert("new", 9);
        lru.get("new");
        lru.get("new");
        // "a" was protected's least recently used: demoted, not evicted.
        assert_eq!(lru.keys(Segment::Protected), ["b", "c", "d", "new"]);
        assert_eq!(lru.keys(Segment::Probation), ["a"]);
        // The next insert evicts it; the new hot key stays.
        assert!(lru.insert("x", 10));
        assert!(lru.peek("a").is_none());
        assert!(lru.peek("new").is_some());
    }

    #[test]
    fn capacity_one_is_plain_lru() {
        let mut lru = filled(1, &["a"]);
        assert_eq!(lru.get("a"), Some(&0));
        assert!(lru.insert("b", 1), "a used entry still leaves for a new one");
        assert!(lru.peek("a").is_none());
        assert_eq!(lru.get("b"), Some(&1));
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn reinserting_a_key_replaces_its_value_in_place() {
        let mut lru = filled(2, &["a"]);
        lru.get("a");
        assert!(!lru.insert("a", 7));
        assert_eq!(lru.peek("a"), Some(&7));
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.keys(Segment::Protected), ["a"], "the used entry stays protected");
    }

    /// The lists against a model that keeps each segment as a plain vector,
    /// least recently used first, over random uses and inserts.
    #[test]
    fn matches_a_vector_model_over_random_operations() {
        for capacity in [1, 2, 3, 5, 8] {
            let protected_capacity = capacity - (capacity / 5).max(1);
            let mut lru = SegmentedLru::new(capacity);
            let (mut probation, mut protected): (Vec<u64>, Vec<u64>) = (Vec::new(), Vec::new());
            let mut state = capacity as u64;
            for _ in 0..2_000 {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let key = (state >> 33) % 12;
                if (state >> 20) & 1 == 0 {
                    let found = probation.iter().chain(&protected).any(|&k| k == key);
                    assert_eq!(lru.get(&key).is_some(), found);
                    if found {
                        probation.retain(|&k| k != key);
                        protected.retain(|&k| k != key);
                        protected.push(key);
                        if protected.len() > protected_capacity {
                            probation.push(protected.remove(0));
                        }
                    }
                } else if !probation.iter().chain(&protected).any(|&k| k == key) {
                    let full = probation.len() + protected.len() == capacity;
                    assert_eq!(lru.insert(key, key), full);
                    if full {
                        probation.remove(0);
                    }
                    probation.push(key);
                }
                assert_eq!(lru.keys(Segment::Probation), probation);
                assert_eq!(lru.keys(Segment::Protected), protected);
                assert_eq!(lru.len(), probation.len() + protected.len());
            }
        }
    }
}
