//! A small, fast, non-cryptographic hasher for index keys, and the one
//! keyless hash index every table and transaction overlay is built on.
//!
//! Index keys are short `Value` sequences dominated by integers; SipHash (the
//! std default) is needlessly slow for them and HashDoS is not a concern for
//! an embedded engine. This is the FxHash multiply-xor scheme implemented
//! locally so the project stays within its approved dependency set.
//!
//! `SlotIndex` maps the `hash_values` hash of a key to the slots (row
//! ids, sequence numbers, positions) filed under it. It stores no keys and
//! no rows: its owner keeps the rows and resolves hash collisions by
//! comparing the key columns of the row a slot names. Unit tests keep only
//! the low three bits of every hash, so unrelated keys share buckets and
//! each owner's collision handling is exercised by every test.

use crate::value::Value;
use std::collections::hash_map::Entry;
use std::hash::{BuildHasherDefault, Hash, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// FxHash-style hasher.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.add(v as u64);
    }
}

/// `HashMap` with the fast local hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` with the fast local hasher.
pub type FxHashSet<T> = std::collections::HashSet<T, BuildHasherDefault<FxHasher>>;

/// The bits of a key hash an index files under: all of them, except in
/// unit tests, where eight buckets make unrelated keys collide.
#[cfg(not(test))]
const KEY_HASH_MASK: u64 = u64::MAX;
#[cfg(test)]
const KEY_HASH_MASK: u64 = 0b111;

/// Hash a sequence of values (a whole row, or the key columns of one) for
/// a [`SlotIndex`].
pub(crate) fn hash_values<'a>(values: impl IntoIterator<Item = &'a Value>) -> u64 {
    let mut h = FxHasher::default();
    for v in values {
        v.hash(&mut h);
    }
    h.finish() & KEY_HASH_MASK
}

/// The slots filed under one hash: almost always exactly one, which then
/// needs no heap block.
#[derive(Debug, Clone)]
enum Slots<S> {
    One(S),
    Many(Vec<S>),
}

/// A hash → slot multimap. It stores no rows and no keys: the owner looks
/// the slots up in its row storage and resolves hash collisions by
/// comparing there.
///
/// The slots under one hash are kept in the order they were inserted;
/// removing one leaves the others in place. Owners rely on it: the first
/// match under a hash is the oldest one filed.
#[derive(Debug, Clone)]
pub(crate) struct SlotIndex<S> {
    map: FxHashMap<u64, Slots<S>>,
}

impl<S> Default for SlotIndex<S> {
    fn default() -> Self {
        SlotIndex {
            map: FxHashMap::default(),
        }
    }
}

impl<S: Copy + PartialEq> SlotIndex<S> {
    /// The slots filed under `hash`, in insertion order. Not every one need
    /// carry the key that hashed to it.
    pub(crate) fn get(&self, hash: u64) -> &[S] {
        match self.map.get(&hash) {
            None => &[],
            Some(Slots::One(s)) => std::slice::from_ref(s),
            Some(Slots::Many(v)) => v,
        }
    }

    /// File `slot` under `hash`, after the slots already there.
    pub(crate) fn insert(&mut self, hash: u64, slot: S) {
        match self.map.entry(hash) {
            Entry::Vacant(e) => {
                e.insert(Slots::One(slot));
            }
            Entry::Occupied(mut e) => match e.get_mut() {
                Slots::Many(v) => v.push(slot),
                Slots::One(first) => {
                    let first = *first;
                    e.insert(Slots::Many(vec![first, slot]));
                }
            },
        }
    }

    /// Remove `slot` from under `hash`, keeping the order of the rest.
    pub(crate) fn remove(&mut self, hash: u64, slot: S) {
        let Entry::Occupied(mut e) = self.map.entry(hash) else {
            return;
        };
        match e.get_mut() {
            Slots::One(s) => {
                if *s == slot {
                    e.remove();
                }
            }
            Slots::Many(v) => {
                v.retain(|s| *s != slot);
                match v[..] {
                    [] => {
                        e.remove();
                    }
                    [last] => {
                        e.insert(Slots::One(last));
                    }
                    _ => {}
                }
            }
        }
    }

    /// Number of slots filed.
    pub(crate) fn len(&self) -> usize {
        self.map
            .values()
            .map(|s| match s {
                Slots::One(_) => 1,
                Slots::Many(v) => v.len(),
            })
            .sum()
    }

    /// Remove every slot.
    pub(crate) fn clear(&mut self) {
        self.map.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, BuildHasherDefault};

    fn hash_of(v: impl std::hash::Hash) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(v)
    }

    #[test]
    fn deterministic() {
        assert_eq!(hash_of(42u64), hash_of(42u64));
        assert_eq!(hash_of("hello"), hash_of("hello"));
    }

    #[test]
    fn distinguishes_values() {
        assert_ne!(hash_of(1u64), hash_of(2u64));
        assert_ne!(hash_of("a"), hash_of("b"));
    }

    #[test]
    fn map_basic_operations() {
        let mut m: FxHashMap<String, i32> = FxHashMap::default();
        m.insert("x".into(), 1);
        m.insert("y".into(), 2);
        assert_eq!(m.get("x"), Some(&1));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn slot_index_keeps_insertion_order_and_shrinks_to_one() {
        let mut ix: SlotIndex<u32> = SlotIndex::default();
        for s in [4, 1, 3, 2] {
            ix.insert(7, s);
        }
        ix.insert(8, 9);
        ix.remove(7, 1);
        assert_eq!(ix.get(7), [4, 3, 2]);
        ix.remove(7, 4);
        ix.remove(7, 2);
        assert!(
            matches!(ix.map[&7], Slots::One(3)),
            "one slot, no heap block"
        );
        ix.remove(7, 5);
        assert_eq!(ix.get(7), [3]);
        ix.remove(7, 3);
        assert!(ix.get(7).is_empty() && !ix.map.contains_key(&7));
        assert_eq!(ix.len(), 1);
    }

    #[test]
    fn key_hashes_collide_under_test() {
        let keys: Vec<Value> = (0..64).map(Value::Int).collect();
        let hashes: FxHashSet<u64> = keys.iter().map(|k| hash_values([k])).collect();
        assert!(hashes.len() <= 8);
    }

    #[test]
    fn hashes_byte_tails() {
        // Exercise the chunk remainder path.
        assert_ne!(hash_of(&b"abcdefghi"[..]), hash_of(&b"abcdefghj"[..]));
    }
}
