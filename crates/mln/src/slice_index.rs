//! One hash index over slices that live in a caller's arena.
//!
//! The atom registry, the evidence set and the MRF builder all keep
//! their keys (argument tuples, canonical clause literals) as slices of
//! one flat arena, numbered densely. A [`SliceIndex`] maps a slice to its
//! number without holding a copy of it: each slot is a `(hash tag,
//! id + 1)` pair, and a lookup that meets the probe's tag asks the
//! caller whether the slice numbered `id` equals the probe. A hit is one
//! tag check plus one arena compare, and nothing is allocated per key.

use crate::fxhash::FxHasher;
use std::hash::Hasher;

/// The tag of a key: its length and its words, two to a word, through
/// [`FxHasher`] (low 32 bits). Every user of one index must tag equal
/// keys equally, so the words are the key's raw `u32` values.
pub fn slice_tag<I>(words: I) -> u32
where
    I: IntoIterator<Item = u32>,
    I::IntoIter: ExactSizeIterator,
{
    let mut words = words.into_iter();
    let mut h = FxHasher::default();
    h.write_usize(words.len());
    while let Some(a) = words.next() {
        match words.next() {
            Some(b) => h.write_u64(u64::from(a) | u64::from(b) << 32),
            None => h.write_u32(a),
        }
    }
    h.finish() as u32
}

/// Open-addressing index from slice tags to dense ids; see the module
/// docs.
///
/// Slots are `(hash tag, id + 1)`, `(_, 0)` marking an empty slot.
/// Lookups probe linearly from the slot the tag's low bits select; the
/// slot count is 0 or a power of two, and the table doubles before it
/// is more than half full, re-placing each entry by its stored tag (the
/// keys are never re-hashed). Entries are never removed one at a time:
/// a caller that drops keys renumbers its arena and rebuilds the index.
#[derive(Clone, Debug, Default)]
pub struct SliceIndex {
    slots: Vec<(u32, u32)>,
    /// Occupied slots.
    len: usize,
}

impl SliceIndex {
    /// Heap bytes held (by capacity).
    pub fn bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<(u32, u32)>()
    }

    /// The id whose slice `eq` accepts among those tagged `tag`.
    #[inline]
    pub fn get(&self, tag: u32, mut eq: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(tag, &mut eq).ok()
    }

    /// The id whose slice `eq` accepts among those tagged `tag`, or, if
    /// there is none, `None` after entering `id` under `tag`.
    #[inline]
    pub fn get_or_insert(
        &mut self,
        tag: u32,
        id: u32,
        mut eq: impl FnMut(u32) -> bool,
    ) -> Option<u32> {
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow();
        }
        match self.probe(tag, &mut eq) {
            Ok(found) => Some(found),
            Err(slot) => {
                self.slots[slot] = (tag, id + 1);
                self.len += 1;
                None
            }
        }
    }

    /// Enters `id` under `tag`; the caller knows no entry equals it.
    pub fn insert_new(&mut self, tag: u32, id: u32) {
        let inserted = self.get_or_insert(tag, id, |_| false);
        debug_assert!(inserted.is_none());
    }

    /// Removes every entry, keeping the slots.
    pub fn clear(&mut self) {
        self.slots.fill((0, 0));
        self.len = 0;
    }

    /// The id `eq` accepts, or the empty slot where `tag`'s probe ends.
    /// The table has at least one empty slot.
    #[inline]
    fn probe(&self, tag: u32, eq: &mut impl FnMut(u32) -> bool) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = tag as usize & mask;
        loop {
            let (t, entry) = self.slots[slot];
            if entry == 0 {
                return Err(slot);
            }
            if t == tag && eq(entry - 1) {
                return Ok(entry - 1);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Doubles the table (16 slots at first), re-placing every entry by
    /// its stored tag.
    fn grow(&mut self) {
        let len = (self.slots.len() * 2).max(16);
        let old = std::mem::replace(&mut self.slots, vec![(0, 0); len]);
        let mask = len - 1;
        for (tag, entry) in old.into_iter().filter(|&(_, e)| e != 0) {
            let mut slot = tag as usize & mask;
            while self.slots[slot].1 != 0 {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = (tag, entry);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Keys in one arena, numbered in order.
    struct Arena {
        words: Vec<u32>,
        start: Vec<usize>,
    }

    impl Arena {
        fn key(&self, id: u32) -> &[u32] {
            &self.words[self.start[id as usize]..self.start[id as usize + 1]]
        }
    }

    #[test]
    fn equal_tags_with_unequal_slices_stay_apart() {
        // Every key gets the same tag, so every lookup walks one probe
        // chain and only the caller's slice compare tells keys apart.
        let mut arena = Arena {
            words: Vec::new(),
            start: vec![0],
        };
        let mut index = SliceIndex::default();
        let keys: Vec<Vec<u32>> = (0..100u32)
            .map(|i| (0..=i % 4).map(|j| i * 7 + j).collect())
            .collect();
        for (id, key) in keys.iter().enumerate() {
            let found = index.get_or_insert(9, id as u32, |other| arena.key(other) == &key[..]);
            assert_eq!(found, None);
            arena.words.extend_from_slice(key);
            arena.start.push(arena.words.len());
        }
        assert_eq!(index.len, keys.len());
        for (id, key) in keys.iter().enumerate() {
            assert_eq!(
                index.get(9, |other| arena.key(other) == &key[..]),
                Some(id as u32)
            );
            let again = index.get_or_insert(9, 1000, |other| arena.key(other) == &key[..]);
            assert_eq!(again, Some(id as u32));
        }
        assert_eq!(index.get(9, |other| arena.key(other) == [1, 2, 3]), None);
        // An entry under another tag never matches, whatever `eq` says.
        assert_eq!(index.get(10, |_| true), None);
        assert_eq!(index.len, keys.len());
    }

    #[test]
    fn growth_keeps_every_entry() {
        let mut index = SliceIndex::default();
        for id in 0..5000u32 {
            let tag = slice_tag([id, id / 3]);
            assert_eq!(index.get_or_insert(tag, id, |other| other == id), None);
        }
        assert!(index.bytes() >= 2 * 5000 * 8);
        for id in 0..5000u32 {
            let tag = slice_tag([id, id / 3]);
            assert_eq!(index.get(tag, |other| other == id), Some(id));
        }
        let mut cleared = index.clone();
        cleared.clear();
        assert_eq!(cleared.len, 0);
        assert_eq!(cleared.get(slice_tag([1, 0]), |_| true), None);
    }

    #[test]
    fn tags_count_the_length() {
        assert_ne!(slice_tag([0u32; 0]), slice_tag([0]));
        assert_ne!(slice_tag([0]), slice_tag([0, 0]));
        assert_eq!(slice_tag([3, 4, 5]), slice_tag(vec![3, 4, 5]));
    }
}
