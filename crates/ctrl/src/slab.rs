//! Slot allocation, a dense slab and a direct-mapped key index — the
//! shard executor's session slots, group store and key tables.
//!
//! The per-tick hot path at 100k sessions is dominated by lookups and
//! cache misses, not by bandwidth math. A `HashMap<u64, usize>` pays a
//! hash + probe per arrival and scatters entries across the heap; the
//! key index pays one bounds-checked array access.
//!
//! * [`Slots`] hands out stable `u32` slots with a LIFO free list, so a
//!   slot never moves while it is occupied (no `swap_remove` fix-ups)
//!   and vacated slots are reused densely, the most recent first. The
//!   shard's session columns are allocated through one directly; a
//!   [`Slab`] through its own.
//! * [`KeyMap`] maps the service's monotonically increasing session (or
//!   group) keys straight to `u32` slots with a plain `Vec` — keys are
//!   handed out sequentially by the driver, so the table is dense and a
//!   lookup is one array index. Keys are never reissued and every owner
//!   removes a key's mapping when it vacates the key's slot, so a mapping
//!   never outlives its occupant.
//!
//! Iteration ([`Slab::iter`], [`Slab::iter_mut`]) runs in slot order.

/// LIFO slot allocation over storage that grows at its end: the
/// vacated slots, the most recent last, and a count of the taken ones.
/// The storage is the owner's — it passes its bound in and grows to cover
/// a slot handed out at that bound.
#[derive(Debug, Default)]
pub(crate) struct Slots {
    free: Vec<u32>,
    taken: usize,
}

impl Slots {
    /// Takes the most recently vacated slot, else `bound`, the one past
    /// the owner's storage.
    pub(crate) fn take(&mut self, bound: usize) -> u32 {
        self.taken += 1;
        match self.free.pop() {
            Some(slot) => slot,
            None => u32::try_from(bound).expect("slots fit a u32"),
        }
    }

    /// Returns `slot` for the next [`Slots::take`].
    pub(crate) fn vacate(&mut self, slot: u32) {
        self.taken -= 1;
        self.free.push(slot);
    }

    /// Taken slots.
    pub(crate) fn len(&self) -> usize {
        self.taken
    }

    /// Forgets every vacated slot and counts `taken` ones: the owner's
    /// storage now holds slots `0..taken`, all occupied.
    pub(crate) fn reset(&mut self, taken: usize) {
        self.free.clear();
        self.taken = taken;
    }
}

/// A dense slab: O(1) insert/remove/lookup, stable `u32` slots, LIFO
/// free-list reuse, iteration in slot order.
#[derive(Debug)]
pub(crate) struct Slab<T> {
    entries: Vec<Option<T>>,
    slots: Slots,
}

impl<T> Slab<T> {
    pub(crate) fn new() -> Self {
        Slab {
            entries: Vec::new(),
            slots: Slots::default(),
        }
    }

    /// Occupied slots.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// One past the highest slot index ever occupied.
    #[cfg(test)]
    pub(crate) fn slot_bound(&self) -> usize {
        self.entries.len()
    }

    /// Vacates every slot, keeping the entry table's allocation; the next
    /// inserts fill slots `0..n` densely, as in a fresh slab.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.slots.reset(0);
    }

    /// Inserts, reusing the most recently freed slot if any.
    pub(crate) fn insert(&mut self, value: T) -> u32 {
        let index = self.slots.take(self.entries.len());
        match self.entries.get_mut(index as usize) {
            Some(entry) => {
                debug_assert!(entry.is_none(), "free list pointed at a live slot");
                *entry = Some(value);
            }
            None => self.entries.push(Some(value)),
        }
        index
    }

    /// Vacates `slot`, returning its value; `None` if it was vacant or out
    /// of range.
    pub(crate) fn remove(&mut self, slot: u32) -> Option<T> {
        let value = self.entries.get_mut(slot as usize)?.take()?;
        self.slots.vacate(slot);
        Some(value)
    }

    pub(crate) fn get(&self, slot: u32) -> Option<&T> {
        self.entries.get(slot as usize)?.as_ref()
    }

    pub(crate) fn get_mut(&mut self, slot: u32) -> Option<&mut T> {
        self.entries.get_mut(slot as usize)?.as_mut()
    }

    /// Occupied slots in slot order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        let entries = self.entries.iter().enumerate();
        entries.filter_map(|(i, e)| e.as_ref().map(|v| (i as u32, v)))
    }

    /// Occupied slots in slot order, mutably.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = (u32, &mut T)> {
        let entries = self.entries.iter_mut().enumerate();
        entries.filter_map(|(i, e)| e.as_mut().map(|v| (i as u32, v)))
    }
}

/// A direct-mapped index from dense `u64` keys to `u32` slots.
///
/// The driver issues session and group keys from one monotone counter, so
/// the key space is dense and never recycled: a `Vec<u32>` beats any hash
/// map. Absent keys hold a sentinel.
#[derive(Debug)]
pub(crate) struct KeyMap {
    slots: Vec<u32>,
}

/// The "no mapping" sentinel.
const NIL: u32 = u32::MAX;

impl KeyMap {
    pub(crate) fn new() -> Self {
        KeyMap { slots: Vec::new() }
    }

    /// Drops every mapping, keeping the table's allocation. Keys are
    /// never reissued, so clearing cannot introduce ABA hazards.
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
    }

    /// Maps `key` to `slot`, growing the table as needed.
    pub(crate) fn insert(&mut self, key: u64, slot: u32) {
        debug_assert_ne!(slot, NIL, "the sentinel is not a slot");
        let key = usize::try_from(key).expect("keys are driver counters");
        if key >= self.slots.len() {
            self.slots.resize(key + 1, NIL);
        }
        self.slots[key] = slot;
    }

    /// The slot mapped to `key`, if any.
    pub(crate) fn get(&self, key: u64) -> Option<u32> {
        let slot = *self.slots.get(usize::try_from(key).ok()?)?;
        (slot != NIL).then_some(slot)
    }

    /// Clears `key`'s mapping, returning the slot it held.
    pub(crate) fn remove(&mut self, key: u64) -> Option<u32> {
        let entry = self.slots.get_mut(usize::try_from(key).ok()?)?;
        (*entry != NIL).then(|| std::mem::replace(entry, NIL))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_lookup_remove_roundtrip() {
        let mut slab = Slab::new();
        let a = slab.insert("a");
        let b = slab.insert("b");
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.get(a), Some(&"a"));
        assert_eq!(slab.get(b), Some(&"b"));
        assert_eq!(slab.remove(a), Some("a"));
        assert_eq!(slab.get(a), None, "a vacated slot no longer resolves");
        assert_eq!(slab.remove(a), None, "double remove is a no-op");
        assert_eq!(slab.len(), 1);
    }

    #[test]
    fn freed_slots_are_reused_lifo() {
        let mut slab = Slab::new();
        let a = slab.insert(1);
        let b = slab.insert(2);
        let _c = slab.insert(3);
        slab.remove(a).unwrap();
        slab.remove(b).unwrap();
        assert_eq!(slab.insert(4), b, "the last slot freed is reused first");
        assert_eq!(slab.insert(5), a);
        assert_eq!(slab.get(a), Some(&5));
        assert_eq!(slab.slot_bound(), 3, "no growth past the reused slots");
    }

    #[test]
    fn iteration_is_in_slot_order() {
        let mut slab = Slab::new();
        let ids: Vec<u32> = (0..5).map(|i| slab.insert(i * 10)).collect();
        slab.remove(ids[1]).unwrap();
        slab.remove(ids[3]).unwrap();
        let seen: Vec<(u32, i32)> = slab.iter().map(|(id, &v)| (id, v)).collect();
        assert_eq!(seen, vec![(0, 0), (2, 20), (4, 40)]);
        for (id, v) in slab.iter_mut() {
            *v += i32::try_from(id).unwrap();
        }
        assert_eq!(slab.get(ids[4]), Some(&44));
    }

    #[test]
    fn keymap_is_a_dense_direct_map() {
        let mut map = KeyMap::new();
        map.insert(7, 3);
        assert_eq!(map.get(7), Some(3));
        assert_eq!(map.get(3), None, "hole inside the table");
        assert_eq!(map.get(100), None, "past the table");
        assert_eq!(map.remove(7), Some(3));
        assert_eq!(map.get(7), None);
        assert_eq!(map.remove(7), None);
    }
}
