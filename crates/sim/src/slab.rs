//! A free-listed arena of values addressed by `u32` slots.
//!
//! [`Slab`] parks values that something else refers to by a small
//! handle: the simulations' segments in flight behind the events that
//! carry them. A
//! freed slot goes on an intrusive free list and is the next one
//! reused, so once a run reaches its peak occupancy the slab stops
//! allocating.

/// One slot: a parked value, or a link in the free list.
#[derive(Debug)]
enum Entry<T> {
    Full(T),
    /// Vacant; holds the next vacant slot ([`NONE`] ends the list).
    Free(u32),
}

/// End of the free list.
const NONE: u32 = u32::MAX;

/// A growable arena whose freed slots are reused before it grows.
#[derive(Debug)]
pub struct Slab<T> {
    entries: Vec<Entry<T>>,
    /// Most recently freed slot, or [`NONE`].
    free: u32,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl<T> Slab<T> {
    /// An empty slab with room for `cap` values.
    pub fn with_capacity(cap: usize) -> Self {
        Slab { entries: Vec::with_capacity(cap), free: NONE }
    }

    /// Park `value` and return its slot: the most recently freed slot
    /// if there is one, else a new one at the end.
    pub fn insert(&mut self, value: T) -> u32 {
        if self.free == NONE {
            let slot = u32::try_from(self.entries.len()).expect("slab slots fit in u32");
            assert!(slot != NONE, "slab is full");
            self.entries.push(Entry::Full(value));
            return slot;
        }
        let slot = self.free;
        match std::mem::replace(&mut self.entries[slot as usize], Entry::Full(value)) {
            Entry::Free(next) => self.free = next,
            Entry::Full(_) => unreachable!("free list points at a full slot"),
        }
        slot
    }

    /// Remove and return the value parked at `slot`, freeing the slot.
    ///
    /// # Panics
    /// If `slot` is vacant or was never handed out.
    pub fn take(&mut self, slot: u32) -> T {
        let entry = std::mem::replace(&mut self.entries[slot as usize], Entry::Free(self.free));
        let Entry::Full(value) = entry else { panic!("slab slot {slot} is vacant") };
        self.free = slot;
        value
    }

    /// Drop every parked value; the capacity is kept for reuse.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.free = NONE;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_returns_what_insert_parked() {
        let mut slab = Slab::default();
        let a = slab.insert("a");
        let b = slab.insert("b");
        assert_ne!(a, b);
        assert_eq!(slab.take(b), "b");
        assert_eq!(slab.take(a), "a");
    }

    #[test]
    fn freed_slots_are_reused_before_growing() {
        let mut slab = Slab::with_capacity(4);
        let slots: Vec<u32> = (0..4).map(|i| slab.insert(i)).collect();
        assert_eq!(slots, [0, 1, 2, 3]);
        slab.take(1);
        slab.take(3);
        // Most recently freed first, then the older one, then growth.
        assert_eq!(slab.insert(10), 3);
        assert_eq!(slab.insert(11), 1);
        assert_eq!(slab.insert(12), 4);
        assert_eq!(slab.take(1), 11);
    }

    #[test]
    fn clear_forgets_slots_and_free_list() {
        let mut slab = Slab::default();
        for i in 0..8 {
            slab.insert(i);
        }
        slab.take(5);
        slab.clear();
        assert_eq!(slab.insert(42), 0);
        assert_eq!(slab.take(0), 42);
    }

    #[test]
    #[should_panic(expected = "vacant")]
    fn taking_a_vacant_slot_panics() {
        let mut slab = Slab::default();
        let s = slab.insert(());
        slab.take(s);
        slab.take(s);
    }
}
