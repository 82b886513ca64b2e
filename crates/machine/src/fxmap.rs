//! The open-addressed `u64 → u64` table that [`crate::LruCache`]'s line
//! index and the [`crate::StackDistance`] engine's address renamer share:
//! Fibonacci-hashed linear probing with backward-shift deletion, key and
//! value packed in one 16-byte slot so a probe step touches one cache
//! line. Entry-style: [`FxMap::find`] returns the key's slot or the slot
//! it would be inserted into, so a miss costs one probe sequence.
//!
//! The multiplier scatters aligned blocks of `2^BLOCK_BITS` keys; inside
//! its block a key keeps its low bits, rotated by a per-block amount.
//! The renamer hashes 32-key blocks, so sequential addresses — the common
//! shape of a kernel's trace — probe ascending neighbouring slots instead
//! of missing the cache once per key, while the rotation keeps strided
//! keys from piling onto one offset of every block. [`crate::LruCache`]
//! keeps per-key hashing (`BLOCK_BITS = 0`): its keys churn, and evicting
//! from block-sized clusters lengthens its probes.

/// Vacant-slot marker: no stored value ever equals `u64::MAX` (node
/// indices and dense ids are bounded by memory), so a `0` key needs no
/// special casing.
const VACANT: u64 = u64::MAX;

#[derive(Debug, Clone, Copy)]
struct FxSlot {
    key: u64,
    val: u64,
}

/// The table. Callers keep the load at or below one half:
/// [`crate::LruCache`] sizes it once for its capacity, and the
/// insert-only renamer calls [`FxMap::grow_past_half`] as it fills.
#[derive(Debug, Clone)]
pub(crate) struct FxMap<const BLOCK_BITS: u32 = 0> {
    slots: Vec<FxSlot>,
    mask: usize,
    shift: u32,
}

impl<const BLOCK_BITS: u32> FxMap<BLOCK_BITS> {
    /// A table sized for `entries` live keys at ≤ 50% load.
    pub(crate) fn with_capacity(entries: usize) -> Self {
        let size = (entries.max(1) * 2).next_power_of_two().max(8);
        FxMap {
            slots: vec![FxSlot { key: 0, val: VACANT }; size],
            mask: size - 1,
            shift: u64::BITS - size.trailing_zeros(),
        }
    }

    #[inline]
    fn ideal(&self, key: u64) -> usize {
        // Fibonacci hashing of the key's block: the golden-ratio
        // multiplier diffuses the low bits that dense ids vary in into
        // the table's high bits. The key's low bits, rotated by middle
        // bits of the product, are its offset in the block.
        let low = (1usize << BLOCK_BITS) - 1;
        let h = (key >> BLOCK_BITS).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let block = (h >> self.shift) as usize;
        let offset = key.wrapping_add(h >> 32) as usize & low;
        (block & !low | offset) & self.mask
    }

    /// The slot holding `key` (`Ok`) or the slot where it would be
    /// inserted (`Err`) — the entry-API primitive every caller shares.
    #[inline]
    pub(crate) fn find(&self, key: u64) -> Result<usize, usize> {
        let mut pos = self.ideal(key);
        loop {
            let slot = self.slots[pos];
            if slot.val == VACANT {
                return Err(pos);
            }
            if slot.key == key {
                return Ok(pos);
            }
            pos = (pos + 1) & self.mask;
        }
    }

    /// The value stored at a slot returned by [`FxMap::find`]'s `Ok` arm.
    #[inline]
    pub(crate) fn val_at(&self, pos: usize) -> u64 {
        self.slots[pos].val
    }

    /// Fills a slot previously returned by [`FxMap::find`]'s `Err` arm.
    #[inline]
    pub(crate) fn insert_at(&mut self, pos: usize, key: u64, val: u64) {
        debug_assert_eq!(self.slots[pos].val, VACANT, "insert into occupied slot");
        debug_assert_ne!(val, VACANT, "the vacancy marker is not a value");
        self.slots[pos] = FxSlot { key, val };
    }

    /// Rehashes every entry into twice the slots once `len` entries fill
    /// more than half of them: an insert-only table stays at or below
    /// 50% load. Slot positions from earlier [`FxMap::find`] calls are
    /// stale afterwards.
    pub(crate) fn grow_past_half(&mut self, len: usize) {
        if 2 * len <= self.slots.len() {
            return;
        }
        let old = std::mem::take(&mut self.slots);
        *self = FxMap::with_capacity(old.len());
        for slot in old.into_iter().filter(|s| s.val != VACANT) {
            let Err(pos) = self.find(slot.key) else {
                unreachable!("keys are unique")
            };
            self.slots[pos] = slot;
        }
    }

    /// Every `(key, value)` entry, in slot order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.slots
            .iter()
            .filter(|s| s.val != VACANT)
            .map(|s| (s.key, s.val))
    }

    /// Bytes the slot array holds allocated.
    pub(crate) fn resident_bytes(&self) -> u64 {
        (self.slots.capacity() * std::mem::size_of::<FxSlot>()) as u64
    }

    /// Removes `key` (if present) with backward-shift deletion: no
    /// tombstones, so probe lengths never degrade under churn.
    pub(crate) fn remove(&mut self, key: u64) {
        let Ok(mut hole) = self.find(key) else {
            return;
        };
        let mut probe = hole;
        loop {
            probe = (probe + 1) & self.mask;
            let slot = self.slots[probe];
            if slot.val == VACANT {
                break;
            }
            let home = self.ideal(slot.key);
            // `probe`'s entry may slide back into the hole only if its home
            // slot is cyclically outside (hole, probe] — otherwise a lookup
            // starting at `home` would never reach the hole.
            let home_in_gap = if hole <= probe {
                hole < home && home <= probe
            } else {
                home <= probe || home > hole
            };
            if !home_in_gap {
                self.slots[hole] = slot;
                hole = probe;
            }
        }
        self.slots[hole].val = VACANT;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn growth_keeps_every_entry_at_or_below_half_load() {
        // Both ends of the key range, strides of 2^40 and a dense run.
        let keys: Vec<u64> = [0u64, u64::MAX, u64::MAX - 1]
            .into_iter()
            .chain((1..2000).map(|k| k << 40))
            .chain(1..2000)
            .collect();
        let mut map = FxMap::<5>::with_capacity(0);
        for (i, &k) in keys.iter().enumerate() {
            let Err(pos) = map.find(k) else {
                panic!("key {k} is new")
            };
            map.insert_at(pos, k, i as u64);
            map.grow_past_half(i + 1);
            assert!(2 * (i + 1) <= map.slots.len());
        }
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(map.find(k).map(|pos| map.val_at(pos)), Ok(i as u64));
        }
        let mut entries: Vec<(u64, u64)> = map.entries().map(|(k, v)| (v, k)).collect();
        entries.sort_unstable();
        assert!(entries.into_iter().map(|(_, k)| k).eq(keys.iter().copied()));
    }

    /// Sequential and strided keys share probe runs; deletes every third
    /// key and checks the rest by lookup.
    fn check_removal<const BLOCK_BITS: u32>() {
        let keys: Vec<u64> = (0..64u64).chain((8..72).map(|k| k << 3)).collect();
        let mut map = FxMap::<BLOCK_BITS>::with_capacity(keys.len());
        for (i, &k) in keys.iter().enumerate() {
            let Err(pos) = map.find(k) else {
                panic!("key {k} is new")
            };
            map.insert_at(pos, k, i as u64);
        }
        for &k in keys.iter().step_by(3) {
            map.remove(k);
        }
        for (i, &k) in keys.iter().enumerate() {
            match map.find(k) {
                Ok(pos) => {
                    assert_ne!(i % 3, 0, "key {k} survived its removal");
                    assert_eq!(map.val_at(pos), i as u64);
                }
                Err(_) => assert_eq!(i % 3, 0, "key {k} lost"),
            }
        }
    }

    #[test]
    fn removal_keeps_every_other_key_reachable() {
        check_removal::<0>();
        check_removal::<5>();
    }
}
