//! [`IdTable`] — the one open-addressing table of the solver crates.
//!
//! Every keyed lookup on a hot path goes through it: the online
//! engine's flow keys and live path classes, and the path classes of a
//! [`FlowIndex`](crate::FlowIndex) fill. The table stores no keys. A
//! caller keeps its entries in its own arrays under dense `u32` ids,
//! hashes a key to 64 bits itself, and hands each lookup an equality
//! closure over ids. A bucket is one `u64` word: the top half of the
//! entry's hash above its id. So a probe asks the closure only about
//! ids whose hash half matches, and growth re-places every entry from
//! its word without hashing a key again.
//!
//! The buckets are a power-of-two array probed linearly from a home
//! bucket taken from the hash's top bits, so a hash must leave its
//! best-mixed bits on top, as a multiplicative hash does. The array
//! doubles before one more entry would pass 7/8 load, so an empty
//! bucket always ends a probe, and a removal slides the rest of its
//! probe chain back over the gap (backward-shift deletion, Knuth 6.4
//! Algorithm R) instead of leaving a tombstone, so chains stay short
//! under churn. Nothing iterates the table, so no process-seeded order
//! can reach a result; this, not `HashMap`, is the keyed lookup of the
//! determinism-governed crates (the `map-iter-order` lint).
//!
//! Keys that share a home bucket and a tag make every probe walk them
//! all. So a caller whose keys come from outside keys its hash with a
//! seed the sender cannot know: the online engine XORs a seed drawn
//! once per state into each flow key before the multiply. A seed
//! changes where entries sit, never what a lookup answers, and ids
//! come from the caller, so no result depends on it.

use crate::num::{big_ix, id32};

/// The word of an empty bucket; it ends every probe. No entry has it,
/// since no id is `u32::MAX`.
const EMPTY: u64 = u64::MAX;
/// The low half of a bucket word: its id.
const ID: u64 = 0xFFFF_FFFF;
/// Buckets of the first allocation.
const MIN_CAPACITY: usize = 16;

/// An open-addressing set of `u32` ids filed under caller-supplied
/// 64-bit hashes (module docs). A default table allocates nothing until
/// the first insert.
#[derive(Debug, Clone, Default)]
pub struct IdTable {
    /// Power-of-two bucket array, or empty before the first insert.
    words: Vec<u64>,
    /// Entries held.
    len: usize,
}

/// The id a bucket word names.
#[inline]
fn id(word: u64) -> u32 {
    id32(big_ix(word & ID))
}

impl IdTable {
    /// An empty table that holds `n` entries before it first grows.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            words: vec![EMPTY; (n * 8 / 7 + 1).next_power_of_two().max(MIN_CAPACITY)],
            len: 0,
        }
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table holds no entry.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Home bucket of a hash or bucket word: its top bits. A word keeps
    /// its hash's top half, and the array never passes 2^32 buckets, so
    /// both give the same home.
    #[inline]
    fn home(&self, h: u64) -> usize {
        big_ix(h >> (64 - self.words.len().trailing_zeros()))
    }

    /// The first empty bucket at or after `i`.
    #[inline]
    fn vacant(&self, mut i: usize) -> usize {
        let mask = self.words.len() - 1;
        while self.words[i] != EMPTY {
            i = (i + 1) & mask;
        }
        i
    }

    /// The bucket of the entry filed under `h` that `eq` accepts, if
    /// any. `eq` is asked only about ids whose hash half matches `h`'s.
    fn probe(&self, h: u64, mut eq: impl FnMut(u32) -> bool) -> Option<usize> {
        if self.words.is_empty() {
            return None;
        }
        let tag = h & !ID;
        let mask = self.words.len() - 1;
        let mut i = self.home(h);
        loop {
            let word = self.words[i];
            if word == EMPTY {
                return None;
            }
            if word & !ID == tag && eq(id(word)) {
                return Some(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// The id filed under `h` that `eq` accepts, if any.
    #[inline]
    pub fn find(&self, h: u64, eq: impl FnMut(u32) -> bool) -> Option<u32> {
        self.probe(h, eq).map(|i| id(self.words[i]))
    }

    /// Files `id` under `h`. The caller keeps ids unique and below
    /// `u32::MAX`; nothing here checks that the key is new.
    pub fn insert(&mut self, h: u64, id: u32) {
        debug_assert_ne!(id, u32::MAX, "`u32::MAX` marks an empty bucket");
        self.grow_if_needed();
        let i = self.vacant(self.home(h));
        self.words[i] = (h & !ID) | u64::from(id);
        self.len += 1;
    }

    /// Removes the entry filed under `h` that `eq` accepts and returns
    /// its id, or `None` if there is none. To remove a known id, pass
    /// `|x| x == id`.
    pub fn remove(&mut self, h: u64, eq: impl FnMut(u32) -> bool) -> Option<u32> {
        let mut gap = self.probe(h, eq)?;
        let removed = id(self.words[gap]);
        self.len -= 1;
        // An entry at `j` may fill the gap iff its home does not lie
        // cyclically in `(gap, j]`, which would strand it before its
        // home.
        let mask = self.words.len() - 1;
        let mut j = (gap + 1) & mask;
        while self.words[j] != EMPTY {
            let home = self.home(self.words[j]);
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(gap) & mask) {
                self.words[gap] = self.words[j];
                gap = j;
            }
            j = (j + 1) & mask;
        }
        self.words[gap] = EMPTY;
        Some(removed)
    }

    /// Doubles the array before one more entry would pass 7/8 load,
    /// re-placing each entry from its word (and makes the first
    /// allocation).
    fn grow_if_needed(&mut self) {
        if self.words.is_empty() {
            self.words = vec![EMPTY; MIN_CAPACITY];
            return;
        }
        if (self.len + 1) * 8 < self.words.len() * 7 {
            return;
        }
        let doubled = 2 * self.words.len();
        debug_assert!(doubled.trailing_zeros() <= 32, "homes read the hash half");
        let old = std::mem::replace(&mut self.words, vec![EMPTY; doubled]);
        for word in old.into_iter().filter(|&w| w != EMPTY) {
            let i = self.vacant(self.home(word));
            self.words[i] = word;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::num::ix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    /// A table used the way its callers use it: keys in an array under
    /// dense ids, freed ids reused last-in first-out, and a `BTreeMap`
    /// as the model of what the table must answer.
    struct Keyed {
        table: IdTable,
        hash: fn(u64) -> u64,
        keys: Vec<u64>,
        free: Vec<u32>,
        model: BTreeMap<u64, u32>,
    }

    impl Keyed {
        fn new(hash: fn(u64) -> u64) -> Self {
            Self {
                table: IdTable::default(),
                hash,
                keys: Vec::new(),
                free: Vec::new(),
                model: BTreeMap::new(),
            }
        }

        fn find(&self, key: u64) -> Option<u32> {
            let keys = &self.keys;
            self.table.find((self.hash)(key), |id| keys[ix(id)] == key)
        }

        fn insert(&mut self, key: u64) {
            assert_eq!(self.find(key), None, "key {key} is new");
            let id = self.free.pop().unwrap_or_else(|| {
                self.keys.push(0);
                id32(self.keys.len() - 1)
            });
            self.keys[ix(id)] = key;
            self.table.insert((self.hash)(key), id);
            self.model.insert(key, id);
        }

        /// Removes `key` by matching the key its id holds, or by its id.
        fn remove(&mut self, key: u64, by_id: bool) {
            let h = (self.hash)(key);
            let got = match self.model.get(&key) {
                Some(&id) if by_id => self.table.remove(h, |x| x == id),
                _ => {
                    let keys = &self.keys;
                    self.table.remove(h, |id| keys[ix(id)] == key)
                }
            };
            assert_eq!(got, self.model.remove(&key), "removing key {key}");
            self.free.extend(got);
        }

        /// Every key the model holds resolves to its id, every other key
        /// below `universe` to nothing, and the counts agree.
        fn check(&self, universe: u64) {
            assert_eq!(self.table.len(), self.model.len());
            for key in 0..universe {
                assert_eq!(self.find(key), self.model.get(&key).copied(), "key {key}");
            }
        }
    }

    /// Fibonacci hashing, as the online engine hashes flow keys.
    fn fibonacci(key: u64) -> u64 {
        key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    #[test]
    fn fibonacci_keys_survive_growth_and_backward_shifts() {
        // Multiples of 64 collide in the low bits; the multiply must
        // still spread them, and every survivor must stay reachable
        // across the shifts of a removal wave after growth.
        let mut t = Keyed::new(|k| fibonacci(k * 64));
        for key in 0..512 {
            t.insert(key);
        }
        for key in (0..512).step_by(2) {
            t.remove(key, false);
        }
        t.check(512);
        t.remove(9_999_999, false);
        t.check(512);
    }

    #[test]
    fn a_presized_table_takes_its_capacity_without_growing() {
        for n in [0, 1, 13, 14, 100, 448, 449] {
            let mut t = IdTable::with_capacity(n);
            let buckets = t.words.len();
            for id in 0..id32(n) {
                t.insert(fibonacci(u64::from(id)), id);
            }
            assert_eq!(t.words.len(), buckets, "{n} entries");
            // The smallest such array: half as many buckets would grow.
            assert!(buckets == MIN_CAPACITY || n * 8 >= buckets / 2 * 7);
        }
    }

    #[test]
    fn probe_chains_wrap_past_the_last_bucket() {
        // Even keys all hash to the last bucket, whatever the capacity,
        // so their chain wraps to the front of the array, where odd
        // keys have their homes; shifts must carry entries back across
        // the wrap without stranding either kind.
        let mut t = Keyed::new(|k| {
            if k % 2 == 0 {
                u64::MAX - 1
            } else {
                fibonacci(k)
            }
        });
        for wave in 0..6u64 {
            for key in 0..96 {
                if !t.model.contains_key(&key) {
                    t.insert(key);
                }
            }
            t.check(96);
            for key in (wave % 3..96).step_by(3) {
                t.remove(key, key % 4 == 1);
                t.check(96);
            }
        }
    }

    #[test]
    fn random_waves_with_growth_midwave_match_a_btreemap() {
        let mut rng = StdRng::seed_from_u64(29);
        let mut t = Keyed::new(fibonacci);
        for wave in 0..40 {
            // Waves alternate between filling and draining, so growth
            // lands in the middle of a run of inserts and removals.
            let fill = if wave % 2 == 0 { 7 } else { 3 };
            for _ in 0..150 {
                let key = rng.gen_range(0..1_000u64);
                if t.model.contains_key(&key) || rng.gen_range(0..10) >= fill {
                    t.remove(key, rng.gen());
                } else {
                    t.insert(key);
                }
            }
            t.check(1_000);
        }
    }
}
