//! Posting lists: access key → the conjunctions posted under it.
//!
//! Most keys of a large population have exactly one conjunction (a
//! million cold profiles are a million lists of one), so a list of one
//! lives in the map entry itself. A second conjunction moves the list to
//! a row of a slab; back at one it returns to the entry, and the row —
//! with the capacity it grew — waits for the next list that spills.

use crate::intern::Symbol;
use gsa_types::FxHashMap;
use std::collections::hash_map::Entry;

/// An interned `(attribute, value)` pair: what the index is keyed by and
/// what a matching context is made of.
pub(crate) type Key = (Symbol, Symbol);

/// Set in a map entry that names a slab row, clear in one that *is* the
/// list's only conjunction id — so ids stay below 2³¹.
const SPILL: u32 = 1 << 31;

/// Access key → the conjunction ids posted under it, in no set order.
#[derive(Debug, Default)]
pub(crate) struct Postings {
    map: FxHashMap<Key, u32>,
    /// Lists of two or more; an unused row is empty and in `free_rows`.
    rows: Vec<Vec<u32>>,
    free_rows: Vec<u32>,
}

impl Postings {
    /// Distinct keys with something posted.
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Adds `ci` — below 2³¹, and not yet in it — to `key`'s list.
    pub(crate) fn post(&mut self, key: Key, ci: u32) {
        assert!(ci & SPILL == 0, "conjunction id overflow");
        let mut entry = match self.map.entry(key) {
            Entry::Vacant(vacant) => {
                vacant.insert(ci);
                return;
            }
            Entry::Occupied(entry) => entry,
        };
        let held = *entry.get();
        if held & SPILL != 0 {
            return self.rows[(held ^ SPILL) as usize].push(ci);
        }
        let row = self.free_rows.pop().unwrap_or_else(|| {
            self.rows.push(Vec::new());
            u32::try_from(self.rows.len() - 1).expect("a row per key, keys fit")
        });
        assert!(row & SPILL == 0, "posting row overflow");
        self.rows[row as usize].extend([held, ci]);
        entry.insert(SPILL | row);
    }

    /// Takes `ci` out of `key`'s list, if it is in it.
    pub(crate) fn unpost(&mut self, key: Key, ci: u32) {
        let Entry::Occupied(mut entry) = self.map.entry(key) else {
            return;
        };
        let held = *entry.get();
        if held & SPILL == 0 {
            if held == ci {
                entry.remove();
            }
            return;
        }
        let row = held ^ SPILL;
        let list = &mut self.rows[row as usize];
        if let Some(at) = list.iter().position(|&c| c == ci) {
            list.swap_remove(at);
        }
        if let [last] = list[..] {
            entry.insert(last);
            list.clear();
            self.free_rows.push(row);
        }
    }

    /// The conjunctions posted under `key`.
    #[inline]
    pub(crate) fn list(&self, key: Key) -> &[u32] {
        match self.map.get(&key) {
            None => &[],
            Some(held) if held & SPILL == 0 => std::slice::from_ref(held),
            Some(held) => &self.rows[(held ^ SPILL) as usize],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeSet, HashMap};

    fn key(raw: u32) -> Key {
        (Symbol::from_raw(raw % 3), Symbol::from_raw(raw))
    }

    #[test]
    fn a_list_spills_at_two_and_returns_to_the_entry_at_one() {
        let mut postings = Postings::default();
        postings.post(key(1), 7);
        assert_eq!(postings.list(key(1)), [7]);
        assert!(postings.rows.is_empty(), "a list of one needs no row");
        postings.post(key(1), 8);
        postings.post(key(1), 9);
        assert_eq!(postings.list(key(1)).len(), 3);
        postings.unpost(key(1), 7);
        postings.unpost(key(1), 7);
        assert_eq!(postings.list(key(1)).len(), 2);
        postings.unpost(key(1), 9);
        assert_eq!(postings.list(key(1)), [8]);
        assert_eq!(postings.free_rows, [0]);
        // The next list to spill takes the row over.
        postings.post(key(2), 1);
        postings.post(key(2), 2);
        assert_eq!((postings.rows.len(), postings.free_rows.len()), (1, 0));
        postings.unpost(key(1), 8);
        assert_eq!((postings.len(), postings.list(key(1)).len()), (1, 0));
    }

    #[test]
    #[should_panic(expected = "conjunction id overflow")]
    fn an_id_with_the_spill_bit_is_refused() {
        Postings::default().post(key(0), SPILL);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Against `HashMap<Key, Vec<u32>>` under random posts and
        /// unposts over few keys and few ids, so lists go inline →
        /// spilled → inline over and over, rows are reused, and ids that
        /// are not in a list (or whose key has none) are removed too.
        #[test]
        fn postings_are_the_map_of_lists_they_replace(
            ops in prop::collection::vec((0u32..2, 0u32..6, 0u32..8), 1..200),
        ) {
            let mut postings = Postings::default();
            let mut model: HashMap<Key, Vec<u32>> = HashMap::new();
            let mut most_spilled = 0;
            for (post, k, ci) in ops {
                let list = model.entry(key(k)).or_default();
                let posted = list.contains(&ci);
                let post = post == 1;
                if post && !posted {
                    // The engine posts a conjunction once per key.
                    list.push(ci);
                    postings.post(key(k), ci);
                } else if !post {
                    list.retain(|&c| c != ci);
                    postings.unpost(key(k), ci);
                }
                model.retain(|_, list| !list.is_empty());

                prop_assert_eq!(postings.len(), model.len());
                prop_assert_eq!(postings.is_empty(), model.is_empty());
                for k in 0..6 {
                    let expected = model.get(&key(k)).map_or(&[][..], Vec::as_slice);
                    let got = postings.list(key(k));
                    // Same length and same set: no id twice.
                    prop_assert_eq!(got.len(), expected.len());
                    let as_set = |list: &[u32]| list.iter().copied().collect::<BTreeSet<u32>>();
                    prop_assert_eq!(as_set(got), as_set(expected));
                }
                // A row is in use exactly while its list has two or more,
                // and none is made while a free one waits.
                let spilled = model.values().filter(|list| list.len() > 1).count();
                most_spilled = most_spilled.max(spilled);
                prop_assert_eq!(postings.rows.len() - postings.free_rows.len(), spilled);
                prop_assert_eq!(postings.rows.len(), most_spilled);
            }
        }
    }
}
