//! Duplicate-suppression memory, run-length coded.
//!
//! A publisher numbers its messages 0, 1, 2, …, and a flood that loses
//! nothing delivers them to every node in that order. Remembering each
//! `(origin, id)` pair separately therefore stores a million entries to
//! say "everything up to a million". [`SeenIds`] keeps, per origin, the
//! sorted disjoint runs of ids seen so far: one run per origin while
//! nothing is lost, one more for every gap, and a gap closes again when
//! the missing id arrives late.
//!
//! It answers exactly what a set of pairs answers — `insert` returns
//! whether the pair is new — for every arrival order: an id is in some
//! run iff it was inserted, because `insert` only ever adds the one id
//! it was given (extending a run by its neighbour, bridging two runs
//! across the one id between them, or starting a run of one).
//!
//! A flooded frame carries consecutive ids of one origin, so the memory
//! also keeps the slot of the origin it saw last: a run of items from
//! one publisher costs one hash lookup, not one per item.

use gsa_types::{FxHashMap, HostName};

/// Inclusive `lo..=hi`; a run list is sorted with at least one missing
/// id between neighbours.
type Run = (u64, u64);

/// A set of `(origin, id)` pairs: what a node or client has accepted,
/// or any other memory of ids that ascend per origin.
#[derive(Debug, Default)]
pub struct SeenIds {
    /// Each origin's slot in `runs`.
    slots: FxHashMap<HostName, usize>,
    runs: Vec<Vec<Run>>,
    /// The origin inserted last and its slot.
    last: Option<(HostName, usize)>,
    len: usize,
}

impl SeenIds {
    /// Records `(origin, id)`; `true` when it was not there before.
    pub fn insert(&mut self, origin: &HostName, id: u64) -> bool {
        let slot = match &self.last {
            Some((last, slot)) if last == origin => *slot,
            _ => self.slot(origin),
        };
        let new = insert_id(&mut self.runs[slot], id);
        self.len += usize::from(new);
        new
    }

    /// `origin`'s slot, made on its first id; remembered as the last.
    fn slot(&mut self, origin: &HostName) -> usize {
        let slot = match self.slots.get(origin) {
            Some(&slot) => slot,
            None => {
                self.slots.insert(origin.clone(), self.runs.len());
                self.runs.push(Vec::new());
                self.runs.len() - 1
            }
        };
        self.last = Some((origin.clone(), slot));
        slot
    }

    /// Distinct pairs recorded.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Runs held across all origins: the memory actually used.
    pub fn runs(&self) -> usize {
        self.runs.iter().map(Vec::len).sum()
    }
}

fn insert_id(runs: &mut Vec<Run>, id: u64) -> bool {
    // In-order arrival: the id lies past everything seen.
    match runs.last_mut() {
        None => {
            runs.push((id, id));
            return true;
        }
        Some(last) if id > last.1 => {
            if id - last.1 == 1 {
                last.1 = id;
            } else {
                runs.push((id, id));
            }
            return true;
        }
        Some(_) => {}
    }
    // Late or repeated: `next` is the first run ending at or after `id`
    // (the last run does, so it exists).
    let next = runs.partition_point(|run| run.1 < id);
    if runs[next].0 <= id {
        return false;
    }
    // `id` falls in the gap before `next`; differences cannot overflow
    // because the gap's neighbours lie strictly on either side.
    let joins_next = runs[next].0 - id == 1;
    let joins_prev = next > 0 && id - runs[next - 1].1 == 1;
    match (joins_prev, joins_next) {
        (true, true) => {
            runs[next - 1].1 = runs[next].1;
            runs.remove(next);
        }
        (true, false) => runs[next - 1].1 = id,
        (false, true) => runs[next].0 = id,
        (false, false) => runs.insert(next, (id, id)),
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn host(i: usize) -> HostName {
        HostName::new(["Hamilton", "London", "Paris", "Berlin"][i])
    }

    /// Feeds the stream to both memories and holds every answer, the
    /// count and the run bound to the reference.
    fn check_against_set(stream: &[(usize, u64)]) {
        let mut seen = SeenIds::default();
        let mut reference: HashSet<(HostName, u64)> = HashSet::new();
        for &(origin, id) in stream {
            let origin = host(origin);
            assert_eq!(
                seen.insert(&origin, id),
                reference.insert((origin.clone(), id)),
                "insert({origin}, {id})"
            );
            assert_eq!(seen.len(), reference.len());
        }
        for runs in &seen.runs {
            for pair in runs.windows(2) {
                assert!(pair[0].0 <= pair[0].1, "run is ordered");
                assert!(
                    pair[1].0 - pair[0].1 >= 2,
                    "runs are disjoint and not adjacent"
                );
            }
        }
        // Per origin: never more runs than ids still missing between the
        // smallest and largest seen, plus one.
        for (origin, &slot) in &seen.slots {
            let runs = &seen.runs[slot];
            let ids: Vec<u64> = reference
                .iter()
                .filter(|(o, _)| o == origin)
                .map(|(_, id)| *id)
                .collect();
            let (lo, hi) = (ids.iter().min().unwrap(), ids.iter().max().unwrap());
            let missing = u128::from(hi - lo) + 1 - ids.len() as u128;
            assert!(runs.len() as u128 <= missing + 1, "{origin}: {runs:?}");
        }
    }

    /// Small ids so streams collide, land adjacent and leave gaps, plus
    /// both ends of the id space.
    fn id() -> impl Strategy<Value = u64> {
        prop_oneof![
            0u64..40,
            0u64..40,
            0u64..40,
            Just(0u64),
            Just(u64::MAX),
            (u64::MAX - 4)..=u64::MAX,
        ]
    }

    /// How many consecutive ids one draw puts out: mostly one, often a
    /// burst as a flooded frame carries them, so the remembered last
    /// origin is hit, missed and switched.
    fn burst() -> impl Strategy<Value = u64> {
        prop_oneof![Just(1u64), Just(1u64), 2u64..8, 8u64..20]
    }

    proptest! {
        #[test]
        fn answers_like_a_hash_set_in_any_order(
            origins in 1usize..=4,
            ids in prop::collection::vec(id(), 0..120),
            picks in prop::collection::vec(0usize..4, 120..121),
            bursts in prop::collection::vec(burst(), 120..121),
            order in 0u8..4,
            swaps in prop::collection::vec((0usize..120, 0usize..120), 0..120),
        ) {
            // Each draw is a burst of consecutive ids of one origin, as a
            // frame carries them. In order, reversed, shuffled; duplicates
            // and gaps come from the id generator itself.
            let mut stream: Vec<(usize, u64)> = ids
                .iter()
                .zip(&picks)
                .zip(&bursts)
                .flat_map(|((&id, o), &n)| {
                    (0..n).map_while(move |k| id.checked_add(k)).map(move |id| (o % origins, id))
                })
                .collect();
            match order {
                0 => stream.sort_by_key(|(_, id)| *id),
                1 => stream.sort_by_key(|(_, id)| std::cmp::Reverse(*id)),
                2 => {
                    for (a, b) in swaps {
                        if a < stream.len() && b < stream.len() {
                            stream.swap(a, b);
                        }
                    }
                }
                _ => {}
            }
            check_against_set(&stream);
        }
    }

    #[test]
    fn in_order_streams_stay_one_run_per_origin() {
        let mut seen = SeenIds::default();
        for id in 0..10_000u64 {
            for origin in 0..3 {
                assert!(seen.insert(&host(origin), id));
            }
        }
        assert_eq!(seen.len(), 30_000);
        assert_eq!(seen.runs(), 3);
        assert!(!seen.insert(&host(1), 4_321));
    }

    #[test]
    fn a_late_id_closes_its_gap() {
        let mut seen = SeenIds::default();
        let h = host(0);
        for id in [0, 1, 3, 4, 6] {
            assert!(seen.insert(&h, id));
        }
        assert_eq!(seen.runs(), 3);
        assert!(seen.insert(&h, 2), "bridges 0..=1 and 3..=4");
        assert_eq!(seen.runs(), 2);
        assert!(seen.insert(&h, 5), "bridges 0..=4 and 6..=6");
        assert_eq!(seen.runs(), 1);
        assert_eq!(seen.len(), 7);
        assert!(!seen.insert(&h, 0) && !seen.insert(&h, 6));
    }

    #[test]
    fn the_ends_of_the_id_space_do_not_overflow() {
        let mut seen = SeenIds::default();
        let h = host(0);
        assert!(seen.insert(&h, u64::MAX));
        assert!(seen.insert(&h, 0));
        assert!(
            seen.insert(&h, u64::MAX - 1),
            "extends the top run downward"
        );
        assert!(seen.insert(&h, 1));
        assert!(!seen.insert(&h, u64::MAX) && !seen.insert(&h, 0));
        assert_eq!((seen.len(), seen.runs()), (4, 2));
    }
}
