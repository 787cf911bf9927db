//! The naive linear-scan filter baseline.

use gsa_profile::ProfileExpr;
use gsa_types::{Event, ProfileId};
use std::collections::BTreeMap;
use std::fmt;

/// A filter that evaluates every registered profile against every event.
///
/// Exact same semantics as [`FilterEngine`](crate::FilterEngine), with
/// O(profiles) matching cost.
#[derive(Debug, Default)]
pub(crate) struct NaiveFilter {
    profiles: BTreeMap<ProfileId, ProfileExpr>,
}

impl NaiveFilter {
    /// Creates an empty filter.
    pub(crate) fn new() -> Self {
        NaiveFilter::default()
    }

    /// Registers (or replaces) a profile.
    pub(crate) fn insert(&mut self, id: ProfileId, expr: ProfileExpr) {
        self.profiles.insert(id, expr);
    }

    /// Removes a profile. Returns `true` when it was registered.
    pub(crate) fn remove(&mut self, id: ProfileId) -> bool {
        self.profiles.remove(&id).is_some()
    }

    /// Number of registered profiles.
    pub(crate) fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Returns `true` when no profiles are registered.
    pub(crate) fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// The profiles matching `event`, in ascending id order.
    pub(crate) fn matches(&self, event: &Event) -> Vec<ProfileId> {
        self.profiles
            .iter()
            .filter(|(_, expr)| expr.matches_event(event))
            .map(|(id, _)| *id)
            .collect()
    }
}

impl fmt::Display for NaiveFilter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "naive filter with {} profiles", self.profiles.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsa_profile::parse_profile;
    use gsa_types::{CollectionId, DocSummary, EventId, EventKind, SimTime};

    fn event(host: &str) -> Event {
        Event::new(
            EventId::new(host, 1),
            CollectionId::new(host, "C"),
            EventKind::DocumentsAdded,
            SimTime::ZERO,
        )
        .with_docs(vec![DocSummary::new("d")])
    }

    #[test]
    fn insert_match_remove() {
        let mut f = NaiveFilter::new();
        assert!(f.is_empty());
        f.insert(
            ProfileId::from_raw(1),
            parse_profile(r#"host = "London""#).unwrap(),
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f.matches(&event("London")), vec![ProfileId::from_raw(1)]);
        assert!(f.matches(&event("Paris")).is_empty());
        assert!(f.remove(ProfileId::from_raw(1)));
        assert!(!f.remove(ProfileId::from_raw(1)));
        assert!(f.matches(&event("London")).is_empty());
    }

    #[test]
    fn display() {
        let f = NaiveFilter::new();
        assert_eq!(f.to_string(), "naive filter with 0 profiles");
    }
}
