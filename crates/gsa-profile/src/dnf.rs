//! Normalization of profile expressions to disjunctive normal form.
//!
//! The equality-preferred matching algorithm (Fabret et al., used by the
//! paper's filter engine) indexes *conjunctions* of predicates. A macro
//! profile is therefore normalized: negations are pushed to the leaves
//! (De Morgan), then products are distributed over sums. Each resulting
//! [`Conjunction`] is a list of signed [`Literal`]s.

use crate::attr::Predicate;
use crate::expr::ProfileExpr;
use gsa_types::{DocSummary, Event};
use std::error::Error;
use std::fmt;

/// A safety cap on the number of conjunctions produced for one profile;
/// DNF can blow up exponentially on adversarial input.
pub const MAX_CONJUNCTIONS: usize = 4096;

/// A possibly-negated predicate of the expression it was normalized from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Literal<'a> {
    /// The predicate.
    pub predicate: &'a Predicate,
    /// `true` for a plain predicate, `false` for a negated one.
    pub positive: bool,
}

impl Literal<'_> {
    /// Evaluates the literal in an (event, document) context.
    pub fn matches(&self, event: &Event, doc: Option<&DocSummary>) -> bool {
        self.predicate.matches(event, doc) == self.positive
    }
}

impl fmt::Display for Literal<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.positive {
            write!(f, "{}", self.predicate)
        } else {
            write!(f, "NOT {}", self.predicate)
        }
    }
}

/// One conjunction of a DNF profile.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Conjunction<'a> {
    /// The literals, all of which must hold.
    pub literals: Vec<Literal<'a>>,
}

impl Conjunction<'_> {
    /// Evaluates the conjunction in an (event, document) context.
    pub fn matches(&self, event: &Event, doc: Option<&DocSummary>) -> bool {
        self.literals.iter().all(|l| l.matches(event, doc))
    }
}

impl fmt::Display for Conjunction<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.literals.is_empty() {
            return write!(f, "TRUE");
        }
        for (i, l) in self.literals.iter().enumerate() {
            if i > 0 {
                write!(f, " AND ")?;
            }
            write!(f, "{l}")?;
        }
        Ok(())
    }
}

/// DNF conversion failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DnfError {
    /// The expression expands to more than [`MAX_CONJUNCTIONS`]
    /// conjunctions.
    TooLarge {
        /// The number of conjunctions the expansion reached when aborted.
        reached: usize,
    },
}

impl fmt::Display for DnfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DnfError::TooLarge { reached } => write!(
                f,
                "profile expands to more than {MAX_CONJUNCTIONS} conjunctions ({reached} reached)"
            ),
        }
    }
}

impl Error for DnfError {}

/// Converts an expression to DNF. The literals borrow the expression's
/// predicates; nothing of the expression is copied.
///
/// Negations are pushed to the leaves on the way down, and an `AND`
/// multiplies the conjunctions of its children in order: each of the
/// product's conjunctions is a left one's literals followed by a right
/// one's, grouped by the left.
///
/// # Errors
///
/// Returns [`DnfError::TooLarge`] when the expansion exceeds
/// [`MAX_CONJUNCTIONS`].
pub fn to_dnf(expr: &ProfileExpr) -> Result<Vec<Conjunction<'_>>, DnfError> {
    distribute(expr, false)
}

/// `expr` under `negate` with its leading `NOT`s taken into `negate`.
fn peel(mut expr: &ProfileExpr, mut negate: bool) -> (&ProfileExpr, bool) {
    while let ProfileExpr::Not(inner) = expr {
        (expr, negate) = (inner, !negate);
    }
    (expr, negate)
}

/// The literal `expr` is under `negate`, when it is a predicate behind
/// any number of `NOT`s.
fn literal(expr: &ProfileExpr, negate: bool) -> Option<Literal<'_>> {
    match peel(expr, negate) {
        (ProfileExpr::Pred(predicate), negate) => Some(Literal {
            predicate,
            positive: !negate,
        }),
        _ => None,
    }
}

fn distribute(expr: &ProfileExpr, negate: bool) -> Result<Vec<Conjunction<'_>>, DnfError> {
    if let Some(lit) = literal(expr, negate) {
        let literals = vec![lit];
        return Ok(vec![Conjunction { literals }]);
    }
    let (children, product, negate) = match peel(expr, negate) {
        // De Morgan: under a negation an AND is a sum, an OR a product.
        (ProfileExpr::And(es), negate) => (es, !negate, negate),
        (ProfileExpr::Or(es), negate) => (es, negate, negate),
        _ => unreachable!("literal() took the predicates, peel() the NOTs"),
    };
    if !product {
        let mut out = Vec::new();
        for c in children {
            out.extend(distribute(c, negate)?);
            if out.len() > MAX_CONJUNCTIONS {
                return Err(DnfError::TooLarge { reached: out.len() });
            }
        }
        return Ok(out);
    }
    let mut acc: Vec<Conjunction<'_>> = vec![Conjunction::default()];
    for c in children {
        // A literal, or a child of one conjunction, extends every
        // conjunction in place: the product has as many as `acc`, which
        // is within the cap.
        if let Some(lit) = literal(c, negate) {
            acc.iter_mut().for_each(|a| a.literals.push(lit));
            continue;
        }
        let rhs = distribute(c, negate)?;
        if let [b] = &rhs[..] {
            acc.iter_mut()
                .for_each(|a| a.literals.extend_from_slice(&b.literals));
            continue;
        }
        let mut next = Vec::with_capacity((acc.len() * rhs.len()).min(MAX_CONJUNCTIONS + 1));
        for a in &acc {
            for b in &rhs {
                let mut literals = Vec::with_capacity(a.literals.len() + b.literals.len());
                literals.extend_from_slice(&a.literals);
                literals.extend_from_slice(&b.literals);
                next.push(Conjunction { literals });
                if next.len() > MAX_CONJUNCTIONS {
                    return Err(DnfError::TooLarge {
                        reached: next.len(),
                    });
                }
            }
        }
        acc = next;
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::ProfileAttr;
    use gsa_types::{CollectionId, DocSummary, EventId, EventKind, SimTime};
    use proptest::prelude::*;

    fn p(name: &str, value: &str) -> ProfileExpr {
        Predicate::equals(ProfileAttr::Meta(name.into()), value).into()
    }

    fn sample_event(pairs: &[(&str, &str)]) -> Event {
        let md: gsa_types::MetadataRecord = pairs.iter().copied().collect();
        Event::new(
            EventId::new("h", 1),
            CollectionId::new("h", "c"),
            EventKind::DocumentsAdded,
            SimTime::ZERO,
        )
        .with_docs(vec![DocSummary::new("d").with_metadata(md)])
    }

    /// Exhaustively checks DNF equivalence on a set of events.
    fn assert_equivalent(expr: &ProfileExpr, events: &[Event]) {
        let dnf = to_dnf(expr).unwrap();
        for e in events {
            let direct = expr.matches(e, e.docs.first());
            let via_dnf = dnf.iter().any(|c| c.matches(e, e.docs.first()));
            assert_eq!(direct, via_dnf, "expr {expr} on {e}");
        }
    }

    fn all_events() -> Vec<Event> {
        let mut out = Vec::new();
        for a in ["1", "0"] {
            for b in ["1", "0"] {
                for c in ["1", "0"] {
                    out.push(sample_event(&[("a", a), ("b", b), ("c", c)]));
                }
            }
        }
        out
    }

    fn a() -> ProfileExpr {
        p("a", "1")
    }
    fn b() -> ProfileExpr {
        p("b", "1")
    }
    fn c() -> ProfileExpr {
        p("c", "1")
    }

    #[test]
    fn simple_and_produces_one_conjunction() {
        let expr = ProfileExpr::And(vec![a(), b()]);
        let dnf = to_dnf(&expr).unwrap();
        assert_eq!(dnf.len(), 1);
        assert_eq!(dnf[0].literals.len(), 2);
        assert!(dnf[0].literals.iter().all(|l| l.positive));
    }

    #[test]
    fn or_of_ands_distributes() {
        // (a OR b) AND c == (a AND c) OR (b AND c)
        let expr = ProfileExpr::And(vec![ProfileExpr::Or(vec![a(), b()]), c()]);
        let dnf = to_dnf(&expr).unwrap();
        assert_eq!(dnf.len(), 2);
        assert_equivalent(&expr, &all_events());
    }

    #[test]
    fn de_morgan() {
        let expr = ProfileExpr::Not(Box::new(ProfileExpr::And(vec![a(), b()])));
        let dnf = to_dnf(&expr).unwrap();
        assert_eq!(dnf.len(), 2); // NOT a OR NOT b
        assert!(dnf.iter().flat_map(|c| &c.literals).all(|l| !l.positive));
        assert_equivalent(&expr, &all_events());
    }

    #[test]
    fn double_negation() {
        let expr = ProfileExpr::Not(Box::new(ProfileExpr::Not(Box::new(a()))));
        let dnf = to_dnf(&expr).unwrap();
        assert_eq!(dnf.len(), 1);
        assert!(dnf[0].literals[0].positive);
        assert_equivalent(&expr, &all_events());
    }

    #[test]
    fn random_expressions_are_equivalent() {
        let exprs = vec![
            ProfileExpr::Or(vec![
                ProfileExpr::And(vec![a(), ProfileExpr::Not(Box::new(b()))]),
                c(),
            ]),
            ProfileExpr::Not(Box::new(ProfileExpr::Or(vec![
                a(),
                ProfileExpr::And(vec![b(), c()]),
            ]))),
            ProfileExpr::And(vec![
                ProfileExpr::Or(vec![a(), b()]),
                ProfileExpr::Or(vec![b(), c()]),
                ProfileExpr::Not(Box::new(a())),
            ]),
        ];
        for expr in &exprs {
            assert_equivalent(expr, &all_events());
        }
    }

    #[test]
    fn blowup_is_capped() {
        // (a1 OR b1) AND (a2 OR b2) AND ... expands to 2^n conjunctions.
        let clause =
            |i: usize| ProfileExpr::Or(vec![p(&format!("a{i}"), "1"), p(&format!("b{i}"), "1")]);
        let expr = ProfileExpr::And((0..13).map(clause).collect());
        let err = to_dnf(&expr).unwrap_err();
        assert!(matches!(err, DnfError::TooLarge { .. }));
        assert!(err.to_string().contains("conjunctions"));
    }

    #[test]
    fn conjunction_display() {
        let expr = ProfileExpr::And(vec![a(), ProfileExpr::Not(Box::new(b()))]);
        let dnf = to_dnf(&expr).unwrap();
        assert_eq!(dnf[0].to_string(), "a = \"1\" AND NOT b = \"1\"");
        assert_eq!(Conjunction::default().to_string(), "TRUE");
    }

    /// Expressions wide enough to reach the cap: products of sums of
    /// literals, some negated whole, some summed.
    fn arb_wide() -> impl Strategy<Value = ProfileExpr> {
        let lit = (0..6usize, 0..2usize).prop_map(|(i, negated)| {
            let e = p(&format!("k{i}"), "1");
            if negated == 0 {
                e
            } else {
                ProfileExpr::Not(Box::new(e))
            }
        });
        let sum = prop::collection::vec(lit, 1..4).prop_map(ProfileExpr::Or);
        let product = prop::collection::vec(sum, 1..15).prop_map(ProfileExpr::And);
        let negated = product.clone().prop_map(|e| ProfileExpr::Not(Box::new(e)));
        let summed = prop::collection::vec(product.clone(), 1..4).prop_map(ProfileExpr::Or);
        prop_oneof![product, negated, summed]
    }

    /// The borrowed DNF as owned pairs, for comparing with the reference.
    fn owned(dnf: &[Conjunction<'_>]) -> Vec<Vec<(Predicate, bool)>> {
        let owned = |l: &Literal<'_>| (l.predicate.clone(), l.positive);
        dnf.iter()
            .map(|c| c.literals.iter().map(owned).collect())
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The borrowed DNF has the reference's conjunctions in its order,
        /// each with its literals in order, and fails where it fails with
        /// the same count reached.
        #[test]
        fn borrowed_dnf_equals_the_owned_reference(
            e in prop_oneof![crate::parse::tests::arb_expr(), arb_wide()]
        ) {
            let got = to_dnf(&e).map(|dnf| owned(&dnf));
            let want = reference::to_dnf(&e);
            prop_assert!(got == want, "{e}: {got:?} != {want:?}");
        }
    }
}

/// The first DNF conversion, which copied each predicate into owned
/// literals: the reference [`to_dnf`] must agree with, conjunctions as
/// `(predicate, positive)` lists.
#[cfg(test)]
mod reference {
    use super::{DnfError, MAX_CONJUNCTIONS};
    use crate::attr::Predicate;
    use crate::expr::ProfileExpr;

    type Conjunction = Vec<(Predicate, bool)>;

    pub(super) fn to_dnf(expr: &ProfileExpr) -> Result<Vec<Conjunction>, DnfError> {
        let nnf = push_negations(expr, false);
        distribute(&nnf)
    }

    enum Nnf {
        Lit(Predicate, bool),
        And(Vec<Nnf>),
        Or(Vec<Nnf>),
    }

    fn push_negations(expr: &ProfileExpr, negate: bool) -> Nnf {
        match expr {
            ProfileExpr::Pred(p) => Nnf::Lit(p.clone(), !negate),
            ProfileExpr::Not(e) => push_negations(e, !negate),
            ProfileExpr::And(es) => {
                let children = es.iter().map(|e| push_negations(e, negate)).collect();
                if negate {
                    Nnf::Or(children)
                } else {
                    Nnf::And(children)
                }
            }
            ProfileExpr::Or(es) => {
                let children = es.iter().map(|e| push_negations(e, negate)).collect();
                if negate {
                    Nnf::And(children)
                } else {
                    Nnf::Or(children)
                }
            }
        }
    }

    fn distribute(nnf: &Nnf) -> Result<Vec<Conjunction>, DnfError> {
        match nnf {
            Nnf::Lit(p, positive) => Ok(vec![vec![(p.clone(), *positive)]]),
            Nnf::Or(children) => {
                let mut out = Vec::new();
                for c in children {
                    out.extend(distribute(c)?);
                    if out.len() > MAX_CONJUNCTIONS {
                        return Err(DnfError::TooLarge { reached: out.len() });
                    }
                }
                Ok(out)
            }
            Nnf::And(children) => {
                let mut acc: Vec<Conjunction> = vec![Vec::new()];
                for c in children {
                    let rhs = distribute(c)?;
                    let mut next = Vec::with_capacity(acc.len() * rhs.len());
                    for a in &acc {
                        for b in &rhs {
                            let mut lits = a.clone();
                            lits.extend(b.iter().cloned());
                            next.push(lits);
                            if next.len() > MAX_CONJUNCTIONS {
                                return Err(DnfError::TooLarge {
                                    reached: next.len(),
                                });
                            }
                        }
                    }
                    acc = next;
                }
                Ok(acc)
            }
        }
    }
}
