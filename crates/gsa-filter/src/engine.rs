//! The equality-preferred matching engine, access-predicate clustering
//! variant.
//!
//! Every DNF conjunction is posted under exactly **one** *access key* —
//! an interned `(attribute, value)` pair that any context satisfying the
//! conjunction must carry. Matching builds the small set of pairs an
//! (event, document) context carries, walks the posting list of each, and
//! verifies the *rest* of every conjunction found there: other equality
//! literals by membership in the pair set, everything else (wildcards,
//! filter queries, negations) by evaluation. Three kinds of key share the
//! one index:
//!
//! * **equality** — a positive `attr = v` / `attr in [..]` literal, under
//!   each of its values;
//! * **token** — a required term of a positive `text ? (query)`, under a
//!   reserved attribute symbol; a context carries one pair per excerpt
//!   token some profile mentions;
//! * **gram** — one window of the longest ASCII literal segment of a
//!   positive wildcard, as wide as the segment allows (8 bytes, else 4,
//!   else 3), under a reserved symbol per attribute and width; a context
//!   carries the case-folded windows of that width of the attribute's
//!   values. A window of up to 4 bytes is packed exactly, an 8-byte one
//!   hashed to 32 bits.
//!
//! An equality key, and the token key of a one-term `text ? (t)` (walked
//! exactly when `t` is among the context's tokens), decide their literal,
//! which is not verified again. Any other token key, and every gram key,
//! is only *necessary* for its literal, which is therefore still
//! verified. A conjunction with no usable key is scanned in every
//! context. The literal with the shortest posting lists at insert time
//! gives access, so which one it is depends on insertion order; the
//! match result does not, because every other literal is checked
//! whichever one it was.
//!
//! Before any context is built an event is held to its envelope: while
//! every live conjunction carries a positive equality on `host`,
//! `collection` or `kind`, an event none of whose three pairs is named by
//! one — as an access key or as a counted residual — matches nothing and
//! returns before a document is read (DESIGN.md §4, "Envelope gate").
//!
//! Matching state lives in a caller-owned [`MatchScratch`]; with warm
//! buffers neither the equality path nor an excerpt's tokens (a
//! [`TokenSet`]: spans over one reused buffer) allocate anything. The
//! engine reports *which* documents satisfied each profile
//! ([`DocMatch`]), so building a notification never evaluates the
//! expression again.

use crate::intern::{Symbol, SymbolTable};
use crate::postings::{Key, Postings};
use gsa_profile::{AttrValue, Literal, Predicate, ProfileAttr, ProfileExpr, Wildcard};
use gsa_store::{Query, TokenSet};
use gsa_types::{DocSummary, Event, FxHashMap, ProfileId};
use gsa_wire::probe::EventProbe;
use gsa_wire::WireError;
use std::collections::hash_map::Entry;
use std::collections::BTreeSet;
use std::fmt;
use std::fmt::Write as _;

/// One profile matched through one document of the event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DocMatch {
    /// The matching profile.
    pub profile: ProfileId,
    /// Index into `event.docs` of a document that satisfies the profile;
    /// `None` only for an event without documents, matched on its
    /// envelope alone.
    pub doc: Option<u32>,
}

/// Writes the distinct profiles of a sorted [`DocMatch`] run to `out`.
pub fn profile_ids(hits: &[DocMatch], out: &mut Vec<ProfileId>) {
    out.clear();
    out.extend(hits.iter().map(|hit| hit.profile));
    out.dedup();
}

/// A positive equality or ID-list literal over interned symbols. It holds
/// in a context exactly when one of its pairs is among the context's.
#[derive(Debug)]
enum EqLit {
    One(Key),
    Any(Symbol, Box<[Symbol]>),
}

impl EqLit {
    fn each_key(&self, mut visit: impl FnMut(Key)) {
        match self {
            EqLit::One(key) => visit(*key),
            EqLit::Any(attr, values) => values.iter().for_each(|&v| visit((*attr, v))),
        }
    }

    fn attr(&self) -> Symbol {
        match self {
            EqLit::One((attr, _)) | EqLit::Any(attr, _) => *attr,
        }
    }

    fn holds(&self, pairs: &[Key]) -> bool {
        match self {
            EqLit::One(key) => pairs.contains(key),
            EqLit::Any(attr, values) => values.iter().any(|&v| pairs.contains(&(*attr, v))),
        }
    }
}

/// Where a conjunction is posted.
#[derive(Debug)]
enum Access {
    /// No usable key: visited in every context.
    Scan,
    /// Under each pair of an equality literal, which the key fully
    /// decides — the literal is not verified again.
    Eq(EqLit),
    /// Under a required term of a filter query, which the key decides
    /// when it is the whole query. The probe sees no tokens.
    Token(Key),
    /// Under a window of a wildcard segment (see [`gram_segment`]). The
    /// probe sees no grams.
    Gram(Key),
}

/// A literal verified on the conjunctions an access key turns up.
#[derive(Debug)]
enum Lit {
    Eq(EqLit),
    /// `text ? (query)` — evaluated against the per-context token cache,
    /// so the excerpt is tokenized once per (event, document) context no
    /// matter how many profiles carry filter queries.
    TextQuery { query: Query, positive: bool },
    /// Anything else, evaluated through the generic predicate path.
    General {
        predicate: Box<Predicate>,
        positive: bool,
    },
}

impl Lit {
    /// The residual `lit` compiles to: the one place a literal's
    /// predicate is copied out of the profile expression.
    fn residual(lit: &Literal<'_>) -> Lit {
        let positive = lit.positive;
        match lit.predicate {
            Predicate {
                attr: ProfileAttr::Text,
                value: AttrValue::Matches(query),
            } => Lit::TextQuery {
                query: query.clone(),
                positive,
            },
            predicate => Lit::General {
                predicate: Box::new(predicate.clone()),
                positive,
            },
        }
    }

    fn holds(
        &self,
        event: &Event,
        doc: Option<&DocSummary>,
        pairs: &[Key],
        tokens: &mut TokenCache,
    ) -> bool {
        match self {
            Lit::Eq(eq) => eq.holds(pairs),
            Lit::TextQuery { query, positive } => {
                doc.is_some_and(|d| query.matches_tokens(tokens.get(&d.excerpt))) == *positive
            }
            Lit::General {
                predicate,
                positive,
            } => predicate.matches(event, doc) == *positive,
        }
    }
}

/// Whether the literal is a positive equality: one the index can key and
/// a context's pair set can decide. Equality on the excerpt text is never
/// what a profile means and text is not enumerated as a pair; such
/// predicates are evaluated like any other residual.
pub(crate) fn is_equality(lit: &Literal<'_>) -> bool {
    lit.positive
        && lit.predicate.attr != ProfileAttr::Text
        && matches!(
            lit.predicate.value,
            AttrValue::Equals(_) | AttrValue::OneOf(_)
        )
}

/// The widths a gram key can have, widest first.
const GRAM_WIDTHS: [usize; 3] = [8, 4, 3];

/// What a wildcard may be keyed on: its longest ASCII literal segment,
/// when that has at least three bytes, and the widest of [`GRAM_WIDTHS`]
/// it holds. Any window of the segment is then a byte-exact substring of
/// every lowercased value the pattern matches, and the wider the window,
/// the fewer values carry it.
fn gram_segment(pattern: &Wildcard) -> Option<(&str, usize)> {
    let segment = pattern
        .segments()
        .filter(|seg| seg.is_ascii())
        .max_by_key(|seg| seg.len())?;
    let width = GRAM_WIDTHS.into_iter().find(|&w| segment.len() >= w)?;
    Some((segment, width))
}

/// A `width`-byte window, held in the low bytes of `bits`, as the value
/// half of a gram key: the bytes themselves up to four, folded to 32 bits
/// by a multiply-shift hash at eight. A collision only makes another
/// candidate, which is verified like every gram candidate.
fn pack_gram(bits: u64, width: usize) -> Symbol {
    let raw = if width <= 4 {
        bits
    } else {
        bits.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32
    };
    Symbol::from_raw(u32::try_from(raw).expect("a packed gram has 32 bits"))
}

/// Visits the case-folded `width`-byte windows of `value`, folded the way
/// [`Wildcard::matches`] folds it: bytewise for ASCII, through
/// `to_lowercase` (which can turn non-ASCII into ASCII) otherwise. The
/// window slides through one register, so an ASCII value allocates
/// nothing. A pattern segment is lowercase already: its windows are the
/// keys the same windows of a value look up.
fn each_gram(value: &str, width: usize, mut visit: impl FnMut(Symbol)) {
    let folded;
    let bytes = if value.is_ascii() {
        value.as_bytes()
    } else {
        folded = value.to_lowercase();
        folded.as_bytes()
    };
    let kept = u64::MAX >> (64 - 8 * width);
    let mut bits = 0;
    for (at, &byte) in bytes.iter().enumerate() {
        bits = (bits << 8 | u64::from(byte.to_ascii_lowercase())) & kept;
        if at + 1 >= width {
            visit(pack_gram(bits, width));
        }
    }
}

/// How much shorter a token or gram list must be than the best equality
/// list to be taken instead. A live token or gram key makes every
/// document of every event pay for tokenizing or for enumerating
/// windows — roughly what verifying this many candidates costs — which
/// only pays off once the equality lists have grown that long (or the
/// conjunction has no equality to be keyed on).
const DERIVED_KEY_HANDICAP: usize = 16;

/// Lazily tokenized excerpt of the current matching context. Built at
/// most once per (event, document) context, shared by the token keys and
/// every filter-query literal verified in that context.
#[derive(Debug, Default)]
struct TokenCache {
    tokens: TokenSet,
    valid: bool,
}

impl TokenCache {
    fn reset(&mut self) {
        self.valid = false;
    }

    fn get(&mut self, excerpt: &str) -> &TokenSet {
        if !self.valid {
            self.tokens.fill(excerpt);
            self.valid = true;
        }
        &self.tokens
    }
}

#[derive(Debug)]
struct ConjEntry {
    /// The owning profile's row of `FilterEngine::slots`: where a match
    /// reads the profile id, and what stamps a (profile, document) pair
    /// as reported without hashing profile ids.
    pslot: u32,
    access: Access,
    /// Everything but a literal the access key decides, equality checks
    /// first. Exactly sized; empty (and unallocated) for a single
    /// equality or a single one-term text query.
    lits: Box<[Lit]>,
}

/// A profile's conjunction ids; a single one needs no block.
#[derive(Debug)]
enum Conjs {
    One(u32),
    Many(Box<[u32]>),
}

impl Conjs {
    fn as_slice(&self) -> &[u32] {
        match self {
            Conjs::One(ci) => std::slice::from_ref(ci),
            Conjs::Many(cis) => cis,
        }
    }
}

/// One row of the dense per-profile table.
#[derive(Debug)]
struct ProfileSlot {
    id: ProfileId,
    conjs: Conjs,
}

/// An attribute and window width some wildcard was gram-keyed on.
#[derive(Debug)]
struct GramAttr {
    attr: ProfileAttr,
    /// One of [`GRAM_WIDTHS`].
    width: usize,
    /// The reserved symbol its grams of this width are posted under.
    sym: Symbol,
    /// Live gram keys; contexts skip the attribute at zero.
    live: usize,
}

/// Statistics about the engine's index structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FilterStats {
    /// Registered profiles.
    pub profiles: usize,
    /// Live conjunctions.
    pub conjunctions: usize,
    /// Conjunctions reachable only by scanning (no usable access key).
    pub scan_conjunctions: usize,
    /// Distinct access keys: the equality pairs, tokens and grams some
    /// conjunction is posted under. An equality pair that is only ever
    /// verified (another literal of its conjunction gave access) is not
    /// counted.
    pub index_entries: usize,
    /// Rows of the per-profile table, freed ones awaiting reuse included.
    pub profile_slots: usize,
    /// Rows of the conjunction table, freed ones included.
    pub conjunction_slots: usize,
    /// Symbols ever interned or reserved.
    pub symbols: usize,
}

impl fmt::Display for FilterStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} profiles, {} conjunctions ({} scan-only), {} index entries",
            self.profiles, self.conjunctions, self.scan_conjunctions, self.index_entries
        )
    }
}

/// Reusable per-thread matching state.
///
/// The per-profile slots are *generation-stamped*: advancing the
/// generation invalidates every slot in O(1), so nothing is cleared
/// between contexts. After the buffers have grown to the engine's size
/// (one warm-up call), [`FilterEngine::matches_into`] performs no heap
/// allocation on the equality path or for `text ? (query)` literals.
#[derive(Debug, Default)]
pub struct MatchScratch {
    /// Monotonic stamp; bumped once per (event, document) context.
    generation: u64,
    /// Per-profile-slot stamp of the context the profile last matched in.
    matched: Vec<u64>,
    /// The current context's pairs: the event's, then the document's.
    pairs: Vec<Key>,
    /// Reusable buffer for the composed `host.name` collection key.
    collection_key: String,
    /// Per-context tokenized excerpt.
    tokens: TokenCache,
    /// The excerpt tokens some profile mentions, as symbols.
    token_syms: Vec<Symbol>,
    /// Backing store for [`FilterEngine::matches_into`].
    hits: Vec<DocMatch>,
    /// Candidates verified so far: conjunctions whose literals were
    /// checked, hit or not.
    #[cfg(test)]
    verified: usize,
}

impl MatchScratch {
    /// Creates empty scratch state (buffers grow on first use).
    pub fn new() -> Self {
        MatchScratch::default()
    }
}

/// The equality-preferred filter engine.
///
/// See the [crate documentation](crate) for semantics and an example. For
/// high-throughput use, hold a [`MatchScratch`] and call
/// [`matches_into`](FilterEngine::matches_into); the convenience
/// [`matches`](FilterEngine::matches) allocates fresh state per call.
#[derive(Debug)]
pub struct FilterEngine {
    symbols: SymbolTable,
    attr_host: Symbol,
    attr_collection: Symbol,
    attr_kind: Symbol,
    attr_doc: Symbol,
    /// Reserved attribute of token keys.
    attr_token: Symbol,
    grams: Vec<GramAttr>,
    conjs: Vec<Option<ConjEntry>>,
    free_conjs: Vec<u32>,
    /// Every keyed conjunction, under its one access key.
    index: Postings,
    /// Token- and gram-keyed conjunctions again, under one of their
    /// equality literals: the probe carries no tokens or grams, and this
    /// is how it still rejects on such a conjunction's equalities.
    guard: Postings,
    /// Live token- or gram-keyed conjunctions with no equality literal at
    /// all; while there is one the probe cannot reject anything.
    unguarded: usize,
    /// Live token keys; contexts tokenize only while there is one.
    token_keys: usize,
    /// [`DERIVED_KEY_HANDICAP`], or what a test set instead.
    derived_key_handicap: usize,
    /// Conjunctions with no usable key, always candidates.
    scan: BTreeSet<u32>,
    /// Live conjunctions with no positive equality on `host`,
    /// `collection` or `kind`; while there is one the gate stays open.
    ungated: usize,
    /// How many live conjunctions *verify* each event-level equality
    /// pair (one that gives access is in `index`): an entry per distinct
    /// residual pair, never per profile.
    event_residuals: FxHashMap<Key, u32>,
    /// The one per-profile hash-map entry: id → row of `slots`.
    by_profile: FxHashMap<ProfileId, u32>,
    /// Per-profile rows (stale while in `free_pslots`); as many stamps
    /// does the scratch need.
    slots: Vec<ProfileSlot>,
    free_pslots: Vec<u32>,
}

impl Default for FilterEngine {
    fn default() -> Self {
        FilterEngine::new()
    }
}

impl FilterEngine {
    /// Creates an empty engine.
    pub fn new() -> Self {
        let mut symbols = SymbolTable::new();
        let attr_host = symbols.intern(ProfileAttr::Host.name());
        let attr_collection = symbols.intern(ProfileAttr::Collection.name());
        let attr_kind = symbols.intern(ProfileAttr::Kind.name());
        let attr_doc = symbols.intern(ProfileAttr::DocId.name());
        let attr_token = symbols.reserve("text token");
        FilterEngine {
            symbols,
            attr_host,
            attr_collection,
            attr_kind,
            attr_doc,
            attr_token,
            grams: Vec::new(),
            conjs: Vec::new(),
            free_conjs: Vec::new(),
            index: Postings::default(),
            guard: Postings::default(),
            unguarded: 0,
            token_keys: 0,
            derived_key_handicap: DERIVED_KEY_HANDICAP,
            scan: BTreeSet::new(),
            ungated: 0,
            event_residuals: FxHashMap::default(),
            by_profile: FxHashMap::default(),
            slots: Vec::new(),
            free_pslots: Vec::new(),
        }
    }

    /// Number of registered profiles.
    pub fn len(&self) -> usize {
        self.by_profile.len()
    }

    /// Returns `true` when no profiles are registered.
    pub fn is_empty(&self) -> bool {
        self.by_profile.is_empty()
    }

    /// Whether the profile id is registered.
    pub fn contains(&self, id: ProfileId) -> bool {
        self.by_profile.contains_key(&id)
    }

    /// The dense slot `id` is stored under, for per-profile state kept
    /// beside the engine: numbered from 0, kept until the profile is
    /// removed (re-inserting its id keeps it), reused once freed.
    pub fn slot(&self, id: ProfileId) -> Option<u32> {
        self.by_profile.get(&id).copied()
    }

    /// Index structure statistics.
    pub fn stats(&self) -> FilterStats {
        FilterStats {
            profiles: self.by_profile.len(),
            conjunctions: self.conjs.len() - self.free_conjs.len(),
            scan_conjunctions: self.scan.len(),
            index_entries: self.index.len(),
            profile_slots: self.slots.len(),
            conjunction_slots: self.conjs.len(),
            symbols: self.symbols.len(),
        }
    }

    /// An engine that takes token and gram keys at a different handicap —
    /// 0 makes small test populations use them wherever they can.
    #[cfg(test)]
    pub(crate) fn with_derived_key_handicap(handicap: usize) -> Self {
        FilterEngine {
            derived_key_handicap: handicap,
            ..FilterEngine::new()
        }
    }

    /// Lengths of the posting lists `id`'s conjunctions sit in — what
    /// removing it has to search.
    #[cfg(test)]
    fn access_list_lens(&self, id: ProfileId) -> Vec<usize> {
        let mut lens = Vec::new();
        for &ci in self.slots[self.by_profile[&id] as usize].conjs.as_slice() {
            match &self.conj(ci).access {
                Access::Scan => {}
                Access::Eq(eq) => eq.each_key(|key| lens.push(self.index.list(key).len())),
                Access::Token(key) | Access::Gram(key) => lens.push(self.index.list(*key).len()),
            }
        }
        lens
    }

    fn conj(&self, ci: u32) -> &ConjEntry {
        self.conjs[ci as usize]
            .as_ref()
            .expect("posted conjunction is live")
    }

    /// Registers a profile expression under `id`. Re-inserting an existing
    /// id replaces the previous expression.
    ///
    /// # Errors
    ///
    /// Returns [`gsa_profile::DnfError`] when the expression is too large
    /// to normalize.
    pub fn insert(
        &mut self,
        id: ProfileId,
        expr: &ProfileExpr,
    ) -> Result<(), gsa_profile::DnfError> {
        let dnf = gsa_profile::dnf::to_dnf(expr)?;
        // A re-inserted id keeps its slot: its conjunctions are unlinked
        // and their rows freed, as removing it would, and the new ones
        // take those rows back.
        let pslot = match self.by_profile.entry(id) {
            Entry::Occupied(held) => {
                let pslot = *held.get();
                self.release_conjs(pslot);
                pslot
            }
            Entry::Vacant(free) => *free.insert(self.free_pslots.pop().unwrap_or_else(|| {
                u32::try_from(self.slots.len()).expect("profile slot overflow")
            })),
        };
        let conjs = match &dnf[..] {
            [conj] => Conjs::One(self.insert_conj(pslot, &conj.literals)),
            _ => Conjs::Many(
                dnf.iter()
                    .map(|conj| self.insert_conj(pslot, &conj.literals))
                    .collect(),
            ),
        };
        let slot = ProfileSlot { id, conjs };
        match self.slots.get_mut(pslot as usize) {
            Some(freed) => *freed = slot,
            None => self.slots.push(slot),
        }
        Ok(())
    }

    /// Compiles, links and stores one conjunction of the profile in row
    /// `pslot`, and returns its id.
    fn insert_conj(&mut self, pslot: u32, literals: &[Literal<'_>]) -> u32 {
        let ci = match self.free_conjs.pop() {
            Some(ci) => ci,
            None => {
                let ci = u32::try_from(self.conjs.len()).expect("conjunction id overflow");
                self.conjs.push(None);
                ci
            }
        };
        let (access, lits) = self.compile(literals);
        let entry = ConjEntry {
            pslot,
            access,
            lits,
        };
        self.link(ci, &entry, true);
        self.conjs[ci as usize] = Some(entry);
        ci
    }

    /// Chooses a conjunction's access key and lays out what is left to
    /// verify. Among the literals that can give access, the one whose
    /// posting lists are shortest as they stand now wins — so a list the
    /// whole server shares never outgrows the lists competing with it —
    /// then a document-level attribute over an event-level one (whose
    /// list is walked again for every document of an event), then the
    /// earliest literal. A literal its key decides (module docs) is not
    /// verified.
    fn compile(&mut self, literals: &[Literal<'_>]) -> (Access, Box<[Lit]>) {
        let mut best: Option<(usize, Access, (usize, bool))> = None;
        for (i, lit) in literals.iter().enumerate() {
            if let Some((access, cost)) = self.candidate(lit) {
                let rank = (cost, !lit.predicate.attr.is_doc_attr());
                if best.as_ref().is_none_or(|(.., best_rank)| rank < *best_rank) {
                    best = Some((i, access, rank));
                }
            }
        }
        let (access, decided) = match best {
            Some((i, access, _)) => {
                let value = &literals[i].predicate.value;
                let decided = matches!(
                    (&access, value),
                    (Access::Eq(_), _) | (Access::Token(_), AttrValue::Matches(Query::Term(_)))
                );
                (access, decided.then_some(i))
            }
            None => (Access::Scan, None),
        };
        let kept = || {
            literals
                .iter()
                .enumerate()
                .filter(move |&(i, _)| Some(i) != decided)
                .map(|(_, lit)| lit)
        };
        let mut lits = Vec::with_capacity(literals.len() - usize::from(decided.is_some()));
        for lit in kept().filter(|lit| is_equality(lit)) {
            lits.push(Lit::Eq(self.intern_equality(lit.predicate)));
        }
        lits.extend(kept().filter(|lit| !is_equality(lit)).map(Lit::residual));
        (access, lits.into_boxed_slice())
    }

    /// The access `lit` could give and what it costs: the total length
    /// of the posting lists the conjunction would join, plus
    /// [`DERIVED_KEY_HANDICAP`] for a token or gram key. Interns what it
    /// looks at; a losing candidate leaves symbols behind, never postings.
    fn candidate(&mut self, lit: &Literal<'_>) -> Option<(Access, usize)> {
        if is_equality(lit) {
            let eq = self.intern_equality(lit.predicate);
            let mut cost = 0;
            eq.each_key(|key| cost += self.index.list(key).len());
            return Some((Access::Eq(eq), cost));
        }
        if !lit.positive {
            return None;
        }
        match &lit.predicate.value {
            AttrValue::Matches(query) if lit.predicate.attr == ProfileAttr::Text => {
                let mut best: Option<(Key, usize)> = None;
                query.each_required_term(&mut |term| {
                    let key = (self.attr_token, self.symbols.intern(term));
                    let cost = self.index.list(key).len();
                    if best.is_none_or(|(_, least)| cost < least) {
                        best = Some((key, cost));
                    }
                });
                best.map(|(key, cost)| (Access::Token(key), cost + self.derived_key_handicap))
            }
            AttrValue::Like(pattern) => {
                let (segment, width) = gram_segment(pattern)?;
                let attr = self.gram_attr(&lit.predicate.attr, width);
                let mut best: Option<(Key, usize)> = None;
                each_gram(segment, width, |window| {
                    let key = (attr, window);
                    let cost = self.index.list(key).len();
                    if best.is_none_or(|(_, least)| cost < least) {
                        best = Some((key, cost));
                    }
                });
                best.map(|(key, cost)| (Access::Gram(key), cost + self.derived_key_handicap))
            }
            _ => None,
        }
    }

    fn intern_equality(&mut self, predicate: &Predicate) -> EqLit {
        let attr = self.symbols.intern(predicate.attr.name());
        match &predicate.value {
            AttrValue::Equals(v) => EqLit::One((attr, self.symbols.intern(v))),
            AttrValue::OneOf(set) => {
                EqLit::Any(attr, set.iter().map(|v| self.symbols.intern(v)).collect())
            }
            _ => unreachable!("is_equality() only admits Equals/OneOf"),
        }
    }

    /// The reserved symbol `attr`'s grams of `width` are posted under.
    fn gram_attr(&mut self, attr: &ProfileAttr, width: usize) -> Symbol {
        let known = self.grams.iter().find(|g| g.attr == *attr && g.width == width);
        if let Some(known) = known {
            return known.sym;
        }
        let sym = self.symbols.reserve(attr.name());
        self.grams.push(GramAttr {
            attr: attr.clone(),
            width,
            sym,
            live: 0,
        });
        sym
    }

    /// Posts `entry` everywhere it belongs and counts it among the live
    /// keys (`on`), or takes both back — the one place that knows where a
    /// conjunction is linked in, so insert and remove cannot disagree.
    fn link(&mut self, ci: u32, entry: &ConjEntry, on: bool) {
        let edit = if on { Postings::post } else { Postings::unpost };
        let count = |n: &mut usize| if on { *n += 1 } else { *n -= 1 };
        // What the envelope gate of `match_with` reads.
        let event_level = [self.attr_host, self.attr_collection, self.attr_kind];
        let mut gated = matches!(&entry.access, Access::Eq(eq) if event_level.contains(&eq.attr()));
        for lit in entry.lits.iter() {
            if let Lit::Eq(eq) = lit {
                if event_level.contains(&eq.attr()) {
                    gated = true;
                    eq.each_key(|key| match self.event_residuals.entry(key) {
                        held if on => *held.or_insert(0) += 1,
                        Entry::Occupied(held) if *held.get() == 1 => drop(held.remove()),
                        Entry::Occupied(mut held) => *held.get_mut() -= 1,
                        Entry::Vacant(_) => unreachable!("a linked residual is counted"),
                    });
                }
            }
        }
        if !gated {
            count(&mut self.ungated);
        }
        let key = match &entry.access {
            Access::Scan => {
                if on {
                    self.scan.insert(ci);
                } else {
                    self.scan.remove(&ci);
                }
                return;
            }
            Access::Eq(eq) => return eq.each_key(|key| edit(&mut self.index, key, ci)),
            Access::Token(key) => {
                count(&mut self.token_keys);
                *key
            }
            Access::Gram(key) => {
                let attr = self.grams.iter_mut().find(|g| g.sym == key.0);
                count(&mut attr.expect("gram key has its attribute").live);
                *key
            }
        };
        edit(&mut self.index, key, ci);
        // The probe cannot see this key: guard by an equality, if any.
        match entry.lits.first() {
            Some(Lit::Eq(eq)) => eq.each_key(|key| edit(&mut self.guard, key, ci)),
            _ => count(&mut self.unguarded),
        }
    }

    /// Removes a profile. Returns `true` when it was registered.
    ///
    /// Each of the profile's conjunctions sits in the posting lists of
    /// its one access key (and of its guard literal, if it has one);
    /// removal searches those lists and nothing else, so a literal the
    /// profile shares with the whole server costs nothing unless it is
    /// the key.
    pub fn remove(&mut self, id: ProfileId) -> bool {
        let Some(pslot) = self.by_profile.remove(&id) else {
            return false;
        };
        self.release_conjs(pslot);
        self.free_pslots.push(pslot);
        true
    }

    /// Unlinks the conjunctions of row `pslot` and frees their rows.
    fn release_conjs(&mut self, pslot: u32) {
        let freed = Conjs::Many(Box::default());
        let conjs = std::mem::replace(&mut self.slots[pslot as usize].conjs, freed);
        for &ci in conjs.as_slice() {
            let conj = self.conjs[ci as usize]
                .take()
                .expect("registered conjunction is live");
            self.link(ci, &conj, false);
            self.free_conjs.push(ci);
        }
    }

    /// Appends `(attr, value)` when some profile mentions `value`; a
    /// string never interned cannot be in any key or equality literal.
    #[inline]
    fn push_pair(&self, pairs: &mut Vec<Key>, attr: Symbol, value: &str) {
        if let Some(value) = self.symbols.lookup(value) {
            pairs.push((attr, value));
        }
    }

    /// Starts `scratch.pairs` over with the event-level pairs.
    fn push_event_pairs(&self, scratch: &mut MatchScratch, host: &str, name: &str, kind: &str) {
        let MatchScratch {
            pairs,
            collection_key,
            ..
        } = scratch;
        pairs.clear();
        self.push_pair(pairs, self.attr_host, host);
        collection_key.clear();
        let _ = write!(collection_key, "{host}.{name}");
        self.push_pair(pairs, self.attr_collection, collection_key);
        self.push_pair(pairs, self.attr_kind, kind);
    }

    /// Appends a document's pairs.
    fn push_doc_pairs<'a>(
        &self,
        pairs: &mut Vec<Key>,
        doc_id: &str,
        metadata: impl Iterator<Item = (&'a str, &'a str)>,
    ) {
        self.push_pair(pairs, self.attr_doc, doc_id);
        // A metadata key spelled like a built-in attribute is not that
        // attribute (no profile can name it): its value is no event pair.
        let built_in = [self.attr_host, self.attr_collection, self.attr_kind, self.attr_doc];
        for (key, value) in metadata {
            if let Some(attr) = self.symbols.lookup(key).filter(|attr| !built_in.contains(attr)) {
                self.push_pair(pairs, attr, value);
            }
        }
    }

    /// Every (profile, document) match of `event`, written to `out`
    /// sorted by profile id, then document index. A profile is matched
    /// once per document of the event that satisfies it — or once, with
    /// no document, by the envelope of a docless event.
    ///
    /// `out` is cleared first. With warm `scratch` buffers this performs
    /// no heap allocation on the equality path, nor for tokenizing an
    /// excerpt (done only while the engine holds a token key or reaches
    /// a `text ? (query)` literal); a filter query on a metadata
    /// attribute and folding a non-ASCII value may allocate.
    pub fn match_docs_into(
        &self,
        event: &Event,
        scratch: &mut MatchScratch,
        out: &mut Vec<DocMatch>,
    ) {
        self.match_with(event, scratch, out, |hit, _slot| hit);
    }

    /// [`match_docs_into`](FilterEngine::match_docs_into), each match
    /// with its profile's [`slot`](FilterEngine::slot).
    pub fn match_slots_into(
        &self,
        event: &Event,
        scratch: &mut MatchScratch,
        out: &mut Vec<(DocMatch, u32)>,
    ) {
        self.match_with(event, scratch, out, |hit, slot| (hit, slot));
    }

    /// The one matching routine; `record` makes what `out` holds of a
    /// match and its profile's slot.
    fn match_with<H: Ord>(
        &self,
        event: &Event,
        scratch: &mut MatchScratch,
        out: &mut Vec<H>,
        record: impl Fn(DocMatch, u32) -> H + Copy,
    ) {
        out.clear();
        if scratch.matched.len() < self.slots.len() {
            scratch.matched.resize(self.slots.len(), 0);
        }
        let origin = &event.origin;
        self.push_event_pairs(
            scratch,
            origin.host().as_str(),
            origin.name().as_str(),
            event.kind.as_str(),
        );
        // The envelope gate (module docs): no pair of the event's own is
        // an access key or a counted residual, so no document is read.
        let named = |&key: &Key| {
            !self.index.list(key).is_empty() || self.event_residuals.contains_key(&key)
        };
        if self.ungated == 0 && !scratch.pairs.iter().any(named) {
            return;
        }
        let event_pairs = scratch.pairs.len();
        if event.docs.is_empty() {
            self.match_context(event, None, scratch, out, record);
        }
        for (at, doc) in event.docs.iter().enumerate() {
            scratch.pairs.truncate(event_pairs);
            let metadata = doc.metadata.iter_flat().map(|(k, v)| (k.as_str(), v));
            self.push_doc_pairs(&mut scratch.pairs, doc.doc.as_str(), metadata);
            let at = u32::try_from(at).expect("document index overflow");
            self.match_context(event, Some((at, doc)), scratch, out, record);
        }
        out.sort_unstable();
    }

    /// The profiles matching `event`, written to `out` in ascending id
    /// order: the distinct profiles of
    /// [`match_docs_into`](FilterEngine::match_docs_into), with the same
    /// allocation behaviour.
    pub fn matches_into(
        &self,
        event: &Event,
        scratch: &mut MatchScratch,
        out: &mut Vec<ProfileId>,
    ) {
        let mut hits = std::mem::take(&mut scratch.hits);
        self.match_docs_into(event, scratch, &mut hits);
        profile_ids(&hits, out);
        scratch.hits = hits;
    }

    /// The profiles matching `event` (in ascending id order).
    ///
    /// Convenience wrapper allocating fresh [`MatchScratch`] state; batch
    /// callers should hold their own scratch and use
    /// [`matches_into`](FilterEngine::matches_into).
    pub fn matches(&self, event: &Event) -> Vec<ProfileId> {
        let mut scratch = MatchScratch::new();
        let mut out = Vec::new();
        self.matches_into(event, &mut scratch, &mut out);
        out
    }

    /// One (event, document) context: walks the posting list of every
    /// pair, token and gram the context carries, then the scan set, and
    /// verifies what it finds.
    fn match_context<H>(
        &self,
        event: &Event,
        doc: Option<(u32, &DocSummary)>,
        scratch: &mut MatchScratch,
        out: &mut Vec<H>,
        record: impl Fn(DocMatch, u32) -> H,
    ) {
        scratch.generation += 1;
        scratch.tokens.reset();
        let MatchScratch {
            generation,
            matched,
            pairs,
            tokens,
            token_syms,
            ..
        } = scratch;
        #[cfg(test)]
        let verified = &mut scratch.verified;
        let (at, doc) = doc.unzip();

        token_syms.clear();
        if let (true, Some(doc)) = (self.token_keys > 0, doc) {
            let mentioned = |token| self.symbols.lookup(token);
            token_syms.extend(tokens.get(&doc.excerpt).iter().filter_map(mentioned));
        }

        let mut visit = |ci: u32| {
            let entry = self.conj(ci);
            let slot = &mut matched[entry.pslot as usize];
            // A stamped slot: another key or another conjunction already
            // reported the profile for this document.
            #[cfg(test)]
            if *slot != *generation {
                *verified += 1;
            }
            if *slot != *generation
                && entry
                    .lits
                    .iter()
                    .all(|lit| lit.holds(event, doc, pairs, tokens))
            {
                *slot = *generation;
                let profile = self.slots[entry.pslot as usize].id;
                out.push(record(DocMatch { profile, doc: at }, entry.pslot));
            }
        };
        let mut walk = |key: Key| self.index.list(key).iter().for_each(|&ci| visit(ci));
        pairs.iter().for_each(|&key| walk(key));
        for &token in token_syms.iter() {
            walk((self.attr_token, token));
        }
        for gram in self.grams.iter().filter(|g| g.live > 0) {
            gram.attr.any_value(event, doc, |value| {
                each_gram(value, gram.width, |window| walk((gram.sym, window)));
                false
            });
        }
        self.scan.iter().for_each(|&ci| visit(ci));
    }

    /// Conservative zero-materialisation pre-filter: could any profile
    /// match the event behind `probe`?
    ///
    /// Builds the same equality pairs as
    /// [`match_docs_into`](FilterEngine::match_docs_into) from the
    /// borrowed attribute slices of an [`EventProbe`] — no `Event`, no
    /// metadata record, no interning — and answers whether some context
    /// satisfies **all equality literals** of some conjunction. Nothing
    /// else is verified, and the probe reads no excerpt: a token- or
    /// gram-keyed conjunction is reached through the guard index under
    /// one of its equalities, and one with no equality at all, like any
    /// scan-only conjunction (short wildcards, prefix queries, pure
    /// negations), makes every event a hit. `false` therefore proves
    /// `matches_into` would return nothing, while `true` only means the
    /// caller must materialise the event and run the full match.
    ///
    /// With warm `scratch` buffers this performs no heap allocation.
    ///
    /// # Errors
    ///
    /// Propagates [`WireError`] from walking the encoded documents;
    /// callers treat an error like `true` (decode and let the ordinary
    /// path report the problem).
    pub fn probe_matches(
        &self,
        probe: &mut EventProbe<'_>,
        scratch: &mut MatchScratch,
    ) -> Result<bool, WireError> {
        if !self.scan.is_empty() || self.unguarded > 0 {
            return Ok(true);
        }
        if self.index.is_empty() {
            return Ok(false);
        }
        let kind = probe.kind().as_str();
        self.push_event_pairs(scratch, probe.origin_host(), probe.origin_name(), kind);
        if probe.remaining_docs() == 0 {
            return Ok(self.probe_context(&scratch.pairs));
        }
        let event_pairs = scratch.pairs.len();
        while let Some(doc) = probe.next_doc()? {
            scratch.pairs.truncate(event_pairs);
            self.push_doc_pairs(&mut scratch.pairs, doc.id(), doc.metadata());
            if self.probe_context(&scratch.pairs) {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// One context of [`probe_matches`](FilterEngine::probe_matches):
    /// whether a conjunction reachable from `pairs` has all its equality
    /// literals among them.
    fn probe_context(&self, pairs: &[Key]) -> bool {
        let equalities_hold = |&ci: &u32| {
            self.conj(ci).lits.iter().all(|lit| match lit {
                Lit::Eq(eq) => eq.holds(pairs),
                Lit::TextQuery { .. } | Lit::General { .. } => true,
            })
        };
        pairs.iter().any(|&key| {
            [&self.index, &self.guard]
                .into_iter()
                .flat_map(|postings| postings.list(key))
                .any(equalities_hold)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsa_profile::parse_profile;
    use gsa_types::{keys, CollectionId, EventId, EventKind, MetadataRecord, SimTime};

    fn pid(raw: u64) -> ProfileId {
        ProfileId::from_raw(raw)
    }

    fn event(host: &str, coll: &str, subject: &str, text: &str) -> Event {
        let md: MetadataRecord = [(keys::SUBJECT, subject)].into_iter().collect();
        Event::new(
            EventId::new(host, 1),
            CollectionId::new(host, coll),
            EventKind::DocumentsAdded,
            SimTime::ZERO,
        )
        .with_docs(vec![DocSummary::new("d1").with_metadata(md).with_excerpt(text)])
    }

    fn engine_with(profiles: &[(u64, &str)]) -> FilterEngine {
        let mut e = FilterEngine::new();
        for (id, text) in profiles {
            e.insert(pid(*id), &parse_profile(text).unwrap()).unwrap();
        }
        e
    }

    #[test]
    fn equality_profiles_are_indexed_and_match() {
        let e = engine_with(&[
            (1, r#"host = "London""#),
            (2, r#"host = "Paris""#),
            (3, r#"dc.Subject = "dl""#),
        ]);
        assert_eq!(e.stats().scan_conjunctions, 0);
        let matched = e.matches(&event("London", "E", "dl", ""));
        assert_eq!(matched, vec![pid(1), pid(3)]);
    }

    #[test]
    fn conjunction_requires_all_indexed_predicates() {
        let e = engine_with(&[(1, r#"host = "London" AND dc.Subject = "dl""#)]);
        assert!(e.matches(&event("London", "E", "dl", "")).contains(&pid(1)));
        assert!(e.matches(&event("London", "E", "other", "")).is_empty());
        assert!(e.matches(&event("Paris", "E", "dl", "")).is_empty());
    }

    #[test]
    fn residual_predicates_are_verified() {
        let e = engine_with(&[(1, r#"host = "London" AND text ? (digital)"#)]);
        assert!(!e.matches(&event("London", "E", "x", "analog stuff")).contains(&pid(1)));
        assert!(e.matches(&event("London", "E", "x", "digital stuff")).contains(&pid(1)));
    }

    #[test]
    fn scan_only_profiles_still_match() {
        // Too short for a gram key, nothing else to key on: scanned.
        let e = engine_with(&[(1, r#"text ~ "*di*""#)]);
        assert_eq!(e.stats().scan_conjunctions, 1);
        assert!(e.matches(&event("Anywhere", "C", "x", "the digital age")).contains(&pid(1)));
        // So are a prefix query, a disjunctive query and a pure negation.
        for text in [r#"text ? (digi*)"#, r#"text ? (a OR b)"#, r#"NOT dc.Subject = "x""#] {
            assert_eq!(engine_with(&[(1, text)]).stats().scan_conjunctions, 1, "{text}");
        }
    }

    #[test]
    fn wildcards_are_keyed_on_a_window_and_still_verified() {
        // Windows of 4 bytes (a 7-byte and a 4-byte segment), 3 (two
        // 3-byte segments) and 8 (a 9-byte segment).
        let mut e = FilterEngine::with_derived_key_handicap(0);
        for (id, text) in [
            (1, r#"text ~ "*DIGITAL*""#),
            (2, r#"dc.Subject ~ "lib*ies""#),
            (3, r#"host = "London" AND dc.Subject ~ "*brar*""#),
            (4, r#"dc.Subject ~ "*Libraries""#),
        ] {
            e.insert(pid(id), &parse_profile(text).unwrap()).unwrap();
        }
        assert_eq!(e.stats().scan_conjunctions, 0);
        assert_eq!(e.stats().index_entries, 4);
        let hit = event("London", "E", "Libraries", "the Digital age");
        assert_eq!(e.matches(&hit), vec![pid(1), pid(2), pid(3), pid(4)]);
        // The gram is only necessary: a value carrying it is still held
        // to the whole pattern, and to the conjunction's other literals.
        assert!(e.matches(&event("London", "E", "libation", "digit")).is_empty());
        assert!(e.matches(&event("Paris", "E", "Librariesx", "")).is_empty());
        assert_eq!(e.matches(&event("Paris", "E", "Librarians", "")), vec![]);
        // Non-ASCII values are folded the way the pattern match folds them.
        let e = engine_with(&[(1, r#"dc.Subject ~ "*kelvin*""#)]);
        assert_eq!(e.matches(&event("h", "c", "Lord \u{212a}ELVIN", "")), vec![pid(1)]);
    }

    fn titled(title: &str) -> Event {
        let md: MetadataRecord = [(keys::TITLE, title)].into_iter().collect();
        Event::new(
            EventId::new("h", 1),
            CollectionId::new("h", "c"),
            EventKind::DocumentsAdded,
            SimTime::ZERO,
        )
        .with_docs(vec![DocSummary::new("d1").with_metadata(md)])
    }

    /// The candidates `e` verifies for `ev`, and what it reports.
    fn verified(e: &FilterEngine, ev: &Event) -> (usize, Vec<ProfileId>) {
        let mut scratch = MatchScratch::new();
        let mut out = Vec::new();
        e.matches_into(ev, &mut scratch, &mut out);
        (scratch.verified, out)
    }

    #[test]
    fn a_wildcard_key_is_as_selective_as_its_segment() {
        // Eight-letter words of four syllables, each opening on `bo`,
        // the rest drawn from four: any two share prefix, suffix and
        // trigrams, as the benchmark's title words do. The even words
        // are wanted, twice each; the odd words carry their trigrams.
        let word = |i: usize| -> String {
            let syllable = |s: usize| ["ka", "ri", "mo", "tu"][s % 4];
            ["bo", syllable(i / 16), syllable(i / 4), syllable(i)].concat()
        };
        let mut e = FilterEngine::new();
        for i in (0..64).step_by(2) {
            let text = format!(r#"dc.Title ~ "*{}*""#, word(i));
            for id in [i, 100 + i] {
                e.insert(pid(id as u64), &parse_profile(&text).unwrap()).unwrap();
            }
        }
        let strangers = format!("{} {}", word(1), word(39).to_uppercase());
        assert_eq!(verified(&e, &titled(&strangers)), (0, vec![]));
        let one = format!("{strangers} {}", word(42));
        assert_eq!(verified(&e, &titled(&one)), (2, vec![pid(42), pid(142)]));

        // Two windows that hash alike, found by a birthday search over
        // scrambled eight-letter names (expected about 2^16 names in;
        // names counted up in order spread too evenly to collide).
        let name = |i: u64| {
            let mut bits = (i + 1).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            bits ^= bits >> 31;
            (0..8)
                .map(|_| {
                    let letter = char::from(b'a' + (bits % 26) as u8);
                    bits /= 26;
                    letter
                })
                .collect::<String>()
        };
        let mut seen = FxHashMap::default();
        let (a, b) = (0..1u64 << 20)
            .find_map(|i| {
                let window = name(i);
                let mut packed = None;
                each_gram(&window, 8, |sym| packed = Some(sym));
                let other = seen.insert(packed, window.clone())?;
                (other != window).then_some((other, window))
            })
            .expect("two of 2^20 windows share a symbol");
        let e = engine_with(&[(1, &format!(r#"dc.Title ~ "*{a}*""#))]);
        // A collision costs one verification, never a false report.
        assert_eq!(verified(&e, &titled(&format!("the {b}"))), (1, vec![]));
        assert_eq!(verified(&e, &titled(&format!("the {a}"))), (1, vec![pid(1)]));
    }

    #[test]
    fn filter_queries_are_keyed_on_a_required_term() {
        let e = engine_with(&[
            (1, r#"text ? (digital)"#),
            (2, r#"text ? (digital AND (age OR era) AND NOT analog)"#),
            (3, r#"text ? (library digital)"#),
        ]);
        assert_eq!(e.stats().scan_conjunctions, 0);
        // The third went where the lists were shorter.
        assert_eq!(e.access_list_lens(pid(3)), [1]);
        assert_eq!(e.matches(&event("London", "E", "x", "The DIGITAL age")), vec![pid(1), pid(2)]);
        assert_eq!(e.matches(&event("London", "E", "x", "digital analog age")), vec![pid(1)]);
        assert_eq!(
            e.matches(&event("London", "E", "x", "a digital library")),
            vec![pid(1), pid(3)]
        );
        assert!(e.matches(&event("London", "E", "x", "a library")).is_empty());
    }

    #[test]
    fn a_token_key_decides_a_one_term_query_and_nothing_more() {
        let e = engine_with(&[
            (1, r#"text ? (digital)"#),
            (2, r#"text ? (digital AND library)"#),
            (3, r#"text ? (digi*)"#),
            (4, r#"text ? (digital) AND text ? (library)"#),
        ]);
        let kept = |id| {
            let conjs = e.slots[e.by_profile[&pid(id)] as usize].conjs.as_slice();
            let entry = e.conj(conjs[0]);
            (matches!(entry.access, Access::Token(_)), entry.lits.len())
        };
        // Keyed on `digital`, the first query is proven by its key …
        assert_eq!(kept(1), (true, 0));
        // … a conjunction of terms, a prefix (which has no key) and the
        // second of two queries are verified.
        assert_eq!(kept(2), (true, 1));
        assert_eq!(kept(3), (false, 1));
        assert_eq!(kept(4), (true, 1));
        assert_eq!(e.matches(&event("London", "E", "x", "Digital")), vec![pid(1), pid(3)]);
        assert_eq!(
            e.matches(&event("London", "E", "x", "a digital library")),
            vec![pid(1), pid(2), pid(3), pid(4)]
        );
        assert_eq!(e.matches(&event("London", "E", "x", "digitalis library")), vec![pid(3)]);
    }

    #[test]
    fn token_and_gram_keys_wait_for_the_equality_lists_to_grow() {
        // A live token or gram key costs every document a tokenizing or
        // window pass, so an equality key is kept while its list is
        // short: the first DERIVED_KEY_HANDICAP profiles on one anchor
        // go under the anchor, later ones under their own term or gram.
        let mut e = FilterEngine::new();
        let word = |i: u64| format!("item{i:02}x");
        for i in 0..2 * DERIVED_KEY_HANDICAP as u64 {
            let text = if i % 2 == 0 {
                format!(r#"collection = "London.E" AND text ? ({})"#, word(i))
            } else {
                format!(r#"collection = "London.E" AND dc.Subject ~ "*{}*""#, word(i))
            };
            e.insert(pid(i), &parse_profile(&text).unwrap()).unwrap();
        }
        let anchored = DERIVED_KEY_HANDICAP;
        assert_eq!(e.access_list_lens(pid(0)), [anchored]);
        assert_eq!(e.access_list_lens(pid(2 * anchored as u64 - 1)), [1]);
        assert_eq!(e.stats().index_entries, 1 + anchored);
        // Whichever key a profile got, it matches the same events.
        for i in [0, 1, 2 * anchored as u64 - 2, 2 * anchored as u64 - 1] {
            let word = word(i);
            assert_eq!(e.matches(&event("London", "E", &word, &word)), vec![pid(i)]);
            assert!(e.matches(&event("Paris", "E", &word, &word)).is_empty());
        }
    }

    #[test]
    fn access_key_is_the_shortest_list_document_level_on_ties() {
        let mut e = engine_with(&[
            (1, r#"collection = "H.D" AND dc.Subject = "a""#),
            (2, r#"collection = "H.D" AND dc.Subject = "b""#),
            (3, r#"collection = "H.D" AND dc.Subject = "a""#),
            (4, r#"dc.Subject = "a" AND dc.Creator = "c""#),
            (5, r#"collection = "H.D" AND kind = "documents-added""#),
        ]);
        // 1 and 2: all lists empty, the document-level literal wins. 3:
        // its subject's list is taken, the collection's still empty. 4
        // and 5: the creator's and the kind's lists are empty.
        for id in 1..=5 {
            assert_eq!(e.access_list_lens(pid(id)), [1], "profile {id}");
        }
        assert_eq!(e.stats().index_entries, 5);
        // The result does not depend on who got which key.
        assert_eq!(e.matches(&event("H", "D", "a", "")), vec![pid(1), pid(3), pid(5)]);
        for id in 1..=5 {
            assert!(e.remove(pid(id)));
        }
        assert_eq!(e.stats().index_entries, 0);
    }

    #[test]
    fn removal_does_not_search_a_list_the_whole_server_shares() {
        // N profiles share an event-level literal and, in pairs, a
        // document-level one. A shared list is only joined while it is
        // the shortest on offer, so it cannot outgrow the lists competing
        // with it: cancelling any profile searches a list whose length
        // does not grow with N.
        for n in [4u64, 400] {
            let mut e = FilterEngine::new();
            for i in 0..n {
                let text = format!(r#"collection = "H.D" AND dc.Creator = "c{}""#, i % (n / 2));
                e.insert(pid(i), &parse_profile(&text).unwrap()).unwrap();
            }
            for i in 0..n {
                assert!(e.access_list_lens(pid(i)) <= vec![2], "{i} of {n}");
            }
            assert!(e.remove(pid(1)));
            assert_eq!(e.access_list_lens(pid(1 + n / 2)), [1]);
        }
    }

    #[test]
    fn every_matching_document_is_reported_once() {
        let e = engine_with(&[
            (1, r#"dc.Subject = "b" OR dc.Subject in ["a", "b"]"#),
            (2, r#"host = "h""#),
            (3, r#"dc.Subject = "zz""#),
        ]);
        let doc = |id: &str, subjects: &[&str]| {
            let md: MetadataRecord = subjects.iter().map(|s| (keys::SUBJECT, *s)).collect();
            DocSummary::new(id).with_metadata(md)
        };
        let ev = Event::new(
            EventId::new("h", 1),
            CollectionId::new("h", "c"),
            EventKind::DocumentsAdded,
            SimTime::ZERO,
        )
        .with_docs(vec![doc("d0", &["a", "b"]), doc("d1", &["x"]), doc("d2", &["b"])]);
        let mut hits = Vec::new();
        e.match_docs_into(&ev, &mut MatchScratch::new(), &mut hits);
        let hit = |profile, doc| DocMatch { profile: pid(profile), doc };
        assert_eq!(
            hits,
            [
                hit(1, Some(0)),
                hit(1, Some(2)),
                hit(2, Some(0)),
                hit(2, Some(1)),
                hit(2, Some(2)),
            ]
        );
        // A docless event matches on the envelope, with no document.
        e.match_docs_into(&ev.clone().with_docs(Vec::new()), &mut MatchScratch::new(), &mut hits);
        assert_eq!(hits, [hit(2, None)]);
    }

    #[test]
    fn negated_equality_is_residual() {
        let e = engine_with(&[(1, r#"NOT host = "London""#)]);
        assert!(e.matches(&event("Paris", "E", "x", "")).contains(&pid(1)));
        assert!(e.matches(&event("London", "E", "x", "")).is_empty());
    }

    #[test]
    fn id_list_is_indexed_per_value() {
        let e = engine_with(&[(1, r#"host in ["London", "Paris"]"#)]);
        assert!(e.matches(&event("Paris", "E", "x", "")).contains(&pid(1)));
        assert!(e.matches(&event("London", "E", "x", "")).contains(&pid(1)));
        assert!(e.matches(&event("Berlin", "E", "x", "")).is_empty());
    }

    #[test]
    fn disjunction_creates_multiple_conjunctions() {
        let e = engine_with(&[(1, r#"host = "London" OR host = "Paris""#)]);
        assert_eq!(e.stats().conjunctions, 2);
        assert!(e.matches(&event("Paris", "E", "x", "")).contains(&pid(1)));
        // Profile reported once even when both branches match.
        let e = engine_with(&[(1, r#"host = "London" OR kind = "documents-added""#)]);
        assert_eq!(e.matches(&event("London", "E", "x", "")), vec![pid(1)]);
    }

    #[test]
    fn remove_profile() {
        let mut e = engine_with(&[(1, r#"host = "London""#), (2, r#"host = "London""#)]);
        assert!(e.remove(pid(1)));
        assert!(!e.remove(pid(1)));
        assert!(!e.contains(pid(1)));
        assert_eq!(e.matches(&event("London", "E", "x", "")), vec![pid(2)]);
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn remove_shrinks_index_entries() {
        // Two profiles share the "host=London" entry; a third owns its own
        // entries. Removing the third must drop exactly its entries, and
        // removing one sharer must keep the shared entry alive.
        let mut e = engine_with(&[
            (1, r#"host = "London""#),
            (2, r#"host = "London" AND dc.Subject = "dl""#),
            (3, r#"kind = "documents-added" AND doc in ["d1", "d2"]"#),
        ]);
        // Access keys: (host,London) for 1, (dc.Subject,dl) for 2 and
        // (doc,d1), (doc,d2) for 3 — document-level literals win, so
        // nothing is posted under kind or a second time under host.
        assert_eq!(e.stats().index_entries, 4);
        assert!(e.remove(pid(3)));
        assert_eq!(e.stats().index_entries, 2);
        assert!(e.remove(pid(2)));
        assert_eq!(e.stats().index_entries, 1);
        assert_eq!(e.matches(&event("London", "E", "dl", "")), vec![pid(1)]);
        assert!(e.remove(pid(1)));
        assert_eq!(e.stats().index_entries, 0);
        assert_eq!(e.stats().conjunctions, 0);
    }

    #[test]
    fn removed_slots_are_reused() {
        let mut e = engine_with(&[(1, r#"host = "A" OR host = "B""#)]);
        let tables = |e: &FilterEngine| (e.stats().profile_slots, e.stats().conjunction_slots);
        assert_eq!(tables(&e), (1, 2));
        assert!(e.remove(pid(1)));
        e.insert(pid(2), &parse_profile(r#"host = "C" OR host = "D""#).unwrap())
            .unwrap();
        assert_eq!(tables(&e), (1, 2));
        assert_eq!(e.matches(&event("C", "E", "x", "")), vec![pid(2)]);
    }

    #[test]
    fn reinsert_replaces() {
        let mut e = engine_with(&[(0, r#"host = "Rome""#), (1, r#"host = "London""#)]);
        assert!(e.remove(pid(0)));
        e.insert(pid(1), &parse_profile(r#"host = "Paris""#).unwrap())
            .unwrap();
        // In its own slot, not the one freed before it.
        assert_eq!((e.slot(pid(1)), e.slot(pid(0))), (Some(1), None));
        assert!(e.matches(&event("London", "E", "x", "")).is_empty());
        assert!(e.matches(&event("Paris", "E", "x", "")).contains(&pid(1)));
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn docless_event_matches_event_level() {
        let e = engine_with(&[(1, r#"collection = "London.E""#), (2, r#"doc = "d1""#)]);
        let deleted = Event::new(
            EventId::new("London", 9),
            CollectionId::new("London", "E"),
            EventKind::CollectionDeleted,
            SimTime::ZERO,
        );
        assert_eq!(e.matches(&deleted), vec![pid(1)]);
    }

    #[test]
    fn multiple_docs_any_semantics() {
        let e = engine_with(&[(1, r#"dc.Subject = "b""#)]);
        let md_a: MetadataRecord = [(keys::SUBJECT, "a")].into_iter().collect();
        let md_b: MetadataRecord = [(keys::SUBJECT, "b")].into_iter().collect();
        let ev = Event::new(
            EventId::new("h", 1),
            CollectionId::new("h", "c"),
            EventKind::DocumentsAdded,
            SimTime::ZERO,
        )
        .with_docs(vec![
            DocSummary::new("d1").with_metadata(md_a),
            DocSummary::new("d2").with_metadata(md_b),
        ]);
        assert_eq!(e.matches(&ev), vec![pid(1)]);
    }

    #[test]
    fn scratch_is_reusable_across_engines_and_events() {
        let e1 = engine_with(&[(1, r#"host = "London""#)]);
        let e2 = engine_with(&[(7, r#"host = "Paris""#), (8, r#"host = "London""#)]);
        let mut scratch = MatchScratch::new();
        let mut out = Vec::new();
        e1.matches_into(&event("London", "E", "x", ""), &mut scratch, &mut out);
        assert_eq!(out, vec![pid(1)]);
        e2.matches_into(&event("Paris", "E", "x", ""), &mut scratch, &mut out);
        assert_eq!(out, vec![pid(7)]);
        e2.matches_into(&event("Berlin", "E", "x", ""), &mut scratch, &mut out);
        assert!(out.is_empty());
        e2.matches_into(&event("London", "E", "x", ""), &mut scratch, &mut out);
        assert_eq!(out, vec![pid(8)]);
    }

    #[test]
    fn stats_display() {
        let e = engine_with(&[(1, r#"host = "London""#)]);
        let s = e.stats().to_string();
        assert!(s.contains("1 profiles"));
    }

    #[test]
    fn empty_engine_matches_nothing() {
        let e = FilterEngine::new();
        assert!(e.is_empty());
        assert!(e.matches(&event("London", "E", "x", "")).is_empty());
    }

    #[test]
    fn a_metadata_key_spelled_like_an_attribute_is_not_that_attribute() {
        let e = engine_with(&[
            (1, r#"host = "London""#),
            (2, r#"doc = "d9""#),
            (3, r#"dc.Subject = "dl""#),
        ]);
        let md: MetadataRecord = [("host", "London"), ("doc", "d9"), (keys::SUBJECT, "dl")]
            .into_iter()
            .collect();
        let mut forged = event("Paris", "C", "dl", "");
        forged.docs[0].metadata = md;
        assert_eq!(e.matches(&forged), vec![pid(3)]);
        assert!(probe_hit(&e, &forged));
        forged.docs[0].metadata = [("host", "London")].into_iter().collect();
        assert!(e.matches(&forged).is_empty() && !probe_hit(&e, &forged));
    }

    /// Whether the envelope gate refused `ev`: nothing matched and no
    /// context was entered (a context advances the scratch generation).
    fn refused(e: &FilterEngine, ev: &Event) -> bool {
        let mut scratch = MatchScratch::new();
        let mut out = Vec::new();
        e.match_docs_into(ev, &mut scratch, &mut out);
        assert!(scratch.generation > 0 || out.is_empty());
        scratch.generation == 0
    }

    /// An event no live conjunction names is refused, through insert, remove and re-insert.
    #[test]
    fn envelope_gate_follows_insert_remove_and_reinsert() {
        let insert = |e: &mut FilterEngine, id, text| {
            e.insert(pid(id), &parse_profile(text).unwrap()).unwrap()
        };
        let docless = |host: &str, coll: &str| {
            Event::new(
                EventId::new(host, 2),
                CollectionId::new(host, coll),
                EventKind::CollectionDeleted,
                SimTime::ZERO,
            )
        };
        let residuals = |e: &FilterEngine| {
            let mut counts: Vec<u32> = e.event_residuals.values().copied().collect();
            counts.sort_unstable();
            counts
        };
        let mut e = FilterEngine::new();
        assert!(refused(&e, &event("London", "E", "dl", "")), "nothing to match");

        // Keyed on an event-level equality: found through the index,
        // counted nowhere.
        insert(&mut e, 1, r#"host = "London""#);
        assert_eq!((e.ungated, residuals(&e)), (0, vec![]));
        assert!(!refused(&e, &event("London", "E", "dl", "")));
        assert!(refused(&e, &event("Paris", "C", "dl", "")));
        assert_eq!(e.matches(&docless("London", "E")), vec![pid(1)]);
        assert!(refused(&e, &docless("Paris", "C")));

        // An event-level equality that is only verified (the subject
        // gives access) is counted, once per conjunction that names it.
        insert(&mut e, 2, r#"collection = "Paris.C" AND dc.Subject = "dl""#);
        insert(&mut e, 3, r#"collection = "Paris.C" AND dc.Subject = "ir""#);
        assert_eq!((e.ungated, residuals(&e)), (0, vec![2]));
        assert_eq!(e.matches(&event("Paris", "C", "dl", "")), vec![pid(2)]);
        assert!(refused(&e, &event("Paris", "X", "dl", "")), "no pair is named");
        assert!(e.remove(pid(2)));
        assert_eq!(residuals(&e), vec![1]);
        assert_eq!(e.matches(&event("Paris", "C", "ir", "")), vec![pid(3)]);
        assert!(e.remove(pid(3)));
        assert_eq!(residuals(&e), vec![]);
        assert!(refused(&e, &event("Paris", "C", "ir", "")));
        // An ID list counts under each of its values.
        insert(&mut e, 4, r#"kind in ["documents-added", "collection-deleted"] AND doc = "d1""#);
        assert_eq!(residuals(&e), vec![1, 1]);
        assert!(!refused(&e, &event("Paris", "C", "x", "")));
        assert!(e.remove(pid(4)));

        // A conjunction with no event-level equality — keyed or scanned —
        // opens the gate for every event while it lives.
        for text in [r#"dc.Subject = "x""#, r#"text ~ "*x*""#, r#"NOT host = "London""#] {
            insert(&mut e, 5, text);
            assert_eq!(e.ungated, 1, "{text}");
            assert!(!refused(&e, &event("Paris", "C", "dl", "")), "{text}");
            assert!(!refused(&e, &docless("Paris", "C")), "{text}");
        }
        // Re-inserting the id replaces it: the gate closes again.
        insert(&mut e, 5, r#"host = "London" OR kind = "collection-rebuilt""#);
        assert_eq!((e.ungated, residuals(&e)), (0, vec![]));
        assert!(refused(&e, &event("Paris", "C", "dl", "")));
        assert!(e.remove(pid(5)) && e.remove(pid(1)));
        assert!(refused(&e, &event("London", "E", "dl", "")));
    }

    /// Opens a probe over the event's frozen binary payload encoding.
    fn probed(event: &Event, f: impl FnOnce(&mut gsa_wire::EventProbe<'_>) -> bool) -> bool {
        let bytes =
            gsa_wire::binary::payload_bytes_from_xml(&gsa_wire::codec::event_to_xml(event));
        let mut probe = gsa_wire::EventProbe::from_payload(&bytes).unwrap().unwrap();
        f(&mut probe)
    }

    fn probe_hit(e: &FilterEngine, ev: &Event) -> bool {
        probed(ev, |probe| {
            e.probe_matches(probe, &mut MatchScratch::new()).unwrap()
        })
    }

    #[test]
    fn probe_rejects_what_cannot_match_and_passes_what_can() {
        let e = engine_with(&[
            (1, r#"host = "London" AND dc.Subject = "dl""#),
            (2, r#"doc = "d1" AND kind = "collection-rebuilt""#),
        ]);
        assert!(probe_hit(&e, &event("London", "E", "dl", "")));
        assert!(!probe_hit(&e, &event("London", "E", "other", "")), "mask incomplete");
        assert!(!probe_hit(&e, &event("Paris", "E", "dl", "")), "wrong host");
        // d1 present but kind differs: no conjunction completes.
        assert!(!probe_hit(&e, &event("Berlin", "E", "x", "")));
    }

    #[test]
    fn probe_is_conservative_for_scan_profiles() {
        // Wildcards, filter queries and pure negations are scan-only:
        // every event passes the probe and is verified after decode.
        for text in [r#"text ~ "*digital*""#, r#"text ? (digital)"#, r#"NOT host = "X""#] {
            let e = engine_with(&[(1, text)]);
            assert!(probe_hit(&e, &event("Anywhere", "C", "x", "nope")), "{text}");
        }
    }

    #[test]
    fn probe_passes_candidates_with_failing_residuals() {
        // Equalities hold, residual fails: the probe must still pass the
        // event through (it never verifies residuals).
        let e = engine_with(&[(1, r#"host = "London" AND text ? (digital)"#)]);
        assert!(probe_hit(&e, &event("London", "E", "x", "analog stuff")));
        assert!(!probe_hit(&e, &event("Paris", "E", "x", "digital stuff")));
    }

    #[test]
    fn probe_holds_token_and_gram_keyed_conjunctions_to_their_equalities() {
        // A conjunction keyed on something the probe cannot see — a
        // token, a gram — is reached through the guard index and held to
        // all its equality literals there.
        for residual in [r#"text ? (digital)"#, r#"dc.Subject ~ "*digital*""#] {
            let mut e = FilterEngine::with_derived_key_handicap(0);
            let text = format!(r#"host = "London" AND kind = "documents-added" AND {residual}"#);
            e.insert(pid(1), &parse_profile(&text).unwrap()).unwrap();
            assert_eq!(e.stats().index_entries, 1);
            assert!(probe_hit(&e, &event("London", "E", "x", "analog stuff")));
            assert!(!probe_hit(&e, &event("Paris", "E", "x", "digital stuff")));
            assert_eq!(e.matches(&event("London", "E", "digital", "digital")), vec![pid(1)]);
            assert!(e.remove(pid(1)));
            assert!(!probe_hit(&e, &event("London", "E", "x", "digital stuff")));
        }
    }

    #[test]
    fn probe_agrees_with_matches_on_docless_events() {
        let e = engine_with(&[(1, r#"collection = "London.E""#), (2, r#"doc = "d1""#)]);
        let deleted = Event::new(
            EventId::new("London", 9),
            CollectionId::new("London", "E"),
            EventKind::CollectionDeleted,
            SimTime::ZERO,
        );
        assert!(probe_hit(&e, &deleted));
        let other = Event::new(
            EventId::new("Paris", 9),
            CollectionId::new("Paris", "E"),
            EventKind::CollectionDeleted,
            SimTime::ZERO,
        );
        assert!(!probe_hit(&e, &other));
    }

    #[test]
    fn probe_empty_engine_rejects_everything() {
        let e = FilterEngine::new();
        assert!(!probe_hit(&e, &event("London", "E", "dl", "")));
    }

    #[test]
    fn probe_never_false_negative_across_profile_shapes() {
        // For every profile shape and a spread of events: probe=false
        // must imply matches=empty.
        let e = engine_with(&[
            (1, r#"host = "London""#),
            (2, r#"dc.Subject in ["dl", "pubsub"]"#),
            (3, r#"collection = "Paris.E" AND kind = "documents-added""#),
            (4, r#"doc = "d1" AND dc.Subject = "dl""#),
        ]);
        for ev in [
            event("London", "E", "dl", "t"),
            event("Paris", "E", "pubsub", "t"),
            event("Berlin", "C", "none", "t"),
            event("Paris", "E", "x", "t"),
        ] {
            let full = e.matches(&ev);
            let hit = probe_hit(&e, &ev);
            assert!(hit || full.is_empty(), "probe false negative on {ev:?}");
        }
    }
}
