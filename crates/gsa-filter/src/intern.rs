//! String interning for the filter index.
//!
//! The equality-preferred index is probed once per attribute value of an
//! incoming event. Keying the index by interned [`Symbol`]s instead of
//! owned strings buys two things:
//!
//! * index probes hash a `(Symbol, Symbol)` pair (two `u32`s) instead of
//!   two heap strings, and
//! * an event value that was never mentioned by any profile fails the
//!   symbol lookup immediately, before touching the posting index at all.
//!
//! Each name is stored once: all of them back to back in one text buffer,
//! one `u32` end offset per symbol, and — for the names a string can
//! intern to — one slot of an open-addressed table at most three quarters
//! full: a tag byte of the name's hash and, in an array of its own, the
//! symbol. That is a name's bytes plus some 11 to 22 more and no heap
//! block. Symbols are never freed: profile vocabularies are small and
//! heavily shared (hosts, collection names, metadata values), so the
//! buffers only grow with the number of *distinct* strings ever inserted
//! — up to 2³² symbols and 4 GiB of text, past which
//! [`SymbolTable::intern`] panics. (A posting list spends a bit of its
//! conjunction ids on spilling, which bounds *those* at 2³¹.)

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// An interned string: a dense index into a [`SymbolTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct Symbol(u32);

impl Symbol {
    /// A symbol carrying `raw` itself rather than a table index. Only
    /// meaningful as the value half of a pair whose attribute half is
    /// [reserved](SymbolTable::reserve): there the value namespace is the
    /// caller's own, and small fixed-width data (a gram window, packed or
    /// hashed to 32 bits) needs no table entry and no lookup.
    pub(crate) fn from_raw(raw: u32) -> Symbol {
        Symbol(raw)
    }
}

/// A fast, non-cryptographic hasher (FxHash-style multiply-rotate).
///
/// The filter index is built from trusted, engine-assigned keys — dense
/// symbol pairs and short attribute strings — so hash-flooding resistance
/// is not needed and the cheaper mix wins on every probe.
#[derive(Debug, Default, Clone)]
pub(crate) struct FxHasher {
    hash: u64,
}

/// `BuildHasher` for [`FxHasher`].
pub(crate) type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`].
pub(crate) type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word) | ((rest.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// An append-only string-to-[`Symbol`] table.
#[derive(Debug, Default)]
pub(crate) struct SymbolTable {
    /// Every name, in symbol order, with nothing in between.
    text: String,
    /// Where in `text` each symbol's name ends; it starts where the
    /// previous one ends.
    ends: Vec<u32>,
    /// The reserved symbols, ascending: named in `text`, not in the table.
    reserved: Vec<u32>,
    /// The table, a byte per slot: 0 if empty, else a tag of the hash of
    /// the name there; linear probing from the slot the hash's top bits
    /// name. Empty or a power of two (8 or more) long, at most ¾ full.
    /// An array of its own because nearly every lookup an event makes is
    /// a miss, decided by the tag bytes up to the next empty slot — 512 KiB
    /// for 250 000 names, which stays in cache — and by nothing else.
    tags: Vec<u8>,
    /// The symbol in each occupied slot.
    syms: Vec<u32>,
}

fn hash_of(s: &str) -> u64 {
    let mut hasher = FxHasher::default();
    hasher.write(s.as_bytes());
    hasher.finish()
}

/// A name's tag: hash bits its home slot does not use, never 0.
fn tag_of(hash: u64) -> u8 {
    ((hash >> 32) as u8).max(1)
}

impl SymbolTable {
    /// Creates an empty table.
    pub(crate) fn new() -> Self {
        SymbolTable::default()
    }

    /// Where probing for `hash` starts. The table is not empty, so this
    /// shifts by less than 64.
    fn home(&self, hash: u64) -> usize {
        (hash >> (64 - self.tags.len().trailing_zeros())) as usize
    }

    /// Where in `text` the symbol's name is.
    fn span(&self, sym: u32) -> std::ops::Range<usize> {
        let at = sym as usize;
        let start = at.checked_sub(1).map_or(0, |prev| self.ends[prev]);
        start as usize..self.ends[at] as usize
    }

    /// The symbol `s` interned to, or the empty slot its probe ended at.
    /// The table is not empty (and never full).
    fn probe(&self, s: &str, hash: u64) -> Result<Symbol, usize> {
        let mask = self.tags.len() - 1;
        let tag = tag_of(hash);
        let mut at = self.home(hash);
        loop {
            let held = self.tags[at];
            if held == 0 {
                return Err(at);
            }
            // `syms` is read on a tag match only.
            if held == tag && self.text.as_bytes()[self.span(self.syms[at])] == *s.as_bytes() {
                return Ok(Symbol(self.syms[at]));
            }
            at = (at + 1) & mask;
        }
    }

    /// Doubles the table and places every interned name again.
    fn grow(&mut self) {
        let doubled = (self.tags.len() * 2).max(8);
        self.tags = vec![0; doubled];
        self.syms = vec![0; doubled];
        let interned = |sym: &u32| self.reserved.binary_search(sym).is_err();
        for sym in (0..self.ends.len() as u32).filter(interned) {
            let name = &self.text[self.span(sym)];
            let hash = hash_of(name);
            let at = self.probe(name, hash).expect_err("names are distinct");
            (self.tags[at], self.syms[at]) = (tag_of(hash), sym);
        }
    }

    /// Appends a name, numbering it with the next symbol.
    fn push_name(&mut self, name: &str) -> u32 {
        let sym = u32::try_from(self.ends.len()).expect("symbol table overflow");
        self.text.push_str(name);
        self.ends
            .push(u32::try_from(self.text.len()).expect("symbol text overflow"));
        sym
    }

    /// Interns `s`, returning its (new or existing) symbol.
    pub(crate) fn intern(&mut self, s: &str) -> Symbol {
        // Room for one more first, so the slot a miss ends at stays valid.
        let interned = self.ends.len() - self.reserved.len();
        if (interned + 1) * 4 > self.tags.len() * 3 {
            self.grow();
        }
        let hash = hash_of(s);
        match self.probe(s, hash) {
            Ok(sym) => sym,
            Err(at) => {
                let sym = self.push_name(s);
                (self.tags[at], self.syms[at]) = (tag_of(hash), sym);
                Symbol(sym)
            }
        }
    }

    /// Allocates a symbol that no string interns to: neither
    /// [`intern`](Self::intern) nor [`lookup`](Self::lookup) ever returns
    /// it, so a pair keyed under it cannot collide with any attribute
    /// name or value a profile or an event can spell. `label` is only
    /// what the table's text holds for it.
    pub(crate) fn reserve(&mut self, label: &str) -> Symbol {
        let sym = self.push_name(label);
        self.reserved.push(sym);
        Symbol(sym)
    }

    /// Looks up an already-interned string without inserting.
    ///
    /// This is the hot-path entry point: event attribute values that no
    /// profile ever mentioned return `None` here and skip the index.
    #[inline]
    pub(crate) fn lookup(&self, s: &str) -> Option<Symbol> {
        if self.tags.is_empty() {
            return None;
        }
        self.probe(s, hash_of(s)).ok()
    }

    /// Number of symbols: distinct interned strings plus reserved ones.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl SymbolTable {
        /// The string a symbol was interned from: the round trip these
        /// tests check.
        fn resolve(&self, sym: Symbol) -> &str {
            &self.text[self.span(sym.0)]
        }
    }

    #[test]
    fn intern_is_idempotent() {
        let mut t = SymbolTable::new();
        let a = t.intern("host");
        let b = t.intern("host");
        let c = t.intern("kind");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(t.len(), 2);
        assert_eq!(t.resolve(a), "host");
        assert_eq!(t.resolve(c), "kind");
    }

    #[test]
    fn lookup_does_not_insert() {
        let mut t = SymbolTable::new();
        assert_eq!(t.len(), 0);
        assert_eq!(t.lookup("missing"), None);
        assert_eq!(t.len(), 0);
        let sym = t.intern("present");
        assert_eq!(t.lookup("present"), Some(sym));
    }

    #[test]
    fn reserved_symbols_are_unreachable_by_string() {
        let mut t = SymbolTable::new();
        let reserved = t.reserve("token");
        assert_eq!(t.lookup("token"), None);
        assert_ne!(t.intern("token"), reserved);
        assert_eq!(t.resolve(reserved), "token");
    }

    #[test]
    fn names_are_told_apart_by_their_bounds_not_their_bytes() {
        // "ab" + "c" and "a" + "bc" lay down the same text.
        let mut t = SymbolTable::new();
        let (ab, c) = (t.intern("ab"), t.intern("c"));
        assert_eq!(
            (t.lookup("a"), t.lookup("bc"), t.lookup("abc")),
            (None, None, None)
        );
        let (a, bc) = (t.intern("a"), t.intern("bc"));
        let empty = t.intern("");
        assert_eq!(t.len(), 5);
        for (sym, name) in [(ab, "ab"), (c, "c"), (a, "a"), (bc, "bc"), (empty, "")] {
            assert_eq!((t.lookup(name), t.resolve(sym)), (Some(sym), name));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Against `HashMap<String, u32>`, through the table's first four
        /// growths and more: arbitrary Unicode names over a small alphabet
        /// (so they repeat, prefix one another and concatenate alike), the
        /// empty name, and reserved symbols in between, whose labels are
        /// other symbols' names.
        #[test]
        fn the_table_is_the_map_it_replaces(
            names in prop::collection::vec(
                prop::collection::vec(prop::sample::select(&['a', 'b', 'é', '\u{212a}', '𝄞'][..]), 0..5),
                100..300,
            ),
            extra in prop::collection::vec('\u{0}'..'\u{10ffff}', 0..12),
            reserve_every in 2usize..9,
        ) {
            let mut table = SymbolTable::new();
            let mut model: HashMap<String, u32> = HashMap::new();
            let mut reserved: Vec<(Symbol, String)> = Vec::new();
            let mut growths = 0;
            let names = names.into_iter().map(String::from_iter);
            for (step, name) in names.chain([String::from_iter(extra)]).enumerate() {
                prop_assert_eq!(table.lookup(&name).map(|s| s.0), model.get(&name).copied());
                let slots = table.tags.len();
                let next = table.len() as u32;
                let sym = table.intern(&name);
                prop_assert_eq!(sym.0, *model.entry(name.clone()).or_insert(next));
                prop_assert_eq!(table.resolve(sym), name.as_str());
                growths += usize::from(table.tags.len() != slots);
                if step % reserve_every == 0 {
                    reserved.push((table.reserve(&name), name));
                }
                prop_assert_eq!(table.len(), model.len() + reserved.len());
            }
            prop_assert!(growths >= 3, "{growths} growths");
            prop_assert!(model.len() * 4 <= table.tags.len() * 3);
            prop_assert_eq!(table.tags.iter().filter(|&&tag| tag != 0).count(), model.len());
            for (name, &sym) in &model {
                prop_assert_eq!(table.lookup(name), Some(Symbol(sym)));
                prop_assert_eq!(table.intern(name), Symbol(sym));
                prop_assert_eq!(table.resolve(Symbol(sym)), name.as_str());
            }
            for (sym, label) in &reserved {
                prop_assert_eq!(table.resolve(*sym), label.as_str());
                prop_assert_ne!(table.lookup(label), Some(*sym));
            }
        }
    }

    #[test]
    fn fx_hasher_distinguishes_pairs() {
        use std::hash::BuildHasher;
        let build = FxBuildHasher::default();
        let hash = |pair: (Symbol, Symbol)| build.hash_one(pair);
        let a = hash((Symbol(1), Symbol(2)));
        let b = hash((Symbol(2), Symbol(1)));
        let c = hash((Symbol(1), Symbol(2)));
        assert_eq!(a, c);
        assert_ne!(a, b);
    }

    #[test]
    fn fx_hasher_tail_bytes_matter() {
        use std::hash::Hasher;
        let mut a = FxHasher::default();
        a.write(b"abcdefgh-x");
        let mut b = FxHasher::default();
        b.write(b"abcdefgh-y");
        assert_ne!(a.finish(), b.finish());
    }
}
