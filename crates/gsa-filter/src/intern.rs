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
//! Symbols are never freed: profile vocabularies are small and heavily
//! shared (hosts, collection names, metadata values), so the table only
//! grows with the number of *distinct* strings ever inserted.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// An interned string: a dense index into a [`SymbolTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

impl Symbol {
    /// The raw table index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// A symbol carrying `raw` itself rather than a table index. Only
    /// meaningful as the value half of a pair whose attribute half is
    /// [reserved](SymbolTable::reserve): there the value namespace is the
    /// caller's own, and small fixed-width data (a packed trigram) needs
    /// no table entry and no lookup.
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
pub struct FxHasher {
    hash: u64,
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

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
pub struct SymbolTable {
    map: FxHashMap<String, Symbol>,
    names: Vec<String>,
}

impl SymbolTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        SymbolTable::default()
    }

    /// Interns `s`, returning its (new or existing) symbol.
    pub fn intern(&mut self, s: &str) -> Symbol {
        if let Some(&sym) = self.map.get(s) {
            return sym;
        }
        let sym = Symbol(u32::try_from(self.names.len()).expect("symbol table overflow"));
        self.names.push(s.to_string());
        self.map.insert(s.to_string(), sym);
        sym
    }

    /// Allocates a symbol that no string interns to: neither
    /// [`intern`](Self::intern) nor [`lookup`](Self::lookup) ever returns
    /// it, so a pair keyed under it cannot collide with any attribute
    /// name or value a profile or an event can spell. `label` is only
    /// what [`resolve`](Self::resolve) shows.
    pub fn reserve(&mut self, label: &str) -> Symbol {
        let sym = Symbol(u32::try_from(self.names.len()).expect("symbol table overflow"));
        self.names.push(label.to_string());
        sym
    }

    /// Looks up an already-interned string without inserting.
    ///
    /// This is the hot-path entry point: event attribute values that no
    /// profile ever mentioned return `None` here and skip the index.
    #[inline]
    pub fn lookup(&self, s: &str) -> Option<Symbol> {
        self.map.get(s).copied()
    }

    /// The string a symbol was interned from.
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.names[sym.index()]
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no strings were interned yet.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(t.is_empty());
        assert_eq!(t.lookup("missing"), None);
        assert!(t.is_empty());
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
