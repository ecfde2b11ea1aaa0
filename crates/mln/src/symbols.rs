//! String interning.
//!
//! Every name in an MLN program — constants, predicate names, type names —
//! is interned to a dense `u32` [`Symbol`]. Grounding and search operate
//! exclusively on symbols; strings are only materialized for display. This
//! mirrors Tuffy's practice of mapping constants to integer ids before
//! bulk-loading them into the RDBMS.

use crate::fxhash::FxHashMap;
use std::fmt;

/// An interned string. Cheap to copy, hash, and compare.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(transparent)]
pub struct Symbol(pub u32);

impl Symbol {
    /// The raw index of this symbol in its [`SymbolTable`].
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Views raw symbol ids (the columns the atom registry and the RDBMS
    /// keep) as symbols, without copying.
    #[inline]
    pub fn from_ids(ids: &[u32]) -> &[Symbol] {
        // SAFETY: `Symbol` is `repr(transparent)` over `u32`, so a slice
        // of either has the same layout; length and lifetime carry over.
        unsafe { std::slice::from_raw_parts(ids.as_ptr().cast::<Symbol>(), ids.len()) }
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sym#{}", self.0)
    }
}

/// An append-only intern table mapping strings to [`Symbol`]s.
#[derive(Default, Clone)]
pub struct SymbolTable {
    names: Vec<Box<str>>,
    index: FxHashMap<Box<str>, Symbol>,
}

impl SymbolTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its existing symbol if already present.
    pub fn intern(&mut self, name: &str) -> Symbol {
        if let Some(&sym) = self.index.get(name) {
            return sym;
        }
        let sym = Symbol(u32::try_from(self.names.len()).expect("symbol table overflow"));
        let boxed: Box<str> = name.into();
        self.names.push(boxed.clone());
        self.index.insert(boxed, sym);
        sym
    }

    /// Looks up a symbol without interning.
    pub fn get(&self, name: &str) -> Option<Symbol> {
        self.index.get(name).copied()
    }

    /// Resolves a symbol back to its string.
    ///
    /// # Panics
    /// Panics if `sym` was not produced by this table.
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.names[sym.index()]
    }

    /// Number of interned symbols.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

impl fmt::Debug for SymbolTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SymbolTable")
            .field("len", &self.names.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut t = SymbolTable::new();
        let a = t.intern("Joe");
        let b = t.intern("Joe");
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn resolve_roundtrip() {
        let mut t = SymbolTable::new();
        let names = ["P1", "P2", "DB", "Networking"];
        let syms: Vec<Symbol> = names.iter().map(|n| t.intern(n)).collect();
        for (name, sym) in names.iter().zip(&syms) {
            assert_eq!(t.resolve(*sym), *name);
            assert_eq!(t.get(name), Some(*sym));
        }
        assert_eq!(t.get("absent"), None);
    }

    #[test]
    fn symbols_are_dense() {
        let mut t = SymbolTable::new();
        for i in 0..100 {
            let s = t.intern(&format!("c{i}"));
            assert_eq!(s.index(), i);
        }
    }
}
