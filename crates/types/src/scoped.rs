//! A hash map with scoped, undoable updates: the value environment of both
//! elaboration phases.
//!
//! Entering a `fun` clause, `case` arm, `fn` arm or `let` takes a
//! [`ScopedMap::mark`]; leaving it calls [`ScopedMap::rollback`], which
//! replays the undo log back to the mark. Each update costs O(1) and is
//! undone once, so walking a program costs time proportional to its size,
//! where copying the map per scope would cost the size of the whole
//! environment at every scope. It is the same discipline phase 2 uses for
//! its index context (`scope_begin`/`scope_end`).
//!
//! Scopes are expected to nest. As with the index context, a scope left
//! early by an error is not rolled back: elaboration aborts on the first
//! error and drops the map.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

/// A position in a [`ScopedMap`]'s undo log, returned by
/// [`ScopedMap::mark`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mark(usize);

/// A `HashMap` plus an undo log of the bindings each update replaced.
#[derive(Debug)]
pub struct ScopedMap<K, V> {
    map: HashMap<K, V>,
    undo: Vec<(K, Option<V>)>,
}

impl<K, V> Default for ScopedMap<K, V> {
    fn default() -> Self {
        ScopedMap { map: HashMap::new(), undo: Vec::new() }
    }
}

impl<K: Eq + Hash + Clone, V> ScopedMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// The value bound to `key`, if any.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.map.get(key)
    }

    /// Binds `key`, shadowing any previous binding until the next
    /// rollback past this point.
    pub fn insert(&mut self, key: K, value: V) {
        let old = self.map.insert(key.clone(), value);
        self.undo.push((key, old));
    }

    /// The current position of the undo log.
    pub fn mark(&self) -> Mark {
        Mark(self.undo.len())
    }

    /// Undoes every update made since `mark`, newest first, so shadowed
    /// bindings come back in reverse order.
    pub fn rollback(&mut self, mark: Mark) {
        while self.undo.len() > mark.0 {
            let (key, old) = self.undo.pop().expect("log longer than mark");
            match old {
                Some(v) => self.map.insert(key, v),
                None => self.map.remove(&key),
            };
        }
    }

    /// The current bindings, in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.map.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rollback_restores_shadowed_bindings_newest_first() {
        let mut m: ScopedMap<String, u32> = ScopedMap::new();
        m.insert("x".into(), 1);
        let outer = m.mark();
        m.insert("x".into(), 2);
        m.insert("y".into(), 3);
        let inner = m.mark();
        m.insert("x".into(), 4);
        assert_eq!(m.get("x"), Some(&4));
        m.rollback(inner);
        assert_eq!(m.get("x"), Some(&2));
        assert_eq!(m.get("y"), Some(&3));
        m.rollback(outer);
        assert_eq!(m.get("x"), Some(&1));
        assert_eq!(m.get("y"), None);
    }

    #[test]
    fn rollback_to_current_mark_is_a_no_op() {
        let mut m: ScopedMap<&str, u32> = ScopedMap::new();
        m.insert("a", 1);
        let here = m.mark();
        m.rollback(here);
        assert_eq!(m.get("a"), Some(&1));
        assert_eq!(m.iter().count(), 1);
    }
}
