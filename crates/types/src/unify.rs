//! First-order unification for erased ML types.

use crate::ml::MlTy;
use std::fmt;

/// A unification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnifyError {
    /// Constructor/shape mismatch.
    Mismatch(MlTy, MlTy),
    /// Occurs-check failure (infinite type).
    Occurs(u32, MlTy),
}

impl fmt::Display for UnifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnifyError::Mismatch(a, b) => write!(f, "cannot unify `{a}` with `{b}`"),
            UnifyError::Occurs(u, t) => write!(f, "occurs check: ?u{u} in `{t}`"),
        }
    }
}

impl std::error::Error for UnifyError {}

/// A unifier: a store of unification-variable bindings.
///
/// Every variable records the let-level at which it was created; binding
/// a variable lowers the levels of the variables in its new type to its
/// own. A variable whose level is still above the current level after
/// leaving a `let` right-hand side is therefore not free in the enclosing
/// environment and may be generalized, with no scan of the environment.
#[derive(Debug, Clone, Default)]
pub struct Unifier {
    /// Binding of each variable, indexed by its id. Indexing by id keeps
    /// the variables of the definition being inferred next to each other
    /// in memory, however large the program.
    bindings: Vec<Option<MlTy>>,
    /// Level of each variable, indexed by its id.
    levels: Vec<u32>,
    /// The current let-level.
    level: u32,
}

impl Unifier {
    /// Creates an empty unifier.
    pub fn new() -> Unifier {
        Unifier::default()
    }

    /// Allocates a fresh unification variable at the current level.
    pub fn fresh(&mut self) -> MlTy {
        let u = self.levels.len() as u32;
        self.levels.push(self.level);
        self.bindings.push(None);
        MlTy::UVar(u)
    }

    /// Number of variables allocated.
    pub fn count(&self) -> u32 {
        self.levels.len() as u32
    }

    /// Enters the right-hand side of a generalizing binding.
    pub fn enter_level(&mut self) {
        self.level += 1;
    }

    /// Leaves the right-hand side entered by the matching
    /// [`Unifier::enter_level`].
    pub fn leave_level(&mut self) {
        self.level -= 1;
    }

    /// Whether the unbound variable `u` was created inside a level that
    /// has since been left and is reachable from no binding at or below
    /// the current level.
    pub fn is_generalizable(&self, u: u32) -> bool {
        self.levels[u as usize] > self.level
    }

    /// Pins every variable of `t` to the current level: `t` is being
    /// bound in the environment without being generalized.
    pub fn pin_to_current_level(&mut self, t: &MlTy) {
        lower_levels(&self.bindings, &mut self.levels, t, self.level);
    }

    /// Resolves the top-level constructor of `t` (path compression not
    /// applied; chains are short in practice).
    pub fn shallow_resolve(&self, t: &MlTy) -> MlTy {
        let mut t = t.clone();
        while let MlTy::UVar(u) = t {
            match &self.bindings[u as usize] {
                Some(next) => t = next.clone(),
                None => return MlTy::UVar(u),
            }
        }
        t
    }

    /// Fully resolves a type, replacing all bound unification variables.
    pub fn resolve(&self, t: &MlTy) -> MlTy {
        match t {
            MlTy::UVar(u) => match &self.bindings[*u as usize] {
                Some(bound) => self.resolve(bound),
                None => MlTy::UVar(*u),
            },
            MlTy::Rigid(n) => MlTy::Rigid(n.clone()),
            MlTy::Con(n, args) => {
                MlTy::Con(n.clone(), args.iter().map(|a| self.resolve(a)).collect())
            }
            MlTy::Tuple(ts) => MlTy::Tuple(ts.iter().map(|t| self.resolve(t)).collect()),
            MlTy::Arrow(a, b) => MlTy::Arrow(Box::new(self.resolve(a)), Box::new(self.resolve(b))),
        }
    }

    fn occurs(&self, u: u32, t: &MlTy) -> bool {
        match t {
            MlTy::UVar(v) => match &self.bindings[*v as usize] {
                Some(bound) => self.occurs(u, bound),
                None => *v == u,
            },
            MlTy::Rigid(_) => false,
            MlTy::Con(_, ts) | MlTy::Tuple(ts) => ts.iter().any(|t| self.occurs(u, t)),
            MlTy::Arrow(a, b) => self.occurs(u, a) || self.occurs(u, b),
        }
    }

    /// Unifies two types, extending the binding store.
    ///
    /// # Errors
    ///
    /// Returns [`UnifyError`] on shape mismatch or occurs-check failure; the
    /// store may be partially extended on failure (callers abort anyway).
    pub fn unify(&mut self, a: &MlTy, b: &MlTy) -> Result<(), UnifyError> {
        let a = self.shallow_resolve(a);
        let b = self.shallow_resolve(b);
        match (&a, &b) {
            (MlTy::UVar(u), MlTy::UVar(v)) if u == v => Ok(()),
            (MlTy::UVar(u), t) | (t, MlTy::UVar(u)) => {
                if self.occurs(*u, t) {
                    return Err(UnifyError::Occurs(*u, t.clone()));
                }
                let level = self.levels[*u as usize];
                lower_levels(&self.bindings, &mut self.levels, t, level);
                self.bindings[*u as usize] = Some(t.clone());
                Ok(())
            }
            (MlTy::Rigid(x), MlTy::Rigid(y)) if x == y => Ok(()),
            (MlTy::Con(n, xs), MlTy::Con(m, ys)) if n == m && xs.len() == ys.len() => {
                for (x, y) in xs.iter().zip(ys) {
                    self.unify(x, y)?;
                }
                Ok(())
            }
            (MlTy::Tuple(xs), MlTy::Tuple(ys)) if xs.len() == ys.len() => {
                for (x, y) in xs.iter().zip(ys) {
                    self.unify(x, y)?;
                }
                Ok(())
            }
            (MlTy::Arrow(x1, y1), MlTy::Arrow(x2, y2)) => {
                self.unify(x1, x2)?;
                self.unify(y1, y2)
            }
            _ => Err(UnifyError::Mismatch(self.resolve(&a), self.resolve(&b))),
        }
    }
}

/// Lowers the level of every unbound variable reachable from `t` to at
/// most `level`.
fn lower_levels(bindings: &[Option<MlTy>], levels: &mut [u32], t: &MlTy, level: u32) {
    match t {
        MlTy::UVar(v) => match &bindings[*v as usize] {
            Some(bound) => lower_levels(bindings, levels, bound, level),
            None => {
                let l = &mut levels[*v as usize];
                *l = (*l).min(level);
            }
        },
        MlTy::Rigid(_) => {}
        MlTy::Con(_, ts) | MlTy::Tuple(ts) => {
            for t in ts {
                lower_levels(bindings, levels, t, level);
            }
        }
        MlTy::Arrow(a, b) => {
            lower_levels(bindings, levels, a, level);
            lower_levels(bindings, levels, b, level);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unify_var_with_type() {
        let mut u = Unifier::new();
        let v = u.fresh();
        u.unify(&v, &MlTy::int()).unwrap();
        assert_eq!(u.resolve(&v), MlTy::int());
    }

    #[test]
    fn unify_propagates_through_arrows() {
        let mut u = Unifier::new();
        let a = u.fresh();
        let b = u.fresh();
        let f1 = MlTy::Arrow(Box::new(a.clone()), Box::new(b.clone()));
        let f2 = MlTy::Arrow(Box::new(MlTy::int()), Box::new(MlTy::bool()));
        u.unify(&f1, &f2).unwrap();
        assert_eq!(u.resolve(&a), MlTy::int());
        assert_eq!(u.resolve(&b), MlTy::bool());
    }

    #[test]
    fn mismatch_reported() {
        let mut u = Unifier::new();
        assert!(matches!(u.unify(&MlTy::int(), &MlTy::bool()), Err(UnifyError::Mismatch(_, _))));
    }

    #[test]
    fn occurs_check_fires() {
        let mut u = Unifier::new();
        let a = u.fresh();
        let t = MlTy::Arrow(Box::new(a.clone()), Box::new(MlTy::int()));
        assert!(matches!(u.unify(&a, &t), Err(UnifyError::Occurs(_, _))));
    }

    #[test]
    fn var_var_chains_resolve() {
        let mut u = Unifier::new();
        let a = u.fresh();
        let b = u.fresh();
        u.unify(&a, &b).unwrap();
        u.unify(&b, &MlTy::unit()).unwrap();
        assert_eq!(u.resolve(&a), MlTy::unit());
    }

    #[test]
    fn rigid_variables_only_unify_with_themselves() {
        let mut u = Unifier::new();
        let r = MlTy::Rigid("a".into());
        assert!(u.unify(&r, &r.clone()).is_ok());
        assert!(u.unify(&r, &MlTy::Rigid("b".into())).is_err());
        assert!(u.unify(&r, &MlTy::int()).is_err());
    }

    #[test]
    fn tuples_unify_pointwise() {
        let mut u = Unifier::new();
        let a = u.fresh();
        u.unify(
            &MlTy::Tuple(vec![a.clone(), MlTy::int()]),
            &MlTy::Tuple(vec![MlTy::bool(), MlTy::int()]),
        )
        .unwrap();
        assert_eq!(u.resolve(&a), MlTy::bool());
        assert!(u
            .unify(&MlTy::Tuple(vec![MlTy::int()]), &MlTy::Tuple(vec![MlTy::int(), MlTy::int()]))
            .is_err());
    }

    #[test]
    fn binding_lowers_levels_of_the_bound_type() {
        let mut u = Unifier::new();
        let outer = u.fresh();
        u.enter_level();
        let inner = u.fresh();
        let deep = u.fresh();
        u.unify(&outer, &MlTy::list(inner.clone())).unwrap();
        u.leave_level();
        let (MlTy::UVar(i), MlTy::UVar(d)) = (inner, deep) else { unreachable!() };
        // `inner` is now reachable from the outer variable; `deep` is not.
        assert!(!u.is_generalizable(i));
        assert!(u.is_generalizable(d));
        u.pin_to_current_level(&MlTy::UVar(d));
        assert!(!u.is_generalizable(d));
    }
}
