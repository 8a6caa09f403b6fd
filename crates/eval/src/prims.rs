//! Built-in primitives: the refined standard basis at run time.
//!
//! `sub`/`update`/`nth` are the *eliminable-check* primitives: their bound
//! check executes or is skipped according to the machine's
//! [`CheckConfig`](crate::interp::CheckConfig).
//! `subCK`/`updateCK`/`nthCK` always check (the escape hatch of the KMP
//! example). Arithmetic follows SML semantics: `div`/`mod` floor, and a
//! result outside `i64` raises `Overflow` instead of wrapping, so every
//! value that reaches a guard equals its value in ℤ — the integers the
//! solver reasons over.
//!
//! Primitives are resolved once, when a program is loaded: a name becomes
//! a [`Prim`], and a saturated call `p (e1, …, en)` passes its evaluated
//! arguments to [`call`] as a slice, without building the tuple.

use crate::error::EvalError;
use crate::interp::{Machine, Mode};
use crate::value::Value;
use dml_syntax::Span;

/// Declares [`Prim`] and its source names from one table.
macro_rules! prims {
    ($($prim:ident = $name:literal,)*) => {
        /// A built-in primitive.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Prim {
            $(#[doc = concat!("`", $name, "`")] $prim,)*
        }

        impl Prim {
            /// Every primitive.
            #[cfg(test)]
            const ALL: &'static [Prim] = &[$(Prim::$prim,)*];

            /// The primitive a source name denotes, if any.
            pub fn from_name(name: &str) -> Option<Prim> {
                match name {
                    $($name => Some(Prim::$prim),)*
                    _ => None,
                }
            }

            /// The source name.
            pub fn name(self) -> &'static str {
                match self {
                    $(Prim::$prim => $name,)*
                }
            }
        }
    };
}

prims! {
    Add = "+",
    Sub = "-",
    Mul = "*",
    Div = "div",
    Mod = "mod",
    Neg = "neg",
    Abs = "iabs",
    Min = "imin",
    Max = "imax",
    Eq = "=",
    Ne = "<>",
    Lt = "<",
    Le = "<=",
    Gt = ">",
    Ge = ">=",
    Not = "not",
    Length = "length",
    ArraySub = "sub",
    ArrayUpdate = "update",
    Array = "array",
    ArraySubCk = "subCK",
    ArrayUpdateCk = "updateCK",
    ListLength = "llength",
    Nth = "nth",
    NthCk = "nthCK",
    PrintInt = "print_int",
}

impl Prim {
    /// Whether the primitive's bound/tag check is skipped at a proven site
    /// in eliminated mode (`sub`, `update`, `nth`; not their `CK` forms).
    pub fn eliminable(self) -> bool {
        matches!(self, Prim::ArraySub | Prim::ArrayUpdate | Prim::Nth)
    }

    /// Number of arguments: unary primitives take their argument as is,
    /// the others take a tuple of this many components.
    pub fn arity(self) -> usize {
        match self {
            Prim::Neg
            | Prim::Abs
            | Prim::Not
            | Prim::Length
            | Prim::ListLength
            | Prim::PrintInt => 1,
            Prim::ArrayUpdate | Prim::ArrayUpdateCk => 3,
            _ => 2,
        }
    }
}

fn int1(arg: &Value, span: Span) -> Result<i64, EvalError> {
    arg.as_int().ok_or_else(|| EvalError::Type("expected an integer".into(), span))
}

fn int2(args: &[Value], span: Span) -> Result<(i64, i64), EvalError> {
    match args {
        [Value::Int(a), Value::Int(b)] => Ok((*a, *b)),
        _ => Err(EvalError::Type("expected a pair of integers".into(), span)),
    }
}

/// SML flooring division; `None` when the quotient leaves `i64`
/// (`i64::MIN div ~1`). `b` is non-zero.
fn floor_div(a: i64, b: i64) -> Option<i64> {
    let q = a.checked_div(b)?;
    Some(if a % b != 0 && ((a < 0) != (b < 0)) { q - 1 } else { q })
}

/// SML `mod`: the remainder takes the divisor's sign. Never overflows
/// (`i64::MIN mod ~1` is 0). `b` is non-zero.
fn floor_mod(a: i64, b: i64) -> i64 {
    let r = a.wrapping_rem(b);
    if r != 0 && ((r < 0) != (b < 0)) {
        r + b
    } else {
        r
    }
}

/// Executes (or, with `skip`, skips) a bound/tag check for index `i`
/// against `len`.
fn run_check(
    m: &mut Machine,
    i: i64,
    len: usize,
    site: Span,
    always_check: bool,
    is_array: bool,
    skip: bool,
) -> Result<(), EvalError> {
    if skip {
        if is_array {
            m.counters.array_checks_eliminated += 1;
        } else {
            m.counters.tag_checks_eliminated += 1;
        }
        if m.config.validate && (i < 0 || i as usize >= len) {
            return Err(EvalError::UnsoundElimination { index: i, len, site });
        }
        return Ok(());
    }
    if is_array {
        m.counters.array_checks_executed += 1;
    } else {
        m.counters.tag_checks_executed += 1;
    }
    // In eliminated mode an executed non-`*CK` check is a *residual* check:
    // the solver left it in the program instead of proving it away.
    if !always_check && m.config.mode == Mode::Eliminated {
        if is_array {
            m.counters.array_checks_residual += 1;
        } else {
            m.counters.tag_checks_residual += 1;
        }
    }
    // The abstract cost model charges a fixed 4 ops per executed check
    // (compare, compare, branch, branch) regardless of the wall-clock
    // `check_cost` knob, so the deterministic op-gain metric reflects a
    // native-like check/access ratio.
    m.ops += 4;
    // The check itself, repeated `check_cost` times with a data dependency
    // to model platforms where a bound check is a larger fraction of an
    // access (see `dml::experiments::table2` for how the two table
    // constants relate to the measured cost of one interpreted access).
    if out_of_bounds(i, len, m.config.check_cost.max(1)) {
        if is_array {
            Err(EvalError::BoundsViolation { index: i, len, site })
        } else {
            Err(EvalError::TagViolation { index: i, site })
        }
    } else {
        Ok(())
    }
}

/// The bound comparison, repeated `rounds` times with a data dependency.
/// Kept out of line so that the cost of a round, the unit of the Tables
/// 2–3 cost models, does not depend on the code it is inlined into.
#[inline(never)]
fn out_of_bounds(i: i64, len: usize, rounds: u32) -> bool {
    let mut fail = false;
    let mut x = i;
    for _ in 0..rounds {
        x = std::hint::black_box(x);
        fail |= x < 0 || x as usize >= len;
    }
    fail
}

/// Applies primitive `p` to a single argument value, unpacking a tuple
/// argument into its components.
///
/// # Errors
///
/// As [`call`], plus a dynamic type error when the argument does not have
/// the primitive's shape.
pub fn apply(m: &mut Machine, p: Prim, arg: Value, span: Span) -> Result<Value, EvalError> {
    let k = p.arity();
    if k == 1 {
        return call(m, p, std::slice::from_ref(&arg), span);
    }
    match &arg {
        Value::Tuple(vs) if vs.len() == k => call(m, p, vs, span),
        other => Err(match p {
            Prim::Array => EvalError::Type(format!("array on `{other}`"), span),
            Prim::ArraySub | Prim::ArraySubCk => EvalError::Type(format!("sub on `{other}`"), span),
            Prim::ArrayUpdate | Prim::ArrayUpdateCk => {
                EvalError::Type(format!("update on `{other}`"), span)
            }
            Prim::Nth | Prim::NthCk => EvalError::Type(format!("nth on `{other}`"), span),
            _ => EvalError::Type("expected a pair of integers".into(), span),
        }),
    }
}

/// Calls primitive `p` on its arguments; `args.len()` is `p.arity()`.
/// An eliminable check is skipped when `span` is a proven site of the
/// machine's configuration in eliminated mode.
///
/// # Errors
///
/// Returns bound/tag violations, `Overflow`, division by zero, or dynamic
/// type errors (the latter unreachable after phase-1 checking).
pub fn call(m: &mut Machine, p: Prim, args: &[Value], span: Span) -> Result<Value, EvalError> {
    let skip =
        p.eliminable() && m.config.mode == Mode::Eliminated && m.config.proven.contains(&span);
    exec(m, p, args, span, skip)
}

/// [`call`] with the skip decision for an eliminable check already made.
pub(crate) fn exec(
    m: &mut Machine,
    p: Prim,
    args: &[Value],
    span: Span,
    skip: bool,
) -> Result<Value, EvalError> {
    debug_assert_eq!(args.len(), p.arity(), "{}", p.name());
    let overflow = || EvalError::Overflow(span);
    match p {
        Prim::Add => {
            let (a, b) = int2(args, span)?;
            a.checked_add(b).map(Value::Int).ok_or_else(overflow)
        }
        Prim::Sub => {
            let (a, b) = int2(args, span)?;
            a.checked_sub(b).map(Value::Int).ok_or_else(overflow)
        }
        Prim::Mul => {
            let (a, b) = int2(args, span)?;
            a.checked_mul(b).map(Value::Int).ok_or_else(overflow)
        }
        Prim::Div => {
            let (a, b) = int2(args, span)?;
            if b == 0 {
                return Err(EvalError::DivisionByZero(span));
            }
            floor_div(a, b).map(Value::Int).ok_or_else(overflow)
        }
        Prim::Mod => {
            let (a, b) = int2(args, span)?;
            if b == 0 {
                return Err(EvalError::DivisionByZero(span));
            }
            Ok(Value::Int(floor_mod(a, b)))
        }
        Prim::Neg => int1(&args[0], span)?.checked_neg().map(Value::Int).ok_or_else(overflow),
        Prim::Abs => int1(&args[0], span)?.checked_abs().map(Value::Int).ok_or_else(overflow),
        Prim::Min => int2(args, span).map(|(a, b)| Value::Int(a.min(b))),
        Prim::Max => int2(args, span).map(|(a, b)| Value::Int(a.max(b))),
        Prim::Eq => int2(args, span).map(|(a, b)| Value::Bool(a == b)),
        Prim::Ne => int2(args, span).map(|(a, b)| Value::Bool(a != b)),
        Prim::Lt => int2(args, span).map(|(a, b)| Value::Bool(a < b)),
        Prim::Le => int2(args, span).map(|(a, b)| Value::Bool(a <= b)),
        Prim::Gt => int2(args, span).map(|(a, b)| Value::Bool(a > b)),
        Prim::Ge => int2(args, span).map(|(a, b)| Value::Bool(a >= b)),
        Prim::Not => match &args[0] {
            Value::Bool(b) => Ok(Value::Bool(!b)),
            other => Err(EvalError::Type(format!("not on `{other}`"), span)),
        },
        Prim::Length => match &args[0] {
            Value::Array(cells) => Ok(Value::Int(cells.borrow().len() as i64)),
            other => Err(EvalError::Type(format!("length on `{other}`"), span)),
        },
        Prim::Array => {
            let n = int1(&args[0], span)?;
            if n < 0 {
                return Err(EvalError::NegativeArraySize(n, span));
            }
            Ok(Value::array(vec![args[1].clone(); n as usize]))
        }
        Prim::ArraySub | Prim::ArraySubCk => {
            let i = int1(&args[1], span)?;
            match &args[0] {
                Value::Array(cells) => {
                    let len = cells.borrow().len();
                    run_check(m, i, len, span, p == Prim::ArraySubCk, true, skip)?;
                    cells.borrow().get(i as usize).cloned().ok_or(EvalError::UnsoundElimination {
                        index: i,
                        len,
                        site: span,
                    })
                }
                other => Err(EvalError::Type(format!("sub on `{other}`"), span)),
            }
        }
        Prim::ArrayUpdate | Prim::ArrayUpdateCk => {
            let i = int1(&args[1], span)?;
            match &args[0] {
                Value::Array(cells) => {
                    let len = cells.borrow().len();
                    run_check(m, i, len, span, p == Prim::ArrayUpdateCk, true, skip)?;
                    match cells.borrow_mut().get_mut(i as usize) {
                        Some(cell) => {
                            *cell = args[2].clone();
                            Ok(Value::Unit)
                        }
                        None => Err(EvalError::UnsoundElimination { index: i, len, site: span }),
                    }
                }
                other => Err(EvalError::Type(format!("update on `{other}`"), span)),
            }
        }
        Prim::ListLength => {
            let mut n = 0i64;
            let mut cur = &args[0];
            loop {
                match cur {
                    Value::Con(c, None) if &**c == "nil" => return Ok(Value::Int(n)),
                    Value::Con(c, Some(pair)) if &**c == "::" => match pair.as_ref() {
                        Value::Tuple(vs) if vs.len() == 2 => {
                            n += 1;
                            cur = &vs[1];
                        }
                        _ => return Err(EvalError::Type("malformed list".into(), span)),
                    },
                    other => return Err(EvalError::Type(format!("llength on `{other}`"), span)),
                }
            }
        }
        Prim::Nth | Prim::NthCk => {
            let i = int1(&args[1], span)?;
            // One tag check per access, as in the paper's list-access
            // benchmark; the length is only computed when checking.
            let always = p == Prim::NthCk;
            let len = if !skip || m.config.validate {
                list_len(&args[0])
                    .ok_or_else(|| EvalError::Type("nth on a non-list".into(), span))?
            } else {
                usize::MAX
            };
            run_check(m, i, len, span, always, false, skip)?;
            nth_unchecked(&args[0], i, span)
        }
        Prim::PrintInt => Ok(Value::Unit),
    }
}

fn list_len(v: &Value) -> Option<usize> {
    let mut n = 0usize;
    let mut cur = v;
    loop {
        match cur {
            Value::Con(c, None) if &**c == "nil" => return Some(n),
            Value::Con(c, Some(pair)) if &**c == "::" => match pair.as_ref() {
                Value::Tuple(vs) if vs.len() == 2 => {
                    n += 1;
                    cur = &vs[1];
                }
                _ => return None,
            },
            _ => return None,
        }
    }
}

fn nth_unchecked(v: &Value, i: i64, span: Span) -> Result<Value, EvalError> {
    let mut cur = v;
    let mut k = i;
    loop {
        match cur {
            Value::Con(c, Some(pair)) if &**c == "::" => match pair.as_ref() {
                Value::Tuple(vs) if vs.len() == 2 => {
                    if k == 0 {
                        return Ok(vs[0].clone());
                    }
                    k -= 1;
                    cur = &vs[1];
                }
                _ => return Err(EvalError::Type("malformed list".into(), span)),
            },
            _ => return Err(EvalError::TagViolation { index: i, site: span }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::CheckConfig;
    use dml_syntax::parse_program;
    use std::rc::Rc;

    fn empty_machine() -> Machine {
        let p = parse_program("").unwrap();
        Machine::load(&p, CheckConfig::checked()).unwrap()
    }

    fn pair(a: Value, b: Value) -> Value {
        Value::Tuple(Rc::new(vec![a, b]))
    }

    fn int_op(m: &mut Machine, p: Prim, a: i64, b: i64) -> Result<i64, EvalError> {
        apply(m, p, pair(Value::Int(a), Value::Int(b)), Span::default())
            .map(|v| v.as_int().unwrap())
    }

    #[test]
    fn names_round_trip() {
        for &p in Prim::ALL {
            assert_eq!(Prim::from_name(p.name()), Some(p));
        }
        assert_eq!(Prim::ALL.len(), 26);
        assert_eq!(Prim::from_name("subck"), None);
    }

    #[test]
    fn arithmetic_prims() {
        let mut m = empty_machine();
        let s = Span::default();
        assert_eq!(int_op(&mut m, Prim::Add, 2, 3), Ok(5));
        assert_eq!(int_op(&mut m, Prim::Min, 2, -3), Ok(-3));
        assert_eq!(apply(&mut m, Prim::Neg, Value::Int(7), s).unwrap().as_int(), Some(-7));
        assert_eq!(apply(&mut m, Prim::Abs, Value::Int(-7), s).unwrap().as_int(), Some(7));
    }

    #[test]
    fn floor_div_mod() {
        let mut m = empty_machine();
        assert_eq!(int_op(&mut m, Prim::Div, -7, 2), Ok(-4));
        assert_eq!(int_op(&mut m, Prim::Mod, -7, 2), Ok(1));
        assert_eq!(int_op(&mut m, Prim::Mod, 7, -2), Ok(-1));
        assert_eq!(int_op(&mut m, Prim::Mod, -6, 2), Ok(0));
    }

    #[test]
    fn arithmetic_leaving_i64_raises_overflow() {
        let mut m = empty_machine();
        let s = Span::new(3, 4);
        let ovf = Err(EvalError::Overflow(s));
        let op = |m: &mut Machine, p, a, b| apply(m, p, pair(Value::Int(a), Value::Int(b)), s);
        assert_eq!(op(&mut m, Prim::Add, i64::MAX, 1).map(|v| v.as_int()), ovf.clone());
        assert_eq!(op(&mut m, Prim::Sub, i64::MIN, 1).map(|v| v.as_int()), ovf.clone());
        assert_eq!(op(&mut m, Prim::Mul, i64::MAX / 2 + 1, 2).map(|v| v.as_int()), ovf.clone());
        assert_eq!(op(&mut m, Prim::Div, i64::MIN, -1).map(|v| v.as_int()), ovf.clone());
        assert_eq!(apply(&mut m, Prim::Neg, Value::Int(i64::MIN), s).map(|v| v.as_int()), ovf);
        assert_eq!(
            apply(&mut m, Prim::Abs, Value::Int(i64::MIN), s).map(|v| v.as_int()),
            Err(EvalError::Overflow(s))
        );
        // The edges that stay in range are exact.
        assert_eq!(int_op(&mut m, Prim::Mod, i64::MIN, -1), Ok(0));
        assert_eq!(int_op(&mut m, Prim::Div, i64::MIN, 1), Ok(i64::MIN));
        assert_eq!(int_op(&mut m, Prim::Add, i64::MAX, i64::MIN), Ok(-1));
        assert_eq!(int_op(&mut m, Prim::Mul, i64::MIN, 1), Ok(i64::MIN));
    }

    #[test]
    fn array_prims_and_counters() {
        let mut m = empty_machine();
        let s = Span::new(1, 5);
        let arr = apply(&mut m, Prim::Array, pair(Value::Int(4), Value::Int(0)), s).unwrap();
        assert_eq!(apply(&mut m, Prim::Length, arr.clone(), s).unwrap().as_int(), Some(4));
        call(&mut m, Prim::ArrayUpdate, &[arr.clone(), Value::Int(2), Value::Int(9)], s).unwrap();
        let v = apply(&mut m, Prim::ArraySub, pair(arr.clone(), Value::Int(2)), s).unwrap();
        assert_eq!(v.as_int(), Some(9));
        assert_eq!(m.counters.array_checks_executed, 2);
        assert_eq!(m.counters.array_checks_eliminated, 0);
    }

    #[test]
    fn eliminated_mode_skips_proven_sites() {
        let mut m = empty_machine();
        let site = Span::new(10, 20);
        let mut proven = std::collections::HashSet::new();
        proven.insert(site);
        m.config = CheckConfig::eliminated(proven);
        let arr = Value::int_array([1, 2, 3]);
        let v = apply(&mut m, Prim::ArraySub, pair(arr.clone(), Value::Int(1)), site).unwrap();
        assert_eq!(v.as_int(), Some(2));
        assert_eq!(m.counters.array_checks_eliminated, 1);
        assert_eq!(m.counters.array_checks_executed, 0);
        // An unproven site still checks.
        let other = Span::new(30, 40);
        apply(&mut m, Prim::ArraySub, pair(arr, Value::Int(1)), other).unwrap();
        assert_eq!(m.counters.array_checks_executed, 1);
    }

    #[test]
    fn subck_always_checks() {
        let mut m = empty_machine();
        let site = Span::new(10, 20);
        let mut proven = std::collections::HashSet::new();
        proven.insert(site);
        m.config = CheckConfig::eliminated(proven);
        let arr = Value::int_array([1]);
        apply(&mut m, Prim::ArraySubCk, pair(arr, Value::Int(0)), site).unwrap();
        assert_eq!(m.counters.array_checks_executed, 1);
        assert_eq!(m.counters.array_checks_eliminated, 0);
    }

    #[test]
    fn validation_catches_unsound_elimination() {
        let mut m = empty_machine();
        let site = Span::new(10, 20);
        let mut proven = std::collections::HashSet::new();
        proven.insert(site);
        m.config = CheckConfig::eliminated(proven).with_validation();
        let arr = Value::int_array([1]);
        let err = apply(&mut m, Prim::ArraySub, pair(arr, Value::Int(5)), site).unwrap_err();
        assert!(matches!(err, EvalError::UnsoundElimination { .. }));
    }

    #[test]
    fn list_prims() {
        let mut m = empty_machine();
        let s = Span::default();
        let l = Value::list([Value::Int(10), Value::Int(20), Value::Int(30)]);
        assert_eq!(apply(&mut m, Prim::ListLength, l.clone(), s).unwrap().as_int(), Some(3));
        assert_eq!(
            apply(&mut m, Prim::Nth, pair(l.clone(), Value::Int(1)), s).unwrap().as_int(),
            Some(20)
        );
        assert_eq!(m.counters.tag_checks_executed, 1);
        let err = apply(&mut m, Prim::Nth, pair(l, Value::Int(9)), s).unwrap_err();
        assert!(matches!(err, EvalError::TagViolation { index: 9, .. }));
    }

    #[test]
    fn negative_array_size_rejected() {
        let mut m = empty_machine();
        let s = Span::default();
        let err = apply(&mut m, Prim::Array, pair(Value::Int(-1), Value::Int(0)), s).unwrap_err();
        assert!(matches!(err, EvalError::NegativeArraySize(-1, _)));
    }

    #[test]
    fn misshapen_arguments_are_type_errors() {
        let mut m = empty_machine();
        let s = Span::default();
        let err = apply(&mut m, Prim::ArraySub, Value::Int(1), s).unwrap_err();
        assert_eq!(err, EvalError::Type("sub on `1`".into(), s));
        let err = apply(&mut m, Prim::Add, Value::Unit, s).unwrap_err();
        assert_eq!(err, EvalError::Type("expected a pair of integers".into(), s));
    }

    #[test]
    fn check_cost_repeats_comparison() {
        // Behaviourally invisible; just exercise the loop.
        let mut m = empty_machine();
        m.config = CheckConfig::checked().with_check_cost(8);
        let s = Span::default();
        let arr = Value::int_array([1, 2]);
        assert!(apply(&mut m, Prim::ArraySub, pair(arr, Value::Int(1)), s).is_ok());
        assert_eq!(m.counters.array_checks_executed, 1);
    }
}
