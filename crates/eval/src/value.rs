//! Run-time values.

use crate::interp::Closure;
use crate::prims::Prim;
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// A run-time value.
#[derive(Debug, Clone)]
pub enum Value {
    /// Machine integer.
    Int(i64),
    /// Boolean.
    Bool(bool),
    /// The unit value.
    Unit,
    /// Tuple (length ≥ 2).
    Tuple(Rc<Vec<Value>>),
    /// Datatype constructor application (`nil`, `x :: xs`, `SOME v`, ...).
    Con(Rc<str>, Option<Rc<Value>>),
    /// Mutable array.
    Array(Rc<RefCell<Vec<Value>>>),
    /// A function closure (reference-counted; see [`Closure`]).
    Closure(Closure),
    /// A partial application of a multi-parameter (curried) closure.
    Partial(Closure, Rc<Vec<Value>>),
    /// A built-in primitive.
    Prim(Prim),
}

impl Value {
    /// Builds a list value from a vector.
    pub fn list(items: impl IntoIterator<Item = Value>) -> Value {
        let items: Vec<Value> = items.into_iter().collect();
        let mut acc = Value::Con("nil".into(), None);
        for v in items.into_iter().rev() {
            acc = Value::Con("::".into(), Some(Rc::new(Value::Tuple(Rc::new(vec![v, acc])))));
        }
        acc
    }

    /// Builds an array value from a vector.
    pub fn array(items: Vec<Value>) -> Value {
        Value::Array(Rc::new(RefCell::new(items)))
    }

    /// Builds an integer array.
    pub fn int_array(items: impl IntoIterator<Item = i64>) -> Value {
        Value::array(items.into_iter().map(Value::Int).collect())
    }

    /// Extracts an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// Extracts a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Converts a list value back into a vector (for assertions in tests).
    pub fn list_to_vec(&self) -> Option<Vec<Value>> {
        let mut out = Vec::new();
        let mut cur = self.clone();
        loop {
            match cur {
                Value::Con(ref name, None) if &**name == "nil" => return Some(out),
                Value::Con(ref name, Some(ref arg)) if &**name == "::" => match arg.as_ref() {
                    Value::Tuple(pair) if pair.len() == 2 => {
                        out.push(pair[0].clone());
                        cur = pair[1].clone();
                    }
                    _ => return None,
                },
                _ => return None,
            }
        }
    }

    /// Extracts an integer array's contents.
    pub fn int_array_to_vec(&self) -> Option<Vec<i64>> {
        match self {
            Value::Array(cells) => cells.borrow().iter().map(Value::as_int).collect(),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(n) => write!(f, "{n}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Unit => write!(f, "()"),
            Value::Tuple(vs) => {
                write!(f, "(")?;
                for (k, v) in vs.iter().enumerate() {
                    if k > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
            Value::Con(name, None) => write!(f, "{name}"),
            Value::Con(name, Some(arg)) if &**name == "::" => {
                // Render lists with the usual bracket syntax.
                match self.list_to_vec() {
                    Some(items) => {
                        write!(f, "[")?;
                        for (k, v) in items.iter().enumerate() {
                            if k > 0 {
                                write!(f, ", ")?;
                            }
                            write!(f, "{v}")?;
                        }
                        write!(f, "]")
                    }
                    None => write!(f, ":: {arg}"),
                }
            }
            Value::Con(name, Some(arg)) => write!(f, "{name} {arg}"),
            Value::Array(cells) => {
                write!(f, "[|")?;
                for (k, v) in cells.borrow().iter().enumerate() {
                    if k > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "|]")
            }
            Value::Closure(c) => write!(f, "<fun {}>", c.name()),
            Value::Partial(c, args) => write!(f, "<fun {}/{}>", c.name(), args.len()),
            Value::Prim(p) => write!(f, "<prim {}>", p.name()),
        }
    }
}

/// Structural equality used by tests (closures/prims are never equal).
pub fn value_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Unit, Value::Unit) => true,
        (Value::Tuple(xs), Value::Tuple(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys.iter()).all(|(x, y)| value_eq(x, y))
        }
        (Value::Con(n, None), Value::Con(m, None)) => n == m,
        (Value::Con(n, Some(x)), Value::Con(m, Some(y))) => n == m && value_eq(x, y),
        (Value::Array(x), Value::Array(y)) => {
            let (x, y) = (x.borrow(), y.borrow());
            x.len() == y.len() && x.iter().zip(y.iter()).all(|(a, b)| value_eq(a, b))
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_round_trip() {
        let l = Value::list([Value::Int(1), Value::Int(2), Value::Int(3)]);
        let v = l.list_to_vec().unwrap();
        assert_eq!(v.len(), 3);
        assert_eq!(v[0].as_int(), Some(1));
        assert_eq!(l.to_string(), "[1, 2, 3]");
    }

    #[test]
    fn array_display_and_eq() {
        let a = Value::int_array([1, 2]);
        let b = Value::int_array([1, 2]);
        let c = Value::int_array([1, 3]);
        assert!(value_eq(&a, &b));
        assert!(!value_eq(&a, &c));
        assert_eq!(a.to_string(), "[|1, 2|]");
    }
}
