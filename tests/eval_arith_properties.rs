//! Differential property test: randomly generated arithmetic programs are
//! rendered as DML source, pushed through the **entire pipeline**
//! (parse → infer → elaborate → solve → interpret), and compared against a
//! Rust reference evaluator with the same SML semantics (flooring
//! `div`/`mod`, and `Overflow` raised whenever an intermediate result
//! leaves `i64`).
//!
//! This exercises conservativity from yet another angle: the programs are
//! annotation-free and must mean exactly what ML says they mean. Expression
//! shapes come from the deterministic in-repo generator (`dml_repro::qc`).

use dml_repro::qc::Rng;

/// A little arithmetic AST we can both render to DML and evaluate in Rust.
#[derive(Debug, Clone)]
enum E {
    X,
    Y,
    Z,
    Lit(i64),
    Add(Box<E>, Box<E>),
    Sub(Box<E>, Box<E>),
    Mul(Box<E>, Box<E>),
    /// Division with a never-zero divisor: `a div (iabs(b) + 1)`.
    DivP(Box<E>, Box<E>),
    /// Modulus with a never-zero divisor.
    ModP(Box<E>, Box<E>),
    Min(Box<E>, Box<E>),
    Max(Box<E>, Box<E>),
    Abs(Box<E>),
    /// `if a <= b then c else d` — exercises boolean flow too.
    IfLe(Box<E>, Box<E>, Box<E>, Box<E>),
}

/// Depth-limited random expression: at depth 0 (or with ¼ probability)
/// emits a leaf, otherwise one of the nine compound forms.
fn random_e(rng: &mut Rng, depth: usize) -> E {
    if depth == 0 || rng.usize_in(0, 3) == 0 {
        return match rng.usize_in(0, 3) {
            0 => E::X,
            1 => E::Y,
            2 => E::Z,
            _ => E::Lit(rng.i64_in(-30, 29)),
        };
    }
    let d = depth - 1;
    match rng.usize_in(0, 8) {
        0 => E::Add(Box::new(random_e(rng, d)), Box::new(random_e(rng, d))),
        1 => E::Sub(Box::new(random_e(rng, d)), Box::new(random_e(rng, d))),
        2 => E::Mul(Box::new(random_e(rng, d)), Box::new(random_e(rng, d))),
        3 => E::DivP(Box::new(random_e(rng, d)), Box::new(random_e(rng, d))),
        4 => E::ModP(Box::new(random_e(rng, d)), Box::new(random_e(rng, d))),
        5 => E::Min(Box::new(random_e(rng, d)), Box::new(random_e(rng, d))),
        6 => E::Max(Box::new(random_e(rng, d)), Box::new(random_e(rng, d))),
        7 => E::Abs(Box::new(random_e(rng, d))),
        _ => E::IfLe(
            Box::new(random_e(rng, d)),
            Box::new(random_e(rng, d)),
            Box::new(random_e(rng, d)),
            Box::new(random_e(rng, d)),
        ),
    }
}

fn render(e: &E) -> String {
    match e {
        E::X => "x".into(),
        E::Y => "y".into(),
        E::Z => "z".into(),
        E::Lit(n) => {
            if *n < 0 {
                format!("~{}", -n)
            } else {
                n.to_string()
            }
        }
        E::Add(a, b) => format!("({} + {})", render(a), render(b)),
        E::Sub(a, b) => format!("({} - {})", render(a), render(b)),
        E::Mul(a, b) => format!("({} * {})", render(a), render(b)),
        E::DivP(a, b) => format!("({} div (iabs({}) + 1))", render(a), render(b)),
        E::ModP(a, b) => format!("({} mod (iabs({}) + 1))", render(a), render(b)),
        E::Min(a, b) => format!("imin({}, {})", render(a), render(b)),
        E::Max(a, b) => format!("imax({}, {})", render(a), render(b)),
        E::Abs(a) => format!("iabs({})", render(a)),
        E::IfLe(a, b, c, d) => {
            format!("(if {} <= {} then {} else {})", render(a), render(b), render(c), render(d))
        }
    }
}

/// SML flooring division; `None` when the quotient leaves `i64`.
fn floor_div(a: i64, b: i64) -> Option<i64> {
    let q = a.checked_div(b)?;
    Some(if (a % b != 0) && ((a < 0) != (b < 0)) { q - 1 } else { q })
}

/// The value of `e` over ℤ, or `None` ("Overflow") as soon as any
/// intermediate result leaves `i64`.
fn reference(e: &E, x: i64, y: i64, z: i64) -> Option<i64> {
    let r = |e: &E| reference(e, x, y, z);
    match e {
        E::X => Some(x),
        E::Y => Some(y),
        E::Z => Some(z),
        E::Lit(n) => Some(*n),
        E::Add(a, b) => r(a)?.checked_add(r(b)?),
        E::Sub(a, b) => r(a)?.checked_sub(r(b)?),
        E::Mul(a, b) => r(a)?.checked_mul(r(b)?),
        E::DivP(a, b) => {
            let n = r(a)?;
            let d = r(b)?.checked_abs()?.checked_add(1)?;
            floor_div(n, d)
        }
        E::ModP(a, b) => {
            let n = r(a)?;
            let d = r(b)?.checked_abs()?.checked_add(1)?;
            // Exact over ℤ (the product alone may leave `i64`; the
            // remainder never does).
            let q = floor_div(n, d)?;
            i64::try_from(i128::from(n) - i128::from(d) * i128::from(q)).ok()
        }
        E::Min(a, b) => Some(r(a)?.min(r(b)?)),
        E::Max(a, b) => Some(r(a)?.max(r(b)?)),
        E::Abs(a) => r(a)?.checked_abs(),
        E::IfLe(a, b, c, d) => {
            if r(a)? <= r(b)? {
                r(c)
            } else {
                r(d)
            }
        }
    }
}

/// Runs `f(x, y, z)` through the whole pipeline: `Some(value)`, or `None`
/// when the interpreter raised `Overflow` (any other error fails the test).
fn interpret(src: &str, x: i64, y: i64, z: i64) -> Option<i64> {
    let compiled = dml::Compiler::new()
        .compile(src)
        .unwrap_or_else(|err| panic!("pipeline failed on:\n{src}\n{err}"));
    let mut m = compiled.machine(dml::Mode::Checked);
    let args = dml::Value::Tuple(std::rc::Rc::new(vec![
        dml::Value::Int(x),
        dml::Value::Int(y),
        dml::Value::Int(z),
    ]));
    match m.call("f", vec![args]) {
        Ok(v) => Some(v.as_int().expect("an integer result")),
        Err(dml_eval::EvalError::Overflow(_)) => None,
        Err(e) => panic!("unexpected error {e} on:\n{src}"),
    }
}

#[test]
fn interpreter_matches_reference() {
    let mut rng = Rng::new(0xD1FF);
    for _ in 0..192 {
        let e = random_e(&mut rng, 4);
        let x = rng.i64_in(-100, 99);
        let y = rng.i64_in(-100, 99);
        let z = rng.i64_in(-100, 99);
        let src = format!("fun f(x, y, z) = {}", render(&e));
        let got = interpret(&src, x, y, z);
        let want = reference(&e, x, y, z);
        assert_eq!(got, want, "program (None = Overflow):\n{src}");
    }
}

/// Inputs at the edges of `i64`: the interpreter raises `Overflow` exactly
/// when the reference leaves `i64`, and otherwise agrees with it.
#[test]
fn interpreter_overflows_exactly_when_reference_does() {
    const EDGES: [i64; 8] = [i64::MIN, i64::MIN + 1, -(1 << 32), -1, 0, 1, 1 << 32, i64::MAX];
    let mut rng = Rng::new(0x0F10);
    let (mut overflowed, mut finished) = (0, 0);
    for _ in 0..96 {
        let e = random_e(&mut rng, 3);
        let [x, y, z] = [0; 3].map(|_| EDGES[rng.usize_in(0, EDGES.len() - 1)]);
        let src = format!("fun f(x, y, z) = {}", render(&e));
        let want = reference(&e, x, y, z);
        assert_eq!(interpret(&src, x, y, z), want, "f{:?}, None = Overflow:\n{src}", (x, y, z));
        if want.is_some() {
            finished += 1;
        } else {
            overflowed += 1;
        }
    }
    assert!(overflowed > 0 && finished > 0, "{overflowed} overflowed, {finished} finished");
}

/// The same programs under *eliminated* mode behave identically (there are
/// no array accesses, so this pins the conservativity of mode switching
/// itself).
#[test]
fn modes_agree_on_pure_arithmetic() {
    let mut rng = Rng::new(0x50DE);
    for _ in 0..64 {
        let e = random_e(&mut rng, 4);
        let src = format!("fun f(x, y, z) = {}", render(&e));
        let compiled = dml::Compiler::new().compile(&src).unwrap();
        let args = || {
            dml::Value::Tuple(std::rc::Rc::new(vec![
                dml::Value::Int(3),
                dml::Value::Int(-7),
                dml::Value::Int(11),
            ]))
        };
        let mut a = compiled.machine(dml::Mode::Checked);
        let mut b = compiled.machine(dml::Mode::Eliminated);
        let ra = a.call("f", vec![args()]).unwrap().as_int();
        let rb = b.call("f", vec![args()]).unwrap().as_int();
        assert_eq!(ra, rb, "program:\n{src}");
    }
}
