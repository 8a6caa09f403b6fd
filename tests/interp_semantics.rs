//! SML-semantics edge cases for the interpreter: sharing, shadowing,
//! evaluation order, first-match clause selection, and exception
//! propagation through the tail-call machinery.

use dml::{Mode, Value};
fn compile(src: &str) -> Result<dml::Compiled, dml::PipelineError> {
    dml::Compiler::new().compile(src)
}

use std::rc::Rc;

fn machine(src: &str) -> dml::Machine {
    compile(src).unwrap().machine(Mode::Checked)
}

fn pair(a: Value, b: Value) -> Value {
    Value::Tuple(Rc::new(vec![a, b]))
}

#[test]
fn arrays_are_shared_by_reference() {
    // A closure captures the array; external mutation is visible.
    let src = r#"
fun make_reader(v) = fn i => subCK(v, i)
fun poke(v) = update(v, 0, 99)
where poke <| {n:nat | n > 0} int array(n) -> unit
"#;
    let mut m = machine(src);
    let v = Value::int_array([1, 2]);
    let reader = m.call("make_reader", vec![v.clone()]).unwrap();
    let before = m.apply(reader.clone(), Value::Int(0), Default::default()).unwrap();
    assert_eq!(before.as_int(), Some(1));
    m.call("poke", vec![v]).unwrap();
    let after = m.apply(reader, Value::Int(0), Default::default()).unwrap();
    assert_eq!(after.as_int(), Some(99), "the closure sees the mutation");
}

#[test]
fn clause_selection_is_first_match() {
    let src = r#"
fun classify(0) = 100
  | classify(1) = 200
  | classify(n) = n
"#;
    let mut m = machine(src);
    assert_eq!(m.call("classify", vec![Value::Int(0)]).unwrap().as_int(), Some(100));
    assert_eq!(m.call("classify", vec![Value::Int(1)]).unwrap().as_int(), Some(200));
    assert_eq!(m.call("classify", vec![Value::Int(7)]).unwrap().as_int(), Some(7));
}

#[test]
fn evaluation_order_left_to_right() {
    // Side effects in a tuple happen left to right: (update; read) pairs.
    let src = r#"
fun probe(v) = ((update(v, 0, 1); subCK(v, 0)), (update(v, 0, 2); subCK(v, 0)))
"#;
    let mut m = machine(src);
    let v = Value::int_array([0]);
    let r = m.call("probe", vec![v]).unwrap();
    match r {
        Value::Tuple(vs) => {
            assert_eq!(vs[0].as_int(), Some(1));
            assert_eq!(vs[1].as_int(), Some(2));
        }
        other => panic!("expected tuple, got {other}"),
    }
}

#[test]
fn shadowing_in_nested_lets() {
    let src = r#"
fun f(x) = let
  val y = x + 1
in
  let val y = y * 10 in y + x end
end
"#;
    let mut m = machine(src);
    assert_eq!(m.call("f", vec![Value::Int(3)]).unwrap().as_int(), Some(43));
}

#[test]
fn partial_applications_are_independent() {
    let src = "fun add x y = x + y";
    let mut m = machine(src);
    let add = m.global("add").unwrap();
    let inc = m.apply(add.clone(), Value::Int(1), Default::default()).unwrap();
    let dec = m.apply(add, Value::Int(-1), Default::default()).unwrap();
    let a = m.apply(inc.clone(), Value::Int(10), Default::default()).unwrap();
    let b = m.apply(dec, Value::Int(10), Default::default()).unwrap();
    let c = m.apply(inc, Value::Int(100), Default::default()).unwrap();
    assert_eq!(a.as_int(), Some(11));
    assert_eq!(b.as_int(), Some(9));
    assert_eq!(c.as_int(), Some(101), "partials do not share argument state");
}

#[test]
fn exceptions_propagate_through_deep_tail_recursion() {
    let src = r#"
exception Found
fun hunt(i, n) = if i = n then raise Found else hunt(i + 1, n)
fun search(n) = (hunt(0, n); 0) handle Found => 1
"#;
    let mut m = machine(src);
    // 500k tail-recursive frames, then the exception unwinds cleanly.
    let r = m.call("search", vec![Value::Int(500_000)]).unwrap();
    assert_eq!(r.as_int(), Some(1));
}

#[test]
fn handler_restores_normal_control_flow() {
    let src = r#"
fun risky(v, i) = sub(v, i) handle Subscript => 0
fun total(v) = let
  fun go(i, acc) = if i < 6 then go(i + 1, acc + risky(v, i)) else acc
in
  go(0, 0)
end
"#;
    let mut m = machine(src);
    let v = Value::int_array([10, 20, 30]);
    // Indices 0..2 read values; 3..5 are caught and contribute 0.
    let r = m.call("total", vec![v]).unwrap();
    assert_eq!(r.as_int(), Some(60));
}

#[test]
fn overflowing_arithmetic_raises_overflow() {
    // SML integers do not wrap: a product outside `i64` raises `Overflow`.
    let src = "fun mul(a, b) = a * b";
    let mut m = machine(src);
    let err = m.call("mul", vec![pair(Value::Int(i64::MAX), Value::Int(2))]).unwrap_err();
    assert!(matches!(err, dml_eval::EvalError::Overflow(_)), "{err}");
    let r = m.call("mul", vec![pair(Value::Int(i64::MIN), Value::Int(1))]).unwrap();
    assert_eq!(r.as_int(), Some(i64::MIN), "results at the edge of `i64` are exact");
}

#[test]
fn nested_handles_choose_innermost() {
    let src = r#"
exception A
exception B
fun f(x) =
  ((if x = 0 then raise A else raise B) handle A => 1) handle B => 2
"#;
    let mut m = machine(src);
    assert_eq!(m.call("f", vec![Value::Int(0)]).unwrap().as_int(), Some(1));
    assert_eq!(m.call("f", vec![Value::Int(5)]).unwrap().as_int(), Some(2));
}

#[test]
fn overflow_guard_example_raises_overflow_under_validation() {
    // A guard that only holds over ℤ: with wrapping `+`, `5 + (2^63 - 3)`
    // would pass `i + k < length v` and the eliminated access would run
    // out of bounds. Validation would report that as unsound; `Overflow`
    // stops the run before the guard.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/overflow_guard.dml");
    let compiled = compile(&std::fs::read_to_string(path).unwrap()).unwrap();
    assert!(compiled.fully_verified());
    let config = dml::CheckConfig::eliminated(Default::default()).with_validation();
    let mut m = compiled.machine_with(config);
    let err = m.call("main", vec![pair(Value::Int(5), Value::Int(i64::MAX - 2))]).unwrap_err();
    assert!(matches!(err, dml_eval::EvalError::Overflow(_)), "{err}");
    assert_eq!(err.exception_name(), Some("Overflow"));
    let r = m.call("main", vec![pair(Value::Int(0), Value::Int(0))]).unwrap();
    assert_eq!(r.as_int(), Some(7));
    assert_eq!(m.counters.array_checks_eliminated, 1, "the in-range access ran unchecked");
}
