//! Pins of the interpreter's observable behaviour: the result, the abstract
//! op count and every check counter of the eight Tables 2–3 programs at
//! workload factor 1, in checked mode, eliminated mode, and checked mode
//! under Table 2's 300-round check cost; plus the op count at which
//! `OutOfFuel` fires, which pins where the interpreter burns fuel.
//!
//! The numbers are the interpreter's cost model. Any change to them moves
//! the "op gain" column of Tables 2 and 3, so a rewrite of the evaluator
//! must leave this file untouched.

use dml::experiments::{benchmarks, compile_bench};
use dml::{CheckConfig, Counters, Mode, Value};

/// `(program, result, ops, [array executed, array eliminated, array
/// residual, tag executed, tag eliminated, tag residual])`.
type Pin = (&'static str, i64, u64, [u64; 6]);

fn counters(c: &Counters) -> [u64; 6] {
    [
        c.array_checks_executed,
        c.array_checks_eliminated,
        c.array_checks_residual,
        c.tag_checks_executed,
        c.tag_checks_eliminated,
        c.tag_checks_residual,
    ]
}

fn run_all(config: impl Fn() -> CheckConfig) -> Vec<Pin> {
    benchmarks()
        .iter()
        .map(|b| {
            let mut m = compile_bench(b).machine_with(config());
            let result = (b.run)(&mut m, 1);
            (b.program.name, result, m.ops, counters(&m.counters))
        })
        .collect()
}

fn assert_pins(label: &str, got: &[Pin], want: &[Pin]) {
    assert_eq!(got, want, "{label}: interpreter behaviour drifted\ngot: {got:#?}");
}

#[test]
fn checked_mode_is_pinned() {
    const WANT: &[Pin] = &[
        ("bcopy", 2111476, 2212040, [131072, 0, 0, 0, 0, 0]),
        ("binary search", 907, 2958190, [48207, 0, 0, 0, 0, 0]),
        ("bubble sort", 49340271996, 5239935, [283456, 0, 0, 0, 0, 0]),
        ("matrix mult", 32180580, 913648, [56448, 0, 0, 0, 0, 0]),
        ("queen", 92, 3117004, [48808, 0, 0, 0, 0, 0]),
        ("quick sort", 5674390486542, 3602569, [166361, 0, 0, 0, 0, 0]),
        ("hanoi towers", 8191, 1556299, [65528, 0, 0, 0, 0, 0]),
        ("list access", 8588288, 526350, [0, 0, 0, 16384, 0, 0]),
    ];
    assert_pins("checked", &run_all(CheckConfig::checked), WANT);
}

#[test]
fn eliminated_mode_is_pinned() {
    const WANT: &[Pin] = &[
        ("bcopy", 2111476, 1687752, [0, 131072, 0, 0, 0, 0]),
        ("binary search", 907, 2765362, [0, 48207, 0, 0, 0, 0]),
        ("bubble sort", 49340271996, 4106111, [0, 283456, 0, 0, 0, 0]),
        ("matrix mult", 32180580, 687856, [0, 56448, 0, 0, 0, 0]),
        ("queen", 92, 2921772, [0, 48808, 0, 0, 0, 0]),
        ("quick sort", 5674390486542, 2937125, [0, 166361, 0, 0, 0, 0]),
        ("hanoi towers", 8191, 1294187, [0, 65528, 0, 0, 0, 0]),
        ("list access", 8588288, 460814, [0, 0, 0, 0, 16384, 0]),
    ];
    let got = run_all(|| CheckConfig::eliminated(Default::default()));
    assert_pins("eliminated", &got, WANT);
}

#[test]
fn checked_mode_with_table2_check_cost_is_pinned() {
    // The wall-clock cost knob must not move the abstract cost model.
    const WANT: &[Pin] = &[
        ("bcopy", 2111476, 2212040, [131072, 0, 0, 0, 0, 0]),
        ("binary search", 907, 2958190, [48207, 0, 0, 0, 0, 0]),
        ("bubble sort", 49340271996, 5239935, [283456, 0, 0, 0, 0, 0]),
        ("matrix mult", 32180580, 913648, [56448, 0, 0, 0, 0, 0]),
        ("queen", 92, 3117004, [48808, 0, 0, 0, 0, 0]),
        ("quick sort", 5674390486542, 3602569, [166361, 0, 0, 0, 0, 0]),
        ("hanoi towers", 8191, 1556299, [65528, 0, 0, 0, 0, 0]),
        ("list access", 8588288, 526350, [0, 0, 0, 16384, 0, 0]),
    ];
    let got = run_all(|| CheckConfig::checked().with_check_cost(300));
    assert_pins("checked, check_cost 300", &got, WANT);
}

/// A program touching every expression form the evaluator distinguishes:
/// constructors, `case`, `let fun`, `fn`, partial application, tuples,
/// `handle`, `andalso`/`orelse` and the list primitives.
const FUEL_SRC: &str = r#"
datatype shape = Dot | Box of int * int
exception Stop
fun area(Dot) = 0
  | area(Box(w, h)) = w * h
fun add x y = x + y
fun walk(v, i, acc) =
  if i < length v then
    let
      val s = if sub(v, i) mod 2 = 0 then Box(i, 2) else Dot
      fun twice(f, x) = f(f(x))
      val inc = add 1
    in
      walk(v, i + 1, acc + twice(fn z => z + area(s), inc(i)))
    end
  else acc
fun probe(l, k) = (nth(l, k) handle Subscript => ~1) + llength(l)
fun total(v, l) =
  let
    val a = walk(v, 0, 0)
    val b = case l of nil => 0 | x :: _ => x
  in
    if a > 0 andalso (b = 0 orelse b > 0) then a + b + probe(l, 5) + probe(l, 1)
    else raise Stop
  end
"#;

fn fuel_run(fuel: u64) -> (u64, [u64; 6]) {
    let compiled = dml::Compiler::new().compile(FUEL_SRC).expect("fuel program compiles");
    let mut m = compiled.machine(Mode::Eliminated).with_fuel(fuel);
    let v = Value::int_array((0..40).map(|k| k * 3 % 7));
    let l = Value::list([Value::Int(4), Value::Int(5)]);
    let args = Value::Tuple(std::rc::Rc::new(vec![v, l]));
    let err = m.call("total", vec![args]).expect_err("fuel runs out");
    assert!(matches!(err, dml_eval::EvalError::OutOfFuel), "{err}");
    (m.ops, counters(&m.counters))
}

#[test]
fn out_of_fuel_fires_at_pinned_op_counts() {
    let got = [fuel_run(1_000), fuel_run(2_345), fuel_run(3_730)];
    let want: [(u64, [u64; 6]); 3] =
        [(1044, [11, 0, 11, 0, 0, 0]), (2449, [26, 0, 26, 0, 0, 0]), (3894, [40, 0, 40, 1, 0, 1])];
    assert_eq!(got, want, "burn placement drifted");
}

#[test]
fn fuel_program_completes_with_pinned_result() {
    let compiled = dml::Compiler::new().compile(FUEL_SRC).expect("fuel program compiles");
    let mut m = compiled.machine(Mode::Eliminated);
    let v = Value::int_array((0..40).map(|k| k * 3 % 7));
    let l = Value::list([Value::Int(4), Value::Int(5)]);
    let args = Value::Tuple(std::rc::Rc::new(vec![v, l]));
    let r = m.call("total", vec![args]).expect("runs").as_int();
    assert_eq!((r, m.ops, counters(&m.counters)), (Some(2612), 3911, [40, 0, 40, 2, 0, 2]));
}
