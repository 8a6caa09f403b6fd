//! Measures the two costs behind the Tables 2–3 cost models: one
//! interpreted array access, and one round of the bound comparison that
//! `CheckConfig::check_cost` repeats.
//!
//! ```text
//! cargo run --release --example check_cost [iterations]
//! ```
//!
//! * access: a loop adding sixteen `sub(v, 0)` reads to an accumulator per
//!   iteration, minus the same loop adding sixteen literal `0`s, with the
//!   checks eliminated, per read;
//! * round: the read loop with its checks executed at `check_cost` 1001,
//!   minus the same at `check_cost` 1, per extra round.
//!
//! Each loop time is the minimum over nine runs, alternating the two
//! loops of a pair. `table2`/`table3` charge a check about ⅓ of, and about
//! one, access in rounds.

use dml::{CheckConfig, Compiler, Mode, Value};
use std::rc::Rc;
use std::time::Instant;

const SRC: &str = r#"
fun reads(v, i, n, acc) =
  if i < n then
    reads(v, i + 1, n, acc + sub(v, 0) + sub(v, 0) + sub(v, 0) + sub(v, 0)
                           + sub(v, 0) + sub(v, 0) + sub(v, 0) + sub(v, 0)
                           + sub(v, 0) + sub(v, 0) + sub(v, 0) + sub(v, 0)
                           + sub(v, 0) + sub(v, 0) + sub(v, 0) + sub(v, 0))
  else acc
where reads <| {m:nat | m > 0} {i:nat} {n:nat} int array(m) * int(i) * int(n) * int -> int
fun skips(v, i, n, acc) =
  if i < n then skips(v, i + 1, n, acc + 0 + 0 + 0 + 0 + 0 + 0 + 0 + 0
                                       + 0 + 0 + 0 + 0 + 0 + 0 + 0 + 0)
  else acc
where skips <| {m:nat | m > 0} {i:nat} {n:nat} int array(m) * int(i) * int(n) * int -> int
"#;

const READS: f64 = 16.0;

fn main() {
    let n: i64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(40_000);
    let compiled = Compiler::new().compile(SRC).expect("calibration program compiles");
    assert!(compiled.fully_verified());
    let time_ns = |fun: &str, config: CheckConfig| {
        let mut m = compiled.machine_with(config);
        let args = vec![Value::int_array([1]), Value::Int(0), Value::Int(n), Value::Int(0)];
        let start = Instant::now();
        m.call(fun, vec![Value::Tuple(Rc::new(args))]).expect("loop runs");
        start.elapsed().as_secs_f64() * 1e9
    };
    // Minimum loop times of two runs, alternated so drift hits both alike.
    let min_pair = |a: &dyn Fn() -> f64, b: &dyn Fn() -> f64| {
        (0..9).fold((f64::INFINITY, f64::INFINITY), |(x, y), _| (x.min(a()), y.min(b())))
    };
    let elim = || compiled.machine(Mode::Eliminated).config;
    let (r, s) = min_pair(&|| time_ns("reads", elim()), &|| time_ns("skips", elim()));
    let access = (r - s) / (n as f64 * READS);
    let checked = |cost: u32| CheckConfig::checked().with_check_cost(cost);
    let (hi, lo) = min_pair(&|| time_ns("reads", checked(1001)), &|| time_ns("reads", checked(1)));
    let round = (hi - lo) / (n as f64 * READS * 1000.0);
    println!("interpreted access: {access:.1} ns");
    println!("comparison round:   {round:.3} ns");
    println!("rounds per access:  {:.0}", access / round);
}
