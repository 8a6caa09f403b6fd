//! An instrumented interpreter for elaborated DML programs.
//!
//! The paper's evaluation compiles each benchmark twice — once with the
//! standard, *checked* array/list primitives and once with the unchecked
//! primitives of `Unsafe.Array`, legal only because dependent type-checking
//! proved every eliminated access safe (§4). This crate reproduces that
//! setup on an interpreter:
//!
//! * [`Machine`] lowers each declaration of a parsed program once, when it
//!   is loaded, to a resolved tree (slot-addressed variables, constructors
//!   and primitives decided up front), and evaluates that tree with a
//!   [`CheckConfig`] that says, per call site (identified by the
//!   application's source span, matching `dml-elab`'s obligation sites),
//!   whether the bound/tag check was proven and may be skipped.
//! * Checked accesses execute the bounds comparison (optionally repeated
//!   `check_cost` times, modelling platforms where a check is a larger
//!   fraction of an access — the knob that distinguishes the paper's
//!   Table 2 and Table 3 hardware); eliminated accesses skip it.
//! * [`Counters`] records exactly how many checks were executed and how
//!   many were eliminated, reproducing the "checks eliminated" columns.
//! * With [`CheckConfig::validate`] set, even "eliminated" accesses are
//!   verified and an out-of-bounds access aborts the run — the harness the
//!   property tests use to show that elimination never fires on an access
//!   that could fault.

pub mod counter;
pub mod error;
pub mod interp;
mod lower;
pub mod prims;
pub mod rng;
pub mod value;

pub use counter::Counters;
pub use error::EvalError;
pub use interp::{CheckConfig, Closure, Machine, Mode};
pub use prims::Prim;
pub use rng::XorShift;
pub use value::Value;
