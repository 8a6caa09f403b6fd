//! The interpreter: evaluates the resolved tree that the `lower` module
//! builds from each declaration when a program is loaded.

use crate::counter::Counters;
use crate::error::EvalError;
use crate::lower::{CallSite, GroupCode, Kind, LDecl, LPat, Lowerer, MemberCode, Node};
use crate::prims;
use crate::value::Value;
use dml_syntax::ast as sast;
use dml_syntax::Span;
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::rc::Rc;

/// Whether proven checks are actually skipped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Every bound/tag check executes (the paper's "with checks" column).
    Checked,
    /// Checks at proven sites are skipped (the "without checks" column).
    Eliminated,
}

/// Configuration for check behaviour.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Checked vs eliminated execution.
    pub mode: Mode,
    /// Call sites (application spans) whose bound obligations were proven.
    pub proven: HashSet<Span>,
    /// How many times the bounds comparison is repeated per check — the
    /// platform cost model distinguishing the paper's Table 2 (DEC Alpha /
    /// SML-NJ) from Table 3 (SPARC / MLWorks). `1` is the physical
    /// interpreter cost.
    pub check_cost: u32,
    /// Verify even eliminated accesses, turning any out-of-bounds
    /// "unchecked" access into [`EvalError::UnsoundElimination`].
    pub validate: bool,
}

impl CheckConfig {
    /// Fully-checked execution (no elimination).
    pub fn checked() -> CheckConfig {
        CheckConfig { mode: Mode::Checked, proven: HashSet::new(), check_cost: 1, validate: false }
    }

    /// Eliminated execution for the given proven sites.
    pub fn eliminated(proven: HashSet<Span>) -> CheckConfig {
        CheckConfig { mode: Mode::Eliminated, proven, check_cost: 1, validate: false }
    }

    /// Sets the per-check cost factor.
    pub fn with_check_cost(mut self, cost: u32) -> CheckConfig {
        self.check_cost = cost;
        self
    }

    /// Enables validation of eliminated accesses.
    pub fn with_validation(mut self) -> CheckConfig {
        self.validate = true;
        self
    }
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig::checked()
    }
}

/// The run-time environment of locals: a persistent chain of values,
/// addressed by the de Bruijn depths the lowering assigned.
#[derive(Debug, Clone, Default)]
struct Env(Option<Rc<EnvNode>>);

#[derive(Debug)]
struct EnvNode {
    value: Value,
    next: Env,
}

impl Env {
    fn push(self, value: Value) -> Env {
        Env(Some(Rc::new(EnvNode { value, next: self })))
    }

    fn get(&self, depth: u32) -> &Value {
        let mut node = self.0.as_deref().expect("lowering bounds every depth");
        for _ in 0..depth {
            node = node.next.0.as_deref().expect("lowering bounds every depth");
        }
        &node.value
    }
}

/// A closure instance of a `fun` group (or `fn`): the group's code plus
/// the environment captured where the group was evaluated.
///
/// Closures are reference-counted and cycle-free: a group's captured
/// environment is the one *before* the group was bound, and its clauses
/// reach their siblings through the running closure (or a node pushed per
/// call), never through the captured environment. So a closure is freed as
/// soon as no value refers to it.
struct Group {
    code: Rc<GroupCode>,
    env: Env,
}

impl Group {
    fn new(code: Rc<GroupCode>, env: Env) -> Rc<Group> {
        #[cfg(test)]
        live_groups::created();
        Rc::new(Group { code, env })
    }
}

impl Drop for Group {
    /// Frees the captured environment without recursing: a chain of
    /// closures, each capturing the one before (as a loop can build),
    /// would otherwise nest one drop call per closure and overflow the
    /// stack. Groups freed while a drop is under way are queued and freed
    /// by the outermost one.
    fn drop(&mut self) {
        thread_local! {
            static DRAINING: Cell<bool> = const { Cell::new(false) };
            static PENDING: RefCell<Vec<Env>> = const { RefCell::new(Vec::new()) };
        }
        #[cfg(test)]
        live_groups::dropped();
        let env = std::mem::take(&mut self.env);
        if DRAINING.with(|d| d.replace(true)) {
            PENDING.with(|p| p.borrow_mut().push(env));
            return;
        }
        drop(env);
        while let Some(env) = PENDING.with(|p| p.borrow_mut().pop()) {
            drop(env);
        }
        DRAINING.with(|d| d.set(false));
    }
}

/// A function value: one member of a closure group.
#[derive(Clone)]
pub struct Closure {
    group: Rc<Group>,
    member: u32,
}

impl Closure {
    fn code(&self) -> &MemberCode {
        &self.group.code.members[self.member as usize]
    }

    fn arity(&self) -> usize {
        self.code().arity
    }

    /// The function's name (`fn` for anonymous functions).
    pub fn name(&self) -> &str {
        &self.code().name
    }
}

impl fmt::Debug for Closure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<fun {}>", self.name())
    }
}

/// The running group, whose members a clause names directly.
type Running<'a> = Option<&'a Rc<Group>>;

/// The interpreter: globals + check configuration + counters.
#[derive(Debug)]
pub struct Machine {
    globals: Vec<Value>,
    global_names: HashMap<String, u32>,
    /// Scratch space for pattern bindings (matching never re-enters).
    binds: Vec<Value>,
    /// Spans of the eliminable check sites, indexed by `CallSite::site`.
    sites: Vec<Span>,
    /// Per site: whether its check is skipped, under `synced`.
    skip: Vec<bool>,
    /// The mode and proven set `skip` was computed from.
    synced: (Mode, HashSet<Span>),
    /// Check behaviour; mutable so harnesses can switch modes between runs.
    pub config: CheckConfig,
    /// Check counters.
    pub counters: Counters,
    /// Deterministic abstract cost: one unit per expression evaluated and
    /// per application, plus a fixed 4 units per executed bound/tag check.
    /// Unlike wall-clock time this is bit-for-bit reproducible, so the
    /// Table 2/3 "op gain" column has no scheduler noise.
    pub ops: u64,
    fuel: Option<u64>,
}

impl Machine {
    /// Loads a program: resolves each declaration once and evaluates its
    /// top-level declarations.
    ///
    /// # Errors
    ///
    /// Returns an [`EvalError`] if a top-level `val` fails to evaluate.
    pub fn load(program: &sast::Program, config: CheckConfig) -> Result<Machine, EvalError> {
        let mut cons: HashMap<String, Rc<str>> = ["nil", "::", "LESS", "EQUAL", "GREATER"]
            .iter()
            .map(|c| (c.to_string(), Rc::from(*c)))
            .collect();
        for d in &program.decls {
            if let sast::Decl::Datatype(dd) = d {
                for c in &dd.cons {
                    cons.entry(c.name.name.clone()).or_insert_with(|| Rc::from(&*c.name.name));
                }
            }
        }
        let mut m = Machine {
            globals: Vec::new(),
            global_names: HashMap::new(),
            binds: Vec::new(),
            sites: Vec::new(),
            skip: Vec::new(),
            synced: (config.mode, HashSet::new()),
            config,
            counters: Counters::new(),
            ops: 0,
            fuel: None,
        };
        for d in &program.decls {
            match d {
                sast::Decl::Fun(funs) => {
                    let base = m.globals.len() as u32;
                    for (k, f) in funs.iter().enumerate() {
                        m.global_names.insert(f.name.name.clone(), base + k as u32);
                    }
                    let code = Lowerer::new(&cons, &m.global_names, &mut m.sites).group(funs, true);
                    let group = Group::new(code, Env::default());
                    for member in 0..funs.len() as u32 {
                        m.globals.push(Value::Closure(Closure { group: group.clone(), member }));
                    }
                }
                sast::Decl::Val(v) => {
                    let mut lower = Lowerer::new(&cons, &m.global_names, &mut m.sites);
                    let expr = lower.expr(&v.expr);
                    let (pat, names) = lower.pat_names(&v.pat);
                    m.sync_sites();
                    let value = m.eval(&expr, &Env::default(), None)?;
                    let mut binds = Vec::new();
                    if !pat.matches(&value, &mut binds) {
                        return Err(EvalError::MatchFailure(v.span));
                    }
                    for (name, value) in names.into_iter().zip(binds) {
                        m.global_names.insert(name, m.globals.len() as u32);
                        m.globals.push(value);
                    }
                }
                sast::Decl::Datatype(_)
                | sast::Decl::Typeref(_)
                | sast::Decl::Assert(_)
                | sast::Decl::Exception(_) => {}
            }
        }
        Ok(m)
    }

    /// Limits evaluation steps (for property tests on possibly-looping
    /// programs).
    pub fn with_fuel(mut self, fuel: u64) -> Machine {
        self.fuel = Some(fuel);
        self
    }

    /// Looks up a global binding.
    pub fn global(&self, name: &str) -> Option<Value> {
        self.global_names.get(name).map(|&g| self.globals[g as usize].clone())
    }

    /// Calls a global function with the given (curried) arguments.
    ///
    /// # Errors
    ///
    /// Propagates any run-time error from the callee.
    pub fn call(&mut self, name: &str, args: Vec<Value>) -> Result<Value, EvalError> {
        let mut f = self
            .global(name)
            .ok_or_else(|| EvalError::Unbound(name.to_string(), Span::default()))?;
        self.sync_sites();
        for a in args {
            f = self.apply_value(f, a, Span::default())?;
        }
        Ok(f)
    }

    /// Brings the per-site skip decisions up to date with `config`, which
    /// callers may change between runs.
    fn sync_sites(&mut self) {
        let c = &self.config;
        if self.skip.len() == self.sites.len()
            && self.synced.0 == c.mode
            && self.synced.1 == c.proven
        {
            return;
        }
        let elim = c.mode == Mode::Eliminated;
        self.skip = self.sites.iter().map(|s| elim && c.proven.contains(s)).collect();
        self.synced = (c.mode, c.proven.clone());
    }

    /// Calls a primitive from a resolved call site.
    fn prim_at(
        &mut self,
        p: prims::Prim,
        args: &[Value],
        at: CallSite,
    ) -> Result<Value, EvalError> {
        let skip = self.skip.get(at.site as usize).copied().unwrap_or(false);
        prims::exec(self, p, args, at.span, skip)
    }

    /// Resets the check counters.
    pub fn reset_counters(&mut self) {
        self.counters.reset();
    }

    /// Charges `n` ops, failing (after charging what the fuel allows) when
    /// the fuel runs out.
    #[inline]
    fn tick(&mut self, n: u32) -> Result<(), EvalError> {
        let n = u64::from(n);
        if let Some(f) = &mut self.fuel {
            if *f < n {
                self.ops += *f;
                *f = 0;
                return Err(EvalError::OutOfFuel);
            }
            *f -= n;
        }
        self.ops += n;
        Ok(())
    }

    /// Matches `pat` against `v`, extending `env` with its bindings.
    fn bind(&mut self, pat: &LPat, v: &Value, env: Env) -> Option<Env> {
        if let LPat::Bind = pat {
            return Some(env.push(v.clone()));
        }
        let mut binds = std::mem::take(&mut self.binds);
        binds.clear();
        let env = pat.matches(v, &mut binds).then(|| binds.drain(..).fold(env, Env::push));
        self.binds = binds;
        env
    }

    // -----------------------------------------------------------------
    // Expressions.
    // -----------------------------------------------------------------

    /// Evaluates a node in ordinary position.
    fn eval(&mut self, n: &Node, env: &Env, run: Running) -> Result<Value, EvalError> {
        self.tick(n.ticks)?;
        self.exec(n, env, run)
    }

    /// Evaluates a node whose entry ops are already charged.
    fn exec(&mut self, n: &Node, env: &Env, run: Running) -> Result<Value, EvalError> {
        match &n.kind {
            Kind::Local(d) => Ok(env.get(*d).clone()),
            Kind::Member { depth, member } => match env.get(*depth) {
                Value::Closure(c) => {
                    Ok(Value::Closure(Closure { group: c.group.clone(), member: *member }))
                }
                other => unreachable!("group node holds `{other}`"),
            },
            Kind::SelfRef(member) => {
                let group = run.expect("lowering emits SelfRef inside clauses only").clone();
                Ok(Value::Closure(Closure { group, member: *member }))
            }
            Kind::Global(g) => Ok(self.globals[*g as usize].clone()),
            Kind::Con(c) => Ok(Value::Con(c.clone(), None)),
            Kind::Prim(p) => Ok(Value::Prim(*p)),
            Kind::Unbound(b) => Err(EvalError::Unbound(b.0.clone(), b.1)),
            Kind::Int(k) => Ok(Value::Int(*k)),
            Kind::Bool(b) => Ok(Value::Bool(*b)),
            Kind::Unit => Ok(Value::Unit),
            Kind::ConApp(c, a) => {
                let arg = self.eval(a, env, run)?;
                Ok(Value::Con(c.clone(), Some(Rc::new(arg))))
            }
            Kind::App(fa, span) => {
                let fv = self.eval(&fa.0, env, run)?;
                let av = self.eval(&fa.1, env, run)?;
                self.apply_value(fv, av, *span)
            }
            Kind::PrimCall(p, args, at) => match &args[..] {
                [a] => {
                    let a = self.eval(a, env, run)?;
                    self.tick(1)?;
                    self.prim_at(*p, &[a], *at)
                }
                [a, b] => {
                    let a = self.eval(a, env, run)?;
                    let b = self.eval(b, env, run)?;
                    self.tick(1)?;
                    self.prim_at(*p, &[a, b], *at)
                }
                [a, b, c] => {
                    let a = self.eval(a, env, run)?;
                    let b = self.eval(b, env, run)?;
                    let c = self.eval(c, env, run)?;
                    self.tick(1)?;
                    self.prim_at(*p, &[a, b, c], *at)
                }
                _ => unreachable!("primitives take one to three arguments"),
            },
            Kind::Tuple(es) => {
                let vs =
                    es.iter().map(|x| self.eval(x, env, run)).collect::<Result<Vec<_>, _>>()?;
                Ok(Value::Tuple(Rc::new(vs)))
            }
            Kind::If(ctf, span) => {
                let branch = self.branch(ctf, *span, env, run)?;
                self.eval(branch, env, run)
            }
            Kind::Case(scrut, arms, span) => {
                let (body, env) = self.select_arm(scrut, arms, *span, env, run)?;
                self.eval(body, &env, run)
            }
            Kind::Let(decls, body) => {
                let env = self.eval_decls(decls, env, run)?;
                self.eval(body, &env, run)
            }
            Kind::Fn(code) => Ok(Value::Closure(Closure {
                group: Group::new(code.clone(), env.clone()),
                member: 0,
            })),
            Kind::Seq(es) => {
                let mut last = Value::Unit;
                for x in es.iter() {
                    last = self.eval(x, env, run)?;
                }
                Ok(last)
            }
            Kind::Andalso(ab, span) => match self.eval(&ab.0, env, run)? {
                Value::Bool(false) => Ok(Value::Bool(false)),
                Value::Bool(true) => self.eval(&ab.1, env, run),
                other => Err(EvalError::Type(format!("andalso on `{other}`"), *span)),
            },
            Kind::Orelse(ab, span) => match self.eval(&ab.0, env, run)? {
                Value::Bool(true) => Ok(Value::Bool(true)),
                Value::Bool(false) => self.eval(&ab.1, env, run),
                other => Err(EvalError::Type(format!("orelse on `{other}`"), *span)),
            },
            Kind::Raise(name, span) => Err(EvalError::Raised(name.to_string(), *span)),
            Kind::Handle(body, arms) => match self.eval(body, env, run) {
                Ok(v) => Ok(v),
                Err(e) => {
                    if let Some(exn) = e.exception_name() {
                        if let Some((_, handler)) = arms.iter().find(|(name, _)| name == exn) {
                            return self.eval(handler, env, run);
                        }
                    }
                    Err(e)
                }
            },
        }
    }

    /// Evaluates a node in *tail position*: instead of performing a final
    /// application, returns it to the driving loop in [`Machine::run`].
    fn eval_tail(&mut self, n: &Node, env: &Env, run: Running) -> Result<Tail, EvalError> {
        self.tick(n.tail_ticks)?;
        match &n.kind {
            Kind::App(fa, span) => {
                let fv = self.eval(&fa.0, env, run)?;
                let av = self.eval(&fa.1, env, run)?;
                Ok(Tail::Call(fv, av, *span))
            }
            // A tail primitive call is made without an `apply` op.
            Kind::PrimCall(p, args, at) => match &args[..] {
                [a] => {
                    let a = self.eval(a, env, run)?;
                    self.prim_at(*p, &[a], *at).map(Tail::Val)
                }
                [a, b] => {
                    let a = self.eval(a, env, run)?;
                    let b = self.eval(b, env, run)?;
                    self.prim_at(*p, &[a, b], *at).map(Tail::Val)
                }
                [a, b, c] => {
                    let a = self.eval(a, env, run)?;
                    let b = self.eval(b, env, run)?;
                    let c = self.eval(c, env, run)?;
                    self.prim_at(*p, &[a, b, c], *at).map(Tail::Val)
                }
                _ => unreachable!("primitives take one to three arguments"),
            },
            Kind::If(ctf, span) => {
                let branch = self.branch(ctf, *span, env, run)?;
                self.eval_tail(branch, env, run)
            }
            Kind::Case(scrut, arms, span) => {
                let (body, env) = self.select_arm(scrut, arms, *span, env, run)?;
                self.eval_tail(body, &env, run)
            }
            Kind::Let(decls, body) => {
                let env = self.eval_decls(decls, env, run)?;
                self.eval_tail(body, &env, run)
            }
            Kind::Seq(es) => {
                let (last, init) = es.split_last().expect("parser ensures non-empty");
                for x in init {
                    self.eval(x, env, run)?;
                }
                self.eval_tail(last, env, run)
            }
            _ => self.exec(n, env, run).map(Tail::Val),
        }
    }

    fn branch<'n>(
        &mut self,
        ctf: &'n (Node, Node, Node),
        span: Span,
        env: &Env,
        run: Running,
    ) -> Result<&'n Node, EvalError> {
        match self.eval(&ctf.0, env, run)? {
            Value::Bool(true) => Ok(&ctf.1),
            Value::Bool(false) => Ok(&ctf.2),
            other => Err(EvalError::Type(format!("if condition evaluated to `{other}`"), span)),
        }
    }

    fn select_arm<'n>(
        &mut self,
        scrut: &Node,
        arms: &'n [(LPat, Node)],
        span: Span,
        env: &Env,
        run: Running,
    ) -> Result<(&'n Node, Env), EvalError> {
        let v = self.eval(scrut, env, run)?;
        for (pat, body) in arms {
            if let Some(env) = self.bind(pat, &v, env.clone()) {
                return Ok((body, env));
            }
        }
        Err(EvalError::MatchFailure(span))
    }

    fn eval_decls(&mut self, decls: &[LDecl], env: &Env, run: Running) -> Result<Env, EvalError> {
        let mut env = env.clone();
        for d in decls {
            env = match d {
                LDecl::Val { pat, expr, span } => {
                    let v = self.eval(expr, &env, run)?;
                    self.bind(pat, &v, env).ok_or(EvalError::MatchFailure(*span))?
                }
                LDecl::Fun(code) => {
                    let group = Group::new(code.clone(), env.clone());
                    env.push(Value::Closure(Closure { group, member: 0 }))
                }
            };
        }
        Ok(env)
    }

    // -----------------------------------------------------------------
    // Application.
    // -----------------------------------------------------------------

    /// Applies a function value to one argument.
    ///
    /// # Errors
    ///
    /// Returns a run-time error from the callee, or a type error for
    /// non-functions.
    pub fn apply(&mut self, f: Value, arg: Value, span: Span) -> Result<Value, EvalError> {
        self.sync_sites();
        self.apply_value(f, arg, span)
    }

    fn apply_value(&mut self, f: Value, arg: Value, span: Span) -> Result<Value, EvalError> {
        self.tick(1)?;
        match f {
            Value::Prim(p) => prims::apply(self, p, arg, span),
            Value::Closure(c) => {
                if c.arity() == 1 {
                    self.run(c, Args::One(arg), span)
                } else {
                    Ok(Value::Partial(c, Rc::new(vec![arg])))
                }
            }
            Value::Partial(c, args) => {
                let mut all = args.as_ref().clone();
                all.push(arg);
                if all.len() == c.arity() {
                    self.run(c, Args::Many(all), span)
                } else {
                    Ok(Value::Partial(c, Rc::new(all)))
                }
            }
            other => Err(EvalError::Type(format!("applied non-function `{other}`"), span)),
        }
    }

    /// Runs a saturated closure call with **tail-call optimisation**: when
    /// a clause body ends in another saturated closure call, the loop
    /// rebinds and continues instead of growing the Rust stack. This is
    /// what lets the benchmarks' tail-recursive loops iterate millions of
    /// times (`loop(i+1, n, ...)` in `dotprod`, the copy loop of `bcopy`).
    /// A clause that matches no argument fails at the span of the call
    /// that entered the loop.
    fn run(
        &mut self,
        mut closure: Closure,
        mut args: Args,
        span: Span,
    ) -> Result<Value, EvalError> {
        loop {
            self.tick(1)?;
            let tail = {
                let group = &closure.group;
                let mut base = group.env.clone();
                if group.code.self_node {
                    base = base.push(Value::Closure(closure.clone()));
                }
                let args = args.as_slice();
                let mut selected = None;
                for clause in closure.code().clauses.iter() {
                    let mut env = Some(base.clone());
                    for (p, v) in clause.params.iter().zip(args) {
                        env = env.and_then(|e| self.bind(p, v, e));
                    }
                    if let Some(env) = env {
                        selected = Some((&clause.body, env));
                        break;
                    }
                }
                let Some((body, env)) = selected else {
                    return Err(EvalError::MatchFailure(span));
                };
                self.eval_tail(body, &env, Some(group))?
            };
            // Resolve the tail application without recursing.
            let (fv, av, call_span) = match tail {
                Tail::Val(v) => return Ok(v),
                Tail::Call(fv, av, call_span) => (fv, av, call_span),
            };
            match fv {
                Value::Prim(p) => return prims::apply(self, p, av, call_span),
                Value::Closure(c2) => {
                    if c2.arity() != 1 {
                        return Ok(Value::Partial(c2, Rc::new(vec![av])));
                    }
                    closure = c2;
                    args = Args::One(av);
                }
                Value::Partial(c2, prev) => {
                    let mut all = prev.as_ref().clone();
                    all.push(av);
                    if all.len() != c2.arity() {
                        return Ok(Value::Partial(c2, Rc::new(all)));
                    }
                    closure = c2;
                    args = Args::Many(all);
                }
                other => {
                    return Err(EvalError::Type(
                        format!("applied non-function `{other}`"),
                        call_span,
                    ))
                }
            }
        }
    }
}

/// The arguments of a saturated call; a single argument needs no vector.
enum Args {
    One(Value),
    Many(Vec<Value>),
}

impl Args {
    fn as_slice(&self) -> &[Value] {
        match self {
            Args::One(v) => std::slice::from_ref(v),
            Args::Many(vs) => vs,
        }
    }
}

/// Result of evaluating a tail position.
enum Tail {
    /// A finished value.
    Val(Value),
    /// A pending application `f a` at the given span.
    Call(Value, Value, Span),
}

/// Counts live closure groups, so tests can show that closures are freed.
#[cfg(test)]
pub(crate) mod live_groups {
    use std::cell::Cell;

    thread_local! {
        static LIVE: Cell<usize> = const { Cell::new(0) };
        static PEAK: Cell<usize> = const { Cell::new(0) };
    }

    pub fn created() {
        let live = LIVE.with(|l| {
            l.set(l.get() + 1);
            l.get()
        });
        PEAK.with(|p| p.set(p.get().max(live)));
    }

    pub fn dropped() {
        LIVE.with(|l| l.set(l.get() - 1));
    }

    /// Live groups now.
    pub fn live() -> usize {
        LIVE.with(Cell::get)
    }

    /// Resets the peak to the current count and returns the old peak.
    pub fn take_peak() -> usize {
        PEAK.with(|p| p.replace(live()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dml_syntax::parse_program;

    fn machine(src: &str) -> Machine {
        let p = parse_program(src).unwrap();
        Machine::load(&p, CheckConfig::checked()).unwrap()
    }

    #[test]
    fn factorial() {
        let mut m = machine("fun fact(n) = if n = 0 then 1 else n * fact(n - 1)");
        let r = m.call("fact", vec![Value::Int(10)]).unwrap();
        assert_eq!(r.as_int(), Some(3_628_800));
    }

    #[test]
    fn mutual_recursion() {
        let src = "fun even(n) = if n = 0 then true else odd(n - 1) \
                   and odd(n) = if n = 0 then false else even(n - 1)";
        let mut m = machine(src);
        assert_eq!(m.call("even", vec![Value::Int(10)]).unwrap().as_bool(), Some(true));
        assert_eq!(m.call("odd", vec![Value::Int(10)]).unwrap().as_bool(), Some(false));
    }

    #[test]
    fn list_reverse() {
        let src = "fun rev(nil, ys) = ys | rev(x::xs, ys) = rev(xs, x::ys) \
                   fun reverse(l) = rev(l, nil)";
        let mut m = machine(src);
        let l = Value::list([Value::Int(1), Value::Int(2), Value::Int(3)]);
        let r = m.call("reverse", vec![l]).unwrap();
        let out: Vec<i64> = r.list_to_vec().unwrap().iter().map(|v| v.as_int().unwrap()).collect();
        assert_eq!(out, vec![3, 2, 1]);
    }

    #[test]
    fn curried_functions_partial_application() {
        let src = "fun add x y = x + y  val inc = add 1";
        let mut m = machine(src);
        let r = m.call("inc", vec![Value::Int(41)]).unwrap();
        assert_eq!(r.as_int(), Some(42));
    }

    #[test]
    fn higher_order_fn_expressions() {
        let src = "fun apply f x = f x  val r = apply (fn n => n * 2) 21";
        let m = machine(src);
        assert_eq!(m.global("r").unwrap().as_int(), Some(42));
    }

    #[test]
    fn case_on_constructors() {
        let src = r#"
datatype 'a option = NONE | SOME of 'a
fun getOr(x, d) = case x of SOME v => v | NONE => d
val a = getOr(SOME 5, 0)
val b = getOr(NONE, 7)
"#;
        let mut m = machine(src);
        assert_eq!(m.global("a").unwrap().as_int(), Some(5));
        assert_eq!(m.global("b").unwrap().as_int(), Some(7));
        let _ = &mut m;
    }

    #[test]
    fn nullary_constructor_arms_do_not_shadow() {
        let src = r#"
fun f(x) = case x of LESS => 1 | EQUAL => 2 | GREATER => 3
"#;
        let mut m = machine(src);
        let r = m.call("f", vec![Value::Con("GREATER".into(), None)]).unwrap();
        assert_eq!(r.as_int(), Some(3), "GREATER must not match the LESS arm");
    }

    #[test]
    fn sequencing_and_update() {
        let src = "fun bump(a) = (update(a, 0, sub(a, 0) + 1); sub(a, 0))";
        let mut m = machine(src);
        let arr = Value::int_array([41]);
        assert_eq!(m.call("bump", vec![arr]).unwrap().as_int(), Some(42));
        assert_eq!(m.counters.array_checks_executed, 3, "two subs and one update");
    }

    #[test]
    fn bounds_violation_detected() {
        let src = "fun get(a, i) = sub(a, i)";
        let mut m = machine(src);
        let arr = Value::int_array([1, 2, 3]);
        let args = Value::Tuple(Rc::new(vec![arr, Value::Int(7)]));
        let err = m.call("get", vec![args]).unwrap_err();
        assert!(matches!(err, EvalError::BoundsViolation { index: 7, len: 3, .. }));
    }

    #[test]
    fn division_semantics_and_by_zero() {
        let mut m = machine("fun f(a, b) = a div b  fun g(a, b) = a mod b");
        let pair = |a: i64, b: i64| Value::Tuple(Rc::new(vec![Value::Int(a), Value::Int(b)]));
        assert_eq!(m.call("f", vec![pair(-7, 2)]).unwrap().as_int(), Some(-4));
        assert_eq!(m.call("g", vec![pair(-7, 2)]).unwrap().as_int(), Some(1));
        assert!(matches!(m.call("f", vec![pair(1, 0)]), Err(EvalError::DivisionByZero(_))));
    }

    #[test]
    fn overflow_is_raised_and_catchable() {
        let src = "fun add(a, b) = a + b \
                   fun safe(a, b) = add(a, b) handle Overflow => 0";
        let mut m = machine(src);
        let pair = |a: i64, b: i64| Value::Tuple(Rc::new(vec![Value::Int(a), Value::Int(b)]));
        let err = m.call("add", vec![pair(i64::MAX, 1)]).unwrap_err();
        assert!(matches!(err, EvalError::Overflow(_)), "{err}");
        assert_eq!(m.call("safe", vec![pair(i64::MAX, 1)]).unwrap().as_int(), Some(0));
        assert_eq!(m.call("safe", vec![pair(40, 2)]).unwrap().as_int(), Some(42));
    }

    #[test]
    fn fuel_limits_runaway_recursion() {
        let src = "fun spin(n) = spin(n + 1)";
        let p = parse_program(src).unwrap();
        let mut m = Machine::load(&p, CheckConfig::checked()).unwrap().with_fuel(10_000);
        assert!(matches!(m.call("spin", vec![Value::Int(0)]), Err(EvalError::OutOfFuel)));
    }

    #[test]
    fn top_level_val_bindings() {
        let mut m = machine("val x = 3 val y = x + 4 fun get() = y");
        // `fun get()` has a unit parameter.
        let r = m.call("get", vec![Value::Unit]).unwrap();
        assert_eq!(r.as_int(), Some(7));
    }

    #[test]
    fn env_lookup_shadowing() {
        let mut m = machine("val x = 1 val x = x + 1 fun f(x) = let val x = x * 10 in x end");
        assert_eq!(m.global("x").unwrap().as_int(), Some(2));
        assert!(m.global("y").is_none());
        assert_eq!(m.call("f", vec![Value::Int(4)]).unwrap().as_int(), Some(40));
    }

    #[test]
    fn unbound_names_fail_when_evaluated() {
        let mut m = machine("fun f(b) = if b then nowhere else 0");
        assert_eq!(m.call("f", vec![Value::Bool(false)]).unwrap().as_int(), Some(0));
        let err = m.call("f", vec![Value::Bool(true)]).unwrap_err();
        assert!(matches!(err, EvalError::Unbound(ref n, _) if n == "nowhere"), "{err}");
    }

    #[test]
    fn escaping_closures_keep_their_group_alive() {
        // `g` outlives the call of `mk` that built it, and still reaches
        // `f` through the environment it captured.
        let src = "fun mk(k) = let fun f(x) = if x = 0 then k else (fn y => f(y))(x - 1) in fn z => f(z) end \
                   val g = mk(7)";
        let mut m = machine(src);
        assert_eq!(m.call("g", vec![Value::Int(3)]).unwrap().as_int(), Some(7));
    }

    #[test]
    fn dropping_a_long_closure_chain_does_not_recurse() {
        // Each closure captures the previous one; freeing the last must
        // not take one nested drop per link (the test thread's stack is
        // far too small for 100k of them).
        let src = "fun build(n, f) = if n = 0 then f else build(n - 1, fn x => f(x) + 1) \
                   fun go(n) = let val g = build(n, fn x => x) in 0 end";
        let mut m = machine(src);
        let before = live_groups::live();
        assert_eq!(m.call("go", vec![Value::Int(100_000)]).unwrap().as_int(), Some(0));
        assert_eq!(live_groups::live(), before, "the whole chain is freed");
    }

    #[test]
    fn closures_are_freed_when_unreachable() {
        // Every iteration builds a `let fun` closure; none may outlive it.
        let src = "fun spin(i) = if i = 0 then 0 \
                   else let fun f(x) = x + 1 in spin(f(i) - 2) end";
        let mut m = machine(src);
        let before = live_groups::live();
        live_groups::take_peak();
        assert_eq!(m.call("spin", vec![Value::Int(100_000)]).unwrap().as_int(), Some(0));
        let peak = live_groups::take_peak();
        assert!(peak <= before + 2, "{} live closure groups at peak", peak - before);
        assert_eq!(live_groups::live(), before);
        drop(m);
        assert_eq!(live_groups::live(), before - 1, "the machine's own group is freed too");
    }
}
