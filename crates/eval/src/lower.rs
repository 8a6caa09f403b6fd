//! Load-time lowering of surface declarations to the resolved tree the
//! interpreter runs.
//!
//! Every name is decided once, here, instead of on each evaluation:
//!
//! * a variable becomes a de Bruijn depth into the value-only environment
//!   chain ([`Kind::Local`]), an index into the machine's globals
//!   ([`Kind::Global`]), or a member of a `fun` group ([`Kind::SelfRef`],
//!   [`Kind::Member`]);
//! * a constructor name becomes a shared `Rc<str>`, so building and testing
//!   constructor values allocates no string;
//! * a primitive name becomes a [`Prim`], and a saturated call
//!   `p (e1, …, en)` becomes a [`Kind::PrimCall`], which evaluates its
//!   arguments without building the tuple;
//! * a pattern becomes an [`LPat`] that pushes the values it binds, in
//!   source order, with no names attached.
//!
//! The abstract cost model is that of a walk over the source tree: one op
//! per evaluated source node, per application and per clause selection,
//! with no op of its own for a tail-position application, conditional,
//! `case`, `let`, sequence or annotation. Each [`Node`] records how many
//! source-node ops fall due before its first sub-evaluation, in
//! [`Node::ticks`] (ordinary position) and [`Node::tail_ticks`] (tail
//! position); charging such a run at once keeps both the op count and the
//! point where fuel runs out.

use crate::prims::Prim;
use dml_syntax::ast::{Clause, Decl, Expr, FunDecl, Pat};
use dml_syntax::Span;
use std::collections::HashMap;
use std::rc::Rc;

/// A resolved expression.
#[derive(Debug)]
pub(crate) struct Node {
    /// Ops charged on entry in ordinary position.
    pub ticks: u32,
    /// Ops charged on entry in tail position.
    pub tail_ticks: u32,
    pub kind: Kind,
}

/// The resolved expression forms.
#[derive(Debug)]
pub(crate) enum Kind {
    /// The binding `depth` links up the environment chain.
    Local(u32),
    /// Member `member` of the `fun` group bound `depth` links up.
    Member {
        depth: u32,
        member: u32,
    },
    /// Member of the group whose clause is running.
    SelfRef(u32),
    /// A top-level binding.
    Global(u32),
    /// A constructor used as a value: the nullary constructor.
    Con(Rc<str>),
    /// A primitive used as a value.
    Prim(Prim),
    /// A name bound nowhere; evaluating it is a run-time error.
    Unbound(Box<(String, Span)>),
    Int(i64),
    Bool(bool),
    Unit,
    /// Constructor application.
    ConApp(Rc<str>, Box<Node>),
    /// General application.
    App(Box<(Node, Node)>, Span),
    /// A saturated primitive call: its one to three arguments.
    PrimCall(Prim, Box<[Node]>, CallSite),
    Tuple(Box<[Node]>),
    If(Box<(Node, Node, Node)>, Span),
    Case(Box<Node>, Box<[(LPat, Node)]>, Span),
    Let(Box<[LDecl]>, Box<Node>),
    /// An anonymous function: a one-member group.
    Fn(Rc<GroupCode>),
    Seq(Box<[Node]>),
    Andalso(Box<(Node, Node)>, Span),
    Orelse(Box<(Node, Node)>, Span),
    Raise(Rc<str>, Span),
    Handle(Box<Node>, Box<[(String, Node)]>),
}

/// The call site of a direct primitive call. An eliminable check site
/// (`sub`, `update`, `nth`) is numbered, so the interpreter decides once per
/// check configuration, not once per access, whether its check is skipped.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CallSite {
    pub span: Span,
    /// Index into the machine's check sites; `NO_SITE` for other primitives.
    pub site: u32,
}

/// The `CallSite::site` of a primitive without an eliminable check.
pub(crate) const NO_SITE: u32 = u32::MAX;

/// A resolved pattern. Binders push their value; the interpreter binds the
/// pushed values in order, which is the order the lowering assigned depths.
#[derive(Debug)]
pub(crate) enum LPat {
    Wild,
    Bind,
    Int(i64),
    Bool(bool),
    Tuple(Box<[LPat]>),
    /// A constructor with or without an argument pattern.
    Con(Rc<str>, Option<Box<LPat>>),
    /// A bare constructor name in variable position: the nullary value.
    NullaryCon(Rc<str>),
}

fn same_con(a: &Rc<str>, b: &Rc<str>) -> bool {
    Rc::ptr_eq(a, b) || a == b
}

impl LPat {
    /// Matches `v`, pushing bound values onto `out`; on failure `out` may
    /// hold a prefix of the bindings.
    pub fn matches(&self, v: &crate::Value, out: &mut Vec<crate::Value>) -> bool {
        use crate::Value;
        match (self, v) {
            (LPat::Wild, _) => true,
            (LPat::Bind, _) => {
                out.push(v.clone());
                true
            }
            (LPat::Int(n), Value::Int(m)) => n == m,
            (LPat::Bool(b), Value::Bool(c)) => b == c,
            (LPat::Tuple(ps), Value::Unit) => ps.is_empty(),
            (LPat::Tuple(ps), Value::Tuple(vs)) => {
                ps.len() == vs.len() && ps.iter().zip(vs.iter()).all(|(p, v)| p.matches(v, out))
            }
            (LPat::Con(name, None), Value::Con(c, None)) => same_con(name, c),
            (LPat::Con(name, Some(arg)), Value::Con(c, Some(carg))) => {
                same_con(name, c) && arg.matches(carg, out)
            }
            (LPat::NullaryCon(name), Value::Con(c, None)) => same_con(name, c),
            _ => false,
        }
    }
}

/// A resolved declaration inside `let`.
#[derive(Debug)]
pub(crate) enum LDecl {
    Val { pat: LPat, expr: Node, span: Span },
    Fun(Rc<GroupCode>),
}

/// The code of a `fun ... and ...` group (or of an `fn`): shared by every
/// closure made from it.
#[derive(Debug)]
pub(crate) struct GroupCode {
    pub members: Box<[MemberCode]>,
    /// Whether each call pushes the running closure onto its environment:
    /// needed when a nested `fn` or `fun` names a member of this group,
    /// since it captures the environment rather than the running group.
    pub self_node: bool,
}

/// One function of a group.
#[derive(Debug)]
pub(crate) struct MemberCode {
    pub name: String,
    /// Number of curried parameters (that of the first clause).
    pub arity: usize,
    pub clauses: Box<[ClauseCode]>,
}

/// One clause: its parameter patterns and body.
#[derive(Debug)]
pub(crate) struct ClauseCode {
    pub params: Box<[LPat]>,
    pub body: Node,
}

/// One link of the run-time environment chain, as the lowering sees it.
enum Binder {
    Var(String),
    /// A group of functions bound by one environment node (when `node`).
    /// `self_of` is the lambda level whose clauses run inside this group.
    Group {
        names: Vec<String>,
        node: bool,
        self_of: Option<u32>,
    },
}

/// The lowering context: what each name means at the current point.
pub(crate) struct Lowerer<'a> {
    cons: &'a HashMap<String, Rc<str>>,
    globals: &'a HashMap<String, u32>,
    /// The eliminable check sites numbered so far.
    sites: &'a mut Vec<Span>,
    binders: Vec<Binder>,
    /// Lambda nesting level of the code being lowered.
    level: u32,
}

fn node(ticks: u32, tail_ticks: u32, kind: Kind) -> Node {
    Node { ticks, tail_ticks, kind }
}

impl<'a> Lowerer<'a> {
    /// A context for top-level code: constructors and globals only.
    pub fn new(
        cons: &'a HashMap<String, Rc<str>>,
        globals: &'a HashMap<String, u32>,
        sites: &'a mut Vec<Span>,
    ) -> Self {
        Lowerer { cons, globals, sites, binders: Vec::new(), level: 0 }
    }

    fn resolve(&self, name: &str, span: Span) -> Kind {
        let mut depth = 0;
        for b in self.binders.iter().rev() {
            match b {
                Binder::Var(n) => {
                    if n == name {
                        return Kind::Local(depth);
                    }
                    depth += 1;
                }
                Binder::Group { names, node, self_of } => {
                    if let Some(k) = names.iter().rposition(|n| n == name) {
                        if *self_of == Some(self.level) {
                            return Kind::SelfRef(k as u32);
                        }
                        debug_assert!(*node, "`{name}` is reached through a group node");
                        return Kind::Member { depth, member: k as u32 };
                    }
                    if *node {
                        depth += 1;
                    }
                }
            }
        }
        if let Some(&g) = self.globals.get(name) {
            return Kind::Global(g);
        }
        if let Some(c) = self.cons.get(name) {
            return Kind::Con(c.clone());
        }
        match Prim::from_name(name) {
            Some(p) => Kind::Prim(p),
            None => Kind::Unbound(Box::new((name.to_string(), span))),
        }
    }

    /// Lowers an expression.
    pub fn expr(&mut self, e: &Expr) -> Node {
        match e {
            Expr::Var(id) => node(1, 1, self.resolve(&id.name, id.span)),
            Expr::Int(n, _) => node(1, 1, Kind::Int(*n)),
            Expr::Bool(b, _) => node(1, 1, Kind::Bool(*b)),
            Expr::App(f, a, span) => self.app(f, a, *span),
            Expr::Tuple(es, _) if es.is_empty() => node(1, 1, Kind::Unit),
            Expr::Tuple(es, _) => node(1, 1, Kind::Tuple(self.exprs(es))),
            Expr::If(c, t, f, span) => {
                let parts = (self.expr(c), self.expr(t), self.expr(f));
                node(1, 0, Kind::If(Box::new(parts), *span))
            }
            Expr::Case(scrut, arms, span) => {
                let scrut = self.expr(scrut);
                let arms = arms
                    .iter()
                    .map(|(p, body)| {
                        let mark = self.binders.len();
                        let pat = self.pat(p);
                        let body = self.expr(body);
                        self.binders.truncate(mark);
                        (pat, body)
                    })
                    .collect();
                node(1, 0, Kind::Case(Box::new(scrut), arms, *span))
            }
            Expr::Let(decls, body, _) => {
                let mark = self.binders.len();
                let decls = decls.iter().filter_map(|d| self.decl(d)).collect();
                let body = self.expr(body);
                self.binders.truncate(mark);
                node(1, 0, Kind::Let(decls, Box::new(body)))
            }
            Expr::Fn(arms, _) => {
                let clauses: Vec<_> =
                    arms.iter().map(|(p, b)| (std::slice::from_ref(p), b)).collect();
                let member = self.member("fn", &clauses);
                let code = GroupCode { members: Box::new([member]), self_node: false };
                node(1, 1, Kind::Fn(Rc::new(code)))
            }
            Expr::Seq(es, _) => node(1, 0, Kind::Seq(self.exprs(es))),
            Expr::Anno(inner, _, _) => {
                // An annotation costs an op of its own, except in tail
                // position, which looks straight through it.
                let mut n = self.expr(inner);
                n.ticks += 1;
                n
            }
            Expr::Andalso(a, b, span) => {
                node(1, 1, Kind::Andalso(Box::new((self.expr(a), self.expr(b))), *span))
            }
            Expr::Orelse(a, b, span) => {
                node(1, 1, Kind::Orelse(Box::new((self.expr(a), self.expr(b))), *span))
            }
            Expr::Raise(name, span) => node(1, 1, Kind::Raise(Rc::from(name.name.as_str()), *span)),
            Expr::Handle(body, arms, _) => {
                let body = self.expr(body);
                let arms = arms.iter().map(|(n, h)| (n.name.clone(), self.expr(h))).collect();
                node(1, 1, Kind::Handle(Box::new(body), arms))
            }
        }
    }

    fn exprs(&mut self, es: &[Expr]) -> Box<[Node]> {
        es.iter().map(|e| self.expr(e)).collect()
    }

    /// An application: constructor applications and saturated primitive
    /// calls are recognised here, once.
    fn app(&mut self, f: &Expr, a: &Expr, span: Span) -> Node {
        if let Expr::Var(id) = f {
            match self.resolve(&id.name, id.span) {
                // The head variable costs no op: it is never evaluated.
                Kind::Con(c) => return node(1, 0, Kind::ConApp(c, Box::new(self.expr(a)))),
                Kind::Prim(p) => {
                    if let Some((args, ticks)) = self.prim_args(p, a) {
                        let site = if p.eliminable() {
                            self.sites.push(span);
                            self.sites.len() as u32 - 1
                        } else {
                            NO_SITE
                        };
                        let call = Kind::PrimCall(p, args, CallSite { span, site });
                        return node(ticks, ticks - 1, call);
                    }
                }
                _ => {}
            }
        }
        node(1, 0, Kind::App(Box::new((self.expr(f), self.expr(a))), span))
    }

    /// The arguments of a saturated call of `p` on `a`, with the source
    /// ops charged before them: the application and the head variable, plus
    /// the argument tuple when it is inlined (the `apply` op after the
    /// arguments is charged by the interpreter outside tail position).
    /// `None` when `a` does not supply `p`'s arguments one by one.
    fn prim_args(&mut self, p: Prim, a: &Expr) -> Option<(Box<[Node]>, u32)> {
        match a {
            _ if p.arity() == 1 => Some((Box::new([self.expr(a)]), 2)),
            Expr::Tuple(es, _) if es.len() == p.arity() => Some((self.exprs(es), 3)),
            _ => None,
        }
    }

    /// Lowers a pattern and binds its variables, in order.
    pub fn pat(&mut self, p: &Pat) -> LPat {
        match p {
            Pat::Wild(_) => LPat::Wild,
            Pat::Var(id) => match self.cons.get(&id.name) {
                Some(c) => LPat::NullaryCon(c.clone()),
                None => {
                    self.binders.push(Binder::Var(id.name.clone()));
                    LPat::Bind
                }
            },
            Pat::Int(n, _) => LPat::Int(*n),
            Pat::Bool(b, _) => LPat::Bool(*b),
            Pat::Tuple(ps, _) => LPat::Tuple(ps.iter().map(|p| self.pat(p)).collect()),
            Pat::Con(name, arg, _) => {
                let c = self.cons.get(&name.name).cloned().unwrap_or_else(|| Rc::from(&*name.name));
                LPat::Con(c, arg.as_ref().map(|a| Box::new(self.pat(a))))
            }
            Pat::Anno(inner, _, _) => self.pat(inner),
        }
    }

    /// Names the variables a pattern binds, in binding order (for
    /// top-level `val`s, whose bindings become globals).
    pub fn pat_names(&mut self, p: &Pat) -> (LPat, Vec<String>) {
        let mark = self.binders.len();
        let pat = self.pat(p);
        let names = self
            .binders
            .drain(mark..)
            .map(|b| match b {
                Binder::Var(n) => n,
                Binder::Group { .. } => unreachable!("patterns bind variables only"),
            })
            .collect();
        (pat, names)
    }

    /// Lowers a `let` declaration, binding what it declares.
    fn decl(&mut self, d: &Decl) -> Option<LDecl> {
        match d {
            Decl::Val(v) => {
                let expr = self.expr(&v.expr);
                let pat = self.pat(&v.pat);
                Some(LDecl::Val { pat, expr, span: v.span })
            }
            Decl::Fun(funs) => {
                let code = self.group(funs, false);
                let names = funs.iter().map(|f| f.name.name.clone()).collect();
                self.binders.push(Binder::Group { names, node: true, self_of: None });
                Some(LDecl::Fun(code))
            }
            Decl::Datatype(_) | Decl::Typeref(_) | Decl::Assert(_) | Decl::Exception(_) => None,
        }
    }

    /// Lowers a `fun` group. Top-level members are globals (already in
    /// `globals`); a local group's clauses see their siblings through the
    /// running closure, or through a per-call node when a nested function
    /// names them.
    pub fn group(&mut self, funs: &[FunDecl], top_level: bool) -> Rc<GroupCode> {
        let names: Vec<String> = funs.iter().map(|f| f.name.name.clone()).collect();
        let self_node = !top_level && funs.iter().any(|f| named_in_nested_fn(&f.clauses, &names));
        let mark = self.binders.len();
        if !top_level {
            let self_of = Some(self.level + 1);
            self.binders.push(Binder::Group { names, node: self_node, self_of });
        }
        let members = funs
            .iter()
            .map(|f| {
                let clauses: Vec<_> =
                    f.clauses.iter().map(|cl| (&cl.params[..], &cl.body)).collect();
                self.member(&f.name.name, &clauses)
            })
            .collect();
        self.binders.truncate(mark);
        Rc::new(GroupCode { members, self_node })
    }

    fn member(&mut self, name: &str, clauses: &[(&[Pat], &Expr)]) -> MemberCode {
        let arity = clauses.first().map(|(params, _)| params.len()).unwrap_or(1);
        self.level += 1;
        let clauses = clauses
            .iter()
            .map(|(params, body)| {
                let mark = self.binders.len();
                // Only the first `arity` parameters ever meet an argument.
                let params = params.iter().take(arity).map(|p| self.pat(p)).collect();
                let body = self.expr(body);
                self.binders.truncate(mark);
                ClauseCode { params, body }
            })
            .collect();
        self.level -= 1;
        MemberCode { name: name.to_string(), arity, clauses }
    }
}

/// `true` if a function nested inside `clauses` mentions one of `names`
/// (conservatively: shadowing is ignored).
fn named_in_nested_fn(clauses: &[Clause], names: &[String]) -> bool {
    clauses.iter().any(|cl| mentions(&cl.body, names, false))
}

fn mentions(e: &Expr, names: &[String], nested: bool) -> bool {
    let m = |x: &Expr| mentions(x, names, nested);
    match e {
        Expr::Var(id) => nested && names.contains(&id.name),
        Expr::Int(..) | Expr::Bool(..) | Expr::Raise(..) => false,
        Expr::App(f, a, _) | Expr::Andalso(f, a, _) | Expr::Orelse(f, a, _) => m(f) || m(a),
        Expr::Tuple(es, _) | Expr::Seq(es, _) => es.iter().any(m),
        Expr::If(c, t, f, _) => m(c) || m(t) || m(f),
        Expr::Case(s, arms, _) => m(s) || arms.iter().any(|(_, b)| m(b)),
        Expr::Let(decls, body, _) => {
            m(body)
                || decls.iter().any(|d| match d {
                    Decl::Val(v) => m(&v.expr),
                    Decl::Fun(fs) => {
                        fs.iter().flat_map(|f| &f.clauses).any(|cl| mentions(&cl.body, names, true))
                    }
                    _ => false,
                })
        }
        Expr::Fn(arms, _) => arms.iter().any(|(_, b)| mentions(b, names, true)),
        Expr::Anno(inner, _, _) => m(inner),
        Expr::Handle(body, arms, _) => m(body) || arms.iter().any(|(_, h)| m(h)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;
    use dml_syntax::ast::Ident;

    fn cons() -> HashMap<String, Rc<str>> {
        ["nil", "::", "LESS"].iter().map(|c| (c.to_string(), Rc::from(*c))).collect()
    }

    fn lower_pat(p: &Pat) -> (LPat, Vec<String>) {
        let (cons, globals) = (cons(), HashMap::new());
        Lowerer::new(&cons, &globals, &mut Vec::new()).pat_names(p)
    }

    fn lower_expr(src: &str) -> Node {
        let prog = dml_syntax::parse_program(&format!("val it = {src}")).unwrap();
        let Decl::Val(v) = &prog.decls[0] else { panic!("a val") };
        let (cons, globals) = (cons(), HashMap::new());
        Lowerer::new(&cons, &globals, &mut Vec::new()).expr(&v.expr)
    }

    #[test]
    fn match_tuple_pattern() {
        let p = Pat::Tuple(
            vec![Pat::Var(Ident::synth("x")), Pat::Int(2, Span::default())],
            Span::default(),
        );
        let (lp, names) = lower_pat(&p);
        assert_eq!(names, ["x"]);
        let v = Value::Tuple(Rc::new(vec![Value::Int(1), Value::Int(2)]));
        let mut binds = Vec::new();
        assert!(lp.matches(&v, &mut binds));
        assert_eq!(binds.len(), 1);
        assert_eq!(binds[0].as_int(), Some(1));
        let v2 = Value::Tuple(Rc::new(vec![Value::Int(1), Value::Int(3)]));
        assert!(!lp.matches(&v2, &mut Vec::new()));
    }

    #[test]
    fn match_cons_pattern() {
        let p = Pat::Con(
            Ident::synth("::"),
            Some(Box::new(Pat::Tuple(
                vec![Pat::Var(Ident::synth("x")), Pat::Var(Ident::synth("xs"))],
                Span::default(),
            ))),
            Span::default(),
        );
        let (lp, names) = lower_pat(&p);
        assert_eq!(names, ["x", "xs"]);
        // A list built outside the machine carries its own name strings.
        let v = Value::list([Value::Int(7)]);
        let mut binds = Vec::new();
        assert!(lp.matches(&v, &mut binds));
        assert_eq!(binds[0].as_int(), Some(7));
        assert!(matches!(&binds[1], Value::Con(n, None) if &**n == "nil"));
    }

    #[test]
    fn nullary_con_pattern_via_var() {
        let (lp, names) = lower_pat(&Pat::Var(Ident::synth("nil")));
        assert!(names.is_empty(), "constructor patterns bind nothing");
        let v = Value::Con("nil".into(), None);
        assert!(lp.matches(&v, &mut Vec::new()));
        // A *different* nullary constructor must not match.
        let (lp2, _) = lower_pat(&Pat::Var(Ident::synth("LESS")));
        assert!(!lp2.matches(&v, &mut Vec::new()));
    }

    #[test]
    fn unit_matches_empty_tuple_pattern() {
        let (lp, _) = lower_pat(&Pat::Tuple(vec![], Span::default()));
        assert!(lp.matches(&Value::Unit, &mut Vec::new()));
    }

    #[test]
    fn names_resolve_innermost_first() {
        let n = lower_expr("let val x = 1 val y = 2 val x = 3 in (x, y) end");
        let Kind::Let(_, body) = n.kind else { panic!("a let") };
        let Kind::Tuple(parts) = &body.kind else { panic!("a tuple") };
        assert!(matches!(parts[0].kind, Kind::Local(0)), "the later `x` shadows");
        assert!(matches!(parts[1].kind, Kind::Local(1)));
    }

    #[test]
    fn primitive_calls_are_direct_and_charge_source_ops() {
        let n = lower_expr("(1 + 2) : int");
        assert!(matches!(n.kind, Kind::PrimCall(Prim::Add, _, _)));
        // annotation + application + head variable + argument tuple
        assert_eq!((n.ticks, n.tail_ticks), (4, 2));
        let n = lower_expr("not true");
        assert!(matches!(n.kind, Kind::PrimCall(Prim::Not, _, _)));
        assert_eq!((n.ticks, n.tail_ticks), (2, 1));
        // A shadowed primitive name is an ordinary application.
        let n = lower_expr("let fun sub(x) = x in sub(1, 2) end");
        let Kind::Let(_, body) = n.kind else { panic!("a let") };
        assert!(matches!(body.kind, Kind::App(..)));
    }

    #[test]
    fn only_eliminable_checks_are_numbered_sites() {
        let prog = dml_syntax::parse_program(
            "val it = fn v => (sub(v, 0), subCK(v, 1), update(v, 2, 3), 1 + 2, nth(nil, 0))",
        )
        .unwrap();
        let Decl::Val(v) = &prog.decls[0] else { panic!("a val") };
        let (cons, globals, mut sites) = (cons(), HashMap::new(), Vec::new());
        Lowerer::new(&cons, &globals, &mut sites).expr(&v.expr);
        assert_eq!(sites.len(), 3, "sub, update and nth; not subCK or +");
    }

    #[test]
    fn local_groups_reach_themselves_without_a_node_unless_nested() {
        let n = lower_expr("let fun f(x) = f(x) in f end");
        let Kind::Let(decls, _) = n.kind else { panic!("a let") };
        let LDecl::Fun(code) = &decls[0] else { panic!("a fun") };
        assert!(!code.self_node);
        let n = lower_expr("let fun f(x) = fn y => f(y) in f end");
        let Kind::Let(decls, _) = n.kind else { panic!("a let") };
        let LDecl::Fun(code) = &decls[0] else { panic!("a fun") };
        assert!(code.self_node, "the nested `fn` captures the group through the environment");
    }
}
