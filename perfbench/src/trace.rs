//! The traced run: the same seeded inputs as a workload's end-to-end run,
//! pushed through each crate's public entry points in this process, with
//! a span around every call. Spans of one input share a request id; they
//! are kept in memory and written out as JSON when the run ends.
//!
//! Every pass is cold (gen memo cleared, fresh solver, one worker), so the
//! counts it reads are deterministic and repeat exactly across runs.

use crate::e2e::Spawner;
use crate::inputs::{self, EditStream};
use crate::stats::{quantile, spread};
use crate::{Ctx, Outcome};
use dml::experiments;
use dml::{Compiler, Mode, Session};
use dml_obs::json::{obj, Json};
use dml_oracle::scale::{verify_scale_case, ScaleCase};
use dml_solver::{prove_all, Solver, SolverOptions};
use dml_syntax::ast::Decl;
use std::path::Path;
use std::time::Instant;

/// `large_file` inputs per traced pass.
const LARGE_TRACE_FILES: u64 = 3;
/// `daemon_edits` requests per traced pass (after the warm-up sends).
const DAEMON_TRACE_EDITS: usize = 32;
/// Trivial `dmlc check` spawns per pass for `cli.startup_ms`.
const STARTUP_SPAWNS: usize = 9;
/// Fewest passes per traced run.
const MIN_PASSES: usize = 3;
/// The per-layer self times must add up to `core.compile_ms` within this
/// share (percent). The gap is tracing overhead plus the pipeline work no
/// layer call covers, such as the gen memo's copy of the generation
/// artifacts; it grows with file size (5–16% of a 600-obligation compile
/// measured, under 2% of the Table-1 programs).
const RECONCILE_TOLERANCE_PCT: f64 = 25.0;

/// Every per-layer metric, in report order, with its unit.
const LAYER_METRICS: [(&str, &str); 21] = [
    ("syntax.parse_ms", "ms"),
    ("types.env_ms", "ms"),
    ("types.phase1_ms", "ms"),
    ("types.phase1_us_per_obligation", "us"),
    ("elab.phase2_ms", "ms"),
    ("elab.phase2_us_per_obligation", "us"),
    ("elab.obligations", "count"),
    ("solver.solve_ms", "ms"),
    ("solver.goals", "count"),
    ("solver.fm_combinations", "count"),
    ("solver.cache_hit_ratio", "ratio"),
    ("core.compile_ms", "ms"),
    ("core.report_ms", "ms"),
    ("core.session_check_ms", "ms"),
    ("core.reuse_ratio", "ratio"),
    ("core.layer_gap_pct", "%"),
    ("cli.startup_ms", "ms"),
    ("eval.run_ms", "ms"),
    ("eval.ops", "count"),
    ("eval.checks_executed", "count"),
    ("eval.checks_eliminated", "count"),
];

/// The metrics that must repeat exactly across runs of one seed.
const DETERMINISTIC: [&str; 5] = [
    "elab.obligations",
    "solver.goals",
    "solver.fm_combinations",
    "eval.ops",
    "eval.checks_executed",
];

/// One traced input.
struct Input {
    name: String,
    source: String,
    known: Known,
}

/// What a traced input's compile and run must produce.
enum Known {
    /// A Tables 1-3 program: all verdicts proven, and its run returns the
    /// Rust reference value.
    Paper(usize, i64),
    /// A scale-corpus text: verdict counts equal the stamp.
    Scale(ScaleCase),
}

/// A timed span: pass, request id (shared by all spans of one input;
/// the `request` span is the parent of the layer spans), layer name,
/// start and duration in µs.
struct Span {
    pass: usize,
    request: usize,
    layer: &'static str,
    start_us: f64,
    dur_us: f64,
}

/// Per-pass totals of every layer metric.
#[derive(Default)]
struct Pass {
    values: std::collections::HashMap<&'static str, f64>,
}

impl Pass {
    fn add(&mut self, metric: &'static str, v: f64) {
        *self.values.entry(metric).or_insert(0.0) += v;
    }

    fn get(&self, metric: &str) -> f64 {
        self.values.get(metric).copied().unwrap_or(0.0)
    }
}

struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    pass: usize,
    request: usize,
}

impl Tracer {
    /// Runs `f` inside a span of `layer`, adding its duration (ms) to the
    /// pass total of `metric`.
    fn span<T>(
        &mut self,
        pass: &mut Pass,
        layer: &'static str,
        metric: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let t0 = Instant::now();
        let out = std::hint::black_box(f());
        let ms = self.record(layer, t0);
        pass.add(metric, ms);
        out
    }

    /// Records a span of `layer` from `t0` until now; returns its ms.
    fn record(&mut self, layer: &'static str, t0: Instant) -> f64 {
        let dur = t0.elapsed();
        self.spans.push(Span {
            pass: self.pass,
            request: self.request,
            layer,
            start_us: (t0 - self.epoch).as_secs_f64() * 1e6,
            dur_us: dur.as_secs_f64() * 1e6,
        });
        dur.as_secs_f64() * 1e3
    }
}

fn single_worker() -> Compiler {
    Compiler::new().workers(1)
}

/// Pushes one input through every layer, cold; returns an error when a
/// layer's output misses the input's known answer.
fn trace_input(
    t: &mut Tracer,
    pass: &mut Pass,
    input: &Input,
    one_shot_session: bool,
) -> Result<(), String> {
    let benches = experiments::benchmarks();
    let src = input.source.as_str();
    let fail = |what: String| format!("{}: {what}", input.name);

    // Layers, called one by one as the pipeline calls them.
    let program = t
        .span(pass, "syntax.parse", "syntax.parse_ms", || dml_syntax::parse_program(src))
        .map_err(|e| fail(e.to_string()))?;
    let (env, mut gen) = t.span(pass, "types.env", "types.env_ms", || {
        let mut gen = dml_index::VarGen::new();
        let mut env = dml_types::builtins::base_env(&mut gen);
        for d in &program.decls {
            let r = match d {
                Decl::Datatype(dd) => env.add_datatype(dd, &mut gen),
                Decl::Typeref(tr) => env.add_typeref(tr, &mut gen),
                Decl::Assert(sigs) => {
                    env.add_assert(sigs, &dml_types::builtins::check_kind, &mut gen)
                }
                _ => Ok(()),
            };
            r.expect("environment declarations elaborate");
        }
        (env, gen)
    });
    let phase1 = t
        .span(pass, "types.phase1", "types.phase1_ms", || dml_types::infer_program(&program, &env))
        .map_err(|e| fail(e.message))?;
    let out = t
        .span(pass, "elab.phase2", "elab.phase2_ms", || {
            dml_elab::elaborate(&program, &env, &phase1, gen.clone())
        })
        .map_err(|e| fail(e.message))?;
    gen = out.gen;
    pass.add("elab.obligations", out.obligations.len() as f64);
    let solver = Solver::new(SolverOptions::default().with_workers(Some(1)));
    let constraints: Vec<_> = out.obligations.iter().map(|o| &o.constraint).collect();
    let outcomes = t.span(pass, "solver.solve", "solver.solve_ms", || {
        prove_all(&solver, &constraints, &mut gen)
    });
    for o in &outcomes {
        pass.add("solver.goals", o.results.len() as f64);
        pass.add("solver.fm_combinations", o.stats.fm_combinations as f64);
        pass.add("solver.cache_hits", o.stats.cache_hits as f64);
        pass.add("solver.cache_misses", o.stats.cache_misses as f64);
    }

    // The whole pipeline on the same input, equally cold.
    dml::clear_gen_memo();
    let compiled = t
        .span(pass, "core.compile", "core.compile_ms", || single_worker().compile(src))
        .map_err(|e| fail(e.to_string()))?;
    t.span(pass, "core.report", "core.report_ms", || dml::check_report(&compiled, src));
    if compiled.stats().constraints != out.obligations.len() {
        return Err(fail("pipeline and layer calls disagree on the obligation count".into()));
    }
    if one_shot_session {
        dml::clear_gen_memo();
        let mut session = Session::new(single_worker());
        t.span(pass, "core.session_check", "core.session_check_ms", || {
            session.check(Some(&input.name), src)
        })
        .map_err(fail)?;
    }

    // Run what was checked, in eliminated mode.
    let mut machine = compiled.machine(Mode::Eliminated);
    match &input.known {
        Known::Paper(i, want) => {
            if !compiled.fully_verified() {
                return Err(fail("Table-1 verdicts not all proven".into()));
            }
            let got = t.span(pass, "eval.run", "eval.run_ms", || {
                (benches[*i].run)(&mut machine, inputs::TABLE_FACTOR)
            });
            if got != *want {
                return Err(fail(format!("run returned {got}, reference {want}")));
            }
        }
        Known::Scale(case) => {
            verify_scale_case(&compiled, &case.expected).map_err(fail)?;
            let calls = inputs::corpus_calls(case);
            let results = t.span(pass, "eval.run", "eval.run_ms", || {
                calls
                    .iter()
                    .map(|(f, args, _)| machine.call(f, vec![args.clone()]))
                    .collect::<Vec<_>>()
            });
            for ((f, _, want), got) in calls.iter().zip(results) {
                let got = got.map_err(|e| fail(format!("{f}: {e}")))?;
                if got.as_int() != Some(*want) {
                    return Err(fail(format!("{f} returned {got}, expected {want}")));
                }
            }
            let c = &machine.counters;
            if c.residual() != case.expected.residual_sites as u64
                || c.eliminated() != case.expected.proven_sites as u64
            {
                return Err(fail(format!(
                    "ran {} residual / {} eliminated checks, stamp says {}",
                    c.residual(),
                    c.eliminated(),
                    case.expected
                )));
            }
        }
    }
    pass.add("eval.ops", machine.ops as f64);
    pass.add("eval.checks_executed", machine.counters.executed() as f64);
    pass.add("eval.checks_eliminated", machine.counters.eliminated() as f64);
    Ok(())
}

/// The inputs a workload's traced pass covers.
fn inputs_for(ctx: &Ctx) -> (Vec<Input>, Option<Vec<inputs::Edit>>) {
    let benches = experiments::benchmarks();
    let paper = || {
        inputs::paper_sources()
            .into_iter()
            .enumerate()
            .map(|(i, (name, source))| Input {
                name: name.to_string(),
                source,
                known: Known::Paper(i, inputs::table_reference(&benches[i])),
            })
            .collect()
    };
    let scale = |case: ScaleCase| Input {
        name: case.name.clone(),
        source: case.source.clone(),
        known: Known::Scale(case),
    };
    match ctx.workload.as_str() {
        "paper_oneshot" | "table_runs" => (paper(), None),
        "large_file" => {
            ((0..LARGE_TRACE_FILES).map(|i| scale(inputs::large_file(ctx.seed, i))).collect(), None)
        }
        "daemon_edits" => {
            let mut stream = EditStream::new(ctx.seed);
            let mut requests = stream.warmup();
            for _ in 0..DAEMON_TRACE_EDITS {
                requests.push(stream.next_edit());
            }
            let edits =
                requests[inputs::DAEMON_FILES..].iter().map(|e| scale(e.case.clone())).collect();
            (edits, Some(requests))
        }
        other => panic!("unknown workload `{other}`"),
    }
}

/// Replays the daemon's request sequence through one warm [`Session`];
/// the warm-up sends are untimed.
fn replay_session(
    t: &mut Tracer,
    pass: &mut Pass,
    requests: &[inputs::Edit],
) -> Result<(), String> {
    dml::clear_gen_memo();
    let mut session = Session::new(single_worker());
    for (i, e) in requests.iter().enumerate() {
        let warm = i >= inputs::DAEMON_FILES;
        t.request = i;
        let check = |s: &mut Session| s.check(Some(&e.case.name), &e.case.source);
        let outcome = if warm {
            t.span(pass, "core.session_check", "core.session_check_ms", || check(&mut session))
        } else {
            check(&mut session)
        }
        .map_err(|err| format!("{}: {err}", e.case.name))?;
        if outcome.stats.constraints != e.case.obligations {
            return Err(format!("{}: session check disagrees with the stamp", e.case.name));
        }
        if warm {
            let s = &outcome.stats;
            pass.add("session.reused", s.obligations_reused as f64);
            pass.add("session.constraints", s.constraints as f64);
            pass.add("session.cache_hits", s.solver.cache_hits as f64);
            pass.add("session.cache_misses", s.solver.cache_misses as f64);
        }
    }
    Ok(())
}

/// Median wall time (ms) of trivial `dmlc check` runs.
fn cli_startup(spawner: &mut Spawner, trivial: &Path) -> Result<f64, String> {
    let mut samples = Vec::new();
    for _ in 0..STARTUP_SPAWNS {
        let (ms, ok, out) = spawner.check(trivial);
        samples.push(ms);
        if !ok || !out.contains("fully verified") {
            return Err("trivial dmlc check failed".into());
        }
    }
    Ok(quantile(&samples, 0.5))
}

/// The traced run of `ctx.workload`.
pub fn run(ctx: &Ctx) -> Outcome {
    let (inputs, daemon) = inputs_for(ctx);
    let mut t = Tracer { epoch: Instant::now(), spans: Vec::new(), pass: 0, request: 0 };
    let mut passes: Vec<Pass> = Vec::new();
    let mut attempted = 0u64;
    let mut failures = Vec::new();
    let mut spawner = Spawner::start(&ctx.dmlc);
    let trivial = ctx.work.join("trivial.dml");
    std::fs::write(&trivial, inputs::TRIVIAL).expect("work directory is writable");
    let start = Instant::now();
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < ctx.seconds {
        let mut pass = Pass::default();
        t.pass = passes.len();
        if let Some(requests) = &daemon {
            attempted += (requests.len() - inputs::DAEMON_FILES) as u64;
            if let Err(e) = replay_session(&mut t, &mut pass, requests) {
                failures.push(e);
            }
        }
        for (i, input) in inputs.iter().enumerate() {
            t.request = i;
            dml::clear_gen_memo();
            attempted += 1;
            let t0 = Instant::now();
            if let Err(e) = trace_input(&mut t, &mut pass, input, daemon.is_none()) {
                failures.push(e);
            }
            t.record("request", t0);
        }
        attempted += 1;
        match cli_startup(&mut spawner, &trivial) {
            Ok(ms) => pass.add("cli.startup_ms", ms),
            Err(e) => failures.push(e),
        }
        derive_ratios(&mut pass, daemon.is_some());
        passes.push(pass);
    }

    // Deterministic counts repeat exactly from pass to pass.
    for m in DETERMINISTIC {
        if passes.iter().any(|p| p.get(m) != passes[0].get(m)) {
            failures.push(format!("{m} differs between passes"));
        }
    }
    let median = |m: &str| quantile(&passes.iter().map(|p| p.get(m)).collect::<Vec<_>>(), 0.5);
    let gap = median("core.layer_gap_pct");
    if gap > RECONCILE_TOLERANCE_PCT {
        failures.push(format!(
            "layer self times miss core.compile_ms by {gap:.1}% (tolerance {RECONCILE_TOLERANCE_PCT}%)"
        ));
    }

    let metrics = LAYER_METRICS.iter().map(|(name, unit)| (*name, *unit, median(name))).collect();
    let detail = LAYER_METRICS
        .iter()
        .map(|(name, unit)| {
            (*name, spread(&passes.iter().map(|p| p.get(name)).collect::<Vec<_>>(), unit))
        })
        .chain([
            ("passes", Json::Int(passes.len() as i64)),
            ("inputs_per_pass", Json::Int(inputs.len() as i64)),
            ("reconcile_tolerance_pct", Json::Num(RECONCILE_TOLERANCE_PCT)),
            (
                "layer_gap_signed_pct",
                spread(
                    &passes.iter().map(|p| p.get("core.layer_gap_signed_pct")).collect::<Vec<_>>(),
                    "%",
                ),
            ),
        ])
        .collect();
    spawner.stop();
    write_spans(ctx, &t.spans);
    Outcome { attempted, failures, metrics, detail }
}

/// Ratios and per-obligation costs of one pass, from its totals.
fn derive_ratios(p: &mut Pass, daemon: bool) {
    let obligations = p.get("elab.obligations").max(1.0);
    p.add("types.phase1_us_per_obligation", p.get("types.phase1_ms") * 1e3 / obligations);
    p.add("elab.phase2_us_per_obligation", p.get("elab.phase2_ms") * 1e3 / obligations);
    let (hits, misses) = if daemon {
        (p.get("session.cache_hits"), p.get("session.cache_misses"))
    } else {
        (p.get("solver.cache_hits"), p.get("solver.cache_misses"))
    };
    p.add("solver.cache_hit_ratio", hits / (hits + misses).max(1.0));
    p.add("core.reuse_ratio", p.get("session.reused") / p.get("session.constraints").max(1.0));
    let layers: f64 =
        ["syntax.parse_ms", "types.env_ms", "types.phase1_ms", "elab.phase2_ms", "solver.solve_ms"]
            .iter()
            .map(|m| p.get(m))
            .sum();
    let compile = p.get("core.compile_ms");
    let gap = (compile - layers) / compile * 100.0;
    p.add("core.layer_gap_signed_pct", gap);
    p.add("core.layer_gap_pct", gap.abs());
}

/// Writes the run's spans as JSON next to its other outputs.
fn write_spans(ctx: &Ctx, spans: &[Span]) {
    let rows = spans
        .iter()
        .map(|s| {
            obj(vec![
                ("pass", Json::Int(s.pass as i64)),
                ("request", Json::Int(s.request as i64)),
                ("layer", Json::Str(s.layer.to_string())),
                ("start_us", Json::Num(s.start_us)),
                ("dur_us", Json::Num(s.dur_us)),
            ])
        })
        .collect();
    let path = ctx.work.join(format!("spans-{}-s{}.json", ctx.workload, ctx.seed));
    if let Err(e) = std::fs::write(&path, Json::Array(rows).render()) {
        eprintln!("cannot write {}: {e}", path.display());
    }
}
