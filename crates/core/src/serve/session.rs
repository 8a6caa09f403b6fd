//! The long-lived check session behind `dmlc serve`.
//!
//! A [`Session`] owns one reusable [`Compiler`] handle — one canonical
//! goal cache (optionally disk-backed), one gen-phase memo, one worker
//! pool — plus per-file incremental state and per-request statistics. The
//! transport layer ([`crate::serve::server`]) is a thin loop over it, and
//! it can just as well be embedded in-process (tests and benches do).

use super::incremental::{self, FileState};
use crate::pipeline::{Compiled, Compiler, PipelineError};
use crate::report::{check_report, CheckReport};
use dml_obs::json::{obj, Json};
use dml_obs::TimingHistogram;
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

/// Everything a `check` request reports back.
#[derive(Debug, Clone)]
pub struct CheckOutcome {
    /// The rendered report, byte-identical in its stable body to one-shot
    /// `dmlc check` of the same source (see [`crate::report`]).
    pub report: CheckReport,
    /// Whether the program fully verified.
    pub fully_verified: bool,
    /// Whether any verdicts were reused from the file's previous check.
    pub incremental: bool,
    /// The compile's statistics (including `obligations_reused` and the
    /// solver cache counters for this request alone).
    pub stats: crate::pipeline::CompileStats,
}

/// Per-session counters, surfaced by the `stats` request.
#[derive(Debug, Default)]
pub struct SessionStats {
    /// Requests handled, by method name.
    pub requests: HashMap<&'static str, u64>,
    /// Wall-clock latency of `check` requests.
    pub check_latency: TimingHistogram,
    /// Times the session was rebuilt after a request panicked.
    pub restarts: u64,
}

/// A persistent check service: one configured compiler session serving
/// many requests.
#[derive(Debug)]
pub struct Session {
    compiler: Compiler,
    /// The disk store attached when the session was created, re-attached
    /// by [`Session::restart`].
    disk_path: Option<PathBuf>,
    files: HashMap<String, FileState>,
    stats: SessionStats,
    started: Instant,
}

impl Session {
    /// Wraps a configured compiler handle. The handle's solver session
    /// (and its caches) live as long as the `Session`. The solver worker
    /// pool is prewarmed eagerly so the first request doesn't pay the
    /// thread-spawn cost.
    pub fn new(compiler: Compiler) -> Session {
        dml_solver::pool::prewarm();
        Session {
            disk_path: compiler.solver().cache().disk_path(),
            compiler,
            files: HashMap::new(),
            stats: SessionStats::default(),
            started: Instant::now(),
        }
    }

    /// The underlying compiler handle.
    pub fn compiler(&self) -> &Compiler {
        &self.compiler
    }

    /// Replaces the session with a fresh one built from the same options:
    /// a new solver session (re-attaching the disk store it started with)
    /// and no per-file state. Statistics and uptime carry over. The
    /// server calls this after a request panicked, since the panic may
    /// have left a cache lock poisoned or a file's state half-written.
    /// Verdicts not yet flushed to the disk store are dropped.
    pub fn restart(&mut self) {
        let mut compiler = self.compiler.fresh();
        if let Some(path) = self.disk_path.take() {
            compiler = compiler.disk_cache(path);
        }
        let stats = std::mem::take(&mut self.stats);
        *self = Session { stats, started: self.started, ..Session::new(compiler) };
        self.stats.restarts += 1;
    }

    /// Checks `src`. With a `path`, the session remembers the file's
    /// declaration fingerprint and on later checks re-solves only changed
    /// declarations (see `serve/incremental.rs`); verdicts are identical
    /// to a from-scratch check either way.
    ///
    /// # Errors
    ///
    /// The rendered [`PipelineError`] — the same text one-shot `dmlc`
    /// prints — for parse/type/elaboration failures (and, under a strict
    /// compiler, unproven obligations). A failed check clears the file's
    /// incremental state.
    pub fn check(&mut self, path: Option<&str>, src: &str) -> Result<CheckOutcome, String> {
        let t0 = Instant::now();
        *self.stats.requests.entry("check").or_insert(0) += 1;

        let fingerprint = match dml_syntax::parse_program(src) {
            Ok(program) => Some(incremental::fingerprint(src, &program)),
            // Let the pipeline produce the canonical parse error below.
            Err(_) => None,
        };
        let plan = match (path, &fingerprint) {
            (Some(p), Some(fp)) => self.files.get(p).and_then(|prior| incremental::plan(fp, prior)),
            _ => None,
        };
        let compiled = match self.compiler.compile_incremental(src, plan.as_ref()) {
            Ok(c) => c,
            Err(e) => {
                if let Some(p) = path {
                    self.files.remove(p);
                }
                return Err(e.to_string());
            }
        };
        if let (Some(p), Some(fp)) = (path, &fingerprint) {
            self.files.insert(p.to_string(), incremental::remember(fp, compiled.obligations()));
        }
        let outcome = CheckOutcome {
            report: check_report(&compiled, src),
            fully_verified: compiled.fully_verified(),
            incremental: compiled.stats().obligations_reused > 0,
            stats: compiled.stats().clone(),
        };
        self.stats.check_latency.record(t0.elapsed());
        Ok(outcome)
    }

    /// Renders proof traces for `src` — byte-identical to one-shot
    /// `dmlc explain` (trace mode re-decides every goal, so neither the
    /// shared cache nor incremental state can perturb the output).
    ///
    /// # Errors
    ///
    /// The rendered compile error, or a goal-range message mirroring the
    /// CLI's when `goal` is out of range.
    pub fn explain(&mut self, src: &str, goal: Option<usize>) -> Result<String, String> {
        *self.stats.requests.entry("explain").or_insert(0) += 1;
        let compiled = self.compiler.clone().trace(true).compile(src).map_err(|e| e.to_string())?;
        if let Some(n) = goal {
            let total = compiled.goal_count();
            if n == 0 || n > total {
                return Err(match total {
                    0 => format!("goal {n} does not exist: the program has no solver goals"),
                    1 => format!("goal {n} does not exist: the only valid goal is 1"),
                    _ => format!("goal {n} does not exist: valid goals are 1..={total}"),
                });
            }
        }
        Ok(crate::trace::render_explain(&compiled, src, goal))
    }

    /// Runs annotation inference on `src`, returning the human report (or
    /// the JSON report when `json` is set) exactly as one-shot
    /// `dmlc infer` prints it.
    ///
    /// # Errors
    ///
    /// The rendered compile error.
    pub fn infer(&mut self, src: &str, json: bool) -> Result<String, String> {
        *self.stats.requests.entry("infer").or_insert(0) += 1;
        let compiled = self.compiler.clone().infer(true).compile(src).map_err(|e| e.to_string())?;
        let report = compiled
            .infer_report()
            .ok_or_else(|| "inference produced no report (internal error)".to_string())?;
        Ok(if json { report.render_json(src) + "\n" } else { report.render_human(src) })
    }

    /// The `stats` response payload: request counters, check latency, the
    /// goal cache's cumulative counters, and disk-tier state.
    pub fn stats_json(&self) -> Json {
        let cache = self.compiler.solver().cache();
        let mut methods: Vec<(&str, Json)> =
            self.stats.requests.iter().map(|(m, n)| (*m, Json::Int(*n as i64))).collect();
        methods.sort_by_key(|(m, _)| *m);
        let lat = &self.stats.check_latency;
        obj(vec![
            ("uptimeMs", Json::Num(self.started.elapsed().as_secs_f64() * 1e3)),
            ("requests", obj(methods)),
            ("checkLatency", obj(vec![("count", Json::Int(lat.count() as i64))])),
            (
                "cache",
                obj(vec![
                    ("hits", Json::Int(cache.hits() as i64)),
                    ("misses", Json::Int(cache.misses() as i64)),
                    ("entries", Json::Int(cache.len() as i64)),
                    ("diskAttached", Json::Bool(cache.has_disk())),
                    ("diskHits", Json::Int(cache.disk_hits() as i64)),
                    ("diskLoaded", Json::Int(cache.disk_loaded() as i64)),
                ]),
            ),
            ("filesTracked", Json::Int(self.files.len() as i64)),
            ("restarts", Json::Int(self.stats.restarts as i64)),
        ])
    }

    /// Writes pending verdicts to the attached disk store, if any.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from the store write.
    pub fn flush_disk(&self) -> std::io::Result<Option<usize>> {
        self.compiler.flush_disk()
    }

    /// Session statistics (for embedding; the wire shape is
    /// [`Session::stats_json`]).
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// Compiles without any session side effects — the escape hatch for
    /// embedders needing a [`Compiled`] (machine construction, lints)
    /// rather than a report.
    ///
    /// # Errors
    ///
    /// See [`Compiler::compile`].
    pub fn compile(&self, src: &str) -> Result<Compiled, PipelineError> {
        self.compiler.compile(src)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TWO_FUNS: &str = "\
fun first(v) = sub(v, 0)
where first <| {n:nat | n > 0} int array(n) -> int

fun second(v) = sub(v, 1)
where second <| {n:nat | n > 1} int array(n) -> int
";

    #[test]
    fn repeat_check_is_fully_incremental() {
        let mut s = Session::new(Compiler::new());
        let first = s.check(Some("a.dml"), TWO_FUNS).unwrap();
        assert!(!first.incremental);
        assert!(first.fully_verified);
        let second = s.check(Some("a.dml"), TWO_FUNS).unwrap();
        assert!(second.incremental);
        assert_eq!(second.stats.obligations_reused, second.stats.constraints);
        assert_eq!(second.stats.goals, 0, "nothing reached the solver");
        assert_eq!(
            crate::report::stable_body(&first.report.text),
            crate::report::stable_body(&second.report.text),
        );
    }

    #[test]
    fn one_decl_edit_resolves_only_that_decl() {
        let mut s = Session::new(Compiler::new());
        let cold = s.check(Some("b.dml"), TWO_FUNS).unwrap();
        let edited = TWO_FUNS.replace("sub(v, 1)", "sub(v, 1 - 1 + 1)");
        let warm = s.check(Some("b.dml"), &edited).unwrap();
        assert!(warm.incremental);
        assert!(warm.stats.obligations_reused > 0, "first() verdicts reused");
        assert!(
            warm.stats.goals < cold.stats.goals,
            "only the edited decl's goals were solved: {} vs {}",
            warm.stats.goals,
            cold.stats.goals
        );
        assert!(warm.fully_verified);
    }

    #[test]
    fn pathless_checks_skip_incremental_state() {
        let mut s = Session::new(Compiler::new());
        s.check(None, TWO_FUNS).unwrap();
        let again = s.check(None, TWO_FUNS).unwrap();
        assert!(!again.incremental, "no path, no file state");
        // The goal cache still answers everything.
        assert_eq!(again.stats.solver.cache_misses, 0);
    }

    #[test]
    fn compile_error_clears_file_state() {
        let mut s = Session::new(Compiler::new());
        s.check(Some("c.dml"), TWO_FUNS).unwrap();
        assert!(s.check(Some("c.dml"), "fun broken(").is_err());
        let after = s.check(Some("c.dml"), TWO_FUNS).unwrap();
        assert!(!after.incremental, "state was cleared by the failed check");
    }

    #[test]
    fn restart_keeps_options_and_disk_store_but_drops_state() {
        let dir = std::env::temp_dir().join(format!("dml-session-restart-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let store = dir.join("verdicts.store");
        let mut s = Session::new(Compiler::new().strict(true).disk_cache(&store));
        s.check(Some("e.dml"), TWO_FUNS).unwrap();
        s.restart();
        assert!(s.compiler().is_strict());
        assert_eq!(s.compiler().solver().cache().disk_path(), Some(store));
        assert_eq!(s.stats().requests["check"], 1);
        assert_eq!(s.stats().restarts, 1);
        let again = s.check(Some("e.dml"), TWO_FUNS).unwrap();
        assert!(!again.incremental, "file state was dropped");
        assert!(again.stats.solver.cache_misses > 0, "the verdict cache starts empty");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn explain_matches_one_shot_byte_for_byte() {
        let mut s = Session::new(Compiler::new());
        s.check(Some("d.dml"), TWO_FUNS).unwrap(); // warm the session
        let daemon = s.explain(TWO_FUNS, None).unwrap();
        let compiled = Compiler::new().trace(true).compile(TWO_FUNS).unwrap();
        let one_shot = crate::trace::render_explain(&compiled, TWO_FUNS, None);
        assert_eq!(daemon, one_shot);
    }
}
