//! The untraced end-to-end runs: one closed-loop client, at most one
//! `dmlc` process at a time, every reply checked against its known
//! answer.

use crate::inputs::{self, EditStream, KINDS};
use crate::stats::{beyond, num, quantile, spread};
use crate::sys;
use crate::{Ctx, Outcome};
use dml::experiments;
use dml::serve::protocol::{request_line, Json};
use dml::serve::Value;
use dml::{Compiler, Mode};
use dml_obs::json::obj;
use dml_oracle::scale::ScaleCase;
use dml_oracle::OracleRng;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// Trivial `dmlc check` start-ups per one-shot run, spread evenly over the
/// timed window; `setup_s` is their median.
const SETUP_PROBES: usize = 100;
/// Extra daemon start-ups (spawn to first `stats` reply, then shutdown)
/// measured before each daemon lifetime, whose own start-up also counts.
const DAEMON_PROBES_PER_LIFETIME: usize = 2;
/// Daemon processes per `daemon_edits` run; `setup_s` is the median of
/// their start-ups.
const DAEMON_LIFETIMES: usize = 10;
/// Fewest latency samples a run takes, so that at least ten lie beyond
/// the 90th percentile.
const MIN_SAMPLES: usize = 100;
/// A run that cannot reach [`MIN_SAMPLES`] stops here regardless.
const HARD_CAP_S: f64 = 120.0;

/// Collects one run's samples and failures.
struct Run {
    start: Instant,
    seconds: f64,
    latencies_ms: Vec<f64>,
    attempted: u64,
    failures: Vec<String>,
}

impl Run {
    fn new(seconds: f64) -> Run {
        Run {
            start: Instant::now(),
            seconds,
            latencies_ms: Vec::new(),
            attempted: 0,
            failures: Vec::new(),
        }
    }

    fn keep_going(&self) -> bool {
        self.start.elapsed().as_secs_f64() < self.seconds || self.short_of_samples()
    }

    /// Whether the run goes on past its time to reach [`MIN_SAMPLES`];
    /// never once a request has failed.
    fn short_of_samples(&self) -> bool {
        self.failures.is_empty()
            && self.latencies_ms.len() < MIN_SAMPLES
            && self.start.elapsed().as_secs_f64() < HARD_CAP_S
    }

    fn check(&mut self, ok: Result<(), String>) -> bool {
        self.attempted += 1;
        match ok {
            Ok(()) => true,
            Err(e) => {
                self.failures.push(e);
                false
            }
        }
    }

    /// The end-to-end metrics every workload prints, plus the detail
    /// spread of each sample.
    fn finish(
        self,
        setup_s: &[f64],
        throughput: (f64, &'static str),
        peak_rss_mb: f64,
        mut detail: Vec<(&'static str, Json)>,
    ) -> Outcome {
        let lat = &self.latencies_ms;
        let mut failures = self.failures;
        let mut attempted = self.attempted;
        let p90 = quantile(lat, 0.9);
        if beyond(lat, p90) < 10 {
            attempted += 1;
            failures.push(format!("only {} samples beyond p90", beyond(lat, p90)));
        }
        detail.extend([
            ("setup_s", spread(setup_s, "s")),
            ("latency_ms", spread(lat, "ms")),
            ("latency_beyond_p90", Json::Int(beyond(lat, p90) as i64)),
            ("throughput_is", Json::Str(throughput.1.to_string())),
        ]);
        Outcome {
            attempted,
            failures,
            metrics: vec![
                ("setup_s", "s", quantile(setup_s, 0.5)),
                ("latency_p50_ms", "ms", quantile(lat, 0.5)),
                ("latency_p90_ms", "ms", p90),
                ("throughput_per_s", "1/s", throughput.0),
                ("peak_rss_mb", "MiB", peak_rss_mb),
            ],
            detail,
        }
    }
}

/// Starts each one-shot `dmlc check` from a small helper process.
///
/// Linux carries a process's peak RSS across `exec` (a forked child
/// starts with its parent's peak), so a child forked straight from this
/// benchmark would report the benchmark's own footprint as its peak. The
/// helper is exec'd fresh and stays small, so the peaks of its children
/// are `dmlc`'s own.
pub struct Spawner {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    /// Largest child peak RSS reported so far, MiB.
    peak_mb: f64,
}

impl Spawner {
    pub fn start(dmlc: &Path) -> Spawner {
        let mut child = Command::new(std::env::current_exe().expect("own executable path"))
            .arg("--spawner")
            .arg(dmlc)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawner starts");
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Spawner { child, stdin, stdout, peak_mb: 0.0 }
    }

    /// Runs `dmlc check <path>` to completion: wall time in ms, exit
    /// success, and standard output.
    pub fn check(&mut self, path: &Path) -> (f64, bool, String) {
        writeln!(self.stdin, "{}", path.display())
            .and_then(|()| self.stdin.flush())
            .expect("spawner alive");
        let mut header = String::new();
        self.stdout.read_line(&mut header).expect("spawner replies");
        let f: Vec<&str> = header.split_whitespace().collect();
        let [ms, ok, peak, len] = f.as_slice() else { panic!("bad spawner header `{header}`") };
        let mut body = vec![0u8; len.parse().expect("length")];
        std::io::Read::read_exact(&mut self.stdout, &mut body).expect("spawner body");
        self.peak_mb = self.peak_mb.max(peak.parse().expect("peak"));
        (ms.parse().expect("ms"), *ok == "1", String::from_utf8_lossy(&body).into_owned())
    }

    pub fn stop(mut self) -> f64 {
        drop(self.stdin);
        let _ = self.child.wait();
        self.peak_mb
    }
}

/// The helper behind [`Spawner`]: reads one path per line and answers
/// `ms ok peak_mb len` plus `len` bytes of the child's standard output.
pub fn spawner_main(dmlc: &str) {
    let stdin = std::io::stdin();
    let mut out = std::io::stdout().lock();
    for line in stdin.lock().lines() {
        let path = line.expect("request line");
        let t0 = Instant::now();
        let child = Command::new(dmlc)
            .arg("check")
            .arg(&path)
            .stdin(Stdio::null())
            .output()
            .expect("dmlc spawns");
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let ok = u8::from(child.status.success());
        writeln!(out, "{ms:?} {ok} {:?} {}", sys::max_child_peak_mb(), child.stdout.len())
            .and_then(|()| out.write_all(&child.stdout))
            .and_then(|()| out.flush())
            .expect("parent reads replies");
    }
}

/// Writes `text` to `dir/name` and returns the path.
fn write_input(dir: &Path, name: &str, text: &str) -> PathBuf {
    std::fs::create_dir_all(dir).expect("work directory is writable");
    let path = dir.join(name);
    std::fs::write(&path, text).expect("input file is writable");
    path
}

/// Compares a reply body with its known answer.
fn same_body(what: &str, got: &str, want: &str) -> Result<(), String> {
    let got = dml::stable_body(got);
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: report differs from its known answer\n--- got\n{got}--- want\n{want}"))
    }
}

/// `setup_s` of the one-shot workloads: wall times of a trivial
/// `dmlc check`, i.e. process start-up. The probes are spread evenly over
/// the timed window, between requests, so they see the same machine as
/// the requests do; their time is left out of the run's throughput.
struct StartupProbes {
    path: PathBuf,
    want: String,
    every_s: f64,
    next_s: f64,
    samples_s: Vec<f64>,
    spent_s: f64,
}

impl StartupProbes {
    fn new(ctx: &Ctx) -> StartupProbes {
        let compiled = Compiler::new().compile(inputs::TRIVIAL).expect("trivial program compiles");
        StartupProbes {
            path: write_input(&ctx.work, "trivial.dml", inputs::TRIVIAL),
            want: inputs::stable_report(&compiled, inputs::TRIVIAL),
            every_s: ctx.seconds / SETUP_PROBES as f64,
            next_s: 0.0,
            samples_s: Vec::new(),
            spent_s: 0.0,
        }
    }

    /// Runs one probe if the next one is due.
    fn tick(&mut self, spawner: &mut Spawner, run: &mut Run) {
        if run.start.elapsed().as_secs_f64() < self.next_s {
            return;
        }
        self.next_s += self.every_s;
        let t0 = Instant::now();
        let (ms, ok, out) = spawner.check(&self.path);
        self.spent_s += t0.elapsed().as_secs_f64();
        self.samples_s.push(ms / 1e3);
        run.check(if ok {
            same_body("trivial", &out, &self.want)
        } else {
            Err("trivial check failed".into())
        });
    }

    /// Wall time of the run so far without the probes.
    fn request_wall_s(&self, run: &Run) -> f64 {
        run.start.elapsed().as_secs_f64() - self.spent_s
    }
}

/// `paper_oneshot`: a fresh `dmlc check` per request over the Table-1
/// programs in seeded-shuffled rounds.
pub fn paper_oneshot(ctx: &Ctx) -> Outcome {
    let compiler = Compiler::new();
    let progs = inputs::paper_sources();
    let mut files = Vec::new();
    for (i, (name, src)) in progs.iter().enumerate() {
        let compiled = compiler.compile(src).expect("Table-1 program compiles");
        assert!(compiled.fully_verified(), "{name}: Table-1 verdicts are all proven");
        let want = inputs::stable_report(&compiled, src);
        let path = write_input(&ctx.work.join("paper"), &format!("p{i}.dml"), src);
        files.push((path, want, compiled.stats().constraints));
    }
    let mut spawner = Spawner::start(&ctx.dmlc);
    let mut probes = StartupProbes::new(ctx);
    let mut rng = OracleRng::new(inputs::sub_seed(ctx.seed, 5, 0));
    let mut run = Run::new(ctx.seconds);
    let mut obligations = 0usize;
    while run.keep_going() {
        for i in inputs::shuffled_round(&mut rng, files.len()) {
            probes.tick(&mut spawner, &mut run);
            let (path, want, n) = &files[i];
            let (ms, ok, out) = spawner.check(path);
            run.latencies_ms.push(ms);
            let verdict = if ok && out.contains("fully verified") {
                same_body(progs[i].0, &out, want)
            } else {
                Err(format!("{}: not fully verified", progs[i].0))
            };
            if run.check(verdict) {
                obligations += n;
            }
        }
    }
    let wall = probes.request_wall_s(&run);
    let rss = spawner.stop();
    let detail = vec![("setup_probes", Json::Int(probes.samples_s.len() as i64))];
    run.finish(&probes.samples_s, (obligations as f64 / wall, "obligations_per_s"), rss, detail)
}

/// `large_file`: a fresh `dmlc check` per request, each on a distinct
/// seeded ~600-obligation single-file corpus. Replies are checked after
/// the timed loop, against an in-process compile verified by stamp.
pub fn large_file(ctx: &Ctx) -> Outcome {
    let dir = ctx.work.join("large");
    let mut pool: Vec<(ScaleCase, PathBuf)> = Vec::new();
    let grow = |pool: &mut Vec<_>, upto: usize| {
        while pool.len() < upto {
            let case = inputs::large_file(ctx.seed, pool.len() as u64);
            let path = write_input(&dir, &format!("f{}.dml", pool.len()), &case.source);
            pool.push((case, path));
        }
    };
    grow(&mut pool, (ctx.seconds * 10.0) as usize + MIN_SAMPLES);
    let mut spawner = Spawner::start(&ctx.dmlc);
    let mut probes = StartupProbes::new(ctx);
    let mut run = Run::new(ctx.seconds);
    let mut outputs = Vec::new();
    while run.keep_going() {
        let i = outputs.len();
        grow(&mut pool, i + 1);
        probes.tick(&mut spawner, &mut run);
        let (ms, ok, out) = spawner.check(&pool[i].1);
        run.latencies_ms.push(ms);
        outputs.push((ok, out));
    }
    let wall = probes.request_wall_s(&run);
    let rss = spawner.stop();

    let cases: Vec<&ScaleCase> = pool.iter().take(outputs.len()).map(|(case, _)| case).collect();
    let answers = inputs::scale_known_answers(&cases);
    let mut obligations = 0usize;
    let mut generation_share = Vec::new();
    for ((case, (ok, out)), want) in cases.iter().zip(&outputs).zip(answers) {
        let verdict = if !ok {
            Err(format!("{}: dmlc check failed", case.name))
        } else {
            want.and_then(|want| same_body(&case.name, out, &want))
        };
        if run.check(verdict) {
            obligations += case.obligations;
        }
        if let Some(share) = generation_share_of(out) {
            generation_share.push(share);
        }
    }
    let detail = vec![
        ("generation_share", spread(&generation_share, "ratio")),
        ("setup_probes", Json::Int(probes.samples_s.len() as i64)),
    ];
    run.finish(&probes.samples_s, (obligations as f64 / wall, "obligations_per_s"), rss, detail)
}

/// Generation ÷ (generation + solving), from the report's timing line.
fn generation_share_of(report: &str) -> Option<f64> {
    let line = report.lines().find(|l| l.starts_with("solve timing:"))?;
    let ms: Vec<f64> =
        line.split(", ").filter_map(|part| part.split_whitespace().next()?.parse().ok()).collect();
    let (gen, solve) = (*ms.first()?, *ms.get(1)?);
    (gen + solve > 0.0).then(|| gen / (gen + solve))
}

/// A running `dmlc serve` over stdio.
struct Daemon {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    next_id: i64,
}

impl Daemon {
    fn spawn(dmlc: &Path) -> Daemon {
        let mut child = Command::new(dmlc)
            .arg("serve")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("dmlc serve spawns");
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Daemon { child, stdin, stdout, next_id: 1 }
    }

    /// Sends one request and returns its `result`, or the error reply.
    fn call(&mut self, method: &str, params: Vec<(&str, Json)>) -> Result<Value, String> {
        let id = self.next_id;
        self.next_id += 1;
        self.stdin
            .write_all(request_line(id, method, params).as_bytes())
            .and_then(|()| self.stdin.flush())
            .map_err(|e| format!("{method}: write failed: {e}"))?;
        let mut line = String::new();
        self.stdout.read_line(&mut line).map_err(|e| format!("{method}: read failed: {e}"))?;
        let reply =
            Value::parse(line.trim_end()).map_err(|e| format!("{method}: bad reply: {e}"))?;
        if reply.get("id").and_then(Value::as_i64) != Some(id) {
            return Err(format!("{method}: reply id mismatch: {line}"));
        }
        reply.get("result").cloned().ok_or_else(|| format!("{method}: error reply: {line}"))
    }

    fn shutdown(mut self) {
        let _ = self.call("shutdown", vec![]);
        drop(self.stdin);
        let _ = self.child.wait();
    }
}

/// What one daemon `check` reply said.
struct Reply {
    case: ScaleCase,
    report: Result<(bool, String), String>,
}

fn check_request(d: &mut Daemon, case: &ScaleCase) -> (Result<(bool, String), String>, [i64; 4]) {
    let params =
        vec![("source", Json::Str(case.source.clone())), ("path", Json::Str(case.name.clone()))];
    match d.call("check", params) {
        Ok(result) => {
            let stat = |k: &str| {
                result.get("stats").and_then(|s| s.get(k)).and_then(Value::as_i64).unwrap_or(0)
            };
            let counts = [
                stat("constraints"),
                stat("obligationsReused"),
                stat("cacheHits"),
                stat("cacheMisses"),
            ];
            let ok = result.get("ok").and_then(Value::as_bool).unwrap_or(false);
            let report =
                result.get("report").and_then(Value::as_str).unwrap_or_default().to_string();
            (Ok((ok, report)), counts)
        }
        Err(e) => (Err(e), [0; 4]),
    }
}

/// Spawns a daemon and waits for its first `stats` reply, recording the
/// start-up time; a daemon that does not answer is a failed request.
fn daemon_start(ctx: &Ctx, run: &mut Run, setup: &mut Vec<f64>) -> Option<Daemon> {
    let t0 = Instant::now();
    let mut d = Daemon::spawn(&ctx.dmlc);
    let answered = d.call("stats", vec![]).map(drop);
    let elapsed = t0.elapsed().as_secs_f64();
    if run.check(answered) {
        setup.push(elapsed);
        Some(d)
    } else {
        d.shutdown();
        None
    }
}

/// `daemon_edits`: long-lived `dmlc serve` processes taking closed-loop
/// `check` requests over a 16-file working set — annotated-body edits,
/// unit swaps and unchanged re-sends. The run is split over
/// [`DAEMON_LIFETIMES`] daemons, each warmed up with the working set's
/// current texts, so no one process's speed sets the result.
pub fn daemon_edits(ctx: &Ctx) -> Outcome {
    let mut stream = EditStream::new(ctx.seed);
    let mut run = Run::new(ctx.seconds);
    let mut setup = Vec::new();
    let mut rss: f64 = 0.0;
    let mut replies = Vec::new();
    let mut kind_lat: [Vec<f64>; 3] = Default::default();
    let mut totals = [0i64; 4];
    let mut kind_reused = [0i64; 3];
    let mut kind_constraints = [0i64; 3];
    let slice = ctx.seconds / DAEMON_LIFETIMES as f64;
    let mut timed_s = 0.0;
    let mut lifetimes = 0;
    while lifetimes < DAEMON_LIFETIMES || run.short_of_samples() {
        lifetimes += 1;
        for _ in 0..DAEMON_PROBES_PER_LIFETIME {
            if let Some(d) = daemon_start(ctx, &mut run, &mut setup) {
                d.shutdown();
            }
        }
        let Some(mut d) = daemon_start(ctx, &mut run, &mut setup) else { continue };
        for e in stream.warmup() {
            let (report, _) = check_request(&mut d, &e.case);
            replies.push((false, Reply { case: e.case, report }));
        }
        let segment = Instant::now();
        while segment.elapsed().as_secs_f64() < slice {
            let e = stream.next_edit();
            let t0 = Instant::now();
            let (report, counts) = check_request(&mut d, &e.case);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            run.latencies_ms.push(ms);
            kind_lat[e.kind].push(ms);
            for (t, c) in totals.iter_mut().zip(counts) {
                *t += c;
            }
            kind_reused[e.kind] += counts[1];
            kind_constraints[e.kind] += counts[0];
            replies.push((true, Reply { case: e.case, report }));
        }
        timed_s += segment.elapsed().as_secs_f64();
        rss = rss.max(sys::vm_hwm_mb(d.child.id()).unwrap_or(f64::NAN));
        d.shutdown();
    }

    // Known answers: the one-shot report of each distinct text, from an
    // in-process compile whose verdicts match the text's stamp.
    let mut distinct: HashMap<&str, usize> = HashMap::new();
    let mut cases = Vec::new();
    for (_, r) in &replies {
        distinct.entry(&r.case.source).or_insert_with(|| {
            cases.push(&r.case);
            cases.len() - 1
        });
    }
    let answers = inputs::scale_known_answers(&cases);
    let mut obligations = 0usize;
    for (timed, r) in &replies {
        let want = answers[distinct[r.case.source.as_str()]].clone();
        let verdict = match &r.report {
            Err(e) => Err(e.clone()),
            Ok((false, _)) => Err(format!("{}: daemon reported not ok", r.case.name)),
            Ok((true, body)) => want.and_then(|w| same_body(&r.case.name, body, &w)),
        };
        if run.check(verdict) && *timed {
            obligations += r.case.obligations;
        }
    }

    let timed = run.latencies_ms.len() as f64;
    let kinds: Vec<(&str, Json)> = KINDS
        .iter()
        .enumerate()
        .map(|(k, name)| {
            let lat = &kind_lat[k];
            (
                *name,
                obj(vec![
                    ("share", num(lat.len() as f64 / timed)),
                    ("latency_ms", if lat.is_empty() { Json::Null } else { spread(lat, "ms") }),
                    (
                        "reuse_ratio",
                        Json::Num(kind_reused[k] as f64 / kind_constraints[k].max(1) as f64),
                    ),
                ]),
            )
        })
        .collect();
    let detail = vec![
        ("kinds", obj(kinds)),
        ("reuse_ratio", Json::Num(totals[1] as f64 / totals[0].max(1) as f64)),
        ("cache_hit_ratio", Json::Num(totals[2] as f64 / (totals[2] + totals[3]).max(1) as f64)),
        ("working_set_files", Json::Int(inputs::DAEMON_FILES as i64)),
        ("daemons", Json::Int(lifetimes as i64)),
        ("distinct_texts", Json::Int(cases.len() as i64)),
    ];
    run.finish(&setup, (obligations as f64 / timed_s, "obligations_per_s"), rss, detail)
}

/// `table_runs`: Tables 2-3 program runs in eliminated mode, in the
/// interpreter inside benchmark worker processes (no `dmlc`). Each worker
/// compiles the eight programs, loads their machines and runs one
/// seeded-shuffled round; fresh workers keep coming until the run's time
/// is up, so no one process's speed sets the result. Every result is
/// checked here against a reference computed in Rust.
pub fn table_runs(ctx: &Ctx) -> Outcome {
    let benches = experiments::benchmarks();
    let references: Vec<i64> = benches.iter().map(inputs::table_reference).collect();
    let exe = std::env::current_exe().expect("own executable path");
    let mut run = Run::new(ctx.seconds);
    let mut setup = Vec::new();
    let (mut rss, mut ops, mut eval_s) = (0.0f64, 0u64, 0.0);
    let mut round = 0u64;
    while run.keep_going() {
        let out = Command::new(&exe)
            .args(["--table-round", &round.to_string(), "--seed", &ctx.seed.to_string()])
            .stdin(Stdio::null())
            .output()
            .expect("table worker spawns");
        round += 1;
        let text = String::from_utf8_lossy(&out.stdout);
        if !out.status.success() {
            run.check(Err(format!(
                "table worker {round} failed: {}",
                String::from_utf8_lossy(&out.stderr)
            )));
            continue;
        }
        for line in text.lines() {
            let f: Vec<&str> = line.split_whitespace().collect();
            match f.as_slice() {
                ["setup_s", v] => setup.push(v.parse().expect("worker prints numbers")),
                ["rss_mb", v] => rss = rss.max(v.parse().expect("worker prints numbers")),
                [i, ms, n, got] => {
                    let i: usize = i.parse().expect("worker prints numbers");
                    let ms: f64 = ms.parse().expect("worker prints numbers");
                    let got: i64 = got.parse().expect("worker prints numbers");
                    run.latencies_ms.push(ms);
                    eval_s += ms / 1e3;
                    ops += n.parse::<u64>().expect("worker prints numbers");
                    let want = references[i];
                    run.check(if got == want {
                        Ok(())
                    } else {
                        Err(format!(
                            "{}: returned {got}, reference {want}",
                            benches[i].program.name
                        ))
                    });
                }
                _ => {
                    run.check(Err(format!("table worker printed `{line}`")));
                }
            }
        }
    }
    let detail = vec![("workers", Json::Int(round as i64))];
    run.finish(&setup, (ops as f64 / eval_s, "eval_ops_per_s"), rss, detail)
}

/// One `table_runs` worker: compiles and loads the eight programs (timed
/// as set-up), then runs round `round` of the seeded order, printing
/// `index ms ops result` per run, the set-up time and its own `VmHWM`.
pub fn table_round(seed: u64, round: u64) {
    let benches = experiments::benchmarks();
    let t0 = Instant::now();
    let compiler = Compiler::new();
    let mut machines: Vec<_> = benches
        .iter()
        .map(|b| {
            let src = experiments::bench_source(&b.program);
            compiler.compile(&src).expect("Table 2-3 program compiles").machine(Mode::Eliminated)
        })
        .collect();
    println!("setup_s {:?}", t0.elapsed().as_secs_f64());
    let mut rng = OracleRng::new(inputs::sub_seed(seed, 6, round));
    for i in inputs::shuffled_round(&mut rng, benches.len()) {
        let m = &mut machines[i];
        let t0 = Instant::now();
        let got = (benches[i].run)(m, inputs::TABLE_FACTOR);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        println!("{i} {ms:?} {} {got}", m.ops);
    }
    let rss = sys::vm_hwm_mb(std::process::id()).expect("VmHWM readable");
    println!("rss_mb {rss:?}");
}
