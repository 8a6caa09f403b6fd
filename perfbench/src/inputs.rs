//! Seeded workload inputs and their known answers.
//!
//! Everything here is a pure function of the `--seed` argument: the
//! program under test only ever sees the generated sources.

use dml::experiments::{self, Bench};
use dml::{Compiled, Compiler};
use dml_oracle::scale::{gen_scale_corpus, verify_scale_case, ScaleCase, ScaleConfig, ScaleUnit};
use dml_oracle::OracleRng;
use dml_programs as progs;

/// Obligations per `large_file` request.
pub const LARGE_FILE_OBLIGATIONS: usize = 600;
/// Files in the daemon's working set (below the gen memo's 64 entries).
pub const DAEMON_FILES: usize = 16;
/// Obligations per daemon working-set file.
pub const DAEMON_FILE_OBLIGATIONS: usize = 150;
/// A trivial program: `dmlc check` of it measures process start-up.
pub const TRIVIAL: &str =
    "fun first(v) = sub(v, 0)\nwhere first <| {n:nat | n > 0} int array(n) -> int\n";

/// Mixes the run seed with a stream tag and an index into a corpus seed.
pub fn sub_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mut rng = OracleRng::new(seed ^ stream.rotate_left(32) ^ index.wrapping_mul(0x9E37_79B9));
    rng.next_u64()
}

/// The Table-1 programs as `dmlc check` sees them (quicksort with its
/// `INT_DRIVER` appended).
pub fn paper_sources() -> Vec<(&'static str, String)> {
    experiments::benchmarks()
        .iter()
        .map(|b| (b.program.name, experiments::bench_source(&b.program)))
        .collect()
}

/// One seeded-shuffled round over `0..k`.
pub fn shuffled_round(rng: &mut OracleRng, k: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..k).collect();
    rng.shuffle(&mut order);
    order
}

/// The `i`-th `large_file` request: a distinct single-file corpus.
pub fn large_file(seed: u64, i: u64) -> ScaleCase {
    let cfg = ScaleConfig::new(sub_seed(seed, 1, i), LARGE_FILE_OBLIGATIONS).files(1);
    gen_scale_corpus(&cfg).cases.remove(0)
}

/// The known answer of a scale-corpus text: compiled in this process, the
/// compile must match the case's stamp exactly; the deterministic body of
/// its report is what `dmlc` must print for the same text.
pub fn scale_known_answer(compiler: &Compiler, case: &ScaleCase) -> Result<String, String> {
    let compiled = compiler.compile(&case.source).map_err(|e| format!("{}: {e}", case.name))?;
    verify_scale_case(&compiled, &case.expected).map_err(|e| format!("{}: {e}", case.name))?;
    if compiled.stats().constraints != case.obligations {
        return Err(format!(
            "{}: {} obligations, stamp says {}",
            case.name,
            compiled.stats().constraints,
            case.obligations
        ));
    }
    Ok(stable_report(&compiled, &case.source))
}

/// [`scale_known_answer`] for many texts, on one thread per core (this
/// runs after the timed part of a run).
pub fn scale_known_answers(cases: &[&ScaleCase]) -> Vec<Result<String, String>> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out: Vec<Option<Result<String, String>>> = vec![None; cases.len()];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let compiler = Compiler::new().workers(1);
                    (t..cases.len())
                        .step_by(threads)
                        .map(|i| (i, scale_known_answer(&compiler, cases[i])))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (i, answer) in h.join().expect("verifier thread panicked") {
                out[i] = Some(answer);
            }
        }
    });
    out.into_iter().map(|a| a.expect("every case verified")).collect()
}

/// The deterministic body of the `check` report of a compiled program.
pub fn stable_report(compiled: &Compiled, src: &str) -> String {
    dml::stable_body(&dml::check_report(compiled, src).text)
}

/// The kinds of daemon request, in report order.
pub const KINDS: [&str; 3] = ["body_edit", "unit_swap", "resend"];

/// Relative weights of [`KINDS`] in the daemon's request stream. No
/// record of real editor traffic exists to take them from, so they are an
/// assumption, chosen so that each kind's path carries a known share:
///
/// - `body_edit` (2): typing inside a function body, assumed the most
///   common edit. The signature is kept, so the request takes the
///   per-declaration incremental-reuse path; half of the stream, so that
///   path sets the median.
/// - `unit_swap` (1): a structural edit that replaces a group of
///   declarations. The signature changes, so the request is a full solve
///   in which the solver cache and the canonicaliser do the work.
/// - `resend` (1): an unchanged text sent again (a save or re-focus). The
///   gen memo answers it.
pub const KIND_WEIGHTS: [u64; 3] = [2, 1, 1];

/// One daemon `check` request.
#[derive(Clone)]
pub struct Edit {
    /// Index into [`KINDS`].
    pub kind: usize,
    /// The file's full text after the edit, with its exact stamp.
    pub case: ScaleCase,
}

/// The daemon's working set and the seeded stream of edits against it.
pub struct EditStream {
    files: Vec<Vec<ScaleUnit>>,
    /// Text last sent per file (re-sends repeat it).
    last: Vec<Option<ScaleCase>>,
    spares: Vec<ScaleUnit>,
    rng: OracleRng,
    counter: usize,
}

impl EditStream {
    /// The working set for `seed`: [`DAEMON_FILES`] mid-size corpus files
    /// plus a pool of spare units for swaps.
    pub fn new(seed: u64) -> EditStream {
        let files = (0..DAEMON_FILES as u64)
            .map(|f| {
                let cfg = ScaleConfig::new(sub_seed(seed, 2, f), DAEMON_FILE_OBLIGATIONS).files(1);
                gen_scale_corpus(&cfg).cases.remove(0).units
            })
            .collect();
        let spares = gen_scale_corpus(&ScaleConfig::new(sub_seed(seed, 3, 0), 600).files(1))
            .cases
            .remove(0)
            .units;
        EditStream {
            files,
            last: vec![None; DAEMON_FILES],
            spares,
            rng: OracleRng::new(sub_seed(seed, 4, 0)),
            counter: 0,
        }
    }

    /// Path the daemon knows file `f` by.
    fn path(f: usize) -> String {
        format!("ws/file{f}.dml")
    }

    fn text(&self, f: usize) -> ScaleCase {
        ScaleCase::from_units(Self::path(f), self.files[f].clone())
    }

    /// The current text of every working-set file, as a fresh daemon's
    /// untimed warm-up.
    pub fn warmup(&mut self) -> Vec<Edit> {
        (0..DAEMON_FILES)
            .map(|f| {
                let case = self.text(f);
                self.last[f] = Some(case.clone());
                Edit { kind: 2, case }
            })
            .collect()
    }

    /// The next request: a kind drawn by [`KIND_WEIGHTS`], on a uniformly
    /// drawn file.
    pub fn next_edit(&mut self) -> Edit {
        let f = self.rng.below(DAEMON_FILES as u64) as usize;
        let mut roll = self.rng.below(KIND_WEIGHTS.iter().sum());
        let kind = KIND_WEIGHTS
            .iter()
            .position(|&w| {
                let hit = roll < w;
                roll = roll.saturating_sub(w);
                hit
            })
            .expect("the roll falls under the weights' sum");
        self.counter += 1;
        match kind {
            0 => {
                let annotated: Vec<usize> = (0..self.files[f].len())
                    .filter(|&u| self.files[f][u].source.contains("where"))
                    .collect();
                let u = *self.rng.pick(&annotated);
                let unit = &mut self.files[f][u];
                unit.source = edit_body(&unit.source, self.counter);
            }
            1 => {
                let u = self.rng.below(self.files[f].len() as u64) as usize;
                let spare = self.rng.pick(&self.spares).clone();
                self.files[f][u] = rename_unit(spare, &format!("w{}", self.counter));
            }
            _ => {}
        }
        let case = if kind == 2 {
            self.last[f].clone().expect("every file is sent during warm-up")
        } else {
            self.text(f)
        };
        self.last[f] = Some(case.clone());
        Edit { kind, case }
    }
}

/// Rewrites the body of a unit's last (annotated) function to start with
/// `k + `: the text changes, its `where` signature does not, and integer
/// addition adds no obligation, so the unit's stamp still holds.
fn edit_body(src: &str, k: usize) -> String {
    let base = strip_edit(src);
    let last_fun = base.rfind("fun ").expect("unit declares a function");
    let eq = last_fun + base[last_fun..].find(") = ").expect("function has a body") + 4;
    format!("{}{k} + {}", &base[..eq], &base[eq..])
}

/// Undoes a previous [`edit_body`] so edits do not pile up.
fn strip_edit(src: &str) -> String {
    match find_edit(src) {
        Some((at, len, _)) => format!("{}{}", &src[..at], &src[at + len..]),
        None => src.to_string(),
    }
}

/// Position, length and value of the `k + ` an [`edit_body`] inserted.
fn find_edit(src: &str) -> Option<(usize, usize, i64)> {
    let last_fun = src.rfind("fun ")?;
    let at = last_fun + src[last_fun..].find(") = ")? + 4;
    let rest = &src[at..];
    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    if digits > 0 && rest[digits..].starts_with(" + ") {
        Some((at, digits + 3, rest[..digits].parse().ok()?))
    } else {
        None
    }
}

/// Renames a spare unit's functions to the fresh prefix `to`, so it can
/// be swapped into any file without clashing with the units there.
fn rename_unit(unit: ScaleUnit, to: &str) -> ScaleUnit {
    let first = unit.source.find("fun ").expect("unit declares a function") + 4;
    let name_end = unit.source[first..].find(['_', '(']).expect("function name ends");
    let from = &unit.source[first..first + name_end];
    let mut out = String::with_capacity(unit.source.len());
    let mut rest = unit.source.as_str();
    while !rest.is_empty() {
        let ident = rest.bytes().take_while(|b| b.is_ascii_alphanumeric() || *b == b'_').count();
        if ident > 0 {
            let word = &rest[..ident];
            match word.strip_prefix(from) {
                Some(tail) if tail.is_empty() || tail.starts_with('_') => {
                    out.push_str(to);
                    out.push_str(tail);
                }
                _ => out.push_str(word),
            }
            rest = &rest[ident..];
        } else {
            let c = rest.chars().next().expect("nonempty");
            out.push(c);
            rest = &rest[c.len_utf8()..];
        }
    }
    ScaleUnit { source: out, ..unit }
}

/// The value a Tables 2-3 program run must return, computed in Rust from
/// the inputs its `Bench.run` generates (never from the interpreter).
pub fn table_reference(b: &Bench) -> i64 {
    const F: usize = TABLE_FACTOR as usize;
    let weighted = |mut xs: Vec<i64>| {
        xs.sort_unstable();
        xs.iter()
            .enumerate()
            .fold(0i64, |acc, (i, v)| acc.wrapping_add(v.wrapping_mul(i as i64 + 1)))
    };
    match b.program.name {
        "bcopy" => progs::bcopy::workload(16_384 * F, 42).iter().sum(),
        "binary search" => {
            let (arr, keys) = progs::bsearch::workload(4096 * F, 4096 * F, 7);
            keys.iter().filter(|&&k| progs::bsearch::reference(&arr, k)).count() as i64
        }
        "bubble sort" => weighted(progs::bubblesort::workload(384 * F, 3)),
        "matrix mult" => {
            let a = progs::matmult::workload(24 * F, 1);
            let b = progs::matmult::workload(24 * F, 2);
            progs::matmult::reference(&a, &b).iter().flatten().sum()
        }
        "queen" => progs::queens::reference(8) as i64,
        "quick sort" => weighted(progs::quicksort::workload(4096 * F, 9)),
        "hanoi towers" => progs::hanoi::reference(12 + F as u32),
        "list access" => progs::listaccess::reference(&progs::listaccess::workload(64, 5), 1024),
        other => panic!("no reference for Tables 2-3 program `{other}`"),
    }
}

/// The run factor every Tables 2-3 request uses (the smallest one).
pub const TABLE_FACTOR: u32 = 1;

/// Calls for a scale-corpus text: each unit's outermost function on an
/// all-ones 16-element array at index 0 (and `j = 1` for nonlinear
/// leaves), which satisfies every generated guard. Each call executes
/// each of the unit's sites exactly once and returns the number of sites
/// plus the constant a body edit added.
pub fn corpus_calls(case: &ScaleCase) -> Vec<(String, dml::Value, i64)> {
    case.units
        .iter()
        .map(|u| {
            let last = u.source.rfind("fun ").expect("unit declares a function") + 4;
            let open = last + u.source[last..].find('(').expect("parameter list");
            let name = u.source[last..open].to_string();
            let arity =
                u.source[open..].split(')').next().expect("closed").matches(',').count() + 1;
            let v = dml::Value::int_array([1; 16]);
            let mut args = vec![v, dml::Value::Int(0)];
            if arity == 3 {
                args.push(dml::Value::Int(1));
            }
            let sites = u.source.matches("sub(").count() as i64;
            let edit = find_edit(&u.source).map_or(0, |(_, _, k)| k);
            (name, dml::Value::Tuple(std::rc::Rc::new(args)), sites + edit)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn body_edits_replace_rather_than_pile_up() {
        let src = "fun a_0(v, i) = sub(v, i)\nwhere a_0 <| {n:nat, i:nat | i < n} int array(n) * int(i) -> int\n\n";
        let once = edit_body(src, 7);
        assert!(once.contains("fun a_0(v, i) = 7 + sub(v, i)"), "{once}");
        let twice = edit_body(&once, 12);
        assert!(twice.contains("fun a_0(v, i) = 12 + sub(v, i)"), "{twice}");
        assert_eq!(strip_edit(&twice), src);
    }

    #[test]
    fn renaming_touches_only_the_unit_prefix() {
        let unit = ScaleUnit {
            source: "fun p1_0(v, i) = sub(v, i)\n\nfun p1_1(v, i) = p1_0(v, i) + p12_0(v, i)\n\n"
                .to_string(),
            obligations: 5,
            expected: Default::default(),
        };
        let renamed = rename_unit(unit, "w9");
        assert_eq!(
            renamed.source,
            "fun w9_0(v, i) = sub(v, i)\n\nfun w9_1(v, i) = w9_0(v, i) + p12_0(v, i)\n\n"
        );
    }

    #[test]
    fn edited_files_keep_their_stamps() {
        let mut stream = EditStream::new(5);
        let compiler = Compiler::new().workers(1);
        for e in stream.warmup().iter().take(2) {
            scale_known_answer(&compiler, &e.case).unwrap();
        }
        let mut seen = [0usize; 3];
        for _ in 0..24 {
            let e = stream.next_edit();
            seen[e.kind] += 1;
            scale_known_answer(&compiler, &e.case).unwrap();
        }
        assert!(seen.iter().all(|&n| n > 0), "every request kind drawn: {seen:?}");
    }

    #[test]
    fn table_references_match_the_checked_interpreter() {
        // A cross-check of the reference functions themselves, not a gate:
        // the benchmark never compares against the interpreter.
        for b in experiments::benchmarks() {
            let row = experiments::run_benchmark(&b, TABLE_FACTOR, 1);
            assert!(row.outputs_match);
            let compiled = experiments::compile_bench(&b);
            let mut m = compiled.machine(dml::Mode::Eliminated);
            assert_eq!((b.run)(&mut m, TABLE_FACTOR), table_reference(&b), "{}", b.program.name);
        }
    }
}
