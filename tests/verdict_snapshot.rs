//! Golden verdict snapshots for every `.dml` file under `examples/`.
//!
//! Each example is compiled in permissive and strict mode and its
//! `(proven, refuted, unknown, residual)` counts are pinned. A solver or
//! elaborator change that silently proves fewer (or more!) obligations,
//! or that changes which checks stay at run time, shows up here as an
//! exact diff — update the table deliberately, with the reason in the
//! commit.

use dml::{Compiler, PipelineError};

/// `(file, proven, refuted, unknown, residual, strict_compiles)`.
///
/// The `*_bare.dml` twins are compiled *without* inference here — these
/// are their plain baselines; `tests/infer_golden.rs` pins what
/// `Compiler::infer(true)` recovers from each.
const SNAPSHOTS: &[(&str, usize, usize, usize, usize, bool)] = &[
    ("lints.dml", 6, 0, 2, 1, false),
    ("residual.dml", 6, 0, 1, 1, false),
    ("asum_bare.dml", 2, 0, 1, 1, false),
    ("amax_bare.dml", 2, 0, 1, 1, false),
    ("bsearch_bare.dml", 3, 0, 1, 1, false),
    ("dotprod_bare.dml", 3, 0, 2, 2, false),
    ("bcopy_bare.dml", 12, 0, 10, 10, false),
    // The annotated emit-backend examples (docs/EMIT.md): fully verified,
    // so strict mode compiles and nothing stays residual.
    ("dotprod.dml", 9, 0, 0, 0, true),
    ("bcopy.dml", 26, 0, 0, 0, true),
    ("bsearch.dml", 11, 0, 0, 0, true),
    ("aliasing_trap.dml", 18, 0, 0, 0, true),
    // Fully verified over ℤ; sound at run time because `+` raises
    // `Overflow` instead of wrapping (tests/interp_semantics.rs).
    ("overflow_guard.dml", 7, 0, 0, 0, true),
];

fn counts(file: &str) -> (usize, usize, usize, usize, bool) {
    let path = format!("{}/examples/{file}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let compiled = Compiler::new()
        .workers(1)
        .compile(&src)
        .unwrap_or_else(|e| panic!("{file} must compile permissively: {e}"));
    let (mut p, mut r, mut u) = (0, 0, 0);
    for (_, v) in compiled.obligations() {
        if v.is_proven() {
            p += 1;
        } else if v.is_refuted() {
            r += 1;
        } else {
            u += 1;
        }
    }
    let strict = match Compiler::new().workers(1).strict(true).compile(&src) {
        Ok(_) => true,
        Err(PipelineError::Unproven(_)) => false,
        Err(e) => panic!("{file} failed strict mode for a non-verdict reason: {e}"),
    };
    (p, r, u, compiled.residual_checks().len(), strict)
}

#[test]
fn every_example_matches_its_snapshot() {
    for &(file, proven, refuted, unknown, residual, strict) in SNAPSHOTS {
        let got = counts(file);
        assert_eq!(
            got,
            (proven, refuted, unknown, residual, strict),
            "{file}: (proven, refuted, unknown, residual, strict_compiles) drifted \
             from the pinned snapshot — if the change is intentional, update \
             tests/verdict_snapshot.rs"
        );
    }
}

#[test]
fn snapshot_table_covers_every_example() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples");
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "dml") {
            let name = path.file_name().unwrap().to_string_lossy().to_string();
            assert!(
                SNAPSHOTS.iter().any(|(f, ..)| *f == name),
                "examples/{name} has no verdict snapshot — add it to tests/verdict_snapshot.rs"
            );
        }
    }
}

#[test]
fn verdicts_are_insensitive_to_solver_configuration() {
    // The same counts must come out of a parallel, cache-off compile —
    // configuration changes the schedule, never the verdicts.
    for &(file, proven, refuted, unknown, residual, _) in SNAPSHOTS {
        let path = format!("{}/examples/{file}", env!("CARGO_MANIFEST_DIR"));
        let src = std::fs::read_to_string(&path).unwrap();
        let compiled = Compiler::new().workers(4).cache(false).compile(&src).unwrap();
        let (mut p, mut r, mut u) = (0, 0, 0);
        for (_, v) in compiled.obligations() {
            if v.is_proven() {
                p += 1;
            } else if v.is_refuted() {
                r += 1;
            } else {
                u += 1;
            }
        }
        assert_eq!(
            (p, r, u, compiled.residual_checks().len()),
            (proven, refuted, unknown, residual),
            "{file}: verdict counts changed under workers=4, cache=off"
        );
    }
}
