//! Script frontend integration: the DML-like corpus, the differential
//! fuzzer, span-carrying diagnostics, and the serve-layer script
//! pipelines — chaos-seeded like `concurrency.rs` (`CHAOS_SEED` selects
//! the fuzzer seed; `ci.sh` runs 42 and 1337).
//!
//! The contract under test: scripts are *workloads as data*. A corpus
//! script must lower to the same interned lineage and bit-identical
//! sink digests as its hand-built twin (covered in
//! `memphis_workloads::script` unit tests); here we pin the cross-crate
//! surface — parse → print → parse stability all the way down to the
//! lowered program, digest stability across processes via the committed
//! gate baseline, differential agreement for generated programs, and
//! rejected programs failing with a line:col position rather than a
//! panic.

use memphis_core::{CacheConfig, CachePolicy, LineageCache};
use memphis_integration::chaos_seed;
use memphis_workloads::pipelines::{session_context, SCRIPT_SESSION_MIX};
use memphis_workloads::script::{
    corpus_source, differential_digests, digests_agree, fuzz_campaign, run_corpus, CORPUS,
};
use std::sync::Arc;

// ----------------------------------------------------------------------
// Round-trip stability
// ----------------------------------------------------------------------

#[test]
fn corpus_round_trips_through_the_pretty_printer() {
    for (name, src) in CORPUS {
        let ast = memphis_script::parse(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let printed = memphis_script::print_source(&ast);
        let ast2 = memphis_script::parse(&printed)
            .unwrap_or_else(|e| panic!("{name}: reparse of printed source: {e}\n{printed}"));
        // Printing is a fixpoint: print(parse(print(x))) == print(x).
        assert_eq!(
            printed,
            memphis_script::print_source(&ast2),
            "{name}: printer is not a fixpoint"
        );
        // And the lowered programs are identical, which is what makes
        // the interned LineageIds identical at runtime.
        let c1 = memphis_script::compile(src).unwrap();
        let c2 = memphis_script::compile(&printed).unwrap();
        assert_eq!(
            memphis_script::canonical_debug(&c1.program),
            memphis_script::canonical_debug(&c2.program),
            "{name}: round-trip changed the lowered program"
        );
        assert_eq!(c1.reads, c2.reads, "{name}: read specs drifted");
        assert_eq!(c1.prints, c2.prints, "{name}: sink order drifted");
    }
}

// ----------------------------------------------------------------------
// Differential execution
// ----------------------------------------------------------------------

#[test]
fn corpus_differential_is_digest_identical_in_every_configuration() {
    for (name, src) in CORPUS {
        let c = memphis_script::compile(src).unwrap();
        let digests = differential_digests(&c, &format!("it_{name}")).unwrap();
        assert_eq!(digests.len(), 4, "{name}: expected all four configs");
        assert!(digests_agree(&digests), "{name}: {digests:?}");
    }
}

#[test]
fn chaos_seeded_fuzz_slice_finds_no_divergence() {
    let seed = chaos_seed();
    let report = fuzz_campaign(seed, 12, None);
    assert_eq!(report.programs, 12);
    assert_eq!(report.divergences, 0, "seed {seed}: {report:?}");
    assert!(report.lowered_nodes > 0);

    // Same seed, same campaign: counter-exact.
    let again = fuzz_campaign(seed, 12, None);
    assert_eq!(report.lowered_nodes, again.lowered_nodes, "seed {seed}");
}

// ----------------------------------------------------------------------
// Span-carrying diagnostics: every rejection names a source position.
// ----------------------------------------------------------------------

#[test]
fn rejected_programs_carry_line_and_column() {
    // (source, expected line, message fragment)
    let cases: &[(&str, u32, &str)] = &[
        // Lexer: an illegal character.
        ("A = rand(2, 2, 0, 1, 1);\nB = A ? 2;\n", 2, "character"),
        // Parser: unbalanced parenthesis.
        ("A = rand(2, 2, 0, 1, 1;\n", 1, "expected"),
        // Type/lowering: undefined variable.
        ("B = A + 1;\n", 1, "A"),
        // Type/lowering: shape mismatch in matrix multiply.
        (
            "A = rand(2, 3, 0, 1, 1);\nB = rand(2, 3, 0, 1, 2);\nC = A %*% B;\n",
            3,
            "",
        ),
        // Arity: rand with too few arguments.
        ("A = rand(2, 2);\n", 1, "rand"),
    ];
    for (src, line, fragment) in cases {
        let err = memphis_script::compile(src).expect_err(&format!("must reject:\n{src}"));
        assert_eq!(
            err.span.line, *line,
            "wrong line for {src:?}: {err} (expected line {line})"
        );
        assert!(err.span.col >= 1, "column must be 1-based: {err}");
        assert!(
            err.message.contains(fragment),
            "diagnostic {err:?} should mention {fragment:?} for {src:?}"
        );
        // The Display form is what users see: "line L:C: message".
        let shown = err.to_string();
        assert!(
            shown.starts_with(&format!("line {}:", line)),
            "display form must lead with the position: {shown}"
        );
    }
}

// ----------------------------------------------------------------------
// Serve-layer script pipelines
// ----------------------------------------------------------------------

#[test]
fn script_pipelines_serve_as_tenants_over_a_shared_cache() {
    let cache = Arc::new(LineageCache::new(CacheConfig::test()));
    let mut first = Vec::new();
    for kind in SCRIPT_SESSION_MIX {
        assert!(
            corpus_source(kind).is_some(),
            "{kind} must be a corpus script"
        );
        let mut ctx = session_context(&cache);
        first.push(run_corpus(&mut ctx, kind).unwrap());
    }
    // A second tenant wave over the same shared cache reuses lineage
    // across sessions without perturbing any checksum.
    for (i, kind) in SCRIPT_SESSION_MIX.iter().enumerate() {
        let mut ctx = session_context(&cache);
        let again = run_corpus(&mut ctx, kind).unwrap();
        assert_eq!(
            again.to_bits(),
            first[i].to_bits(),
            "{kind}: checksum drifted across serving sessions"
        );
    }
    let stats = cache.stats();
    assert!(
        stats.hits_local > 0,
        "cross-session script reuse must hit the shared cache: {stats:?}"
    );
}

#[test]
fn delayed_hits_policy_never_changes_script_results() {
    // CachePolicy is a cost-model switch, not a correctness switch —
    // also for scripted tenants.
    for kind in SCRIPT_SESSION_MIX {
        let mut cfg = CacheConfig::test();
        cfg.policy = CachePolicy::DelayedHits;
        let cache = Arc::new(LineageCache::new(cfg));
        let mut ctx = session_context(&cache);
        let delayed = run_corpus(&mut ctx, kind).unwrap();

        let cache = Arc::new(LineageCache::new(CacheConfig::test()));
        let mut ctx = session_context(&cache);
        let paper = run_corpus(&mut ctx, kind).unwrap();
        assert_eq!(delayed.to_bits(), paper.to_bits(), "{kind}");
    }
}
