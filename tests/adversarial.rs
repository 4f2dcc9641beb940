//! Adversarial-input robustness: property tests over pathological tree
//! shapes — all-identical leaves (Criterion 3 has no canonical answer and
//! the quadratic pass has maximal work), single chains of depth N, and
//! maximal-D sibling shuffles. Under any budget the pipeline must either
//! complete (possibly degraded, always conforming and audit-clean) or
//! return a typed [`DiffError::BudgetExhausted`] — and it must never
//! panic.
//!
//! The worst cases live on as regression fixtures in
//! `fixtures/adversarial_*.sexpr`, replayed by the tests at the bottom.

use proptest::prelude::*;

use hierdiff::edit::verify_result;
use hierdiff::tree::{isomorphic, Tree};
use hierdiff::{Audit, Budget, Budgets, DiffError, DiffResult, Differ};

/// A flat tree of `n` leaves whose values all compare equal — every cross
/// pair passes Criterion 1, so nothing prunes the candidate space.
fn identical_leaves(n: usize) -> Tree<String> {
    let leaves: Vec<String> = (0..n).map(|_| r#"(S "same words here")"#.into()).collect();
    Tree::parse_sexpr(&format!("(D {})", leaves.join(" "))).unwrap()
}

/// A single chain of `depth` nested `N` nodes with one sentence at the
/// bottom.
fn chain(depth: usize, bottom: &str) -> Tree<String> {
    let mut s = String::new();
    for _ in 0..depth {
        s.push_str("(N ");
    }
    s.push_str(&format!("(S \"{bottom}\")"));
    s.push_str(&")".repeat(depth));
    Tree::parse_sexpr(&s).unwrap()
}

/// A flat tree of `n` distinct leaves in the order given by `perm`.
fn shuffled(n: usize, perm: &[usize]) -> Tree<String> {
    let leaves: Vec<String> = perm
        .iter()
        .map(|&i| format!("(S \"unit {} payload\")", i % n))
        .collect();
    Tree::parse_sexpr(&format!("(D {})", leaves.join(" "))).unwrap()
}

/// Asserts the two acceptance-grade outcomes of a governed run: a typed
/// budget error, or a (possibly degraded) result that still conforms —
/// the script keeps the matching, replaying it on `old` yields a tree
/// isomorphic to `new`, and the stage-boundary audit is clean.
fn governed_outcome_is_sound(
    result: Result<DiffResult<String>, DiffError>,
    old: &Tree<String>,
    new: &Tree<String>,
) {
    match result {
        Ok(r) => {
            verify_result(old, new, &r.matching, &r.mces)
                .unwrap_or_else(|e| panic!("not conforming to T2: {e}"));
            if let Some(report) = &r.audit {
                assert!(report.is_clean(), "audit findings: {report}");
            }
        }
        Err(DiffError::BudgetExhausted(_)) => {}
        Err(other) => panic!("unexpected error: {other}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// All-identical leaf soup: with a tiny LCS-cell budget the run must
    /// complete degraded-but-conforming or exhaust a budget — never panic,
    /// never produce a non-conforming script.
    #[test]
    fn identical_leaf_soup_completes_or_exhausts(
        n1 in 1usize..60,
        n2 in 1usize..60,
        lcs_cells in prop_oneof![Just(1u64), Just(64), Just(u64::MAX)],
    ) {
        let old = identical_leaves(n1);
        let new = identical_leaves(n2);
        let r = Differ::new()
            .audit(Audit::On)
            .budget(Budgets::unlimited().with_max_lcs_cells(lcs_cells))
            .diff(&old, &new);
        governed_outcome_is_sound(r, &old, &new);
    }

    /// Deep single chains: depth-N nesting diffs cleanly under governance
    /// at any budget tier.
    #[test]
    fn deep_chains_complete_or_exhaust(
        depth in 1usize..200,
        lcs_cells in prop_oneof![Just(1u64), Just(u64::MAX)],
    ) {
        // Similar enough to pass Criterion 1, so all `depth` levels match
        // and every level runs a (tiny) alignment.
        let old = chain(depth, "bottom of the well");
        let new = chain(depth, "bottom of the deep well");
        let r = Differ::new()
            .audit(Audit::On)
            .budget(Budgets::unlimited().with_max_lcs_cells(lcs_cells))
            .diff(&old, &new);
        governed_outcome_is_sound(r, &old, &new);
    }

    /// Maximal-D shuffles: random permutations of distinct siblings (the
    /// LCS worst case) stay sound under the full degradation ladder.
    #[test]
    fn sibling_shuffles_complete_or_exhaust(
        n in 2usize..50,
        perm in proptest::collection::vec(any::<usize>(), 2..50),
        lcs_cells in prop_oneof![Just(1u64), Just(256), Just(u64::MAX)],
    ) {
        let old = shuffled(n, &(0..n).collect::<Vec<_>>());
        let new = shuffled(n, &perm);
        let r = Differ::new()
            .audit(Audit::On)
            .budget(Budgets::unlimited().with_max_lcs_cells(lcs_cells))
            .diff(&old, &new);
        governed_outcome_is_sound(r, &old, &new);
    }

    /// A node budget below the input size is always the typed admission
    /// error, regardless of shape.
    #[test]
    fn undersized_node_budget_is_typed(
        n in 2usize..40,
    ) {
        let old = identical_leaves(n);
        let new = identical_leaves(n);
        let r = Differ::new()
            .budget(Budgets::unlimited().with_max_nodes(n)) // < 2n + 2
            .diff(&old, &new);
        prop_assert!(matches!(r, Err(DiffError::BudgetExhausted(Budget::Nodes))));
    }
}

/// Loads a fixture pair from `fixtures/`.
fn fixture_pair(stem: &str) -> (Tree<String>, Tree<String>) {
    let load = |suffix: &str| {
        let path = format!(
            "{}/fixtures/adversarial_{stem}_{suffix}.sexpr",
            env!("CARGO_MANIFEST_DIR")
        );
        let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        Tree::parse_sexpr(&src).unwrap()
    };
    (load("old"), load("new"))
}

/// The recorded worst cases replay deterministically: every fixture pair
/// diffs conformingly without budgets, and under a 1-cell LCS budget
/// produces a degraded result that STILL replays `T1` into `T2` and
/// audits clean (the acceptance criterion for the degradation ladder).
#[test]
fn adversarial_fixtures_replay_to_t2() {
    let mut any_degraded = false;
    for stem in ["identical", "chain", "shuffle"] {
        let (old, new) = fixture_pair(stem);

        let plain = Differ::new().audit(Audit::On).diff(&old, &new).unwrap();
        assert!(!plain.degraded.any(), "{stem}: ungoverned run degraded");
        verify_result(&old, &new, &plain.matching, &plain.mces)
            .unwrap_or_else(|e| panic!("{stem}: ungoverned run not conforming: {e}"));

        let governed = Differ::new()
            .audit(Audit::On)
            .budget(Budgets::unlimited().with_max_lcs_cells(1))
            .diff(&old, &new)
            .unwrap_or_else(|e| panic!("{stem}: governed run failed: {e}"));
        any_degraded |= governed.degraded.any();
        verify_result(&old, &new, &governed.matching, &governed.mces)
            .unwrap_or_else(|e| panic!("{stem}: degraded result not conforming to T2: {e}"));
        assert!(
            governed.audit.expect("audit on").is_clean(),
            "{stem}: degraded result has audit findings"
        );
    }
    assert!(
        any_degraded,
        "the fixture corpus no longer exercises the degraded tiers"
    );
}

/// The fixtures stay pathological: under a small-but-positive cell budget
/// the shuffle fixture visibly degrades the matching tier (it reaches the
/// LCS at all, unlike a 1-cell budget tripping at the first round).
#[test]
fn shuffle_fixture_degrades_matching_tier() {
    let (old, new) = fixture_pair("shuffle");
    let r = Differ::new()
        .budget(Budgets::unlimited().with_max_lcs_cells(100))
        .diff(&old, &new)
        .unwrap();
    assert!(
        r.degraded.matching,
        "shuffle stopped tripping the LCS budget"
    );
    assert!(isomorphic(&r.mces.replay_on(&old).unwrap(), &new));
}

/// Guard-budget exhaustion *inside* GumTree's bounded Zhang–Shasha
/// recovery pass: the LCS-cell budget runs dry mid-recovery, the pass is
/// truncated (not errored), the degradation ladder flags the matching
/// tier, and the result still replays `T1` into `T2` and audits clean —
/// deterministically across replays.
#[test]
fn gumtree_recovery_budget_exhaustion_degrades_cleanly() {
    use hierdiff::MatchStrategy;
    // Similar containers with disjoint leaf multisets force the
    // bottom-up phase to adopt containers whose children only the
    // recovery pass could match; a tiny cell budget truncates it there.
    let leaves = |prefix: &str| -> String {
        (0..24)
            .map(|i| format!("(S \"{prefix}{i}\")"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let old = Tree::parse_sexpr(&format!(
        "(D (P {}) (P (S \"anchor one\") (S \"anchor two\")))",
        leaves("left ")
    ))
    .unwrap();
    let new = Tree::parse_sexpr(&format!(
        "(D (P {}) (P (S \"anchor one\") (S \"anchor two\")))",
        leaves("right ")
    ))
    .unwrap();

    let run = || {
        Differ::new()
            .strategy(MatchStrategy::gumtree())
            .audit(Audit::On)
            .budget(Budgets::unlimited().with_max_lcs_cells(1))
            .diff(&old, &new)
            .unwrap()
    };
    let r = run();
    assert!(r.degraded.matching, "the ladder must engage");
    verify_result(&old, &new, &r.matching, &r.mces)
        .unwrap_or_else(|e| panic!("truncated recovery still conforms to T2: {e}"));
    assert!(r.audit.expect("audit on").is_clean());
    let again = run();
    assert_eq!(r.script, again.script, "truncation is deterministic");
    // An ungoverned run completes the recovery and does not degrade.
    let full = Differ::new()
        .strategy(MatchStrategy::gumtree())
        .diff(&old, &new)
        .unwrap();
    assert!(!full.degraded.matching);
}
