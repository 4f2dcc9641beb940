//! Input generation (`gen` step) and loading (`run` step).
//!
//! The generator runs in its own process, so neither its time nor its memory
//! reaches `setup_s` or `peak_rss_mb`. It writes every document version as
//! LaTeX text plus a manifest naming the operations to run:
//!
//! ```text
//! doc  <doc> <version> <file>
//! op   <doc> <old> <new> <ground-truth weighted distance>
//! ```
//!
//! The ground-truth distance is the weighted distance `e` of
//! `edit_script(old, new, ground_truth_matching(old, new))`, computed on the
//! generator's own trees; it is the denominator of `edit_cost_ratio`.

use std::collections::btree_map::{BTreeMap, Entry};
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use hierdiff_doc::{labels, parse_latex, DocValue};
use hierdiff_edit::edit_script;
use hierdiff_tree::{isomorphic, Tree};
use hierdiff_workload::{
    generate_document, generate_trace, ground_truth_matching, perturb, render_latex_source,
    DocProfile, EditMix, TraceProfile,
};

use crate::Workload;

/// `ladiff-revision`: pairs, sections per document, revision edits per pair.
const LADIFF_PAIRS: usize = 96;
const LADIFF_SECTIONS: usize = 40;
const LADIFF_EDITS: usize = 20;
/// `serve-chain`: documents, versions per chain, sections per version,
/// revision edits between versions, requests per trace pass, adjacent-pair
/// share.
const SERVE_DOCS: usize = 8;
const SERVE_VERSIONS: usize = 12;
const SERVE_SECTIONS: usize = 120;
const SERVE_EDITS: usize = 10;
const SERVE_REQUESTS: usize = 1600;
const SERVE_ADJACENT_PCT: u8 = 70;
/// `batch-gumtree`: pairs (run as `diff_batch` calls of 16), sections
/// per document, moves per pair.
const BATCH_PAIRS: usize = 64;
const BATCH_SECTIONS: usize = 120;
const BATCH_MOVES: usize = 40;

/// One diff the workload runs: `versions[old]` against `versions[new]` of
/// document `doc`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    pub doc: usize,
    pub old: usize,
    pub new: usize,
    /// Weighted distance of the ground-truth script.
    pub truth_cost: usize,
}

/// The generated inputs: LaTeX sources per document version, and the ops
/// in the order every pass runs them.
pub struct Corpus {
    pub sources: Vec<Vec<String>>,
    pub ops: Vec<Op>,
}

impl Corpus {
    /// Parses every version (the program's own set-up for all workloads).
    pub fn parse_all(&self) -> Vec<Vec<Tree<DocValue>>> {
        self.sources
            .iter()
            .map(|versions| versions.iter().map(|s| parse_latex(s)).collect())
            .collect()
    }

    pub fn write(&self, dir: &Path) -> Result<(), String> {
        fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let mut manifest = String::new();
        for (d, versions) in self.sources.iter().enumerate() {
            for (v, src) in versions.iter().enumerate() {
                let file = format!("d{d}v{v}.tex");
                fs::write(dir.join(&file), src).map_err(|e| format!("write {file}: {e}"))?;
                let _ = writeln!(manifest, "doc\t{d}\t{v}\t{file}");
            }
        }
        for op in &self.ops {
            let _ = writeln!(
                manifest,
                "op\t{}\t{}\t{}\t{}",
                op.doc, op.old, op.new, op.truth_cost
            );
        }
        fs::write(dir.join("manifest.tsv"), manifest).map_err(|e| format!("write manifest: {e}"))
    }

    pub fn read(dir: &Path) -> Result<Corpus, String> {
        let manifest = fs::read_to_string(dir.join("manifest.tsv"))
            .map_err(|e| format!("read {}/manifest.tsv: {e}", dir.display()))?;
        let mut sources: Vec<Vec<String>> = Vec::new();
        let mut ops = Vec::new();
        for line in manifest.lines() {
            let f: Vec<&str> = line.split('\t').collect();
            let num = |i: usize| -> Result<usize, String> {
                f.get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| format!("bad manifest line: {line}"))
            };
            match f.first().copied() {
                Some("doc") if f.len() == 4 => {
                    let (d, v) = (num(1)?, num(2)?);
                    if v == 0 {
                        sources.push(Vec::new());
                    }
                    let docs = sources.len();
                    let versions = match sources.last_mut() {
                        Some(vs) if d + 1 == docs && v == vs.len() => vs,
                        _ => return Err(format!("manifest out of order: {line}")),
                    };
                    let src = fs::read_to_string(dir.join(f[3]))
                        .map_err(|e| format!("read {}: {e}", f[3]))?;
                    versions.push(src);
                }
                Some("op") if f.len() == 5 => {
                    let op = Op {
                        doc: num(1)?,
                        old: num(2)?,
                        new: num(3)?,
                        truth_cost: num(4)?,
                    };
                    let versions = sources.get(op.doc).map_or(0, Vec::len);
                    if op.old >= versions || op.new >= versions {
                        return Err(format!("op names a missing version: {line}"));
                    }
                    ops.push(op);
                }
                _ => return Err(format!("bad manifest line: {line}")),
            }
        }
        if ops.is_empty() {
            return Err("manifest lists no ops".into());
        }
        Ok(Corpus { sources, ops })
    }
}

/// SplitMix64: spreads the workload seed into independent per-item seeds.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Renders `tree` to LaTeX and checks that parsing it back gives an
/// isomorphic tree, so the ground truth computed on the generator's trees
/// holds for the parsed ones the program sees.
fn render_checked(tree: &Tree<DocValue>) -> Result<String, String> {
    let src = render_latex_source(tree);
    if isomorphic(&parse_latex(&src), tree) {
        Ok(src)
    } else {
        Err(format!(
            "parse_latex(render_latex_source(t)) is not isomorphic to t ({} nodes)",
            tree.len()
        ))
    }
}

fn truth_cost(old: &Tree<DocValue>, new: &Tree<DocValue>) -> Result<usize, String> {
    edit_script(old, new, &ground_truth_matching(old, new))
        .map(|r| r.stats.weighted_distance)
        .map_err(|e| format!("ground-truth edit script failed: {e}"))
}

/// Deletes the paragraphs that sentence moves left empty: LaTeX has no
/// text for an empty paragraph, so the parsed document would lack them.
fn drop_empty_paragraphs(tree: &mut Tree<DocValue>) -> Result<(), String> {
    let empty: Vec<_> = tree
        .preorder()
        .filter(|&n| tree.label(n) == labels::paragraph() && tree.arity(n) == 0)
        .collect();
    for n in empty {
        tree.delete_subtree(n)
            .map_err(|e| format!("delete empty paragraph: {e}"))?;
    }
    Ok(())
}

/// The mix's weights as an array, in field order.
fn weights(m: &EditMix) -> [u32; 9] {
    [
        m.sentence_insert,
        m.sentence_delete,
        m.sentence_update,
        m.sentence_move,
        m.sentence_shuffle,
        m.paragraph_insert,
        m.paragraph_delete,
        m.paragraph_move,
        m.section_move,
    ]
}

/// A mix of only the edit kind at `kind` in field order.
fn single_kind(kind: usize) -> EditMix {
    let mut w = [0u32; 9];
    w[kind] = 1;
    let [sentence_insert, sentence_delete, sentence_update, sentence_move, sentence_shuffle, paragraph_insert, paragraph_delete, paragraph_move, section_move] =
        w;
    EditMix {
        sentence_insert,
        sentence_delete,
        sentence_update,
        sentence_move,
        sentence_shuffle,
        paragraph_insert,
        paragraph_delete,
        paragraph_move,
        section_move,
    }
}

/// Applies `edits` edits of `mix` with each kind's count fixed at its
/// expected share (largest-remainder rounding), kind by kind. Drawing the
/// kinds at random instead makes a pair's cost depend on how many section
/// moves it drew, which spread whole-run throughput by about 30% between
/// seeds.
fn perturb_exact(
    tree: &Tree<DocValue>,
    seed: u64,
    edits: usize,
    edit_mix: &EditMix,
    profile: &DocProfile,
) -> Tree<DocValue> {
    let w = weights(edit_mix);
    let total: u32 = w.iter().sum();
    let share = |k: usize| edits as f64 * f64::from(w[k]) / f64::from(total.max(1));
    let mut counts: Vec<usize> = (0..9).map(|k| share(k).floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..9).collect();
    by_remainder
        .sort_by(|&a, &b| (share(b) - share(b).floor()).total_cmp(&(share(a) - share(a).floor())));
    let missing = edits - counts.iter().sum::<usize>();
    for &k in by_remainder.iter().take(missing) {
        counts[k] += 1;
    }
    let mut t = tree.clone();
    for (kind, &n) in counts.iter().enumerate().filter(|(_, n)| **n > 0) {
        t = perturb(&t, mix(seed, kind as u64), n, &single_kind(kind), profile).0;
    }
    t
}

/// Independent pairs: a fresh document and an exact-mix perturbation of it.
fn pairs(
    seed: u64,
    n: usize,
    sections: usize,
    edits: usize,
    edit_mix: EditMix,
) -> Result<Corpus, String> {
    let profile = DocProfile {
        sections,
        ..DocProfile::default()
    };
    let mut sources = Vec::new();
    let mut ops = Vec::new();
    for i in 0..n as u64 {
        let old = generate_document(mix(seed, 2 * i), &profile);
        let mut new = perturb_exact(&old, mix(seed, 2 * i + 1), edits, &edit_mix, &profile);
        drop_empty_paragraphs(&mut new)?;
        ops.push(Op {
            doc: sources.len(),
            old: 0,
            new: 1,
            truth_cost: truth_cost(&old, &new)?,
        });
        sources.push(vec![render_checked(&old)?, render_checked(&new)?]);
    }
    Ok(Corpus { sources, ops })
}

/// Version chains, each version an exact-mix perturbation of the one
/// before, plus a request trace over them.
fn chains(seed: u64) -> Result<Corpus, String> {
    let profile = DocProfile {
        sections: SERVE_SECTIONS,
        ..DocProfile::default()
    };
    let mut chains = Vec::new();
    for d in 0..SERVE_DOCS as u64 {
        let mut versions = vec![generate_document(mix(seed, d), &profile)];
        for v in 1..SERVE_VERSIONS as u64 {
            let salt = (d << 32) | v;
            let mut next = perturb_exact(
                &versions[versions.len() - 1],
                mix(seed, salt),
                SERVE_EDITS,
                &EditMix::revision(),
                &profile,
            );
            drop_empty_paragraphs(&mut next)?;
            versions.push(next);
        }
        chains.push(versions);
    }
    let trace = generate_trace(
        &TraceProfile {
            seed: mix(seed, 0x7ace),
            requests: SERVE_REQUESTS,
            adjacent_pct: SERVE_ADJACENT_PCT,
        },
        &[SERVE_VERSIONS; SERVE_DOCS],
    );
    let mut costs = BTreeMap::new();
    let mut ops = Vec::new();
    for r in trace {
        let versions = &chains[r.doc];
        let truth_cost = match costs.entry((r.doc, r.old, r.new)) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => *e.insert(truth_cost(&versions[r.old], &versions[r.new])?),
        };
        ops.push(Op {
            doc: r.doc,
            old: r.old,
            new: r.new,
            truth_cost,
        });
    }
    let sources = chains
        .iter()
        .map(|versions| versions.iter().map(render_checked).collect())
        .collect::<Result<_, _>>()?;
    Ok(Corpus { sources, ops })
}

/// Generates the inputs of `workload` from `seed`; equal seeds give equal
/// inputs.
pub fn generate(workload: Workload, seed: u64) -> Result<Corpus, String> {
    match workload {
        Workload::Ladiff => pairs(
            seed,
            LADIFF_PAIRS,
            LADIFF_SECTIONS,
            LADIFF_EDITS,
            EditMix::revision(),
        ),
        Workload::Serve => chains(seed),
        Workload::Batch => pairs(
            seed,
            BATCH_PAIRS,
            BATCH_SECTIONS,
            BATCH_MOVES,
            EditMix::moves_only(),
        ),
    }
}
