//! Differential coordinator-agreement suite: the multi-process fan-out is
//! an *implementation* of the corpus-session contract, never a semantic
//! fork.  For every document-bearing `xic-gen` workload family a
//! [`Coordinator`] (two `xic serve` shard workers) and a monolithic
//! [`CorpusSession`] oracle are driven with the identical edit script, and
//! after **every** commit:
//!
//! 1. the merged [`xic_engine::BatchDelta`] is equal — witnesses included —
//!    to the monolithic one (same sources, same ops, same arenas);
//! 2. the merged delta's [`xic_engine::DeltaSummary`] tallies equal the
//!    monolithic ones (the broadcast-dedup regression: structural errors
//!    and faults are counted once, not once per shard worker);
//!
//! and at the end of the script the coordinator's merged report equals the
//! oracle's, and the merged delta stream replays through a stock
//! [`CorpusReplica`] to the same report.
//!
//! `PROPTEST_CASES` pins the case count for the CI coord-smoke job.

use std::collections::BTreeMap;
use std::path::PathBuf;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use xic_coord::{CoordConfig, CoordError, Coordinator};
use xic_engine::{CompiledSpec, CorpusReplica, CorpusSession, Engine};
use xic_gen::{
    fixed_dtd_growing_sigma, inconsistent_fanout_family, keys_only_family, negation_family,
    primary_key_family, random_document, unary_consistency_family, DocGenConfig, SpecInstance,
};
use xic_xml::{write_document, EditEffect, EditOp};

/// Locates the `xic` binary the coordinator spawns shard workers from:
/// `XIC_BIN` when set, otherwise the sibling of the test executable's
/// `target/{debug,release}` directory (built alongside workspace tests).
fn xic_bin() -> PathBuf {
    if let Ok(path) = std::env::var("XIC_BIN") {
        return PathBuf::from(path);
    }
    let exe = std::env::current_exe().expect("test executable path");
    for dir in exe.ancestors().skip(1) {
        let candidate = dir.join(format!("xic{}", std::env::consts::EXE_SUFFIX));
        if candidate.is_file() {
            return candidate;
        }
    }
    panic!("cannot locate the `xic` binary; build `xic-cli` or set XIC_BIN");
}

/// One rendered member of each differential workload family (E3a, E3b,
/// E4, E5, E6, E9), as the *source text* the coordinator, its workers and
/// the oracle all compile — identical text, identical `SpecId`.
fn family_sources(seed: u64) -> Vec<(String, String, String, String)> {
    let mut instances: Vec<SpecInstance> = Vec::new();
    instances.extend(unary_consistency_family(&[4]));
    instances.extend(inconsistent_fanout_family(&[2]));
    instances.extend(primary_key_family(&[5], seed));
    instances.extend(fixed_dtd_growing_sigma(4, &[4], seed));
    instances.extend(keys_only_family(&[5], seed));
    instances.extend(negation_family(&[3], seed));
    instances
        .into_iter()
        .map(|s| {
            let root = s.dtd.type_name(s.dtd.root()).to_string();
            let sigma_src = s.sigma.render(&s.dtd);
            (s.label.clone(), s.dtd.render(), root, sigma_src)
        })
        .collect()
}

/// Deterministic splitmix-style generator so the same seed always builds
/// the same edit script (the vendored proptest shim supplies seeds, not a
/// reusable rng handle).
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One scripted step: open carries the serialized source (what actually
/// crosses the wire), edits carry ops valid for the *re-parsed* tree so
/// the oracle, the coordinator's mirror and every worker — all of which
/// parse the same bytes — agree on every `NodeId`.
enum Action {
    Open(String, String),
    Edit(String, Vec<EditOp>),
    Close(String),
}

/// Builds a deterministic multi-commit script for `spec` from `seed`:
/// opens spread over several commits, attribute churn from a 3-value pool
/// (small enough to create and then clear key collisions), one close, a
/// round of structural edits (element and text insertion, subtree
/// removal) and a re-open of the closed document's label.  The script
/// applies every structural edit to its own copy of the tree, so later
/// edits only name live nodes, and the same script drives the coordinator
/// and the monolithic oracle identically.  Returns `None` when the DTD
/// admits no generated documents.
fn build_script(spec: &CompiledSpec, seed: u64) -> Option<Vec<Vec<Action>>> {
    let dtd = spec.dtd();
    let mut docs = Vec::new();
    for attempt in 0..24u64 {
        if docs.len() == 4 {
            break;
        }
        let Some(tree) = random_document(
            dtd,
            &DocGenConfig {
                seed: seed.wrapping_add(attempt),
                value_pool: 3,
                ..Default::default()
            },
        ) else {
            continue;
        };
        // Serialize, then re-parse: node ids picked below must be the ids
        // every party allocates when it parses the wire bytes.
        let source = write_document(&tree, dtd);
        let Ok(reparsed) = spec.parse_document(&source) else {
            continue;
        };
        docs.push((format!("doc-{}", docs.len()), source, reparsed));
    }
    if docs.is_empty() {
        return None;
    }

    let mut rng = Mix(seed ^ 0xd1f7);
    let mut churn = |docs: &[(String, String, xic_xml::XmlTree)], count: usize| -> Vec<Action> {
        let mut actions = Vec::new();
        for _ in 0..count {
            let (label, _, tree) = &docs[rng.below(docs.len())];
            let elems: Vec<_> = tree.elements().collect();
            let mut ops = Vec::new();
            for _ in 0..8 {
                let node = elems[rng.below(elems.len())];
                let Some(ty) = tree.element_type(node) else {
                    continue;
                };
                let attrs = dtd.attrs_of(ty);
                if attrs.is_empty() {
                    continue;
                }
                ops.push(EditOp::SetAttr {
                    element: node,
                    attr: attrs[rng.below(attrs.len())],
                    value: format!("v{}", rng.below(3)),
                });
                if ops.len() == 2 {
                    break;
                }
            }
            if !ops.is_empty() {
                actions.push(Action::Edit(label.clone(), ops));
            }
        }
        actions
    };

    let mut steps = Vec::new();
    // Commit 1: most documents open together.
    let split = docs.len().div_ceil(2);
    steps.push(
        docs[..split]
            .iter()
            .map(|(l, s, _)| Action::Open(l.clone(), s.clone()))
            .collect(),
    );
    // Commit 2: churn the open half, open the rest (a mixed round: the
    // open makes it broadcast even though the edits routed narrowly).
    let mut step = churn(&docs[..split], 2);
    step.extend(
        docs[split..]
            .iter()
            .map(|(l, s, _)| Action::Open(l.clone(), s.clone())),
    );
    steps.push(step);
    // Commit 3: close the first document (merger drops it, the merged
    // delta must announce it), churn the survivors.
    let mut step = vec![Action::Close(docs[0].0.clone())];
    step.extend(churn(&docs[1..], 2));
    steps.push(step);
    // Commit 4: more churn, including no-op rewrites that leave reports
    // unchanged (merged deltas may come out empty).
    steps.push(churn(&docs[1..], 3));
    // Commit 5: structural edits on the live documents.  They mint node
    // ids, which the mirror, every worker (a lagging one applies them
    // later, from the log) and the oracle must all agree on: an attribute
    // write to each new element checks that.
    let mut step = Vec::new();
    let mut shape = Mix(seed ^ 0x5eed);
    for (label, _, tree) in &mut docs[1..] {
        let elems: Vec<_> = tree.elements().collect();
        let parent = elems[shape.below(elems.len())];
        let ty = dtd.types().nth(shape.below(dtd.num_types())).unwrap();
        let add = EditOp::AddElement { parent, ty };
        let Ok(EditEffect::ElementAdded { element, .. }) = tree.apply_edit(&add) else {
            panic!("scripted insertion does not apply");
        };
        let mut ops = vec![
            add,
            EditOp::AddText {
                parent,
                value: "t".to_string(),
            },
        ];
        if let Some(&attr) = dtd.attrs_of(ty).first() {
            ops.push(EditOp::SetAttr {
                element,
                attr,
                value: format!("v{}", shape.below(3)),
            });
        }
        let victims: Vec<_> = elems
            .iter()
            .copied()
            .filter(|&n| n != tree.root())
            .collect();
        if !victims.is_empty() {
            ops.push(EditOp::RemoveSubtree {
                element: victims[shape.below(victims.len())],
            });
        }
        for op in &ops[1..] {
            tree.apply_edit(op)
                .expect("scripted structural edit applies");
        }
        step.push(Action::Edit(label.clone(), ops));
    }
    steps.push(step);
    // Commit 6: the closed label opens again, under a fresh handle minted
    // after a close; then both it and the survivors churn.
    steps.push(vec![Action::Open(docs[0].0.clone(), docs[0].1.clone())]);
    steps.push(churn(&docs, 3));
    Some(steps)
}

/// Writes the spec sources to a scratch directory and launches a
/// coordinator over them.
fn launch(
    scratch: &std::path::Path,
    dtd_src: &str,
    root: &str,
    sigma_src: &str,
    workers: usize,
    max_restarts: usize,
) -> Coordinator {
    std::fs::create_dir_all(scratch).expect("scratch dir");
    let dtd_path = scratch.join("spec.dtd");
    let sigma_path = scratch.join("spec.sigma");
    std::fs::write(&dtd_path, dtd_src).expect("write dtd");
    std::fs::write(&sigma_path, sigma_src).expect("write sigma");
    Coordinator::launch(CoordConfig {
        xic_bin: xic_bin(),
        dtd: dtd_path,
        root: Some(root.to_string()),
        constraints: Some(sigma_path),
        workers,
        scratch: scratch.to_path_buf(),
        session: "agree".to_string(),
        max_restarts,
    })
    .expect("coordinator launches")
}

/// Drives one family case: the coordinator and the monolithic oracle run
/// the same script, compared after every commit; the merged stream then
/// replays through a stock replica.
fn run_case(
    label: &str,
    dtd_src: &str,
    root: &str,
    sigma_src: &str,
    seed: u64,
) -> Result<(), TestCaseError> {
    let spec = CompiledSpec::from_sources(dtd_src, Some(root), sigma_src)
        .unwrap_or_else(|e| panic!("{label}: rendered spec does not recompile: {e}"));
    let Some(steps) = build_script(&spec, seed) else {
        return Ok(());
    };

    let scratch = std::env::temp_dir().join(format!(
        "xic-coord-agree-{}-{seed}-{label}",
        std::process::id()
    ));

    // An inconsistent spec cannot be hosted: `xic serve` refuses it, so
    // the coordinator must refuse it too — up front, as one clean spec
    // error, not a per-worker spawn failure.
    if Engine::new().consistency(&spec).decision() == Some(false) {
        std::fs::create_dir_all(&scratch).expect("scratch dir");
        let dtd_path = scratch.join("spec.dtd");
        let sigma_path = scratch.join("spec.sigma");
        std::fs::write(&dtd_path, dtd_src).expect("write dtd");
        std::fs::write(&sigma_path, sigma_src).expect("write sigma");
        let Err(err) = Coordinator::launch(CoordConfig {
            xic_bin: xic_bin(),
            dtd: dtd_path,
            root: Some(root.to_string()),
            constraints: Some(sigma_path),
            workers: 2,
            scratch: scratch.clone(),
            session: "agree".to_string(),
            max_restarts: 1,
        }) else {
            panic!("{label}: inconsistent specs must be refused");
        };
        prop_assert!(
            matches!(&err, CoordError::Spec(msg) if msg.contains("inconsistent")),
            "{}: wrong refusal: {}",
            label,
            err
        );
        prop_assert_eq!(
            err.exit_code(),
            2,
            "{}: refusal must stay a code-2 spec error",
            label
        );
        let _ = std::fs::remove_dir_all(&scratch);
        return Ok(());
    }

    let mut coordinator = launch(&scratch, dtd_src, root, sigma_src, 2, 1);
    prop_assert_eq!(
        coordinator.spec().id(),
        spec.id(),
        "{}: coordinator compiled a different spec than the oracle",
        label
    );

    let mut oracle = CorpusSession::new(&spec);
    let mut handles: BTreeMap<String, u64> = BTreeMap::new();
    for step in &steps {
        for action in step {
            match action {
                Action::Open(doc, source) => {
                    let merged = coordinator.open_doc(doc, source).expect("coord open");
                    let mono = oracle.open_source(doc, source).expect("oracle open");
                    prop_assert_eq!(
                        merged,
                        mono.raw(),
                        "{}: coordinator minted a different handle",
                        label
                    );
                    handles.insert(doc.clone(), merged);
                }
                Action::Edit(doc, ops) => {
                    coordinator.apply(handles[doc], ops).expect("coord apply");
                    let handle = oracle.handle_by_label(doc).unwrap();
                    oracle.apply(handle, ops).expect("oracle apply");
                }
                Action::Close(doc) => {
                    let closed = coordinator.close_doc(handles[doc]).expect("coord close");
                    prop_assert_eq!(&closed, doc, "{}: close returned a foreign label", label);
                    let handle = oracle.handle_by_label(doc).unwrap();
                    oracle.close(handle).expect("oracle close");
                    handles.remove(doc);
                }
            }
        }
        let merged = coordinator.commit().expect("coord commit");
        let mono = oracle.commit();
        prop_assert_eq!(
            &merged,
            &mono,
            "{}: merged delta diverged from the monolithic one",
            label
        );
        // Regression: summaries tally the *merged* delta — structural
        // errors a broadcast fanned out to every worker count once.
        prop_assert_eq!(
            merged.summary(),
            mono.summary(),
            "{}: merged delta summary diverged",
            label
        );
    }

    prop_assert_eq!(
        coordinator.report(),
        oracle.report(),
        "{}: merged report diverged from the monolithic oracle",
        label
    );

    // The merged stream is a valid journal: a stock (unsharded) replica
    // replays it to the oracle's report.
    let mut replica = CorpusReplica::new(spec.id());
    for delta in coordinator.deltas() {
        replica
            .apply_delta(delta)
            .unwrap_or_else(|e| panic!("{label}: replica rejected a merged delta: {e}"));
    }
    prop_assert_eq!(
        replica.report(),
        oracle.report(),
        "{}: replayed merged stream diverged",
        label
    );

    coordinator.shutdown();
    let _ = std::fs::remove_dir_all(&scratch);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The coordinator's merged deltas, summaries, report and replayable
    /// stream agree with a monolithic session over every workload family.
    #[test]
    fn coordinator_agrees_with_the_monolithic_oracle(seed in 0u64..4096) {
        for (label, dtd_src, root, sigma_src) in family_sources(seed | 1) {
            run_case(&label, &dtd_src, &root, &sigma_src, seed)?;
        }
    }
}

/// A rejected edit batch routes like the monolithic session: the prefix
/// before the failing op stays applied, the document still rechecks, and
/// the next merged delta matches the oracle's.
#[test]
fn rejected_batches_agree_with_the_oracle() {
    let dtd_src = "<!ELEMENT r (a*)>\n<!ELEMENT a EMPTY>\n<!ATTLIST a id CDATA #REQUIRED>\n";
    let sigma_src = "a[id] -> a\n";
    let spec = CompiledSpec::from_sources(dtd_src, Some("r"), sigma_src).unwrap();
    let source = "<r><a id=\"x\"/><a id=\"x\"/></r>";

    let scratch = std::env::temp_dir().join(format!("xic-coord-reject-{}", std::process::id()));
    let mut coordinator = launch(&scratch, dtd_src, "r", sigma_src, 2, 1);
    let mut oracle = CorpusSession::new(&spec);

    let handle = coordinator.open_doc("doc", source).unwrap();
    let mono = oracle.open_source("doc", source).unwrap();
    assert_eq!(coordinator.commit().unwrap(), oracle.commit());

    let tree = spec.parse_document(source).unwrap();
    let elems: Vec<_> = tree.elements().collect();
    let id = spec.dtd().attrs_of(tree.element_type(elems[1]).unwrap())[0];
    // Op 0 is fine (clears the collision), op 1 targets a node the
    // document does not have: the batch is rejected after the prefix.
    let ops = vec![
        EditOp::SetAttr {
            element: elems[1],
            attr: id,
            value: "y".to_string(),
        },
        EditOp::SetAttr {
            element: xic_xml::NodeId(u32::MAX),
            attr: id,
            value: "z".to_string(),
        },
    ];
    let coord_err = coordinator.apply(handle, &ops).unwrap_err();
    assert_eq!(
        coord_err.exit_code(),
        2,
        "rejected edits are code-2 document errors"
    );
    oracle.apply(mono, &ops).unwrap_err();

    assert_eq!(
        coordinator.commit().unwrap(),
        oracle.commit(),
        "post-rejection merged delta diverged (prefix must stay applied, doc must recheck)"
    );
    assert_eq!(coordinator.report(), oracle.report());
    coordinator.shutdown();
    let _ = std::fs::remove_dir_all(&scratch);
}
