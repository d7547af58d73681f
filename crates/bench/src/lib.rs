//! # xic-bench — the floor-gate harness
//!
//! Each bench target in `benches/` holds one engine contract: it asserts an
//! identity between two paths before any number is trusted, then a floor (a
//! speedup, an overhead budget or a recheck reduction), and records its
//! numbers in a `BENCH_<name>.json` at the workspace root.  The targets
//! share this module:
//!
//! * the fixture: [`catalogue_spec`] / [`keyed_catalogue_spec`], a
//!   [`Corpus`] of generated documents, and the deterministic
//!   [`edit_stream`] / [`key_edit_stream`] over it;
//! * one timer, [`min_time`] ([`min_time_on`] when every run consumes a
//!   prepared state), and the re-measure loop [`best_window`];
//! * the result table ([`header`], [`row`]) and the recorder [`record`].
//!
//! These are min-of-runs harnesses, not statistical benchmarks: on a
//! shared, preemption-prone host the minimum over runs is the honest cost
//! of a section shorter than a timeslice.  The paper's Figure 5 is
//! measured, with its verdicts checked, by the repository benchmark
//! (`xicbench --workload decide`).

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::path::Path;
use std::time::{Duration, Instant};

use xic_constraints::{Constraint, ConstraintSet};
use xic_engine::{BatchDoc, CompiledSpec, CorpusSession, DocHandle};
use xic_gen::{
    catalogue_dtd, random_document, random_unary_constraints, ConstraintGenConfig, DocGenConfig,
};
use xic_xml::{write_document, EditOp, NodeId, XmlTree};

/// `catalogue_dtd(kinds)` with Σ drawn by `random_unary_constraints`.
pub fn catalogue_spec(kinds: usize, sigma: &ConstraintGenConfig) -> CompiledSpec {
    let dtd = catalogue_dtd(kinds);
    let sigma = random_unary_constraints(&dtd, sigma);
    CompiledSpec::compile(dtd, sigma).expect("generated spec compiles")
}

/// `catalogue_dtd(kinds)` with one unary key per kind.  The keys touch
/// disjoint types, so the shard plan has one shard per kind.
pub fn keyed_catalogue_spec(kinds: usize) -> CompiledSpec {
    let dtd = catalogue_dtd(kinds);
    let mut sigma = ConstraintSet::new();
    for ty in dtd.types() {
        if let Some(&attr) = dtd.attrs_of(ty).first() {
            sigma.push(Constraint::unary_key(ty, attr));
        }
    }
    let spec = CompiledSpec::compile(dtd, sigma).expect("keys-only spec compiles");
    assert_eq!(
        spec.shard_plan().num_shards(),
        kinds,
        "disjoint unary keys must shard one-per-kind"
    );
    spec
}

/// Generated documents, serialized (`docs`) and parsed back (`trees`).
/// Node ids are deterministic per source, so an edit stream built on
/// `trees` is valid in every session that opens `docs` in order.
pub struct Corpus {
    /// Labelled sources, `doc-{i}.xml`.
    pub docs: Vec<BatchDoc>,
    /// The trees a session parses from `docs`.
    pub trees: Vec<XmlTree>,
}

/// `n` documents of `spec`'s DTD; document `i` is generated by `config`
/// with seed `config.seed + i`.
pub fn corpus(spec: &CompiledSpec, n: usize, config: &DocGenConfig) -> Corpus {
    let docs: Vec<BatchDoc> = (0..n)
        .map(|i| {
            let config = DocGenConfig {
                seed: config.seed + i as u64,
                ..config.clone()
            };
            let tree = random_document(spec.dtd(), &config).expect("the DTD is satisfiable");
            BatchDoc::new(format!("doc-{i}.xml"), write_document(&tree, spec.dtd()))
        })
        .collect();
    let trees = docs
        .iter()
        .map(|d| {
            spec.parse_document(&d.content)
                .expect("writer output parses")
        })
        .collect();
    Corpus { docs, trees }
}

/// An edit stream: batches of ops, each for the document at that corpus
/// index, with a commit after every batch.
pub type Edits = Vec<(usize, Vec<EditOp>)>;

/// The attribute-rewrite stream.  Batch `i` edits document
/// `i mod trees.len()`; its op `j` sets the first attribute of the
/// `(i·997 + j·131) mod m`-th of the document's `m` attributed elements to
/// the fresh value `edited-{i}-{j}`.
pub fn edit_stream(trees: &[XmlTree], batches: usize, ops_per_batch: usize) -> Edits {
    (0..batches)
        .map(|i| {
            let victim = i % trees.len();
            let tree = &trees[victim];
            let editable: Vec<NodeId> = tree
                .elements()
                .filter(|&n| !tree.attributes(n).is_empty())
                .collect();
            let ops = (0..ops_per_batch)
                .map(|j| {
                    let element = editable[(i * 997 + j * 131) % editable.len()];
                    let (attr, _) = tree.attributes(element)[0];
                    EditOp::SetAttr {
                        element,
                        attr,
                        value: format!("edited-{i}-{j}"),
                    }
                })
                .collect();
            (victim, ops)
        })
        .collect()
}

/// The key-rewrite stream over a [`keyed_catalogue_spec`]: edit `i` sets
/// the key of the `(i / kinds) mod 3`-th element of kind `i mod kinds` in
/// document `i mod trees.len()` to `k{i mod 5}`, values few enough to flip
/// verdicts.  Edits whose element does not exist are dropped.  The stream
/// is idempotent: running it again leaves the corpus unchanged.
pub fn key_edit_stream(spec: &CompiledSpec, trees: &[XmlTree], edits: usize) -> Edits {
    let dtd = spec.dtd();
    // The root comes first; the kinds follow.
    let kinds: Vec<_> = dtd.types().skip(1).collect();
    let stream: Edits = (0..edits)
        .filter_map(|i| {
            let victim = i % trees.len();
            let ty = kinds[i % kinds.len()];
            let attr = *dtd.attrs_of(ty).first()?;
            let element = trees[victim].ext(ty).nth((i / kinds.len()) % 3)?;
            let value = format!("k{}", i % 5);
            Some((
                victim,
                vec![EditOp::SetAttr {
                    element,
                    attr,
                    value,
                }],
            ))
        })
        .collect();
    assert!(stream.len() >= edits / 2, "edit stream too sparse");
    stream
}

/// Opens `docs` in `session`, in order, and commits.
pub fn open_all(session: &mut CorpusSession<'_>, docs: &[BatchDoc]) -> Vec<DocHandle> {
    let handles = docs
        .iter()
        .map(|d| session.open_source(&d.label, &d.content).expect("opens"))
        .collect();
    session.commit();
    handles
}

/// Applies each batch of `edits` to its document and commits after each.
pub fn run_edits(session: &mut CorpusSession<'_>, handles: &[DocHandle], edits: &Edits) {
    for (victim, ops) in edits {
        session.apply(handles[*victim], ops).expect("edit applies");
        std::hint::black_box(session.commit());
    }
}

/// Current value of the process-wide `incremental.constraints_rechecked`
/// counter.  Arms that run one after another get attributable deltas.
pub fn rechecked_now() -> u64 {
    xic_telemetry::global()
        .snapshot()
        .counter("incremental.constraints_rechecked")
        .unwrap_or(0)
}

/// Runs `f` `runs` times and returns the **minimum** duration: the run the
/// scheduler left alone, i.e. the actual cost of the code.  A median of a
/// handful of runs on a shared host is dominated by whichever runs
/// straddled a preemption.
pub fn min_time(runs: usize, mut f: impl FnMut()) -> Duration {
    (0..runs.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .min()
        .expect("at least one run")
}

/// [`min_time`] over runs that each consume a fresh state.  Every state
/// is prepared before the first run and dropped after the last, so
/// neither is timed.
pub fn min_time_on<S>(
    runs: usize,
    mut prepare: impl FnMut() -> S,
    mut run: impl FnMut(&mut S),
) -> Duration {
    let mut states: Vec<S> = (0..runs.max(1)).map(|_| prepare()).collect();
    let mut next = states.iter_mut();
    min_time(runs, || {
        run(next.next().expect("one prepared state per run"))
    })
}

/// The re-measure loop.  Each call of `measure` times one window (one
/// duration per arm, arms interleaved so a load spike hits all of them);
/// the loop keeps every arm's minimum and stops as soon as `clean` accepts
/// the minima, or after `attempts` windows.
pub fn best_window<const N: usize>(
    attempts: usize,
    mut measure: impl FnMut() -> [Duration; N],
    clean: impl Fn([Duration; N]) -> bool,
) -> [Duration; N] {
    let mut best = measure();
    for _ in 1..attempts {
        if clean(best) {
            break;
        }
        for (b, d) in best.iter_mut().zip(measure()) {
            *b = (*b).min(d);
        }
    }
    best
}

/// Relative cost of `arm` over `base`: `(arm − base) / base`, negative
/// when the arm happened to win the scheduler lottery.
pub fn overhead(arm: Duration, base: Duration) -> f64 {
    let base = base.as_secs_f64().max(1e-12);
    (arm.as_secs_f64() - base) / base
}

/// Rounds to one decimal.
pub fn round1(x: f64) -> f64 {
    (x * 10.0).round() / 10.0
}

/// A duration in microseconds, to one decimal.
pub fn us(d: Duration) -> f64 {
    round1(d.as_secs_f64() * 1e6)
}

/// Formats a duration in microseconds.
pub fn fmt_us(d: Duration) -> String {
    format!("{:.1} µs", d.as_secs_f64() * 1e6)
}

const RULE: &str = "--------------------------------------------------------------------";

/// Opens a result table.
pub fn header(title: &str) {
    println!("\n{title}\n{RULE}");
}

/// One line of a result table.
pub fn row(label: impl Display, value: impl Display) {
    println!("{label:<44} {value:>12}");
}

// A control-arm build (`telemetry-off` or `faults`) prints its numbers but
// never records them, so each `BENCH_*.json` holds the default build's.
const CONTROL_ARM: bool = cfg!(any(feature = "telemetry-off", feature = "faults"));

/// Flat-object JSON, keys in the given order.
pub fn render_json<K: AsRef<str>>(fields: &[(K, f64)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(key, value)| format!("  \"{}\": {value}", key.as_ref()))
        .collect();
    format!("{{\n{}\n}}\n", body.join(",\n"))
}

/// Writes `fields` to `BENCH_<name>.json` at the workspace root and closes
/// the result table.  A `telemetry-off` or `faults` build writes nothing.
pub fn record<K: AsRef<str>>(name: &str, fields: &[(K, f64)]) {
    let file = format!("BENCH_{name}.json");
    if CONTROL_ARM {
        row("recorded", "nothing (control-arm build)");
    } else {
        let out = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(&file);
        std::fs::write(out, render_json(fields)).unwrap_or_else(|e| panic!("write {file}: {e}"));
        row("recorded", file);
    }
    println!("{RULE}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn small_spec() -> CompiledSpec {
        catalogue_spec(
            4,
            &ConstraintGenConfig {
                keys: 3,
                foreign_keys: 3,
                inclusions: 1,
                seed: 7,
                ..Default::default()
            },
        )
    }

    #[test]
    fn same_fixture_parameters_give_the_same_documents_and_edits() {
        let config = DocGenConfig {
            seed: 100,
            max_elements: 80,
            star_fanout: 10,
            ..Default::default()
        };
        let (a, b) = (small_spec(), small_spec());
        assert_eq!(a.id(), b.id());
        let (ca, cb) = (corpus(&a, 3, &config), corpus(&b, 3, &config));
        let sources = |c: &Corpus| -> Vec<(String, String)> {
            c.docs
                .iter()
                .map(|d| (d.label.clone(), d.content.clone()))
                .collect()
        };
        assert_eq!(sources(&ca), sources(&cb));
        assert_ne!(ca.docs[0].content, ca.docs[1].content, "seeds differ");
        let edits = edit_stream(&ca.trees, 7, 2);
        assert_eq!(edits, edit_stream(&cb.trees, 7, 2));
        assert_eq!(edits.len(), 7);
        assert!(edits.iter().all(|(_, ops)| ops.len() == 2));
        assert_eq!(
            edits.iter().map(|(v, _)| *v).collect::<Vec<_>>(),
            [0, 1, 2, 0, 1, 2, 0]
        );
        // The stream applies to a session that opened the same sources.
        let mut session = CorpusSession::new(&a);
        let handles = open_all(&mut session, &ca.docs);
        run_edits(&mut session, &handles, &edits);

        let keyed = keyed_catalogue_spec(4);
        let kc = corpus(&keyed, 2, &config);
        assert_eq!(
            key_edit_stream(&keyed, &kc.trees, 12),
            key_edit_stream(&keyed, &corpus(&keyed, 2, &config).trees, 12)
        );
    }

    #[test]
    fn recorder_emits_flat_json_with_keys_in_order() {
        let json = render_json(&[("b_first", 32.0), ("a_second", 0.5)]);
        assert_eq!(json, "{\n  \"b_first\": 32,\n  \"a_second\": 0.5\n}\n");
        let owned = vec![(String::from("worker0"), 1e-3)];
        assert_eq!(render_json(&owned), "{\n  \"worker0\": 0.001\n}\n");
        assert_eq!(render_json::<&str>(&[]), "{\n\n}\n");
        assert_eq!(us(Duration::from_nanos(12_345)), 12.3);
    }

    #[test]
    fn retry_loop_stops_at_the_first_clean_window() {
        const ATTEMPTS: usize = 5;
        let ms = Duration::from_millis;
        // Window k measures (10 − k) ms on one arm and k ms on the other.
        let calls = Cell::new(0u64);
        let measure = || {
            calls.set(calls.get() + 1);
            [ms(10 - calls.get()), ms(calls.get())]
        };
        let best = best_window(ATTEMPTS, measure, |[a, _]| a <= ms(7));
        assert_eq!(calls.get(), 3, "the third window is the first clean one");
        assert_eq!(best, [ms(7), ms(1)], "each arm keeps its own minimum");

        calls.set(0);
        best_window(ATTEMPTS, measure, |_| false);
        assert_eq!(calls.get(), ATTEMPTS as u64, "never more than ATTEMPTS");

        calls.set(0);
        best_window(ATTEMPTS, measure, |_| true);
        assert_eq!(calls.get(), 1);
    }

    #[test]
    fn timers_run_each_closure_once_per_run() {
        let mut n = 0u64;
        let _ = min_time(5, || n = std::hint::black_box(n + 1));
        assert_eq!(n, 5);
        let prepared = Cell::new(0);
        let mut seen = Vec::new();
        min_time_on(
            3,
            || {
                prepared.set(prepared.get() + 1);
                prepared.get()
            },
            |s| seen.push(*s),
        );
        assert_eq!(prepared.get(), 3);
        assert_eq!(seen, [1, 2, 3], "each run consumes its own state");
    }
}
