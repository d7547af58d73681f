//! Engine throughput — the compile-once / check-many benchmark.
//!
//! Three measurements back the `xic-engine` design:
//!
//! 1. **cold vs. warm verdicts** — a consistency check through a cold path
//!    (re-compile the spec, re-run the decision procedure) vs. a warm
//!    [`xic_engine::VerdictCache`] hit on the same spec;
//! 2. **batch validation scaling** — docs/sec for 1 vs. N worker threads on
//!    a generated corpus of ≥ 100 documents;
//! 3. **determinism** — the parallel batch report must render byte-identically
//!    to the sequential one (asserted, not just printed).
//!
//! It asserts its floors and records no JSON.

use std::time::Duration;

use xic_bench::{fmt_us, header, min_time, row};
use xic_constraints::{Constraint, ConstraintSet};
use xic_engine::{BatchDoc, BatchEngine, CompiledSpec, Engine};
use xic_gen::{random_document, random_dtd, DocGenConfig, DtdGenConfig};
use xic_xml::write_document;

const CORPUS: usize = 160;

fn main() {
    let dtd = random_dtd(&DtdGenConfig {
        seed: 23,
        num_types: 8,
        ..Default::default()
    });
    let mut sigma = ConstraintSet::new();
    // A unary key on the first attribute slot the DTD offers.
    if let Some((ty, attr)) = dtd
        .types()
        .find_map(|ty| dtd.attrs_of(ty).first().map(|&a| (ty, a)))
    {
        sigma.push(Constraint::unary_key(ty, attr));
    }
    let dtd_src = dtd.render();
    let sigma_src = sigma.render(&dtd);

    header("engine throughput — compile-once / check-many");

    // 1. Cold vs. warm consistency verdicts.
    let cold = min_time(5, || {
        let spec = CompiledSpec::compile(dtd.clone(), sigma.clone()).unwrap();
        std::hint::black_box(spec.check_consistency());
    });
    let spec = CompiledSpec::compile(dtd.clone(), sigma.clone()).unwrap();
    let engine = Engine::new();
    engine.consistency(&spec); // populate the cache
    let warm = min_time(5, || {
        std::hint::black_box(engine.consistency(&spec));
    });
    let speedup = cold.as_secs_f64() / warm.as_secs_f64().max(1e-9);
    row("consistency, cold (compile + decide)", fmt_us(cold));
    row("consistency, warm (verdict cache hit)", fmt_us(warm));
    row("warm speedup", format!("{speedup:.0}x"));
    assert!(
        speedup >= 10.0,
        "warm-cache repeat checks must be ≥ 10× faster than cold (got {speedup:.1}×)"
    );
    let stats = engine.cache().stats();
    row(
        "cache statistics",
        format!("{} hits / {} misses", stats.hits, stats.misses),
    );

    // Spec ids are content hashes: recompiling the same sources is the same
    // spec, so a service restart keeps its cache keys.
    let reparsed =
        CompiledSpec::from_sources(&dtd_src, Some(dtd.type_name(dtd.root())), &sigma_src)
            .expect("rendered sources must re-parse");
    assert_eq!(
        reparsed.id(),
        spec.id(),
        "content hash must be stable across re-parses"
    );

    // 2. Batch validation, 1 vs. N threads.
    let mut docs = Vec::new();
    let mut seed = 0u64;
    while docs.len() < CORPUS {
        if let Some(tree) = random_document(
            &dtd,
            &DocGenConfig {
                seed,
                value_pool: 4,
                ..Default::default()
            },
        ) {
            docs.push(BatchDoc::new(
                format!("doc-{seed}"),
                write_document(&tree, &dtd),
            ));
        }
        seed += 1;
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let threads = cores.max(2);

    let sequential_engine = BatchEngine::new(1);
    let parallel_engine = BatchEngine::new(threads);
    let t1 = min_time(3, || {
        std::hint::black_box(sequential_engine.validate_batch(&spec, &docs));
    });
    let tn = min_time(3, || {
        std::hint::black_box(parallel_engine.validate_batch(&spec, &docs));
    });
    let rate = |d: Duration| docs.len() as f64 / d.as_secs_f64().max(1e-9);
    row(
        "batch validation, 1 thread",
        format!("{:.0} docs/s", rate(t1)),
    );
    row(
        format!("batch validation, {threads} threads"),
        format!("{:.0} docs/s", rate(tn)),
    );
    row(
        "parallel speedup",
        format!("{:.2}x", t1.as_secs_f64() / tn.as_secs_f64()),
    );
    if cores > 1 {
        assert!(
            tn < t1,
            "multi-threaded batch validation must beat single-threaded on {} docs \
             (1 thread: {t1:?}, {threads} threads: {tn:?})",
            docs.len()
        );
    } else {
        // On a single hardware thread parallel validation cannot win and
        // timeslicing noise makes any timing bound flaky, so the speedup
        // assertion is informative only.
        row("parallel speedup check", "skipped (1 hardware thread)");
    }

    // 3. Determinism across thread counts.
    let sequential = sequential_engine.validate_batch(&spec, &docs);
    let parallel = parallel_engine.validate_batch(&spec, &docs);
    assert_eq!(
        sequential.render(),
        parallel.render(),
        "parallel batch reports must be byte-identical to sequential"
    );
    row("report determinism (1 vs. N threads)", "byte-identical");
    row(
        "corpus",
        format!("{}/{} clean", sequential.clean_count(), sequential.total()),
    );
}
