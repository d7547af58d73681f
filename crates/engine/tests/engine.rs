//! Integration tests for the engine subsystem: decisions over a compiled
//! spec, spec-hash stability, and determinism of parallel batch validation.

use xic_constraints::Constraint;
use xic_engine::{BatchDoc, BatchEngine, CompiledSpec};
use xic_gen::{random_document, random_dtd, DocGenConfig, DtdGenConfig};
use xic_xml::write_document;

const SCHOOL_DTD: &str = "<!ELEMENT school (teacher*, subject*)>\n\
     <!ELEMENT teacher EMPTY>\n\
     <!ATTLIST teacher name CDATA #REQUIRED>\n\
     <!ELEMENT subject EMPTY>\n\
     <!ATTLIST subject taught_by CDATA #REQUIRED>";

const SCHOOL_SIGMA: &str = "teacher.name -> teacher\nsubject.taught_by ⊆ teacher.name";

fn school_spec() -> CompiledSpec {
    CompiledSpec::from_sources(SCHOOL_DTD, Some("school"), SCHOOL_SIGMA).unwrap()
}

#[test]
fn implication_of_foreign_constraint_is_an_error_not_a_panic() {
    let spec = school_spec();
    // A constraint built against a different, larger DTD: its ids are out of
    // range for the school spec and must be rejected, not rendered.
    let d3 = xic_dtd::example_d3();
    let student = d3.type_by_name("student").unwrap();
    let attr = d3.attrs_of(student)[0];
    let foreign = Constraint::unary_key(student, attr);
    let err = spec.check_implication(&foreign).unwrap_err();
    assert!(!err.to_string().is_empty());
}

#[test]
fn spec_hash_is_stable_across_reparses() {
    let a = school_spec();
    let b = school_spec();
    assert_eq!(a.id(), b.id(), "same source must compile to the same id");

    // Formatting-only changes do not move the id: the hash covers the
    // canonical rendering, not the raw source.
    let reformatted = CompiledSpec::from_sources(
        &SCHOOL_DTD.replace('\n', "\n\n"),
        Some("school"),
        "  teacher.name -> teacher\n\nsubject.taught_by ⊆ teacher.name\n",
    )
    .unwrap();
    assert_eq!(a.id(), reformatted.id());

    // A semantic change does.
    let weakened =
        CompiledSpec::from_sources(SCHOOL_DTD, Some("school"), "teacher.name -> teacher").unwrap();
    assert_ne!(a.id(), weakened.id());
}

#[test]
fn distinct_checker_configs_get_distinct_ids() {
    use xic_core::CheckerConfig;
    let dtd = xic_dtd::parse_dtd(SCHOOL_DTD, Some("school")).unwrap();
    let sigma = xic_constraints::parse_constraint_set(SCHOOL_SIGMA, &dtd).unwrap();
    let default = CompiledSpec::compile(dtd.clone(), sigma.clone()).unwrap();
    let no_witness = CompiledSpec::compile_with(
        dtd,
        sigma,
        CheckerConfig {
            synthesize_witness: false,
            ..Default::default()
        },
    )
    .unwrap();
    // Different configurations can reach different verdicts (budgets,
    // witness synthesis), so they must not share an identity.
    assert_ne!(default.id(), no_witness.id());
}

#[test]
fn compiled_spec_precomputes_the_unary_system() {
    let spec = school_spec();
    assert!(spec.system().is_some(), "unary spec must carry Ψ(D,Σ)");
    assert!(spec.analysis().satisfiable());
    assert!(spec.class().is_some());

    // Multi-attribute constraints fall outside Ψ's scope.
    let dtd = xic_dtd::example_d3();
    let course = dtd.type_by_name("course").unwrap();
    let dept = dtd.attr_by_name("dept").unwrap();
    let course_no = dtd.attr_by_name("course_no").unwrap();
    let sigma = xic_constraints::ConstraintSet::from_vec(vec![Constraint::key(
        course,
        vec![dept, course_no],
    )]);
    let spec = CompiledSpec::compile(dtd, sigma).unwrap();
    assert!(spec.system().is_none());
    assert!(spec.check_consistency().is_consistent());
}

/// Generated corpus: documents that conform to a random DTD, some mutated to
/// violate constraints, batched through 1..=8 workers.  The reports must be
/// byte-identical whatever the parallelism.
#[test]
fn parallel_batch_reports_match_sequential_on_generated_corpus() {
    let dtd = random_dtd(&DtdGenConfig {
        seed: 11,
        num_types: 6,
        ..Default::default()
    });
    let mut sigma = xic_constraints::ConstraintSet::new();
    // A unary key on the first attribute slot the DTD offers, so the small
    // value pool below makes some generated documents violate it.
    if let Some((ty, attr)) = dtd
        .types()
        .find_map(|ty| dtd.attrs_of(ty).first().map(|&a| (ty, a)))
    {
        sigma.push(Constraint::unary_key(ty, attr));
    }
    let spec = CompiledSpec::compile(dtd.clone(), sigma).unwrap();

    let mut docs = Vec::new();
    for seed in 0..120u64 {
        let Some(tree) = random_document(
            &dtd,
            &DocGenConfig {
                seed,
                value_pool: 3,
                ..Default::default()
            },
        ) else {
            continue;
        };
        let mut source = write_document(&tree, &dtd);
        if seed % 7 == 0 {
            // Truncate some documents so the batch also exercises the
            // parse-error path deterministically.
            let cut = source.len() / 2;
            source.truncate(cut);
        }
        docs.push(BatchDoc::new(format!("doc-{seed}"), source));
    }
    assert!(
        docs.len() >= 100,
        "corpus must be ≥ 100 documents, got {}",
        docs.len()
    );

    let sequential = BatchEngine::new(1).validate_batch(&spec, &docs);
    for threads in [2, 4, 8] {
        let parallel = BatchEngine::new(threads).validate_batch(&spec, &docs);
        assert_eq!(
            parallel.render(),
            sequential.render(),
            "reports diverged at {threads} threads"
        );
        assert_eq!(parallel, sequential);
    }
}
