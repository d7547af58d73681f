//! Pins the exact documents the decision procedures return on the Figure 5
//! mix that the `decide` benchmark workload runs: for every instance, the
//! verdict and an FNV-1a fingerprint of the serialized witness (or
//! counterexample).  A change to Ψ(D,Σ), the solver or witness synthesis
//! that keeps every verdict but moves a witness to another vertex shows up
//! here as a changed fingerprint.

use xml_integrity_constraints::constraints::{example_sigma1, Constraint, ConstraintSet};
use xml_integrity_constraints::core::{ConsistencyChecker, ImplicationChecker};
use xml_integrity_constraints::dtd::{example_d1, Dtd};
use xml_integrity_constraints::gen::{
    fixed_dtd_growing_sigma, hard_lip_family, inconsistent_fanout_family, keys_only_family,
    negation_family, primary_key_family, unary_consistency_family, SpecInstance,
};
use xml_integrity_constraints::xml::{write_document, XmlTree};

/// One decision of the mix: a consistency question, or an implication
/// question when `phi` is set.
struct Instance {
    label: String,
    dtd: Dtd,
    sigma: ConstraintSet,
    phi: Option<Constraint>,
}

impl From<SpecInstance> for Instance {
    fn from(spec: SpecInstance) -> Instance {
        Instance {
            label: spec.label,
            dtd: spec.dtd,
            sigma: spec.sigma,
            phi: None,
        }
    }
}

/// The nine instances of the benchmark's full-size `decide` mix.
fn instances() -> Vec<Instance> {
    let first = |family: Vec<SpecInstance>| -> Instance {
        family.into_iter().next().expect("one member").into()
    };
    let d1 = example_d1();
    let teacher = d1.type_by_name("teacher").unwrap();
    let subject = d1.type_by_name("subject").unwrap();
    let name = d1.attr_by_name("name").unwrap();
    let taught_by = d1.attr_by_name("taught_by").unwrap();
    let (lip_label, lip) = hard_lip_family(&[(4, 6)], 20260614)
        .into_iter()
        .next()
        .expect("one member");
    vec![
        Instance {
            label: "D1/Sigma1".to_string(),
            sigma: example_sigma1(&d1),
            dtd: d1.clone(),
            phi: None,
        },
        Instance {
            label: "implication D1 K+FK".to_string(),
            sigma: ConstraintSet::from_vec(vec![
                Constraint::unary_key(teacher, name),
                Constraint::unary_foreign_key(subject, taught_by, teacher, name),
            ]),
            phi: Some(Constraint::unary_key(subject, taught_by)),
            dtd: d1,
        },
        first(unary_consistency_family(&[8])),
        first(fixed_dtd_growing_sigma(6, &[32], 5)),
        first(primary_key_family(&[8], 17)),
        first(inconsistent_fanout_family(&[8])),
        first(negation_family(&[3], 29)),
        first(keys_only_family(&[8], 17)),
        Instance {
            label: lip_label,
            dtd: lip.dtd,
            sigma: lip.sigma,
            phi: None,
        },
    ]
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The verdict and the fingerprint of the document it carries.
fn decide(inst: &Instance) -> (&'static str, Option<u64>) {
    let print =
        |tree: Option<&XmlTree>| tree.map(|t| fnv1a(write_document(t, &inst.dtd).as_bytes()));
    match &inst.phi {
        None => {
            let outcome = ConsistencyChecker::new()
                .check(&inst.dtd, &inst.sigma)
                .unwrap();
            let verdict = if outcome.is_consistent() {
                "consistent"
            } else if outcome.is_inconsistent() {
                "inconsistent"
            } else {
                "unknown"
            };
            (verdict, print(outcome.witness()))
        }
        Some(phi) => {
            let outcome = ImplicationChecker::new()
                .implies(&inst.dtd, &inst.sigma, phi)
                .unwrap();
            let verdict = if outcome.is_implied() {
                "implied"
            } else if outcome.is_not_implied() {
                "not implied"
            } else {
                "unknown"
            };
            (verdict, print(outcome.counterexample()))
        }
    }
}

#[test]
fn decide_mix_verdicts_and_witnesses_are_pinned() {
    let expected: [(&str, Option<u64>); 9] = [
        ("inconsistent", None),
        ("not implied", Some(0xc681_1b30_e860_e005)),
        ("consistent", Some(0x93da_829c_53d8_26e0)),
        ("consistent", Some(0x93da_829c_53d8_26e0)),
        ("consistent", Some(0x82a8_afc5_33f7_5f9c)),
        ("inconsistent", None),
        ("inconsistent", None),
        ("consistent", Some(0x82a8_afc5_33f7_5f9c)),
        ("consistent", Some(0x0c42_1eca_b3d8_3f13)),
    ];
    let mix = instances();
    assert_eq!(mix.len(), expected.len());
    let actual: Vec<_> = mix.iter().map(decide).collect();
    for ((inst, got), want) in mix.iter().zip(&actual).zip(&expected) {
        assert_eq!(got, want, "{}", inst.label);
    }
}
