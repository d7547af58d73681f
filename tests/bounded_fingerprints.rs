//! Pins the exact documents the bounded model search returns: for the
//! school specification (D3, Σ3) and for random binary constraint sets
//! over random DTDs, an FNV-1a fingerprint of the serialized witness (or
//! `None` when the budget runs out).  A change to how the search repairs
//! candidates or checks `T ⊨ Σ` that keeps its verdicts but moves the
//! random stream shows up here as a changed fingerprint.

use xml_integrity_constraints::constraints::{example_sigma3, ConstraintSet};
use xml_integrity_constraints::core::{bounded_search, BoundedSearchConfig};
use xml_integrity_constraints::dtd::{example_d3, Dtd};
use xml_integrity_constraints::gen::{
    random_binary_constraints, random_dtd, ConstraintGenConfig, DtdGenConfig,
};
use xml_integrity_constraints::xml::write_document;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The fingerprint of the witness the default search finds, if any.
fn search(dtd: &Dtd, sigma: &ConstraintSet) -> Option<u64> {
    bounded_search(dtd, sigma, &BoundedSearchConfig::default())
        .map(|tree| fnv1a(write_document(&tree, dtd).as_bytes()))
}

#[test]
fn school_spec_witness_is_pinned() {
    let d3 = example_d3();
    assert_eq!(
        search(&d3, &example_sigma3(&d3)),
        Some(0x9f06_7ad4_f57e_5c57)
    );
}

#[test]
fn random_binary_spec_witnesses_are_pinned() {
    let expected: [Option<u64>; 16] = [
        None,
        Some(0x291f_0983_7946_e3b3),
        Some(0x15de_c8b5_3c76_8405),
        None,
        Some(0xb522_42c8_7641_db44),
        None,
        Some(0x8cc7_be50_03bf_ea10),
        None,
        Some(0x3dfe_eddc_9a66_f687),
        Some(0x6706_febf_4b29_3bf6),
        Some(0x5ef7_48ce_14c0_6aa5),
        None,
        None,
        Some(0x4b5f_4600_e125_176a),
        Some(0x2b9e_5d2b_17f8_76f4),
        None,
    ];
    let actual: Vec<Option<u64>> = (0..16)
        .map(|seed| {
            let dtd = random_dtd(&DtdGenConfig {
                seed,
                ..DtdGenConfig::default()
            });
            let sigma = random_binary_constraints(
                &dtd,
                &ConstraintGenConfig {
                    seed,
                    ..ConstraintGenConfig::default()
                },
            );
            search(&dtd, &sigma)
        })
        .collect();
    for (seed, (got, want)) in actual.iter().zip(&expected).enumerate() {
        assert_eq!(got, want, "seed {seed}: {actual:x?}");
    }
}
