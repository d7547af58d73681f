//! Figure 5 — the paper's results table, regenerated empirically.
//!
//! For every cell of the table this harness runs the corresponding procedure
//! on a representative instance and prints the verdict and the measured time,
//! so `cargo bench` output contains a direct analogue of the figure.  This is
//! not a Criterion bench: it prints a table.

use xic_bench::{fmt_us, median_time, time_once};
use xic_constraints::{example_sigma1, example_sigma3, Constraint, ConstraintSet};
use xic_core::{CheckerConfig, ConsistencyChecker, ImplicationChecker};
use xic_dtd::{example_d1, example_d3};
use xic_gen::{catalogue_dtd, fixed_dtd_growing_sigma, negation_family, unary_consistency_family};

fn main() {
    println!();
    println!("Figure 5 (Fan & Libkin 2002) — measured counterpart");
    println!("----------------------------------------------------------------------------");
    println!(
        "{:<44} {:>12} {:>14}",
        "problem / class / instance", "verdict", "time"
    );
    println!("----------------------------------------------------------------------------");

    let no_witness = CheckerConfig {
        synthesize_witness: false,
        ..Default::default()
    };
    let consistency = ConsistencyChecker::with_config(no_witness.clone());
    let implication = ImplicationChecker::with_config(no_witness);

    // Column 5: multi-attribute keys only — linear time.
    let d3 = example_d3();
    let course = d3.type_by_name("course").unwrap();
    let dept = d3.attr_by_name("dept").unwrap();
    let course_no = d3.attr_by_name("course_no").unwrap();
    let keys_only = ConstraintSet::from_vec(vec![Constraint::key(course, vec![dept, course_no])]);
    let t = median_time(5, || {
        let _ = consistency.check_keys_only(&d3, &keys_only);
    });
    println!(
        "{:<44} {:>12} {:>14}",
        "consistency, keys only (D3)",
        "consistent",
        fmt_us(t)
    );
    let phi = Constraint::key(course, vec![dept]);
    let t = median_time(5, || {
        let _ = implication.implies(&d3, &keys_only, &phi).unwrap();
    });
    println!(
        "{:<44} {:>12} {:>14}",
        "implication, keys only (D3)",
        "not implied",
        fmt_us(t)
    );

    // Column 2: unary keys + foreign keys — NP-complete.
    let d1 = example_d1();
    let sigma1 = example_sigma1(&d1);
    let (t, outcome) = time_once(|| consistency.check(&d1, &sigma1).unwrap());
    println!(
        "{:<44} {:>12} {:>14}",
        "consistency, unary K+FK (D1, Σ1)",
        verdict(&outcome),
        fmt_us(t)
    );
    for spec in unary_consistency_family(&[8]) {
        let (t, outcome) = time_once(|| consistency.check(&spec.dtd, &spec.sigma).unwrap());
        println!(
            "{:<44} {:>12} {:>14}",
            format!("consistency, unary K+FK ({})", spec.label),
            verdict(&outcome),
            fmt_us(t)
        );
    }

    // Column 3: primary keys — still NP-complete; representative instance.
    let catalogue = catalogue_dtd(6);
    let kind0 = catalogue.type_by_name("kind0").unwrap();
    let id0 = catalogue.attr_by_name("id0").unwrap();
    let primary = ConstraintSet::from_vec(vec![Constraint::unary_key(kind0, id0)]);
    let (t, outcome) = time_once(|| consistency.check(&catalogue, &primary).unwrap());
    println!(
        "{:<44} {:>12} {:>14}",
        "consistency, primary unary keys (catalogue)",
        verdict(&outcome),
        fmt_us(t)
    );

    // Column 4: fixed DTD — PTIME; growing Σ over one DTD.
    for spec in fixed_dtd_growing_sigma(6, &[32], 5) {
        let (t, outcome) = time_once(|| consistency.check(&spec.dtd, &spec.sigma).unwrap());
        println!(
            "{:<44} {:>12} {:>14}",
            format!("consistency, fixed DTD ({})", spec.label),
            verdict(&outcome),
            fmt_us(t)
        );
    }

    // Implication for unary keys (coNP-complete).
    let teacher = d1.type_by_name("teacher").unwrap();
    let subject = d1.type_by_name("subject").unwrap();
    let name = d1.attr_by_name("name").unwrap();
    let taught_by = d1.attr_by_name("taught_by").unwrap();
    let sigma = ConstraintSet::from_vec(vec![
        Constraint::unary_key(teacher, name),
        Constraint::unary_foreign_key(subject, taught_by, teacher, name),
    ]);
    let phi = Constraint::unary_key(subject, taught_by);
    let (t, outcome) = time_once(|| implication.implies(&d1, &sigma, &phi).unwrap());
    println!(
        "{:<44} {:>12} {:>14}",
        "implication, unary K+FK (D1)",
        if outcome.is_implied() {
            "implied"
        } else {
            "not implied"
        },
        fmt_us(t)
    );

    // Section 5: negations (C^unary_{K¬,IC¬}) — NP.
    for spec in negation_family(&[3], 29) {
        let (t, outcome) = time_once(|| consistency.check(&spec.dtd, &spec.sigma).unwrap());
        println!(
            "{:<44} {:>12} {:>14}",
            format!("consistency, unary K¬+IC¬ ({})", spec.label),
            verdict(&outcome),
            fmt_us(t)
        );
    }

    // Column 1: multi-attribute keys + foreign keys — undecidable; the
    // checker is allowed to say Unknown.
    let sigma3 = example_sigma3(&d3);
    let (t, outcome) = time_once(|| consistency.check(&d3, &sigma3).unwrap());
    println!(
        "{:<44} {:>12} {:>14}",
        "consistency, multi-attr K+FK (D3, Σ3)",
        verdict(&outcome),
        fmt_us(t)
    );
    println!("----------------------------------------------------------------------------");
    println!("(verdicts: paper's Figure 5 gives the complexity class per column; the");
    println!(" timings above are measured, not the paper's)");
    println!();
}

fn verdict(outcome: &xic_core::ConsistencyOutcome) -> &'static str {
    if outcome.is_consistent() {
        "consistent"
    } else if outcome.is_inconsistent() {
        "inconsistent"
    } else {
        "unknown"
    }
}
