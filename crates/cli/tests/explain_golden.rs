//! Golden tests for `xic explain`: the whole `== cardinality system Ψ(D,Σ)
//! ==` section is compared byte for byte with a checked-in rendering, for
//! D1/Σ1, a specification with a negated inclusion (set-atom rows) and one
//! with a negated key over a DTD with starred and alternative children.
//! Regenerate a file only for a deliberate change to the system or its
//! text.

use std::path::PathBuf;

const TEACHERS_DTD: &str = r#"
<!ELEMENT teachers (teacher+)>
<!ELEMENT teacher (teach, research)>
<!ELEMENT teach (subject, subject)>
<!ELEMENT research (#PCDATA)>
<!ELEMENT subject (#PCDATA)>
<!ATTLIST teacher name CDATA #REQUIRED>
<!ATTLIST subject taught_by CDATA #REQUIRED>
"#;

const SIGMA1: &str = "
teacher.name -> teacher
subject.taught_by -> subject
subject.taught_by ref teacher.name
";

const LEADS_DTD: &str = r#"
<!ELEMENT teachers (teacher+)>
<!ELEMENT teacher (teach, research)>
<!ELEMENT teach (subject, subject)>
<!ELEMENT research (#PCDATA)>
<!ELEMENT subject (#PCDATA)>
<!ATTLIST teacher name CDATA #REQUIRED>
<!ATTLIST research lead CDATA #REQUIRED>
<!ATTLIST subject taught_by CDATA #REQUIRED>
"#;

const SIGMA_NEG_INCLUSION: &str = "
teacher.name -> teacher
research.lead subset teacher.name
subject.taught_by !subset teacher.name
";

const ITEMS_DTD: &str = r#"
<!ELEMENT db (item*, (note | memo))>
<!ELEMENT item EMPTY>
<!ELEMENT note (#PCDATA)>
<!ELEMENT memo EMPTY>
<!ATTLIST item id CDATA #REQUIRED>
<!ATTLIST memo id CDATA #REQUIRED>
"#;

const SIGMA_NEG_KEY: &str = "
item.id !-> item
memo.id subset item.id
";

fn temp_file(name: &str, content: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xic-explain-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, content).unwrap();
    path
}

/// The Ψ(D,Σ) section of `xic explain` for one specification.
fn psi_section(stem: &str, dtd: &str, sigma: &str) -> String {
    let dtd = temp_file(&format!("{stem}.dtd"), dtd);
    let sigma = temp_file(&format!("{stem}.xic"), sigma);
    let (report, code) = xic_cli::run([
        "explain",
        "--dtd",
        dtd.to_str().unwrap(),
        "--constraints",
        sigma.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{report}");
    let start = report
        .find("== cardinality system Ψ(D,Σ) ==")
        .expect("explain prints the system section");
    report[start..].to_string()
}

fn assert_golden(actual: &str, expected: &str, file: &str) {
    assert!(
        actual == expected,
        "`xic explain` differs from tests/golden/{file}; got:\n{actual}"
    );
}

#[test]
fn explain_d1_sigma1_matches_golden() {
    assert_golden(
        &psi_section("d1", TEACHERS_DTD, SIGMA1),
        include_str!("golden/explain_d1_sigma1.txt"),
        "explain_d1_sigma1.txt",
    );
}

#[test]
fn explain_negated_inclusion_matches_golden() {
    assert_golden(
        &psi_section("neg-inclusion", LEADS_DTD, SIGMA_NEG_INCLUSION),
        include_str!("golden/explain_negated_inclusion.txt"),
        "explain_negated_inclusion.txt",
    );
}

#[test]
fn explain_negated_key_matches_golden() {
    assert_golden(
        &psi_section("neg-key", ITEMS_DTD, SIGMA_NEG_KEY),
        include_str!("golden/explain_negated_key.txt"),
        "explain_negated_key.txt",
    );
}
