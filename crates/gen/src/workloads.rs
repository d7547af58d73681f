//! Named experiment workloads, one per `xic-bench` experiment (E2–E12).
//!
//! Each function produces a family of [`SpecInstance`]s indexed by a size
//! parameter; the `xic-bench` harness measures the relevant procedure on each
//! member and reports the scaling curve that stands in for the corresponding
//! row of the paper's Figure 5.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xic_constraints::ConstraintSet;
use xic_core::{lip_to_spec, LipSpec};
use xic_dtd::Dtd;

use crate::constraint_gen::{random_unary_constraints, reference_chain, ConstraintGenConfig};
use crate::dtd_gen::{catalogue_dtd, fanout_dtd, random_dtd, DtdGenConfig};

/// One benchmarkable specification instance.
#[derive(Debug, Clone)]
pub struct SpecInstance {
    /// Short label (used as the Criterion benchmark id).
    pub label: String,
    /// The DTD.
    pub dtd: Dtd,
    /// The constraint set.
    pub sigma: ConstraintSet,
}

impl SpecInstance {
    /// Combined size `|D| + |Σ|` used as the x-axis of scaling plots.
    pub fn size(&self) -> usize {
        self.dtd.size() + self.sigma.len()
    }
}

/// E3a — consistent unary key/foreign-key specifications of growing size
/// (catalogue DTD with a reference chain).
pub fn unary_consistency_family(sizes: &[usize]) -> Vec<SpecInstance> {
    sizes
        .iter()
        .map(|&kinds| {
            let dtd = catalogue_dtd(kinds);
            let sigma = reference_chain(&dtd, kinds);
            SpecInstance {
                label: format!("chain/{kinds}"),
                dtd,
                sigma,
            }
        })
        .collect()
}

/// E3b — *inconsistent* unary specifications of growing size, generalising
/// the paper's teachers example: each group needs `fanout` members, members
/// reference groups through a foreign key, and `owner` is a key of members —
/// so |member| ≤ |group| while the DTD forces |member| = fanout·|group|.
pub fn inconsistent_fanout_family(fanouts: &[usize]) -> Vec<SpecInstance> {
    fanouts
        .iter()
        .map(|&fanout| {
            let dtd = fanout_dtd(fanout);
            let group = dtd.type_by_name("group").expect("group");
            let member = dtd.type_by_name("member").expect("member");
            let gid = dtd.attr_by_name("gid").expect("gid");
            let owner = dtd.attr_by_name("owner").expect("owner");
            let sigma = ConstraintSet::from_vec(vec![
                xic_constraints::Constraint::unary_key(group, gid),
                xic_constraints::Constraint::unary_key(member, owner),
                xic_constraints::Constraint::unary_foreign_key(member, owner, group, gid),
            ]);
            SpecInstance {
                label: format!("fanout/{fanout}"),
                dtd,
                sigma,
            }
        })
        .collect()
}

/// E3c / E4 — hard instances from the Theorem 4.7 reduction: random 0/1
/// exact-cover style systems with `rows` rows and `cols` columns.
pub fn hard_lip_family(shapes: &[(usize, usize)], seed: u64) -> Vec<(String, LipSpec)> {
    let mut rng = StdRng::seed_from_u64(seed);
    shapes
        .iter()
        .map(|&(rows, cols)| {
            let mut matrix = vec![vec![false; cols]; rows];
            for row in matrix.iter_mut() {
                // Each row selects 2–3 random columns.
                let picks = 2 + rng.gen_range(0..2usize);
                for _ in 0..picks {
                    let j = rng.gen_range(0..cols);
                    row[j] = true;
                }
            }
            (format!("lip/{rows}x{cols}"), lip_to_spec(&matrix))
        })
        .collect()
}

/// E4 — primary-key-restricted unary workloads over random DTDs.
pub fn primary_key_family(sizes: &[usize], seed: u64) -> Vec<SpecInstance> {
    sizes
        .iter()
        .map(|&n| {
            let dtd = random_dtd(&DtdGenConfig {
                num_types: n,
                seed,
                ..Default::default()
            });
            let sigma = random_unary_constraints(
                &dtd,
                &ConstraintGenConfig {
                    keys: n / 2,
                    foreign_keys: n / 2,
                    primary_keys_only: true,
                    seed,
                    ..Default::default()
                },
            );
            SpecInstance {
                label: format!("primary/{n}"),
                dtd,
                sigma,
            }
        })
        .collect()
}

/// E5 — a fixed DTD with a growing number of constraints (Corollary 4.11 /
/// Corollary 5.5: PTIME when the DTD is fixed).
pub fn fixed_dtd_growing_sigma(
    kinds: usize,
    sigma_sizes: &[usize],
    seed: u64,
) -> Vec<SpecInstance> {
    let dtd = catalogue_dtd(kinds);
    sigma_sizes
        .iter()
        .map(|&m| {
            let sigma = random_unary_constraints(
                &dtd,
                &ConstraintGenConfig {
                    keys: m / 2,
                    foreign_keys: m - m / 2,
                    seed,
                    ..Default::default()
                },
            );
            SpecInstance {
                label: format!("fixed-dtd/{m}"),
                dtd: dtd.clone(),
                sigma,
            }
        })
        .collect()
}

/// E6 / E7 — keys-only and DTD-only workloads over growing random DTDs.
pub fn keys_only_family(sizes: &[usize], seed: u64) -> Vec<SpecInstance> {
    sizes
        .iter()
        .map(|&n| {
            let dtd = random_dtd(&DtdGenConfig {
                num_types: n,
                seed,
                ..Default::default()
            });
            let mut sigma = ConstraintSet::new();
            for ty in dtd.types() {
                if let Some(&attr) = dtd.attrs_of(ty).first() {
                    sigma.push(xic_constraints::Constraint::unary_key(ty, attr));
                }
            }
            SpecInstance {
                label: format!("keys-only/{n}"),
                dtd,
                sigma,
            }
        })
        .collect()
}

/// E9 — workloads with negated keys and negated inclusion constraints
/// (Theorem 5.1).
pub fn negation_family(sizes: &[usize], seed: u64) -> Vec<SpecInstance> {
    sizes
        .iter()
        .map(|&kinds| {
            let dtd = catalogue_dtd(kinds);
            let sigma = random_unary_constraints(
                &dtd,
                &ConstraintGenConfig {
                    keys: kinds / 2,
                    foreign_keys: kinds / 2,
                    negated_keys: 2.min(kinds),
                    negated_inclusions: 2.min(kinds),
                    seed,
                    ..Default::default()
                },
            );
            SpecInstance {
                label: format!("negation/{kinds}"),
                dtd,
                sigma,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xic_core::ConsistencyChecker;

    #[test]
    fn chain_family_is_consistent() {
        for spec in unary_consistency_family(&[2, 4]) {
            let outcome = ConsistencyChecker::new()
                .check(&spec.dtd, &spec.sigma)
                .unwrap();
            assert!(
                outcome.is_consistent(),
                "{}: {}",
                spec.label,
                outcome.explanation()
            );
        }
    }

    #[test]
    fn fanout_family_is_inconsistent() {
        for spec in inconsistent_fanout_family(&[2, 3]) {
            let outcome = ConsistencyChecker::new()
                .check(&spec.dtd, &spec.sigma)
                .unwrap();
            assert!(
                outcome.is_inconsistent(),
                "{}: {}",
                spec.label,
                outcome.explanation()
            );
        }
    }

    #[test]
    fn lip_family_produces_unary_specs() {
        for (label, spec) in hard_lip_family(&[(3, 4)], 11) {
            assert!(spec.sigma.validate(&spec.dtd).is_ok(), "{label}");
            assert!(spec
                .sigma
                .in_class(xic_constraints::ConstraintClass::UnaryKeyForeignKey));
        }
    }

    #[test]
    fn families_are_well_formed() {
        for spec in primary_key_family(&[6], 3)
            .into_iter()
            .chain(fixed_dtd_growing_sigma(6, &[4], 3))
            .chain(keys_only_family(&[6], 3))
            .chain(negation_family(&[3], 3))
        {
            assert!(spec.sigma.validate(&spec.dtd).is_ok(), "{}", spec.label);
            assert!(spec.size() > 0);
        }
    }
}
