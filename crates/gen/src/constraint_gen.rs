//! Random constraint-set generators.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xic_constraints::{Constraint, ConstraintSet, InclusionSpec, KeySpec};
use xic_dtd::{AttrId, Dtd, ElemId};

/// Parameters for [`random_unary_constraints`].
#[derive(Debug, Clone)]
pub struct ConstraintGenConfig {
    /// Number of unary keys to draw.
    pub keys: usize,
    /// Number of unary foreign keys to draw.
    pub foreign_keys: usize,
    /// Number of plain unary inclusion constraints to draw.
    pub inclusions: usize,
    /// Number of negated keys to draw (0 keeps the set in `C^unary_{K,FK}`).
    pub negated_keys: usize,
    /// Number of negated inclusion constraints to draw.
    pub negated_inclusions: usize,
    /// Enforce the primary-key restriction (at most one key per type).
    pub primary_keys_only: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ConstraintGenConfig {
    fn default() -> Self {
        ConstraintGenConfig {
            keys: 3,
            foreign_keys: 3,
            inclusions: 0,
            negated_keys: 0,
            negated_inclusions: 0,
            primary_keys_only: false,
            seed: 7,
        }
    }
}

/// All (element type, attribute) slots of a DTD.
fn slots(dtd: &Dtd) -> Vec<(ElemId, AttrId)> {
    let mut out = Vec::new();
    for ty in dtd.types() {
        for &attr in dtd.attrs_of(ty) {
            out.push((ty, attr));
        }
    }
    out
}

/// Draws a random set of unary constraints over the DTD's attribute slots.
/// Returns an empty set if the DTD has no attributes.
pub fn random_unary_constraints(dtd: &Dtd, config: &ConstraintGenConfig) -> ConstraintSet {
    let slots = slots(dtd);
    let mut sigma = ConstraintSet::new();
    if slots.is_empty() {
        return sigma;
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut keyed_types: Vec<ElemId> = Vec::new();
    let pick = |rng: &mut StdRng| slots[rng.gen_range(0..slots.len())];

    for _ in 0..config.keys {
        let (ty, attr) = pick(&mut rng);
        if config.primary_keys_only && keyed_types.contains(&ty) {
            continue;
        }
        keyed_types.push(ty);
        sigma.push(Constraint::unary_key(ty, attr));
    }
    for _ in 0..config.foreign_keys {
        let (t1, l1) = pick(&mut rng);
        let (t2, l2) = pick(&mut rng);
        if config.primary_keys_only && keyed_types.contains(&t2) {
            // The foreign key's target key would be a second key on t2.
            continue;
        }
        keyed_types.push(t2);
        sigma.push(Constraint::unary_foreign_key(t1, l1, t2, l2));
    }
    for _ in 0..config.inclusions {
        let (t1, l1) = pick(&mut rng);
        let (t2, l2) = pick(&mut rng);
        sigma.push(Constraint::unary_inclusion(t1, l1, t2, l2));
    }
    for _ in 0..config.negated_keys {
        let (ty, attr) = pick(&mut rng);
        sigma.push(Constraint::not_unary_key(ty, attr));
    }
    for _ in 0..config.negated_inclusions {
        let (t1, l1) = pick(&mut rng);
        let (t2, l2) = pick(&mut rng);
        sigma.push(Constraint::not_unary_inclusion(t1, l1, t2, l2));
    }
    sigma
}

/// Every ordered pair of distinct attributes of every element type that has
/// two or more: the `(τ, [l1, l2])` slots a 2-attribute constraint can
/// name.  Both orders are listed, so tuples compare position by position.
fn pair_slots(dtd: &Dtd) -> Vec<(ElemId, [AttrId; 2])> {
    let mut out = Vec::new();
    for ty in dtd.types() {
        let attrs = dtd.attrs_of(ty);
        for &a in attrs {
            for &b in attrs {
                if a != b {
                    out.push((ty, [a, b]));
                }
            }
        }
    }
    out
}

/// Draws a random set of 2-attribute constraints: keys `τ[l1, l2] → τ`,
/// foreign keys and inclusions `τ1[l1, l2] ⊆ τ2[l3, l4]`, and the negations
/// of keys and inclusions, over the element types with at least two
/// attributes (every type of [`crate::random_dtd`] at its default
/// `attrs_per_type`, and every kind of [`crate::catalogue_dtd`]).  The
/// counts and the primary-key restriction of `config` apply as in
/// [`random_unary_constraints`].  Returns an empty set if no type has two
/// attributes.
pub fn random_binary_constraints(dtd: &Dtd, config: &ConstraintGenConfig) -> ConstraintSet {
    let slots = pair_slots(dtd);
    let mut sigma = ConstraintSet::new();
    if slots.is_empty() {
        return sigma;
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut keyed_types: Vec<ElemId> = Vec::new();
    let pick = |rng: &mut StdRng| slots[rng.gen_range(0..slots.len())];
    let inclusion = |rng: &mut StdRng| {
        let (t1, from) = pick(rng);
        let (t2, to) = pick(rng);
        InclusionSpec::new(t1, from.to_vec(), t2, to.to_vec())
    };

    for _ in 0..config.keys {
        let (ty, attrs) = pick(&mut rng);
        if config.primary_keys_only && keyed_types.contains(&ty) {
            continue;
        }
        keyed_types.push(ty);
        sigma.push(Constraint::key(ty, attrs.to_vec()));
    }
    for _ in 0..config.foreign_keys {
        let spec = inclusion(&mut rng);
        if config.primary_keys_only && keyed_types.contains(&spec.to_ty) {
            continue;
        }
        keyed_types.push(spec.to_ty);
        sigma.push(Constraint::ForeignKey(spec));
    }
    for _ in 0..config.inclusions {
        sigma.push(Constraint::Inclusion(inclusion(&mut rng)));
    }
    for _ in 0..config.negated_keys {
        let (ty, attrs) = pick(&mut rng);
        sigma.push(Constraint::NotKey(KeySpec::new(ty, attrs.to_vec())));
    }
    for _ in 0..config.negated_inclusions {
        sigma.push(Constraint::NotInclusion(inclusion(&mut rng)));
    }
    sigma
}

/// A deterministic "reference chain" constraint set over [`crate::dtd_gen::catalogue_dtd`]:
/// each kind's `ref` attribute is a foreign key into the next kind's `id`,
/// and every `id` is a key.  Always consistent, and the number of kinds
/// controls the instance size.
pub fn reference_chain(dtd: &Dtd, kinds: usize) -> ConstraintSet {
    let mut sigma = ConstraintSet::new();
    for k in 0..kinds {
        let kind = dtd.type_by_name(&format!("kind{k}")).expect("kind exists");
        let id = dtd.attr_by_name(&format!("id{k}")).expect("id exists");
        sigma.push(Constraint::unary_key(kind, id));
    }
    for k in 0..kinds {
        let next = (k + 1) % kinds;
        let kind = dtd.type_by_name(&format!("kind{k}")).expect("kind exists");
        let refk = dtd.attr_by_name(&format!("ref{k}")).expect("ref exists");
        let target = dtd
            .type_by_name(&format!("kind{next}"))
            .expect("kind exists");
        let target_id = dtd.attr_by_name(&format!("id{next}")).expect("id exists");
        sigma.push(Constraint::unary_foreign_key(kind, refk, target, target_id));
    }
    sigma
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtd_gen::{catalogue_dtd, random_dtd, DtdGenConfig};
    use xic_constraints::ConstraintClass;

    #[test]
    fn generated_sets_are_well_formed_and_unary() {
        let dtd = random_dtd(&DtdGenConfig::default());
        let sigma = random_unary_constraints(
            &dtd,
            &ConstraintGenConfig {
                keys: 5,
                foreign_keys: 5,
                ..Default::default()
            },
        );
        assert!(sigma.validate(&dtd).is_ok());
        assert!(sigma.in_class(ConstraintClass::UnaryKeyForeignKey));
    }

    #[test]
    fn negations_move_the_class_up() {
        let dtd = random_dtd(&DtdGenConfig::default());
        let sigma = random_unary_constraints(
            &dtd,
            &ConstraintGenConfig {
                negated_keys: 2,
                negated_inclusions: 1,
                ..Default::default()
            },
        );
        assert!(sigma.validate(&dtd).is_ok());
        assert!(sigma.in_class(ConstraintClass::UnaryKeyNegInclusionNeg));
        assert!(!sigma.in_class(ConstraintClass::UnaryKeyForeignKey));
    }

    #[test]
    fn primary_key_restriction_is_respected() {
        let dtd = catalogue_dtd(6);
        let sigma = random_unary_constraints(
            &dtd,
            &ConstraintGenConfig {
                keys: 20,
                foreign_keys: 20,
                primary_keys_only: true,
                seed: 3,
                ..Default::default()
            },
        );
        assert!(sigma.satisfies_primary_key_restriction());
    }

    #[test]
    fn binary_sets_are_well_formed_and_two_attribute() {
        for dtd in [random_dtd(&DtdGenConfig::default()), catalogue_dtd(4)] {
            let sigma = random_binary_constraints(
                &dtd,
                &ConstraintGenConfig {
                    keys: 4,
                    foreign_keys: 4,
                    inclusions: 3,
                    negated_keys: 2,
                    negated_inclusions: 2,
                    seed: 5,
                    ..Default::default()
                },
            );
            assert_eq!(sigma.len(), 15);
            assert!(sigma.validate(&dtd).is_ok());
            for c in sigma.iter() {
                assert!(!c.is_unary(), "{}", c.render(&dtd));
                let key = c.key_part().map(|k| k.attrs);
                let inclusion = c.inclusion_part().map(|i| (i.from_attrs, i.to_attrs));
                for attrs in key
                    .into_iter()
                    .chain(inclusion.into_iter().flat_map(|(a, b)| [a, b]))
                {
                    assert_eq!(attrs.len(), 2);
                    assert_ne!(attrs[0], attrs[1]);
                }
            }
            assert!(sigma
                .iter()
                .any(|c| matches!(c, Constraint::NotInclusion(_))));
        }
    }

    #[test]
    fn binary_sets_need_two_attributes_on_a_type() {
        let dtd = crate::dtd_gen::recursive_list_dtd();
        let one_attr = crate::dtd_gen::fanout_dtd(2);
        assert!(!random_binary_constraints(&dtd, &ConstraintGenConfig::default()).is_empty());
        assert!(random_binary_constraints(&one_attr, &ConstraintGenConfig::default()).is_empty());
    }

    #[test]
    fn reference_chain_is_consistent_shape() {
        let dtd = catalogue_dtd(4);
        let sigma = reference_chain(&dtd, 4);
        assert_eq!(sigma.len(), 8);
        assert!(sigma.validate(&dtd).is_ok());
    }

    #[test]
    fn deterministic_per_seed() {
        let dtd = catalogue_dtd(4);
        let a = random_unary_constraints(&dtd, &ConstraintGenConfig::default());
        let b = random_unary_constraints(&dtd, &ConstraintGenConfig::default());
        assert_eq!(a.render(&dtd), b.render(&dtd));
    }
}
