//! Witness synthesis: from an integer solution of Ψ(D,Σ) to an actual XML
//! tree that conforms to the DTD and satisfies Σ.
//!
//! This is the constructive content of Lemmas 4.4–4.6 (and Lemma 5.2 for the
//! negated-inclusion case): the solution fixes `|ext(τ)|` for every simple
//! type and the number of children per occurrence position; nodes are
//! materialised top-down from the root, consuming the occurrence budgets, and
//! attribute values are chosen so that keys are injective, inclusion
//! constraints hold by prefix-nesting of value pools (or by the set-atom
//! value sets when negated inclusions are present), negated keys get a
//! genuine clash and negated inclusions a genuine dangling value.
//!
//! ## Realizability
//!
//! The cardinality system constrains *counts*, and a count vector can fail to
//! be realizable as a tree when a recursive component is populated without
//! any occurrence connecting it to the root (a "floating cycle"; see
//! [`floating_components`]).  The top-down expansion only ever creates nodes reachable from
//! the root, so after expansion any unconsumed budget reveals exactly this
//! situation and the synthesizer reports [`WitnessError::NotRealizable`]; the
//! consistency checker then adds a connectivity cut and re-solves.  Every
//! tree actually returned is guaranteed — and verified in tests — to satisfy
//! `T ⊨ D` and `T ⊨ Σ`.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use xic_constraints::ConstraintSet;
use xic_dtd::{AttrId, Dtd, ElemId, SimpleDtd, SimpleId, SimpleRule};
use xic_ilp::{Assignment, IntegerProgram};
use xic_telemetry::Counter;
use xic_xml::{NodeId, XmlTree};

use crate::system::{CardinalitySystem, Origin};

/// Errors raised during witness synthesis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WitnessError {
    /// The solution's counts cannot be wired into a single tree: the listed
    /// simple types have nodes that no chain of children connects to the
    /// root.
    NotRealizable {
        /// The floating simple types.
        floating_types: Vec<SimpleId>,
    },
    /// The solution assigns a count that does not fit in `u64` (practically
    /// impossible for solver-produced solutions; guarded for robustness).
    CountOverflow(String),
}

impl std::fmt::Display for WitnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WitnessError::NotRealizable { floating_types } => write!(
                f,
                "solution is not realizable as a tree: {} type(s) form a floating component",
                floating_types.len()
            ),
            WitnessError::CountOverflow(name) => {
                write!(f, "count of `{name}` does not fit in u64")
            }
        }
    }
}

impl std::error::Error for WitnessError {}

/// Per-slot child budgets extracted from the occurrence variables.
struct Budgets {
    /// `(parent type, position) → (child type, remaining budget)`.
    slots: HashMap<(SimpleId, u8), (SimpleId, u64)>,
    /// Nodes created so far, per simple type.
    created: Vec<u64>,
    /// Target counts, per simple type.
    target: Vec<u64>,
}

impl Budgets {
    fn take(&mut self, parent: SimpleId, position: u8) -> Option<SimpleId> {
        let (child, remaining) = self.slots.get_mut(&(parent, position))?;
        if *remaining == 0 {
            return None;
        }
        *remaining -= 1;
        let child = *child;
        self.created[child.index()] += 1;
        Some(child)
    }

    fn remaining(&self, parent: SimpleId, position: u8) -> u64 {
        self.slots
            .get(&(parent, position))
            .map(|&(_, r)| r)
            .unwrap_or(0)
    }
}

/// Synthesizes an XML tree from a satisfying assignment of the cardinality
/// system.
pub fn synthesize(
    dtd: &Dtd,
    sigma: &ConstraintSet,
    system: &CardinalitySystem,
    assignment: &Assignment,
) -> Result<XmlTree, WitnessError> {
    let simple = system.simple();

    // Target counts per simple type.
    let mut target = Vec::with_capacity(simple.num_types());
    for ty in simple.types() {
        let v = assignment
            .get_u64(system.ext_var_simple(ty))
            .ok_or_else(|| WitnessError::CountOverflow(simple.name(ty).to_string()))?;
        target.push(v);
    }

    // Occurrence budgets per (parent, position).
    let mut slots: HashMap<(SimpleId, u8), (SimpleId, u64)> = HashMap::new();
    for occ in system.occurrences() {
        let n = assignment.get_u64(occ.var).ok_or_else(|| {
            WitnessError::CountOverflow(format!(
                "occurrence of {} under {}",
                simple.name(occ.child),
                simple.name(occ.parent)
            ))
        })?;
        slots.insert((occ.parent, occ.position), (occ.child, n));
    }
    let mut created = vec![0u64; simple.num_types()];
    created[simple.root().index()] = 1;
    let mut budgets = Budgets {
        slots,
        created,
        target,
    };

    // Expand top-down, in document order, splicing synthetic types in place.
    let root_original = simple
        .original(simple.root())
        .expect("the root of the simplified DTD is an original type");
    let mut tree = XmlTree::new(root_original);
    let xml_root = tree.root();
    expand(simple, &mut budgets, &mut tree, simple.root(), xml_root)?;

    // Any unconsumed budget / uncreated node is a floating component.
    let floating: Vec<SimpleId> = simple
        .types()
        .filter(|ty| budgets.created[ty.index()] != budgets.target[ty.index()])
        .collect();
    if !floating.is_empty() {
        return Err(WitnessError::NotRealizable {
            floating_types: floating,
        });
    }

    assign_attribute_values(dtd, sigma, system, assignment, &mut tree)?;
    Ok(tree)
}

/// Expands one abstract node: creates its children per the simplified rule,
/// consuming budgets, and recurses.  `xml_parent` is the XML element the
/// children should be attached to (the nearest *original* ancestor).
fn expand(
    simple: &SimpleDtd,
    budgets: &mut Budgets,
    tree: &mut XmlTree,
    ty: SimpleId,
    xml_parent: NodeId,
) -> Result<(), WitnessError> {
    let attach = |tree: &mut XmlTree, child: SimpleId| -> (SimpleId, NodeId) {
        match simple.original(child) {
            Some(original) => (child, tree.add_element(xml_parent, original)),
            None => (child, xml_parent),
        }
    };

    match simple.rule(ty) {
        SimpleRule::Epsilon => Ok(()),
        SimpleRule::Text => {
            tree.add_text(xml_parent, "text");
            Ok(())
        }
        SimpleRule::One(_) => {
            let child = budgets
                .take(ty, 1)
                .ok_or_else(|| WitnessError::NotRealizable {
                    floating_types: vec![ty],
                })?;
            let (child, xml) = attach(tree, child);
            expand(simple, budgets, tree, child, xml)
        }
        SimpleRule::Seq(_, _) => {
            let first = budgets
                .take(ty, 1)
                .ok_or_else(|| WitnessError::NotRealizable {
                    floating_types: vec![ty],
                })?;
            let (first, xml1) = attach(tree, first);
            expand(simple, budgets, tree, first, xml1)?;
            let second = budgets
                .take(ty, 2)
                .ok_or_else(|| WitnessError::NotRealizable {
                    floating_types: vec![ty],
                })?;
            let (second, xml2) = attach(tree, second);
            expand(simple, budgets, tree, second, xml2)
        }
        SimpleRule::Alt(_, _) => {
            let position = choose_alt_branch(simple, budgets, ty);
            let child = budgets
                .take(ty, position)
                .ok_or_else(|| WitnessError::NotRealizable {
                    floating_types: vec![ty],
                })?;
            let (child, xml) = attach(tree, child);
            expand(simple, budgets, tree, child, xml)
        }
    }
}

/// Chooses which branch of a union rule to expand next.
///
/// Both branches have fixed budgets from the solution; the totals always work
/// out, but expanding a "terminating" branch too early can strand budget that
/// only a recursive branch could have consumed (e.g. ending a `α*` repetition
/// chain before all required repetitions were produced).  The heuristic
/// prefers, among branches with remaining budget, the one from whose child
/// more still-needed types are reachable in the rule graph; ties go to the
/// second (recursive, in the `α*` encoding) branch.
fn choose_alt_branch(simple: &SimpleDtd, budgets: &Budgets, ty: SimpleId) -> u8 {
    let candidates: Vec<u8> = [2u8, 1u8]
        .into_iter()
        .filter(|&p| budgets.remaining(ty, p) > 0)
        .collect();
    match candidates.len() {
        0 => 2,
        1 => candidates[0],
        _ => {
            let child_of = |p: u8| budgets.slots[&(ty, p)].0;
            let score = |p: u8| {
                let mut seen = vec![false; simple.num_types()];
                let mut stack = vec![child_of(p)];
                let mut needy = 0usize;
                while let Some(t) = stack.pop() {
                    if seen[t.index()] {
                        continue;
                    }
                    seen[t.index()] = true;
                    if budgets.created[t.index()] < budgets.target[t.index()] {
                        needy += 1;
                    }
                    match simple.rule(t) {
                        SimpleRule::Epsilon | SimpleRule::Text => {}
                        SimpleRule::One(a) => stack.push(a),
                        SimpleRule::Seq(a, b) | SimpleRule::Alt(a, b) => {
                            stack.push(a);
                            stack.push(b);
                        }
                    }
                }
                needy
            };
            // candidates = [2, 1]; keep 2 on ties.
            if score(1) > score(2) {
                1
            } else {
                2
            }
        }
    }
}

/// Solves `program` once and adds the search counters to the process-wide
/// registry as `ilp.bb_nodes`, `ilp.lp_calls`, `ilp.pivots`,
/// `ilp.promotions`, `ilp.presolve_rows_removed` and
/// `ilp.presolve_vars_removed`.
fn solve_published(
    solver: &xic_ilp::IlpSolver,
    program: &IntegerProgram<Origin>,
) -> (xic_ilp::SolveOutcome, xic_ilp::SolveStats) {
    static COUNTERS: OnceLock<[Arc<Counter>; 6]> = OnceLock::new();
    let [nodes, lp_calls, pivots, promotions, rows_removed, vars_removed] =
        COUNTERS.get_or_init(|| {
            let telemetry = xic_telemetry::global();
            [
                "ilp.bb_nodes",
                "ilp.lp_calls",
                "ilp.pivots",
                "ilp.promotions",
                "ilp.presolve_rows_removed",
                "ilp.presolve_vars_removed",
            ]
            .map(|name| telemetry.counter(name))
        });
    let (outcome, stats) = solver.solve_with_stats(program);
    nodes.add(stats.nodes as u64);
    lp_calls.add(stats.lp_calls as u64);
    pivots.add(stats.pivots as u64);
    promotions.add(stats.promotions);
    rows_removed.add(stats.presolve_rows_removed as u64);
    vars_removed.add(stats.presolve_vars_removed as u64);
    (outcome, stats)
}

/// Outcome of [`solve_and_witness`].
#[derive(Debug, Clone)]
pub enum WitnessOutcome {
    /// A tree was synthesized (and the system is therefore consistent).
    Tree(XmlTree),
    /// The system is integer-infeasible — the specification is inconsistent.
    /// This can also be discovered *after* realizability cuts were added, in
    /// which case every solution of the raw paper encoding was a floating
    /// artefact and the cuts sharpened the answer.
    Infeasible,
    /// The search gave up (solver node limit or too many repair rounds).
    Unknown(String),
}

/// Solves the cardinality system and synthesizes a witness tree, adding
/// connectivity ("realizability") cuts and re-solving when a solution's
/// counts cannot be wired into a tree.
///
/// The cut for a floating set `S` of simple types (never containing the
/// root) is the universally valid implication
/// `Σ_{τ∈S} |ext(τ)| > 0  →  Σ incoming occurrences into S > 0`,
/// expressed with two fresh aggregate variables and one conditional
/// constraint (see `CardinalitySystem::add_connectivity_cut`).  The loop
/// reads `system` in place and copies it only when the first cut is added.
pub fn solve_and_witness(
    dtd: &Dtd,
    sigma: &ConstraintSet,
    system: &CardinalitySystem,
    solver: &xic_ilp::IlpSolver,
    max_repair_rounds: usize,
) -> WitnessOutcome {
    let _span = xic_telemetry::global().span("core.witness");
    let mut working = Cow::Borrowed(system);
    for _round in 0..=max_repair_rounds {
        let (outcome, _) = solve_published(solver, working.program());
        let assignment = match outcome {
            xic_ilp::SolveOutcome::Infeasible => return WitnessOutcome::Infeasible,
            xic_ilp::SolveOutcome::Unknown(reason) => return WitnessOutcome::Unknown(reason),
            xic_ilp::SolveOutcome::Feasible(a) => a,
        };
        // The assignment covers the original variables even after cuts added
        // fresh aggregate variables (cuts only append).
        match synthesize(dtd, sigma, &working, &assignment) {
            Ok(tree) => return WitnessOutcome::Tree(tree),
            Err(WitnessError::NotRealizable { floating_types }) => {
                // The expansion's mismatch set over-approximates: it can
                // include a type that is only short-changed by the greedy
                // expansion (e.g. an ε-type with one instance inside the
                // floating component and another, connected one elsewhere).
                // Such a type has positive-count occurrences entering the
                // set from connected territory, so a cut over the mismatch
                // set is already satisfied by this very solution and the
                // loop would re-find it forever.  Cut over the genuinely
                // disconnected types instead.
                let genuine = floating_components(&working, &assignment);
                if genuine.is_empty() {
                    return WitnessOutcome::Unknown(format!(
                        "count vector is connected but expansion failed to realize it \
                         (mismatched types: {})",
                        floating_types
                            .iter()
                            .map(|&ty| working.simple().name(ty).to_string())
                            .collect::<Vec<_>>()
                            .join(", ")
                    ));
                }
                working.to_mut().add_connectivity_cut(&genuine);
            }
            Err(other) => return WitnessOutcome::Unknown(other.to_string()),
        }
    }
    WitnessOutcome::Unknown(format!(
        "witness synthesis did not converge after {max_repair_rounds} realizability cuts"
    ))
}

/// The simple types whose counts a solution populates without connecting
/// them to the root.
///
/// The cardinality system constrains counts only, so a solution may populate
/// a recursive component of the DTD without any occurrence edge linking it to
/// the root ("floating cycle").  A count vector is realizable as a tree
/// exactly when every positive type is reachable from the root along
/// occurrence edges with positive count — this is the same connectivity
/// condition that characterizes Parikh images of context-free grammars.  The
/// returned list is empty iff the solution is realizable.
pub fn floating_components(system: &CardinalitySystem, assignment: &Assignment) -> Vec<SimpleId> {
    let simple = system.simple();
    let positive = |ty: SimpleId| {
        assignment
            .get_u64(system.ext_var_simple(ty))
            .map(|v| v > 0)
            .unwrap_or(true)
    };
    let mut reached = vec![false; simple.num_types()];
    reached[simple.root().index()] = true;
    let mut stack = vec![simple.root()];
    while let Some(ty) = stack.pop() {
        for occ in system.occurrences_under(ty) {
            if reached[occ.child.index()] {
                continue;
            }
            let used = assignment.get_u64(occ.var).map(|v| v > 0).unwrap_or(true);
            if used {
                reached[occ.child.index()] = true;
                stack.push(occ.child);
            }
        }
    }
    simple
        .types()
        .filter(|&ty| positive(ty) && !reached[ty.index()])
        .collect()
}

/// Outcome of [`solve_counts`].
#[derive(Debug, Clone)]
pub enum CountsOutcome {
    /// A count vector that is realizable as an XML tree was found.
    Realizable(Assignment),
    /// The system (with connectivity cuts) has no non-negative integer
    /// solution — the specification is inconsistent.
    Infeasible,
    /// The search gave up (solver node limit or too many repair rounds).
    Unknown(String),
}

/// Solves the cardinality system for a *realizable* count vector without
/// building a witness document.
///
/// This is the sound counterpart of raw ILP feasibility: the paper's system
/// Ψ(D,Σ) admits spurious "floating cycle" solutions on recursive DTDs (see
/// [`floating_components`]), so feasibility of the raw system alone is not
/// sufficient for consistency.  Like [`solve_and_witness`], this routine adds
/// connectivity cuts and re-solves until the solution is realizable, the
/// system becomes infeasible, or the repair budget runs out.  Like it, it
/// copies `system` only when the first cut is added.
pub fn solve_counts(
    system: &CardinalitySystem,
    solver: &xic_ilp::IlpSolver,
    max_repair_rounds: usize,
) -> (CountsOutcome, xic_ilp::SolveStats) {
    let mut working = Cow::Borrowed(system);
    let mut total = xic_ilp::SolveStats::default();
    for _round in 0..=max_repair_rounds {
        let (outcome, stats) = solve_published(solver, working.program());
        total.nodes += stats.nodes;
        total.lp_calls += stats.lp_calls;
        total.pruned_infeasible += stats.pruned_infeasible;
        total.pivots += stats.pivots;
        total.promotions += stats.promotions;
        total.presolve_rows_removed += stats.presolve_rows_removed;
        total.presolve_vars_removed += stats.presolve_vars_removed;
        total.presolve_conditionals_kept += stats.presolve_conditionals_kept;
        let assignment = match outcome {
            xic_ilp::SolveOutcome::Infeasible => return (CountsOutcome::Infeasible, total),
            xic_ilp::SolveOutcome::Unknown(reason) => {
                return (CountsOutcome::Unknown(reason), total)
            }
            xic_ilp::SolveOutcome::Feasible(a) => a,
        };
        let floating = floating_components(&working, &assignment);
        if floating.is_empty() {
            return (CountsOutcome::Realizable(assignment), total);
        }
        working.to_mut().add_connectivity_cut(&floating);
    }
    (
        CountsOutcome::Unknown(format!(
            "consistency check did not converge after {max_repair_rounds} connectivity cuts"
        )),
        total,
    )
}

/// Chooses attribute values so that every constraint in Σ holds.
fn assign_attribute_values(
    dtd: &Dtd,
    sigma: &ConstraintSet,
    system: &CardinalitySystem,
    assignment: &Assignment,
    tree: &mut XmlTree,
) -> Result<(), WitnessError> {
    // Value sets for slots participating in the set-atom encoding
    // (Theorem 5.1): the atoms partition a universe of fresh values and each
    // slot's value set is the union of the atoms containing it.
    let mut atom_values: HashMap<(ElemId, AttrId), Vec<String>> = HashMap::new();
    for (i, &(ty, attr)) in system.atom_slots().iter().enumerate() {
        let mut values = Vec::new();
        for &(mask, var) in system.atom_vars() {
            if mask & (1 << i) == 0 {
                continue;
            }
            let z = assignment
                .get_u64(var)
                .ok_or_else(|| WitnessError::CountOverflow(format!("atom {mask:b}")))?;
            for k in 0..z {
                values.push(format!("set{mask}_{k}"));
            }
        }
        atom_values.insert((ty, attr), values);
    }

    // `sigma` is only consulted through the cardinality system (keys force
    // |ext(τ.l)| = |ext(τ)|, which the prefix scheme below turns into
    // injectivity), so the parameter is kept for future diagnostics.
    let _ = sigma;

    for ty in dtd.types() {
        let nodes: Vec<_> = tree.ext(ty).collect();
        if nodes.is_empty() {
            continue;
        }
        for &attr in dtd.attrs_of(ty) {
            let Some(attr_var) = system.attr_var(ty, attr) else {
                continue;
            };
            let distinct = assignment.get_u64(attr_var).ok_or_else(|| {
                WitnessError::CountOverflow(format!(
                    "|ext({}.{})|",
                    dtd.type_name(ty),
                    dtd.attr_name(attr)
                ))
            })? as usize;
            // Slots in the atom encoding draw from their set-representation
            // values; all other slots draw from a shared prefix-nested pool
            // v0, v1, … so that |ext(τ1.l1)| ≤ |ext(τ2.l2)| implies set
            // inclusion of the used values.
            let values: Vec<String> = match atom_values.get(&(ty, attr)) {
                Some(vs) if !vs.is_empty() => vs.clone(),
                Some(_) => vec!["v0".to_string()],
                None => (0..distinct.max(1)).map(|k| format!("v{k}")).collect(),
            };
            for (j, &node) in nodes.iter().enumerate() {
                let idx = j.min(values.len() - 1);
                tree.set_attr(node, attr, &values[idx]);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemOptions;
    use xic_constraints::{check_document, Constraint};
    use xic_dtd::{example_d1, example_d3, ContentModel};
    use xic_ilp::IlpSolver;
    use xic_xml::validate;

    fn solve_and_synthesize(dtd: &Dtd, sigma: &ConstraintSet) -> XmlTree {
        let sys = CardinalitySystem::build(dtd, sigma, &SystemOptions::default()).unwrap();
        match solve_and_witness(dtd, sigma, &sys, &IlpSolver::new(), 16) {
            WitnessOutcome::Tree(t) => t,
            other => panic!("expected a witness, got {other:?}"),
        }
    }

    #[test]
    fn solves_publish_search_counters_globally() {
        let probe = xic_telemetry::MetricsRegistry::new().counter("probe");
        probe.inc();
        if probe.get() == 0 {
            return; // instruments compiled out
        }
        let counter = |name: &str| xic_telemetry::global().counter(name).get();
        let before = ["ilp.bb_nodes", "ilp.lp_calls", "ilp.pivots"].map(counter);
        let d1 = example_d1();
        let sys = CardinalitySystem::build(&d1, &ConstraintSet::new(), &SystemOptions::default())
            .unwrap();
        let (outcome, stats) = solve_counts(&sys, &IlpSolver::new(), 16);
        assert!(matches!(outcome, CountsOutcome::Realizable(_)));
        assert!(stats.pivots > 0);
        let after = ["ilp.bb_nodes", "ilp.lp_calls", "ilp.pivots"].map(counter);
        // Other tests solve concurrently, so only lower bounds hold.
        assert!(after[0] - before[0] >= stats.nodes as u64);
        assert!(after[1] - before[1] >= stats.lp_calls as u64);
        assert!(after[2] - before[2] >= stats.pivots as u64);
    }

    #[test]
    fn witness_for_d1_without_constraints_validates() {
        let d1 = example_d1();
        let sigma = ConstraintSet::new();
        let tree = solve_and_synthesize(&d1, &sigma);
        let errors = validate(&tree, &d1);
        assert!(errors.is_empty(), "{errors:?}");
        // teacher+ means at least one teacher, each with exactly 2 subjects.
        let teacher = d1.type_by_name("teacher").unwrap();
        let subject = d1.type_by_name("subject").unwrap();
        assert!(tree.ext_count(teacher) >= 1);
        assert_eq!(tree.ext_count(subject), 2 * tree.ext_count(teacher));
    }

    #[test]
    fn witness_satisfies_unary_keys_and_foreign_keys() {
        let d1 = example_d1();
        let teacher = d1.type_by_name("teacher").unwrap();
        let subject = d1.type_by_name("subject").unwrap();
        let name = d1.attr_by_name("name").unwrap();
        let taught_by = d1.attr_by_name("taught_by").unwrap();
        // Σ1 without the subject key (that full set is inconsistent).
        let sigma = ConstraintSet::from_vec(vec![
            Constraint::unary_key(teacher, name),
            Constraint::unary_foreign_key(subject, taught_by, teacher, name),
        ]);
        let tree = solve_and_synthesize(&d1, &sigma);
        assert!(validate(&tree, &d1).is_empty());
        let violations = check_document(&d1, &tree, &sigma);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn witness_with_negated_key_has_a_clash() {
        let d1 = example_d1();
        let teacher = d1.type_by_name("teacher").unwrap();
        let name = d1.attr_by_name("name").unwrap();
        let sigma = ConstraintSet::from_vec(vec![Constraint::not_unary_key(teacher, name)]);
        let tree = solve_and_synthesize(&d1, &sigma);
        assert!(validate(&tree, &d1).is_empty());
        let violations = check_document(&d1, &tree, &sigma);
        assert!(violations.is_empty(), "{violations:?}");
        assert!(tree.ext_count(teacher) >= 2);
        assert!(tree.ext_attr(teacher, name).len() < tree.ext_count(teacher));
    }

    #[test]
    fn witness_with_negated_inclusion_has_a_dangling_value() {
        let d1 = example_d1();
        let teacher = d1.type_by_name("teacher").unwrap();
        let subject = d1.type_by_name("subject").unwrap();
        let name = d1.attr_by_name("name").unwrap();
        let taught_by = d1.attr_by_name("taught_by").unwrap();
        let sigma = ConstraintSet::from_vec(vec![Constraint::not_unary_inclusion(
            subject, taught_by, teacher, name,
        )]);
        let tree = solve_and_synthesize(&d1, &sigma);
        assert!(validate(&tree, &d1).is_empty());
        let violations = check_document(&d1, &tree, &sigma);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn witness_for_d3_with_star_children() {
        let d3 = example_d3();
        let sigma = ConstraintSet::new();
        let tree = solve_and_synthesize(&d3, &sigma);
        assert!(validate(&tree, &d3).is_empty());
    }

    #[test]
    fn mixed_positive_and_negative_constraints() {
        let d1 = example_d1();
        let teacher = d1.type_by_name("teacher").unwrap();
        let subject = d1.type_by_name("subject").unwrap();
        let name = d1.attr_by_name("name").unwrap();
        let taught_by = d1.attr_by_name("taught_by").unwrap();
        let sigma = ConstraintSet::from_vec(vec![
            Constraint::unary_key(teacher, name),
            Constraint::unary_inclusion(subject, taught_by, teacher, name),
            Constraint::not_unary_key(subject, taught_by),
        ]);
        let tree = solve_and_synthesize(&d1, &sigma);
        assert!(validate(&tree, &d1).is_empty());
        let violations = check_document(&d1, &tree, &sigma);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn recursive_dtd_witness_is_a_chain() {
        // r → a?, a → a?: with a negated key on a the solution needs at least
        // two a nodes, realised as a chain under the root.
        let mut b = Dtd::builder();
        let r = b.elem("r");
        let a = b.elem("a");
        b.content(r, ContentModel::opt(ContentModel::Element(a)));
        b.content(a, ContentModel::opt(ContentModel::Element(a)));
        let k = b.attr(a, "k");
        let dtd = b.build("r").unwrap();
        let sigma = ConstraintSet::from_vec(vec![Constraint::not_unary_key(a, k)]);
        let tree = solve_and_synthesize(&dtd, &sigma);
        assert!(validate(&tree, &dtd).is_empty());
        assert!(tree.ext_count(a) >= 2);
        let violations = check_document(&dtd, &tree, &sigma);
        assert!(violations.is_empty(), "{violations:?}");
    }
}
