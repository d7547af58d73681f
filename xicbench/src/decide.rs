//! `decide` — the paper's static questions: is (D,Σ) consistent, and does
//! it imply φ?
//!
//! A fixed mix of Figure 5 instances, decided with the default checker
//! configuration (witness synthesis on, as `xic check` runs them).  Each
//! round decides every instance once, in an order drawn from the seed; the
//! instances themselves are fixed, so every seed poses the same problems
//! and the verdicts are known.  Gates, on every decision: the verdict is
//! the expected one, every witness satisfies `T ⊨ D` and `T ⊨ Σ`, and
//! every counterexample satisfies Σ and violates φ.
//!
//! The traced run splits each decision with two probes on the same
//! (D, Σ′) — Σ′ = Σ ∪ {¬φ} for an implication: building Ψ(D,Σ′)
//! (`core.system`) and one ILP solve of it (`ilp.solve`, with the
//! solver's own branch-and-bound counts); the rest of the decision is
//! `core.witness` (realizability cuts, re-solves and witness synthesis).

use std::time::{Duration, Instant};

use xic_constraints::{check_document, example_sigma1, Constraint, ConstraintSet};
use xic_core::{CardinalitySystem, ConsistencyChecker, ImplicationChecker, SystemOptions};
use xic_dtd::{example_d1, Dtd};
use xic_engine::CompiledSpec;
use xic_gen::{
    fixed_dtd_growing_sigma, hard_lip_family, inconsistent_fanout_family, keys_only_family,
    negation_family, primary_key_family, unary_consistency_family, SpecInstance,
};
use xic_ilp::IlpSolver;
use xic_xml::{validate, XmlTree};

use crate::pace::Pacer;
use crate::stats::{self, setup_median, Rng};
use crate::{trace, Config, Outcome, Samples, Size};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Consistent,
    Inconsistent,
    Implied,
    NotImplied,
    Unknown,
}

struct Instance {
    label: String,
    dtd: Dtd,
    sigma: ConstraintSet,
    /// `Some(φ)` for an implication question.
    phi: Option<Constraint>,
    expected: Verdict,
}

impl Instance {
    fn consistency(spec: SpecInstance, expected: Verdict) -> Instance {
        Instance {
            label: spec.label,
            dtd: spec.dtd,
            sigma: spec.sigma,
            phi: None,
            expected,
        }
    }

    /// The constraint set whose Ψ the decision solves.
    fn solved_sigma(&self) -> ConstraintSet {
        match self.phi.as_ref().and_then(Constraint::negated) {
            Some(negated) => self.sigma.with(negated),
            None => self.sigma.clone(),
        }
    }
}

/// D1's teachers and subjects: `teacher.name` is a key and
/// `subject.taught_by` references it; is `subject.taught_by` a key too?
fn d1_implication() -> Instance {
    let d1 = example_d1();
    let teacher = d1.type_by_name("teacher").expect("D1 has teacher");
    let subject = d1.type_by_name("subject").expect("D1 has subject");
    let name = d1.attr_by_name("name").expect("D1 has name");
    let taught_by = d1.attr_by_name("taught_by").expect("D1 has taught_by");
    let sigma = ConstraintSet::from_vec(vec![
        Constraint::unary_key(teacher, name),
        Constraint::unary_foreign_key(subject, taught_by, teacher, name),
    ]);
    Instance {
        label: "implication D1 K+FK".to_string(),
        phi: Some(Constraint::unary_key(subject, taught_by)),
        dtd: d1,
        sigma,
        expected: Verdict::NotImplied,
    }
}

/// The Figure 5 mix, with the verdicts the paper's procedures give.
fn instances(size: Size) -> Vec<Instance> {
    use Verdict::*;
    let d1 = example_d1();
    let sigma1 = example_sigma1(&d1);
    let mut mix = vec![
        Instance {
            label: "D1/Sigma1".to_string(),
            dtd: d1,
            sigma: sigma1,
            phi: None,
            expected: Inconsistent,
        },
        d1_implication(),
    ];
    let first = |family: Vec<SpecInstance>| family.into_iter().next().expect("one member");
    match size {
        Size::Full => {
            mix.push(Instance::consistency(
                first(unary_consistency_family(&[8])),
                Consistent,
            ));
            mix.push(Instance::consistency(
                first(fixed_dtd_growing_sigma(6, &[32], 5)),
                Consistent,
            ));
            mix.push(Instance::consistency(
                first(primary_key_family(&[8], 17)),
                Consistent,
            ));
            mix.push(Instance::consistency(
                first(inconsistent_fanout_family(&[8])),
                Inconsistent,
            ));
            mix.push(Instance::consistency(
                first(negation_family(&[3], 29)),
                Inconsistent,
            ));
            mix.push(Instance::consistency(
                first(keys_only_family(&[8], 17)),
                Consistent,
            ));
            let (label, lip) = hard_lip_family(&[(4, 6)], 20260614)
                .into_iter()
                .next()
                .expect("one member");
            mix.push(Instance {
                label,
                dtd: lip.dtd,
                sigma: lip.sigma,
                phi: None,
                expected: Consistent,
            });
        }
        Size::Tiny => {
            mix.push(Instance::consistency(
                first(unary_consistency_family(&[3])),
                Consistent,
            ));
            mix.push(Instance::consistency(
                first(inconsistent_fanout_family(&[3])),
                Inconsistent,
            ));
        }
    }
    mix
}

/// The tail quantile: a run makes a few hundred decisions, so p95 is the
/// highest with ten or more samples beyond it.
const TAIL: f64 = 0.95;

struct Decider {
    consistency: ConsistencyChecker,
    implication: ImplicationChecker,
}

/// One decision: its verdict and the document it carries, if any, plus
/// the decision's span.
type Decision = (Result<(Verdict, Option<XmlTree>), String>, Option<usize>);

fn decide(d: &Decider, inst: &Instance) -> Decision {
    match &inst.phi {
        None => {
            let span = trace::span("core.check");
            let outcome = d.consistency.check(&inst.dtd, &inst.sigma);
            let id = span.close();
            let result = outcome.map_err(|e| e.to_string()).map(|outcome| {
                let verdict = if outcome.is_consistent() {
                    Verdict::Consistent
                } else if outcome.is_inconsistent() {
                    Verdict::Inconsistent
                } else {
                    Verdict::Unknown
                };
                (verdict, outcome.witness().cloned())
            });
            (result, id)
        }
        Some(phi) => {
            let span = trace::span("core.implies");
            let outcome = d.implication.implies(&inst.dtd, &inst.sigma, phi);
            let id = span.close();
            let result = outcome.map_err(|e| e.to_string()).map(|outcome| {
                let verdict = if outcome.is_implied() {
                    Verdict::Implied
                } else if outcome.is_not_implied() {
                    Verdict::NotImplied
                } else {
                    Verdict::Unknown
                };
                (verdict, outcome.counterexample().cloned())
            });
            (result, id)
        }
    }
}

/// Checks a decision against its instance; `None` when it holds.
fn verify(
    inst: &Instance,
    expected: Verdict,
    verdict: Verdict,
    doc: Option<&XmlTree>,
) -> Option<String> {
    if verdict != expected {
        return Some(format!(
            "{}: verdict {verdict:?}, expected {expected:?}",
            inst.label
        ));
    }
    if matches!(verdict, Verdict::Consistent | Verdict::NotImplied) {
        let Some(tree) = doc else {
            return Some(format!("{}: {verdict:?} without a document", inst.label));
        };
        let structural = validate(tree, &inst.dtd);
        if !structural.is_empty() {
            return Some(format!(
                "{}: document fails T ⊨ D: {}",
                inst.label, structural[0]
            ));
        }
        let violations = check_document(&inst.dtd, tree, &inst.sigma);
        if !violations.is_empty() {
            return Some(format!(
                "{}: document violates Σ: {}",
                inst.label, violations[0]
            ));
        }
        if let Some(phi) = &inst.phi {
            let only_phi = ConstraintSet::from_vec(vec![phi.clone()]);
            if check_document(&inst.dtd, tree, &only_phi).is_empty() {
                return Some(format!("{}: counterexample satisfies φ", inst.label));
            }
        }
    }
    None
}

/// Traced-phase measurements from the probes.
#[derive(Default)]
struct Probe {
    decisions: u64,
    system_ns: u64,
    solve_ns: u64,
    witness_ns: u64,
    nodes: u64,
    lp_calls: u64,
    pruned: u64,
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mix = instances(cfg.size);
    let mut expected: Vec<Verdict> = mix.iter().map(|i| i.expected).collect();
    if cfg.corrupt_oracle {
        expected[0] = match expected[0] {
            Verdict::Inconsistent => Verdict::Consistent,
            _ => Verdict::Inconsistent,
        };
    }

    // Set-up: compile every instance as `xic check` does before deciding.
    let mut pacer = Pacer::new(!cfg.trace, false).map_err(|e| format!("pacer: {e}"))?;
    let (setup_s, ()) = setup_median(&mut pacer, || {
        for inst in &mix {
            std::hint::black_box(
                CompiledSpec::compile(inst.dtd.clone(), inst.sigma.clone())
                    .map(|spec| spec.sigma().len())
                    .ok(),
            );
        }
    });
    let decider = Decider {
        consistency: ConsistencyChecker::new(),
        implication: ImplicationChecker::new(),
    };

    let mut out = Outcome::default();
    let labels: Vec<String> = mix.iter().map(|i| crate::json::quote(&i.label)).collect();
    out.shape
        .push(("instances", format!("[{}]", labels.join(", "))));
    out.shape(
        "constraints",
        mix.iter().map(|i| i.sigma.len()).sum::<usize>(),
    );
    out.shape("dtd_types", mix.iter().map(|i| i.dtd.size()).sum::<usize>());

    let mut rng = Rng::new(Rng::derive(cfg.seed, 5));
    let mut order: Vec<usize> = (0..mix.len()).collect();
    let mut probe = Probe::default();
    let mut round = |phase: Duration, traced: bool, out: &mut Outcome, probe: &mut Probe| {
        let start = Instant::now();
        let mut samples = Samples::default();
        loop {
            rng.shuffle(&mut order);
            for &i in &order {
                let inst = &mix[i];
                let factor = pacer.tick();
                let op = trace::span("bench.decide");
                let t = Instant::now();
                let (result, decision) = decide(&decider, inst);
                samples.push(t.elapsed().as_nanos() as f64 / 1e3, factor);
                drop(op);
                out.attempted += 1;
                let failure = match &result {
                    Ok((verdict, doc)) => verify(inst, expected[i], *verdict, doc.as_ref()),
                    Err(e) => Some(format!("{}: {e}", inst.label)),
                };
                if let Some(failure) = failure {
                    out.failed += 1;
                    out.failures.push(failure);
                }
                if traced {
                    probe_decision(inst, decision, probe);
                }
            }
            if start.elapsed() >= phase {
                return samples;
            }
        }
    };
    // One untimed round warms every path up.
    round(Duration::ZERO, false, &mut out, &mut probe);
    out.warmed_up();
    let (untraced, traced) = cfg.phases();
    let samples = round(untraced, false, &mut out, &mut probe);
    if !cfg.trace {
        let busy = samples.ref_busy_s();
        out.end_to_end(&samples, samples.len(), busy, setup_s, TAIL, &pacer);
        return Ok(out);
    }
    trace::start();
    let traced_samples = round(traced, true, &mut out, &mut probe);
    let spans = trace::finish();
    let n = probe.decisions.max(1) as f64;
    out.metric("core.system_us", stats::us(probe.system_ns) / n);
    out.metric("ilp.solve_ms", probe.solve_ns as f64 / 1e6 / n);
    out.metric("core.witness_ms", probe.witness_ns as f64 / 1e6 / n);
    out.metric("ilp.bb_nodes", probe.nodes as f64 / n);
    out.metric("ilp.lp_calls", probe.lp_calls as f64 / n);
    out.metric("ilp.pruned_infeasible", probe.pruned as f64 / n);
    out.trace_rows(
        cfg,
        &spans,
        traced_samples.len(),
        stats::mean(&samples.raw_us),
    );
    Ok(out)
}

/// Times Ψ(D,Σ′) construction and one solve of it outside the decision,
/// and attributes the decision span's time to system, solve and witness.
fn probe_decision(inst: &Instance, decision: Option<usize>, probe: &mut Probe) {
    let _probe = trace::span("probe.system_solve");
    let sigma = inst.solved_sigma();
    let t = Instant::now();
    let Ok(system) = CardinalitySystem::build(&inst.dtd, &sigma, &SystemOptions::default()) else {
        return;
    };
    let system_ns = t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    let (_, stats) = IlpSolver::new().solve_with_stats(system.program());
    let solve_ns = t.elapsed().as_nanos() as u64;
    let decision_ns = trace::self_ns(decision);
    let system_ns = system_ns.min(decision_ns);
    let solve_ns = solve_ns.min(decision_ns - system_ns);
    trace::derive(decision, "core.system", system_ns);
    trace::derive(decision, "ilp.solve", solve_ns);
    trace::derive(decision, "core.witness", decision_ns - system_ns - solve_ns);
    probe.decisions += 1;
    probe.system_ns += system_ns;
    probe.solve_ns += solve_ns;
    probe.witness_ns += decision_ns - system_ns - solve_ns;
    probe.nodes += stats.nodes as u64;
    probe.lp_calls += stats.lp_calls as u64;
    probe.pruned += stats.pruned_infeasible as u64;
}
