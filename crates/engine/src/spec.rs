//! Compiled specifications: parse and analyze `(D, Σ)` once, check many.

use std::fmt;
use std::sync::Arc;

use xic_constraints::{
    parse_constraint_set, ConstraintClass, ConstraintSet, IncrementalIndex, IncrementalLayout,
    ShardPlan, Violation,
};
use xic_core::{
    CardinalitySystem, CheckerConfig, ConsistencyChecker, ConsistencyOutcome, ImplicationChecker,
    ImplicationOutcome, SpecError,
};
use xic_dtd::{analyze, parse_dtd, Dtd, DtdAnalysis, ElemId, Glushkov, SimpleDtd};
use xic_xml::{compile_automata, parse_document, Validator, XmlError, XmlTree};

use crate::hash::fnv1a_parts_wide;

/// Stable content-hash identity of a compiled specification.
///
/// Derived from the canonical renderings of the DTD and the constraint set
/// plus the checker configuration, so two compilations of the same source —
/// even with different whitespace or constraint formatting — share an id,
/// while any semantic change to either component (or to the solver/witness
/// configuration, which can change verdicts) changes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpecId(pub u64, pub u64);

impl fmt::Display for SpecId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "spec-{:016x}{:016x}", self.0, self.1)
    }
}

/// A [`SpecId`] string that did not parse (see the [`FromStr`] impl).
///
/// [`FromStr`]: std::str::FromStr
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSpecIdError {
    detail: String,
}

impl fmt::Display for ParseSpecIdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid spec id: {}", self.detail)
    }
}

impl std::error::Error for ParseSpecIdError {}

impl std::str::FromStr for SpecId {
    type Err = ParseSpecIdError;

    /// Parses the stable hex rendering produced by [`fmt::Display`]
    /// (`spec-<32 hex digits>`; the bare 32-digit form is accepted too), so
    /// an id printed by any report, log header or `--format json` output
    /// round-trips through `xic serve` hello negotiation and `--spec-id`.
    fn from_str(s: &str) -> Result<SpecId, ParseSpecIdError> {
        let hex = s.strip_prefix("spec-").unwrap_or(s);
        if hex.len() != 32 {
            return Err(ParseSpecIdError {
                detail: format!(
                    "expected `spec-` plus 32 hex digits, got {} digits in `{s}`",
                    hex.len()
                ),
            });
        }
        let parse_half = |half: &str| {
            u64::from_str_radix(half, 16).map_err(|_| ParseSpecIdError {
                detail: format!("`{half}` is not hexadecimal"),
            })
        };
        Ok(SpecId(parse_half(&hex[..16])?, parse_half(&hex[16..])?))
    }
}

/// Errors raised while compiling a specification from sources.
#[derive(Debug)]
pub enum CompileError {
    /// The DTD source did not parse.
    Dtd(String),
    /// The constraint source did not parse or did not validate over the DTD.
    Constraints(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Dtd(msg) => write!(f, "DTD error: {msg}"),
            CompileError::Constraints(msg) => write!(f, "constraint error: {msg}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// A `(DTD, Σ)` pair compiled once for repeated checking.
///
/// Compilation precomputes everything the paper's procedures would otherwise
/// rebuild per call:
///
/// * the [`SimpleDtd`] rewriting of Section 4.1,
/// * one Glushkov automaton per element type (document validation),
/// * the linear-time DTD analysis (satisfiability, occurrence facts),
/// * the constraint-class classification (procedure dispatch),
/// * the [`IncrementalLayout`] of the `T ⊨ Σ` index (slot/watcher/touch-map
///   structure shared by every document checked or opened against this
///   spec),
/// * the cardinality system Ψ(D,Σ) when Σ is unary (Theorem 4.1 / 5.1).
#[derive(Debug)]
pub struct CompiledSpec {
    id: SpecId,
    dtd: Dtd,
    sigma: ConstraintSet,
    simple: SimpleDtd,
    analysis: DtdAnalysis,
    automata: Vec<Glushkov>,
    class: Option<ConstraintClass>,
    incremental: Arc<IncrementalLayout>,
    shards: Arc<ShardPlan>,
    system: Option<CardinalitySystem>,
    config: CheckerConfig,
}

impl CompiledSpec {
    /// Compiles an already-built pair with the default checker
    /// configuration.  Fails if Σ does not validate over the DTD.
    pub fn compile(dtd: Dtd, sigma: ConstraintSet) -> Result<CompiledSpec, CompileError> {
        CompiledSpec::compile_with(dtd, sigma, CheckerConfig::default())
    }

    /// Compiles with an explicit checker configuration (solver budgets,
    /// witness synthesis, system options).
    pub fn compile_with(
        dtd: Dtd,
        sigma: ConstraintSet,
        config: CheckerConfig,
    ) -> Result<CompiledSpec, CompileError> {
        let telemetry = xic_telemetry::global();
        let compile_span = telemetry.span("compile");
        sigma
            .validate(&dtd)
            .map_err(|e| CompileError::Constraints(e.to_string()))?;
        // The id covers the checker configuration too: two compilations of
        // the same (D, Σ) under different solver budgets or witness settings
        // can reach different verdicts, so they must not share cache entries.
        let (lo, hi) =
            fnv1a_parts_wide(&[&dtd.render(), &sigma.render(&dtd), &format!("{config:?}")]);
        let id = SpecId(lo, hi);
        // Each compile phase runs in its own span: per-phase latency
        // histograms (`span.compile.*`) plus a nested trace timeline.
        let simple = {
            let _phase = telemetry.span("compile.simplify");
            SimpleDtd::from_dtd(&dtd)
        };
        let analysis = {
            let _phase = telemetry.span("compile.analyze");
            analyze(&dtd)
        };
        let automata = {
            let _phase = telemetry.span("compile.glushkov");
            compile_automata(&dtd)
        };
        let class = sigma.smallest_class();
        let incremental = {
            let _phase = telemetry.span("compile.incremental_layout");
            Arc::new(IncrementalLayout::new(&dtd, &sigma))
        };
        let shards = {
            let _phase = telemetry.span("compile.shard_plan");
            let plan = Arc::new(ShardPlan::of_layout(&incremental));
            telemetry
                .gauge("shard.plan_shards")
                .set(plan.num_shards() as i64);
            plan
        };
        // Ψ(D,Σ) exists exactly for the unary classes the ILP procedures
        // decide (the keys-only and general classes are dispatched
        // elsewhere), and for those classes a build failure is a spec error —
        // swallowing it here would silently demote the spec to the
        // sound-but-incomplete general procedure that `xic check` rejects.
        let system = if !sigma.is_empty()
            && !sigma.in_class(ConstraintClass::KeysOnly)
            && sigma.in_class(ConstraintClass::UnaryKeyNegInclusionNeg)
        {
            let _phase = telemetry.span("compile.system");
            Some(
                CardinalitySystem::build(&dtd, &sigma, &config.system)
                    .map_err(|e| CompileError::Constraints(e.to_string()))?,
            )
        } else {
            None
        };
        telemetry.counter("compile.specs").inc();
        drop(compile_span);
        Ok(CompiledSpec {
            id,
            dtd,
            sigma,
            simple,
            analysis,
            automata,
            class,
            incremental,
            shards,
            system,
            config,
        })
    }

    /// Parses and compiles from textual sources: a DTD (optionally with an
    /// explicit root element) and a constraint set in the surface syntax of
    /// [`xic_constraints::parser`].
    pub fn from_sources(
        dtd_src: &str,
        root: Option<&str>,
        sigma_src: &str,
    ) -> Result<CompiledSpec, CompileError> {
        let dtd = parse_dtd(dtd_src, root).map_err(|e| CompileError::Dtd(e.to_string()))?;
        let sigma = parse_constraint_set(sigma_src, &dtd)
            .map_err(|e| CompileError::Constraints(e.to_string()))?;
        CompiledSpec::compile(dtd, sigma)
    }

    /// The content-hash identity.
    pub fn id(&self) -> SpecId {
        self.id
    }

    /// The DTD `D`.
    pub fn dtd(&self) -> &Dtd {
        &self.dtd
    }

    /// The constraint set Σ.
    pub fn sigma(&self) -> &ConstraintSet {
        &self.sigma
    }

    /// The precomputed simple-DTD rewriting (exposed for inspection and for
    /// downstream consumers such as spec sharding; the consistency path uses
    /// the copy embedded in the cardinality system).
    pub fn simple(&self) -> &SimpleDtd {
        &self.simple
    }

    /// The precomputed linear-time DTD analysis (satisfiability and
    /// occurrence facts, exposed for inspection without re-running
    /// [`xic_dtd::analyze`]).
    pub fn analysis(&self) -> &DtdAnalysis {
        &self.analysis
    }

    /// The smallest paper class admitting Σ (`None` for the general class).
    pub fn class(&self) -> Option<ConstraintClass> {
        self.class
    }

    /// The `T ⊨ Σ` index layout for Σ — the `(D, Σ)`-only slot, watcher
    /// and touch-map structure every checked or opened document shares.
    /// Derived once at compile time; [`CompiledSpec::check_document`] and
    /// [`crate::CorpusSession`] only clone the `Arc`.
    pub fn incremental_layout(&self) -> &Arc<IncrementalLayout> {
        &self.incremental
    }

    /// The touch-graph shard plan for Σ: connected components of the
    /// layout's `(type, attribute)` touch maps, numbered canonically.
    /// Derived once at compile time beside the layout; commit
    /// fan-out, delta tagging and shard-filtered replicas all read it.
    pub fn shard_plan(&self) -> &Arc<ShardPlan> {
        &self.shards
    }

    /// The precomputed cardinality system Ψ(D,Σ), when Σ is unary.
    pub fn system(&self) -> Option<&CardinalitySystem> {
        self.system.as_ref()
    }

    /// The checker configuration the spec was compiled with.
    pub fn config(&self) -> &CheckerConfig {
        &self.config
    }

    /// The precompiled Glushkov automaton of one element type.
    pub fn automaton(&self, ty: ElemId) -> &Glushkov {
        &self.automata[ty.index()]
    }

    /// A document validator over the precompiled automata (cheap to create,
    /// one per worker thread).
    pub fn validator(&self) -> Validator<'_> {
        Validator::from_automata(&self.dtd, &self.automata)
    }

    /// Parses a document against this spec's DTD.
    pub fn parse_document(&self, source: &str) -> Result<XmlTree, XmlError> {
        parse_document(source, &self.dtd)
    }

    /// Parses a document under a [`xic_xml::ParseBudget`] (see
    /// [`crate::Limits::parse_budget`]): oversized, overdeep or overlong
    /// input is rejected with a structured budget error before the work is
    /// spent.
    pub fn parse_document_budgeted(
        &self,
        source: &str,
        budget: &xic_xml::ParseBudget,
    ) -> Result<XmlTree, xic_xml::ParseError> {
        xic_xml::parse_document_budgeted(source, &self.dtd, budget)
    }

    /// One-shot `T ⊨ Σ`: builds the document's [`IncrementalIndex`] over
    /// the precomputed layout and reads its verdict — the same index, and
    /// so exactly the witnesses, the session paths report.
    pub fn check_document(&self, tree: &XmlTree) -> Vec<Violation> {
        IncrementalIndex::with_layout(Arc::clone(&self.incremental), tree).check_all(tree)
    }

    /// Consistency of the compiled specification, dispatching to the
    /// procedure for its class and reusing every precomputed artifact.
    /// Uncached — [`crate::Engine::consistency`] is the memoized entry point.
    pub fn check_consistency(&self) -> ConsistencyOutcome {
        let checker = ConsistencyChecker::with_config(self.config.clone());
        if self.sigma.is_empty() || self.sigma.in_class(ConstraintClass::KeysOnly) {
            return checker.check_keys_only(&self.dtd, &self.sigma);
        }
        if let Some(system) = &self.system {
            if self
                .sigma
                .in_class(ConstraintClass::UnaryKeyNegInclusionNeg)
            {
                return checker.check_unary_with_system(&self.dtd, &self.sigma, system);
            }
        }
        checker.check_general(&self.dtd, &self.sigma)
    }

    /// Implication `(D, Σ) ⊢ φ`.  Uncached — see
    /// [`crate::Engine::implication`].
    pub fn check_implication(
        &self,
        phi: &xic_constraints::Constraint,
    ) -> Result<ImplicationOutcome, SpecError> {
        ImplicationChecker::with_config(self.config.clone()).implies(&self.dtd, &self.sigma, phi)
    }
}
