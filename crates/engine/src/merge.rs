//! Recombining per-shard projected commit streams into one monolithic
//! verdict — the merge half of multi-process sharded validation.
//!
//! A coordinator fans a [`crate::CorpusSession`] workload out to shard
//! workers: each worker runs a session scoped with
//! [`crate::CorpusSession::scope_to_shards`], so its [`DocChange`] frames
//! carry only the Σ violations of its own shards (plus the
//! shard-independent structural errors and faults every worker recomputes).
//! [`ReportMerger`] is the inverse operation: it holds one violation slice
//! per shard and the structural view of a designated *authority* worker
//! (one that receives every edit batch, so its `T ⊨ D` errors are always
//! current), and recombines them into reports and [`BatchDelta`]s equal to
//! what one unscoped monolithic session would have produced:
//!
//! * Σ violations are unioned by shard partition and re-interleaved into
//!   global Σ order through [`ShardPlan::order_of_rendered`] (verdict
//!   extraction emits at most one violation per constraint, in Σ order, so
//!   a stable sort on that key is exact);
//! * structural errors and faults arrive from *every* worker that saw the
//!   batch (broadcasts most of all), and are deduplicated by taking the
//!   authority's copy once — never counted per shard;
//! * per-document clean/violating state, corpus totals, transitions and
//!   [`crate::DeltaSummary`] tallies are recomputed from the merged
//!   reports, so the merged stream satisfies every
//!   [`crate::CorpusReplica::apply_delta`] invariant and replays through a
//!   stock replica.
//!
//! `tests/coord_agreement.rs` holds the merged output witness-identical to
//! a monolithic [`crate::CorpusSession`] oracle across the `xic-gen`
//! workload families.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use xic_constraints::{ShardPlan, Violation};

use crate::batch::{BatchReport, DocFault, DocReport};
use crate::corpus::{BatchDelta, ClosedDoc, DocChange, DocHandle};

/// One document's merge state: the authority's structural view plus one Σ
/// violation slice per shard, and the last merged report the stream
/// announced.
#[derive(Debug)]
struct MergeDoc {
    label: String,
    /// Structural `T ⊨ D` errors, from the authority worker's last change.
    validation_errors: Vec<String>,
    /// Contained per-document fault, from the authority worker.
    fault: Option<DocFault>,
    /// Σ violations keyed by the shard that owns their constraint.
    slices: BTreeMap<u32, Vec<Violation>>,
    /// Clean state as of the last merged commit (`None` before it).
    committed_clean: Option<bool>,
    /// The last merged report announced for this document.
    report: Option<DocReport>,
}

/// Merges per-shard [`DocChange`] frames back into monolithic reports and
/// deltas (see the module docs for the exact semantics).
///
/// Drive it like the session it mirrors: [`ReportMerger::open`] /
/// [`ReportMerger::close`] when documents open and close,
/// [`ReportMerger::absorb`] for every change a worker's commit returned,
/// then [`ReportMerger::commit`] to mint the merged delta.
#[derive(Debug)]
pub struct ReportMerger {
    plan: Arc<ShardPlan>,
    /// Open documents in handle (= open) order.
    docs: BTreeMap<u64, MergeDoc>,
    /// Open documents whose merged committed state is clean.
    clean_docs: usize,
    /// Documents closed since the last merged commit, in close order.
    closed: Vec<ClosedDoc>,
    /// Handles some worker reported a change for since the last commit.
    touched: BTreeSet<u64>,
    /// Merged commit counter (the first merged delta is `seq` 1).
    seq: u64,
}

impl ReportMerger {
    /// An empty merger over the spec's shard plan.
    pub fn new(plan: Arc<ShardPlan>) -> ReportMerger {
        ReportMerger {
            plan,
            docs: BTreeMap::new(),
            clean_docs: 0,
            closed: Vec::new(),
            touched: BTreeSet::new(),
            seq: 0,
        }
    }

    /// Registers a newly opened document.  Handles must arrive in open
    /// order (they are the coordinator's, minted monotonically).
    pub fn open(&mut self, handle: DocHandle, label: &str) {
        let previous = self.docs.insert(
            handle.raw(),
            MergeDoc {
                label: label.to_owned(),
                validation_errors: Vec::new(),
                fault: None,
                slices: BTreeMap::new(),
                committed_clean: None,
                report: None,
            },
        );
        assert!(previous.is_none(), "merge: {handle} opened twice");
    }

    /// Registers a close; it is announced by the next merged delta.
    pub fn close(&mut self, handle: DocHandle) {
        let doc = self
            .docs
            .remove(&handle.raw())
            .unwrap_or_else(|| panic!("merge: close of unknown {handle}"));
        if doc.committed_clean == Some(true) {
            self.clean_docs -= 1;
        }
        self.touched.remove(&handle.raw());
        self.closed.push(ClosedDoc {
            handle,
            label: doc.label,
        });
    }

    /// Folds one worker's [`DocChange`] in: the change's violations replace
    /// this worker's slices (`worker_shards` — the scope the worker runs
    /// under; its projected report is complete for that scope, so shards it
    /// reports nothing for are now clean).  When the change comes from the
    /// authority worker, its structural errors and fault replace the merged
    /// structural view; every other worker's copy of the same broadcast is
    /// dropped here — the dedup that keeps structural errors counted once.
    pub fn absorb(&mut self, worker_shards: &[u32], authority: bool, change: &DocChange) {
        let doc = self
            .docs
            .get_mut(&change.handle.raw())
            .unwrap_or_else(|| panic!("merge: change for unknown {}", change.handle));
        for &shard in worker_shards {
            doc.slices.remove(&shard);
        }
        for violation in &change.report.violations {
            let shard = self
                .plan
                .shard_of_rendered(violation.constraint())
                .unwrap_or_else(|| {
                    panic!(
                        "merge: violation of unknown constraint `{}`",
                        violation.constraint()
                    )
                });
            assert!(
                worker_shards.contains(&shard),
                "merge: worker scoped to {worker_shards:?} reported a shard-{shard} violation"
            );
            doc.slices.entry(shard).or_default().push(violation.clone());
        }
        if authority {
            doc.validation_errors = change.report.validation_errors.clone();
            doc.fault = change.report.fault.clone();
        }
        self.touched.insert(change.handle.raw());
    }

    /// Mints the merged delta for one commit round, after every
    /// participating worker's delta was [`ReportMerger::absorb`]ed.
    ///
    /// `rechecked_docs` is the coordinator's dirty-set size (the documents
    /// the round re-checked — same accounting as the monolithic session);
    /// `dirty_shards` maps a handle to the shards its edits dirtied since
    /// the last commit, the tag a non-broadcast change carries.  Opens,
    /// structural-error or fault churn are broadcast-tagged, exactly like
    /// [`crate::CorpusSession::commit`].
    pub fn commit(
        &mut self,
        rechecked_docs: usize,
        dirty_shards: &BTreeMap<u64, Vec<u32>>,
    ) -> BatchDelta {
        let plan = Arc::clone(&self.plan);
        let touched = std::mem::take(&mut self.touched);
        let closed = std::mem::take(&mut self.closed);
        let mut changes: Vec<DocChange> = Vec::new();
        // Open-order positions after the round's closes, monolith-style.
        let positions: BTreeMap<u64, usize> = self
            .docs
            .keys()
            .enumerate()
            .map(|(position, &raw)| (raw, position))
            .collect();
        for &raw in &touched {
            let doc = self
                .docs
                .get_mut(&raw)
                .expect("touched handles are open: close() untouches");
            let mut violations: Vec<Violation> = doc.slices.values().flatten().cloned().collect();
            // Stable: equal keys (duplicate renders share a shard) keep
            // their slice order, which is their Σ order.
            violations.sort_by_key(|v| {
                plan.order_of_rendered(v.constraint())
                    .expect("absorbed violations name known constraints")
            });
            let fresh = DocReport {
                index: positions[&raw],
                label: doc.label.clone(),
                parse_error: None,
                validation_errors: doc.validation_errors.clone(),
                violations,
                fault: doc.fault.clone(),
            };
            let was_clean = doc.committed_clean;
            let now_clean = fresh.is_clean();
            let (changed, structural_churn) = match &doc.report {
                None => (true, true),
                Some(previous) => (
                    previous.validation_errors != fresh.validation_errors
                        || previous.violations != fresh.violations
                        || previous.fault != fresh.fault,
                    previous.validation_errors != fresh.validation_errors
                        || previous.fault != fresh.fault,
                ),
            };
            if !changed {
                continue;
            }
            match (was_clean, now_clean) {
                (Some(true), false) => self.clean_docs -= 1,
                (Some(false), true) | (None, true) => self.clean_docs += 1,
                _ => {}
            }
            doc.committed_clean = Some(now_clean);
            doc.report = Some(fresh.clone());
            let broadcast = was_clean.is_none() || structural_churn;
            changes.push(DocChange {
                handle: DocHandle::from_raw(raw),
                was_clean,
                report: fresh,
                shards: if broadcast {
                    plan.all_shards().collect()
                } else {
                    let mut shards = dirty_shards.get(&raw).cloned().unwrap_or_default();
                    shards.sort_unstable();
                    shards.dedup();
                    shards
                },
            });
        }
        changes.sort_by_key(|c| c.handle);
        self.seq += 1;
        let mut delta_shards: BTreeSet<u32> = changes
            .iter()
            .flat_map(|c| c.shards.iter().copied())
            .collect();
        if !closed.is_empty() {
            delta_shards.extend(self.plan.all_shards());
        }
        BatchDelta {
            seq: self.seq,
            changes,
            closed,
            rechecked_docs,
            total: self.docs.len(),
            clean: self.clean_docs,
            shards: delta_shards.into_iter().collect(),
        }
    }

    /// The merged corpus report — ordered and shaped exactly like the
    /// monolithic [`crate::CorpusSession::report`].
    ///
    /// # Panics
    /// Panics if changes were absorbed (or documents opened) without a
    /// [`ReportMerger::commit`] to announce them, mirroring the session.
    pub fn report(&self) -> BatchReport {
        assert!(
            self.touched.is_empty(),
            "merged report requires a commit after every absorbed change"
        );
        let reports = self
            .docs
            .values()
            .enumerate()
            .map(|(position, doc)| {
                let mut report = doc
                    .report
                    .clone()
                    .expect("committed documents always carry a merged report");
                report.index = position;
                report
            })
            .collect();
        BatchReport::from_reports(reports)
    }

    /// The last merged sequence number (0 before the first commit).
    pub fn last_seq(&self) -> u64 {
        self.seq
    }

    /// Open documents.
    pub fn num_docs(&self) -> usize {
        self.docs.len()
    }

    /// The merged clean state of one open document as of the last commit.
    pub fn committed_clean(&self, handle: DocHandle) -> Option<bool> {
        self.docs.get(&handle.raw()).and_then(|d| d.committed_clean)
    }
}
