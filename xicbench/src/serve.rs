//! `serve` — the serving path: one client drives a `Coordinator` with two
//! `xic serve` shard workers over loopback.
//!
//! The spec gives every catalogue kind a unary key, so Σ splits into one
//! shard per kind, spread over the two workers.  Each operation is one
//! batch of `SetAttr` on key attributes, one per worker's shards (values
//! from a small pool, so verdicts change), applied and committed through
//! the coordinator: routing, wire frames, requests to every worker, the
//! sequential per-group commit and the merge all run.  Gate: the merged report equals an in-process `CorpusSession`
//! fed the same script.
//!
//! The workers are this executable run as `xic serve` (see `main.rs`), so
//! they are always built from the same sources.  Their address files live
//! in a scratch directory under the working directory, removed on every
//! exit path.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use xic_constraints::{Constraint, ConstraintSet};
use xic_coord::{CoordConfig, Coordinator};
use xic_engine::wire::{read_response, write_response};
use xic_engine::{
    BatchDelta, CompiledSpec, CorpusSession, DocHandle, ReportMerger, Response, ShardPlan,
};
use xic_gen::catalogue_dtd;
use xic_telemetry::RegistrySnapshot;
use xic_xml::{EditOp, NodeId};

use crate::ingest::oracle_reports;
use crate::inputs::{catalogue_doc, constrained_slots};
use crate::pace::Pacer;
use crate::stats::{self, setup_median, Rng};
use crate::{trace, Config, Outcome, Samples, Size};

const KINDS: usize = 8;
const WORKERS: usize = 2;
/// Key values `SetAttr` draws from.
const VALUE_POOL: usize = 8;

/// A directory removed when dropped, whatever path the run leaves by.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn create(path: PathBuf) -> Result<ScratchDir, String> {
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create scratch directory {}: {e}", path.display()))?;
        Ok(ScratchDir(path))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no other run's directory is left in it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// The executable the coordinator spawns workers from: this one.
fn worker_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| {
        format!("cannot find the benchmark executable to run shard workers from: {e}")
    })?;
    if exe.is_file() {
        Ok(exe)
    } else {
        Err(format!(
            "the benchmark executable {} is gone; rebuild it with \
             `cargo build --release --manifest-path xicbench/Cargo.toml`",
            exe.display()
        ))
    }
}

struct Inputs {
    dtd_path: PathBuf,
    sigma_path: PathBuf,
    root: String,
    docs: Vec<(String, String)>,
}

fn launch(inputs: &Inputs, scratch: &Path, exe: &Path) -> Result<(Coordinator, Vec<u64>), String> {
    let mut coordinator = Coordinator::launch(CoordConfig {
        xic_bin: exe.to_path_buf(),
        dtd: inputs.dtd_path.clone(),
        root: Some(inputs.root.clone()),
        constraints: Some(inputs.sigma_path.clone()),
        workers: WORKERS,
        scratch: scratch.to_path_buf(),
        session: "bench".to_string(),
        max_restarts: 1,
    })
    .map_err(|e| {
        format!(
            "cannot start shard workers from {} (this executable, run as `xic serve`): {e}",
            exe.display()
        )
    })?;
    let handles = inputs
        .docs
        .iter()
        .map(|(label, source)| coordinator.open_doc(label, source))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("open: {e}"))?;
    coordinator
        .commit()
        .map_err(|e| format!("first commit: {e}"))?;
    Ok((coordinator, handles))
}

/// Traced-phase measurements from the probes.
#[derive(Default)]
struct Probe {
    codec_ns: u64,
    merge_ns: u64,
    delta_bytes: u64,
    /// Span ids of the coordinator calls, for the worker-time share.
    coord_spans: Vec<Option<usize>>,
}

/// Replays merged deltas through a `ReportMerger` fed per-shard
/// projections, as the coordinator's merge sees its workers' frames.
struct MergeReplay {
    merger: ReportMerger,
    plan: Arc<ShardPlan>,
}

impl MergeReplay {
    fn new(spec: &CompiledSpec, docs: &[(u64, String)]) -> MergeReplay {
        let plan = Arc::clone(spec.shard_plan());
        let mut merger = ReportMerger::new(Arc::clone(&plan));
        for (handle, label) in docs {
            merger.open(DocHandle::from_raw(*handle), label);
        }
        MergeReplay { merger, plan }
    }

    fn replay(&mut self, delta: &BatchDelta) {
        let mut dirty: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        for shard in self.plan.all_shards() {
            let Some(projected) = delta.project(&self.plan, shard) else {
                continue;
            };
            for change in &projected.changes {
                self.merger.absorb(&[shard], shard == 0, change);
                dirty.entry(change.handle.raw()).or_default().push(shard);
            }
        }
        std::hint::black_box(self.merger.commit(delta.rechecked_docs, &dirty));
    }
}

struct Server {
    coordinator: Coordinator,
    handles: Vec<u64>,
    /// Key slots per document and shard group (node ids agree in every
    /// party's parse).
    slots: Vec<Vec<Vec<(NodeId, xic_dtd::AttrId)>>>,
    rng: Rng,
    /// Every edit batch applied, in order, for the in-process oracle.
    script: Vec<(usize, Vec<EditOp>)>,
    failures: Vec<String>,
}

impl Server {
    /// One batch of one `SetAttr` per shard group, so every acknowledged
    /// commit fans out to every worker (a mix of one- and two-worker
    /// commits would put the median on the seam between two modes).
    fn op(&mut self, traced: Option<(&mut Probe, &mut MergeReplay)>) -> f64 {
        let d = self.rng.below(self.handles.len());
        let mut edits = Vec::new();
        for group in 0..self.slots[d].len() {
            let slots = &self.slots[d][group];
            if slots.is_empty() {
                continue;
            }
            let (element, attr) = slots[self.rng.below(slots.len())];
            edits.push(EditOp::SetAttr {
                element,
                attr,
                value: format!("k{}", self.rng.below(VALUE_POOL)),
            });
        }
        let op = trace::span("bench.serve");
        let start = Instant::now();
        let call = trace::span("coord.apply");
        let applied = self.coordinator.apply(self.handles[d], &edits);
        let apply_id = call.close();
        let call = trace::span("coord.commit");
        let committed = self.coordinator.commit();
        let commit_id = call.close();
        let latency_us = start.elapsed().as_nanos() as f64 / 1e3;
        drop(op);

        if let Err(e) = applied {
            self.failures.push(format!("apply: {e}"));
        }
        self.script.push((d, edits));
        let delta = match committed {
            Ok(delta) => delta,
            Err(e) => {
                self.failures.push(format!("commit: {e}"));
                return latency_us;
            }
        };
        if let Some((probe, replay)) = traced {
            let _probe = trace::span("probe.wire_merge");
            // The merged delta through the wire codec, as a subscriber
            // would receive it.
            let seq = delta.seq;
            let response = Response::Delta(delta);
            let mut frame = Vec::new();
            let t = Instant::now();
            write_response(&mut frame, seq, &response).expect("in-memory write");
            let decoded = read_response(&mut &frame[..]);
            let codec_ns = t.elapsed().as_nanos() as u64;
            std::hint::black_box(decoded.ok());
            let Response::Delta(delta) = response else {
                unreachable!("built as a delta")
            };
            let t = Instant::now();
            replay.replay(&delta);
            let merge_ns = t.elapsed().as_nanos() as u64;
            trace::derive(commit_id, "engine.wire.codec", codec_ns);
            trace::derive(commit_id, "engine.merge", merge_ns);
            probe.codec_ns += codec_ns;
            probe.merge_ns += merge_ns;
            probe.delta_bytes += frame.len() as u64;
            probe.coord_spans.push(apply_id);
            probe.coord_spans.push(commit_id);
        }
        latency_us
    }

    fn run_for(
        &mut self,
        phase: Duration,
        pacer: &mut Pacer,
        mut traced: Option<(&mut Probe, &mut MergeReplay)>,
    ) -> Samples {
        let start = Instant::now();
        let mut samples = Samples::default();
        while samples.is_empty() || start.elapsed() < phase {
            let probe = traced.as_mut().map(|(p, r)| (&mut **p, &mut **r));
            let factor = pacer.tick();
            samples.push(self.op(probe), factor);
        }
        samples
    }

    fn worker_stats(&mut self) -> Result<Vec<RegistrySnapshot>, String> {
        (0..self.coordinator.num_groups())
            .map(|g| {
                self.coordinator
                    .worker_stats(g)
                    .map_err(|e| format!("worker {g} stats: {e}"))
            })
            .collect()
    }
}

fn hist_sum(s: &RegistrySnapshot, name: &str) -> u64 {
    s.histogram(name).map_or(0, |h| h.sum)
}

fn counter(s: &RegistrySnapshot, name: &str) -> u64 {
    s.counter(name).unwrap_or(0)
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let (num_docs, fanout) = match cfg.size {
        Size::Full => (12, 32),
        Size::Tiny => (4, 3),
    };
    let dtd = catalogue_dtd(KINDS);
    let mut sigma = ConstraintSet::new();
    for ty in dtd.types() {
        if let Some(&attr) = dtd.attrs_of(ty).first() {
            sigma.push(Constraint::unary_key(ty, attr));
        }
    }
    let dtd_src = dtd.render();
    let root = dtd.type_name(dtd.root()).to_string();
    let sigma_src = sigma.render(&dtd);
    let spec = CompiledSpec::from_sources(&dtd_src, Some(&root), &sigma_src)
        .map_err(|e| format!("serve spec: {e}"))?;
    let docs: Vec<(String, String)> = (0..num_docs)
        .map(|i| {
            let doc = catalogue_doc(&dtd, cfg.seed, i, fanout);
            (doc.label, doc.content)
        })
        .collect();
    // Each key slot with the shard its key constraint belongs to.
    let mut slots = Vec::new();
    let mut nodes = 0;
    for (_, source) in &docs {
        let tree = spec
            .parse_document(source)
            .map_err(|e| format!("generated document does not parse: {e}"))?;
        nodes += tree.num_nodes();
        let sharded: Vec<_> = constrained_slots(&tree, spec.sigma())
            .into_iter()
            .filter_map(|(element, attr)| {
                let ty = tree.element_type(element)?;
                let rendered = Constraint::unary_key(ty, attr).render(spec.dtd());
                let shard = spec.shard_plan().shard_of_rendered(&rendered)?;
                Some((element, attr, shard))
            })
            .collect();
        slots.push(sharded);
    }

    let scratch = ScratchDir::create(
        Path::new(".xicbench-tmp").join(format!("serve-{}", std::process::id())),
    )?;
    let inputs = Inputs {
        dtd_path: scratch.0.join("spec.dtd"),
        sigma_path: scratch.0.join("spec.xic"),
        root,
        docs,
    };
    std::fs::write(&inputs.dtd_path, &dtd_src).map_err(|e| format!("write spec: {e}"))?;
    std::fs::write(&inputs.sigma_path, &sigma_src).map_err(|e| format!("write spec: {e}"))?;
    let exe = worker_binary()?;

    // Set-up: coordinator launch (spawn, handshake), opens, first commit.
    let mut pacer = Pacer::new(!cfg.trace, true).map_err(|e| format!("pacer: {e}"))?;
    let (setup_s, launched) = setup_median(&mut pacer, || launch(&inputs, &scratch.0, &exe));
    let (coordinator, handles) = launched?;

    let mut out = Outcome::default();
    out.shape("docs", num_docs);
    out.shape("nodes", nodes);
    out.shape(
        "bytes",
        inputs.docs.iter().map(|(_, s)| s.len()).sum::<usize>(),
    );
    out.shape("constraints", spec.sigma().len());
    out.shape("shards", spec.shard_plan().num_shards());
    out.shape("workers", coordinator.num_groups());

    let mut group_of_shard = vec![0; spec.shard_plan().num_shards()];
    for group in 0..coordinator.num_groups() {
        for &shard in coordinator.group_shards(group) {
            group_of_shard[shard as usize] = group;
        }
    }
    let slots = slots
        .into_iter()
        .map(|doc| {
            let mut by_group = vec![Vec::new(); coordinator.num_groups()];
            for (element, attr, shard) in doc {
                by_group[group_of_shard[shard as usize]].push((element, attr));
            }
            by_group
        })
        .collect();
    let mut server = Server {
        coordinator,
        handles,
        slots,
        rng: Rng::new(Rng::derive(cfg.seed, 9)),
        script: Vec::new(),
        failures: Vec::new(),
    };
    server.run_for(Duration::from_millis(300), &mut pacer, None);
    out.warmed_up();
    let (untraced, traced) = cfg.phases();
    let samples = server.run_for(untraced, &mut pacer, None);

    if cfg.trace {
        let mut replay = MergeReplay::new(
            &spec,
            &server
                .handles
                .iter()
                .zip(&inputs.docs)
                .map(|(&h, (label, _))| (h, label.clone()))
                .collect::<Vec<_>>(),
        );
        for delta in server.coordinator.deltas() {
            replay.replay(delta);
        }
        let before = server.worker_stats()?;
        let mut probe = Probe::default();
        trace::start();
        let traced_samples = server.run_for(traced, &mut pacer, Some((&mut probe, &mut replay)));
        let after = server.worker_stats()?;
        let ops = traced_samples.len() as f64;

        // Worker busy time is time the coordinator waited: attribute it
        // to the coordinator calls in proportion to their remaining time.
        let worker_ns: Vec<u64> = before
            .iter()
            .zip(&after)
            .map(|(b, a)| hist_sum(a, "server.request_ns") - hist_sum(b, "server.request_ns"))
            .collect();
        let coord_self: u64 = probe.coord_spans.iter().map(|&id| trace::self_ns(id)).sum();
        let share = (worker_ns.iter().sum::<u64>() as f64 / coord_self.max(1) as f64).min(1.0);
        for &id in &probe.coord_spans {
            trace::derive(
                id,
                "server.request",
                (trace::self_ns(id) as f64 * share) as u64,
            );
        }
        let spans = trace::finish();

        let p50 = |name: &str| {
            let samples: Vec<f64> = trace::durations(&spans, name)
                .into_iter()
                .map(stats::us)
                .collect();
            stats::quantile_of(&samples, 0.5)
        };
        out.metric("coord.apply_us", p50("coord.apply"));
        out.metric("coord.commit_us", p50("coord.commit"));
        for (g, name) in ["server.request_us.w0", "server.request_us.w1"]
            .into_iter()
            .enumerate()
        {
            out.metric(
                name,
                worker_ns.get(g).map_or(0.0, |&ns| stats::us(ns) / ops),
            );
        }
        let delta_of = |name: &str| -> u64 {
            before
                .iter()
                .zip(&after)
                .map(|(b, a)| counter(a, name) - counter(b, name))
                .sum()
        };
        // The closing stats request of each worker is counted too.
        let requests = delta_of("server.requests").saturating_sub(after.len() as u64);
        out.metric("server.requests_per_commit", requests as f64 / ops);
        let (rechecked, skipped) = (delta_of("shard.rechecked"), delta_of("shard.skipped"));
        out.metric(
            "shard.skip_frac",
            skipped as f64 / (rechecked + skipped).max(1) as f64,
        );
        out.metric(
            "engine.wire.delta_bytes_per_commit",
            probe.delta_bytes as f64 / ops,
        );
        out.metric("engine.wire.codec_us", stats::us(probe.codec_ns) / ops);
        out.metric("engine.merge_us", stats::us(probe.merge_ns) / ops);
        let residual: u64 = trace::self_durations(&spans, "coord.commit").iter().sum();
        out.metric("coord.commit_residual_us", stats::us(residual) / ops);
        out.trace_rows(
            cfg,
            &spans,
            traced_samples.len(),
            stats::mean(&samples.raw_us),
        );
        // The probe's replay must reproduce the coordinator's merge, or its
        // timing measures some other computation.
        out.gate(
            replay.merger.report() == server.coordinator.report(),
            || "serve: the merge replay differs from the coordinator's report".to_string(),
        );
    } else {
        let busy = samples.ref_busy_s();
        out.end_to_end(&samples, samples.len(), busy, setup_s, 0.99, &pacer);
    }
    let restarts: usize = (0..server.coordinator.num_groups())
        .map(|g| server.coordinator.worker_restarts(g))
        .sum();
    if cfg.trace {
        out.metric("coord.restarts", restarts as f64);
    }

    // Gates, untimed: every call succeeded, and the merged report is what
    // one in-process session reports after the same script.
    out.attempted += server.script.len() as u64;
    out.failed += server.failures.len() as u64;
    out.failures.append(&mut server.failures);
    let mut mono = CorpusSession::new(&spec);
    let mono_handles = inputs
        .docs
        .iter()
        .map(|(label, source)| mono.open_source(label, source))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("oracle open: {e}"))?;
    mono.commit();
    for (d, edits) in &server.script {
        let _ = mono.apply(mono_handles[*d], edits);
        mono.commit();
    }
    let oracle = oracle_reports(mono.report(), cfg.corrupt_oracle);
    let merged = server.coordinator.report();
    out.gate(merged.reports() == oracle.as_slice(), || {
        format!(
            "serve: merged report ({} clean of {}) differs from the in-process session",
            merged.clean_count(),
            merged.total(),
        )
    });
    out.shape("edits", server.script.len());
    out.shape("restarts", restarts);
    server.coordinator.shutdown();
    Ok(out)
}
