//! In-memory span recorder for the traced run.
//!
//! The benchmark opens one span around every public call it makes into a
//! layer (`engine.corpus.commit`, `coord.apply`, `core.check`, ...), under
//! one root span per operation (`bench.*`).  Work that a single call does
//! in several layers is split afterwards with *derived* child spans, whose
//! lengths come from counters the program already keeps or from a probe:
//! a separate call the benchmark times outside every operation (root spans
//! named `probe.*`, excluded from the accounting).
//!
//! A span's self time is its length minus its children's.  The self time
//! of the `bench.*` roots is the benchmark's own loop code — the
//! `unattributed` row.  Spans stay in memory until [`finish`] and are
//! written out once, at the end of the run.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span.  Times are nanoseconds since [`start`].
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
    /// Index of the root of this span's tree.
    pub root: usize,
    /// Total length of the direct children (real and derived).
    pub child_ns: u64,
    /// Whether the length was attributed (counter or probe), not timed.
    pub derived: bool,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn self_ns(&self) -> u64 {
        self.dur_ns().saturating_sub(self.child_ns)
    }
}

struct State {
    origin: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
}

thread_local! {
    static STATE: RefCell<Option<State>> = const { RefCell::new(None) };
}

/// Starts recording on this thread, discarding any earlier spans.
pub fn start() {
    STATE.with(|s| {
        *s.borrow_mut() = Some(State {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        })
    });
}

/// Stops recording and hands back every span.
pub fn finish() -> Vec<SpanRec> {
    STATE.with(|s| s.borrow_mut().take().map(|st| st.spans).unwrap_or_default())
}

/// An open span; it closes when dropped or through [`Guard::close`].
#[must_use = "a span closes when its guard drops"]
pub struct Guard {
    id: Option<usize>,
}

impl Guard {
    /// Closes the span and returns its index (for [`derive`]).
    pub fn close(mut self) -> Option<usize> {
        let id = self.id;
        self.end();
        self.id = None;
        id
    }

    fn end(&mut self) {
        let Some(id) = self.id else { return };
        STATE.with(|s| {
            let mut guard = s.borrow_mut();
            let Some(st) = guard.as_mut() else { return };
            let now = st.origin.elapsed().as_nanos() as u64;
            st.spans[id].end_ns = now;
            st.stack.retain(|&open| open != id);
            if let Some(parent) = st.spans[id].parent {
                let dur = st.spans[id].dur_ns();
                st.spans[parent].child_ns += dur;
            }
        });
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        self.end();
        self.id = None;
    }
}

/// Opens a span under the innermost open one (a no-op guard when not
/// recording).
pub fn span(name: &'static str) -> Guard {
    let id = STATE.with(|s| {
        let mut guard = s.borrow_mut();
        let st = guard.as_mut()?;
        let id = st.spans.len();
        let parent = st.stack.last().copied();
        let root = parent.map_or(id, |p| st.spans[p].root);
        let now = st.origin.elapsed().as_nanos() as u64;
        st.spans.push(SpanRec {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            root,
            child_ns: 0,
            derived: false,
        });
        st.stack.push(id);
        Some(id)
    });
    Guard { id }
}

/// Attributes `ns` of a closed span's self time to a derived child span
/// `name`.  The amount is clamped to the self time left, so derived rows
/// never add up to more than was measured.
pub fn derive(parent: Option<usize>, name: &'static str, ns: u64) {
    let Some(parent) = parent else { return };
    STATE.with(|s| {
        let mut guard = s.borrow_mut();
        let Some(st) = guard.as_mut() else { return };
        let p = &st.spans[parent];
        let ns = ns.min(p.self_ns());
        let start_ns = p.start_ns + p.child_ns;
        let root = p.root;
        st.spans[parent].child_ns += ns;
        st.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns + ns,
            parent: Some(parent),
            root,
            child_ns: 0,
            derived: true,
        });
    });
}

/// The self time a closed span has left for [`derive`] (0 when not
/// recording).
pub fn self_ns(span: Option<usize>) -> u64 {
    let Some(span) = span else { return 0 };
    STATE.with(|s| s.borrow().as_ref().map_or(0, |st| st.spans[span].self_ns()))
}

/// Self time per span name, over the trees rooted at `bench.*` spans.
/// The roots' own self time is reported as `unattributed`.
pub fn self_times(spans: &[SpanRec]) -> BTreeMap<&'static str, u64> {
    let mut rows = BTreeMap::new();
    for span in spans {
        if !spans[span.root].name.starts_with("bench.") {
            continue;
        }
        let name = if span.parent.is_none() {
            "unattributed"
        } else {
            span.name
        };
        *rows.entry(name).or_insert(0) += span.self_ns();
    }
    rows
}

/// Total length of the `bench.*` roots: the traced operations' wall time.
pub fn op_wall_ns(spans: &[SpanRec]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name.starts_with("bench."))
        .map(SpanRec::dur_ns)
        .sum()
}

/// Lengths of every span named `name`, in recording order.
pub fn durations(spans: &[SpanRec], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(SpanRec::dur_ns)
        .collect()
}

/// Self times of every span named `name`, in recording order.
pub fn self_durations(spans: &[SpanRec], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(SpanRec::self_ns)
        .collect()
}

/// Writes the first `limit` spans as JSON lines: name, start, end, parent,
/// derived.  Returns how many were written.
pub fn write_jsonl(spans: &[SpanRec], path: &Path, limit: usize) -> std::io::Result<usize> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let written = spans.len().min(limit);
    for (id, span) in spans[..written].iter().enumerate() {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"derived\":{}}}",
            span.name, span.start_ns, span.end_ns, span.derived
        )?;
    }
    out.flush()?;
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_split_parents_children_and_derived_rows() {
        start();
        {
            let _op = span("bench.op");
            let call = span("layer.call");
            std::thread::sleep(std::time::Duration::from_millis(2));
            let id = call.close();
            derive(id, "layer.part", 1_000_000);
            derive(id, "layer.too_much", u64::MAX);
        }
        {
            let _probe = span("probe.extra");
        }
        let spans = finish();
        assert_eq!(spans.len(), 5);
        let rows = self_times(&spans);
        assert_eq!(rows["layer.part"], 1_000_000);
        // Clamped: the derived rows never exceed the measured call.
        assert_eq!(rows["layer.call"], 0);
        let call = spans.iter().find(|s| s.name == "layer.call").unwrap();
        assert_eq!(rows["layer.too_much"], call.dur_ns() - 1_000_000);
        let total: u64 = rows.values().sum();
        assert_eq!(total, op_wall_ns(&spans));
        assert!(!rows.contains_key("probe.extra"));
        // Not recording: guards are inert.
        let idle = span("bench.idle");
        assert!(idle.close().is_none());
    }
}
