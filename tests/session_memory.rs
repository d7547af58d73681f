//! Heap growth of a long edit loop on a document no corpus log holds.
//!
//! A session keeps only what its log lacks: a document that was never
//! persisted keeps no record of the edits applied to it, because its first
//! `open` snapshot will fold them all.  With the delta history pruned after
//! every commit, the session's live heap must therefore stay flat no matter
//! how many edits it absorbs.  The binary counts live bytes with its own
//! global allocator, and holds a single test so no other test's
//! allocations are counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use xml_integrity_constraints::engine::{CompiledSpec, CorpusSession};
use xml_integrity_constraints::xml::EditOp;

/// The system allocator, counting the bytes currently allocated.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Live-heap growth allowed over the measured edit loop.
const BUDGET_BYTES: isize = 16 * 1024;

#[test]
fn unlogged_edits_leave_no_heap_behind() {
    let spec = CompiledSpec::from_sources(
        "<!ELEMENT school (teacher*)>\n\
         <!ELEMENT teacher EMPTY>\n\
         <!ATTLIST teacher name CDATA #REQUIRED>",
        Some("school"),
        "teacher.name -> teacher",
    )
    .unwrap();
    let mut session = CorpusSession::with_registry(&spec, Default::default());
    let doc = session
        .open_source(
            "doc",
            "<school><teacher name=\"Joe\"/><teacher name=\"Ann\"/></school>",
        )
        .unwrap();
    session.commit();
    let first = session.tree(doc).unwrap().elements().nth(1).unwrap();
    let name = spec.dtd().attr_by_name("name").unwrap();
    // Both values are already in the document's pool, and each edit flips
    // the key's verdict, so every commit yields a non-empty delta.
    let edit = |session: &mut CorpusSession<'_>, step: usize| {
        let value = if step.is_multiple_of(2) { "Ann" } else { "Joe" };
        let op = EditOp::SetAttr {
            element: first,
            attr: name,
            value: value.to_string(),
        };
        session.apply(doc, &[op]).unwrap();
        assert!(!session.commit().is_empty());
        session.prune_deltas(session.last_seq());
    };
    // Warm up every buffer the steady state reuses.
    for step in 0..1_000 {
        edit(&mut session, step);
    }

    let before = LIVE.load(Ordering::Relaxed);
    for step in 0..10_000 {
        edit(&mut session, step);
    }
    let grown = LIVE.load(Ordering::Relaxed) - before;
    assert!(
        grown < BUDGET_BYTES,
        "10 000 edits of an unlogged document grew the live heap by {grown} bytes"
    );
    assert_eq!(session.last_seq(), 11_001);
}
