//! Heap allocations of one document parse.
//!
//! A parsed tree is a fixed set of flat vectors (node slots, element
//! entries, child and attribute lists, the value pool), each reserved once
//! from a count of the input's markup.  So parsing a document costs the
//! same number of heap allocations whatever its size, and the bytes it
//! allocates stay a small multiple of the input.  The binary counts
//! allocations with its own global allocator, and holds a single test so
//! no other test's allocations are counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use xml_integrity_constraints::gen::{catalogue_dtd, random_document, DocGenConfig};
use xml_integrity_constraints::xml::{parse_document, write_document};

/// The system allocator, counting allocation calls and the bytes they ask
/// for.  A `realloc` counts as a call, and its whole new size as bytes.
struct Counting;

static CALLS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

fn count(bytes: usize) {
    CALLS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocation calls one parse may make, whatever the document's size.
const MAX_CALLS: usize = 12;

/// Bytes one parse may allocate, as a multiple of the input's length.
const MAX_BYTES_PER_INPUT_BYTE: usize = 5;

#[test]
fn a_parse_allocates_a_fixed_number_of_blocks_whatever_the_size() {
    let dtd = catalogue_dtd(10);
    let document = |fanout: usize, seed: u64| {
        let tree = random_document(
            &dtd,
            &DocGenConfig {
                seed,
                max_elements: 100 * fanout,
                star_fanout: fanout,
                value_pool: 1_000_000,
                ..Default::default()
            },
        )
        .expect("the catalogue DTD is satisfiable");
        write_document(&tree, &dtd)
    };
    // The first parse also resolves the process-wide parse instruments.
    parse_document(&document(4, 0), &dtd).unwrap();

    let mut calls_per_parse = Vec::new();
    for fanout in [30, 120, 480] {
        for seed in 1..=3 {
            let source = document(fanout, seed);
            let (calls, bytes) = (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
            let tree = parse_document(&source, &dtd).unwrap();
            let calls = CALLS.load(Ordering::Relaxed) - calls;
            let bytes = BYTES.load(Ordering::Relaxed) - bytes;
            println!(
                "fanout {fanout}, seed {seed}: {} bytes, {} nodes, {calls} allocations, \
                 {bytes} bytes allocated ({:.2}x)",
                source.len(),
                tree.num_nodes(),
                bytes as f64 / source.len() as f64
            );
            assert!(
                bytes <= MAX_BYTES_PER_INPUT_BYTE * source.len(),
                "fanout {fanout}: {bytes} bytes allocated for a {}-byte document",
                source.len()
            );
            calls_per_parse.push(calls);
        }
    }
    assert!(
        calls_per_parse.iter().all(|&c| c == calls_per_parse[0]),
        "allocations per parse vary with the document: {calls_per_parse:?}"
    );
    assert!(
        calls_per_parse[0] <= MAX_CALLS,
        "{} allocations per parse",
        calls_per_parse[0]
    );
}
