//! Heap bytes per ordered pair of nodes, counted by a global allocator.
//!
//! A swarm's state that grows with the square of its size is what caps
//! the population a machine can run: every leecher keeps a view of every
//! node id. (Every sender once kept a FIFO clamp entry per destination
//! too; an entry now lives only while a message on its pair can still be
//! clamped, in one table that a large swarm grows past the counted
//! sizes.) Resident
//! memory is noisy, but the allocator's byte count is deterministic per
//! seed, so the growth of one scale swarm's heap peak between two sizes,
//! over the growth of its ordered pairs of nodes, pins the bytes per
//! ordered pair. A per-leecher buffer sized by the swarm, or a frame
//! encoded per greeting reply, adds its bytes to it and fails the bound.
//!
//! Only allocations below [`ROW_CAP`] are counted. Per-node state is rows
//! of one entry per node, a few KiB each at these sizes; the simulator's
//! shared tables (the event queue's heap and slab, the flow table) are
//! single large allocations that keep their capacity, which doubles in
//! steps of hundreds of kB at pending-event counts that move with any
//! change to the traffic. Left in, those steps decide the slope.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use splicecast_core::{run_once, ExperimentConfig, SplicingSpec, VideoSpec};

/// The largest allocation counted: eight times a per-node row of these
/// swarms (a view table or a list of the other nodes is at most about
/// 2 KiB at 240 leechers), and below every shared table.
const ROW_CAP: usize = 16 << 10;

/// The system allocator, counting the bytes live in allocations below
/// [`ROW_CAP`] and their peak.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    if bytes < ROW_CAP {
        let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrank(bytes: usize) {
    if bytes < ROW_CAP {
        LIVE.fetch_sub(bytes, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System` and
// returns what `System` returned, so `System`'s guarantees hold; the
// counters only read the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The counted heap peak of one full-mesh scale swarm of `leechers`,
/// over what was live before it started.
fn heap_peak(leechers: usize) -> usize {
    let mut config = ExperimentConfig::paper_baseline()
        .with_scale_profile()
        .with_bandwidth(512_000.0)
        .with_splicing(SplicingSpec::Duration(2.0))
        .with_leechers(leechers);
    config.video = VideoSpec {
        duration_secs: 24.0,
    };
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let result = run_once(&config, 5);
    let peak = PEAK.load(Ordering::Relaxed) - before;
    assert!(result.metrics.reports.iter().all(|r| r.finished));
    peak
}

/// Ordered pairs of distinct nodes in a swarm of `leechers`: the hub and
/// the seeder are nodes too.
fn ordered_pairs(leechers: usize) -> usize {
    let nodes = leechers + 2;
    nodes * (nodes - 1)
}

#[test]
fn heap_peak_per_ordered_pair_is_the_views_and_the_fifo_clamp() {
    // One test in this file: the counters see every thread's allocations.
    let sizes = [100, 240];
    let peaks = sizes.map(heap_peak);
    let per_pair =
        (peaks[1] - peaks[0]) as f64 / (ordered_pairs(sizes[1]) - ordered_pairs(sizes[0])) as f64;
    eprintln!("heap peaks {peaks:?} B at {sizes:?} leechers: {per_pair:.2} B per ordered pair");
    // 15.8 B (15.7–16.0 B over seeds 5 to 10, 15.5 B in a debug build):
    // the views (8.375 B at up to 64 segments), plus the messages in
    // flight at the peak and their receiver lists, which also grow with
    // the square of a full mesh. The FIFO clamp's dense rows (a 4-byte
    // entry per ordered pair) read 20.1 B; a fresh greeting frame per
    // reply instead of one shared per node 24.4–26.9 B; a 4-byte column
    // per view slot (the old `outstanding`) 23.9–24.2 B; per-leecher
    // member and scratch lists with 8-byte clamp entries 42.0 B before
    // those.
    assert!(
        per_pair < 18.0,
        "the heap peak grows by {per_pair:.2} B per ordered pair of nodes: \
         a per-leecher (or per-sender) buffer sized by the swarm, or a \
         frame per greeting reply, is back"
    );
}
